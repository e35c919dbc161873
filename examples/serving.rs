//! Multi-tenant serving demo: a sharded `gmaa_serve::SessionManager`
//! hosting several analysts' what-if sessions at once — the paper's
//! 23-ontology study for one tenant, smaller ad-hoc models for others —
//! with LRU hibernation and the serving counters at the end.
//!
//! Run with: `cargo run --release --example serving`

use gmaa_serve::{Request, Response, ServeConfig, SessionConfig, SessionManager};
use maut::prelude::*;

fn laptop_model(tag: &str) -> DecisionModel {
    let mut b = DecisionModelBuilder::new(format!("Laptops ({tag})"));
    let price =
        b.continuous_attribute("price", "Price (EUR)", 400.0, 2500.0, Direction::Decreasing);
    let battery = b.discrete_attribute("battery", "Battery life", &["poor", "ok", "good", "great"]);
    let cpu = b.discrete_attribute("cpu", "CPU tier", &["entry", "mid", "high"]);
    b.attach_attributes_to_root(&[
        (price, Interval::new(0.3, 0.5)),
        (battery, Interval::new(0.2, 0.4)),
        (cpu, Interval::new(0.2, 0.4)),
    ]);
    b.alternative(
        "UltraBook X",
        vec![Perf::value(1800.0), Perf::level(3), Perf::level(2)],
    );
    b.alternative(
        "Workhorse W",
        vec![Perf::value(1200.0), Perf::level(1), Perf::level(2)],
    );
    b.alternative(
        "Budget B",
        vec![Perf::value(600.0), Perf::level(2), Perf::level(0)],
    );
    b.alternative(
        "Mystery M",
        vec![Perf::value(900.0), Perf::Missing, Perf::level(1)],
    );
    b.build().expect("valid model")
}

fn main() {
    // Four shard worker threads, each keeping only one session resident —
    // small on purpose, so the demo shows LRU hibernation at work.
    let manager = SessionManager::new(ServeConfig {
        shards: 4,
        max_sessions_per_shard: 1,
        session: SessionConfig {
            mc_trials: 2_000,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    });

    // Tenant 1: the paper's ontology-selection study.
    manager
        .request(Request::CreateSession {
            session: "ontology-study".into(),
            model: neon_reuse::paper_model().model,
        })
        .expect("create");
    // Tenants 2..: ad-hoc models.
    for tenant in ["alice", "bob", "carol", "dave", "erin"] {
        manager
            .request(Request::CreateSession {
                session: tenant.into(),
                model: laptop_model(tenant),
            })
            .expect("create");
        println!("{tenant:>14} -> shard {}", manager.shard_of(tenant));
    }

    // The ontology analyst's what-if loop: prime the cycle, edit one
    // cell, re-run — the second cycle is served incrementally.
    let paper = neon_reuse::paper_model().model;
    let doc = paper.find_attribute("doc_quality").expect("exists");
    for (alt, level) in [(3, 3), (7, 2), (12, 1)] {
        manager
            .request(Request::SetPerf {
                session: "ontology-study".into(),
                alternative: alt,
                attr: doc,
                perf: Perf::level(level),
            })
            .expect("edit");
        match manager
            .request(Request::DiscardCycle {
                session: "ontology-study".into(),
            })
            .expect("cycle")
        {
            Response::Cycle(cycle) => println!(
                "ontology-study: {} non-dominated, best by intensity: {}",
                cycle.non_dominated.len(),
                paper.alternatives[cycle.intensity[0].alternative]
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // The laptop tenants all analyze concurrently (pipelined submits keep
    // several shards busy at once).
    let pending: Vec<_> = ["alice", "bob", "carol", "dave", "erin"]
        .into_iter()
        .map(|t| (t, manager.submit(Request::Analyze { session: t.into() })))
        .collect();
    for (tenant, p) in pending {
        match p.wait().expect("analysis") {
            Response::Analysis(a) => println!(
                "{tenant:>14}: ranked best = {}",
                a.evaluation.ranking()[0].name
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // The serving counters, per shard and aggregated.
    let stats = manager.stats();
    println!("\nper-shard:");
    for s in &stats.shards {
        println!(
            "  shard {}: {} live, {} hibernated, {} requests, {} evictions, {} rehydrations",
            s.shard,
            s.live_sessions,
            s.hibernated_sessions,
            s.requests.total(),
            s.evictions,
            s.rehydrations
        );
    }
    let total = stats.aggregate();
    println!(
        "aggregate: {} requests over {} sessions; cycles {} incremental / {} full (hit rate {:.0}%); \
         {} LP solves ({} warm)",
        total.requests.total(),
        total.sessions_created,
        total.cycles.incremental,
        total.cycles.full,
        100.0 * stats.incremental_hit_rate().unwrap_or(0.0),
        total.lp.solves,
        total.lp.warm_solves
    );
}
