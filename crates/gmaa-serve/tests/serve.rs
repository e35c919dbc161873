//! Integration tests for the serving layer's session semantics, on the
//! paper's 23 × 14 case study: hibernate/rehydrate equivalence,
//! deterministic routing, and multi-shard stats consistency.

use gmaa_serve::{Request, Response, ServeConfig, ServeError, SessionConfig, SessionManager};
use maut::{DecisionModel, Interval, Perf};

fn paper() -> DecisionModel {
    neon_reuse::paper_model().model
}

/// A quick session configuration so the full-analysis tests stay fast.
fn quick() -> SessionConfig {
    SessionConfig {
        mc_trials: 300,
        ..SessionConfig::default()
    }
}

fn create(m: &SessionManager, name: &str) {
    match m.request(Request::CreateSession {
        session: name.into(),
        model: paper(),
    }) {
        Ok(Response::Created) => {}
        other => panic!("create {name}: {other:?}"),
    }
}

fn analyze(m: &SessionManager, name: &str) -> gmaa::Analysis {
    match m.request(Request::Analyze {
        session: name.into(),
    }) {
        Ok(Response::Analysis(a)) => *a,
        other => panic!("analyze {name}: {other:?}"),
    }
}

fn set_doc_quality(m: &SessionManager, name: &str, alternative: usize, level: usize) {
    let attr = paper().find_attribute("doc_quality").expect("exists");
    match m.request(Request::SetPerf {
        session: name.into(),
        alternative,
        attr,
        perf: Perf::level(level),
    }) {
        Ok(Response::Edited) => {}
        other => panic!("edit {name}: {other:?}"),
    }
}

fn assert_analyses_agree(a: &gmaa::Analysis, b: &gmaa::Analysis) {
    assert_eq!(a.evaluation, b.evaluation);
    assert_eq!(a.non_dominated, b.non_dominated);
    assert_eq!(a.intensity, b.intensity);
    assert_eq!(a.stability, b.stability);
    assert_eq!(a.potential.len(), b.potential.len());
    for (x, y) in a.potential.iter().zip(&b.potential) {
        assert_eq!(x.potentially_optimal, y.potentially_optimal);
        assert!((x.slack - y.slack).abs() < 1e-7);
    }
    assert_eq!(a.monte_carlo.rank_counts(), b.monte_carlo.rank_counts());
}

/// The headline hibernation guarantee: a session that was LRU-evicted and
/// transparently rehydrated answers its next `Analyze` exactly like a
/// session that was never evicted — same edits, same results.
#[test]
fn rehydrated_session_analyzes_identically_to_never_evicted() {
    // Cap 1 on every shard: creating a second session on the same shard
    // evicts the first. Force same-shard placement with 1 shard.
    let evicting = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 1,
        session: quick(),
        ..ServeConfig::default()
    });
    let roomy = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 16,
        session: quick(),
        ..ServeConfig::default()
    });

    for m in [&evicting, &roomy] {
        create(m, "analyst");
        // Warm the session's caches, then leave a pending edit so the
        // snapshot must carry mutated state.
        analyze(m, "analyst");
        set_doc_quality(m, "analyst", 3, 3);
    }

    // Evict "analyst" (with its pending edit) by creating a neighbour.
    create(&evicting, "intruder");
    let stats = evicting.stats().aggregate();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.hibernated_sessions, 1);

    // Next request rehydrates transparently.
    let rehydrated = analyze(&evicting, "analyst");
    assert_eq!(evicting.stats().aggregate().rehydrations, 1);
    let never_evicted = analyze(&roomy, "analyst");
    assert_analyses_agree(&rehydrated, &never_evicted);

    // And the explicit snapshot round-trips through serde.
    let snap = match evicting
        .request(Request::Snapshot {
            session: "analyst".into(),
        })
        .unwrap()
    {
        Response::Snapshot(s) => *s,
        other => panic!("snapshot: {other:?}"),
    };
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let back: gmaa_serve::SessionSnapshot =
        serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(back, snap);
}

/// Shard routing is a pure function of the session name: every manager
/// with the same shard count places a session on the same shard, and a
/// session created through one handle is reachable through any
/// equally-sharded manager's routing.
#[test]
fn shard_routing_is_deterministic() {
    let a = SessionManager::new(ServeConfig {
        shards: 4,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    });
    let b = SessionManager::new(ServeConfig {
        shards: 4,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    });
    let names: Vec<String> = (0..16).map(|i| format!("tenant-{i}")).collect();
    for name in &names {
        assert_eq!(a.shard_of(name), b.shard_of(name), "{name}");
    }
    // All four shards get traffic from 16 tenants (FNV-1a spreads).
    let mut seen = [false; 4];
    for name in &names {
        seen[a.shard_of(name)] = true;
    }
    assert!(seen.iter().all(|&s| s), "tenants concentrated: {seen:?}");

    // A session lives exactly on its computed shard: creating it and then
    // addressing it again works, while a *different* manager with a
    // different shard count may route elsewhere — the name, not the
    // manager instance, decides.
    create(&a, "tenant-3");
    assert!(matches!(
        a.request(Request::DiscardCycle {
            session: "tenant-3".into()
        }),
        Ok(Response::Cycle(_))
    ));
    let per_shard: Vec<u64> = a
        .stats()
        .shards
        .iter()
        .map(|s| s.sessions_created)
        .collect();
    assert_eq!(per_shard.iter().sum::<u64>(), 1);
    assert_eq!(per_shard[a.shard_of("tenant-3")], 1);
}

/// Multi-shard smoke test: drive a mixed workload over several tenants on
/// 4 shards (pipelined) and check that per-shard counters add up to
/// exactly the work issued.
#[test]
fn multi_shard_stats_add_up() {
    let shards = 4;
    let m = SessionManager::new(ServeConfig {
        shards,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    });
    let tenants: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
    for t in &tenants {
        create(&m, t);
    }

    let mut edits = 0u64;
    let mut cycles = 0u64;
    let mut mcs = 0u64;
    let attr = paper().find_attribute("doc_quality").expect("exists");
    // Three rounds: every tenant edits + runs the cycle, some also run a
    // Monte Carlo — submitted as a pipelined batch per round so several
    // shards are in flight at once.
    for round in 0..3 {
        let mut pending = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            pending.push(m.submit(Request::SetPerf {
                session: t.clone(),
                alternative: (round * 5 + i) % 23,
                attr,
                perf: Perf::level((round + i) % 4),
            }));
            edits += 1;
            pending.push(m.submit(Request::DiscardCycle { session: t.clone() }));
            cycles += 1;
            if (round + i) % 3 == 0 {
                pending.push(m.submit(Request::MonteCarlo {
                    session: t.clone(),
                    trials: 200,
                }));
                mcs += 1;
            }
        }
        for p in pending {
            p.wait().expect("request succeeds");
        }
    }

    let stats = m.stats();
    assert_eq!(stats.shards.len(), shards);
    let total = stats.aggregate();

    // Aggregate = hand-summed per-shard counters.
    assert_eq!(
        total.requests.total(),
        stats.shards.iter().map(|s| s.requests.total()).sum::<u64>()
    );
    assert_eq!(
        total.cycles.incremental + total.cycles.full,
        stats
            .shards
            .iter()
            .map(|s| s.cycles.incremental + s.cycles.full)
            .sum::<u64>()
    );

    // ...and exactly the work issued.
    assert_eq!(total.requests.create, tenants.len() as u64);
    assert_eq!(total.requests.set_perf, edits);
    assert_eq!(total.requests.discard_cycle, cycles);
    assert_eq!(total.requests.monte_carlo, mcs);
    assert_eq!(
        total.requests.total(),
        tenants.len() as u64 + edits + cycles + mcs
    );
    assert_eq!(total.sessions_created, tenants.len() as u64);
    assert_eq!(total.live_sessions, tenants.len());
    assert_eq!(total.evictions, 0);

    // Every tenant's first cycle is a full recompute, each subsequent
    // single-edit cycle is incremental.
    assert_eq!(total.cycles.full, tenants.len() as u64);
    assert_eq!(total.cycles.incremental, cycles - tenants.len() as u64);
    // LP work happened and was attributed.
    assert!(total.lp.solves > 0);

    // Closing everything retires the engine counters without losing them.
    for t in &tenants {
        m.request(Request::CloseSession { session: t.clone() })
            .unwrap();
    }
    let after = m.stats().aggregate();
    assert_eq!(after.live_sessions, 0);
    assert_eq!(after.cycles, total.cycles);
    assert_eq!(after.lp, total.lp);
}

/// Weight edits invalidate every pair: the next cycle is a full
/// recompute, and the serving counters say so.
#[test]
fn weight_edits_force_full_cycles() {
    let m = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 4,
        session: quick(),
        ..ServeConfig::default()
    });
    create(&m, "s");
    let cycle = |m: &SessionManager| {
        matches!(
            m.request(Request::DiscardCycle {
                session: "s".into()
            }),
            Ok(Response::Cycle(_))
        )
    };
    assert!(cycle(&m));
    let objective = paper().tree.find("understandability").expect("exists");
    m.request(Request::SetWeight {
        session: "s".into(),
        objective,
        weight: Interval::new(0.1, 0.3),
    })
    .unwrap();
    assert!(cycle(&m));
    let stats = m.stats().aggregate();
    assert_eq!(stats.cycles.full, 2);
    assert_eq!(stats.cycles.incremental, 0);
}

/// Errors stay session-local: a duplicate create or a rejected edit on
/// one tenant never disturbs another tenant's state.
#[test]
fn errors_are_session_local() {
    let m = SessionManager::new(ServeConfig {
        shards: 2,
        max_sessions_per_shard: 4,
        session: quick(),
        ..ServeConfig::default()
    });
    create(&m, "a");
    create(&m, "b");
    assert!(matches!(
        m.request(Request::CreateSession {
            session: "a".into(),
            model: paper(),
        }),
        Err(ServeError::DuplicateSession(_))
    ));
    let attr = paper().find_attribute("doc_quality").expect("exists");
    assert!(matches!(
        m.request(Request::SetPerf {
            session: "a".into(),
            alternative: 0,
            attr,
            perf: Perf::level(99),
        }),
        Err(ServeError::Model(_))
    ));
    // "b" still serves.
    assert!(matches!(
        m.request(Request::DiscardCycle {
            session: "b".into()
        }),
        Ok(Response::Cycle(_))
    ));
}
