//! Durable serving demo: the session service backed by a file-based
//! write-ahead store. Three analysts edit their sessions, the process
//! "crashes" (dropped without a drain), and a cold manager recovers
//! every tenant from snapshot + journal with identical analysis
//! results.
//!
//! Run with: `cargo run --release --example durable_serving`

use gmaa_serve::{
    FileStore, FsyncPolicy, Request, Response, ServeConfig, SessionConfig, SessionManager,
};
use maut::prelude::*;
use std::sync::Arc;

fn config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        max_sessions_per_shard: 2,
        session: SessionConfig {
            mc_trials: 2_000,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn analyze(manager: &SessionManager, session: &str) -> gmaa::Analysis {
    match manager
        .request(Request::Analyze {
            session: session.into(),
        })
        .expect("analysis")
    {
        Response::Analysis(a) => *a,
        other => panic!("unexpected response {other:?}"),
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("gmaa-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let model = neon_reuse::paper_model().model;
    let doc = model.find_attribute("doc_quality").expect("exists");
    let tenants = ["alice", "bob", "carol"];

    // First life: create three sessions against a FileStore, apply a few
    // what-if edits each (every applied edit is journaled before the
    // request is acknowledged), then drop the manager WITHOUT draining —
    // an abrupt crash as far as the store is concerned.
    let before: Vec<gmaa::Analysis> = {
        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::OnSnapshot).expect("store opens"));
        let manager = SessionManager::with_store(config(), store).expect("recovery scan");
        for (t, tenant) in tenants.iter().enumerate() {
            manager
                .request(Request::CreateSession {
                    session: (*tenant).into(),
                    model: model.clone(),
                })
                .expect("create");
            for edit in 0..3 {
                manager
                    .request(Request::SetPerf {
                        session: (*tenant).into(),
                        alternative: (5 * t + edit) % 23,
                        attr: doc,
                        perf: Perf::level((t + edit) % 4),
                    })
                    .expect("edit");
            }
        }
        let analyses = tenants.iter().map(|t| analyze(&manager, t)).collect();
        println!("first life: 3 tenants created, 9 edits journaled — crashing now");
        analyses
        // `manager` dropped here: no drain() — the snapshots are stale and
        // the journals carry the edits.
    };

    // Second life: a cold process re-opens the same directory. The
    // manager enumerates the store, routes each tenant back to its shard
    // (fnv1a routing is stable across processes), and the first touch
    // replays journal-over-snapshot.
    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::OnSnapshot).expect("store opens"));
    let manager = SessionManager::with_store(config(), store).expect("recovery scan");
    for (tenant, before) in tenants.iter().zip(&before) {
        let after = analyze(&manager, tenant);
        assert_eq!(before.evaluation, after.evaluation, "{tenant} diverged");
        assert_eq!(before.non_dominated, after.non_dominated);
        println!(
            "{tenant:>8}: recovered — best by intensity still {}",
            model.alternatives[after.intensity[0].alternative]
        );
    }
    let stats = manager.stats().aggregate();
    println!(
        "recovery: {} sessions, {} journal records replayed, {} torn",
        stats.store.sessions_recovered,
        stats.store.records_replayed,
        stats.store.torn_records_dropped
    );

    // Graceful shutdown: drain() compacts every live session to a fresh
    // snapshot and truncates its journal, so the next start replays
    // nothing.
    let flushed = manager.drain().expect("drain");
    println!("drained {flushed} sessions — journals compacted");
    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
}
