//! Crash-recovery equivalence for the durable session store, on the
//! paper's 23 × 14 case study: random edit histories journaled to a
//! [`FileStore`], the process "killed" (manager dropped without drain,
//! journals possibly torn mid-record), and a recovered manager must
//! produce analysis results **bit-identical** to a manager that never
//! crashed — plus adversarial f64 JSON round-trips locking down the
//! shortest-round-trip encoding the journal depends on.

use gmaa_serve::{
    FileStore, FsyncPolicy, JournalRecord, MemoryStore, Request, Response, ServeConfig, ServeError,
    SessionConfig, SessionManager, SessionSnapshot, SessionStore,
};
use maut::{DecisionModel, Interval, Perf};
use std::path::PathBuf;
use std::sync::Arc;

fn paper() -> DecisionModel {
    neon_reuse::paper_model().model
}

fn quick() -> SessionConfig {
    SessionConfig {
        mc_trials: 300,
        ..SessionConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmaa-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Bit-exact comparison: both sides run their first (full) cycle from
/// what must be identical model state, so even the LP slack values have
/// to match to the last bit — no epsilons anywhere.
fn assert_bit_identical(a: &gmaa::Analysis, b: &gmaa::Analysis) {
    assert_eq!(a.evaluation, b.evaluation);
    assert_eq!(a.non_dominated, b.non_dominated);
    assert_eq!(a.intensity, b.intensity);
    assert_eq!(a.stability, b.stability);
    assert_eq!(a.potential.len(), b.potential.len());
    for (x, y) in a.potential.iter().zip(&b.potential) {
        assert_eq!(x.potentially_optimal, y.potentially_optimal);
        assert_eq!(x.slack.to_bits(), y.slack.to_bits(), "slack bits differ");
    }
    assert_eq!(a.monte_carlo.rank_counts(), b.monte_carlo.rank_counts());
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A deterministic pseudo-random edit history for one session: mostly
/// performance edits across several discrete attributes, with weight
/// edits (leaf and upper-level objectives) mixed in. Candidates are
/// pre-validated against a scratch engine so every generated edit is
/// accepted — random intervals can otherwise make the weight system
/// infeasible, which both the crashed and the reference manager would
/// reject identically but the test wants *applied* state to compare.
fn edit_history(seed: u64, count: usize, session: &str) -> Vec<Request> {
    let model = paper();
    let attrs = ["doc_quality", "code_clarity", "naming_conv", "imp_language"];
    let objectives = ["understandability", "doc_quality", "code_clarity"];
    let mut scratch = gmaa::AnalysisEngine::new(paper()).expect("valid model");
    let mut rng = seed;
    let mut edits = Vec::with_capacity(count);
    let mut attempts = 0;
    while edits.len() < count && attempts < count * 20 {
        attempts += 1;
        if (edits.len() % 4 == 3) && attempts % 2 == 1 {
            let key = objectives[(lcg(&mut rng) as usize) % objectives.len()];
            let lo = 0.05 + (lcg(&mut rng) % 30) as f64 * 0.01;
            let hi = lo + 0.05 + (lcg(&mut rng) % 20) as f64 * 0.01;
            let objective = model.tree.find(key).expect("objective exists");
            let weight = Interval::new(lo, hi);
            if scratch.set_weight(objective, weight).is_ok() {
                edits.push(Request::SetWeight {
                    session: session.into(),
                    objective,
                    weight,
                });
            }
        } else {
            let key = attrs[(lcg(&mut rng) as usize) % attrs.len()];
            let alternative = (lcg(&mut rng) as usize) % 23;
            let attr = model.find_attribute(key).expect("attribute exists");
            let perf = Perf::level((lcg(&mut rng) as usize) % 4);
            if scratch.set_perf(alternative, attr, perf).is_ok() {
                edits.push(Request::SetPerf {
                    session: session.into(),
                    alternative,
                    attr,
                    perf,
                });
            }
        }
    }
    assert_eq!(edits.len(), count, "could not generate a feasible history");
    edits
}

/// The tentpole guarantee: kill a store-backed manager mid-flight (no
/// drain — snapshots are stale, journals carry the tail of every edit
/// history) and a recovered manager serves every tenant bit-identically
/// to one that never crashed. Random edit histories over several seeds;
/// the small per-shard cap forces eviction/compaction traffic mid-history
/// so recovery exercises snapshot-only, journal-over-snapshot, and
/// mixed states.
#[test]
fn crash_recovery_replays_random_edit_histories_bit_exactly() {
    for seed in [11u64, 42] {
        let dir = temp_dir(&format!("crash-{seed}"));
        let tenants: Vec<String> = (0..4).map(|i| format!("tenant-{i}")).collect();
        let config = ServeConfig {
            shards: 2,
            max_sessions_per_shard: 2,
            session: quick(),
            ..ServeConfig::default()
        };
        let reference = SessionManager::new(ServeConfig {
            max_sessions_per_shard: 16,
            ..config
        });

        {
            let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
            let crashing = SessionManager::with_store(config, store).unwrap();
            for (i, t) in tenants.iter().enumerate() {
                create(&crashing, t);
                create(&reference, t);
                for edit in edit_history(seed ^ (i as u64) << 8, 9 + i, t) {
                    crashing.request(edit.clone()).expect("edit applies");
                    reference.request(edit).expect("edit applies");
                }
            }
        } // crash: dropped with journals unflushed to snapshots

        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
        let recovered = SessionManager::with_store(config, store).unwrap();
        for t in &tenants {
            assert_bit_identical(&analyze(&recovered, t), &analyze(&reference, t));
        }
        let stats = recovered.stats().aggregate();
        assert_eq!(stats.store.sessions_recovered, tenants.len() as u64);
        assert!(
            stats.store.records_replayed > 0,
            "no journal records survived the crash — the test lost its point"
        );
        assert_eq!(stats.store.torn_records_dropped, 0);
        assert_eq!(stats.store.store_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A session that stays resident is never evicted or drained, so only the
/// journal bound compacts it: `n·m + 1` edits (`n·m` is the model's cell
/// count) leave at most `n·m` records in the store, and a crash after
/// them still recovers bit-identically.
#[test]
fn resident_session_journal_is_bounded_by_the_cell_count() {
    let cells = paper().num_alternatives() * paper().num_attributes();
    let store = Arc::new(MemoryStore::new());
    let config = ServeConfig {
        shards: 1,
        session: quick(),
        ..ServeConfig::default()
    };
    let reference = SessionManager::new(config);
    {
        let crashing = SessionManager::with_store(config, store.clone()).unwrap();
        create(&crashing, "t");
        create(&reference, "t");
        for edit in edit_history(7, cells + 1, "t") {
            crashing.request(edit.clone()).expect("edit applies");
            reference.request(edit).expect("edit applies");
        }
        let stats = crashing.stats().aggregate();
        assert_eq!(stats.evictions, 0, "the session stayed resident");
        assert_eq!(stats.store.journal_appends, cells as u64 + 1);
        assert_eq!(stats.store.snapshots_written, 2, "create + one compaction");
        assert_eq!(stats.store.store_errors, 0);
        let stored = store.load("t").unwrap().expect("stored");
        assert!(
            stored.journal.len() <= cells,
            "{} journal records for {cells} cells",
            stored.journal.len()
        );
    } // crash: dropped without drain

    let recovered = SessionManager::with_store(config, store).unwrap();
    assert_bit_identical(&analyze(&recovered, "t"), &analyze(&reference, "t"));
}

/// Kill mid-journal-append: the trailing record is torn in half. Recovery
/// must drop exactly that edit (and count it) and otherwise serve
/// bit-identically to a manager that never saw the torn edit.
#[test]
fn kill_mid_journal_drops_only_the_torn_edit() {
    let dir = temp_dir("torn");
    let edits = edit_history(7, 6, "analyst");

    {
        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
        let crashing = SessionManager::with_store(
            ServeConfig {
                shards: 1,
                max_sessions_per_shard: 8,
                session: quick(),
                ..ServeConfig::default()
            },
            store,
        )
        .unwrap();
        create(&crashing, "analyst");
        for edit in &edits {
            crashing.request(edit.clone()).expect("edit applies");
        }
    }

    // Tear the final journal record mid-bytes, as a crash mid-append
    // would.
    let journal = dir.join("analyst.journal");
    let bytes = std::fs::read(&journal).expect("journal exists");
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    // The reference never saw the torn (last) edit.
    let reference = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    });
    create(&reference, "analyst");
    for edit in &edits[..edits.len() - 1] {
        reference.request(edit.clone()).expect("edit applies");
    }

    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
    let recovered = SessionManager::with_store(
        ServeConfig {
            shards: 1,
            max_sessions_per_shard: 8,
            session: quick(),
            ..ServeConfig::default()
        },
        store,
    )
    .unwrap();
    assert_bit_identical(
        &analyze(&recovered, "analyst"),
        &analyze(&reference, "analyst"),
    );
    let stats = recovered.stats().aggregate();
    assert_eq!(stats.store.torn_records_dropped, 1);
    assert_eq!(stats.store.records_replayed, edits.len() as u64 - 1);
    assert_eq!(stats.store.sessions_recovered, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unframed garbage appended to a journal (a torn length prefix) is
/// dropped like a torn record: every complete edit before it replays.
#[test]
fn garbage_journal_tail_is_dropped_like_a_torn_record() {
    let dir = temp_dir("garbage");
    let edits = edit_history(23, 5, "analyst");

    {
        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
        let crashing = SessionManager::with_store(
            ServeConfig {
                shards: 1,
                max_sessions_per_shard: 8,
                session: quick(),
                ..ServeConfig::default()
            },
            store,
        )
        .unwrap();
        create(&crashing, "analyst");
        for edit in &edits {
            crashing.request(edit.clone()).expect("edit applies");
        }
    }
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("analyst.journal"))
            .unwrap();
        f.write_all(b"9999 {\"SetPerf\": [").unwrap();
    }

    let reference = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    });
    create(&reference, "analyst");
    for edit in &edits {
        reference.request(edit.clone()).expect("edit applies");
    }

    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
    let recovered = SessionManager::with_store(
        ServeConfig {
            shards: 1,
            max_sessions_per_shard: 8,
            session: quick(),
            ..ServeConfig::default()
        },
        store,
    )
    .unwrap();
    assert_bit_identical(
        &analyze(&recovered, "analyst"),
        &analyze(&reference, "analyst"),
    );
    let stats = recovered.stats().aggregate();
    assert_eq!(stats.store.torn_records_dropped, 1);
    assert_eq!(stats.store.records_replayed, edits.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown: `drain` compacts every live session into its
/// snapshot, so recovery replays zero journal records yet reproduces the
/// exact state.
#[test]
fn drain_then_recover_replays_nothing_and_loses_nothing() {
    let dir = temp_dir("drain");
    let tenants: Vec<String> = (0..3).map(|i| format!("tenant-{i}")).collect();
    let config = ServeConfig {
        shards: 2,
        max_sessions_per_shard: 8,
        session: quick(),
        ..ServeConfig::default()
    };
    let reference = SessionManager::new(config);

    {
        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
        let m = SessionManager::with_store(config, store).unwrap();
        for (i, t) in tenants.iter().enumerate() {
            create(&m, t);
            create(&reference, t);
            for edit in edit_history(100 + i as u64, 6, t) {
                m.request(edit.clone()).expect("edit applies");
                reference.request(edit).expect("edit applies");
            }
        }
        assert_eq!(m.drain().unwrap(), tenants.len() as u64);
    }

    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
    let recovered = SessionManager::with_store(config, store).unwrap();
    for t in &tenants {
        assert_bit_identical(&analyze(&recovered, t), &analyze(&reference, t));
    }
    let stats = recovered.stats().aggregate();
    assert_eq!(
        stats.store.records_replayed, 0,
        "drain left journal records behind"
    );
    assert_eq!(stats.store.sessions_recovered, tenants.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered manager rejects re-creating a recovered (not yet touched)
/// session name, and closing one removes its store state.
#[test]
fn recovered_names_are_reserved_until_closed() {
    let dir = temp_dir("reserved");
    {
        let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
        let m = SessionManager::with_store(
            ServeConfig {
                shards: 1,
                max_sessions_per_shard: 8,
                session: quick(),
                ..ServeConfig::default()
            },
            store,
        )
        .unwrap();
        create(&m, "analyst");
    }
    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
    let m = SessionManager::with_store(
        ServeConfig {
            shards: 1,
            max_sessions_per_shard: 8,
            session: quick(),
            ..ServeConfig::default()
        },
        store.clone(),
    )
    .unwrap();
    assert!(matches!(
        m.request(Request::CreateSession {
            session: "analyst".into(),
            model: paper(),
        }),
        Err(gmaa_serve::ServeError::DuplicateSession(_))
    ));
    assert!(matches!(
        m.request(Request::CloseSession {
            session: "analyst".into(),
        }),
        Ok(Response::Closed)
    ));
    assert!(store.sessions().unwrap().is_empty());
    // Now the name is free again.
    create(&m, "analyst");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot stored before the stability stage lost its scan-resolution
/// knob and Monte Carlo its thread count: its config still carries
/// `"stability_resolution": 100` and `"mc_threads": 1`.
const LEGACY_SNAPSHOT: &str = include_str!("fixtures/legacy_snapshot.json");

/// A stored snapshot from before `SessionConfig` dropped
/// `stability_resolution` and `mc_threads` still loads from a `FileStore`
/// (the unknown fields are ignored) and serves exactly the analysis of a
/// session created fresh with the same model and settings.
#[test]
fn legacy_snapshot_with_stability_resolution_restores_and_serves() {
    assert!(LEGACY_SNAPSHOT.contains("\"stability_resolution\":100"));
    assert!(LEGACY_SNAPSHOT.contains("\"mc_threads\":1"));
    let snapshot: SessionSnapshot = serde_json::from_str(LEGACY_SNAPSHOT).unwrap();
    let config = SessionConfig {
        mc_trials: 50,
        ..SessionConfig::default()
    };
    assert_eq!(snapshot.config, config);

    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("legacy.snap"), LEGACY_SNAPSHOT).unwrap();
    let store = Arc::new(FileStore::open(&dir, FsyncPolicy::Never).unwrap());
    let recovered = SessionManager::with_store(ServeConfig::default(), store).unwrap();
    let restored = analyze(&recovered, "legacy");

    let fresh = SessionManager::new(ServeConfig {
        session: config,
        ..ServeConfig::default()
    });
    assert!(matches!(
        fresh.request(Request::CreateSession {
            session: "legacy".into(),
            model: gmaa::model_from_json(&snapshot.model_json).unwrap(),
        }),
        Ok(Response::Created)
    ));
    assert_bit_identical(&restored, &analyze(&fresh, "legacy"));
    match recovered.request(Request::Snapshot {
        session: "legacy".into(),
    }) {
        Ok(Response::Snapshot(s)) => assert_eq!(s.config, config),
        other => panic!("snapshot: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose config asks for zero Monte Carlo trials (written by
/// hand, or by a server started with such a config) is refused with a
/// typed error when the session is restored. The shard that owns it keeps
/// serving its other sessions, and a server whose own session config has
/// zero trials refuses to create sessions instead of panicking later.
#[test]
fn zero_trial_snapshot_is_refused_and_the_shard_keeps_serving() {
    let store = Arc::new(MemoryStore::new());
    store
        .put_snapshot(&SessionSnapshot {
            session: "zero".into(),
            model_json: gmaa::model_to_json(&paper()).unwrap(),
            config: SessionConfig {
                mc_trials: 0,
                ..quick()
            },
        })
        .unwrap();
    let config = ServeConfig {
        shards: 1,
        session: quick(),
        ..ServeConfig::default()
    };
    let m = SessionManager::with_store(config, store).unwrap();
    for _ in 0..2 {
        assert!(matches!(
            m.request(Request::Analyze {
                session: "zero".into(),
            }),
            Err(ServeError::InvalidRequest(_))
        ));
    }
    create(&m, "healthy");
    assert_eq!(analyze(&m, "healthy").monte_carlo.trials, 300);

    let zero = SessionManager::new(ServeConfig {
        shards: 1,
        session: SessionConfig {
            mc_trials: 0,
            ..quick()
        },
        ..ServeConfig::default()
    });
    assert!(matches!(
        zero.request(Request::CreateSession {
            session: "fresh".into(),
            model: paper(),
        }),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        zero.request(Request::Analyze {
            session: "fresh".into(),
        }),
        Err(ServeError::UnknownSession(_))
    ));
}

/// Adversarial f64 values through the JSON layer the journal and the
/// snapshots ride on: the vendored `serde_json` prints floats via Rust's
/// shortest-round-trip formatting, which this test pins down bit-for-bit
/// for signed zero, subnormals, and values near the underflow boundary.
#[test]
// The subnormal-boundary literals are written with their full 17 digits
// on purpose — the extra digits are the point of the test.
#[allow(clippy::excessive_precision)]
fn adversarial_f64_values_roundtrip_bit_exactly() {
    let nasty: Vec<f64> = vec![
        0.0,
        -0.0,
        5e-324, // smallest positive subnormal
        -5e-324,
        2.2250738585072011e-308, // largest subnormal
        2.2250738585072014e-308, // smallest normal
        1e-300,
        -1e-300,
        0.1 + 0.2, // 0.30000000000000004
        1.0 / 3.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1e308,
    ];
    let json = serde_json::to_string(&nasty).expect("serializes");
    let back: Vec<f64> = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.len(), nasty.len());
    for (a, b) in nasty.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a:e} lost bits through JSON");
    }
    // Signed zero really is preserved on the wire, not just by accident
    // of comparison (-0.0 == 0.0 under PartialEq).
    assert!(json.contains("-0"), "negative zero collapsed: {json}");

    // The same values inside journal records.
    let model = paper();
    let funct = model.find_attribute("funct_requir").expect("exists");
    let understandability = model.tree.find("understandability").expect("exists");
    for value in [-0.0, 5e-324, 2.2250738585072011e-308, 0.1 + 0.2] {
        let record = JournalRecord::SetPerf(3, funct, Perf::Value(value));
        let json = serde_json::to_string(&record).expect("serializes");
        match serde_json::from_str(&json).expect("parses") {
            JournalRecord::SetPerf(3, a, Perf::Value(v)) if a == funct => {
                assert_eq!(v.to_bits(), value.to_bits(), "{value:e} via {json}");
            }
            other => panic!("record mutated: {other:?}"),
        }
    }
    let record = JournalRecord::SetWeight(understandability, Interval::new(1e-300, 0.1 + 0.2));
    let json = serde_json::to_string(&record).expect("serializes");
    let back: JournalRecord = serde_json::from_str(&json).expect("parses");
    assert_eq!(back, record);

    // And through the full model snapshot encoding: a decode/encode
    // round trip must be a fixed point even with adversarial values in
    // the performance table.
    let mut engine = gmaa::AnalysisEngine::new(paper()).expect("valid model");
    engine
        .set_perf(5, funct, Perf::Value(5e-324))
        .expect("in range");
    let json1 = gmaa::model_to_json(engine.model()).expect("encodes");
    let decoded = gmaa::model_from_json(&json1).expect("decodes");
    assert_eq!(&decoded, engine.model());
    let json2 = gmaa::model_to_json(&decoded).expect("re-encodes");
    assert_eq!(json1, json2, "model JSON is not a round-trip fixed point");
}
