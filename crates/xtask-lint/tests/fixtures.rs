//! Fixture suite: one minimal reproducer per rule under
//! `tests/fixtures/bad/`, one clean tree under `tests/fixtures/good/`.
//! Each bad fixture must fail with the exact rule id on the exact line;
//! the good fixture must pass with its allow marker counted as used.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> xtask_lint::Report {
    xtask_lint::run(&fixture(name)).unwrap_or_else(|e| panic!("lint run on {name}: {e}"))
}

/// (rule, file, line) triples, sorted the way the report sorts.
fn triples(report: &xtask_lint::Report) -> Vec<(String, String, u32)> {
    report
        .violations
        .iter()
        .map(|v| (v.rule.to_string(), v.file.clone(), v.line))
        .collect()
}

#[test]
fn bad_no_panic_flags_unwrap_indexing_and_panic() {
    let report = run("bad/no-panic");
    assert_eq!(
        triples(&report),
        [
            ("no-panic-in-serving".into(), "src/serve.rs".into(), 4),
            ("no-panic-in-serving".into(), "src/serve.rs".into(), 6),
            ("no-panic-in-serving".into(), "src/serve.rs".into(), 8),
        ],
        "{:#?}",
        report.violations
    );
    assert!(report.failed(false));
}

#[test]
fn bad_no_panic_vendor_scans_only_the_declared_vendored_paths() {
    let report = run("bad/no-panic-vendor");
    assert_eq!(
        triples(&report),
        [
            (
                "no-panic-in-serving".into(),
                "vendor/codec/src/lib.rs".into(),
                4
            ),
            (
                "no-panic-in-serving".into(),
                "vendor/single/decode.rs".into(),
                4
            ),
        ],
        "{:#?}",
        report.violations
    );
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn bad_total_float_flags_the_partial_cmp_line() {
    let report = run("bad/total-float");
    assert_eq!(
        triples(&report),
        [("total-float-ordering".into(), "src/sortit.rs".into(), 4)],
        "{:#?}",
        report.violations
    );
}

#[test]
fn bad_no_alloc_flags_only_the_declared_kernel() {
    let report = run("bad/no-alloc");
    assert_eq!(
        triples(&report),
        [("no-alloc-in-kernel".into(), "src/kernel.rs".into(), 4)],
        "{:#?}",
        report.violations
    );
}

#[test]
fn bad_lock_scope_flags_send_under_guard_only() {
    let report = run("bad/lock-scope");
    assert_eq!(
        triples(&report),
        [("lock-scope-discipline".into(), "src/relay.rs".into(), 8)],
        "{:#?}",
        report.violations
    );
}

#[test]
fn bad_protocol_flags_missing_arm_missing_count_and_field_mismatch() {
    let report = run("bad/protocol");
    let got = triples(&report);
    assert_eq!(got.len(), 3, "{:#?}", report.violations);
    assert!(got
        .iter()
        .all(|(rule, _, _)| rule == "protocol-exhaustiveness"));
    // Request::Shutdown (line 5) has no arm; RequestKind::Shutdown
    // (line 10) is never counted; the counter struct is short a field.
    assert!(got.contains(&(
        "protocol-exhaustiveness".into(),
        "src/protocol.rs".into(),
        5
    )));
    assert!(got.contains(&(
        "protocol-exhaustiveness".into(),
        "src/protocol.rs".into(),
        10
    )));
    assert!(got.iter().any(|(_, file, _)| file == "src/stats.rs"));
}

#[test]
fn bad_allow_markers_are_violations_and_suppress_nothing() {
    let report = run("bad/bad-allow");
    let got = triples(&report);
    // The reasonless marker (line 4) and the unknown-rule marker (line 9)
    // are themselves violations, and the reasonless one must NOT shield
    // the partial_cmp on line 5.
    assert_eq!(
        got,
        [
            ("lint-allow".into(), "src/markers.rs".into(), 4),
            ("total-float-ordering".into(), "src/markers.rs".into(), 5),
            ("lint-allow".into(), "src/markers.rs".into(), 9),
        ],
        "{:#?}",
        report.violations
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn good_clean_passes_and_counts_the_used_allow() {
    let report = run("good/clean");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 1);
    assert!(report.unused_allows().is_empty());
    assert!(!report.failed(true));
}

#[test]
fn bad_channel_flags_discard_unused_bind_drop_and_locked_call() {
    let report = run("bad/channel");
    assert_eq!(
        triples(&report),
        [
            // `Job::Stop { .. }` discards the reply sender.
            ("channel-topology".into(), "src/relay.rs".into(), 14),
            // `reply` bound but never sent on or forwarded.
            ("channel-topology".into(), "src/relay.rs".into(), 20),
            // A `Sender` parameter whose only use is `drop()`.
            ("channel-topology".into(), "src/relay.rs".into(), 28),
            // Call to the channel-touching `notify()` under a held lock.
            ("channel-topology".into(), "src/relay.rs".into(), 37),
        ],
        "{:#?}",
        report.violations
    );
}

#[test]
fn bad_counters_flags_missing_increment_and_missing_assert() {
    let report = run("bad/counters");
    assert_eq!(
        triples(&report),
        [
            // `misses` is asserted but never incremented.
            ("counter-accounting".into(), "src/stats.rs".into(), 3),
            // `skipped` is incremented but never asserted.
            ("counter-accounting".into(), "src/stats.rs".into(), 4),
        ],
        "{:#?}",
        report.violations
    );
}

#[test]
fn bad_wire_flags_cast_and_add_with_counted_allow() {
    let report = run("bad/wire");
    assert_eq!(
        triples(&report),
        [
            ("wire-safety".into(), "src/codec.rs".into(), 2),
            ("wire-safety".into(), "src/codec.rs".into(), 3),
        ],
        "{:#?}",
        report.violations
    );
    // The `len + 4` under the counted allow marker is suppressed, not
    // reported — and the marker shows as used.
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].used, 1);
}

#[test]
fn bad_error_live_flags_dead_and_unmapped_variants() {
    let report = run("bad/error-live");
    assert_eq!(
        triples(&report),
        [
            // `Gone` is never constructed outside tests.
            ("error-liveness".into(), "src/err.rs".into(), 3),
            // `Teapot` has no mapping arm in the codec (swallowed by `_`).
            ("error-liveness".into(), "src/err.rs".into(), 4),
        ],
        "{:#?}",
        report.violations
    );
}

#[test]
fn good_flow_clean_passes_all_four_passes() {
    let report = run("good/flow-clean");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(report.allows.is_empty());
    assert!(!report.failed(true));
}

/// Self-lint: the workspace itself must be clean under deny-all, and two
/// runs must produce byte-identical JSON — CI depends on both.
#[test]
fn self_lint_is_clean_and_json_is_deterministic() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let first = xtask_lint::run(&root).expect("self lint");
    let second = xtask_lint::run(&root).expect("self lint again");
    assert!(
        !first.failed(true),
        "workspace must self-lint clean: {:#?}",
        first.violations
    );
    assert_eq!(
        first.to_json(true),
        second.to_json(true),
        "JSON report must be byte-identical across runs"
    );
}

/// A stale allow for a rule that is *not* enabled on its file only ever
/// warns, even under deny-all; a stale allow for an enabled rule errors.
#[test]
fn stale_allow_for_disabled_rule_only_warns_under_deny_all() {
    let dir = std::env::temp_dir().join("xtask-lint-disabled-rule-allow");
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture");
    // no-panic is enabled on src/serve.rs only.
    std::fs::write(
        dir.join("lint.toml"),
        "[no_panic]\npaths = [\"src/serve.rs\"]\n",
    )
    .expect("write manifest");
    std::fs::write(
        src_dir.join("other.rs"),
        "// lint:allow(no-panic-in-serving) -- stale marker off the serving path\npub fn id(x: u32) -> u32 { x }\n",
    )
    .expect("write source");
    std::fs::write(src_dir.join("serve.rs"), "pub fn ok() {}\n").expect("write source");
    let report = xtask_lint::run(&dir).expect("lint run");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.unused_allows().len(), 1);
    assert!(!report.unused_allows()[0].enforced);
    assert!(
        !report.failed(true),
        "stale allow for a disabled rule must not fail deny-all"
    );

    // Move the same stale marker onto the serving path: now it errors.
    std::fs::write(
        src_dir.join("serve.rs"),
        "// lint:allow(no-panic-in-serving) -- stale marker on the serving path\npub fn ok() {}\n",
    )
    .expect("write source");
    std::fs::write(src_dir.join("other.rs"), "pub fn id(x: u32) -> u32 { x }\n")
        .expect("write source");
    let report = xtask_lint::run(&dir).expect("lint run");
    assert_eq!(report.unused_allows().len(), 1);
    assert!(report.unused_allows()[0].enforced);
    assert!(
        !report.failed(false),
        "still only a warning without deny-all"
    );
    assert!(
        report.failed(true),
        "deny-all escalates the enforced stale allow"
    );
}

#[test]
fn unused_allows_fail_only_under_deny_all() {
    // The clean tree with the allow's target fixed would leave the marker
    // stale; simulate by checking failed() semantics directly on a report
    // whose allow went unused — the bad/total-float tree has no allows,
    // so craft the check against good/clean with a fresh unused marker.
    let dir = std::env::temp_dir().join("xtask-lint-unused-allow-fixture");
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture");
    std::fs::write(dir.join("lint.toml"), "# empty\n").expect("write manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "// lint:allow(total-float-ordering) -- nothing here needs it\npub fn id(x: u32) -> u32 { x }\n",
    )
    .expect("write source");
    let report = xtask_lint::run(&dir).expect("lint run");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.unused_allows().len(), 1);
    assert!(!report.failed(false), "unused allow is only a warning");
    assert!(report.failed(true), "deny-all escalates unused allows");
}
