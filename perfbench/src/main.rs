//! `perfbench` — the repository benchmark: `gmaa-serve` driven over
//! loopback TCP the way an analyst's client drives it.
//!
//! ```text
//! perfbench --workload <whatif-small|screening-large|churn-durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--smoke` runs every
//! workload for a few rounds, traced and untraced, and exits non-zero if
//! a correctness or accounting check fails. See `README.md`.

#![allow(clippy::print_stdout, clippy::print_stderr)]

mod drive;
mod inproc;
mod timed_store;
mod trace;
mod twin;
mod util;
mod workload;

use drive::{ClientLog, Deployment, Phase};
use gmaa_serve::{ServeStats, ShardStats};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{durations_us, Span};
use util::{median, percentile, ratio};
use workload::{Edit, Kind, Plan, Read, Workload};

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Windows of the measured phase (see [`windows`]).
const WINDOWS: usize = 10;
/// Rounds per client and phase in `--smoke`.
const SMOKE_ROUNDS: usize = 8;

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.kind =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.kind.is_none() && !args.smoke {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The requests the final deployment saw, by kind, against its stats.
fn accounting_errors(w: &Workload, logs: &[ClientLog], stats: &ShardStats) -> Vec<String> {
    let mut issued = gmaa_serve::RequestCounts {
        create: w.tenants.len() as u64,
        ..Default::default()
    };
    let (mut succeeded, mut failed) = (0u64, 0u64);
    for served in logs.iter().flat_map(|l| &l.served) {
        match served.round.edit {
            Edit::Perf { .. } => issued.set_perf += 1,
            Edit::Weight { .. } => issued.set_weight += 1,
        }
        match served.round.read {
            Read::Analyze => issued.analyze += 1,
            Read::Cycle => issued.discard_cycle += 1,
            Read::Snapshot => issued.snapshot += 1,
        }
        for reply in [&served.edit, &served.read] {
            if reply.is_ok() {
                succeeded += 1;
            } else {
                failed += 1;
            }
        }
    }
    let mut errors = Vec::new();
    if issued.total() != succeeded + failed + issued.create {
        errors.push(format!(
            "issued {} != succeeded {succeeded} + failed {failed} + created {}",
            issued.total(),
            issued.create
        ));
    }
    if stats.requests != issued {
        errors.push(format!(
            "server counted {:?}, benchmark issued {issued:?}",
            stats.requests
        ));
    }
    if stats.load.served_requests != issued.total() {
        errors.push(format!(
            "server served {} requests, benchmark issued {}",
            stats.load.served_requests,
            issued.total()
        ));
    }
    errors
}

fn served_in(logs: &[ClientLog], phase: Phase) -> impl Iterator<Item = &drive::Served> {
    logs.iter()
        .flat_map(|l| &l.served)
        .filter(move |s| s.phase == phase)
}

/// Requests attempted and failed over the measured phases: a typed or
/// transport error, and a reply the twin disagrees with, each count.
fn attempts(logs: &[ClientLog], mismatches: u64) -> (u64, u64) {
    let measured = logs
        .iter()
        .flat_map(|l| &l.served)
        .filter(|s| s.phase != Phase::WarmUp);
    let (mut attempted, mut failed) = (0u64, mismatches);
    for s in measured {
        attempted += 2;
        failed += u64::from(s.edit.is_err()) + u64::from(s.read.is_err());
    }
    (attempted.max(1), failed)
}

fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_rounds: usize,
    setups: usize,
) -> Result<Outcome, String> {
    let w = Workload::build(kind, seed)?;

    let mut setup_s = Vec::with_capacity(setups);
    let mut deployment: Option<Deployment> = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = deployment.take() {
            previous.tear_down()?;
        }
        let start = Instant::now();
        deployment = Some(Deployment::set_up(&w)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut dep = deployment.expect("at least one set-up ran");

    let mut conns = std::mem::take(&mut dep.conns);
    let mut plans: Vec<Plan> = (0..w.clients).map(|c| Plan::new(&w, c)).collect();
    let mut logs: Vec<ClientLog> = (0..w.clients).map(|_| ClientLog::default()).collect();
    let far = Instant::now() + Duration::from_secs(3600);
    drive::run_phase(
        &w,
        &mut conns,
        &mut plans,
        &mut logs,
        Phase::WarmUp,
        far,
        usize::MAX,
    );

    let phase_len = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let untraced_wall = drive::run_phase(
        &w,
        &mut conns,
        &mut plans,
        &mut logs,
        Phase::Untraced,
        Instant::now() + phase_len,
        max_rounds,
    );
    let mut traced_wall = 0.0;
    let mut stats_before = ServeStats::default();
    if trace {
        stats_before = dep.manager.stats();
        traced_wall = drive::run_phase(
            &w,
            &mut conns,
            &mut plans,
            &mut logs,
            Phase::Traced,
            Instant::now() + phase_len,
            max_rounds,
        );
    }
    let stats = dep.manager.stats();
    let peak_rss = util::peak_rss_mb()?;
    drop(conns);
    dep.tear_down()?;

    let twin = twin::replay(&w, &logs, !trace);
    let total = stats.aggregate();
    let mut errors = accounting_errors(&w, &logs, &total);
    if twin.cycles != total.cycles {
        errors.push(format!(
            "twin cycles {:?} != server cycles {:?}",
            twin.cycles, total.cycles
        ));
    }
    errors.extend(twin.errors.iter().cloned());
    let (attempted, failed) = attempts(&logs, twin.measured_mismatches);

    let metrics = if trace {
        let mut inproc = inproc::replay(&w, &logs)?;
        if inproc.stats.aggregate().cycles != twin.cycles {
            errors.push(format!(
                "in-process cycles {:?} != twin cycles {:?}",
                inproc.stats.aggregate().cycles,
                twin.cycles
            ));
        }
        if inproc.measured_mismatches > 0 {
            errors.push(format!(
                "{} in-process replies differ from TCP",
                inproc.measured_mismatches
            ));
        }
        errors.extend(inproc.errors.iter().cloned());
        let untraced_rps = ratio(
            served_in(&logs, Phase::Untraced).count() as f64,
            untraced_wall,
        );
        let mut spans: Vec<Span> = logs
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.spans))
            .collect();
        spans.extend(std::mem::take(&mut inproc.spans));
        spans.extend(twin.spans.iter().cloned());
        let layer = LayerInputs {
            logs: &logs,
            spans: &spans,
            before: &stats_before,
            after: &stats,
            replay: &inproc.stats,
            traced_wall,
            untraced_rps,
            lp: twin.lp,
        };
        let metrics = layer.metrics();
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = Path::new(TRACE_DIR).join(format!("trace-{}.jsonl", kind.name()));
        trace::write_jsonl(&path, &spans)?;
        metrics
    } else {
        let measured: Vec<&drive::Served> = served_in(&logs, Phase::Untraced)
            .filter(|s| s.ok())
            .collect();
        let windows = windows(&measured, untraced_wall);
        let per_window = |f: &dyn Fn(&[&drive::Served]) -> f64| {
            let values: Vec<f64> = windows
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| f(w))
                .collect();
            median(&values)
        };
        let window_s = untraced_wall / WINDOWS as f64;
        let rounds_per_s: Vec<f64> = windows.iter().map(|w| w.len() as f64 / window_s).collect();
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("rounds_per_s", median(&rounds_per_s), "1/s"),
            metric(
                "read_p50_ms",
                per_window(&|w| percentile(&read_ms(w), 0.5)),
                "ms",
            ),
            metric(
                "read_p90_ms",
                per_window(&|w| percentile(&read_ms(w), 0.9)),
                "ms",
            ),
            metric(
                "edit_p50_ms",
                per_window(&|w| percentile(&edit_ms(w), 0.5)),
                "ms",
            ),
            metric("ok_share", 1.0 - failed as f64 / attempted as f64, "share"),
            metric("peak_rss_mb", peak_rss, "MiB"),
        ]
    };
    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        errors,
    })
}

/// The measured phase's rounds split into `WINDOWS` equal windows by
/// completion time. End-to-end figures are medians over the windows, so
/// a burst of interference on the machine moves few windows.
fn windows<'a>(rounds: &[&'a drive::Served], wall: f64) -> Vec<Vec<&'a drive::Served>> {
    let mut windows = vec![Vec::new(); WINDOWS];
    for &s in rounds {
        let i = ((s.done_s / wall) * WINDOWS as f64) as usize;
        windows[i.min(WINDOWS - 1)].push(s);
    }
    windows
}

fn read_ms(rounds: &[&drive::Served]) -> Vec<f64> {
    rounds.iter().map(|s| s.read_ms).collect()
}

fn edit_ms(rounds: &[&drive::Served]) -> Vec<f64> {
    rounds.iter().map(|s| s.edit_ms).collect()
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    logs: &'a [ClientLog],
    spans: &'a [Span],
    before: &'a ServeStats,
    after: &'a ServeStats,
    /// Stats of the in-process replay's manager.
    replay: &'a ServeStats,
    traced_wall: f64,
    untraced_rps: f64,
    lp: twin::LpWork,
}

impl LayerInputs<'_> {
    fn p50(&self, name: &str) -> f64 {
        median(&durations_us(self.spans, name))
    }

    fn count(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    fn metrics(&self) -> Vec<Metric> {
        let traced: Vec<&drive::Served> = served_in(self.logs, Phase::Traced).collect();
        let rounds = traced.len() as f64;
        let read_ms: Vec<f64> = traced.iter().map(|s| s.read_ms).collect();
        let read_bytes: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.read.as_ref().ok())
            .map(|r| r.bytes as f64)
            .collect();
        let edit_bytes: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.edit.as_ref().ok())
            .map(|r| r.bytes as f64)
            .collect();

        let (b, a) = (self.before.aggregate(), self.after.aggregate());
        let busy_max = self
            .after
            .shards
            .iter()
            .zip(&self.before.shards)
            .map(|(a, b)| (a.load.busy_ns - b.load.busy_ns) as f64)
            .fold(0.0, f64::max);
        let incremental = (a.cycles.incremental - b.cycles.incremental) as f64;
        let full = (a.cycles.full - b.cycles.full) as f64;
        let self_ns = trace::self_time_by_layer(self.spans);
        let self_us = |layer: &str| {
            ratio(
                self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3,
                rounds,
            )
        };
        let traced_rps = ratio(rounds, self.traced_wall);
        let serve_read = self.p50("serve.read");

        vec![
            metric("net.request_encode_us", self.p50("net.encode"), "us"),
            metric("net.reply_decode_us", self.decode_of_reads(), "us"),
            metric("net.reply_encode_us", self.p50("net.reply_encode"), "us"),
            metric("net.reply_bytes.edit", median(&edit_bytes), "B"),
            metric("net.reply_bytes.read", median(&read_bytes), "B"),
            metric("net.wire_us", median(&read_ms) * 1e3 - serve_read, "us"),
            metric("serve.call_p50_us", serve_read, "us"),
            metric(
                "serve.mean_service_us",
                ratio(
                    (a.load.busy_ns - b.load.busy_ns) as f64 / 1e3,
                    (a.load.served_requests - b.load.served_requests) as f64,
                ),
                "us",
            ),
            metric(
                "serve.busy_share_max",
                ratio(busy_max / 1e9, self.traced_wall),
                "share",
            ),
            // From the in-process replay: its creates are not pipelined, so
            // the high water is that of the rounds.
            metric(
                "serve.queue_high_water",
                self.replay.aggregate().queue_high_water as f64,
                "count",
            ),
            metric(
                "serve.incremental_hit_rate",
                ratio(incremental, incremental + full),
                "share",
            ),
            metric(
                "serve.evictions_per_round",
                ratio((a.evictions - b.evictions) as f64, rounds),
                "1/round",
            ),
            metric(
                "serve.rehydrations_per_round",
                ratio((a.rehydrations - b.rehydrations) as f64, rounds),
                "1/round",
            ),
            metric("store.append_us", self.p50("store.append"), "us"),
            metric("store.append_n", self.count("store.append"), "count"),
            metric(
                "store.put_snapshot_us",
                self.p50("store.put_snapshot"),
                "us",
            ),
            metric(
                "store.put_snapshot_n",
                self.count("store.put_snapshot"),
                "count",
            ),
            metric("store.load_us", self.p50("store.load"), "us"),
            metric("store.load_n", self.count("store.load"), "count"),
            metric(
                "store.records_replayed",
                ratio(
                    (a.store.records_replayed - b.store.records_replayed) as f64,
                    rounds,
                ),
                "1/round",
            ),
            metric("engine.set_perf_us", self.p50("engine.set_perf"), "us"),
            metric("engine.set_weight_us", self.p50("engine.set_weight"), "us"),
            metric(
                "engine.set_weight_n",
                self.count("engine.set_weight"),
                "count",
            ),
            metric(
                "engine.cycle_incremental_us",
                self.p50("engine.cycle_incremental"),
                "us",
            ),
            metric(
                "engine.cycle_incremental_n",
                self.count("engine.cycle_incremental"),
                "count",
            ),
            metric("engine.cycle_full_us", self.p50("engine.cycle_full"), "us"),
            metric(
                "engine.cycle_full_n",
                self.count("engine.cycle_full"),
                "count",
            ),
            metric("engine.evaluate_us", self.p50("engine.evaluate"), "us"),
            metric("engine.stability_us", self.p50("engine.stability"), "us"),
            metric(
                "engine.stability_n",
                self.count("engine.stability"),
                "count",
            ),
            metric("engine.montecarlo_us", self.p50("engine.montecarlo"), "us"),
            metric(
                "engine.montecarlo_n",
                self.count("engine.montecarlo"),
                "count",
            ),
            metric(
                "sense.interval_sweep_us",
                self.p50("sense.interval_sweep"),
                "us",
            ),
            metric("sense.certify_us", self.p50("sense.certify"), "us"),
            metric(
                "lp.solves_per_cycle",
                ratio(self.lp.solves as f64, self.lp.cycles as f64),
                "count",
            ),
            metric(
                "lp.pivots_per_solve",
                ratio(self.lp.pivots as f64, self.lp.solves as f64),
                "count",
            ),
            metric(
                "lp.warm_share",
                ratio(self.lp.warm_solves as f64, self.lp.solves as f64),
                "share",
            ),
            metric("self.net_us", self_us("net"), "us/round"),
            metric("self.serve_us", self_us("serve"), "us/round"),
            metric("self.store_us", self_us("store"), "us/round"),
            metric("self.engine_us", self_us("engine"), "us/round"),
            metric("self.sense_us", self_us("sense"), "us/round"),
            metric("trace.round_remainder_us", self.round_remainder_us(), "us"),
            metric(
                "trace.overhead_share",
                1.0 - ratio(traced_rps, self.untraced_rps),
                "share",
            ),
            metric("trace.spans", self.spans.len() as f64, "count"),
        ]
    }

    /// Median over the traced rounds of what the spans leave unexplained:
    /// the round's client-side time minus its client-side net spans and
    /// the in-process server calls for the same requests. What remains
    /// is the wire, scheduling, and anything no span covers.
    fn round_remainder_us(&self) -> f64 {
        let mut round_us: HashMap<u32, f64> = HashMap::new();
        let mut explained_us: HashMap<u32, f64> = HashMap::new();
        for s in self.spans {
            match s.name {
                "client.round" => {
                    round_us.insert(s.round, s.dur_us());
                }
                "net.encode" | "net.write" | "net.read" | "net.decode" | "serve.edit"
                | "serve.read" => {
                    *explained_us.entry(s.round).or_default() += s.dur_us();
                }
                _ => {}
            }
        }
        let remainders: Vec<f64> = round_us
            .iter()
            .map(|(round, us)| us - explained_us.get(round).copied().unwrap_or(0.0))
            .collect();
        median(&remainders)
    }

    /// p50 decode time of read replies (decode spans under `client.read`).
    fn decode_of_reads(&self) -> f64 {
        let read_calls: HashSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == "client.read")
            .map(|s| s.id)
            .collect();
        let decodes: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "net.decode" && s.parent.is_some_and(|p| read_calls.contains(&p)))
            .map(Span::dur_us)
            .collect();
        median(&decodes)
    }
}

/// The traced run must show each workload stressing the layers it is
/// meant to: stability and Monte Carlo only on `whatif-small`, the store
/// and rehydration only on `churn-durable`, and on `screening-large` one
/// full cycle per `SetWeight`.
fn placement_errors(kind: Kind, metrics: &[Metric]) -> Vec<String> {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut errors = Vec::new();
    let mut expect = |what: &str, holds: bool| {
        if !holds {
            errors.push(format!("traced {}: expected {what}", kind.name()));
        }
    };
    let whatif = kind == Kind::WhatifSmall;
    let churn = kind == Kind::ChurnDurable;
    expect(
        "stability spans only on whatif-small",
        (value("engine.stability_n") > 0.0) == whatif,
    );
    expect(
        "Monte Carlo spans only on whatif-small",
        (value("engine.montecarlo_n") > 0.0) == whatif,
    );
    expect(
        "store spans only on churn-durable",
        (value("store.load_n") > 0.0) == churn,
    );
    expect(
        "rehydrations only on churn-durable",
        (value("serve.rehydrations_per_round") > 0.0) == churn,
    );
    if kind == Kind::ScreeningLarge {
        expect(
            "one full cycle per SetWeight",
            value("engine.cycle_full_n") == value("engine.set_weight_n"),
        );
    }
    errors
}

fn smoke() -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        for trace in [false, true] {
            match run(kind, 1, 5.0, trace, SMOKE_ROUNDS, 1) {
                Ok(mut outcome) => {
                    if trace {
                        let errors = placement_errors(kind, &outcome.metrics);
                        outcome.errors.extend(errors);
                    }
                    let pass =
                        outcome.correct && outcome.errors.is_empty() && outcome.attempted > 0;
                    eprintln!(
                        "smoke {} trace={}: {} ({} requests, {} failed)",
                        kind.name(),
                        u8::from(trace),
                        if pass { "ok" } else { "FAILED" },
                        outcome.attempted,
                        outcome.failed
                    );
                    for e in &outcome.errors {
                        eprintln!("  {e}");
                    }
                    ok &= pass;
                }
                Err(e) => {
                    eprintln!(
                        "smoke {} trace={}: error: {e}",
                        kind.name(),
                        u8::from(trace)
                    );
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke();
    }
    let kind = args.kind.expect("checked by parse_args");
    let setups = if args.trace { 1 } else { SETUPS };
    match run(
        kind,
        args.seed,
        args.seconds,
        args.trace,
        usize::MAX,
        setups,
    ) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
