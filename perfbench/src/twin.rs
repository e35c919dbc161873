//! The correctness gate and the engine-layer trace: a twin
//! `AnalysisEngine` per tenant replays each client's served request
//! sequence through the engine's public methods.
//!
//! The replay mirrors the server's residency: every request ticks its
//! shard's clock, edits and cycles touch the session, and a session
//! evicted by the LRU cap comes back as a fresh engine built from its
//! current model, exactly as the server rehydrates it. Each reply the
//! twin computes is encoded as the `WireResponse` the server would send,
//! and must match the served reply byte for byte (compared by digest).

use crate::drive::{digest_outcome, ClientLog, Phase, Reply};
use crate::trace::{Recorder, Span};
use crate::workload::{Read, Workload};
use gmaa::{Analysis, AnalysisEngine, CycleStats};
use gmaa_serve::{Request, Response, SessionConfig, SessionSnapshot};
use maut_sense::{intensity, potential, MonteCarloConfig, StabilityMode};
use std::hint::black_box;

/// LP work over the traced rounds' reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct LpWork {
    pub cycles: u64,
    pub solves: u64,
    pub warm_solves: u64,
    pub pivots: u64,
}

#[derive(Debug, Default)]
pub struct TwinOutcome {
    /// Successful served replies that differ from the twin's, in
    /// measured rounds.
    pub measured_mismatches: u64,
    /// Descriptions of the first few mismatches anywhere.
    pub errors: Vec<String>,
    /// Cycle counts summed over every engine incarnation.
    pub cycles: CycleStats,
    pub lp: LpWork,
    pub spans: Vec<Span>,
}

impl TwinOutcome {
    fn note(&mut self, error: String) {
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    pub fn merge(&mut self, other: TwinOutcome) {
        self.measured_mismatches += other.measured_mismatches;
        for e in other.errors {
            self.note(e);
        }
        self.cycles.incremental += other.cycles.incremental;
        self.cycles.full += other.cycles.full;
        self.lp.cycles += other.lp.cycles;
        self.lp.solves += other.lp.solves;
        self.lp.warm_solves += other.lp.warm_solves;
        self.lp.pivots += other.lp.pivots;
        self.spans.extend(other.spans);
    }
}

struct TwinTenant {
    engine: AnalysisEngine,
    live: bool,
    last_used: u64,
    retired: CycleStats,
}

/// One client's tenants and the shards only that client drives.
struct Replica<'w> {
    w: &'w Workload,
    tenants: Vec<Option<TwinTenant>>,
    clocks: Vec<u64>,
}

impl Replica<'_> {
    fn tenant(&mut self, t: usize) -> &mut TwinTenant {
        self.tenants[t]
            .as_mut()
            .expect("a client only replays its own tenants")
    }

    fn tick(&mut self, t: usize) -> u64 {
        let shard = self.w.tenants[t].shard;
        self.clocks[shard] += 1;
        self.clocks[shard]
    }

    /// Evict least-recently-used sessions of `shard` until one more fits.
    fn make_room(&mut self, shard: usize) {
        let cap = self.w.config.max_sessions_per_shard.max(1);
        loop {
            let live: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| self.w.tenants[t].shard == shard)
                .filter(|&t| self.tenants[t].as_ref().is_some_and(|x| x.live))
                .collect();
            if live.len() < cap {
                return;
            }
            let victim = live
                .into_iter()
                .min_by_key(|&t| self.tenants[t].as_ref().map_or(0, |x| x.last_used))
                .expect("a full shard has a live session");
            let evicted = self.tenant(victim);
            let stats = evicted.engine.cycle_stats();
            evicted.retired.incremental += stats.incremental;
            evicted.retired.full += stats.full;
            evicted.live = false;
        }
    }

    fn create(&mut self, t: usize) {
        let clock = self.tick(t);
        self.make_room(self.w.tenants[t].shard);
        let engine = AnalysisEngine::new(self.w.tenants[t].model.clone())
            .expect("the server accepted this model");
        self.tenants[t] = Some(TwinTenant {
            engine,
            live: true,
            last_used: clock,
            retired: CycleStats::default(),
        });
    }

    /// The session's engine, rehydrated if the cap evicted it.
    fn touch(&mut self, t: usize, clock: u64) -> &mut AnalysisEngine {
        if !self.tenant(t).live {
            self.make_room(self.w.tenants[t].shard);
            let tenant = self.tenant(t);
            tenant.engine = AnalysisEngine::new(tenant.engine.model().clone())
                .expect("an edited model stays valid");
            tenant.live = true;
        }
        let tenant = self.tenant(t);
        tenant.last_used = clock;
        &mut tenant.engine
    }

    fn total_cycles(&self) -> CycleStats {
        let mut total = CycleStats::default();
        for t in self.tenants.iter().flatten() {
            total.incremental += t.retired.incremental;
            total.full += t.retired.full;
            if t.live {
                let live = t.engine.cycle_stats();
                total.incremental += live.incremental;
                total.full += live.full;
            }
        }
        total
    }
}

fn apply_edit(
    engine: &mut AnalysisEngine,
    edit: &Request,
    rec: &mut Recorder,
    round: u32,
) -> Result<(), String> {
    match edit {
        Request::SetPerf {
            alternative,
            attr,
            perf,
            ..
        } => {
            let span = rec.open("engine.set_perf", round, None);
            let out = engine.set_perf(*alternative, *attr, *perf);
            rec.close(span);
            out.map_err(|e| e.to_string())
        }
        Request::SetWeight {
            objective, weight, ..
        } => {
            let span = rec.open("engine.set_weight", round, None);
            let out = engine.set_weight(*objective, *weight);
            rec.close(span);
            out.map_err(|e| e.to_string())
        }
        other => Err(format!("not an edit: {other:?}")),
    }
}

/// The discard cycle, named after the path it took; on the traced run
/// a full cycle also times its two stages on a copy of the context, so
/// the engine's own state is not disturbed.
fn cycle(
    engine: &mut AnalysisEngine,
    rec: &mut Recorder,
    round: u32,
) -> Result<gmaa::DiscardCycle, String> {
    let full_before = engine.cycle_stats().full;
    let span = rec.open("engine.cycle", round, None);
    let cycle = engine
        .discard_cycle_incremental()
        .map_err(|e| e.to_string())?;
    rec.close(span);
    let full = engine.cycle_stats().full > full_before;
    rec.rename(
        span,
        if full {
            "engine.cycle_full"
        } else {
            "engine.cycle_incremental"
        },
    );
    if full && rec.is_active() {
        let ctx = engine.context().clone();
        let span = rec.open("sense.interval_sweep", round, None);
        black_box(intensity::dominance_intervals_ctx(&ctx));
        rec.close(span);
        let span = rec.open("sense.certify", round, None);
        black_box(potential::certify_ctx(&ctx).map_err(|e| e.to_string())?);
        rec.close(span);
    }
    Ok(cycle)
}

/// The reply the server owes `read`, computed stage by stage with the
/// same calls `analyze_incremental` makes.
fn answer(
    engine: &mut AnalysisEngine,
    read: &Request,
    rec: &mut Recorder,
    round: u32,
) -> Result<Response, String> {
    match read {
        Request::DiscardCycle { .. } => Ok(Response::Cycle(Box::new(cycle(engine, rec, round)?))),
        Request::Analyze { .. } => {
            let discard = cycle(engine, rec, round)?;
            let span = rec.open("engine.evaluate", round, None);
            let evaluation = maut::Evaluation::clone(&engine.evaluate());
            rec.close(span);
            let span = rec.open("engine.stability", round, None);
            let stability = engine.stability_all(StabilityMode::BestAlternative);
            rec.close(span);
            let span = rec.open("engine.montecarlo", round, None);
            let monte_carlo = engine.monte_carlo(MonteCarloConfig::ElicitedIntervals);
            rec.close(span);
            Ok(Response::Analysis(Box::new(Analysis {
                evaluation,
                stability,
                non_dominated: discard.non_dominated,
                potential: discard.potential,
                intensity: discard.intensity,
                monte_carlo,
            })))
        }
        Request::Snapshot { session } => Ok(Response::Snapshot(Box::new(SessionSnapshot {
            session: session.clone(),
            model_json: gmaa::model_to_json(engine.model()).map_err(|e| e.to_string())?,
            config: SessionConfig::default(),
        }))),
        other => Err(format!("not a read: {other:?}")),
    }
}

fn check(
    out: &mut TwinOutcome,
    what: &str,
    served: &Result<Reply, String>,
    twin: Result<Reply, String>,
    measured: bool,
) {
    let same = match (served, &twin) {
        (Ok(s), Ok(t)) => s.digest == t.digest,
        _ => false,
    };
    if !same {
        // A served error already counts as a failed request.
        if measured && served.is_ok() {
            out.measured_mismatches += 1;
        }
        out.note(format!("{what}: served {served:?}, twin {twin:?}"));
    }
}

/// Replay one client's log; spans are recorded for traced rounds only.
pub fn replay_client(w: &Workload, client: usize, log: &ClientLog) -> TwinOutcome {
    let mut out = TwinOutcome::default();
    let mut replica = Replica {
        w,
        tenants: (0..w.tenants.len()).map(|_| None).collect(),
        clocks: vec![0; w.shards()],
    };
    for t in w.tenants_of(client) {
        replica.create(t);
    }
    let mut spans = Vec::new();
    for served in &log.served {
        let traced = served.phase == Phase::Traced;
        let measured = served.phase != Phase::WarmUp;
        let mut rec = Recorder::new(traced);
        let t = served.round.tenant;
        let round = served.id;
        let what = format!("round {round:#x} on {}", w.tenants[t].name);

        let clock = replica.tick(t);
        let edit = w.edit_request(&served.round);
        let edited = apply_edit(replica.touch(t, clock), &edit, &mut rec, round);
        let edit_reply = edited.and_then(|()| digest_outcome(Ok(Response::Edited)));
        check(
            &mut out,
            &format!("{what} edit"),
            &served.edit,
            edit_reply,
            measured,
        );

        let clock = replica.tick(t);
        let snapshot = served.round.read == Read::Snapshot;
        let engine = if snapshot {
            &mut replica.tenant(t).engine
        } else {
            replica.touch(t, clock)
        };
        let lp_before = engine.lp_stats();
        let response = answer(engine, &w.read_request(&served.round), &mut rec, round);
        let lp_after = engine.lp_stats();
        let span = rec.open("net.reply_encode", round, None);
        let read_reply = response.and_then(|r| digest_outcome(Ok(r)));
        rec.close(span);
        check(
            &mut out,
            &format!("{what} read"),
            &served.read,
            read_reply,
            measured,
        );

        if traced && !snapshot {
            out.lp.cycles += 1;
            out.lp.solves += (lp_after.solves - lp_before.solves) as u64;
            out.lp.warm_solves += (lp_after.warm_solves - lp_before.warm_solves) as u64;
            out.lp.pivots += (lp_after.pivots - lp_before.pivots) as u64;
        }
        spans.extend(rec.into_spans());
    }
    out.cycles = replica.total_cycles();
    out.spans = spans;
    out
}

/// Replay every client's log: one thread per client when `parallel`,
/// else one after another (the traced run, so engine spans do not
/// contend with each other for the cores).
pub fn replay(w: &Workload, logs: &[ClientLog], parallel: bool) -> TwinOutcome {
    let mut total = TwinOutcome::default();
    if parallel {
        let outcomes: Vec<TwinOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = logs
                .iter()
                .enumerate()
                .map(|(client, log)| scope.spawn(move || replay_client(w, client, log)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("twin replay thread panicked"))
                .collect()
        });
        outcomes.into_iter().for_each(|o| total.merge(o));
    } else {
        for (client, log) in logs.iter().enumerate() {
            total.merge(replay_client(w, client, log));
        }
    }
    total
}
