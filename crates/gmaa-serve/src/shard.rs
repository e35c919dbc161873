//! The shard worker: one thread owning a set of sessions.
//!
//! All requests for a session arrive on its shard's channel and are
//! handled strictly in order by the worker thread, so engines are never
//! shared or locked. The worker keeps live sessions up to a configured
//! cap; beyond it, the least-recently-used session is hibernated to a
//! [`SessionSnapshot`] and transparently rehydrated on its next request.
//!
//! With a [`SessionStore`] configured, durability rides the same paths:
//! every applied edit appends a journal record, eviction writes a
//! compacted snapshot to the store (and the snapshot leaves shard
//! memory), and a session recovered from a previous process is
//! rehydrated journal-over-snapshot on its next request. A session that
//! stays resident is compacted once its journal holds as many records as
//! its model has cells, so no journal outgrows that bound.

use crate::admission::ShardGate;
use crate::protocol::{
    Request, RequestKind, Response, ServeError, SessionConfig, SessionSnapshot, MAX_MC_TRIALS,
};
use crate::session::Session;
use crate::stats::{LoadStats, RequestCounts, ShardStats, StoreStats};
use crate::store::{JournalRecord, SessionStore, StoredSession};
use gmaa::CycleStats;
use maut_sense::{MonteCarlo, MonteCarloConfig, SolveStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message to a shard worker: an API request with its reply channel, or
/// an out-of-band stats/drain command.
pub(crate) enum Command {
    /// Handle `request` and send the outcome to `reply`. Boxed: a
    /// `CreateSession` carries a whole model, dwarfing the other
    /// variants.
    Api {
        request: Box<Request>,
        reply: Sender<Result<Response, ServeError>>,
        /// When admission reserved the queue slot — the deadline epoch.
        admitted: Instant,
        /// How long past `admitted` the request may wait in the queue
        /// before it is answered `DeadlineExceeded` instead of executed.
        deadline: Option<Duration>,
    },
    /// Report the shard's current counters.
    Stats { reply: Sender<ShardStats> },
    /// Flush every live session to the store (sessions stay live);
    /// replies with the number flushed.
    Drain {
        reply: Sender<Result<u64, ServeError>>,
    },
}

/// One shard's state, owned by its worker thread.
pub(crate) struct Shard {
    index: usize,
    /// Live-session cap; reaching it hibernates the LRU session.
    cap: usize,
    /// Settings applied to sessions created on this shard.
    session_config: SessionConfig,
    live: HashMap<String, Session>,
    /// Evicted snapshots kept in shard memory — only used when no store
    /// is configured (with a store they spill to it instead, keeping the
    /// shard's resident footprint bounded under session churn).
    hibernated: HashMap<String, SessionSnapshot>,
    /// The durable backend, if any. Shared across shards; the FNV
    /// routing guarantees no two shards address the same session.
    store: Option<Arc<dyn SessionStore>>,
    /// Sessions whose state lives only in the store (evicted there, or
    /// recovered from a previous process and not yet touched).
    stored: HashSet<String>,
    /// Logical clock for LRU ordering: bumped per request, stamped onto
    /// the touched session.
    clock: u64,
    counts: RequestCounts,
    sessions_created: u64,
    evictions: u64,
    rehydrations: u64,
    /// Engine counters of evicted/closed sessions, folded in at
    /// retirement so shard totals survive session churn.
    retired_cycles: CycleStats,
    retired_lp: SolveStats,
    store_stats: StoreStats,
    /// Worker service-time accounting: time spent inside `handle` and
    /// the number of requests that reached it.
    load: LoadStats,
    /// The admission gate shared with the manager's submit path: the
    /// manager increments its depth on admission, this worker releases
    /// at dequeue. `None` for bare shards driven directly in tests.
    gate: Option<Arc<ShardGate>>,
    /// The manager's shutdown flag: once up, queued API requests are
    /// answered `ServeError::Shutdown` instead of executed.
    stopping: Option<Arc<AtomicBool>>,
}

impl Shard {
    pub(crate) fn new(index: usize, cap: usize, session_config: SessionConfig) -> Shard {
        Shard {
            index,
            cap: cap.max(1),
            session_config,
            live: HashMap::new(),
            hibernated: HashMap::new(),
            store: None,
            stored: HashSet::new(),
            clock: 0,
            counts: RequestCounts::default(),
            sessions_created: 0,
            evictions: 0,
            rehydrations: 0,
            retired_cycles: CycleStats::default(),
            retired_lp: SolveStats::default(),
            store_stats: StoreStats::default(),
            load: LoadStats::default(),
            gate: None,
            stopping: None,
        }
    }

    /// Attach the manager's admission gate and shutdown flag (see the
    /// field docs). Bare shards in unit tests skip this.
    pub(crate) fn with_admission(
        mut self,
        gate: Arc<ShardGate>,
        stopping: Arc<AtomicBool>,
    ) -> Shard {
        self.gate = Some(gate);
        self.stopping = Some(stopping);
        self
    }

    /// Attach a durable store, seeding `recovered` — session names the
    /// manager's recovery enumeration routed to this shard. They are
    /// rehydrated lazily, journal-over-snapshot, on their next request.
    pub(crate) fn with_store(
        mut self,
        store: Arc<dyn SessionStore>,
        recovered: Vec<String>,
    ) -> Shard {
        self.store = Some(store);
        self.stored = recovered.into_iter().collect();
        self
    }

    /// The worker loop: handle commands until every sender is gone.
    pub(crate) fn run(mut self, commands: Receiver<Command>) {
        for command in commands {
            match command {
                Command::Api {
                    request,
                    reply,
                    admitted,
                    deadline,
                } => {
                    // The request left the queue: release its admission
                    // slot *before* the (possibly long) engine work, so
                    // queue depth measures waiting requests only.
                    if let Some(gate) = &self.gate {
                        gate.release();
                    }
                    let outcome = if self.is_stopping() {
                        // Shutdown beat this queued request: answer it
                        // with the typed error instead of executing (or
                        // silently dropping) it.
                        Err(ServeError::Shutdown)
                    } else if deadline.is_some_and(|d| admitted.elapsed() > d) {
                        // Queued past its deadline: the client has given
                        // up; don't burn engine time on it.
                        if let Some(gate) = &self.gate {
                            gate.count_deadline_rejection();
                        }
                        self.count(request.kind());
                        Err(ServeError::DeadlineExceeded)
                    } else {
                        self.handle(*request)
                    };
                    // A client that dropped its pending reply is not an
                    // error; the work is done either way.
                    let _ = reply.send(outcome);
                }
                Command::Stats { reply } => {
                    let _ = reply.send(self.stats());
                }
                Command::Drain { reply } => {
                    let _ = reply.send(self.drain());
                }
            }
        }
    }

    fn is_stopping(&self) -> bool {
        self.stopping
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Acquire))
    }

    fn count(&mut self, kind: RequestKind) {
        let slot = match kind {
            RequestKind::Create => &mut self.counts.create,
            RequestKind::SetPerf => &mut self.counts.set_perf,
            RequestKind::SetWeight => &mut self.counts.set_weight,
            RequestKind::Analyze => &mut self.counts.analyze,
            RequestKind::DiscardCycle => &mut self.counts.discard_cycle,
            RequestKind::MonteCarlo => &mut self.counts.monte_carlo,
            RequestKind::Snapshot => &mut self.counts.snapshot,
            RequestKind::Close => &mut self.counts.close,
        };
        *slot += 1;
    }

    /// Handle one request, accounting its wall-clock service time into
    /// [`LoadStats`] — the busy-time signal that distinguishes a whale
    /// tenant's shard from a minnow's at equal request counts.
    pub(crate) fn handle(&mut self, request: Request) -> Result<Response, ServeError> {
        let started = Instant::now();
        let outcome = self.dispatch(request);
        // A u64 of nanoseconds holds ~584 years of busy time; the
        // conversion saturates rather than truncates on the (absurd)
        // single-request overflow.
        self.load.busy_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.load.served_requests += 1;
        outcome
    }

    fn dispatch(&mut self, request: Request) -> Result<Response, ServeError> {
        self.count(request.kind());
        self.clock += 1;
        match request {
            Request::CreateSession { session, model } => {
                if self.live.contains_key(&session)
                    || self.hibernated.contains_key(&session)
                    || self.stored.contains(&session)
                {
                    return Err(ServeError::DuplicateSession(session));
                }
                let mut s = Session::new(model, self.session_config)?;
                s.last_used = self.clock;
                // With a store, the session is born durable: its initial
                // snapshot is written before the create is acknowledged,
                // so journal appends always follow a snapshot.
                if let Some(store) = self.store.clone() {
                    let snap = s.snapshot(&session)?;
                    match store.put_snapshot(&snap) {
                        Ok(()) => self.store_stats.snapshots_written += 1,
                        Err(e) => {
                            self.store_stats.store_errors += 1;
                            return Err(e.into());
                        }
                    }
                }
                self.make_room();
                self.live.insert(session, s);
                self.sessions_created += 1;
                Ok(Response::Created)
            }
            Request::CloseSession { session } => {
                let found = if let Some(s) = self.live.remove(&session) {
                    self.retire(&s);
                    true
                } else {
                    let hibernated = self.hibernated.remove(&session).is_some();
                    let stored = self.stored.remove(&session);
                    hibernated || stored
                };
                if !found {
                    return Err(ServeError::UnknownSession(session));
                }
                // Best effort: a failed store delete leaves an orphaned
                // entry (re-created names will collide at recovery), but
                // the close itself succeeded.
                if let Some(store) = self.store.clone() {
                    if store.remove(&session).is_err() {
                        self.store_stats.store_errors += 1;
                    }
                }
                Ok(Response::Closed)
            }
            Request::Snapshot { session } => {
                // A read-only probe: answer from whatever tier holds the
                // session without stamping `last_used` — a periodic
                // snapshot poller must not pin sessions resident or
                // reorder LRU eviction.
                if let Some(s) = self.live.get(&session) {
                    let snap = s.snapshot(&session)?;
                    Ok(Response::Snapshot(Box::new(snap)))
                } else if let Some(snap) = self.hibernated.get(&session) {
                    Ok(Response::Snapshot(Box::new(snap.clone())))
                } else if self.stored.contains(&session) {
                    let stored = self.store_load(&session)?;
                    let snap = if stored.journal.is_empty() && stored.torn_records == 0 {
                        stored.snapshot
                    } else {
                        // Pending journal records: materialize them into
                        // an ephemeral engine so the reported snapshot is
                        // the session's real state. Residency unchanged.
                        let mut s = Session::restore(&stored.snapshot, &session)?;
                        s.replay(&stored.journal)?;
                        s.snapshot(&session)?
                    };
                    Ok(Response::Snapshot(Box::new(snap)))
                } else {
                    Err(ServeError::UnknownSession(session))
                }
            }
            Request::SetPerf {
                session,
                alternative,
                attr,
                perf,
            } => {
                self.touch(&session)?
                    .engine
                    .set_perf(alternative, attr, perf)?;
                self.journal(&session, JournalRecord::SetPerf(alternative, attr, perf))?;
                Ok(Response::Edited)
            }
            Request::SetWeight {
                session,
                objective,
                weight,
            } => {
                self.touch(&session)?.engine.set_weight(objective, weight)?;
                self.journal(&session, JournalRecord::SetWeight(objective, weight))?;
                Ok(Response::Edited)
            }
            Request::Analyze { session } => {
                let s = self.touch(&session)?;
                Ok(Response::Analysis(Box::new(
                    s.engine.analyze_incremental()?,
                )))
            }
            Request::DiscardCycle { session } => {
                let s = self.touch(&session)?;
                Ok(Response::Cycle(Box::new(
                    s.engine.discard_cycle_incremental()?,
                )))
            }
            Request::MonteCarlo { session, trials } => {
                // Validate before touching the engine: MonteCarlo::new
                // asserts trials > 0, and a panic here would take down
                // the whole shard, not just this request. The worker
                // checks deadlines only at dequeue, so a huge count would
                // stall every session on the shard.
                if trials == 0 {
                    return Err(ServeError::InvalidRequest(
                        "Monte Carlo needs at least one trial".to_string(),
                    ));
                }
                if trials > MAX_MC_TRIALS {
                    return Err(ServeError::InvalidRequest(format!(
                        "Monte Carlo takes at most {MAX_MC_TRIALS} trials, got {trials}"
                    )));
                }
                let s = self.touch(&session)?;
                let result = MonteCarlo::new(
                    MonteCarloConfig::ElicitedIntervals,
                    trials,
                    s.config.mc_seed,
                )
                .run_ctx(s.engine.context());
                Ok(Response::MonteCarlo(Box::new(result)))
            }
        }
    }

    /// Fetch a session for use, transparently rehydrating it (from the
    /// in-memory snapshot or the store) if it was evicted, and stamp its
    /// LRU clock.
    fn touch(&mut self, session: &str) -> Result<&mut Session, ServeError> {
        if !self.live.contains_key(session) {
            if let Some(snap) = self.hibernated.remove(session) {
                match Session::restore(&snap, session) {
                    Ok(s) => {
                        self.make_room();
                        self.rehydrations += 1;
                        self.live.insert(session.to_string(), s);
                    }
                    Err(e) => {
                        // Keep the snapshot: a transient failure must not
                        // destroy the session.
                        self.hibernated.insert(session.to_string(), snap);
                        return Err(e);
                    }
                }
            } else if self.stored.contains(session) {
                // Store-backed rehydration: restore the compacted
                // snapshot, then replay the journaled edits on top. Any
                // failure leaves the `stored` entry (and the store state)
                // untouched for a later retry.
                let stored = self.store_load(session)?;
                let mut s = Session::restore(&stored.snapshot, session)?;
                s.replay(&stored.journal)?;
                s.journaled = stored.journal.len();
                self.store_stats.records_replayed += stored.journal.len() as u64;
                self.store_stats.torn_records_dropped += stored.torn_records;
                self.store_stats.sessions_recovered += 1;
                self.make_room();
                self.rehydrations += 1;
                self.stored.remove(session);
                self.live.insert(session.to_string(), s);
            } else {
                return Err(ServeError::UnknownSession(session.to_string()));
            }
        }
        match self.live.get_mut(session) {
            Some(s) => {
                s.last_used = self.clock;
                Ok(s)
            }
            // Unreachable after the insert above; if the invariant ever
            // breaks, fail this one request instead of killing the shard.
            None => Err(ServeError::Internal(format!(
                "session {session:?} vanished between rehydration and touch"
            ))),
        }
    }

    /// Hibernate LRU sessions until there is room for one more live
    /// session. With a store, the compacted snapshot spills there and
    /// leaves shard memory entirely; without one, it parks in
    /// `hibernated`.
    fn make_room(&mut self) {
        while self.live.len() >= self.cap {
            let Some(victim) = self
                .live
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(name, _)| name.clone())
            else {
                return;
            };
            // The victim came out of `self.live` one statement ago; if it
            // is somehow gone, there is nothing to evict.
            let Some(s) = self.live.remove(&victim) else {
                return;
            };
            let snap = match s.snapshot(&victim) {
                Ok(snap) => snap,
                Err(_) => {
                    // Refusing to evict beats losing the session; stay
                    // over cap until a snapshot succeeds.
                    self.live.insert(victim, s);
                    return;
                }
            };
            if let Some(store) = self.store.clone() {
                match store.put_snapshot(&snap) {
                    Ok(()) => {
                        self.store_stats.snapshots_written += 1;
                        self.retire(&s);
                        self.stored.insert(victim);
                        self.evictions += 1;
                    }
                    Err(_) => {
                        self.store_stats.store_errors += 1;
                        self.live.insert(victim, s);
                        return;
                    }
                }
            } else {
                self.retire(&s);
                self.hibernated.insert(victim, snap);
                self.evictions += 1;
            }
        }
    }

    /// Append one applied edit to the session's write-ahead journal. A
    /// failed append degrades to writing a full compacted snapshot (the
    /// in-memory model already carries the edit); only when both paths
    /// fail does the edit surface a store error — the in-memory session
    /// still holds the edit either way.
    ///
    /// The journal is bounded by the model's cell count: a resident
    /// session is otherwise never compacted, and its journal (in memory
    /// or on disk, replayed in full on recovery) would grow with every
    /// edit. Once that many records are pending, the compacted snapshot
    /// is written. If that write fails it is counted and retried on the
    /// next append; the edit itself is already journaled.
    fn journal(&mut self, session: &str, record: JournalRecord) -> Result<(), ServeError> {
        let Some(store) = self.store.clone() else {
            return Ok(());
        };
        match store.append(session, &record) {
            Ok(()) => {
                self.store_stats.journal_appends += 1;
                let due = self.live.get_mut(session).is_some_and(|s| {
                    s.journaled += 1;
                    let model = s.engine.model();
                    s.journaled >= model.num_alternatives() * model.num_attributes()
                });
                if due {
                    // Counted in `store_errors` on failure; see above.
                    let _ = self.compact(session, store.as_ref());
                }
                Ok(())
            }
            Err(_) => {
                self.store_stats.store_errors += 1;
                self.compact(session, store.as_ref())
            }
        }
    }

    /// Write a live session's compacted snapshot, which truncates its
    /// journal in the store.
    fn compact(&mut self, session: &str, store: &dyn SessionStore) -> Result<(), ServeError> {
        let Some(s) = self.live.get_mut(session) else {
            return Err(ServeError::Internal(format!(
                "session {session:?} vanished before compaction"
            )));
        };
        let outcome = s
            .snapshot(session)
            .and_then(|snap| store.put_snapshot(&snap).map_err(ServeError::from));
        match outcome {
            Ok(()) => {
                s.journaled = 0;
                self.store_stats.snapshots_written += 1;
                Ok(())
            }
            Err(e) => {
                self.store_stats.store_errors += 1;
                Err(e)
            }
        }
    }

    /// Load a session's stored state, verifying it was filed under the
    /// right name before anything is served from it.
    fn store_load(&mut self, session: &str) -> Result<StoredSession, ServeError> {
        let Some(store) = self.store.clone() else {
            return Err(ServeError::Internal(format!(
                "session {session:?} is marked stored but the shard has no store"
            )));
        };
        match store.load(session) {
            Ok(Some(stored)) => {
                if stored.snapshot.session == session {
                    Ok(stored)
                } else {
                    Err(ServeError::Snapshot(format!(
                        "snapshot identity mismatch: loaded under {session:?} but records \
                         session {:?}",
                        stored.snapshot.session
                    )))
                }
            }
            Ok(None) => Err(ServeError::UnknownSession(session.to_string())),
            Err(e) => {
                self.store_stats.store_errors += 1;
                Err(e.into())
            }
        }
    }

    /// Flush every live session's current state to the store as a
    /// compacted snapshot and sync — graceful shutdown. Sessions stay
    /// live and serving. Returns the number flushed; all sessions are
    /// attempted before the first error (if any) is reported.
    pub(crate) fn drain(&mut self) -> Result<u64, ServeError> {
        let Some(store) = self.store.clone() else {
            return Ok(0);
        };
        let mut names: Vec<String> = self.live.keys().cloned().collect();
        names.sort_unstable();
        let mut flushed = 0u64;
        let mut first_err: Option<ServeError> = None;
        for name in names {
            match self.compact(&name, store.as_ref()) {
                Ok(()) => flushed += 1,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Err(e) = store.sync() {
            self.store_stats.store_errors += 1;
            first_err.get_or_insert(e.into());
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(flushed),
        }
    }

    /// Fold a departing session's engine counters into the shard totals.
    fn retire(&mut self, s: &Session) {
        let cycles = s.engine.cycle_stats();
        self.retired_cycles.incremental += cycles.incremental;
        self.retired_cycles.full += cycles.full;
        self.retired_lp.merge(&s.engine.lp_stats());
    }

    /// The shard's counters right now: retired accumulations plus the
    /// live engines' current counters.
    pub(crate) fn stats(&self) -> ShardStats {
        let mut cycles = self.retired_cycles;
        let mut lp = self.retired_lp;
        for s in self.live.values() {
            let c = s.engine.cycle_stats();
            cycles.incremental += c.incremental;
            cycles.full += c.full;
            lp.merge(&s.engine.lp_stats());
        }
        let (queued_now, queue_high_water, rejected_overload, rejected_quota, rejected_deadline) =
            match &self.gate {
                Some(g) => (
                    g.queued_now(),
                    g.queue_high_water(),
                    g.rejected_overload(),
                    g.rejected_quota(),
                    g.rejected_deadline(),
                ),
                None => (0, 0, 0, 0, 0),
            };
        ShardStats {
            shard: self.index,
            live_sessions: self.live.len(),
            hibernated_sessions: self.hibernated.len(),
            stored_sessions: self.stored.len(),
            sessions_created: self.sessions_created,
            evictions: self.evictions,
            rehydrations: self.rehydrations,
            queued_now,
            queue_high_water,
            rejected_overload,
            rejected_quota,
            rejected_deadline,
            requests: self.counts,
            cycles,
            lp,
            store: self.store_stats,
            load: self.load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn model() -> maut::DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
        b.alternative("a", vec![Perf::level(2), Perf::level(1)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(2)]);
        b.alternative("c", vec![Perf::level(1), Perf::Missing]);
        b.build().unwrap()
    }

    fn create(shard: &mut Shard, name: &str) {
        let r = shard.handle(Request::CreateSession {
            session: name.into(),
            model: model(),
        });
        assert!(matches!(r, Ok(Response::Created)));
    }

    #[test]
    fn load_accounting_tracks_handled_requests() {
        let mut shard = Shard::new(0, 4, SessionConfig::default());
        create(&mut shard, "s");
        let r = shard.handle(Request::Analyze {
            session: "s".into(),
        });
        assert!(r.is_ok());
        // Failed requests consume engine time too and must be counted.
        let r = shard.handle(Request::Analyze {
            session: "missing".into(),
        });
        assert!(r.is_err());
        let stats = shard.stats();
        assert_eq!(stats.load.served_requests, 3);
        assert!(stats.load.busy_ns > 0, "handling took measurable time");
        assert!(stats.load.mean_service_ns().is_some());
        // Served requests never exceed the per-kind counts: admission
        // rejections and queue-level deadline expiries bypass `handle`.
        assert!(stats.load.served_requests <= stats.requests.total());
    }

    #[test]
    fn create_analyze_close_lifecycle() {
        let mut shard = Shard::new(
            0,
            4,
            SessionConfig {
                mc_trials: 50,
                ..SessionConfig::default()
            },
        );
        create(&mut shard, "s");
        assert!(matches!(
            shard.handle(Request::CreateSession {
                session: "s".into(),
                model: model(),
            }),
            Err(ServeError::DuplicateSession(_))
        ));
        let r = shard.handle(Request::Analyze {
            session: "s".into(),
        });
        assert!(matches!(r, Ok(Response::Analysis(_))));
        let objective = model().tree.find("x").unwrap();
        assert!(matches!(
            shard.handle(Request::SetWeight {
                session: "s".into(),
                objective,
                weight: Interval::new(0.3, 0.7),
            }),
            Ok(Response::Edited)
        ));
        assert!(matches!(
            shard.handle(Request::CloseSession {
                session: "s".into()
            }),
            Ok(Response::Closed)
        ));
        assert!(matches!(
            shard.handle(Request::Analyze {
                session: "s".into()
            }),
            Err(ServeError::UnknownSession(_))
        ));
        let stats = shard.stats();
        assert_eq!(stats.requests.create, 2);
        assert_eq!(stats.requests.analyze, 2);
        assert_eq!(stats.requests.set_weight, 1);
        assert_eq!(stats.requests.close, 1);
        assert_eq!(stats.live_sessions, 0);
        // The closed session's cycle counters were retired, not lost.
        assert_eq!(stats.cycles.full, 1);
    }

    #[test]
    fn lru_eviction_hibernates_and_rehydrates() {
        let mut shard = Shard::new(0, 2, SessionConfig::default());
        create(&mut shard, "a");
        create(&mut shard, "b");
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        let x = model().find_attribute("x").unwrap();
        shard
            .handle(Request::SetPerf {
                session: "a".into(),
                alternative: 0,
                attr: x,
                perf: Perf::level(0),
            })
            .unwrap();
        create(&mut shard, "c");
        let stats = shard.stats();
        assert_eq!(stats.live_sessions, 2);
        assert_eq!(stats.hibernated_sessions, 1);
        assert_eq!(stats.evictions, 1);
        // "b" comes back transparently (and "a", the new LRU, hibernates).
        assert!(matches!(
            shard.handle(Request::DiscardCycle {
                session: "b".into()
            }),
            Ok(Response::Cycle(_))
        ));
        let stats = shard.stats();
        assert_eq!(stats.rehydrations, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.live_sessions, 2);
        assert_eq!(stats.hibernated_sessions, 1);
    }

    #[test]
    fn rejected_edits_do_not_corrupt_the_session() {
        let mut shard = Shard::new(0, 4, SessionConfig::default());
        create(&mut shard, "s");
        let x = model().find_attribute("x").unwrap();
        assert!(matches!(
            shard.handle(Request::SetPerf {
                session: "s".into(),
                alternative: 0,
                attr: x,
                perf: Perf::level(9),
            }),
            Err(ServeError::Model(_))
        ));
        assert!(matches!(
            shard.handle(Request::DiscardCycle {
                session: "s".into()
            }),
            Ok(Response::Cycle(_))
        ));
    }

    #[test]
    fn zero_trial_monte_carlo_is_rejected_not_fatal() {
        // Regression: MonteCarlo::new asserts trials > 0; an unvalidated
        // request would panic the worker and take the whole shard down.
        let mut shard = Shard::new(0, 4, SessionConfig::default());
        create(&mut shard, "s");
        assert!(matches!(
            shard.handle(Request::MonteCarlo {
                session: "s".into(),
                trials: 0,
            }),
            Err(ServeError::InvalidRequest(_))
        ));
        // The session still serves.
        assert!(matches!(
            shard.handle(Request::MonteCarlo {
                session: "s".into(),
                trials: 10,
            }),
            Ok(Response::MonteCarlo(_))
        ));
    }

    #[test]
    fn oversized_monte_carlo_is_rejected_and_the_shard_keeps_serving() {
        // Regression: only a zero count was refused, so a frame asking
        // for 10^15 trials pinned the worker in the simulation and
        // stalled every session on the shard.
        let mut shard = Shard::new(0, 4, SessionConfig::default());
        create(&mut shard, "s");
        for trials in [MAX_MC_TRIALS + 1, 1_000_000_000_000_000] {
            match shard.handle(Request::MonteCarlo {
                session: "s".into(),
                trials,
            }) {
                Err(ServeError::InvalidRequest(e)) => {
                    assert!(e.contains(&MAX_MC_TRIALS.to_string()), "{e}");
                }
                other => panic!("{trials} trials: {other:?}"),
            }
        }
        // The shard serves the next request, on the same session.
        assert!(matches!(
            shard.handle(Request::Analyze {
                session: "s".into()
            }),
            Ok(Response::Analysis(_))
        ));
    }

    #[test]
    fn snapshot_probe_is_lru_neutral() {
        // Regression: Snapshot used to stamp `last_used` on live
        // sessions, so a periodic snapshot poller would pin the polled
        // session resident and silently shift eviction onto the wrong
        // victim. A read-only probe must not change the next victim.
        let mut shard = Shard::new(0, 2, SessionConfig::default());
        create(&mut shard, "a");
        create(&mut shard, "b");
        // "a" is LRU. Poll it; it must STAY the victim.
        assert!(matches!(
            shard.handle(Request::Snapshot {
                session: "a".into()
            }),
            Ok(Response::Snapshot(_))
        ));
        create(&mut shard, "c");
        assert!(
            shard.hibernated.contains_key("a"),
            "snapshot probe changed the eviction victim"
        );
        assert!(shard.live.contains_key("b") && shard.live.contains_key("c"));
        // And the probed-then-evicted session still serves.
        assert!(matches!(
            shard.handle(Request::Analyze {
                session: "a".into()
            }),
            Ok(Response::Analysis(_))
        ));
    }

    #[test]
    fn store_bounds_resident_snapshots_under_churn() {
        // Regression: without a store, `hibernated` grows without bound
        // under create-then-idle churn. With one, evicted snapshots
        // spill to the store and leave shard memory.
        let store = std::sync::Arc::new(crate::store::MemoryStore::new());
        let mut shard =
            Shard::new(0, 4, SessionConfig::default()).with_store(store.clone(), Vec::new());
        for i in 0..50 {
            create(&mut shard, &format!("s{i}"));
        }
        let stats = shard.stats();
        assert_eq!(stats.live_sessions, 4);
        assert_eq!(
            stats.hibernated_sessions, 0,
            "snapshots left in shard memory"
        );
        assert_eq!(stats.stored_sessions, 46);
        assert_eq!(stats.evictions, 46);
        assert_eq!(store.sessions().unwrap().len(), 50);
    }

    #[test]
    fn store_eviction_and_rehydration_round_trip() {
        let store = std::sync::Arc::new(crate::store::MemoryStore::new());
        let mut shard = Shard::new(0, 1, SessionConfig::default()).with_store(store, Vec::new());
        create(&mut shard, "a");
        let x = model().find_attribute("x").unwrap();
        shard
            .handle(Request::SetPerf {
                session: "a".into(),
                alternative: 0,
                attr: x,
                perf: Perf::level(0),
            })
            .unwrap();
        assert_eq!(shard.stats().store.journal_appends, 1);

        create(&mut shard, "b"); // evicts "a" to the store, compacting
        let stats = shard.stats();
        assert_eq!(stats.stored_sessions, 1);
        assert_eq!(stats.hibernated_sessions, 0);

        // Probing the stored session is possible without rehydration...
        let probed = match shard.handle(Request::Snapshot {
            session: "a".into(),
        }) {
            Ok(Response::Snapshot(s)) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        assert_eq!(shard.stats().rehydrations, 0);

        // ...and touching it rehydrates from the store with the edit.
        assert!(matches!(
            shard.handle(Request::Analyze {
                session: "a".into()
            }),
            Ok(Response::Analysis(_))
        ));
        let live_snap = match shard.handle(Request::Snapshot {
            session: "a".into(),
        }) {
            Ok(Response::Snapshot(s)) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        assert_eq!(*probed, *live_snap);
        let stats = shard.stats();
        assert_eq!(stats.rehydrations, 1);
        assert_eq!(stats.store.sessions_recovered, 1);
        assert_eq!(stats.store.store_errors, 0);
    }

    #[test]
    fn drain_flushes_live_sessions_and_keeps_them_live() {
        let store = std::sync::Arc::new(crate::store::MemoryStore::new());
        let mut shard =
            Shard::new(0, 4, SessionConfig::default()).with_store(store.clone(), Vec::new());
        create(&mut shard, "a");
        create(&mut shard, "b");
        let x = model().find_attribute("x").unwrap();
        shard
            .handle(Request::SetPerf {
                session: "a".into(),
                alternative: 1,
                attr: x,
                perf: Perf::level(2),
            })
            .unwrap();
        assert_eq!(shard.drain().unwrap(), 2);
        assert_eq!(shard.stats().live_sessions, 2);
        // The drained snapshot is compacted: the journal is empty and the
        // stored model carries the edit.
        let stored = store.load("a").unwrap().unwrap();
        assert!(stored.journal.is_empty());
        let direct = shard.live.get("a").unwrap().snapshot("a").unwrap();
        assert_eq!(stored.snapshot, direct);
        // Without a store, drain is a no-op.
        let mut plain = Shard::new(0, 4, SessionConfig::default());
        create(&mut plain, "x");
        assert_eq!(plain.drain().unwrap(), 0);
    }

    #[test]
    fn snapshot_answers_from_live_and_hibernated_state() {
        let mut shard = Shard::new(0, 1, SessionConfig::default());
        create(&mut shard, "a");
        let live_snap = match shard.handle(Request::Snapshot {
            session: "a".into(),
        }) {
            Ok(Response::Snapshot(s)) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        create(&mut shard, "b"); // evicts "a"
        assert_eq!(shard.stats().hibernated_sessions, 1);
        let hib_snap = match shard.handle(Request::Snapshot {
            session: "a".into(),
        }) {
            Ok(Response::Snapshot(s)) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        assert_eq!(*live_snap, *hib_snap);
        // Reading a hibernated session's snapshot does not rehydrate it.
        assert_eq!(shard.stats().rehydrations, 0);
    }
}
