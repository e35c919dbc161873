//! The [`SessionManager`]: shard spawning, deterministic routing, and the
//! synchronous / pipelined client API.

use crate::admission::{ShardGate, TenantQuota, TokenBuckets};
use crate::protocol::{Request, Response, ServeError, SessionConfig};
use crate::shard::{Command, Shard};
use crate::stats::{ServeStats, ShardStats};
use crate::store::SessionStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A store handle plus the recovered session names, pre-partitioned by
/// owning shard index (FNV routing), handed to each spawned worker.
type StoreHandoff = (Arc<dyn SessionStore>, Vec<Vec<String>>);

/// Service-level settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads / shards. Each shard exclusively owns the sessions
    /// that hash to it.
    pub shards: usize,
    /// Live sessions a shard keeps resident before hibernating its
    /// least-recently-used one. Total resident capacity is
    /// `shards × max_sessions_per_shard`.
    pub max_sessions_per_shard: usize,
    /// Admission cap per shard: at most this many admitted requests may
    /// sit in a shard's queue at once; past it, `submit` sheds the
    /// request with [`ServeError::Overloaded`] instead of queueing
    /// (zero is treated as 1 — a zero-capacity service could never
    /// admit anything).
    pub queue_capacity: usize,
    /// Per-tenant token-bucket quota, keyed by session name. `None`
    /// (the default) disables quota checks.
    pub quota: Option<TenantQuota>,
    /// Deadline applied to every `submit`/`request` in milliseconds,
    /// measured from admission: a request still queued past it is
    /// answered [`ServeError::DeadlineExceeded`] without touching the
    /// engine. `None` (the default) disables deadlines;
    /// [`SessionManager::submit_with_deadline`] overrides per request.
    pub default_deadline_ms: Option<u64>,
    /// Settings applied to every created session.
    pub session: SessionConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_sessions_per_shard: 64,
            queue_capacity: 1024,
            quota: None,
            default_deadline_ms: None,
            session: SessionConfig::default(),
        }
    }
}

/// FNV-1a, the stable hash behind shard routing: the same session name
/// maps to the same shard in every process, on every platform, forever —
/// a prerequisite for routing decisions that outlive one manager (e.g.
/// snapshot stores partitioned by shard).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A reply that has been routed but not yet waited on — the pipelining
/// handle: submit a batch of requests to several shards, then collect.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Result<Response, ServeError>>,
}

impl Pending {
    /// Block until the owning shard worker replies.
    ///
    /// A request still queued when the manager shuts down resolves to
    /// [`ServeError::Shutdown`] (the worker answers it on the way out);
    /// [`ServeError::ShardDown`] is reserved for a worker that actually
    /// died with the reply unsent (a panic mid-request).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShardDown))
    }
}

/// The multi-tenant session service over [`gmaa::AnalysisEngine`].
///
/// `hash(session) → shard` picks one of N worker threads; that worker
/// exclusively owns every session routed to it (no engine is ever shared
/// across threads, so there is no locking anywhere in the serving path).
/// Each shard keeps up to a configured number of sessions resident and
/// transparently hibernates/rehydrates the rest through serde snapshots.
///
/// ```
/// use gmaa_serve::{Request, Response, ServeConfig, SessionConfig, SessionManager};
/// use maut::prelude::*;
///
/// // A tiny two-attribute model for one tenant.
/// let mut b = DecisionModelBuilder::new("laptops");
/// let price = b.continuous_attribute("price", "Price", 500.0, 2000.0, Direction::Decreasing);
/// let battery = b.discrete_attribute("battery", "Battery", &["poor", "ok", "great"]);
/// b.attach_attributes_to_root(&[
///     (price, Interval::new(0.4, 0.6)),
///     (battery, Interval::new(0.4, 0.6)),
/// ]);
/// b.alternative("A", vec![Perf::value(900.0), Perf::level(2)]);
/// b.alternative("B", vec![Perf::value(1500.0), Perf::level(1)]);
/// b.alternative("C", vec![Perf::value(1100.0), Perf::Missing]);
/// let model = b.build().unwrap();
/// let price = model.find_attribute("price").unwrap();
///
/// let manager = SessionManager::new(ServeConfig {
///     shards: 2,
///     session: SessionConfig { mc_trials: 200, ..SessionConfig::default() },
///     ..ServeConfig::default()
/// });
/// manager
///     .request(Request::CreateSession { session: "alice".into(), model })
///     .unwrap();
///
/// // What-if loop: edit one cell, re-run the discard cycle. After the
/// // first (full) cycle, post-edit cycles are served incrementally.
/// manager
///     .request(Request::DiscardCycle { session: "alice".into() })
///     .unwrap();
/// manager
///     .request(Request::SetPerf {
///         session: "alice".into(),
///         alternative: 1,
///         attr: price,
///         perf: Perf::value(700.0),
///     })
///     .unwrap();
/// match manager.request(Request::DiscardCycle { session: "alice".into() }).unwrap() {
///     Response::Cycle(cycle) => assert!(!cycle.non_dominated.is_empty()),
///     other => panic!("expected a cycle, got {other:?}"),
/// }
/// let stats = manager.stats();
/// assert_eq!(stats.aggregate().cycles.incremental, 1);
/// assert_eq!(stats.incremental_hit_rate(), Some(0.5));
/// ```
#[derive(Debug)]
pub struct SessionManager {
    senders: Vec<Sender<Command>>,
    workers: Vec<JoinHandle<()>>,
    /// One admission gate per shard, shared with that shard's worker
    /// (manager admits, worker releases at dequeue).
    gates: Vec<Arc<ShardGate>>,
    /// Per-tenant token buckets ([`ServeConfig::quota`]).
    buckets: TokenBuckets,
    quota: Option<TenantQuota>,
    default_deadline: Option<Duration>,
    /// Set on shutdown/drop *before* workers stop: the submit path
    /// checks it first, and workers answer still-queued requests with
    /// [`ServeError::Shutdown`] once it is up.
    stopping: Arc<AtomicBool>,
}

impl SessionManager {
    /// Spawn the shard workers. `config.shards == 0` is treated as 1.
    pub fn new(config: ServeConfig) -> SessionManager {
        SessionManager::spawn(config, None)
    }

    /// Spawn the shard workers over a durable [`SessionStore`],
    /// recovering every session the store holds: the store is enumerated
    /// once, each session name is routed to its shard by the same stable
    /// FNV-1a hash used for requests, and the shard rehydrates it
    /// journal-over-snapshot on its next request — with analysis results
    /// bit-identical to a process that never crashed. Fails only if the
    /// recovery enumeration itself fails.
    ///
    /// ```
    /// use gmaa_serve::{MemoryStore, Request, Response, ServeConfig, SessionManager};
    /// use std::sync::Arc;
    ///
    /// # let mut b = maut::prelude::DecisionModelBuilder::new("m");
    /// # let x = b.discrete_attribute("x", "X", &["l", "h"]);
    /// # b.attach_attributes_to_root(&[(x, maut::Interval::new(0.9, 1.0))]);
    /// # b.alternative("a", vec![maut::Perf::level(1)]);
    /// # let model = b.build().unwrap();
    /// let store = Arc::new(MemoryStore::new());
    /// {
    ///     let m = SessionManager::with_store(ServeConfig::default(), store.clone()).unwrap();
    ///     m.request(Request::CreateSession { session: "alice".into(), model }).unwrap();
    ///     // ... edits are journaled as they happen ...
    /// } // manager dropped: simulate the process going away
    ///
    /// // A new manager over the same store finds every tenant again.
    /// let recovered = SessionManager::with_store(ServeConfig::default(), store).unwrap();
    /// assert!(matches!(
    ///     recovered.request(Request::Analyze { session: "alice".into() }),
    ///     Ok(Response::Analysis(_))
    /// ));
    /// ```
    pub fn with_store(
        config: ServeConfig,
        store: Arc<dyn SessionStore>,
    ) -> Result<SessionManager, ServeError> {
        let shards = config.shards.max(1);
        let mut recovered: Vec<Vec<String>> = vec![Vec::new(); shards];
        for name in store.sessions()? {
            let shard = (fnv1a(name.as_bytes()) % shards as u64) as usize;
            if let Some(bucket) = recovered.get_mut(shard) {
                bucket.push(name);
            }
        }
        Ok(SessionManager::spawn(config, Some((store, recovered))))
    }

    fn spawn(config: ServeConfig, store: Option<StoreHandoff>) -> SessionManager {
        let shards = config.shards.max(1);
        let stopping = Arc::new(AtomicBool::new(false));
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut gates = Vec::with_capacity(shards);
        let mut store = store;
        for index in 0..shards {
            let (tx, rx) = channel();
            let gate = Arc::new(ShardGate::new(config.queue_capacity));
            let mut shard = Shard::new(index, config.max_sessions_per_shard, config.session)
                .with_admission(Arc::clone(&gate), Arc::clone(&stopping));
            if let Some((store, recovered)) = &mut store {
                let names = recovered
                    .get_mut(index)
                    .map(std::mem::take)
                    .unwrap_or_default();
                shard = shard.with_store(Arc::clone(store), names);
            }
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gmaa-serve-shard-{index}"))
                    .spawn(move || shard.run(rx))
                    // lint:allow(no-panic-in-serving) -- startup-time spawn before any tenant traffic; a process that cannot create threads cannot serve at all
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
            gates.push(gate);
        }
        SessionManager {
            senders,
            workers,
            gates,
            buckets: TokenBuckets::default(),
            quota: config.quota,
            default_deadline: config.default_deadline_ms.map(Duration::from_millis),
            stopping,
        }
    }

    /// Flush every live session on every shard to the store (graceful
    /// shutdown — the durable complement of just dropping the manager).
    /// Sessions stay live and serving. Returns the total number of
    /// sessions flushed; every shard is drained even if one fails, and
    /// the first failure is reported. Without a store this is a no-op
    /// returning `Ok(0)`.
    pub fn drain(&self) -> Result<u64, ServeError> {
        let mut pending = Vec::with_capacity(self.senders.len());
        for sender in &self.senders {
            let (tx, rx) = channel();
            let sent = sender.send(Command::Drain { reply: tx }).is_ok();
            pending.push((sent, rx));
        }
        let mut flushed = 0u64;
        let mut first_err: Option<ServeError> = None;
        for (sent, rx) in pending {
            let outcome = if sent {
                rx.recv().unwrap_or(Err(ServeError::ShardDown))
            } else {
                Err(ServeError::ShardDown)
            };
            match outcome {
                Ok(n) => flushed += n,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(flushed),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard that owns `session`: `fnv1a(session) % shards`.
    /// Deterministic and stable across processes and platforms.
    pub fn shard_of(&self, session: &str) -> usize {
        (fnv1a(session.as_bytes()) % self.senders.len() as u64) as usize
    }

    /// Route `request` to its session's shard without waiting for the
    /// reply — the building block for pipelined clients that keep many
    /// shards busy at once. The returned [`Pending`] resolves to the
    /// shard's reply.
    ///
    /// Admission control runs here, on the caller's thread: a shutting-
    /// down manager, an empty tenant token bucket, or a full shard queue
    /// resolve the `Pending` immediately with [`ServeError::Shutdown`],
    /// [`ServeError::QuotaExceeded`], or [`ServeError::Overloaded`] —
    /// nothing is ever queued past [`ServeConfig::queue_capacity`].
    pub fn submit(&self, request: Request) -> Pending {
        self.submit_with_deadline(request, self.default_deadline)
    }

    /// [`submit`](SessionManager::submit) with an explicit per-request
    /// deadline (overriding [`ServeConfig::default_deadline_ms`];
    /// `None` disables it). The deadline is measured from admission: if
    /// the request is still waiting in its shard's queue when it
    /// expires, the worker answers [`ServeError::DeadlineExceeded`] at
    /// dequeue without touching the engine. A request already being
    /// executed is never aborted.
    pub fn submit_with_deadline(&self, request: Request, deadline: Option<Duration>) -> Pending {
        let (tx, rx) = channel();
        if let Err(e) = self.admit(request, deadline, &tx) {
            // The rejection resolves the Pending; sending to our own
            // receiver cannot fail.
            let _ = tx.send(Err(e));
        }
        Pending { rx }
    }

    /// The admission pipeline: shutdown check → tenant quota → queue
    /// capacity → enqueue. Any `Err` means the request was rejected
    /// without being queued.
    fn admit(
        &self,
        request: Request,
        deadline: Option<Duration>,
        reply: &Sender<Result<Response, ServeError>>,
    ) -> Result<(), ServeError> {
        if self.stopping.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let shard = self.shard_of(request.session());
        // `shard_of` is always in range, but a typed degradation beats an
        // indexing panic if that ever stops holding.
        let (Some(sender), Some(gate)) = (self.senders.get(shard), self.gates.get(shard)) else {
            return Err(ServeError::ShardDown);
        };
        if let Some(quota) = self.quota {
            if !self.buckets.take(request.session(), quota, Instant::now()) {
                gate.count_quota_rejection();
                return Err(ServeError::QuotaExceeded {
                    session: request.session().to_string(),
                });
            }
        }
        if let Err(depth) = gate.try_admit() {
            return Err(ServeError::Overloaded { shard, depth });
        }
        let command = Command::Api {
            request: Box::new(request),
            reply: reply.clone(),
            admitted: Instant::now(),
            deadline,
        };
        if sender.send(command).is_err() {
            // The worker is gone; give the reserved slot back.
            gate.release();
            return Err(ServeError::ShardDown);
        }
        Ok(())
    }

    /// Route `request` to its session's shard and wait for the reply.
    pub fn request(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request).wait()
    }

    /// Graceful shutdown: close admission, then [`drain`](SessionManager::drain).
    ///
    /// After this returns, every later `submit` resolves to
    /// [`ServeError::Shutdown`], requests that were still queued are
    /// answered the same way by their workers, and every session that
    /// was live has been flushed to the store (journal compacted into a
    /// snapshot, store synced). Returns the number of sessions flushed.
    /// The workers stay up to answer in-flight replies until the
    /// manager is dropped.
    pub fn shutdown(&self) -> Result<u64, ServeError> {
        self.stopping.store(true, Ordering::Release);
        self.drain()
    }

    /// Whether [`shutdown`](SessionManager::shutdown) has been called
    /// (admission permanently closed).
    pub fn is_shutting_down(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Collect every shard's counters (in shard order) plus the
    /// aggregation helpers. Each shard reports between requests, so the
    /// counters are always mutually consistent within a shard.
    pub fn stats(&self) -> ServeStats {
        let pending: Vec<_> = self
            .senders
            .iter()
            .map(|sender| {
                let (tx, rx) = channel();
                sender.send(Command::Stats { reply: tx }).ok().map(|()| rx)
            })
            .collect();
        let shards = pending
            .into_iter()
            .zip(self.admission_stats().shards)
            // A dead worker still has observable admission history:
            // fall back to the manager's copy of its gate counters.
            .map(|(rx, fallback)| rx.and_then(|rx| rx.recv().ok()).unwrap_or(fallback))
            .collect();
        ServeStats { shards }
    }

    /// Every shard's admission counters (queue depth, its high water and
    /// the rejections), read from the manager's gates without asking the
    /// workers: unlike [`stats`](SessionManager::stats) this answers while
    /// a worker is busy or blocked. Every other field is zero.
    pub fn admission_stats(&self) -> ServeStats {
        let shards = (0..self.senders.len())
            .map(|index| {
                let mut stats = ShardStats {
                    shard: index,
                    ..ShardStats::default()
                };
                if let Some(gate) = self.gates.get(index) {
                    stats.queued_now = gate.queued_now();
                    stats.queue_high_water = gate.queue_high_water();
                    stats.rejected_overload = gate.rejected_overload();
                    stats.rejected_quota = gate.rejected_quota();
                    stats.rejected_deadline = gate.rejected_deadline();
                }
                stats
            })
            .collect();
        ServeStats { shards }
    }
}

impl Drop for SessionManager {
    /// Disconnect the channels and join every worker, so no shard thread
    /// outlives the manager. The stopping flag goes up *first*, so any
    /// request still queued when the channels close is answered
    /// [`ServeError::Shutdown`] by its worker on the way out — an
    /// outstanding [`Pending`] resolves to that typed error, never to a
    /// bare recv failure.
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_stable() {
        let a = SessionManager::new(ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        });
        let b = SessionManager::new(ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        });
        for name in ["alice", "bob", "carol", "session-42", ""] {
            assert_eq!(a.shard_of(name), b.shard_of(name));
            assert_eq!(a.shard_of(name), (fnv1a(name.as_bytes()) % 4) as usize);
            assert!(a.shard_of(name) < 4);
        }
        // FNV-1a reference vector: fnv1a("a") is the documented constant.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn unknown_session_round_trips_an_error() {
        let m = SessionManager::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        });
        assert!(matches!(
            m.request(Request::Analyze {
                session: "ghost".into()
            }),
            Err(ServeError::UnknownSession(_))
        ));
        let stats = m.stats();
        assert_eq!(stats.aggregate().requests.analyze, 1);
    }

    #[test]
    fn stats_cover_every_shard_in_order() {
        let m = SessionManager::new(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        });
        let stats = m.stats();
        assert_eq!(stats.shards.len(), 3);
        for (i, s) in stats.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
        }
    }
}
