//! The typed request/response protocol between clients and shard workers.
//!
//! Every request names the session it addresses; the
//! [`SessionManager`](crate::SessionManager) hashes that name to pick the
//! owning shard, so requests for the same session are always serialized
//! through the same worker thread (no engine is ever shared across
//! threads). Edit requests ([`Request::SetPerf`], [`Request::SetWeight`])
//! only mark state dirty; the next [`Request::Analyze`] /
//! [`Request::DiscardCycle`] routes through the engine's incremental
//! entry points, so a typical edit→analyze round trip re-optimizes a
//! handful of pairs instead of recomputing the whole cycle.
//!
//! [`Response::Analysis`] and [`Response::Cycle`] name each verdict and
//! intensity rank by its `alternative` index into the session's model;
//! the `name` key of a reply recorded with one is skipped on decode.

use gmaa::{Analysis, DiscardCycle, WorkspaceError};
use maut::{AttributeId, DecisionModel, Interval, ModelError, ObjectiveId, Perf};
use maut_sense::{LpError, MonteCarloResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most trials a [`Request::MonteCarlo`] may ask for: 100× the paper's
/// 10 000. A shard worker runs a simulation to the end before it takes
/// its next request, so an unbounded count would stall every session on
/// the shard.
pub const MAX_MC_TRIALS: usize = 1_000_000;

/// Per-session analysis settings, applied when the session is created and
/// preserved across hibernation (they travel inside the
/// [`SessionSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Monte Carlo trials used by [`Request::Analyze`]'s simulation stage.
    pub mc_trials: usize,
    /// Seed of the Monte Carlo stage (results are seed-deterministic, so
    /// a rehydrated session reproduces its pre-eviction simulations).
    pub mc_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            mc_trials: 10_000,
            mc_seed: 20120402,
        }
    }
}

/// A hibernated session: everything needed to rebuild its engine with
/// identical analysis results — the mutated model (edits are applied to
/// the model in place, so no separate edit log is needed) plus the
/// session's analysis settings. Produced by LRU eviction and by
/// [`Request::Snapshot`]; consumed transparently on the session's next
/// request or explicitly via restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session's name.
    pub session: String,
    /// The model state, in the same JSON encoding as
    /// [`gmaa::workspace`] files ([`gmaa::model_to_json`]).
    pub model_json: String,
    /// The session's analysis settings.
    pub config: SessionConfig,
}

/// A request addressed to one session.
///
/// Serializable: the TCP front end ([`crate::net`]) ships requests as
/// length-prefixed JSON frames with exactly this shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session owning a validated copy of `model`. Fails with
    /// [`ServeError::DuplicateSession`] if the name is taken (live or
    /// hibernated) on its shard.
    CreateSession {
        /// Session name (also the routing key).
        session: String,
        /// The decision model the session will analyze.
        model: DecisionModel,
    },
    /// What-if edit of one performance cell (routes to
    /// `AnalysisEngine::set_perf`; the next analysis re-optimizes only the
    /// touched pairs).
    SetPerf {
        /// Session name.
        session: String,
        /// Alternative (row) index.
        alternative: usize,
        /// Attribute (column) to change.
        attr: AttributeId,
        /// New performance value.
        perf: Perf,
    },
    /// What-if edit of one objective's local weight interval (routes to
    /// `AnalysisEngine::set_weight`; invalidates every pair, so the next
    /// analysis is a full recompute).
    SetWeight {
        /// Session name.
        session: String,
        /// Objective whose local weight changes.
        objective: ObjectiveId,
        /// New weight interval.
        weight: Interval,
    },
    /// Run the complete analysis bundle (evaluation, stability, discard
    /// cycle, Monte Carlo) through `AnalysisEngine::analyze_incremental`.
    Analyze {
        /// Session name.
        session: String,
    },
    /// Run just the Section V discard pipeline through
    /// `AnalysisEngine::discard_cycle_incremental`.
    DiscardCycle {
        /// Session name.
        session: String,
    },
    /// Run a Monte Carlo simulation with an explicit trial count (the
    /// session's seed applies; the session's own `mc_trials` is
    /// untouched).
    MonteCarlo {
        /// Session name.
        session: String,
        /// Number of weight-sampling trials: at least one and at most
        /// [`MAX_MC_TRIALS`].
        trials: usize,
    },
    /// Capture the session's current state as a [`SessionSnapshot`]
    /// without closing it.
    Snapshot {
        /// Session name.
        session: String,
    },
    /// Close the session and drop its state (live or hibernated). Its
    /// accumulated counters stay in the shard's statistics.
    CloseSession {
        /// Session name.
        session: String,
    },
}

/// Discriminant of a [`Request`], used for per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// [`Request::CreateSession`]
    Create,
    /// [`Request::SetPerf`]
    SetPerf,
    /// [`Request::SetWeight`]
    SetWeight,
    /// [`Request::Analyze`]
    Analyze,
    /// [`Request::DiscardCycle`]
    DiscardCycle,
    /// [`Request::MonteCarlo`]
    MonteCarlo,
    /// [`Request::Snapshot`]
    Snapshot,
    /// [`Request::CloseSession`]
    Close,
}

impl Request {
    /// The session this request addresses — the shard routing key.
    pub fn session(&self) -> &str {
        match self {
            Request::CreateSession { session, .. }
            | Request::SetPerf { session, .. }
            | Request::SetWeight { session, .. }
            | Request::Analyze { session }
            | Request::DiscardCycle { session }
            | Request::MonteCarlo { session, .. }
            | Request::Snapshot { session }
            | Request::CloseSession { session } => session,
        }
    }

    /// The request's counter discriminant.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::CreateSession { .. } => RequestKind::Create,
            Request::SetPerf { .. } => RequestKind::SetPerf,
            Request::SetWeight { .. } => RequestKind::SetWeight,
            Request::Analyze { .. } => RequestKind::Analyze,
            Request::DiscardCycle { .. } => RequestKind::DiscardCycle,
            Request::MonteCarlo { .. } => RequestKind::MonteCarlo,
            Request::Snapshot { .. } => RequestKind::Snapshot,
            Request::CloseSession { .. } => RequestKind::Close,
        }
    }
}

/// A successful reply (the [`Request`] variant determines which arm).
#[derive(Debug, Serialize, Deserialize)]
pub enum Response {
    /// The session was created.
    Created,
    /// The edit was applied.
    Edited,
    /// The full analysis bundle.
    Analysis(Box<Analysis>),
    /// The discard-cycle result.
    Cycle(Box<DiscardCycle>),
    /// The Monte Carlo result.
    MonteCarlo(Box<MonteCarloResult>),
    /// The captured snapshot.
    Snapshot(Box<SessionSnapshot>),
    /// The session was closed.
    Closed,
}

/// Errors a request can fail with.
#[derive(Debug, Serialize, Deserialize)]
pub enum ServeError {
    /// No live or hibernated session of that name on its shard.
    UnknownSession(String),
    /// [`Request::CreateSession`] with a name that is already taken.
    DuplicateSession(String),
    /// The model or an edit was rejected (invalid cell, infeasible
    /// weights, failed validation on create/rehydrate).
    Model(ModelError),
    /// A request parameter is invalid (e.g. a zero-trial Monte Carlo).
    /// Session-local: the session is untouched.
    InvalidRequest(String),
    /// LP solver breakdown inside an analysis — never a legitimate
    /// analysis outcome, see [`maut_sense::potential`].
    Lp(LpError),
    /// A snapshot could not be encoded or decoded, or a loaded snapshot
    /// failed its identity check.
    Snapshot(String),
    /// The durable session store failed (I/O, encoding, or corrupt
    /// state). The in-memory session, if any, is still intact.
    Store(crate::store::StoreError),
    /// The owning shard's worker is gone (the manager was shut down, or
    /// the worker panicked).
    ShardDown,
    /// The shard's admission queue is full. The request was shed at
    /// submission time without queueing; retry after backing off.
    Overloaded {
        /// Index of the shard whose queue is full.
        shard: usize,
        /// Queue depth observed at rejection (equals the configured
        /// capacity).
        depth: usize,
    },
    /// The tenant's token bucket is empty — the session has exceeded its
    /// sustained request rate (see [`TenantQuota`](crate::TenantQuota)).
    QuotaExceeded {
        /// The session (tenant key) whose quota ran out.
        session: String,
    },
    /// The request waited in its shard's queue past its deadline and was
    /// answered without touching the engine.
    DeadlineExceeded,
    /// The manager is shutting down (dropped or drained): admission is
    /// closed, and requests still queued at shutdown are answered with
    /// this instead of being silently dropped.
    Shutdown,
    /// The transport-level request could not be understood: malformed
    /// frame, oversized payload, or invalid JSON. Connection-local — the
    /// server keeps serving.
    Protocol(String),
    /// A shard-side invariant broke. The request failed but the shard
    /// keeps serving — this is the typed fallback the serving path uses
    /// instead of panicking (see `docs/INVARIANTS.md`, rule
    /// `no-panic-in-serving`).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            ServeError::DuplicateSession(s) => write!(f, "session {s:?} already exists"),
            ServeError::Model(e) => write!(f, "model rejected: {e}"),
            ServeError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            ServeError::Lp(e) => write!(f, "LP solver breakdown: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot failed: {e}"),
            ServeError::Store(e) => write!(f, "session store failed: {e}"),
            ServeError::ShardDown => write!(f, "shard worker is gone"),
            ServeError::Overloaded { shard, depth } => {
                write!(f, "shard {shard} overloaded (queue depth {depth})")
            }
            ServeError::QuotaExceeded { session } => {
                write!(f, "session {session:?} exceeded its request quota")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded while queued"),
            ServeError::Shutdown => write!(f, "manager is shutting down; admission closed"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Internal(m) => write!(f, "internal shard invariant broke: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> ServeError {
        ServeError::Model(e)
    }
}

impl From<LpError> for ServeError {
    fn from(e: LpError) -> ServeError {
        ServeError::Lp(e)
    }
}

impl From<crate::store::StoreError> for ServeError {
    fn from(e: crate::store::StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

impl From<WorkspaceError> for ServeError {
    fn from(e: WorkspaceError) -> ServeError {
        match e {
            WorkspaceError::Invalid(m) => ServeError::Model(m),
            other => ServeError::Snapshot(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_names_its_session_and_kind() {
        let reqs = [
            (
                Request::Analyze {
                    session: "a".into(),
                },
                RequestKind::Analyze,
            ),
            (
                Request::DiscardCycle {
                    session: "a".into(),
                },
                RequestKind::DiscardCycle,
            ),
            (
                Request::MonteCarlo {
                    session: "a".into(),
                    trials: 10,
                },
                RequestKind::MonteCarlo,
            ),
            (
                Request::Snapshot {
                    session: "a".into(),
                },
                RequestKind::Snapshot,
            ),
            (
                Request::CloseSession {
                    session: "a".into(),
                },
                RequestKind::Close,
            ),
        ];
        for (r, kind) in reqs {
            assert_eq!(r.session(), "a");
            assert_eq!(r.kind(), kind);
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ServeError::UnknownSession("x".into())
            .to_string()
            .contains("x"));
        assert!(ServeError::ShardDown.to_string().contains("shard"));
    }
}
