//! # gmaa-serve
//!
//! A multi-tenant, thread-sharded session service over
//! [`gmaa::AnalysisEngine`].
//!
//! The GMAA workflow is session-oriented: an analyst loads a decision
//! model, then iterates what-if edits through the dominance →
//! potential-optimality → intensity cycle. The engine layer makes that
//! loop cheap *per session* (pair-level invalidation, per-alternative
//! warm LP bases); this crate serves **many such sessions over many
//! models at once**:
//!
//! * **Sharding.** A [`SessionManager`] spawns N shard worker threads
//!   (`std::thread` + `mpsc` channels — the workspace is offline, so no
//!   async runtime). `fnv1a(session) % shards` picks the owner, and each
//!   worker exclusively owns its sessions' engines, so the serving path
//!   has no locks and no shared mutable state.
//! * **Typed protocol.** Clients speak [`Request`] / [`Response`]:
//!   `CreateSession`, the what-if edits `SetPerf` / `SetWeight`,
//!   `Analyze` / `DiscardCycle` (routed through
//!   `analyze_incremental` / `discard_cycle_incremental`, so post-edit
//!   cycles exploit the engine's caches), `MonteCarlo { trials }`,
//!   `Snapshot`, and `CloseSession`. [`SessionManager::request`] is the
//!   synchronous call; [`SessionManager::submit`] pipelines.
//! * **LRU hibernation.** Each shard keeps a configurable number of
//!   sessions resident ([`ServeConfig::max_sessions_per_shard`]); beyond
//!   the cap the least-recently-used session is serialized to a
//!   [`SessionSnapshot`] (model JSON + settings — edits are applied to
//!   the model in place, so the model alone is the complete pending
//!   state) and transparently rehydrated on its next request, with
//!   identical analysis results.
//! * **Durability.** An optional [`SessionStore`]
//!   ([`MemoryStore`] / [`FileStore`]) makes sessions survive the
//!   process: applied edits append to a per-session write-ahead journal,
//!   eviction writes a compacted snapshot (which then leaves shard
//!   memory), [`SessionManager::with_store`] re-enumerates the store on
//!   startup and rehydrates each tenant journal-over-snapshot with
//!   bit-identical analysis results, and [`SessionManager::drain`]
//!   flushes everything for a graceful shutdown.
//! * **Counters.** Per-shard and aggregate [`ServeStats`]: sessions,
//!   requests by kind, incremental-vs-full cycle counts (the
//!   [`ServeStats::incremental_hit_rate`] headline), LP warm/cold solve
//!   and pivot totals, evictions and rehydrations, store/journal
//!   activity ([`StoreStats`]).
//!
//! See [`SessionManager`] for a runnable quickstart, and
//! `examples/serving.rs` / `examples/durable_serving.rs` at the
//! workspace root for multi-tenant and crash-recovery demos.

#![warn(missing_docs)]

mod admission;
mod manager;
pub mod net;
mod protocol;
mod session;
mod shard;
mod stats;
mod store;

pub use admission::TenantQuota;
pub use manager::{Pending, ServeConfig, SessionManager};
pub use protocol::{
    Request, RequestKind, Response, ServeError, SessionConfig, SessionSnapshot, MAX_MC_TRIALS,
};
pub use stats::{LoadStats, RequestCounts, ServeStats, ShardStats, StoreStats};
pub use store::{
    FaultInjectingStore, FileStore, FsyncPolicy, JournalRecord, MemoryStore, SessionStore,
    StoreError, StoreOp, StoredSession,
};
