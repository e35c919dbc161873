//! The pluggable durable session store: one trait, swappable backends.
//!
//! `gmaa-serve` hibernates idle sessions to [`SessionSnapshot`]s; without
//! a store everything dies with the process. A [`SessionStore`] makes a
//! decision session survive across sittings the way the paper's
//! interactive what-if workflow assumes:
//!
//! * **Write-ahead journal.** Every successful `SetPerf` / `SetWeight`
//!   appends one tiny [`JournalRecord`] to the session's journal *after*
//!   the edit is applied in memory. Edits are absolute cell writes (not
//!   deltas), so replay is idempotent and the journal IS the pending
//!   state between snapshots.
//! * **Snapshot + compact.** LRU eviction (and [`drain`]) writes a
//!   compacted [`SessionSnapshot`] — the mutated model carries every edit
//!   — and truncates the journal.
//! * **Replay on recovery.** [`SessionManager::with_store`] enumerates
//!   the store, partitions session names by the stable FNV-1a routing,
//!   and each shard rehydrates journal-over-snapshot on the session's
//!   next request, with bit-identical analysis results. A torn trailing
//!   record (a crash mid-append) is dropped and counted, never fatal.
//!
//! Two backends ship: [`MemoryStore`] (same process-lifetime semantics as
//! the storeless shard, but spilled out of shard memory) and
//! [`FileStore`] (length-prefixed JSON journal lines + atomic snapshot
//! files, with a configurable [`FsyncPolicy`]).
//!
//! [`drain`]: crate::SessionManager::drain
//! [`SessionManager::with_store`]: crate::SessionManager::with_store

mod fault;
mod file;
mod memory;

pub use fault::{FaultInjectingStore, StoreOp};
pub use file::FileStore;
pub use memory::MemoryStore;

use crate::protocol::SessionSnapshot;
use maut::{AttributeId, Interval, ObjectiveId, Perf};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One durable what-if edit, appended to a session's write-ahead journal
/// as it is applied. Records carry the absolute new value (not a delta),
/// so replaying a record that the snapshot already absorbed — a crash
/// between snapshot write and journal truncation — is idempotent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A `SetPerf` edit: `(alternative, attribute, new performance)`.
    SetPerf(usize, AttributeId, Perf),
    /// A `SetWeight` edit: `(objective, new weight interval)`.
    SetWeight(ObjectiveId, Interval),
}

/// Everything the store holds for one session: the last compacted
/// snapshot plus the journaled edits applied since. Rebuilding the
/// session = restore the snapshot, then replay the journal in order.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSession {
    /// The compacted state at the last snapshot (create, eviction, or
    /// drain).
    pub snapshot: SessionSnapshot,
    /// Edits journaled after that snapshot, in application order.
    pub journal: Vec<JournalRecord>,
    /// Torn trailing journal segments dropped during decode (at most 1
    /// per load — a crash can tear only the final append).
    pub torn_records: u64,
}

/// When the file-backed store calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync every journal append and every snapshot — survives power
    /// loss, costs a disk flush per edit.
    Always,
    /// Sync snapshots only; journal appends are left to the OS page
    /// cache. Survives process crashes (the write is in kernel buffers),
    /// not power loss. The default.
    OnSnapshot,
    /// Never sync — benchmarks and tests.
    Never,
}

/// Errors from a [`SessionStore`] backend.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying I/O failed.
    Io(std::io::Error),
    /// A record or snapshot could not be encoded.
    Encode(String),
    /// Stored bytes exist but do not decode (beyond a tolerated torn
    /// trailing journal record).
    Corrupt(String),
    /// A journal append addressed a session the store has no snapshot
    /// for — appends must follow the session's initial snapshot.
    UnknownSession(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Encode(e) => write!(f, "store encoding failed: {e}"),
            StoreError::Corrupt(e) => write!(f, "store state is corrupt: {e}"),
            StoreError::UnknownSession(s) => {
                write!(f, "journal append to unknown session {s:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

// Hand-written wire encoding: `std::io::Error` cannot derive, so the `Io`
// variant round-trips through its message (the remote side gets an
// `io::Error` of kind `Other` carrying the original text).
impl serde::Serialize for StoreError {
    fn serialize(&self, s: &mut serde::Serializer) {
        let (tag, msg) = match self {
            StoreError::Io(e) => ("Io", e.to_string()),
            StoreError::Encode(e) => ("Encode", e.clone()),
            StoreError::Corrupt(e) => ("Corrupt", e.clone()),
            StoreError::UnknownSession(s) => ("UnknownSession", s.clone()),
        };
        s.begin_object();
        s.field(tag, &msg);
        s.end_object();
    }
}

// The first entry of the map names the variant and carries the message;
// any further entries are read and ignored.
impl serde::Deserialize for StoreError {
    fn deserialize(d: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let mut nest = d.begin_object()?;
        let Some(tag) = d.next_key(&mut nest)? else {
            return Err(serde::Error::custom("expected a non-empty StoreError map"));
        };
        let msg = String::deserialize(d)?;
        while d.next_key(&mut nest)?.is_some() {
            d.skip_value()?;
        }
        match &*tag {
            "Io" => Ok(StoreError::Io(std::io::Error::other(msg))),
            "Encode" => Ok(StoreError::Encode(msg)),
            "Corrupt" => Ok(StoreError::Corrupt(msg)),
            "UnknownSession" => Ok(StoreError::UnknownSession(msg)),
            other => Err(serde::Error::custom(format!(
                "unknown StoreError variant {other:?}"
            ))),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> StoreError {
        StoreError::Encode(e.to_string())
    }
}

/// A durable session store: swappable persistence behind the shard
/// workers (one trait, several backends — the Oxigraph storage split).
///
/// Sessions are partitioned across shards by stable FNV-1a routing, so
/// concurrent shard workers never address the same session; backends
/// still use interior mutability (`&self` methods) so one handle can be
/// shared as an `Arc<dyn SessionStore>` across shard threads.
pub trait SessionStore: Send + Sync {
    /// Append one edit record to `session`'s write-ahead journal. The
    /// session must have a snapshot in the store (written at create).
    fn append(&self, session: &str, record: &JournalRecord) -> Result<(), StoreError>;

    /// Write a compacted snapshot for `snapshot.session` and truncate its
    /// journal. The snapshot carries every applied edit, so the records
    /// it replaces are redundant; a crash between the snapshot write and
    /// the journal truncation only leaves idempotent records behind.
    fn put_snapshot(&self, snapshot: &SessionSnapshot) -> Result<(), StoreError>;

    /// Load a session's snapshot plus pending journal. `Ok(None)` if the
    /// store has no state for it.
    fn load(&self, session: &str) -> Result<Option<StoredSession>, StoreError>;

    /// Delete all state for `session`. Missing state is not an error.
    fn remove(&self, session: &str) -> Result<(), StoreError>;

    /// All session names with state in the store — the recovery
    /// enumeration.
    fn sessions(&self) -> Result<Vec<String>, StoreError>;

    /// Flush any buffered writes to durable storage (fsync-policy
    /// dependent; a no-op for memory backends).
    fn sync(&self) -> Result<(), StoreError>;
}

// ------------------------------------------------------- journal wire format
//
// One record per line: `<len> <json>\n`, where `<len>` is the byte length
// of `<json>` in ASCII decimal. The prefix lets the decoder distinguish a
// torn trailing record (fewer than `len` bytes follow) from corruption,
// and the newline keeps the file greppable.

/// Encode one record in the length-prefixed JSON-line format.
pub(crate) fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, StoreError> {
    let json = serde_json::to_string(record)?;
    let mut out = Vec::with_capacity(json.len() + 12);
    out.extend_from_slice(json.len().to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    Ok(out)
}

/// Decode a journal byte stream. Returns the complete records plus the
/// number of torn trailing segments dropped (0 or 1): decoding stops at
/// the first record that is truncated or does not parse, because
/// anything after a bad length prefix is unframed.
pub(crate) fn decode_journal(bytes: &[u8]) -> (Vec<JournalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(rest) = bytes.get(pos..) else {
            break;
        };
        let Some(space) = rest.iter().position(|&b| b == b' ') else {
            return (records, 1);
        };
        let len = match rest
            .get(..space)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(len) => len,
            None => return (records, 1),
        };
        let body_start = pos + space + 1;
        let Some(body_end) = body_start.checked_add(len) else {
            return (records, 1);
        };
        let Some(body) = bytes.get(body_start..body_end) else {
            return (records, 1);
        };
        let Ok(json) = std::str::from_utf8(body) else {
            return (records, 1);
        };
        let Ok(record) = serde_json::from_str::<JournalRecord>(json) else {
            return (records, 1);
        };
        records.push(record);
        pos = body_end;
        match bytes.get(pos) {
            Some(b'\n') => pos += 1,
            // A complete record whose terminator was torn off still
            // parsed fully — keep it, and stop (nothing can follow).
            None => break,
            Some(_) => return (records, 1),
        }
    }
    (records, 0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::SessionConfig;
    use maut::prelude::*;

    /// The shared two-attribute test model used across store tests.
    pub(crate) fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
        b.alternative("a", vec![Perf::level(2), Perf::level(1)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(2)]);
        b.build().unwrap()
    }

    fn records() -> Vec<JournalRecord> {
        let model = model();
        let x = model.find_attribute("x").unwrap();
        let x_obj = model.tree.find("x").unwrap();
        vec![
            JournalRecord::SetPerf(0, x, Perf::level(2)),
            JournalRecord::SetPerf(1, x, Perf::Missing),
            JournalRecord::SetWeight(x_obj, Interval::new(0.2, 0.7)),
        ]
    }

    #[test]
    fn records_roundtrip_through_the_wire_format() {
        let mut bytes = Vec::new();
        for r in &records() {
            bytes.extend_from_slice(&encode_record(r).unwrap());
        }
        let (decoded, torn) = decode_journal(&bytes);
        assert_eq!(decoded, records());
        assert_eq!(torn, 0);
    }

    #[test]
    fn empty_journal_decodes_empty() {
        assert_eq!(decode_journal(b""), (Vec::new(), 0));
    }

    #[test]
    fn torn_trailing_record_is_dropped_not_fatal() {
        let all = records();
        let mut bytes = Vec::new();
        for r in &all {
            bytes.extend_from_slice(&encode_record(r).unwrap());
        }
        // Tear the final record anywhere inside it (short of only losing
        // its trailing newline, which still parses fully): every prefix
        // decodes to the first two records plus one torn segment, never
        // an error.
        let second_end =
            encode_record(&all[0]).unwrap().len() + encode_record(&all[1]).unwrap().len();
        for cut in second_end + 1..bytes.len() - 1 {
            let (decoded, torn) = decode_journal(&bytes[..cut]);
            assert_eq!(decoded, all[..2], "cut at {cut}");
            assert_eq!(torn, 1, "cut at {cut}");
        }
    }

    #[test]
    fn missing_final_newline_keeps_a_complete_record() {
        let bytes = encode_record(&records()[0]).unwrap();
        let (decoded, torn) = decode_journal(&bytes[..bytes.len() - 1]);
        assert_eq!(decoded, records()[..1]);
        assert_eq!(torn, 0);
    }

    #[test]
    fn garbage_journal_yields_no_records() {
        let (decoded, torn) = decode_journal(b"not a journal at all");
        assert!(decoded.is_empty());
        assert_eq!(torn, 1);
        let (decoded, torn) = decode_journal(b"999999999999999999999999 {}");
        assert!(decoded.is_empty());
        assert_eq!(torn, 1);
    }

    #[test]
    fn snapshot_after_records_is_independent_of_journal() {
        // The wire format is journal-only; snapshots go through plain
        // JSON. Sanity-check the snapshot type round-trips beside it.
        let model = model();
        let snap = SessionSnapshot {
            session: "weird name \" with / bytes".to_string(),
            model_json: gmaa::model_to_json(&model).unwrap(),
            config: SessionConfig::default(),
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: SessionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn store_error_display_is_informative() {
        assert!(StoreError::Corrupt("bad".into())
            .to_string()
            .contains("bad"));
        assert!(StoreError::UnknownSession("s".into())
            .to_string()
            .contains("s"));
        let io: StoreError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
    }
}
