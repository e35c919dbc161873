//! A [`SessionStore`] wrapper that records a span around every call the
//! manager makes into the wrapped [`MemoryStore`].
//!
//! Store calls run on shard worker threads, so the wrapper cannot see
//! the caller's recorder. The replay thread that drives a shard instead
//! registers the span of its in-flight manager call with [`TimedStore::enter`];
//! store spans become its children. A session's shard is known from its
//! name (every store call names the session, and an eviction victim lives
//! on the shard that evicts it).

use crate::trace::{now_ns, Span};
use gmaa_serve::{
    JournalRecord, MemoryStore, SessionSnapshot, SessionStore, StoreError, StoredSession,
};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

pub struct TimedStore {
    inner: MemoryStore,
    shard_of: HashMap<String, usize>,
    /// Per shard: the in-flight call's span id and round, if traced.
    current: Mutex<Vec<Option<(u32, u32)>>>,
    spans: Mutex<Vec<Span>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicked while holding the store trace lock")
}

impl TimedStore {
    pub fn new(inner: MemoryStore, shard_of: HashMap<String, usize>, shards: usize) -> TimedStore {
        TimedStore {
            inner,
            shard_of,
            current: Mutex::new(vec![None; shards]),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The next store calls on `shard` belong to span `parent` of `round`.
    pub fn enter(&self, shard: usize, parent: u32, round: u32) {
        if let Some(slot) = lock(&self.current).get_mut(shard) {
            *slot = Some((parent, round));
        }
    }

    pub fn leave(&self, shard: usize) {
        if let Some(slot) = lock(&self.current).get_mut(shard) {
            *slot = None;
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    fn timed<T>(&self, name: &'static str, session: &str, call: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = call();
        let end = now_ns();
        let context = self
            .shard_of
            .get(session)
            .and_then(|&shard| lock(&self.current).get(shard).copied().flatten());
        if let Some((parent, round)) = context {
            let mut span = Span::new(name, round, Some(parent), start);
            span.end_ns = end;
            lock(&self.spans).push(span);
        }
        out
    }
}

impl SessionStore for TimedStore {
    fn append(&self, session: &str, record: &JournalRecord) -> Result<(), StoreError> {
        self.timed("store.append", session, || {
            self.inner.append(session, record)
        })
    }

    fn put_snapshot(&self, snapshot: &SessionSnapshot) -> Result<(), StoreError> {
        self.timed("store.put_snapshot", &snapshot.session, || {
            self.inner.put_snapshot(snapshot)
        })
    }

    fn load(&self, session: &str) -> Result<Option<StoredSession>, StoreError> {
        self.timed("store.load", session, || self.inner.load(session))
    }

    fn remove(&self, session: &str) -> Result<(), StoreError> {
        self.timed("store.remove", session, || self.inner.remove(session))
    }

    fn sessions(&self) -> Result<Vec<String>, StoreError> {
        self.inner.sessions()
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
}
