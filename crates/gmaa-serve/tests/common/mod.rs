//! Shared helpers for the gmaa-serve integration tests.

// Each integration-test binary compiles this module separately and uses
// only a subset of the helpers.
#![allow(dead_code)]

use gmaa_serve::{
    JournalRecord, MemoryStore, SessionConfig, SessionSnapshot, SessionStore, StoreError,
    StoredSession,
};
use std::sync::{Condvar, Mutex};

/// Fast analysis settings for test sessions.
pub fn quick() -> SessionConfig {
    SessionConfig {
        mc_trials: 50,
        ..SessionConfig::default()
    }
}

/// A small two-attribute model with two alternatives.
pub fn model() -> maut::DecisionModel {
    use maut::prelude::*;
    let mut b = DecisionModelBuilder::new("m");
    let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
    let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
    b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
    b.alternative("a", vec![Perf::level(2), Perf::level(1)]);
    b.alternative("b", vec![Perf::level(0), Perf::level(2)]);
    b.build().unwrap()
}

/// A store whose `put_snapshot` parks the calling shard worker until the
/// test opens the gate — a deterministic way to hold a worker busy while
/// the test fills (or deadline-expires) its admission queue.
pub struct GateStore {
    inner: MemoryStore,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    parked: u32,
    open: bool,
}

impl GateStore {
    pub fn new() -> GateStore {
        GateStore {
            inner: MemoryStore::new(),
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Block until a shard worker is parked inside `put_snapshot`.
    pub fn wait_parked(&self) {
        let mut st = self.state.lock().unwrap();
        while st.parked == 0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Release every parked (and future) `put_snapshot`.
    pub fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
}

impl SessionStore for GateStore {
    fn append(&self, session: &str, record: &JournalRecord) -> Result<(), StoreError> {
        self.inner.append(session, record)
    }

    fn put_snapshot(&self, snapshot: &SessionSnapshot) -> Result<(), StoreError> {
        {
            let mut st = self.state.lock().unwrap();
            if !st.open {
                st.parked += 1;
                self.cv.notify_all();
                while !st.open {
                    st = self.cv.wait(st).unwrap();
                }
                st.parked -= 1;
            }
        }
        self.inner.put_snapshot(snapshot)
    }

    fn load(&self, session: &str) -> Result<Option<StoredSession>, StoreError> {
        self.inner.load(session)
    }

    fn remove(&self, session: &str) -> Result<(), StoreError> {
        self.inner.remove(session)
    }

    fn sessions(&self) -> Result<Vec<String>, StoreError> {
        self.inner.sessions()
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
}
