//! One tenant's live analysis session: an [`AnalysisEngine`] plus its
//! settings, with the snapshot/restore path used for LRU hibernation.
//!
//! Snapshots go through the engine's *read-only* model accessor
//! ([`AnalysisEngine::model`]) and the workspace JSON encoding — never
//! through `Clone`. Cloning the whole context would drag along matrices a
//! snapshot does not need, and although `EvalContext::clone` hands the
//! clone a fresh LP workspace (so the PR-4 stats mis-attribution cannot
//! recur — locked down by `cloned_engine_starts_with_fresh_lp_stats` in
//! `gmaa`), serializing just the model keeps hibernated sessions as small
//! as a workspace file.

use crate::protocol::{ServeError, SessionConfig, SessionSnapshot};
use crate::store::JournalRecord;
use gmaa::AnalysisEngine;
use maut::DecisionModel;

/// A live session: the engine that owns all per-tenant analysis state,
/// the session's settings, and its LRU clock tick.
#[derive(Debug)]
pub struct Session {
    pub(crate) engine: AnalysisEngine,
    pub(crate) config: SessionConfig,
    /// Shard-local logical time of the last request that touched this
    /// session (larger = more recent); the eviction scan takes the
    /// minimum.
    pub(crate) last_used: u64,
    /// Records in the session's store journal since its last stored
    /// snapshot; the shard compacts once this reaches the model's cell
    /// count.
    pub(crate) journaled: usize,
}

impl Session {
    /// Validate `model` and `config` and open a session over them. A
    /// zero trial count is rejected here, where it enters (a server's
    /// [`SessionConfig`] or a stored or restored snapshot), by the
    /// engine's own setting check.
    pub(crate) fn new(model: DecisionModel, config: SessionConfig) -> Result<Session, ServeError> {
        let mut engine = AnalysisEngine::new(model)?;
        engine
            .set_mc_trials(config.mc_trials)
            .map_err(|e| ServeError::InvalidRequest(format!("session config: {e}")))?;
        engine.mc_seed = config.mc_seed;
        Ok(Session {
            engine,
            config,
            last_used: 0,
            journaled: 0,
        })
    }

    /// Capture the session as a [`SessionSnapshot`]: the mutated model in
    /// workspace JSON plus the settings. Edits are applied to the model in
    /// place, so the model alone carries every pending what-if.
    pub(crate) fn snapshot(&self, session: &str) -> Result<SessionSnapshot, ServeError> {
        Ok(SessionSnapshot {
            session: session.to_string(),
            model_json: gmaa::model_to_json(self.engine.model())?,
            config: self.config,
        })
    }

    /// Rebuild a session from its snapshot, first checking that the
    /// snapshot really belongs to `expected` — a misfiled store entry
    /// must not silently serve one tenant another tenant's model. The
    /// engine starts with cold caches (the first post-rehydration cycle
    /// is a full recompute), but every analysis result is identical to
    /// the never-evicted session's — the analyses are deterministic
    /// functions of model + seed.
    pub(crate) fn restore(
        snapshot: &SessionSnapshot,
        expected: &str,
    ) -> Result<Session, ServeError> {
        if snapshot.session != expected {
            return Err(ServeError::Snapshot(format!(
                "snapshot identity mismatch: loaded under {expected:?} but records session {:?}",
                snapshot.session
            )));
        }
        Session::new(
            gmaa::model_from_json(&snapshot.model_json)?,
            snapshot.config,
        )
    }

    /// Re-apply journaled edits, in order, on top of a restored snapshot.
    /// Records carry absolute values, so replaying an edit the snapshot
    /// already absorbed is a no-op.
    pub(crate) fn replay(&mut self, journal: &[JournalRecord]) -> Result<(), ServeError> {
        for record in journal {
            match record {
                JournalRecord::SetPerf(alternative, attr, perf) => {
                    self.engine.set_perf(*alternative, *attr, *perf)?;
                }
                JournalRecord::SetWeight(objective, weight) => {
                    self.engine.set_weight(*objective, *weight)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
        b.alternative("a", vec![Perf::level(2), Perf::level(1)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(2)]);
        b.build().unwrap()
    }

    #[test]
    fn snapshot_roundtrip_preserves_edits() {
        let mut s = Session::new(model(), SessionConfig::default()).unwrap();
        let x = s.engine.model().find_attribute("x").unwrap();
        s.engine.set_perf(1, x, Perf::level(2)).unwrap();

        let snap = s.snapshot("t").unwrap();
        let mut restored = Session::restore(&snap, "t").unwrap();
        assert_eq!(restored.engine.model(), s.engine.model());
        assert_eq!(restored.config, s.config);
        // The rehydrated session evaluates identically.
        assert_eq!(*restored.engine.evaluate(), *s.engine.evaluate());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let s = Session::new(model(), SessionConfig::default()).unwrap();
        let mut snap = s.snapshot("t").unwrap();
        snap.model_json = "{ not json".into();
        assert!(matches!(
            Session::restore(&snap, "t"),
            Err(ServeError::Snapshot(_))
        ));
    }

    #[test]
    fn restore_rejects_identity_mismatch() {
        // A misfiled store entry (snapshot for tenant A loaded under
        // tenant B's key) must fail loudly, not serve A's model to B.
        let s = Session::new(model(), SessionConfig::default()).unwrap();
        let snap = s.snapshot("tenant-a").unwrap();
        let err = Session::restore(&snap, "tenant-b").unwrap_err();
        match err {
            ServeError::Snapshot(msg) => {
                assert!(
                    msg.contains("tenant-a") && msg.contains("tenant-b"),
                    "{msg}"
                );
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn replay_reproduces_directly_applied_edits() {
        let mut direct = Session::new(model(), SessionConfig::default()).unwrap();
        let x = direct.engine.model().find_attribute("x").unwrap();
        let x_obj = direct.engine.model().tree.find("x").unwrap();
        direct.engine.set_perf(1, x, Perf::level(2)).unwrap();
        direct
            .engine
            .set_weight(x_obj, Interval::new(0.2, 0.8))
            .unwrap();

        let mut replayed = Session::new(model(), SessionConfig::default()).unwrap();
        replayed
            .replay(&[
                crate::store::JournalRecord::SetPerf(1, x, Perf::level(2)),
                crate::store::JournalRecord::SetWeight(x_obj, Interval::new(0.2, 0.8)),
            ])
            .unwrap();
        assert_eq!(replayed.engine.model(), direct.engine.model());
        assert_eq!(*replayed.engine.evaluate(), *direct.engine.evaluate());

        // A journal that no longer matches the model surfaces the model
        // error instead of corrupting the session.
        let mut bad = Session::new(model(), SessionConfig::default()).unwrap();
        assert!(bad
            .replay(&[crate::store::JournalRecord::SetPerf(99, x, Perf::level(0))])
            .is_err());
    }
}
