//! The `AnalysisEngine`: single entry point for every analysis of the
//! paper, over one shared [`EvalContext`].
//!
//! The GMAA workflow is interactive — evaluate (Fig 6), re-rank a subtree
//! (Fig 7), probe weight stability (Fig 8), discard by dominance /
//! potential optimality (Section V), simulate (Figs 9–10), tweak an input,
//! repeat. The engine owns the context those analyses share, so the
//! component-utility matrix, weight bounds and subtree index are computed
//! once per model (the legacy free functions re-derived them up to six
//! times per `analyze()` cycle), and exposes the incremental mutation API
//! ([`AnalysisEngine::set_perf`], [`AnalysisEngine::set_weight`]) for
//! what-if loops that only touch the affected rows.
//!
//! ```
//! use gmaa::AnalysisEngine;
//!
//! let mut engine = AnalysisEngine::new(neon_reuse::paper_model().model).unwrap();
//! engine.set_mc_trials(500).unwrap(); // keep the doctest quick
//! let analysis = engine.analyze().unwrap();
//! assert_eq!(analysis.evaluation.ranking()[0].name, "Media Ontology");
//! assert_eq!(analysis.evaluation.bounds.len(), 23);
//! ```

use maut::{
    DecisionModel, EngineStats, EvalContext, Evaluation, Interval, ModelError, ObjectiveId, Perf,
    UtilityBounds,
};
use maut_sense::{
    dominance, intensity, montecarlo::MonteCarlo, potential, stability, DominanceOutcome,
    IntensityRank, IntervalMatrix, LpError, MonteCarloCache, MonteCarloConfig, MonteCarloResult,
    PotentialCert, PotentialOutcome, StabilityMode, StabilityReport,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Bundle of every analysis the paper reports.
///
/// Serializable: the serving layer's TCP front end ships whole analyses
/// to remote clients through the workspace JSON encoding.
#[derive(Debug, Serialize, Deserialize)]
pub struct Analysis {
    /// Min / average / max utilities and the ranking (Fig 6).
    pub evaluation: Evaluation,
    /// Weight stability interval per non-root objective (Fig 8).
    pub stability: Vec<StabilityReport>,
    /// Alternatives no other alternative dominates (Section V).
    pub non_dominated: Vec<usize>,
    /// Potential-optimality verdict per alternative (Section V).
    pub potential: Vec<PotentialOutcome>,
    /// The dominance-intensity ranking (ref \[25\]).
    pub intensity: Vec<IntensityRank>,
    /// Rank statistics across simulated weights (Figs 9–10).
    pub monte_carlo: MonteCarloResult,
}

/// Result of the Section V discard pipeline
/// ([`AnalysisEngine::discard_cycle`]): dominance → potential optimality
/// → dominance-intensity, all from one pass over the shared context.
#[derive(Debug, Serialize, Deserialize)]
pub struct DiscardCycle {
    /// Alternatives no other alternative dominates.
    pub non_dominated: Vec<usize>,
    /// Per-alternative potential-optimality verdicts.
    pub potential: Vec<PotentialOutcome>,
    /// The complete ranking by dominance intensity (ref \[25\]).
    pub intensity: Vec<IntensityRank>,
}

impl Analysis {
    /// Alternatives discarded by the potential-optimality analysis
    /// (3 of 23 in the paper).
    pub fn discarded(&self) -> Vec<usize> {
        self.potential
            .iter()
            .filter(|o| !o.potentially_optimal)
            .map(|o| o.alternative)
            .collect()
    }

    /// Alternatives that are both non-dominated and potentially optimal
    /// (20 of 23 in the paper).
    pub fn survivors(&self) -> Vec<usize> {
        let nd: std::collections::BTreeSet<usize> = self.non_dominated.iter().copied().collect();
        self.potential
            .iter()
            .filter(|o| o.potentially_optimal && nd.contains(&o.alternative))
            .map(|o| o.alternative)
            .collect()
    }
}

/// The previous discard cycle's expensive intermediates, kept so the next
/// cycle after a small edit can be answered by pair-level re-optimization
/// instead of a full recompute.
///
/// Invariants: the cache always describes the context state as of the
/// last [`AnalysisEngine::discard_cycle_incremental`] call — that call
/// drains the context's pair-level dirty set
/// ([`EvalContext::take_analysis_dirty`]) and brings exactly those
/// rows/columns (intervals) and certificates (potential optimality) up to
/// date, so cache + drained-delta ≡ current context. A weight-side edit
/// invalidates every pair at once; the certificates are then dropped and
/// everything is rebuilt by a full pass, the intervals into the cached
/// matrix's own allocation — the cache never holds two matrices.
#[derive(Debug, Clone)]
struct CycleCache {
    /// All pairwise dominance intervals, one flat buffer of minima
    /// updated in place (the non-dominated set and the intensity ranking
    /// both derive from it).
    intervals: IntervalMatrix,
    /// Potential-optimality certificates (verdict + optimal weights +
    /// final working set per alternative).
    certs: Vec<PotentialCert>,
}

/// How often the incremental discard cycle actually ran incrementally.
///
/// Counted by [`AnalysisEngine::discard_cycle_incremental`] (and therefore
/// by [`AnalysisEngine::analyze_incremental`], which routes through it):
/// a call served from the cached cycle — either untouched (no edits since
/// the last call) or brought up to date by pair-level re-optimization —
/// counts as `incremental`; a transparent full-recompute fallback (first
/// call, weight-side edit, or a dirty set covering half the alternatives)
/// counts as `full`. The serving layer (`gmaa-serve`) surfaces these as
/// its incremental hit rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Cycles answered from the cached intermediates (pair-level update
    /// or pure cache hit).
    pub incremental: u64,
    /// Cycles that fell back to a full recompute.
    pub full: u64,
}

impl CycleStats {
    /// `incremental / (incremental + full)`, or `None` before any cycle.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.incremental + self.full;
        (total > 0).then(|| self.incremental as f64 / total as f64)
    }
}

/// A Monte Carlo trial count of zero, rejected by
/// [`AnalysisEngine::set_mc_trials`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroTrials;

impl fmt::Display for ZeroTrials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Monte Carlo needs at least one trial")
    }
}

impl std::error::Error for ZeroTrials {}

/// The analysis engine: one model, one shared evaluation context, every
/// paper analysis, plus incremental what-if mutation.
#[derive(Debug)]
pub struct AnalysisEngine {
    ctx: EvalContext,
    /// Last discard cycle's intermediates for the incremental path.
    cycle_cache: Option<CycleCache>,
    /// Incremental-vs-full counts for the incremental cycle entry point.
    cycle_stats: CycleStats,
    /// Last Monte Carlo run of [`AnalysisEngine::analyze_incremental`],
    /// so the next one recounts only what an edit can reorder.
    mc_cache: Option<MonteCarloCache>,
    /// Trials used by the Monte Carlo stage; never zero (see
    /// [`AnalysisEngine::set_mc_trials`]).
    mc_trials: usize,
    /// Seed for the Monte Carlo stage.
    pub mc_seed: u64,
}

impl Clone for AnalysisEngine {
    /// The clone keeps the model state and the cycle and Monte Carlo
    /// caches (all analysis state, so the clone's next incremental cycle
    /// still hits), but starts with zeroed [`CycleStats`] — matching
    /// `EvalContext::clone`'s fresh LP workspace, so no counter ever
    /// attributes the parent's work to the clone.
    fn clone(&self) -> AnalysisEngine {
        AnalysisEngine {
            ctx: self.ctx.clone(),
            cycle_cache: self.cycle_cache.clone(),
            cycle_stats: CycleStats::default(),
            mc_cache: self.mc_cache.clone(),
            mc_trials: self.mc_trials,
            mc_seed: self.mc_seed,
        }
    }
}

impl AnalysisEngine {
    /// Validate the model and precompute the shared context.
    pub fn new(model: DecisionModel) -> Result<AnalysisEngine, ModelError> {
        Ok(AnalysisEngine {
            ctx: EvalContext::new(model)?,
            cycle_cache: None,
            cycle_stats: CycleStats::default(),
            mc_cache: None,
            mc_trials: 10_000,
            mc_seed: 20120402,
        })
    }

    /// Trials the Monte Carlo stage runs (10 000 unless set).
    pub fn mc_trials(&self) -> usize {
        self.mc_trials
    }

    /// Set the Monte Carlo stage's trial count. Zero is rejected, and the
    /// count left as it was: the stage needs at least one trial, so
    /// [`AnalysisEngine::monte_carlo`] and [`AnalysisEngine::analyze`]
    /// never meet a zero count.
    pub fn set_mc_trials(&mut self, trials: usize) -> Result<(), ZeroTrials> {
        if trials == 0 {
            return Err(ZeroTrials);
        }
        self.mc_trials = trials;
        Ok(())
    }

    /// The decision model as currently mutated — `set_perf` / `set_weight`
    /// edits are applied in place, so this read-only view is also the
    /// complete snapshot state a serving layer needs to persist or
    /// rehydrate a session (serialize it; rebuild with
    /// [`AnalysisEngine::new`]). No context clone is ever required.
    pub fn model(&self) -> &DecisionModel {
        self.ctx.model()
    }

    /// Incremental-vs-full counts of
    /// [`AnalysisEngine::discard_cycle_incremental`] — see [`CycleStats`].
    pub fn cycle_stats(&self) -> CycleStats {
        self.cycle_stats
    }

    /// The shared evaluation context (for analyses not wrapped here).
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// Mutable access to the shared context, so pipelines outside this
    /// crate (e.g. `neon_reuse::activities::select_by_ranking_ctx`) can
    /// run against the engine's caches instead of building their own.
    pub fn context_mut(&mut self) -> &mut EvalContext {
        &mut self.ctx
    }

    /// Cache / incremental-work counters of the underlying context.
    pub fn stats(&self) -> EngineStats {
        self.ctx.stats()
    }

    /// Cumulative LP solver counters of the shared context — solves,
    /// warm re-solves after working-set growth, and simplex steps split
    /// cold/warm. The LP numbers in `BENCH_engine.json` read these.
    pub fn lp_stats(&self) -> maut_sense::simplex_lp::SolveStats {
        self.ctx.lp_stats()
    }

    // ----------------------------------------------------------- evaluation

    /// Evaluate the additive model over the whole hierarchy (Fig 6).
    /// Cache hits hand out a shared snapshot without cloning.
    pub fn evaluate(&mut self) -> Arc<Evaluation> {
        self.ctx.evaluate()
    }

    /// Evaluate within one objective's subtree (Fig 7).
    pub fn evaluate_under(&mut self, objective: ObjectiveId) -> Arc<Evaluation> {
        self.ctx.evaluate_under(objective)
    }

    /// Re-rank by a single objective (Fig 7); `key` is the objective key.
    pub fn rank_by(&mut self, key: &str) -> Option<Arc<Evaluation>> {
        let id = self.ctx.model().tree.find(key)?;
        Some(self.ctx.evaluate_under(id))
    }

    /// Score a batch of alternatives over the whole hierarchy without
    /// touching the evaluation cache, against the columnar band matrix on
    /// the calling thread.
    pub fn batch_evaluate(&mut self, alternatives: &[usize]) -> Vec<UtilityBounds> {
        let root = self.ctx.model().tree.root();
        self.ctx.batch_evaluate(root, alternatives)
    }

    // ------------------------------------------------------------- mutation

    /// Change one performance cell; only the touched alternative is
    /// re-scored on the next evaluation.
    pub fn set_perf(
        &mut self,
        alternative: usize,
        attr: maut::AttributeId,
        perf: Perf,
    ) -> Result<(), ModelError> {
        self.ctx.set_perf(alternative, attr, perf)
    }

    /// Change one objective's local weight interval; the weight side is
    /// recomputed, the band matrix kept.
    pub fn set_weight(
        &mut self,
        objective: ObjectiveId,
        weight: Interval,
    ) -> Result<(), ModelError> {
        self.ctx.set_weight(objective, weight)
    }

    // ------------------------------------------------------------- analyses

    /// Weight stability interval of one objective (Fig 8).
    pub fn stability_of(&self, objective: ObjectiveId, mode: StabilityMode) -> StabilityReport {
        stability::stability_interval_ctx(&self.ctx, objective, mode)
    }

    /// Stability intervals of every non-root objective.
    pub fn stability_all(&self, mode: StabilityMode) -> Vec<StabilityReport> {
        stability::all_stability_intervals_ctx(&self.ctx, mode)
    }

    /// Full pairwise dominance matrix.
    pub fn dominance_matrix(&self) -> Vec<Vec<DominanceOutcome>> {
        dominance::dominance_matrix_ctx(&self.ctx)
    }

    /// Non-dominated alternatives.
    pub fn non_dominated(&self) -> Vec<usize> {
        dominance::non_dominated_ctx(&self.ctx)
    }

    /// Potential-optimality verdicts (one max-slack LP per alternative,
    /// grown warm by constraint generation). The error arm fires only on solver breakdown, never
    /// on legitimate analysis outcomes — see [`maut_sense::potential`].
    pub fn potentially_optimal(&self) -> Result<Vec<PotentialOutcome>, LpError> {
        potential::potentially_optimal_ctx(&self.ctx)
    }

    /// Dominance-intensity ranking (ref \[25\]).
    pub fn intensity_ranking(&self) -> Vec<IntensityRank> {
        intensity::intensity_ranking_ctx(&self.ctx)
    }

    /// The Section V discard pipeline — dominance, potential optimality
    /// and dominance-intensity — in one call against the shared context
    /// (the hot cycle the blocked sweeps and the bounded-variable LP
    /// solver accelerate). Stateless: always a full recompute; the what-if loop
    /// should prefer [`AnalysisEngine::discard_cycle_incremental`].
    pub fn discard_cycle(&self) -> Result<DiscardCycle, LpError> {
        // One blocked sweep yields every pairwise dominance interval; the
        // non-dominated set and the intensity ranking both derive from it
        // (bit-identically to their standalone entry points), so the
        // cycle pays for the pair optimizations once.
        let intervals = intensity::dominance_intervals_ctx(&self.ctx);
        let (non_dominated, intensity) = intervals.derive(&self.ctx.model().alternatives);
        Ok(DiscardCycle {
            non_dominated,
            potential: self.potentially_optimal()?,
            intensity,
        })
    }

    /// The discard cycle for the interactive what-if loop: after a few
    /// `set_perf` edits, only the touched alternatives' rows/columns of
    /// the interval matrix are re-optimized in place, with the matrix's
    /// intensity block sums and dominator counts patched for those pairs
    /// only ([`maut_sense::IntervalMatrix::update`]), and only the touched
    /// alternatives plus their dependents are re-certified, in place in
    /// the cached certificates
    /// ([`maut_sense::potential::certify_incremental_ctx`], each seeded
    /// with its previous working set). The non-dominated set and the
    /// intensities are then read off the patched state in
    /// `O(n²/16 + n log n)`, without rereading the `n²` minima. On a
    /// solver error the cache is dropped, so the next call recomputes in
    /// full. Falls back to a
    /// full recompute — transparently, same results — when there is no
    /// cached cycle yet, the weight side changed (every pair invalidated),
    /// or the dirty set covers half the alternatives or more (pair-level
    /// updates would stop paying).
    ///
    /// Verdicts and interval endpoints match [`AnalysisEngine::discard_cycle`]
    /// on the same context state (intervals and intensities bit-for-bit;
    /// potential slacks to the certification tolerance).
    pub fn discard_cycle_incremental(&mut self) -> Result<DiscardCycle, LpError> {
        let (dirty, weights_changed) = self.ctx.take_analysis_dirty();
        let n = self.ctx.model().num_alternatives();
        let incremental = !weights_changed && 2 * dirty.len() < n;
        let cache = match self.cycle_cache.take() {
            Some(mut cache) if incremental => {
                self.cycle_stats.incremental += 1;
                if !dirty.is_empty() {
                    cache.intervals.update(&self.ctx, &dirty);
                    // On an error the partly rewritten cache is dropped
                    // here, and the next call recomputes in full.
                    potential::certify_incremental_ctx(&self.ctx, &mut cache.certs, &dirty)?;
                }
                cache
            }
            stale => {
                self.cycle_stats.full += 1;
                let mut intervals = stale.map(|cache| cache.intervals).unwrap_or_default();
                intervals.recompute(&self.ctx);
                CycleCache {
                    intervals,
                    certs: potential::certify_ctx(&self.ctx)?,
                }
            }
        };
        let cycle = Self::derive_cycle(&cache, &self.ctx.model().alternatives);
        self.cycle_cache = Some(cache);
        Ok(cycle)
    }

    /// Assemble the cycle's outward shape from cached intermediates.
    fn derive_cycle(cache: &CycleCache, names: &[String]) -> DiscardCycle {
        let (non_dominated, intensity) = cache.intervals.derive(names);
        // Off the marked line, so an allocating copy still trips the lint.
        let potential = cache.certs.iter().map(|c| c.outcome);
        DiscardCycle {
            non_dominated,
            // lint:allow(no-alloc-in-kernel) -- the cycle's potential output
            potential: potential.collect(),
            intensity,
        }
    }

    /// Monte Carlo simulation with any of the three weight-generation
    /// classes, on the batched columnar path (see
    /// [`maut_sense::montecarlo`]; results are seed-deterministic).
    /// Stateless: always a fresh full run.
    pub fn monte_carlo(&self, config: MonteCarloConfig) -> MonteCarloResult {
        self.simulation(config).run_ctx(&self.ctx)
    }

    fn simulation(&self, config: MonteCarloConfig) -> MonteCarlo {
        MonteCarlo::new(config, self.mc_trials, self.mc_seed)
    }

    /// Run the complete Section IV + V pipeline against the shared
    /// context. Fails only on LP solver breakdown (see
    /// [`AnalysisEngine::potentially_optimal`]).
    pub fn analyze(&mut self) -> Result<Analysis, LpError> {
        let discard = self.discard_cycle()?;
        let monte_carlo = self.monte_carlo(MonteCarloConfig::ElicitedIntervals);
        Ok(self.finish_analysis(discard, monte_carlo))
    }

    /// [`AnalysisEngine::analyze`] for the what-if loop: the discard
    /// stage runs through [`AnalysisEngine::discard_cycle_incremental`]
    /// (pair-level re-optimization after `set_perf`, full-recompute
    /// fallback when the dirty set is empty-of-cache / weight-wide / too
    /// large), the evaluation stage through the context's own row-level
    /// cache, and Monte Carlo through
    /// [`maut_sense::MonteCarlo::rerun_ctx`], which after `set_perf`
    /// recounts only the alternatives whose pair order the edit can
    /// change (and draws nothing when there are none). Monte Carlo runs
    /// in full on the first call, after a weight edit or a change of
    /// trials or seed, and after any run with a draw outside the
    /// elicited box. Stability is a whole-model scan and always
    /// recomputes. Every result equals [`AnalysisEngine::analyze`]'s on
    /// the same model (Monte Carlo counts exactly).
    pub fn analyze_incremental(&mut self) -> Result<Analysis, LpError> {
        let discard = self.discard_cycle_incremental()?;
        let monte_carlo = self
            .simulation(MonteCarloConfig::ElicitedIntervals)
            .rerun_ctx(&self.ctx, &mut self.mc_cache);
        Ok(self.finish_analysis(discard, monte_carlo))
    }

    fn finish_analysis(
        &mut self,
        discard: DiscardCycle,
        monte_carlo: MonteCarloResult,
    ) -> Analysis {
        Analysis {
            evaluation: Evaluation::clone(&self.evaluate()),
            stability: self.stability_all(StabilityMode::BestAlternative),
            non_dominated: discard.non_dominated,
            potential: discard.potential,
            intensity: discard.intensity,
            monte_carlo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_reuse::paper_model;

    fn engine() -> AnalysisEngine {
        let mut e = AnalysisEngine::new(paper_model().model).expect("paper model is valid");
        e.set_mc_trials(500).unwrap(); // keep unit tests quick; benches run the full 10k
        e
    }

    #[test]
    fn evaluate_matches_eager_path() {
        let mut e = engine();
        let eager = maut::evaluate::evaluate_scope(e.model(), e.model().tree.root());
        assert_eq!(*e.evaluate(), eager);
        assert_eq!(e.evaluate().ranking()[0].name, "Media Ontology");
        // The second call is a cache hit, not a recomputation.
        assert_eq!(e.stats().cold_evaluations, 1);
        assert!(e.stats().cache_hits >= 1);
    }

    #[test]
    fn rank_by_understandability_exists() {
        let mut e = engine();
        let eval = e.rank_by("understandability").expect("objective exists");
        let best = &eval.ranking()[0];
        assert!(best.bounds.avg <= 1.0 + maut::ORDERING_EPS);
        assert!(e.rank_by("nonexistent").is_none());
    }

    #[test]
    fn full_analysis_runs_against_one_context() {
        let mut e = engine();
        let a = e.analyze().expect("solver healthy");
        assert_eq!(a.evaluation.bounds.len(), 23);
        assert_eq!(a.stability.len(), e.model().tree.len() - 1);
        assert!(!a.non_dominated.is_empty());
        assert_eq!(a.potential.len(), 23);
        assert_eq!(a.intensity.len(), 23);
        assert_eq!(a.monte_carlo.trials, 500);
        let d = a.discarded();
        let s = a.survivors();
        assert!(d.len() + s.len() <= 23);
        for i in &s {
            assert!(!d.contains(i));
        }
        // The whole pipeline shares one context: exactly one cold
        // evaluation happened.
        assert_eq!(e.stats().cold_evaluations, 1);
    }

    #[test]
    fn incremental_what_if_loop() {
        let mut e = engine();
        let before = e.evaluate();
        // What if Kanzaki Music's documentation were excellent?
        let kanzaki = e
            .model()
            .alternatives
            .iter()
            .position(|n| n == "Kanzaki Music")
            .expect("present");
        let doc = e.model().find_attribute("doc_quality").expect("exists");
        e.set_perf(kanzaki, doc, Perf::level(3))
            .expect("valid level");
        let after = e.evaluate();
        assert!(after.bounds[kanzaki].avg >= before.bounds[kanzaki].avg);
        // Only Kanzaki's row was re-scored.
        assert_eq!(e.stats().rows_recomputed, 1);
        // And the incremental state matches a fresh engine on the mutated
        // model, for every analysis.
        let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
        fresh.set_mc_trials(e.mc_trials()).unwrap();
        assert_eq!(after, fresh.evaluate());
        assert_eq!(e.non_dominated(), fresh.non_dominated());
        assert_eq!(
            e.potentially_optimal().expect("solver healthy"),
            fresh.potentially_optimal().expect("solver healthy")
        );
    }

    fn assert_cycles_agree(a: &DiscardCycle, b: &DiscardCycle) {
        assert_eq!(a.non_dominated, b.non_dominated);
        assert_eq!(a.potential.len(), b.potential.len());
        for (x, y) in a.potential.iter().zip(&b.potential) {
            assert_eq!(
                x.potentially_optimal, y.potentially_optimal,
                "{x:?} vs {y:?}"
            );
            assert!((x.slack - y.slack).abs() < 1e-7, "{x:?} vs {y:?}");
        }
        assert_eq!(a.intensity, b.intensity);
    }

    #[test]
    fn incremental_discard_cycle_tracks_edits() {
        let mut e = engine();
        // First call: no cache yet — full recompute, cache primed.
        let first = e.discard_cycle_incremental().expect("solver healthy");
        assert_cycles_agree(&first, &e.discard_cycle().expect("solver healthy"));

        // Edit one cell; the incremental cycle must equal a full one on
        // the edited model.
        let doc = e.model().find_attribute("doc_quality").expect("exists");
        e.set_perf(3, doc, Perf::level(3)).expect("valid level");
        let incr = e.discard_cycle_incremental().expect("solver healthy");
        let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
        assert_cycles_agree(&incr, &fresh.discard_cycle_incremental().expect("healthy"));

        // No further edits: answered from cache without new LP solves.
        let solves_before = e.lp_stats().solves;
        let cached = e.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(e.lp_stats().solves, solves_before);
        assert_cycles_agree(&incr, &cached);
    }

    #[test]
    fn incremental_discard_cycle_falls_back_after_weight_edits() {
        let mut e = engine();
        e.discard_cycle_incremental().expect("solver healthy");
        let understandability = e.model().tree.find("understandability").expect("exists");
        e.set_weight(understandability, Interval::new(0.1, 0.3))
            .expect("feasible");
        let incr = e.discard_cycle_incremental().expect("solver healthy");
        let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
        assert_cycles_agree(&incr, &fresh.discard_cycle_incremental().expect("healthy"));
    }

    fn assert_analyses_agree(incr: &Analysis, full: &Analysis) {
        assert_eq!(incr.evaluation, full.evaluation);
        assert_eq!(incr.non_dominated, full.non_dominated);
        assert_eq!(incr.intensity, full.intensity);
        for (a, b) in incr.potential.iter().zip(&full.potential) {
            assert_eq!(a.potentially_optimal, b.potentially_optimal);
            assert!((a.slack - b.slack).abs() < 1e-7);
        }
        let (a, b) = (&incr.monte_carlo, &full.monte_carlo);
        assert_eq!(a.rank_counts(), b.rank_counts());
        let bits = |r: &MonteCarloResult| -> Vec<[u64; 5]> {
            let stats = r.stats.iter();
            stats
                .map(|s| [s.p25, s.median, s.p75, s.mean, s.std_dev].map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn analyze_incremental_matches_full_analyze() {
        // Reruns after zero to three edits each: one-cell what-ifs, a
        // no-op edit, edits back to an earlier level, and a weight edit
        // in mid-sequence, at a trial count that leaves a partial block.
        let mut e = engine();
        e.set_mc_trials(301).unwrap();
        let cell = |e: &AnalysisEngine, name: &str, attr: &str| {
            let alt = e.model().alternatives.iter().position(|n| n == name);
            let attr = e.model().find_attribute(attr);
            (alt.expect("present"), attr.expect("exists"))
        };
        let (kanzaki, doc) = cell(&e, "Kanzaki Music", "doc_quality");
        let (media, financ) = cell(&e, "Media Ontology", "financ_cost");
        let was = e.model().perf.get(kanzaki, doc.index());
        let understandability = e.model().tree.find("understandability").expect("exists");
        let steps: Vec<Vec<(usize, maut::AttributeId, Perf)>> = vec![
            vec![],
            vec![(kanzaki, doc, Perf::level(3))],
            vec![],
            vec![(kanzaki, doc, Perf::level(3))],
            vec![(media, financ, Perf::level(0)), (kanzaki, doc, was)],
            vec![
                (kanzaki, doc, Perf::level(3)),
                (media, doc, Perf::level(0)),
                (kanzaki, doc, was),
            ],
            vec![(media, financ, Perf::level(2))],
        ];
        for (step, edits) in steps.into_iter().enumerate() {
            if step == 3 {
                e.set_weight(understandability, Interval::new(0.1, 0.3))
                    .expect("feasible");
            }
            for (alt, attr, perf) in edits {
                e.set_perf(alt, attr, perf).expect("valid");
            }
            let incr = e.analyze_incremental().expect("solver healthy");
            let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
            fresh.set_mc_trials(e.mc_trials()).unwrap();
            assert_analyses_agree(&incr, &fresh.analyze().expect("solver healthy"));
        }
    }

    #[test]
    fn weight_fallback_reuses_the_one_interval_buffer() {
        let mut e = engine();
        let n = e.model().num_alternatives();
        e.discard_cycle_incremental().expect("solver healthy");
        let buffer = |e: &AnalysisEngine| {
            let cache = e.cycle_cache.as_ref().expect("cycle cached");
            let minima = cache.intervals.minima();
            (minima.as_ptr(), minima.len(), cache.intervals.capacity())
        };
        let before = buffer(&e);
        assert_eq!(before.1, n * n);
        let u = e.model().tree.find("understandability").expect("exists");
        e.set_weight(u, Interval::new(0.1, 0.3)).expect("feasible");
        let cycle = e.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(
            e.cycle_stats().full,
            2,
            "the weight edit forced a full cycle"
        );
        // Exactly one n·n buffer, rewritten in its own allocation.
        assert_eq!(buffer(&e), before);
        let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
        assert_cycles_agree(&cycle, &fresh.discard_cycle_incremental().expect("healthy"));
    }

    #[test]
    fn cycle_stats_track_incremental_vs_full() {
        let mut e = engine();
        assert_eq!(e.cycle_stats(), CycleStats::default());
        // First call: no cache — full.
        e.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(e.cycle_stats().full, 1);
        assert_eq!(e.cycle_stats().incremental, 0);
        // Pure cache hit and a one-cell edit: both incremental.
        e.discard_cycle_incremental().expect("solver healthy");
        let doc = e.model().find_attribute("doc_quality").expect("exists");
        e.set_perf(3, doc, Perf::level(3)).expect("valid level");
        e.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(e.cycle_stats().incremental, 2);
        // Weight edit: every pair invalidated — full recompute.
        let u = e.model().tree.find("understandability").expect("exists");
        e.set_weight(u, Interval::new(0.1, 0.3)).expect("feasible");
        e.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(
            e.cycle_stats(),
            CycleStats {
                incremental: 2,
                full: 2
            }
        );
        assert_eq!(e.cycle_stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn cloned_engine_starts_with_fresh_stats() {
        // The serving layer snapshots sessions through `model()` + serde,
        // never through `Clone` — but `AnalysisEngine` is `Clone`, so the
        // PR-4 guarantee must hold at this level too: a clone gets a fresh
        // LP workspace (zeroed SolveStats) *and*
        // zeroed CycleStats, not a copy that mis-attributes the parent's
        // pivots or cycles to an engine that has served nothing.
        let mut e = engine();
        e.discard_cycle_incremental().expect("solver healthy");
        assert!(e.lp_stats().solves > 0);
        assert_eq!(e.cycle_stats().full, 1);
        let clone = e.clone();
        assert_eq!(
            clone.lp_stats(),
            maut_sense::simplex_lp::SolveStats::default()
        );
        assert_eq!(clone.cycle_stats(), CycleStats::default());
        // The cycle cache *is* carried over (it is model state, not
        // accounting), so the clone's next incremental cycle still hits.
        let mut clone = clone;
        clone.discard_cycle_incremental().expect("solver healthy");
        assert_eq!(
            clone.cycle_stats(),
            CycleStats {
                incremental: 1,
                full: 0
            }
        );
    }

    #[test]
    fn batch_evaluate_matches_full() {
        let mut e = engine();
        let full = e.evaluate();
        let batch = e.batch_evaluate(&[5, 0, 22]);
        assert_eq!(batch[0], full.bounds[5]);
        assert_eq!(batch[1], full.bounds[0]);
        assert_eq!(batch[2], full.bounds[22]);
    }

    #[test]
    fn zero_trials_is_a_typed_error_not_a_panic() {
        let mut e = engine();
        let before = e.mc_trials();
        assert_eq!(e.set_mc_trials(0), Err(ZeroTrials));
        assert_eq!(
            ZeroTrials.to_string(),
            "Monte Carlo needs at least one trial"
        );
        // The rejected count never reached the engine: both Monte Carlo
        // entry points still run, on the old count.
        assert_eq!(e.mc_trials(), before);
        let mc = e.monte_carlo(MonteCarloConfig::ElicitedIntervals);
        assert_eq!(mc.trials, before);
        assert_eq!(e.analyze().unwrap().monte_carlo.trials, before);
        e.set_mc_trials(1).unwrap();
        assert_eq!(e.analyze().unwrap().monte_carlo.trials, 1);
    }

    #[test]
    fn monte_carlo_is_thread_count_invariant() {
        // One sequential run on the calling thread, equal to the scalar
        // reference.
        let e = engine();
        let reference = MonteCarlo::new(
            MonteCarloConfig::ElicitedIntervals,
            e.mc_trials(),
            e.mc_seed,
        )
        .run_scalar_ctx(e.context());
        assert_eq!(
            e.monte_carlo(MonteCarloConfig::ElicitedIntervals)
                .rank_counts(),
            reference.rank_counts()
        );
    }

    #[test]
    fn paper_headline_shape_holds() {
        let mut e = engine();
        let a = e.analyze().expect("solver healthy");
        let names: Vec<&str> = a
            .discarded()
            .iter()
            .map(|&i| e.model().alternatives[i].as_str())
            .collect();
        // The paper reports 20 of 23 potentially optimal; our reconstructed
        // matrix (narrower utility bands than the original experts') keeps
        // roughly half in play — see EXPERIMENTS.md E11 for the comparison
        // and the band-width ablation.
        assert!(
            a.survivors().len() >= 10,
            "a large share of the 23 should survive, got {}",
            a.survivors().len()
        );
        assert!(
            names.contains(&"Kanzaki Music") || names.contains(&"Photography Ontology"),
            "the bottom candidates should be discarded, got {names:?}"
        );
    }
}
