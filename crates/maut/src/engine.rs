//! The shared evaluation context behind every analysis.
//!
//! GMAA is an *interactive* system: the analyst evaluates the model, then
//! repeatedly re-ranks subtrees (Fig 7), perturbs weights (Fig 8), runs
//! dominance / potential-optimality checks and Monte Carlo simulations
//! (Figs 9–10) — all against the *same* model. Each of those analyses needs
//! the same derived data:
//!
//! * the **component-utility band matrix** — one interval per
//!   alternative × attribute cell, held once as the columnar
//!   [`BandMatrixSoA`] (lower / midpoint / upper projections, consumed by
//!   dominance, ranking and Monte Carlo respectively);
//! * the **multiplied-down weight bounds** per attribute (the Fig 5
//!   triples), per evaluation scope;
//! * the **objective-subtree index** — which attributes sit under which
//!   objective.
//!
//! [`EvalContext`] computes all of that once, caches evaluations per scope,
//! and supports *incremental* mutation: [`EvalContext::set_perf`] touches a
//! single matrix cell and marks only that alternative's cached bounds
//! dirty, [`EvalContext::set_weight`] recomputes the weight side while
//! keeping the (much larger) band matrix intact. The stateless
//! [`crate::evaluate::evaluate_scope`] reference rebuilds everything from
//! scratch on every call; hold a context anywhere evaluation repeats.
//!
//! ## Pair-level dirty tracking for the analyses
//!
//! Beyond the per-scope evaluation cache, the context keeps a second,
//! coarser dirty set for the *pairwise* analyses (dominance intervals,
//! potential optimality): the set of alternatives whose band rows changed
//! since the last [`EvalContext::take_analysis_dirty`], plus a flag for
//! weight-side changes (which invalidate every pair at once, since the
//! polytope moved). Invariants:
//!
//! * every successful [`EvalContext::set_perf`] adds its alternative to
//!   the set; rejected mutations add nothing;
//! * every successful [`EvalContext::set_weight`] raises the weight flag
//!   (and, as before, rebuilds the polytope);
//! * `take_analysis_dirty` drains both atomically, so a consumer that
//!   updates its cached analysis by exactly the drained delta (the
//!   `gmaa::AnalysisEngine` incremental discard cycle) stays coherent
//!   with the context no matter how edits interleave.
//!
//! ```
//! use maut::prelude::*;
//!
//! let mut b = DecisionModelBuilder::new("Buy a laptop");
//! let price = b.continuous_attribute("price", "Price", 500.0, 2000.0, Direction::Decreasing);
//! let battery = b.discrete_attribute("battery", "Battery life", &["poor", "ok", "great"]);
//! b.attach_attributes_to_root(&[
//!     (price, Interval::new(0.4, 0.6)),
//!     (battery, Interval::new(0.4, 0.6)),
//! ]);
//! b.alternative("A", vec![Perf::value(900.0), Perf::level(2)]);
//! b.alternative("B", vec![Perf::value(1500.0), Perf::level(1)]);
//!
//! let mut ctx = EvalContext::new(b.build().unwrap()).unwrap();
//! assert_eq!(ctx.evaluate().ranking()[0].name, "A");
//!
//! // What if B's battery turns out to be great? One cell changes; only
//! // B's cached bounds are recomputed.
//! let battery = ctx.model().find_attribute("battery").unwrap();
//! ctx.set_perf(1, battery, Perf::level(2)).unwrap();
//! let eval = ctx.evaluate();
//! assert!(eval.bounds[1].avg > eval.bounds[0].avg - 1.0);
//! ```

use crate::error::ModelError;
use crate::evaluate::{Evaluation, UtilityBounds};
use crate::hierarchy::ObjectiveId;
use crate::interval::Interval;
use crate::model::{AttributeId, DecisionModel};
use crate::perf::Perf;
use crate::soa::BandMatrixSoA;
use crate::weights::{self, AttributeWeights};
use simplex_lp::{SolveStats, SolverWorkspace, WeightPolytope};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters describing how much work the context has saved; exposed so
/// tests and benches can assert the incremental paths actually run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Evaluations computed from scratch (first touch of a scope, or after
    /// a weight change).
    pub cold_evaluations: usize,
    /// Evaluations answered from cache after refreshing only dirty rows.
    pub incremental_refreshes: usize,
    /// Evaluations answered straight from cache with nothing dirty.
    pub cache_hits: usize,
    /// Individual alternative rows re-scored by incremental refreshes.
    pub rows_recomputed: usize,
}

/// Precomputed, incrementally-maintained evaluation state for one
/// [`DecisionModel`]. See the module docs for the design rationale.
#[derive(Debug)]
pub struct EvalContext {
    model: DecisionModel,
    /// Component-utility band matrix, stored as its three projections
    /// (the shapes the analyses actually consume) in per-attribute
    /// contiguous columns: lower bounds (dominance / potential
    /// optimality), midpoints (ranking / Monte Carlo), upper bounds. The
    /// only copy: [`EvalContext::set_perf`] patches its cell here and
    /// every evaluation and analysis reads it.
    soa: BandMatrixSoA,
    /// Resolved local weight interval per objective node.
    local: Vec<Interval>,
    /// Normalized average local weight per objective node.
    node_avgs: Vec<f64>,
    /// Flattened weight triples per scope (root precomputed, subtrees
    /// filled on first use).
    scope_weights: BTreeMap<usize, AttributeWeights>,
    /// Objective-subtree index: attributes under each objective node.
    subtree_attrs: Vec<Vec<AttributeId>>,
    /// Cached evaluation plus the set of alternatives whose bounds are
    /// stale, per scope. Shared via `Arc` so cache hits on the serving
    /// path hand out a pointer instead of cloning 23 name strings.
    eval_cache: BTreeMap<usize, (Arc<Evaluation>, BTreeSet<usize>)>,
    /// The root-scope weight polytope `{low ≤ w ≤ upp, Σw = 1}` every
    /// dominance / potential-optimality / intensity sweep optimizes over.
    /// Derived purely from the weight side: `set_weight` rebuilds it,
    /// `set_perf` leaves it untouched.
    polytope: WeightPolytope,
    /// Shared LP solver workspace: the potential-optimality loop reuses
    /// its tableau buffers for every alternative's LP and reads the solve
    /// counters off it. Behind a mutex because analyses take
    /// `&EvalContext`. Each LP starts from a closed form, so no state in
    /// it outlives a solve loop and nothing needs invalidating.
    lp_workspace: Mutex<SolverWorkspace>,
    /// Pair-level invalidation state for the incremental discard cycle:
    /// alternatives whose band rows changed since the last
    /// [`EvalContext::take_analysis_dirty`]. Only rows/columns of these
    /// alternatives in the dominance / intensity matrices — and only
    /// their (and their dependents') potential-optimality LPs — need
    /// re-optimizing.
    analysis_dirty: BTreeSet<usize>,
    /// Whether the weight side changed since the last take: a new
    /// polytope invalidates *every* pair, so consumers must fall back to
    /// a full recompute.
    weights_dirty: bool,
    stats: EngineStats,
}

impl Clone for EvalContext {
    fn clone(&self) -> EvalContext {
        EvalContext {
            model: self.model.clone(),
            soa: self.soa.clone(),
            local: self.local.clone(),
            node_avgs: self.node_avgs.clone(),
            scope_weights: self.scope_weights.clone(),
            subtree_attrs: self.subtree_attrs.clone(),
            eval_cache: self.eval_cache.clone(),
            polytope: self.polytope.clone(),
            // A fresh workspace, not a copy: the clone's SolveStats must
            // start at zero (copying would attribute the parent's pivots
            // to the clone).
            lp_workspace: Mutex::new(SolverWorkspace::new()),
            analysis_dirty: self.analysis_dirty.clone(),
            weights_dirty: self.weights_dirty,
            stats: self.stats,
        }
    }
}

impl EvalContext {
    /// Validate the model and precompute every shared matrix.
    pub fn new(model: DecisionModel) -> Result<EvalContext, ModelError> {
        model.validate()?;
        let soa = BandMatrixSoA::new(&model);
        let local = model.resolved_local_weights();
        let node_avgs = weights::normalized_averages(&model.tree, &local);
        let subtree_attrs = (0..model.tree.len())
            .map(|k| model.tree.attributes_under(ObjectiveId::from_index(k)))
            .collect();

        let root_weights = weights::flatten_from(&model.tree, &local, model.tree.root());
        let polytope = polytope_of(&root_weights);
        let mut scope_weights = BTreeMap::new();
        scope_weights.insert(model.tree.root().index(), root_weights);
        Ok(EvalContext {
            model,
            soa,
            local,
            node_avgs,
            scope_weights,
            subtree_attrs,
            eval_cache: BTreeMap::new(),
            polytope,
            lp_workspace: Mutex::new(SolverWorkspace::new()),
            analysis_dirty: BTreeSet::new(),
            weights_dirty: false,
            stats: EngineStats::default(),
        })
    }

    // ------------------------------------------------------------ accessors

    /// The model as currently mutated (edits are applied in place, so
    /// this is also the state a snapshot should serialize).
    pub fn model(&self) -> &DecisionModel {
        &self.model
    }

    /// Give the model back, consuming the context.
    pub fn into_model(self) -> DecisionModel {
        self.model
    }

    /// Cache / incremental-work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The band matrix (per-attribute contiguous lo / mid / hi columns),
    /// patched in place by [`EvalContext::set_perf`]. Every analysis
    /// reads it; see [`crate::soa`] for the layout.
    pub fn soa(&self) -> &BandMatrixSoA {
        &self.soa
    }

    /// Flattened weight triples over the whole hierarchy (Fig 5).
    pub fn weights(&self) -> &AttributeWeights {
        self.scope_weights
            .get(&self.model.tree.root().index())
            .expect("root precomputed")
    }

    /// Normalized average local weight per objective node.
    pub fn node_averages(&self) -> &[f64] {
        &self.node_avgs
    }

    /// The root-scope weight polytope, cached once per weight state —
    /// the feasible region of every dominance / potential-optimality /
    /// intensity optimization.
    pub fn polytope(&self) -> &WeightPolytope {
        &self.polytope
    }

    /// Exclusive access to the shared LP solver workspace (tableau
    /// buffers + solve counters). Analyses lock it once per sweep and
    /// solve on it inline.
    pub fn lp_workspace(&self) -> MutexGuard<'_, SolverWorkspace> {
        self.lp_workspace
            .lock()
            .expect("LP workspace lock poisoned")
    }

    /// Cumulative LP solve counters (solves, warm re-solves after row
    /// growth, simplex steps split cold/warm) across every analysis run
    /// against this context.
    pub fn lp_stats(&self) -> SolveStats {
        self.lp_workspace().stats()
    }

    /// Resolved local weight interval per objective node.
    pub fn local_weights(&self) -> &[Interval] {
        &self.local
    }

    /// Alternatives whose band rows changed since the last
    /// [`EvalContext::take_analysis_dirty`] — the pair-level dirty set
    /// the incremental discard cycle consumes.
    pub fn analysis_dirty(&self) -> &BTreeSet<usize> {
        &self.analysis_dirty
    }

    /// Whether the weight side changed since the last take (incremental
    /// consumers must fall back to a full recompute when set).
    pub fn weights_dirty(&self) -> bool {
        self.weights_dirty
    }

    /// Drain the pair-level invalidation state: returns the set of
    /// alternatives with changed band rows and whether the weight side
    /// changed, resetting both. The caller (typically
    /// `gmaa::AnalysisEngine`'s incremental cycle) is expected to bring
    /// its cached analysis up to date with exactly this delta.
    pub fn take_analysis_dirty(&mut self) -> (BTreeSet<usize>, bool) {
        let weights = std::mem::take(&mut self.weights_dirty);
        (std::mem::take(&mut self.analysis_dirty), weights)
    }

    /// Attributes in the subtree of `objective` (the subtree index).
    pub fn subtree_attributes(&self, objective: ObjectiveId) -> &[AttributeId] {
        &self.subtree_attrs[objective.index()]
    }

    /// Flattened weights within a subtree, cached per scope.
    pub fn weights_under(&mut self, scope: ObjectiveId) -> &AttributeWeights {
        self.cache_scope_weights(scope);
        self.scope_weights.get(&scope.index()).expect("just cached")
    }

    fn cache_scope_weights(&mut self, scope: ObjectiveId) {
        if !self.scope_weights.contains_key(&scope.index()) {
            let w = weights::flatten_from(&self.model.tree, &self.local, scope);
            self.scope_weights.insert(scope.index(), w);
        }
    }

    // ----------------------------------------------------------- evaluation

    /// Evaluate over the whole hierarchy (Fig 6), from cache when clean.
    pub fn evaluate(&mut self) -> Arc<Evaluation> {
        self.evaluate_under(self.model.tree.root())
    }

    /// Evaluate within one objective's subtree (Fig 7), from cache when
    /// clean; after [`EvalContext::set_perf`] only the dirty alternatives
    /// are re-scored.
    pub fn evaluate_under(&mut self, scope: ObjectiveId) -> Arc<Evaluation> {
        self.cache_scope_weights(scope);
        if let Some((eval, dirty)) = self.eval_cache.get_mut(&scope.index()) {
            if dirty.is_empty() {
                self.stats.cache_hits += 1;
                return Arc::clone(eval);
            }
            let rows: Vec<usize> = std::mem::take(dirty).into_iter().collect();
            let weights = self
                .scope_weights
                .get(&scope.index())
                .expect("cached above");
            let fresh = self.soa.bounds(weights, &rows);
            let entry = &mut self.eval_cache.get_mut(&scope.index()).expect("present").0;
            // Clone-on-write: only pays when a caller still holds the
            // previous snapshot.
            let eval = Arc::make_mut(entry);
            for (&i, b) in rows.iter().zip(fresh) {
                eval.bounds[i] = b;
            }
            self.stats.rows_recomputed += rows.len();
            self.stats.incremental_refreshes += 1;
            return Arc::clone(&self.eval_cache[&scope.index()].0);
        }

        let all: Vec<usize> = (0..self.model.num_alternatives()).collect();
        let bounds = self.soa.bounds(&self.scope_weights[&scope.index()], &all);
        let eval = Arc::new(Evaluation::from_parts(
            scope,
            bounds,
            self.model.alternatives.clone(),
        ));
        self.eval_cache
            .insert(scope.index(), (Arc::clone(&eval), BTreeSet::new()));
        self.stats.cold_evaluations += 1;
        eval
    }

    /// Score a batch of alternatives under one scope without touching the
    /// evaluation cache — the bulk path for scoring many candidates at
    /// once (returns bounds in the order requested), run over the
    /// columnar band matrix on the calling thread.
    pub fn batch_evaluate(
        &mut self,
        scope: ObjectiveId,
        alternatives: &[usize],
    ) -> Vec<UtilityBounds> {
        self.cache_scope_weights(scope);
        self.soa
            .bounds(&self.scope_weights[&scope.index()], alternatives)
    }

    /// Score every alternative with a fixed flat weight vector over band
    /// midpoints — one Monte Carlo trial against the columnar matrix.
    pub fn score_with_weights(&self, flat_weights: &[f64]) -> Vec<f64> {
        self.soa.score(flat_weights)
    }

    // ------------------------------------------------------------- mutation

    /// Change one performance cell and dirty-track exactly that
    /// alternative: the band matrix is patched in place and every cached
    /// evaluation re-scores only this row on its next read.
    pub fn set_perf(
        &mut self,
        alternative: usize,
        attr: AttributeId,
        perf: Perf,
    ) -> Result<(), ModelError> {
        // check_perf range-checks both indices before validating the cell.
        self.model.check_perf(alternative, attr, perf)?;
        self.model.perf.set(alternative, attr.index(), perf);

        let band = self.model.utility_band(alternative, attr);
        self.soa
            .set_cell(alternative, attr.index(), band.lo(), band.mid(), band.hi());

        // Dirty only the scopes whose subtree actually contains the
        // changed attribute (the subtree index answers that directly);
        // other cached evaluations are untouched by this cell.
        for (&scope, (_, dirty)) in self.eval_cache.iter_mut() {
            if self.subtree_attrs[scope].contains(&attr) {
                dirty.insert(alternative);
            }
        }
        // Pair-level invalidation for the analyses: every dominance /
        // intensity pair involving this alternative and its potential-
        // optimality LP are now stale (the analyses all run at root
        // scope, which covers every attribute).
        self.analysis_dirty.insert(alternative);
        Ok(())
    }

    /// Change one objective's local weight interval. The weight side
    /// (local resolution, node averages, flattened triples, cached
    /// evaluations) is recomputed; the band matrix — the expensive part —
    /// is untouched.
    pub fn set_weight(
        &mut self,
        objective: ObjectiveId,
        weight: Interval,
    ) -> Result<(), ModelError> {
        if objective == self.model.tree.root() {
            return Err(ModelError::InvalidMutation(
                "the root objective carries no local weight".to_string(),
            ));
        }
        let previous = self.model.local_weights[objective.index()];
        self.model.local_weights[objective.index()] = Some(weight);
        let local = self.model.resolved_local_weights();
        if let Err(parent) = weights::check_feasible(&self.model.tree, &local) {
            self.model.local_weights[objective.index()] = previous;
            return Err(ModelError::InfeasibleWeights { objective: parent });
        }
        self.local = local;
        self.node_avgs = weights::normalized_averages(&self.model.tree, &self.local);
        self.scope_weights.clear();
        self.eval_cache.clear();
        self.cache_scope_weights(self.model.tree.root());
        // The polytope is a pure function of the weight side.
        self.polytope = polytope_of(self.weights());
        self.weights_dirty = true;
        Ok(())
    }
}

/// The weight polytope implied by flattened weight triples. The flattening
/// normalizes sibling groups, so the box always intersects the simplex.
fn polytope_of(weights: &AttributeWeights) -> WeightPolytope {
    WeightPolytope::new(&weights.lows(), &weights.upps())
        .expect("flattened weight intervals always intersect the simplex")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DecisionModelBuilder;
    use crate::scale::Direction;

    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let g = b.objective_under_root("g", "G", Interval::new(0.5, 0.7));
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attribute(g, x, Interval::new(0.4, 0.6));
        b.attach_attribute(g, y, Interval::new(0.4, 0.6));
        let z = b.continuous_attribute("z", "Z", 0.0, 10.0, Direction::Increasing);
        b.attach_attributes_to_root(&[(z, Interval::new(0.3, 0.5))]);
        b.alternative("a", vec![Perf::level(2), Perf::level(1), Perf::value(5.0)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(2), Perf::value(9.0)]);
        b.alternative("c", vec![Perf::level(1), Perf::Missing, Perf::value(1.0)]);
        b.build().unwrap()
    }

    /// From-scratch reference evaluation (the kernel the cache must match).
    fn eager(m: &DecisionModel) -> Arc<Evaluation> {
        Arc::new(crate::evaluate::evaluate_scope(m, m.tree.root()))
    }

    #[test]
    fn context_matches_eager_evaluation() {
        let m = model();
        let from_scratch = eager(&m);
        let mut ctx = EvalContext::new(m).unwrap();
        let eval = ctx.evaluate();
        assert_eq!(eval, from_scratch);
        assert_eq!(ctx.stats().cold_evaluations, 1);
    }

    #[test]
    fn second_evaluate_is_a_cache_hit() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let a = ctx.evaluate();
        let b = ctx.evaluate();
        assert_eq!(a, b);
        assert_eq!(ctx.stats().cold_evaluations, 1);
        assert_eq!(ctx.stats().cache_hits, 1);
    }

    #[test]
    fn subtree_evaluation_matches_eager_and_caches() {
        let m = model();
        let g = m.tree.find("g").unwrap();
        let from_scratch = Arc::new(crate::evaluate::evaluate_scope(&m, g));
        let mut ctx = EvalContext::new(m).unwrap();
        assert_eq!(ctx.evaluate_under(g), from_scratch);
        ctx.evaluate_under(g);
        assert_eq!(ctx.stats().cache_hits, 1);
    }

    #[test]
    fn set_perf_refreshes_only_the_touched_row() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let before = ctx.evaluate();
        let y = ctx.model().find_attribute("y").unwrap();
        ctx.set_perf(2, y, Perf::level(2)).unwrap();
        let after = ctx.evaluate();
        assert_eq!(ctx.stats().incremental_refreshes, 1);
        assert_eq!(ctx.stats().rows_recomputed, 1);
        // Rows 0 and 1 are untouched, row 2 improved.
        assert_eq!(after.bounds[0], before.bounds[0]);
        assert_eq!(after.bounds[1], before.bounds[1]);
        assert!(after.bounds[2].avg > before.bounds[2].avg);
        // And the incremental result matches a from-scratch context.
        let fresh = EvalContext::new(ctx.model().clone())
            .unwrap()
            .evaluate_cold();
        assert_eq!(after, fresh);
    }

    #[test]
    fn set_perf_validates_the_cell() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let x = ctx.model().find_attribute("x").unwrap();
        let z = ctx.model().find_attribute("z").unwrap();
        assert!(ctx.set_perf(0, x, Perf::level(9)).is_err());
        assert!(ctx.set_perf(0, z, Perf::value(99.0)).is_err());
        assert!(ctx.set_perf(0, x, Perf::value(0.5)).is_err());
        assert!(ctx.set_perf(9, x, Perf::level(1)).is_err());
        // Failed mutations leave the context unchanged.
        let fresh = EvalContext::new(ctx.model().clone())
            .unwrap()
            .evaluate_cold();
        assert_eq!(ctx.evaluate(), fresh);
    }

    #[test]
    fn set_weight_recomputes_weight_side() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let before = ctx.evaluate();
        let g = ctx.model().tree.find("g").unwrap();
        ctx.set_weight(g, Interval::new(0.5, 0.9)).unwrap();
        let after = ctx.evaluate();
        assert_ne!(before, after);
        // Matches a context built from the mutated model.
        let fresh = EvalContext::new(ctx.model().clone())
            .unwrap()
            .evaluate_cold();
        assert_eq!(after, fresh);
    }

    #[test]
    fn set_weight_rejects_root_and_infeasible() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let root = ctx.model().tree.root();
        assert!(ctx.set_weight(root, Interval::point(1.0)).is_err());
        // Sibling lows of g (0.8) and z (0.3) exceed 1: infeasible.
        let g = ctx.model().tree.find("g").unwrap();
        assert!(ctx.set_weight(g, Interval::new(0.8, 0.9)).is_err());
        // The rejected write rolled back.
        let fresh = EvalContext::new(ctx.model().clone())
            .unwrap()
            .evaluate_cold();
        assert_eq!(ctx.evaluate(), fresh);
    }

    #[test]
    fn batch_evaluate_matches_full_evaluation() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let full = ctx.evaluate();
        let root = ctx.model().tree.root();
        let batch = ctx.batch_evaluate(root, &[2, 0]);
        assert_eq!(batch[0], full.bounds[2]);
        assert_eq!(batch[1], full.bounds[0]);
    }

    #[test]
    fn set_perf_keeps_soa_columns_coherent() {
        // A stale column is exactly the bug this guards against: the
        // edited cell must reach the columns, and the next batch_evaluate
        // must see it.
        let mut ctx = EvalContext::new(model()).unwrap();
        let root = ctx.model().tree.root();
        let before = ctx.batch_evaluate(root, &[0, 1, 2]);
        let y = ctx.model().find_attribute("y").unwrap();
        ctx.set_perf(2, y, Perf::level(2)).unwrap();
        let after = ctx.batch_evaluate(root, &[0, 1, 2]);
        assert_eq!(after[0], before[0]);
        assert_eq!(after[1], before[1]);
        assert!(after[2].avg > before[2].avg, "stale SoA column");
        // And the patched columns agree cell-for-cell with a context built
        // fresh from the mutated model.
        let fresh = EvalContext::new(ctx.model().clone()).unwrap();
        assert_eq!(ctx.soa(), fresh.soa());
    }

    #[test]
    fn score_with_weights_matches_model_path() {
        let ctx = EvalContext::new(model()).unwrap();
        let w = ctx.weights().avgs();
        assert_eq!(
            ctx.score_with_weights(&w),
            ctx.model().score_with_weights(&w)
        );
    }

    #[test]
    fn subtree_index_is_precomputed() {
        let ctx = EvalContext::new(model()).unwrap();
        let g = ctx.model().tree.find("g").unwrap();
        assert_eq!(ctx.subtree_attributes(g).len(), 2);
        assert_eq!(ctx.subtree_attributes(ctx.model().tree.root()).len(), 3);
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut m = model();
        m.perf.set(0, 0, Perf::level(9));
        assert!(EvalContext::new(m).is_err());
    }

    #[test]
    fn polytope_tracks_the_weight_side() {
        let mut ctx = EvalContext::new(model()).unwrap();
        let w = ctx.weights().clone();
        assert_eq!(ctx.polytope().lower(), &w.lows()[..]);
        assert_eq!(ctx.polytope().upper(), &w.upps()[..]);
        // set_perf never touches the polytope…
        let y = ctx.model().find_attribute("y").unwrap();
        let before = ctx.polytope().clone();
        ctx.set_perf(0, y, Perf::level(2)).unwrap();
        assert_eq!(*ctx.polytope(), before);
        // …set_weight rebuilds it.
        let g = ctx.model().tree.find("g").unwrap();
        ctx.set_weight(g, Interval::new(0.5, 0.9)).unwrap();
        let fresh = EvalContext::new(ctx.model().clone()).unwrap();
        assert_eq!(ctx.polytope(), fresh.polytope());
        assert_ne!(*ctx.polytope(), before);
    }

    #[test]
    fn cloned_context_gets_a_fresh_lp_workspace() {
        // Regression: a clone must start with zeroed SolveStats — a
        // copied workspace attributed the parent's pivots to the clone.
        let ctx = EvalContext::new(model()).unwrap();
        let solve = |c: &EvalContext| {
            let m = c.polytope().dim();
            let row: Vec<f64> = (0..m).map(|j| 0.5 - j as f64 / m as f64).collect();
            let mut ws = c.lp_workspace();
            ws.start(c.polytope(), &vec![0.0; m]);
            ws.push_row(&row);
            ws.solve().unwrap()
        };
        let t = solve(&ctx);
        assert_eq!(ctx.lp_stats().solves, 1);

        let cloned = ctx.clone();
        assert_eq!(cloned.lp_stats(), simplex_lp::SolveStats::default());
        assert_eq!(solve(&cloned), t);
        assert_eq!(cloned.lp_stats().solves, 1);
        // And the workspaces stay independent afterwards.
        solve(&ctx);
        assert_eq!(ctx.lp_stats().solves, 2);
        assert_eq!(cloned.lp_stats().solves, 1);
    }

    #[test]
    fn set_perf_tracks_the_pair_level_dirty_set() {
        let mut ctx = EvalContext::new(model()).unwrap();
        assert!(ctx.analysis_dirty().is_empty());
        let y = ctx.model().find_attribute("y").unwrap();
        ctx.set_perf(2, y, Perf::level(2)).unwrap();
        ctx.set_perf(0, y, Perf::level(0)).unwrap();
        assert_eq!(
            ctx.analysis_dirty().iter().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(!ctx.weights_dirty());
        // A rejected mutation adds nothing.
        assert!(ctx.set_perf(0, y, Perf::level(9)).is_err());
        assert_eq!(ctx.analysis_dirty().len(), 2);

        let (dirty, weights) = ctx.take_analysis_dirty();
        assert_eq!(dirty.len(), 2);
        assert!(!weights);
        assert!(ctx.analysis_dirty().is_empty());

        let g = ctx.model().tree.find("g").unwrap();
        ctx.set_weight(g, Interval::new(0.5, 0.9)).unwrap();
        assert!(ctx.weights_dirty());
        let (dirty, weights) = ctx.take_analysis_dirty();
        assert!(dirty.is_empty());
        assert!(weights);
        assert!(!ctx.weights_dirty());
    }

    #[test]
    fn set_perf_leaves_unrelated_scope_caches_clean() {
        // Scope-restricted invalidation: editing an attribute outside a
        // cached subtree must not dirty that subtree's evaluation — the
        // next read stays a pure cache hit with zero rows re-scored.
        let mut ctx = EvalContext::new(model()).unwrap();
        let g = ctx.model().tree.find("g").unwrap(); // covers x, y only
        ctx.evaluate_under(g);
        let z = ctx.model().find_attribute("z").unwrap(); // root-only attr
        ctx.set_perf(1, z, Perf::value(2.0)).unwrap();
        let rows_before = ctx.stats().rows_recomputed;
        let hits_before = ctx.stats().cache_hits;
        ctx.evaluate_under(g);
        assert_eq!(ctx.stats().cache_hits, hits_before + 1);
        assert_eq!(ctx.stats().rows_recomputed, rows_before);
        // ...and the subtree evaluation still matches a fresh context.
        let fresh = Arc::new(crate::evaluate::evaluate_scope(&ctx.model().clone(), g));
        assert_eq!(ctx.evaluate_under(g), fresh);
    }

    impl EvalContext {
        /// Test helper: evaluate without consulting the cache counters.
        fn evaluate_cold(mut self) -> Arc<Evaluation> {
            self.evaluate()
        }
    }
}
