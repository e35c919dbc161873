//! Weight stability intervals (paper Fig 8).
//!
//! For any objective at any level of the hierarchy, GMAA computes *"the
//! interval where the average normalized weight for the considered objective
//! can vary without affecting the overall ranking of alternatives or just
//! the best-ranked alternative"*. When the target's average weight moves to
//! `w`, its siblings' averages are rescaled proportionally so the group
//! still sums to 1, and everything below each node keeps its internal
//! distribution.
//!
//! Under that rescaling every alternative's average score is affine in
//! `w`. A leaf under the target weighs `P·w`. A leaf under a sibling `s`
//! weighs `f_s·P·(1 − w)`, where `f_s` is the sibling's share of the
//! non-target mass. Every other leaf keeps its weight. Here `P` is the
//! product of the unchanged averages on the leaf's path. Each criterion
//! is therefore an intersection of half-lines `s_b(w) − s_j(w) + ε ≥ 0`,
//! and the stable set is an exact interval, computed in closed form. The
//! reference ranking comes from one probe at the elicited weight, so
//! exact ties at `current` break the way the ranking does.

use maut::{BandMatrixSoA, EvalContext, ObjectiveId, ObjectiveTree, ORDERING_EPS};
use serde::{Deserialize, Serialize};

/// What must stay unchanged inside the stability interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityMode {
    /// Only the best-ranked alternative must not change.
    BestAlternative,
    /// The entire ranking must not change.
    FullRanking,
}

/// Stability interval of one objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// The objective whose weight was varied.
    pub objective: ObjectiveId,
    /// Which stability criterion was applied.
    pub mode: StabilityMode,
    /// Current average normalized weight of the objective.
    pub current: f64,
    /// Lower end of the stable range `[lo, hi] ⊆ [0, 1]`.
    pub lo: f64,
    /// Upper end of the stable range.
    pub hi: f64,
}

impl StabilityReport {
    /// Whether the whole `[0,1]` range is stable — the paper's finding for
    /// all criteria except *Funct Requir* and *Naming Conv*.
    pub fn is_fully_stable(&self, tol: f64) -> bool {
        self.lo <= tol && self.hi >= 1.0 - tol
    }

    /// `hi − lo`, the stable range's width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Per-call state: every leaf's path, walked once and shared by all
/// targets, plus the scratch each target's interval is evaluated in.
/// Node and attribute weights are held as `a + b·w`, scores as
/// `alpha + beta·w`.
struct Workspace {
    /// `(attribute, start, end)`: the leaf's root-exclusive path, root
    /// first, is `path_nodes[start..end]`.
    leaves: Vec<(usize, usize, usize)>,
    path_nodes: Vec<usize>,
    node_a: Vec<f64>,
    node_b: Vec<f64>,
    flat_a: Vec<f64>,
    flat_b: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    order: Vec<usize>,
}

impl Workspace {
    fn new(ctx: &EvalContext) -> Workspace {
        let (model, tree) = (ctx.model(), &ctx.model().tree);
        let (nodes, attrs, alts) = (tree.len(), model.num_attributes(), model.num_alternatives());
        let mut leaves = Vec::new();
        let mut path_nodes = Vec::new();
        for leaf in tree.leaves_under(tree.root()) {
            let start = path_nodes.len();
            path_nodes.extend(tree.path_to(leaf).iter().skip(1).map(|id| id.index()));
            let attr = tree.get(leaf).attribute.expect("leaf");
            leaves.push((attr.index(), start, path_nodes.len()));
        }
        Workspace {
            leaves,
            path_nodes,
            node_a: vec![0.0; nodes],
            node_b: vec![0.0; nodes],
            flat_a: vec![0.0; attrs],
            flat_b: vec![0.0; attrs],
            alpha: vec![0.0; alts],
            beta: vec![0.0; alts],
            order: vec![0; alts],
        }
    }

    /// The exact stability interval of `target` (must not be the root).
    fn objective_interval(
        &mut self,
        ctx: &EvalContext,
        target: ObjectiveId,
        mode: StabilityMode,
    ) -> StabilityReport {
        let tree = &ctx.model().tree;
        assert!(target != tree.root(), "stability of the root is undefined");
        let base = ctx.node_averages();
        let current = base[target.index()];

        // Reference ranking: one probe at the elicited weight.
        group_weights(tree, base, target, current, &mut self.node_a);
        self.node_b.fill(0.0);
        self.affine_scores(ctx.soa());
        rank_into(&self.alpha, &mut self.order);

        // Closed form: a node's weight is `v(0) + (v(1) − v(0))·w`.
        group_weights(tree, base, target, 0.0, &mut self.node_a);
        group_weights(tree, base, target, 1.0, &mut self.node_b);
        for (b, a) in self.node_b.iter_mut().zip(&self.node_a) {
            *b -= a;
        }
        self.affine_scores(ctx.soa());

        // `i` must stay at least level with `j`: `c + d·w ≥ 0`. With
        // `d = 0` that holds everywhere, as the reference ranks `i` first.
        let (alpha, beta) = (&self.alpha, &self.beta);
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        let mut keep_ahead = |i: usize, j: usize| {
            let c = alpha[i] - alpha[j] + ORDERING_EPS;
            let d = beta[i] - beta[j];
            if d > 0.0 {
                lo = lo.max(-c / d);
            } else if d < 0.0 {
                hi = hi.min(-c / d);
            }
        };
        match mode {
            StabilityMode::BestAlternative => {
                let best = self.order[0];
                (0..self.order.len()).for_each(|j| keep_ahead(best, j));
            }
            StabilityMode::FullRanking => {
                self.order.windows(2).for_each(|p| keep_ahead(p[0], p[1]));
            }
        }
        StabilityReport {
            objective: target,
            mode,
            current,
            lo: lo.min(current).max(0.0),
            hi: hi.max(current).min(1.0),
        }
    }

    /// Attribute weights as path products of the node weights (at most
    /// one node per path varies with `w`, so each stays affine), then
    /// every alternative's score, swept one midpoint column at a time.
    /// Each score sums its attributes in ascending order from −0.0, the
    /// start value of `Iterator::sum`, so it matches a row-wise `.sum()`
    /// bit for bit (a +0.0 start would flip signed zeros).
    fn affine_scores(&mut self, soa: &BandMatrixSoA) {
        for &(attr, start, end) in &self.leaves {
            let (mut a, mut b) = (1.0, 0.0);
            for &n in &self.path_nodes[start..end] {
                b = a * self.node_b[n] + b * self.node_a[n];
                a *= self.node_a[n];
            }
            self.flat_a[attr] = a;
            self.flat_b[attr] = b;
        }
        self.alpha.fill(-0.0);
        self.beta.fill(-0.0);
        for (j, (&a, &b)) in self.flat_a.iter().zip(&self.flat_b).enumerate() {
            let scores = self.alpha.iter_mut().zip(&mut self.beta);
            for ((alpha, beta), &u) in scores.zip(soa.mid_col(j)) {
                *alpha += u * a;
                *beta += u * b;
            }
        }
    }
}

/// Node average weights with `target` forced to `w` and its siblings
/// rescaled proportionally.
fn group_weights(tree: &ObjectiveTree, base: &[f64], target: ObjectiveId, w: f64, out: &mut [f64]) {
    out.copy_from_slice(base);
    out[target.index()] = w;
    let Some(parent) = tree.get(target).parent else {
        return;
    };
    let sibs = &tree.get(parent).children;
    let rest: f64 = sibs
        .iter()
        .filter(|s| **s != target)
        .map(|s| base[s.index()])
        .sum();
    for s in sibs.iter().filter(|s| **s != target) {
        out[s.index()] = if rest > 1e-12 {
            base[s.index()] * (1.0 - w) / rest
        } else {
            // target previously had all the mass; spread remainder evenly
            (1.0 - w) / (sibs.len() - 1).max(1) as f64
        };
    }
}

/// Alternatives by descending score, ties by index.
fn rank_into(scores: &[f64], order: &mut [usize]) {
    for (k, slot) in order.iter_mut().enumerate() {
        *slot = k;
    }
    // total_cmp: scores are finite for every valid model, but a NaN that
    // slips through must not abort the analysis. The index tie-break makes
    // the order total, so the unstable sort is deterministic.
    order.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
}

/// Compute the stability interval of `target` against a shared evaluation
/// context (must not be the root).
pub fn stability_interval_ctx(
    ctx: &EvalContext,
    target: ObjectiveId,
    mode: StabilityMode,
) -> StabilityReport {
    Workspace::new(ctx).objective_interval(ctx, target, mode)
}

/// Stability intervals for every non-root objective, against a shared
/// evaluation context.
pub fn all_stability_intervals_ctx(ctx: &EvalContext, mode: StabilityMode) -> Vec<StabilityReport> {
    let mut ws = Workspace::new(ctx);
    let tree = &ctx.model().tree;
    tree.iter()
        .filter(|(id, _)| *id != tree.root())
        .map(|(id, _)| ws.objective_interval(ctx, id, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    /// Two attributes; alt "x-wins" is best on x, "y-wins" on y. With equal
    /// weights x-wins is slightly ahead; pushing weight toward y flips it.
    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
        b.alternative("x-wins", vec![Perf::level(2), Perf::level(1)]);
        b.alternative("y-wins", vec![Perf::level(1), Perf::level(2)]);
        b.build().unwrap()
    }

    #[test]
    fn flip_point_is_found() {
        let m = model();
        let x = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x, StabilityMode::BestAlternative);
        // x-wins and y-wins tie at w_x = 0.5; below that y-wins leads.
        assert!((r.current - 0.5).abs() < 1e-9);
        assert_eq!(r.hi, 1.0, "raising x's weight keeps x-wins best: {r:?}");
        assert!((r.lo - 0.5).abs() < 1e-8, "flip at 0.5: {r:?}");
        assert!(!r.is_fully_stable(1e-6));
    }

    #[test]
    fn dominant_alternative_gives_full_stability() {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::point(0.5)), (y, Interval::point(0.5))]);
        b.alternative("best", vec![Perf::level(1), Perf::level(1)]);
        b.alternative("worst", vec![Perf::level(0), Perf::level(0)]);
        let m = b.build().unwrap();
        let x = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x, StabilityMode::FullRanking);
        // Stable to both edges: the endpoints are exact, not scan residues.
        assert_eq!((r.lo, r.hi), (0.0, 1.0), "{r:?}");
        assert!(r.is_fully_stable(0.0));
        assert_eq!(r.width(), 1.0);
    }

    #[test]
    fn full_ranking_mode_is_no_wider_than_best_mode() {
        let m = model();
        let x = m.tree.find("x").unwrap();
        let c = ctx(&m);
        let best = stability_interval_ctx(&c, x, StabilityMode::BestAlternative);
        let full = stability_interval_ctx(&c, x, StabilityMode::FullRanking);
        assert!(full.lo >= best.lo - 1e-9);
        assert!(full.hi <= best.hi + 1e-9);
    }

    #[test]
    fn all_intervals_cover_every_objective() {
        let m = model();
        let c = ctx(&m);
        let rs = all_stability_intervals_ctx(&c, StabilityMode::BestAlternative);
        assert_eq!(rs.len(), m.tree.len() - 1);
        // The shared workspace gives the same answer as a one-off call.
        for r in &rs {
            assert_eq!(*r, stability_interval_ctx(&c, r.objective, r.mode));
        }
    }

    #[test]
    #[should_panic(expected = "root is undefined")]
    fn root_is_rejected() {
        let m = model();
        stability_interval_ctx(&ctx(&m), m.tree.root(), StabilityMode::BestAlternative);
    }

    #[test]
    fn hierarchical_target_rescales_descendants() {
        // root -> {G (x, y), z}: G at 0.6 avg; moving G's weight to 0 makes
        // z the only criterion.
        let mut b = DecisionModelBuilder::new("m");
        let g = b.objective_under_root("g", "G", Interval::point(0.6));
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        b.attach_attribute(g, x, Interval::point(0.5));
        b.attach_attribute(g, y, Interval::point(0.5));
        let z = b.discrete_attribute("z", "Z", &["l", "h"]);
        b.attach_attributes_to_root(&[(z, Interval::point(0.4))]);
        b.alternative(
            "g-strong",
            vec![Perf::level(1), Perf::level(1), Perf::level(0)],
        );
        b.alternative(
            "z-strong",
            vec![Perf::level(0), Perf::level(0), Perf::level(1)],
        );
        let m = b.build().unwrap();
        let g_id = m.tree.find("g").unwrap();
        let r = stability_interval_ctx(&ctx(&m), g_id, StabilityMode::BestAlternative);
        // g-strong scores w and z-strong 1 − w: g-strong is best at 0.6 and
        // stays best down to 0.5 and up to 1.
        assert_eq!(r.hi, 1.0);
        assert!((r.lo - 0.5).abs() < 1e-8, "{r:?}");
        // A leaf inside G moves only its share of G's mass.
        let x_id = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x_id, StabilityMode::BestAlternative);
        assert_eq!((r.lo, r.hi), (0.0, 1.0), "{r:?}");
    }

    #[test]
    fn only_child_objective_is_stable_everywhere() {
        // root -> G -> {x, y}: G has no siblings, so its weight scales
        // every score alike and never changes the ranking.
        let mut b = DecisionModelBuilder::new("m");
        let g = b.objective_under_root("g", "G", Interval::point(1.0));
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        b.attach_attribute(g, x, Interval::point(0.7));
        b.attach_attribute(g, y, Interval::point(0.3));
        b.alternative("x-strong", vec![Perf::level(1), Perf::level(0)]);
        b.alternative("y-strong", vec![Perf::level(0), Perf::level(1)]);
        let m = b.build().unwrap();
        let g_id = m.tree.find("g").unwrap();
        let c = ctx(&m);
        for mode in [StabilityMode::BestAlternative, StabilityMode::FullRanking] {
            let r = stability_interval_ctx(&c, g_id, mode);
            assert_eq!((r.lo, r.current, r.hi), (0.0, 1.0, 1.0), "{r:?}");
        }
    }

    #[test]
    fn target_holding_all_sibling_mass_spreads_the_rest_evenly() {
        // x holds all of the root's mass (current = 1, the others' sum is
        // 0): lowering x hands (1 − w)/2 to each of y and z. `a` scores w
        // and `b` scores 1 − w, so `b` takes over below 0.5.
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        let z = b.discrete_attribute("z", "Z", &["l", "h"]);
        b.attach_attributes_to_root(&[
            (x, Interval::point(1.0)),
            (y, Interval::point(0.0)),
            (z, Interval::point(0.0)),
        ]);
        b.alternative("a", vec![Perf::level(1), Perf::level(0), Perf::level(0)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(1), Perf::level(1)]);
        let m = b.build().unwrap();
        let x_id = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x_id, StabilityMode::BestAlternative);
        assert_eq!((r.current, r.hi), (1.0, 1.0), "{r:?}");
        assert!((r.lo - 0.5).abs() < 1e-8, "{r:?}");
    }
}
