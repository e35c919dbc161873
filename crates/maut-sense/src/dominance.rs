//! Dominance under imprecision (paper refs \[23\]–\[25\]).
//!
//! Alternative `i` **dominates** `k` when its overall utility is at least
//! `k`'s for *every* admissible combination of weights and component
//! utilities, and strictly greater for some. With the additive model and
//! independent imprecision this reduces to
//!
//! ```text
//! min_{w ∈ W} Σⱼ wⱼ · (uᵢⱼᴸ − uₖⱼᵁ)  ≥  0   and   max_{w ∈ W} Σⱼ wⱼ · (uᵢⱼᵁ − uₖⱼᴸ)  >  0
//! ```
//!
//! — the utilities take their extremes and the weight vector is optimized
//! over the polytope `W = {low ≤ w ≤ upp, Σw = 1}` (an exact greedy
//! continuous-knapsack step via [`simplex_lp::WeightPolytope`]). Both
//! optima are the endpoints of the pair's dominance interval, so the
//! verdicts here are read off the one flat
//! [`IntervalMatrix`](crate::intensity::IntervalMatrix) that the intensity
//! ranking and the discard cycle share: no separate sweep, the same bits.

use crate::intensity::dominance_intervals_ctx;
use maut::weights::AttributeWeights;
use maut::EvalContext;
use simplex_lp::WeightPolytope;

/// Pairwise dominance verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceOutcome {
    /// Row alternative dominates the column alternative.
    Dominates,
    /// No dominance in this direction.
    None,
}

/// The weight polytope implied by flattened weight triples.
pub fn polytope_from(weights: &AttributeWeights) -> WeightPolytope {
    WeightPolytope::new(&weights.lows(), &weights.upps())
        .expect("flattened weight intervals always intersect the simplex")
}

/// The weight polytope of a context's root-scope weights (precomputed by
/// the context; this clones the cached copy).
pub fn weight_polytope_ctx(ctx: &EvalContext) -> WeightPolytope {
    ctx.polytope().clone()
}

/// Full pairwise dominance matrix (`matrix[i][k]` = does `i` dominate
/// `k`) against a shared evaluation context.
pub fn dominance_matrix_ctx(ctx: &EvalContext) -> Vec<Vec<DominanceOutcome>> {
    let intervals = dominance_intervals_ctx(ctx);
    let n = intervals.alternatives();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|k| {
                    if i != k && intervals.get(i, k).dominates() {
                        DominanceOutcome::Dominates
                    } else {
                        DominanceOutcome::None
                    }
                })
                .collect()
        })
        .collect()
}

/// Indices of non-dominated alternatives (paper: 20 of the 23 MM ontologies
/// are non-dominated), against a shared evaluation context.
pub fn non_dominated_ctx(ctx: &EvalContext) -> Vec<usize> {
    dominance_intervals_ctx(ctx)
        .derive(&ctx.model().alternatives)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    fn two_attr_model(rows: &[(&str, usize, usize)]) -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        for (name, px, py) in rows {
            b.alternative(*name, vec![Perf::level(*px), Perf::level(*py)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn pareto_better_dominates() {
        let m = two_attr_model(&[("strong", 3, 3), ("weak", 1, 1)]);
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::Dominates);
        assert_eq!(dm[1][0], DominanceOutcome::None);
        assert_eq!(non_dominated_ctx(&ctx(&m)), vec![0]);
    }

    #[test]
    fn trade_off_pair_is_mutually_non_dominated() {
        let m = two_attr_model(&[("left", 3, 0), ("right", 0, 3)]);
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::None);
        assert_eq!(dm[1][0], DominanceOutcome::None);
        assert_eq!(non_dominated_ctx(&ctx(&m)).len(), 2);
    }

    #[test]
    fn identical_alternatives_do_not_dominate_each_other() {
        let m = two_attr_model(&[("a", 2, 2), ("b", 2, 2)]);
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::None);
        assert_eq!(dm[1][0], DominanceOutcome::None);
        assert_eq!(non_dominated_ctx(&ctx(&m)).len(), 2);
    }

    #[test]
    fn weight_imprecision_blocks_dominance() {
        // "balanced" beats "spiky" on average but not for every weight
        // vector in the box.
        let m = two_attr_model(&[("balanced", 2, 2), ("spiky", 3, 1)]);
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::None);
        assert_eq!(dm[1][0], DominanceOutcome::None);
    }

    #[test]
    fn missing_performance_blocks_dominance() {
        // An alternative with a missing entry has band [0,1] there, so it is
        // not dominated even by a strong rival (its utility could be 1).
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        b.alternative("strong", vec![Perf::level(3), Perf::level(2)]);
        b.alternative("unknown", vec![Perf::level(1), Perf::Missing]);
        let m = b.build().unwrap();
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::None);
        assert_eq!(non_dominated_ctx(&ctx(&m)).len(), 2);
    }

    #[test]
    fn worst_missing_policy_restores_dominance() {
        // Under the [15]-style policy the unknown entry counts as worst, so
        // "strong" dominates.
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        b.alternative("strong", vec![Perf::level(3), Perf::level(2)]);
        b.alternative("unknown", vec![Perf::level(1), Perf::Missing]);
        b.missing_policy(maut::perf::MissingPolicy::Worst);
        let m = b.build().unwrap();
        let dm = dominance_matrix_ctx(&ctx(&m));
        assert_eq!(dm[0][1], DominanceOutcome::Dominates);
        assert_eq!(non_dominated_ctx(&ctx(&m)), vec![0]);
    }

    #[test]
    fn polytope_matches_weight_table() {
        let m = two_attr_model(&[("a", 1, 1)]);
        let p = weight_polytope_ctx(&ctx(&m));
        assert_eq!(p.dim(), 2);
        assert!(p.contains(&[0.5, 0.5], 1e-9));
    }

    #[test]
    fn blocked_sweep_matches_per_pair_reference() {
        // More alternatives than one rival block, so block boundaries and
        // the i == k skip inside a block are both exercised.
        let rows: Vec<(String, usize, usize)> = (0..crate::intensity::PAIR_BLOCK + 7)
            .map(|i| (format!("a{i:02}"), i % 4, (i / 2) % 4))
            .collect();
        let refs: Vec<(&str, usize, usize)> =
            rows.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
        let m = two_attr_model(&refs);
        let c = ctx(&m);
        let blocked = dominance_matrix_ctx(&c);
        let polytope = c.polytope();
        let (u_lo, u_hi) = c.model().bound_utility_matrices();
        for i in 0..refs.len() {
            for k in 0..refs.len() {
                let expected = if i != k {
                    let worst: Vec<f64> =
                        u_lo[i].iter().zip(&u_hi[k]).map(|(a, b)| a - b).collect();
                    let best: Vec<f64> = u_hi[i].iter().zip(&u_lo[k]).map(|(a, b)| a - b).collect();
                    polytope.minimize(&worst).0 >= -1e-9 && polytope.maximize(&best).0 > 1e-9
                } else {
                    false
                };
                assert_eq!(
                    blocked[i][k] == DominanceOutcome::Dominates,
                    expected,
                    "pair ({i}, {k})"
                );
            }
        }
    }
}
