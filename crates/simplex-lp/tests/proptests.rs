//! Property-based tests for the LP solver and the weight polytope.

use proptest::prelude::*;
use simplex_lp::{
    minimize_via_lp, Bound, GreedyScratch, LinearProgram, Objective, Relation, Status,
    WeightPolytope, EPS, POUR_LANES,
};

/// Strategy: a feasible box-on-simplex polytope of dimension 2..=8.
fn polytope_strategy() -> impl Strategy<Value = WeightPolytope> {
    (2usize..=8)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(0.0f64..0.3, n),
                proptest::collection::vec(0.0f64..0.7, n),
            )
        })
        .prop_filter_map("feasible box", |(lows, widths)| {
            let upps: Vec<f64> = lows
                .iter()
                .zip(&widths)
                .map(|(l, w)| (l + w).min(1.0))
                .collect();
            WeightPolytope::new(&lows, &upps)
        })
}

/// Coefficients the tie-heavy strategy draws from: repeated values, both
/// signed zeros, and a slot (`None`) for a continuous draw.
const TIE_VALUES: [Option<f64>; 9] = [
    Some(-1.0),
    Some(-0.5),
    Some(-0.0),
    Some(0.0),
    Some(0.25),
    Some(0.5),
    Some(1.0),
    Some(2.0),
    None,
];

/// Targets for `Σ low`: open slack, and lows within `EPS` of 1 on either
/// side of the pour's stopping threshold.
const LOW_SUMS: [f64; 4] = [0.0, 1.0 - 2.0 * EPS, 1.0 - 0.5 * EPS, 1.0 + 0.5 * EPS];

/// Strategy: a polytope of dimension 1..=40 with zero-width, tiny,
/// partial and full-range boxes, plus `vectors` tie-heavy coefficient
/// vectors.
fn tie_heavy_case(vectors: usize) -> impl Strategy<Value = (WeightPolytope, Vec<Vec<f64>>)> {
    (1usize..=40)
        .prop_flat_map(move |m| {
            (
                proptest::collection::vec((0.0f64..1.0, 0usize..4, 0.0f64..1.0), m),
                (0usize..LOW_SUMS.len(), 0.0f64..0.9),
                proptest::collection::vec(
                    proptest::collection::vec((0usize..TIE_VALUES.len(), -2.0f64..2.0), m),
                    vectors,
                ),
            )
        })
        .prop_filter_map("feasible box", |(boxes, (regime, slack), draws)| {
            let target = if regime == 0 { slack } else { LOW_SUMS[regime] };
            let total: f64 = boxes.iter().map(|b| b.0).sum();
            let lows: Vec<f64> = boxes
                .iter()
                .map(|b| b.0 / total.max(1e-12) * target)
                .collect();
            let mut upps: Vec<f64> = lows
                .iter()
                .zip(&boxes)
                .map(|(&l, &(_, kind, width))| match kind {
                    0 => l,
                    1 => l + 1e-10,
                    2 => (l + width * (1.0 - l)).min(1.0),
                    _ => 1.0,
                })
                .collect();
            if upps.iter().sum::<f64>() < 1.0 {
                let last = upps.len() - 1;
                upps[last] = 1.0;
            }
            let coefficients = draws
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(slot, x)| TIE_VALUES[slot].unwrap_or(x))
                        .collect()
                })
                .collect();
            Some((WeightPolytope::new(&lows, &upps)?, coefficients))
        })
}

/// Independent reference for the greedy kernel: the original pour, which
/// stable-sorts the coordinates by `total_cmp` (descending when
/// maximizing) and fills them in that order from the lower bounds.
fn sorted_pour(p: &WeightPolytope, c: &[f64], maximize: bool) -> (f64, Vec<f64>) {
    let (lower, upper) = (p.lower(), p.upper());
    let mut w = lower.to_vec();
    let mut remaining: f64 = 1.0 - w.iter().sum::<f64>();
    let mut order: Vec<usize> = (0..c.len()).collect();
    if maximize {
        order.sort_by(|&a, &b| c[b].total_cmp(&c[a]));
    } else {
        order.sort_by(|&a, &b| c[a].total_cmp(&c[b]));
    }
    for j in order {
        if remaining <= EPS {
            break;
        }
        let add = (upper[j] - lower[j]).min(remaining);
        w[j] += add;
        remaining -= add;
    }
    (c.iter().zip(&w).map(|(a, b)| a * b).sum(), w)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The selection pour reproduces the sorted pour bit for bit — value
    /// and arg-optimum, minimizing and maximizing — on tie-heavy
    /// coefficients, signed zeros, zero-width boxes and lows at the
    /// stopping threshold, through one reused scratch.
    #[test]
    fn selection_pour_matches_sorted_pour(case in tie_heavy_case(8)) {
        let (p, coefficients) = case;
        let mut scratch = GreedyScratch::default();
        for c in &coefficients {
            for maximize in [false, true] {
                let (value, w) = sorted_pour(&p, c, maximize);
                let got = if maximize {
                    p.maximize_value(c, &mut scratch)
                } else {
                    p.minimize_value(c, &mut scratch)
                };
                prop_assert_eq!(got.to_bits(), value.to_bits(), "value, max={} c={:?}", maximize, c);
                prop_assert_eq!(bits(&scratch.w), bits(&w), "argopt, max={} c={:?}", maximize, c);
            }
        }
    }

    /// The block pour solves every live lane bit-identically to the sorted
    /// pour — value and arg-optimum, minimizing and maximizing — on the
    /// same tie-heavy inputs, for 1..=16 live lanes. The dead lanes hold
    /// the remaining coefficient vectors, so a live lane's result must not
    /// depend on its neighbours.
    #[test]
    fn block_pour_matches_sorted_pour(case in tie_heavy_case(POUR_LANES),
                                      live in 1usize..=POUR_LANES) {
        let (p, coefficients) = case;
        let m = p.dim();
        let mut block = vec![0.0; m * POUR_LANES];
        for (t, c) in coefficients.iter().enumerate() {
            for (j, &x) in c.iter().enumerate() {
                block[j * POUR_LANES + t] = x;
            }
        }
        let mut scratch = GreedyScratch::default();
        for maximize in [false, true] {
            let got = if maximize {
                p.maximize_block(&block, live, &mut scratch)
            } else {
                p.minimize_block(&block, live, &mut scratch)
            };
            for (t, c) in coefficients.iter().enumerate().take(live) {
                let (value, w) = sorted_pour(&p, c, maximize);
                let lane_w: Vec<f64> = (0..m).map(|j| scratch.w[j * POUR_LANES + t]).collect();
                prop_assert_eq!(got[t].to_bits(), value.to_bits(), "value, lane {} of {}, max={} c={:?}", t, live, maximize, c);
                prop_assert_eq!(bits(&lane_w), bits(&w), "argopt, lane {} of {}, max={} c={:?}", t, live, maximize, c);
            }
        }
    }

    /// The greedy continuous-knapsack optimum equals the LP optimum.
    #[test]
    fn greedy_matches_lp(p in polytope_strategy(),
                         seed in proptest::collection::vec(-2.0f64..2.0, 8)) {
        let c = &seed[..p.dim()];
        let (greedy, w) = p.minimize(c);
        prop_assert!(p.contains(&w, 1e-7), "argmin in polytope");
        let lp = minimize_via_lp(&p, c).expect("polytope is feasible");
        prop_assert!((greedy - lp).abs() < 1e-6, "greedy {greedy} vs lp {lp}");
    }

    /// Min ≤ value at centroid ≤ max for any linear functional.
    #[test]
    fn range_brackets_centroid(p in polytope_strategy(),
                               seed in proptest::collection::vec(-2.0f64..2.0, 8)) {
        let c = &seed[..p.dim()];
        let (lo, hi) = p.range(c);
        let centroid = p.centroid();
        let v: f64 = c.iter().zip(&centroid).map(|(a, b)| a * b).sum();
        prop_assert!(lo <= v + 1e-9 && v <= hi + 1e-9, "{lo} <= {v} <= {hi}");
    }

    /// The centroid is always a valid member of the polytope.
    #[test]
    fn centroid_is_member(p in polytope_strategy()) {
        prop_assert!(p.contains(&p.centroid(), 1e-7));
    }

    /// LP duality-free sanity: a bounded maximize over the simplex yields a
    /// solution within the variable bounds that satisfies all constraints.
    #[test]
    fn lp_solution_is_feasible(
        n in 2usize..6,
        coeffs in proptest::collection::vec(-1.0f64..1.0, 6),
        rhs in 0.5f64..3.0,
    ) {
        let mut lp = LinearProgram::new(n, Objective::Maximize);
        lp.set_objective(&coeffs[..n]);
        for j in 0..n {
            lp.set_bound(j, Bound::boxed(0.0, 1.0));
        }
        lp.add_constraint(&vec![1.0; n], Relation::Le, rhs);
        let sol = lp.solve().expect("well-formed");
        prop_assert_eq!(sol.status, Status::Optimal);
        let sum: f64 = sol.x.iter().sum();
        prop_assert!(sum <= rhs + 1e-7);
        for &x in &sol.x {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&x));
        }
    }

    /// Scaling the objective scales the optimum (homogeneity).
    #[test]
    fn objective_homogeneity(p in polytope_strategy(),
                             seed in proptest::collection::vec(-2.0f64..2.0, 8),
                             k in 0.1f64..5.0) {
        let c: Vec<f64> = seed[..p.dim()].to_vec();
        let scaled: Vec<f64> = c.iter().map(|v| v * k).collect();
        let (a, _) = p.minimize(&c);
        let (b, _) = p.minimize(&scaled);
        prop_assert!((a * k - b).abs() < 1e-6, "{} vs {}", a * k, b);
    }
}
