//! Property-based tests for the LP solver and the weight polytope.

use proptest::prelude::*;
use simplex_lp::{
    max_slack_lp, minimize_via_lp, Bound, GreedyScratch, LinearProgram, Objective, Relation,
    SolverWorkspace, Status, WeightPolytope, EPS, POUR_LANES,
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

    /// The bounded-variable max-slack solver agrees with a cold two-phase
    /// solve after its closed-form start and after every batch of rows
    /// appended warm: both optimal, `t*` within 1e-9, and its `w*` inside
    /// the box, on the normalization plane within 1e-12 and on every
    /// row's feasible side within 1e-10. Rows are tie-heavy (repeated
    /// values, signed zeros, entries up to ±2), some repeated verbatim,
    /// over boxes with fixed and tiny widths, ending with a copy of the
    /// tightest row lowered by 1e-8. Boxes whose `Σ low` or
    /// `Σ upp` misses 1 by up to `EPS` (which the polytope accepts) widen
    /// the box and `t*` checks by that miss; the `t*` check also widens by
    /// the reference point's own distance outside the box and below its
    /// rows.
    #[test]
    fn bounded_simplex_matches_two_phase(case in tie_heavy_case(8),
                                         first in 1usize..=8,
                                         batch in 1usize..=3,
                                         dups in 0usize..=3) {
        let (p, mut rows) = case;
        for d in 0..dups {
            let again = rows[d * 3 % rows.len()].clone();
            rows.insert(first.min(rows.len()), again);
        }
        let m = p.dim();
        // A box accepted within `EPS` of the plane has no exactly feasible
        // point; each solver puts that slack on its own coordinate, which
        // moves `t*` by up to twice the largest |c_kj| (2) times it.
        let box_slack = (p.lower().iter().sum::<f64>() - 1.0)
            .max(1.0 - p.upper().iter().sum::<f64>())
            .max(0.0);
        let t_tol = 1e-9 + 4.0 * box_slack;
        let mut ws = SolverWorkspace::new();
        ws.start(&p, &rows[0]);
        let mut w = vec![0.0; m];
        let mut pushed = 0;
        let mut end = first.min(rows.len());
        let mut lowered = false;
        let dot = |c: &[f64], w: &[f64]| -> f64 { c.iter().zip(w).map(|(a, b)| a * b).sum() };
        loop {
            for c in &rows[pushed..end] {
                ws.push_row(c);
            }
            pushed = end;
            let t = ws.solve().expect("solver healthy");
            let cold = max_slack_lp(&p, &rows[..pushed]).solve().expect("well-formed");
            prop_assert_eq!(cold.status, Status::Optimal);
            // The two-phase reference accepts pivots down to `EPS`, so its
            // own point may sit outside a 1e-10-wide box, or below a row
            // lowered by 1e-8, by about as much.
            let cold_w = &cold.x[..m];
            let box_miss = cold_w
                .iter()
                .zip(p.lower().iter().zip(p.upper()))
                .map(|(&x, (&l, &u))| (l - x).max(x - u))
                .fold(0.0, f64::max);
            let row_miss = rows[..pushed]
                .iter()
                .map(|c| cold.objective - dot(c, cold_w))
                .fold(0.0, f64::max);
            let tol = t_tol + 4.0 * box_miss + row_miss;
            prop_assert!((t - cold.objective).abs() <= tol, "t {} vs {} after {} rows", t, cold.objective, pushed);
            ws.weights_into(&mut w);
            for (j, &x) in w.iter().enumerate() {
                let tol = box_slack + 1e-12;
                prop_assert!(x >= p.lower()[j] - tol && x <= p.upper()[j] + tol, "w[{}] = {} outside the box", j, x);
            }
            prop_assert!((w.iter().sum::<f64>() - 1.0).abs() <= 1e-12, "sum w = {}", w.iter().sum::<f64>());
            for c in &rows[..pushed] {
                let v = dot(c, &w);
                prop_assert!(v >= t - 1e-10, "row {:?} at {} < t* {}", c, v, t);
            }
            if pushed == rows.len() {
                if lowered {
                    break;
                }
                // Last, the tightest row lowered by 1e-8: violated by
                // just that much at the optimum, far below any pivot
                // tolerance, yet it must move `t*` like the reference.
                lowered = true;
                let tightest = rows[..pushed]
                    .iter()
                    .min_by(|a, b| dot(a, &w).total_cmp(&dot(b, &w)))
                    .expect("at least one row")
                    .iter()
                    .map(|c| c - 1e-8)
                    .collect();
                rows.push(tightest);
            }
            end = (pushed + batch).min(rows.len());
        }
        let stats = ws.stats();
        prop_assert_eq!(stats.cold_solves(), 1);
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

#[test]
fn no_rival_rows_reach_the_upper_bound_of_t() {
    let p = WeightPolytope::new(&[0.1, 0.2, 0.0], &[0.5, 0.6, 1.0]).unwrap();
    let mut ws = SolverWorkspace::new();
    ws.start(&p, &[0.3, -1.0, 0.3]);
    assert_eq!(ws.solve().unwrap(), 2.0);
    let mut w = [0.0; 3];
    ws.weights_into(&mut w);
    assert!(p.contains(&w, 1e-12), "{w:?}");
}

#[test]
fn start_vertex_is_the_greedy_maximizer_of_the_key() {
    let p = WeightPolytope::new(&[0.1, 0.2, 0.0], &[0.5, 0.6, 1.0]).unwrap();
    let mut ws = SolverWorkspace::new();
    // Pour order 2, 0, 1: w2 takes all 0.7 of free mass.
    ws.start(&p, &[0.5, 0.1, 0.9]);
    let mut w = [0.0; 3];
    ws.weights_into(&mut w);
    assert_eq!(w, [0.1, 0.2, 0.7]);
    // The coordinate the pour fills last stays basic even when full.
    ws.start(&p, &[1.0, 1.0, -1.0]);
    ws.weights_into(&mut w);
    assert!((w[0] - 0.5).abs() < 1e-15 && (w[1] - 0.5).abs() < 1e-15 && w[2] == 0.0);
}

#[test]
fn single_weight_is_fixed_by_the_normalization_row() {
    let p = WeightPolytope::new(&[0.0], &[1.0]).unwrap();
    let mut ws = SolverWorkspace::new();
    ws.start(&p, &[0.0]);
    ws.push_row(&[0.25]);
    ws.push_row(&[-0.5]);
    assert_eq!(ws.solve().unwrap(), -0.5);
}

#[test]
fn bound_flips_walk_the_box() {
    // One row `w0 ≥ t`: the primal steps push w0 to its upper bound.
    let p = WeightPolytope::new(&[0.0, 0.0, 0.0], &[0.3, 1.0, 1.0]).unwrap();
    let mut ws = SolverWorkspace::new();
    ws.start(&p, &[0.0, 0.0, 1.0]);
    ws.push_row(&[1.0, 0.0, 0.0]);
    assert!((ws.solve().unwrap() - 0.3).abs() < 1e-15);
}
