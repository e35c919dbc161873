//! The *weight polytope* `W = { w : low ≤ w ≤ upp, Σ w = 1 }` that arises in
//! imprecise multi-attribute analysis (normalized attribute weights known
//! only up to intervals).
//!
//! Optimizing a linear functional over `W` is a continuous-knapsack problem
//! with an exact greedy solution, which this module implements directly; the
//! general [`crate::LinearProgram`] path is used by tests to cross-validate.

use crate::problem::{Bound, LinearProgram, Objective, Relation};
use crate::solver::Status;
use crate::EPS;

/// A box-constrained probability simplex.
///
/// # Example
///
/// ```
/// use simplex_lp::WeightPolytope;
/// let p = WeightPolytope::new(&[0.2, 0.1], &[0.8, 0.9]).expect("feasible");
/// let (lo, hi) = p.range(&[1.0, 0.0]); // range of w1 over the polytope
/// assert!((lo - 0.2).abs() < 1e-9 && (hi - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPolytope {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

/// Coefficient vectors one block pour solves per call
/// ([`WeightPolytope::minimize_block`] / [`WeightPolytope::maximize_block`]):
/// the lane count of the attribute-major `m × POUR_LANES` blocks.
pub const POUR_LANES: usize = 16;

/// Reusable lane buffers for the allocation-free greedy optimizers
/// ([`WeightPolytope::minimize_value`] / [`WeightPolytope::maximize_value`]
/// and their [`POUR_LANES`]-wide block forms). One scratch serves any
/// number of polytopes and coefficient blocks; the hot dominance /
/// intensity sweeps thread a single scratch through every block of
/// alternative pairs.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    /// Pour-order key per coordinate and lane (`CONSUMED` once poured
    /// into), attribute-major like the coefficients.
    keys: Vec<i64>,
    /// The arg-optima of the last call, attribute-major: coordinate `j`
    /// of lane `t` at `w[j·L + t]`, where `L` is 1 or [`POUR_LANES`]. A
    /// one-lane call
    /// ([`WeightPolytope::minimize_value`] /
    /// [`WeightPolytope::maximize_value`]) leaves the plain arg-optimum in
    /// index order.
    pub w: Vec<f64>,
}

/// Key of a coordinate the pour has already filled; real keys are
/// clamped below it.
const CONSUMED: i64 = i64::MAX;

/// `f64::total_cmp` as an integer key: `a.total_cmp(&b)` equals
/// `total_key(a).cmp(&total_key(b))` (the standard library's own mapping).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// Per lane, the coordinate holding the smallest key, the first one on
/// ties, and that key (`CONSUMED` when every key of the lane is). One
/// pass over the attribute-major keys with `L` independent compare
/// chains, which the compiler keeps in vector registers.
#[inline(always)]
fn lane_argmin<const L: usize>(keys: &[i64]) -> ([usize; L], [i64; L]) {
    let (mut at, mut best) = ([0usize; L], [CONSUMED; L]);
    for (j, row) in keys.as_chunks::<L>().0.iter().enumerate() {
        for ((a, b), &k) in at.iter_mut().zip(best.iter_mut()).zip(row) {
            let less = k < *b;
            *a = if less { j } else { *a };
            *b = if less { k } else { *b };
        }
    }
    (at, best)
}

impl WeightPolytope {
    /// Build from per-weight interval bounds. Bounds are clamped to `[0, 1]`.
    ///
    /// Returns `None` when the box cannot intersect the simplex
    /// (`Σ low > 1` or `Σ upp < 1`) or when any interval is inverted.
    pub fn new(lower: &[f64], upper: &[f64]) -> Option<WeightPolytope> {
        if lower.len() != upper.len() || lower.is_empty() {
            return None;
        }
        let mut lo = Vec::with_capacity(lower.len());
        let mut hi = Vec::with_capacity(upper.len());
        for (&l, &u) in lower.iter().zip(upper) {
            if !l.is_finite() || !u.is_finite() || l > u + EPS {
                return None;
            }
            lo.push(l.clamp(0.0, 1.0));
            hi.push(u.clamp(0.0, 1.0));
        }
        let p = WeightPolytope {
            lower: lo,
            upper: hi,
        };
        if p.is_feasible() {
            Some(p)
        } else {
            None
        }
    }

    /// The unconstrained simplex over `n` weights (`low = 0`, `upp = 1`).
    pub fn full_simplex(n: usize) -> WeightPolytope {
        WeightPolytope {
            lower: vec![0.0; n],
            upper: vec![1.0; n],
        }
    }

    /// Number of weights.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Per-weight lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Per-weight upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Whether the box intersects the normalization hyperplane.
    pub fn is_feasible(&self) -> bool {
        let lo: f64 = self.lower.iter().sum();
        let hi: f64 = self.upper.iter().sum();
        lo <= 1.0 + EPS && hi >= 1.0 - EPS
    }

    /// Whether `w` lies in the polytope (within tolerance `tol`).
    pub fn contains(&self, w: &[f64], tol: f64) -> bool {
        if w.len() != self.dim() {
            return false;
        }
        let sum: f64 = w.iter().sum();
        if (sum - 1.0).abs() > tol {
            return false;
        }
        w.iter()
            .zip(self.lower.iter().zip(&self.upper))
            .all(|(&x, (&l, &u))| x >= l - tol && x <= u + tol)
    }

    /// The greedy continuous-knapsack core shared by every optimizer, on
    /// `L` coefficient vectors at once: `c` is attribute-major
    /// (`c[j·L + t]` is coordinate `j` of lane `t`), and the first `live`
    /// lanes are solved. Each lane starts from the lower bounds and pours
    /// the remaining mass into its coordinates in ascending key order,
    /// where `flip` is `0` to minimize (ascending `c`) and `!0` to maximize
    /// (descending `c`). Fills `scratch.w` with the attribute-major
    /// arg-optima and returns every lane's `c · w` (lanes from `live` on
    /// are left dead and their values are meaningless), allocating
    /// nothing once the scratch is warm.
    ///
    /// # The selection pour
    ///
    /// There is no sort. Each coefficient becomes its integer
    /// [`f64::total_cmp`] key, bitwise-inverted when maximizing (which
    /// reverses the order exactly and keeps ties tied). Every step, each
    /// live lane pours into its smallest unconsumed key, the lowest index
    /// on ties, adding `min(upp − low, remaining)`; a lane dies once its
    /// `remaining ≤ EPS` or every key is consumed, and the block ends when
    /// no lane lives. One scan finds the minimum of all `L` lanes, with the
    /// lanes as independent compare chains in vector registers, so a block
    /// of rivals costs about what its longest single pour does.
    ///
    /// This is the visiting order of a stable sort by `total_cmp`, cut at
    /// the same point: the same coordinates receive the same
    /// `min(cap, remaining)` amounts through the same float operations in
    /// the same order, and the value sums `cⱼ·wⱼ` in index order from the
    /// start value `Iterator::sum` folds from, so `w` and the value are
    /// bit-identical to the sorted pour, whatever the other lanes hold.
    /// `1 − Σ low` is computed once per call. The pour usually stops after
    /// a few coordinates, so an `O(m)` scan per step beats sorting all `m`
    /// keys. The one NaN bit pattern per direction whose key would equal
    /// `CONSUMED` is clamped onto its neighbour (another NaN); that can
    /// only reorder coefficients that already make the value NaN.
    fn pour<const L: usize>(
        &self,
        c: &[f64],
        live: usize,
        scratch: &mut GreedyScratch,
        flip: i64,
    ) -> [f64; L] {
        let (lower, upper) = (&self.lower, &self.upper);
        assert_eq!(c.len(), lower.len() * L, "coefficient length mismatch");
        assert!(live <= L, "more live lanes than the block holds");
        let GreedyScratch { keys, w } = scratch;
        keys.clear();
        keys.extend(c.iter().map(|&x| (total_key(x) ^ flip).min(CONSUMED - 1)));
        w.clear();
        for &l in lower {
            w.extend(std::iter::repeat_n(l, L));
        }
        let start = 1.0 - lower.iter().sum::<f64>();
        let mut remaining = [start; L];
        let mut alive: [bool; L] = std::array::from_fn(|t| t < live && start > EPS);
        while alive.contains(&true) {
            let (at, best) = lane_argmin::<L>(keys);
            for t in 0..L {
                if !alive[t] {
                    continue;
                }
                if best[t] == CONSUMED {
                    alive[t] = false;
                    continue;
                }
                let j = at[t];
                keys[j * L + t] = CONSUMED;
                let add = (upper[j] - lower[j]).min(remaining[t]);
                w[j * L + t] += add;
                remaining[t] -= add;
                alive[t] = remaining[t] > EPS;
            }
        }
        debug_assert!(
            remaining[..live].iter().all(|&r| r <= 1e-7),
            "polytope was infeasible"
        );
        let mut value = [std::iter::empty::<f64>().sum(); L];
        for (c_row, w_row) in c.as_chunks::<L>().0.iter().zip(w.as_chunks::<L>().0) {
            for ((v, &a), &b) in value.iter_mut().zip(c_row).zip(w_row) {
                *v += a * b;
            }
        }
        value
    }

    /// Minimum of `c · w` over the polytope, reusing the caller's scratch
    /// buffers (bit-identical to [`WeightPolytope::minimize`], without its
    /// allocations): the one-lane case of the block pour.
    pub fn minimize_value(&self, c: &[f64], scratch: &mut GreedyScratch) -> f64 {
        let [value] = self.pour::<1>(c, 1, scratch, 0);
        value
    }

    /// Maximum of `c · w` over the polytope, reusing the caller's scratch
    /// buffers (bit-identical to [`WeightPolytope::maximize`]).
    pub fn maximize_value(&self, c: &[f64], scratch: &mut GreedyScratch) -> f64 {
        // Inverting every key (`!k`) reverses the total order exactly and
        // keeps ties tied, so the pour visits the coordinates in
        // descending-c order, lowest index first among equals — exactly
        // the coordinates `minimize(-c)` visits (negation is exact), so
        // the value matches -minimize(-c) bit for bit.
        let [value] = self.pour::<1>(c, 1, scratch, !0);
        value
    }

    /// Minima of `POUR_LANES` coefficient vectors in one pour — the
    /// batch-sweep entry point. `c` is an attribute-major
    /// `dim × POUR_LANES` block (`c[j·POUR_LANES + t]` is coordinate `j` of
    /// lane `t`); lanes `0..live` are solved, each bit-identical to
    /// [`WeightPolytope::minimize_value`] on its own vector, and the
    /// returned values from `live` on are meaningless. Lane `t`'s
    /// arg-minimum is left in `scratch.w[j·POUR_LANES + t]`.
    pub fn minimize_block(
        &self,
        c: &[f64],
        live: usize,
        scratch: &mut GreedyScratch,
    ) -> [f64; POUR_LANES] {
        self.pour::<POUR_LANES>(c, live, scratch, 0)
    }

    /// Maxima of `POUR_LANES` coefficient vectors in one pour (the block
    /// form of [`WeightPolytope::maximize_value`]; layout as in
    /// [`WeightPolytope::minimize_block`]).
    pub fn maximize_block(
        &self,
        c: &[f64],
        live: usize,
        scratch: &mut GreedyScratch,
    ) -> [f64; POUR_LANES] {
        self.pour::<POUR_LANES>(c, live, scratch, !0)
    }

    /// Minimize `c · w` over the polytope. Exact greedy continuous-knapsack:
    /// start from the lower bounds and pour the remaining mass into the
    /// cheapest coordinates first. Returns `(value, argmin)`.
    pub fn minimize(&self, c: &[f64]) -> (f64, Vec<f64>) {
        let mut scratch = GreedyScratch::default();
        let value = self.minimize_value(c, &mut scratch);
        (value, scratch.w)
    }

    /// Maximize `c · w` over the polytope. Returns `(value, argmax)`.
    pub fn maximize(&self, c: &[f64]) -> (f64, Vec<f64>) {
        let mut scratch = GreedyScratch::default();
        let value = self.maximize_value(c, &mut scratch);
        (value, scratch.w)
    }

    /// The range `[min, max]` of `c · w` over the polytope.
    pub fn range(&self, c: &[f64]) -> (f64, f64) {
        (self.minimize(c).0, self.maximize(c).0)
    }

    /// A canonical interior-ish point: lower bounds plus remaining mass
    /// spread proportionally to the interval widths (the "average normalized
    /// weight" used by GMAA when intervals were elicited).
    pub fn centroid(&self) -> Vec<f64> {
        let lo: f64 = self.lower.iter().sum();
        let width: f64 = self.upper.iter().zip(&self.lower).map(|(u, l)| u - l).sum();
        let remaining = 1.0 - lo;
        if width <= EPS {
            return self.lower.clone();
        }
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(&l, &u)| l + remaining * (u - l) / width)
            .collect()
    }

    /// Build the equivalent [`LinearProgram`] (used for cross-validation and
    /// by callers who need extra constraints on top of the polytope).
    pub fn to_lp(&self, c: &[f64], direction: Objective) -> LinearProgram {
        let n = self.dim();
        let mut lp = LinearProgram::new(n, direction);
        lp.set_objective(c);
        for j in 0..n {
            lp.set_bound(j, Bound::boxed(self.lower[j], self.upper[j]));
        }
        lp.add_constraint(&vec![1.0; n], Relation::Eq, 1.0);
        lp
    }
}

/// Convenience: minimize `c·w` over the polytope with the full LP machinery.
/// Exposed mainly for testing the greedy path.
pub fn minimize_via_lp(p: &WeightPolytope, c: &[f64]) -> Option<f64> {
    let sol = p.to_lp(c, Objective::Minimize).solve().ok()?;
    (sol.status == Status::Optimal).then_some(sol.objective)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_incompatible_box() {
        assert!(WeightPolytope::new(&[0.6, 0.6], &[0.7, 0.7]).is_none()); // sum low > 1
        assert!(WeightPolytope::new(&[0.0, 0.0], &[0.3, 0.3]).is_none()); // sum upp < 1
        assert!(WeightPolytope::new(&[0.5], &[0.4]).is_none()); // inverted
        assert!(WeightPolytope::new(&[], &[]).is_none());
        assert!(WeightPolytope::new(&[0.1, 0.2], &[0.9]).is_none()); // length mismatch
    }

    #[test]
    fn full_simplex_contains_uniform() {
        let p = WeightPolytope::full_simplex(4);
        assert!(p.contains(&[0.25; 4], 1e-9));
        assert!(!p.contains(&[0.5, 0.5, 0.5, -0.5], 1e-9));
        assert!(!p.contains(&[0.3, 0.3, 0.3], 1e-9)); // wrong dim
    }

    #[test]
    fn minimize_matches_hand_computation() {
        let p = WeightPolytope::new(&[0.2, 0.3, 0.1], &[0.5, 0.6, 0.4]).unwrap();
        let (v, w) = p.minimize(&[0.2, -0.1, 0.05]);
        assert!((v - (-0.01)).abs() < 1e-9, "v = {v}");
        assert!(p.contains(&w, 1e-9));
    }

    #[test]
    fn greedy_agrees_with_lp_on_grid() {
        let p = WeightPolytope::new(&[0.05, 0.1, 0.0, 0.2], &[0.5, 0.4, 0.35, 0.6]).unwrap();
        let cases = [
            [1.0, 2.0, 3.0, 4.0],
            [-1.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [-2.0, -2.0, 5.0, 1.0],
        ];
        for c in cases {
            let (g, _) = p.minimize(&c);
            let l = minimize_via_lp(&p, &c).unwrap();
            assert!((g - l).abs() < 1e-7, "greedy {g} vs lp {l} for {c:?}");
        }
    }

    #[test]
    fn range_is_ordered_and_tight_for_degenerate_box() {
        // Degenerate polytope: exact weights.
        let p = WeightPolytope::new(&[0.3, 0.7], &[0.3, 0.7]).unwrap();
        let (lo, hi) = p.range(&[1.0, 2.0]);
        assert!((lo - 1.7).abs() < 1e-9);
        assert!((hi - 1.7).abs() < 1e-9);
    }

    #[test]
    fn centroid_is_feasible_and_normalized() {
        let p = WeightPolytope::new(&[0.046, 0.059, 0.06], &[0.59, 0.515, 0.595]).unwrap();
        let c = p.centroid();
        assert!(p.contains(&c, 1e-9), "centroid {c:?}");
        let s: f64 = c.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn centroid_of_degenerate_box_is_the_point() {
        let p = WeightPolytope::new(&[0.25, 0.75], &[0.25, 0.75]).unwrap();
        assert_eq!(p.centroid(), vec![0.25, 0.75]);
    }

    #[test]
    fn maximize_is_negated_minimize() {
        let p = WeightPolytope::full_simplex(3);
        let c = [0.1, 0.9, 0.5];
        let (mx, w) = p.maximize(&c);
        assert!((mx - 0.9).abs() < 1e-9);
        assert!((w[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_ordering_keeps_min_max_duality_bit_exact() {
        // Under total_cmp the maximize == -minimize(-c) identity must
        // stay bit-exact even through signed-zero ties: negation reverses
        // the total order exactly (-0.0 < +0.0 flips to +0.0 > -0.0), so
        // both directions visit the coordinates in the same order.
        let p = WeightPolytope::new(&[0.1, 0.1, 0.1], &[0.8, 0.8, 0.8]).unwrap();
        let c = [0.0, -0.0, 0.5];
        let neg: Vec<f64> = c.iter().map(|x| -x).collect();
        let mut scratch = GreedyScratch::default();
        let max = p.maximize_value(&c, &mut scratch);
        let min = p.minimize_value(&neg, &mut scratch);
        assert_eq!(max.to_bits(), (-min).to_bits());
    }

    #[test]
    fn nan_coefficient_degrades_without_panicking() {
        // The old partial_cmp().expect("finite coefficients") aborted on
        // NaN input; total_cmp sorts it deterministically instead and the
        // NaN simply propagates into the objective value.
        let p = WeightPolytope::new(&[0.2, 0.2], &[0.8, 0.8]).unwrap();
        let mut scratch = GreedyScratch::default();
        let v = p.minimize_value(&[f64::NAN, 1.0], &mut scratch);
        assert!(v.is_nan());
    }
}
