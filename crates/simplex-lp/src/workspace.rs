//! The bounded-variable simplex for the potential-optimality LP family
//! ([`SolverWorkspace`]) and its counters.

use crate::{Bound, LinearProgram, LpError, Objective, Relation, WeightPolytope, EPS};

/// Upper bound of `t`. Utilities live in `[0, 1]`, so only an LP without
/// rival rows reaches it.
const T_MAX: f64 = 2.0;

/// A basic variable counts as off its bound, for the dual simplex, once
/// it is past the bound by more than this. Far below the certification's
/// 1e-10 violation threshold, so an appended violated row is always
/// enforced, and far above the rounding of values near 1.
const FEAS_TOL: f64 = 1e-12;

/// Cumulative work counters of a [`SolverWorkspace`].
///
/// A *solve* is one [`SolverWorkspace::solve`] call. It is *warm* when it
/// re-optimizes after rows were appended to an optimal tableau, and cold
/// when it runs from the closed-form start. `pivots` counts every simplex
/// step: primal and dual basis changes and primal bound flips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total solves driven through the workspace.
    pub solves: usize,
    /// Solves that re-optimized after appended rows.
    pub warm_solves: usize,
    /// Cumulative simplex steps across all solves.
    pub pivots: usize,
    /// Steps spent in warm solves.
    pub warm_pivots: usize,
    /// Steps spent in cold solves.
    pub cold_pivots: usize,
}

impl SolveStats {
    /// Solves that ran from the closed-form start.
    pub fn cold_solves(&self) -> usize {
        self.solves - self.warm_solves
    }

    /// Fold another counter set into this one (a serving shard sums its
    /// sessions' counters this way).
    pub fn merge(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.pivots += other.pivots;
        self.warm_pivots += other.warm_pivots;
        self.cold_pivots += other.cold_pivots;
    }

    /// Mean steps per warm solve (`None` when none ran).
    pub fn pivots_per_warm_solve(&self) -> Option<f64> {
        (self.warm_solves > 0).then(|| self.warm_pivots as f64 / self.warm_solves as f64)
    }

    /// Mean steps per cold solve (`None` when none ran).
    pub fn pivots_per_cold_solve(&self) -> Option<f64> {
        (self.cold_solves() > 0).then(|| self.cold_pivots as f64 / self.cold_solves() as f64)
    }

    fn record(&mut self, warm: bool, pivots: usize) {
        self.solves += 1;
        self.pivots += pivots;
        if warm {
            self.warm_solves += 1;
            self.warm_pivots += pivots;
        } else {
            self.cold_pivots += pivots;
        }
    }
}

/// The bounded-variable simplex for `max t` s.t. `c_k · w ≥ t` for each
/// rival row `k`, `w` in the weight polytope and `t ≤ 2`, with its
/// tableau kept between solves so rows can be appended.
///
/// A nonbasic variable sits at its lower or upper bound and the primal
/// ratio test may flip it to the other one, so the box costs no tableau
/// rows: the condensed tableau holds the normalization row (row 0) and
/// one row per rival, over the `m` nonbasic columns only. Appending a row
/// changes no reduced cost, so dual simplex steps re-optimize from the
/// old basis (Chvátal, *Linear Programming*, 1983, ch. 8 and 10). `t` has
/// no lower bound, so the LP is feasible and bounded for any rows; for
/// utility-difference rows (`c_kj ∈ [−1, 1]`) the optimum is that of the
/// general formulation with `t` boxed in `[−2, 2]`. Variables: `w_j` is
/// `j`, `t` is `m`, and the slack `c_r·w − t` of row `r ≥ 1` is `m + r`.
/// Buffers are reused, so a solve loop allocates nothing once its
/// largest LP is reached.
///
/// ```
/// use simplex_lp::{SolverWorkspace, WeightPolytope};
///
/// let p = WeightPolytope::new(&[0.2, 0.2], &[0.8, 0.8]).expect("feasible");
/// let mut ws = SolverWorkspace::new();
/// ws.start(&p, &[0.0, 0.0]);
/// ws.push_row(&[1.0, -1.0]); // w0 − w1 ≥ t
/// assert!((ws.solve().unwrap() - 0.6).abs() < 1e-12);
/// // A rival row that the optimum violates: appended warm.
/// ws.push_row(&[-0.5, 0.5]);
/// let t = ws.solve().unwrap();
/// assert!(t.abs() < 1e-12);
/// assert_eq!(ws.stats().warm_solves, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Weight count.
    m: usize,
    /// Bounds per variable.
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Per variable: whether it is basic, and its row (basic) or column
    /// (nonbasic).
    basic: Vec<bool>,
    pos: Vec<usize>,
    /// Per row: the basic variable and its value.
    head: Vec<usize>,
    beta: Vec<f64>,
    /// Condensed tableau, `rows × m` row-major: row `r` reads
    /// `x_head[r] + Σ_q tab[r·m + q]·x_slot[q] = const`.
    tab: Vec<f64>,
    /// Per column: the nonbasic variable, whether it sits at its upper
    /// bound, and its reduced cost (the objective's rate per unit rise).
    slot: Vec<usize>,
    at_up: Vec<bool>,
    d: Vec<f64>,
    /// Scratch: the scaled pivot row; the start pour's order.
    prow: Vec<f64>,
    order: Vec<usize>,
    /// Whether no solve has run since [`SolverWorkspace::start`].
    fresh: bool,
    stats: SolveStats,
}

impl SolverWorkspace {
    /// A fresh workspace: no LP, zeroed counters.
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Begin a new LP over `polytope`, with no rival rows yet. The start
    /// vertex pours the free weight mass onto the coordinates in
    /// descending `key` order (ties by index), the greedy maximizer of
    /// `key · w`; the one coordinate it fills partly is basic in the
    /// normalization row. `t` starts nonbasic at its upper bound.
    ///
    /// # Panics
    ///
    /// When `key.len() != polytope.dim()`.
    pub fn start(&mut self, polytope: &WeightPolytope, key: &[f64]) {
        let m = polytope.dim();
        assert_eq!(key.len(), m, "start key length mismatch");
        let (low, upp) = (polytope.lower(), polytope.upper());
        self.m = m;
        self.fresh = true;
        self.lo.clear();
        self.lo.extend_from_slice(low);
        self.lo.push(f64::NEG_INFINITY);
        self.up.clear();
        self.up.extend_from_slice(upp);
        self.up.push(T_MAX);

        self.order.clear();
        self.order.extend(0..m);
        self.order
            .sort_unstable_by(|&a, &b| key[b].total_cmp(&key[a]).then(a.cmp(&b)));
        // order[..full] end at their upper bound, order[full] is basic.
        let mut rem = 1.0 - low.iter().sum::<f64>();
        let mut full = m - 1;
        for (n, &j) in self.order.iter().enumerate() {
            let width = upp[j] - low[j];
            if rem <= width {
                full = n;
                break;
            }
            rem -= width;
        }
        let b = self.order[full];

        self.basic.clear();
        self.basic.resize(m + 1, false);
        self.pos.clear();
        self.pos.resize(m + 1, 0);
        self.slot.clear();
        self.at_up.clear();
        for (n, &j) in self.order.iter().enumerate() {
            if n != full {
                self.pos[j] = self.slot.len();
                self.slot.push(j);
                self.at_up.push(n < full);
            }
        }
        self.pos[m] = self.slot.len();
        self.slot.push(m);
        self.at_up.push(true);
        self.basic[b] = true;
        self.pos[b] = 0;

        // Row 0: w_b + Σ_{j≠b} w_j = 1.
        self.head.clear();
        self.head.push(b);
        self.tab.clear();
        self.tab.resize(m, 1.0);
        self.tab[m - 1] = 0.0; // the t column
        let rest: f64 = (0..m).filter(|&j| j != b).map(|j| self.value(j)).sum();
        let wb = 1.0 - rest;
        // The polytope admits `Σ low` and `Σ upp` up to `EPS` past 1; the
        // basic coordinate absorbs that slack in its own box.
        self.lo[b] = self.lo[b].min(wb);
        self.up[b] = self.up[b].max(wb);
        self.beta.clear();
        self.beta.push(wb);
        self.d.clear();
        self.d.resize(m, 0.0);
        self.d[m - 1] = 1.0;
    }

    /// Append the rival row `c · w ≥ t`, written in the current basis with
    /// its slack basic at the current point's value `c · w − t` (negative
    /// when the row is violated there).
    ///
    /// # Panics
    ///
    /// When `c.len()` is not the dimension passed to
    /// [`SolverWorkspace::start`], or before the first `start`.
    pub fn push_row(&mut self, c: &[f64]) {
        let m = self.m;
        assert_eq!(c.len(), m, "row length mismatch");
        let base = self.tab.len();
        self.tab.resize(base + m, 0.0);
        let mut value = -0.0;
        // The row over the structural variables: `c` for `w`, −1 for `t`.
        for (var, a) in c.iter().copied().chain([-1.0]).enumerate() {
            value += a * self.value(var);
            if self.basic[var] {
                let (rows, new) = self.tab.split_at_mut(base);
                let at = self.pos[var] * m;
                for (x, &y) in new.iter_mut().zip(&rows[at..at + m]) {
                    *x += a * y;
                }
            } else {
                self.tab[base + self.pos[var]] -= a;
            }
        }
        let var = self.lo.len();
        self.lo.push(0.0);
        self.up.push(f64::INFINITY);
        self.basic.push(true);
        self.pos.push(self.head.len());
        self.head.push(var);
        self.beta.push(value);
    }

    /// Re-optimize and return `t*`. The first solve after
    /// [`SolverWorkspace::start`] is cold: `t` drops onto the tightest
    /// rival row, then primal simplex steps run. A later one is warm: dual
    /// simplex steps restore the appended rows, then primal steps clean up
    /// any reduced cost rounding pushed past the tolerance.
    ///
    /// Fails with [`LpError::IterationLimit`] when the step budget runs out
    /// or a ratio test finds no step, both signs of numerical corruption.
    ///
    /// # Panics
    ///
    /// Before the first [`SolverWorkspace::start`].
    pub fn solve(&mut self) -> Result<f64, LpError> {
        let cap = 2000 + 50 * (self.m + self.head.len());
        let warm = !self.fresh;
        let mut pivots = 0;
        if self.fresh {
            self.fresh = false;
            // `t` is nonbasic with coefficient 1 in every rival row: one
            // step moves it onto the tightest row and frees every other.
            let tightest =
                (1..self.head.len()).min_by(|&a, &b| self.beta[a].total_cmp(&self.beta[b]));
            if let Some(r) = tightest.filter(|&r| self.beta[r] < 0.0) {
                let delta = self.beta[r];
                self.step(r, self.pos[self.m], delta, false);
                pivots += 1;
            }
        }
        let done = self.iterate(&mut pivots, cap);
        self.stats.record(warm, pivots);
        done.map(|()| self.value(self.m))
    }

    /// Write `w` at the current point into `w` (length `m`).
    pub fn weights_into(&self, w: &mut [f64]) {
        for (j, x) in w.iter_mut().enumerate() {
            *x = self.value(j);
        }
    }

    /// The current value of variable `var`.
    fn value(&self, var: usize) -> f64 {
        let p = self.pos[var];
        if self.basic[var] {
            self.beta[p]
        } else if self.at_up[p] {
            self.up[var]
        } else {
            self.lo[var]
        }
    }

    /// Whether a nonbasic variable can move at all.
    fn fixed(&self, var: usize) -> bool {
        self.up[var] <= self.lo[var]
    }

    /// Simplex steps until optimal: dual steps while a basic variable is
    /// off its bounds, then primal steps, with bound flips, while a
    /// reduced cost improves `t`. Bland's rule takes over halfway through
    /// the step budget.
    fn iterate(&mut self, pivots: &mut usize, cap: usize) -> Result<(), LpError> {
        let m = self.m;
        loop {
            let bland = *pivots >= cap / 2;
            if let Some((r, below)) = self.leaving_row(bland) {
                let q = self
                    .dual_ratio(r, below, bland)
                    .ok_or(LpError::IterationLimit(cap))?;
                let v = self.head[r];
                let target = if below { self.lo[v] } else { self.up[v] };
                let delta = (self.beta[r] - target) / self.tab[r * m + q];
                self.step(r, q, delta, !below);
            } else if let Some(q) = self.entering(bland) {
                let dir = if self.at_up[q] { -1.0 } else { 1.0 };
                match self.primal_ratio(q, dir, bland) {
                    (Some((r, to_up)), theta) => self.step(r, q, dir * theta, to_up),
                    (None, theta) if theta.is_finite() => {
                        self.shift(q, dir * theta);
                        self.at_up[q] = !self.at_up[q];
                    }
                    (None, _) => return Err(LpError::IterationLimit(cap)),
                }
            } else {
                return Ok(());
            }
            *pivots += 1;
            if *pivots > cap {
                return Err(LpError::IterationLimit(cap));
            }
        }
    }

    /// Entering column: the largest improving reduced cost (Dantzig), or
    /// the lowest improving variable under Bland's rule. Fixed variables
    /// never enter.
    fn entering(&self, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (q, (&d, &up)) in self.d.iter().zip(&self.at_up).enumerate() {
            let gain = if up { -d } else { d };
            if gain <= EPS || self.fixed(self.slot[q]) {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, _)) if bland => self.slot[q] < self.slot[b],
                Some((_, g)) => gain > g,
            };
            if better {
                best = Some((q, gain));
            }
        }
        best.map(|(q, _)| q)
    }

    /// Primal ratio test for column `q` moving in direction `dir`: the
    /// step length and the row that blocks it together with the bound its
    /// variable leaves at, or `None` for a bound flip (infinite step when
    /// nothing blocks). Ties prefer the larger pivot, or the lowest
    /// variable under Bland's rule.
    fn primal_ratio(&self, q: usize, dir: f64, bland: bool) -> (Option<(usize, bool)>, f64) {
        let m = self.m;
        let v = self.slot[q];
        let mut best: Option<(usize, bool, f64, f64)> = None;
        for (r, (row, &b)) in self.tab.chunks_exact(m).zip(&self.beta).enumerate() {
            let rate = -row[q] * dir;
            let h = self.head[r];
            let (lim, to_up) = if rate < -EPS {
                ((b - self.lo[h]) / -rate, false)
            } else if rate > EPS {
                ((self.up[h] - b) / rate, true)
            } else {
                continue;
            };
            if !lim.is_finite() {
                continue;
            }
            let lim = lim.max(0.0);
            let better = match best {
                None => true,
                Some((_, _, l, _)) if lim < l - EPS => true,
                Some((_, _, l, _)) if lim > l + EPS => false,
                Some((br, _, _, _)) if bland => h < self.head[br],
                Some((_, _, _, a)) => rate.abs() > a,
            };
            if better {
                best = Some((r, to_up, lim, rate.abs()));
            }
        }
        let flip = self.up[v] - self.lo[v];
        match best {
            Some((r, to_up, lim, _)) if lim < flip => (Some((r, to_up)), lim),
            _ => (None, flip),
        }
    }

    /// Leaving row for the dual simplex: the basic variable furthest past
    /// a bound (lowest variable under Bland's rule), and whether it is
    /// below its lower bound.
    fn leaving_row(&self, bland: bool) -> Option<(usize, bool)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for (r, (&h, &b)) in self.head.iter().zip(&self.beta).enumerate() {
            let (gap, below) = if b < self.lo[h] - FEAS_TOL {
                (self.lo[h] - b, true)
            } else if b > self.up[h] + FEAS_TOL {
                (b - self.up[h], false)
            } else {
                continue;
            };
            let better = match best {
                None => true,
                Some((br, _, _)) if bland => h < self.head[br],
                Some((_, _, g)) => gap > g,
            };
            if better {
                best = Some((r, below, gap));
            }
        }
        best.map(|(r, below, _)| (r, below))
    }

    /// Dual ratio test on row `r`: among the columns whose move pushes the
    /// row's basic variable back toward the violated bound, the one whose
    /// reduced cost reaches zero first. Ties prefer the larger pivot, or
    /// the lowest variable under Bland's rule.
    fn dual_ratio(&self, r: usize, below: bool, bland: bool) -> Option<usize> {
        let m = self.m;
        let row = &self.tab[r * m..(r + 1) * m];
        let sigma = if below { 1.0 } else { -1.0 };
        let mut best: Option<(usize, f64, f64)> = None;
        for (q, &a) in row.iter().enumerate() {
            let dir = if self.at_up[q] { -1.0 } else { 1.0 };
            if -a * dir * sigma <= EPS || self.fixed(self.slot[q]) {
                continue;
            }
            let ratio = self.d[q].abs() / a.abs();
            let better = match best {
                None => true,
                Some((_, x, _)) if ratio < x - EPS => true,
                Some((_, x, _)) if ratio > x + EPS => false,
                Some((b, _, _)) if bland => self.slot[q] < self.slot[b],
                Some((_, _, p)) => a.abs() > p,
            };
            if better {
                best = Some((q, ratio, a.abs()));
            }
        }
        best.map(|(q, _, _)| q)
    }

    /// Move nonbasic column `q` by `delta`, then exchange it with row
    /// `r`'s basic variable, which leaves at its upper bound when
    /// `leave_up`, else at its lower one.
    fn step(&mut self, r: usize, q: usize, delta: f64, leave_up: bool) {
        let entered = self.value(self.slot[q]) + delta;
        self.shift(q, delta);
        self.beta[r] = entered;
        self.at_up[q] = leave_up;
        self.pivot(r, q);
    }

    /// Move nonbasic column `q` by `delta`: every basic value follows.
    fn shift(&mut self, q: usize, delta: f64) {
        for (b, row) in self.beta.iter_mut().zip(self.tab.chunks_exact(self.m)) {
            *b -= row[q] * delta;
        }
    }

    /// Exchange row `r`'s basic variable with column `q`'s nonbasic one
    /// (Gauss-Jordan on the condensed tableau and the reduced costs).
    fn pivot(&mut self, r: usize, q: usize) {
        let m = self.m;
        let SolverWorkspace { tab, prow, d, .. } = self;
        let inv = 1.0 / tab[r * m + q];
        prow.clear();
        prow.extend(tab[r * m..(r + 1) * m].iter().map(|&x| x * inv));
        prow[q] = inv;
        for (i, row) in tab.chunks_exact_mut(m).enumerate() {
            if i == r {
                row.copy_from_slice(prow);
                continue;
            }
            let f = row[q];
            if f != 0.0 {
                for (x, &p) in row.iter_mut().zip(prow.iter()) {
                    *x -= f * p;
                }
                row[q] = -f * inv;
            }
        }
        let f = d[q];
        if f != 0.0 {
            for (x, &p) in d.iter_mut().zip(prow.iter()) {
                *x -= f * p;
            }
            d[q] = -f * inv;
        }
        let (entering, leaving) = (self.slot[q], self.head[r]);
        self.head[r] = entering;
        self.slot[q] = leaving;
        self.basic[entering] = true;
        self.pos[entering] = r;
        self.basic[leaving] = false;
        self.pos[leaving] = q;
    }
}

/// The max-slack LP over `polytope` with rival rows `rows`, as a general
/// [`LinearProgram`] over `(w, t)` with `t` boxed in `[−2, 2]`: the
/// formulation [`SolverWorkspace`] replaces, kept as the cold reference
/// the tests compare it with.
pub fn max_slack_lp(polytope: &WeightPolytope, rows: &[Vec<f64>]) -> LinearProgram {
    let m = polytope.dim();
    let mut lp = LinearProgram::new(m + 1, Objective::Maximize);
    let mut obj = vec![0.0; m + 1];
    obj[m] = 1.0;
    lp.set_objective(&obj);
    for j in 0..m {
        lp.set_bound(j, Bound::boxed(polytope.lower()[j], polytope.upper()[j]));
    }
    lp.set_bound(m, Bound::boxed(-2.0, 2.0));
    let mut norm = vec![1.0; m + 1];
    norm[m] = 0.0;
    lp.add_constraint(&norm, Relation::Eq, 1.0);
    for c in rows {
        let mut row = c.clone();
        row.push(-1.0);
        lp.add_constraint(&row, Relation::Ge, 0.0);
    }
    lp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_ratios() {
        let mut a = SolveStats {
            solves: 3,
            warm_solves: 2,
            pivots: 10,
            warm_pivots: 4,
            cold_pivots: 6,
        };
        let b = SolveStats {
            solves: 1,
            warm_solves: 0,
            pivots: 5,
            warm_pivots: 0,
            cold_pivots: 5,
        };
        a.merge(&b);
        assert_eq!(a.solves, 4);
        assert_eq!(a.cold_solves(), 2);
        assert_eq!(a.pivots, 15);
        assert_eq!(a.pivots_per_warm_solve(), Some(2.0));
        assert_eq!(a.pivots_per_cold_solve(), Some(5.5));
        assert_eq!(SolveStats::default().pivots_per_warm_solve(), None);
    }
}
