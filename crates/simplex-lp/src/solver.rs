//! Two-phase simplex driver over a reusable [`SolverWorkspace`]:
//! standard-form conversion, an optional warm start from the workspace's
//! saved basis, phase 1 (artificial variables), phase 2, and solution
//! extraction back in the user's variable space.
//!
//! ## Warm start
//!
//! [`solve_with`] first checks whether the workspace carries the optimal
//! basis of a previous solve with the *same standard-form shape* (row
//! count and structural column count). If so, it rebuilds the equality
//! system with the new coefficients, refactorizes that basis by
//! Gauss-Jordan elimination, and — when the basis is still non-singular
//! and primal feasible — proceeds straight to phase 2 from there. In the
//! potential-optimality loop, consecutive LPs differ only in their
//! pairwise-difference rows, so this converges in a handful of pivots
//! instead of a full two-phase run. Any singular or infeasible saved
//! basis silently falls back to the cold path, so warm starting never
//! changes a status or a verdict built on one; the optimum itself agrees
//! only to floating-point roundoff, and its low bits depend on which
//! bases the chain passed through before.

use crate::error::LpError;
use crate::problem::{LinearProgram, Objective, Relation};
use crate::tableau::Tableau;
use crate::workspace::{SolverWorkspace, VarMap};
use crate::EPS;

/// Refactorization pivots below this magnitude mark the saved basis
/// singular for the new coefficients; the solver then falls back cold.
const WARM_PIVOT_TOL: f64 = 1e-7;

/// Outcome category of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of [`LinearProgram::solve`] / [`LinearProgram::solve_with`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal / infeasible / unbounded.
    pub status: Status,
    /// Optimal objective value in the user's direction. Meaningless unless
    /// `status == Optimal`.
    pub objective: f64,
    /// Optimal assignment of the original decision variables. Empty unless
    /// `status == Optimal`.
    pub x: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub pivots: usize,
    /// Whether this solve started from a reused basis (see
    /// [`crate::SolverWorkspace`]). Always `false` for cold solves and
    /// for warm attempts that fell back.
    pub warm: bool,
}

impl Solution {
    fn non_optimal(status: Status) -> Solution {
        Solution {
            status,
            objective: f64::NAN,
            x: Vec::new(),
            pivots: 0,
            warm: false,
        }
    }
}

/// Translate bounds and direction into `min c'·x', A'x' REL b', x' ≥ 0`,
/// writing everything into the workspace's flat standard-form buffers.
/// Returns the internal (structural) variable count.
fn build_standard_form(lp: &LinearProgram, ws: &mut SolverWorkspace) -> usize {
    let sign = match lp.direction {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };

    ws.maps.clear();
    let mut n_internal = 0usize;
    let mut n_extra = 0usize;
    for b in &lp.bounds {
        if b.lower.is_finite() {
            ws.maps.push(VarMap::Shifted {
                col: n_internal,
                lower: b.lower,
            });
            n_internal += 1;
            if b.upper.is_finite() {
                n_extra += 1;
            }
        } else if b.upper.is_finite() {
            ws.maps.push(VarMap::Mirrored {
                col: n_internal,
                upper: b.upper,
            });
            n_internal += 1;
        } else {
            ws.maps.push(VarMap::Split {
                pos: n_internal,
                neg: n_internal + 1,
            });
            n_internal += 2;
        }
    }

    ws.cost.clear();
    ws.cost.resize(n_internal, 0.0);
    for (i, &c) in lp.objective.iter().enumerate() {
        let c = sign * c;
        match ws.maps[i] {
            VarMap::Shifted { col, .. } => ws.cost[col] += c,
            VarMap::Mirrored { col, .. } => ws.cost[col] -= c,
            VarMap::Split { pos, neg } => {
                ws.cost[pos] += c;
                ws.cost[neg] -= c;
            }
        }
    }

    let m = lp.constraints.len() + n_extra;
    ws.sf_coeffs.clear();
    ws.sf_coeffs.resize(m * n_internal, 0.0);
    ws.sf_rel.clear();
    ws.sf_rhs.clear();
    for (ri, con) in lp.constraints.iter().enumerate() {
        let row = &mut ws.sf_coeffs[ri * n_internal..(ri + 1) * n_internal];
        let mut rhs = con.rhs;
        for (i, &a) in con.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            match ws.maps[i] {
                VarMap::Shifted { col, lower } => {
                    row[col] += a;
                    rhs -= a * lower;
                }
                VarMap::Mirrored { col, upper } => {
                    row[col] -= a;
                    rhs -= a * upper;
                }
                VarMap::Split { pos, neg } => {
                    row[pos] += a;
                    row[neg] -= a;
                }
            }
        }
        ws.sf_rel.push(con.relation);
        ws.sf_rhs.push(rhs);
    }
    // Upper-bound rows of box-bounded variables: x' ≤ upper − lower
    // (0 for a fixed variable).
    let mut ri = lp.constraints.len();
    for (map, b) in ws.maps.iter().zip(&lp.bounds) {
        if let VarMap::Shifted { col, lower } = *map {
            if b.upper.is_finite() {
                let ub = if b.upper > lower {
                    b.upper - lower
                } else {
                    0.0
                };
                ws.sf_coeffs[ri * n_internal + col] = 1.0;
                ws.sf_rel.push(Relation::Le);
                ws.sf_rhs.push(ub);
                ri += 1;
            }
        }
    }
    debug_assert_eq!(ws.sf_rel.len(), m);
    n_internal
}

/// Run the pivot loop until optimality, unboundedness or the iteration cap.
/// Switches from Dantzig to Bland pricing after `bland_after` pivots.
fn pivot_loop(t: &mut Tableau, budget: &mut usize, max_pivots: usize) -> Result<bool, LpError> {
    // Returns Ok(true) on optimal, Ok(false) on unbounded.
    let bland_after = max_pivots / 2;
    let mut local = 0usize;
    loop {
        let bland = local >= bland_after;
        let Some(j) = t.entering(bland) else {
            return Ok(true);
        };
        let Some(r) = t.leaving(j) else {
            return Ok(false);
        };
        t.pivot(r, j);
        local += 1;
        *budget += 1;
        if local > max_pivots {
            return Err(LpError::IterationLimit(max_pivots));
        }
    }
}

/// Write the phase-2 objective (the internal cost vector priced out
/// against the current basis) into the tableau's z-row.
fn price_out_objective(t: &mut Tableau, cost: &[f64]) {
    t.z.fill(0.0);
    t.z[..cost.len()].copy_from_slice(cost);
    for r in 0..t.num_rows() {
        let b = t.basis[r];
        let cb = if b < cost.len() { cost[b] } else { 0.0 };
        if cb.abs() > 0.0 {
            let (row, z) = t.row_and_z_mut(r);
            for (zj, &v) in z.iter_mut().zip(row) {
                *zj -= cb * v;
            }
            // keep reduced cost of basic column exactly zero
            t.z[b] = 0.0;
        }
    }
    // Clean reduced costs of basic columns.
    for r in 0..t.num_rows() {
        let b = t.basis[r];
        t.z[b] = 0.0;
    }
}

/// Attempt a warm solve from the workspace's saved basis. Returns `None`
/// when the basis is singular or infeasible for the new coefficients (the
/// caller then runs the cold path).
#[allow(clippy::too_many_arguments)]
fn warm_solve(
    lp: &LinearProgram,
    ws: &mut SolverWorkspace,
    m: usize,
    n: usize,
    total_structural: usize,
) -> Option<Result<Solution, LpError>> {
    ws.t.reset(m, total_structural);
    let mut next_slack = n;
    for ri in 0..m {
        let rel = ws.sf_rel[ri];
        let rhs = ws.sf_rhs[ri];
        let coeffs = &ws.sf_coeffs[ri * n..(ri + 1) * n];
        let row = ws.t.row_mut(ri);
        row[..n].copy_from_slice(coeffs);
        match rel {
            Relation::Le => {
                row[next_slack] = 1.0;
                next_slack += 1;
            }
            Relation::Ge => {
                row[next_slack] = -1.0;
                next_slack += 1;
            }
            Relation::Eq => {}
        }
        row[total_structural] = rhs;
    }

    // Refactorize the saved basis. The basis is a *set* of columns; the
    // saved row pairing need not admit a zero-free diagonal against the
    // new coefficients, so each column picks its pivot row greedily among
    // the rows not yet claimed (partial pivoting). A basis that is
    // singular for the new coefficients surfaces as no usable pivot.
    ws.row_used.clear();
    ws.row_used.resize(m, false);
    for idx in 0..m {
        let col = ws.saved_basis[idx];
        if col >= total_structural {
            return None;
        }
        let mut best_r = usize::MAX;
        let mut best = WARM_PIVOT_TOL;
        for r in 0..m {
            if !ws.row_used[r] {
                let v = ws.t.get(r, col).abs();
                if v > best {
                    best = v;
                    best_r = r;
                }
            }
        }
        if best_r == usize::MAX {
            return None; // singular for the new coefficients
        }
        ws.row_used[best_r] = true;
        ws.t.pivot(best_r, col);
    }
    // Primal feasible?
    for r in 0..m {
        if ws.t.rhs(r) < -EPS {
            return None;
        }
    }
    for r in 0..m {
        if ws.t.rhs(r) < 0.0 {
            ws.t.set_rhs(r, 0.0);
        }
    }

    price_out_objective(&mut ws.t, &ws.cost);
    let mut pivots = 0usize;
    let max_pivots = 2000 + 50 * (total_structural + m);
    let optimal = match pivot_loop(&mut ws.t, &mut pivots, max_pivots) {
        Ok(o) => o,
        // A degenerate saved basis can stall the pivot loop; fall back to
        // the cold two-phase path so outcomes never depend on workspace
        // history (the contract in the crate docs).
        Err(_) => return None,
    };
    ws.record(true, pivots);
    if !optimal {
        return Some(Ok(Solution {
            pivots,
            warm: true,
            ..Solution::non_optimal(Status::Unbounded)
        }));
    }
    ws.save_basis(m, total_structural);
    Some(Ok(extract(lp, ws, n, pivots, true)))
}

pub(crate) fn solve_with(
    lp: &LinearProgram,
    ws: &mut SolverWorkspace,
) -> Result<Solution, LpError> {
    let n = build_standard_form(lp, ws);
    let m = ws.sf_rel.len();
    let n_slack = ws.sf_rel.iter().filter(|r| **r != Relation::Eq).count();
    let total_structural = n + n_slack;

    // ---- Warm attempt ----
    if ws.has_saved(m, total_structural) {
        if let Some(result) = warm_solve(lp, ws, m, n, total_structural) {
            return result;
        }
    }

    // ---- Cold two-phase path ----
    // Build the equality system with rhs ≥ 0; slacks whose coefficient
    // stays +1 after the sign flip seed the basis, the rest of the rows
    // get artificial columns.
    ws.artificial_rows.clear();
    for ri in 0..m {
        let flip = ws.sf_rhs[ri] < 0.0;
        ws.artificial_rows.push(match ws.sf_rel[ri] {
            Relation::Le => flip,
            Relation::Ge => !flip,
            Relation::Eq => true,
        });
    }
    let n_art = ws.artificial_rows.iter().filter(|&&a| a).count();
    let cols = total_structural + n_art;

    ws.t.reset(m, cols);
    let mut next_slack = n;
    let mut next_art = total_structural;
    for ri in 0..m {
        let artificial = ws.artificial_rows[ri];
        let rel = ws.sf_rel[ri];
        let flip = ws.sf_rhs[ri] < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        let coeffs = &ws.sf_coeffs[ri * n..(ri + 1) * n];
        let rhs = ws.sf_rhs[ri];
        let row = ws.t.row_mut(ri);
        for (dst, &v) in row[..n].iter_mut().zip(coeffs) {
            *dst = sign * v;
        }
        match rel {
            Relation::Le => {
                row[next_slack] = sign;
                next_slack += 1;
            }
            Relation::Ge => {
                row[next_slack] = -sign;
                next_slack += 1;
            }
            Relation::Eq => {}
        }
        row[cols] = sign * rhs;
        debug_assert!(row[cols] >= -EPS);
        if artificial {
            row[next_art] = 1.0;
            ws.t.basis[ri] = next_art;
            next_art += 1;
        } else {
            // The slack we just wrote has coefficient +1 and seeds the
            // basis for this row.
            ws.t.basis[ri] = next_slack - 1;
        }
    }

    let mut pivots = 0usize;
    let max_pivots = 2000 + 50 * (cols + m);

    // ---- Phase 1 ----
    if n_art > 0 {
        ws.t.z.fill(0.0);
        for k in 0..n_art {
            ws.t.z[total_structural + k] = 1.0;
        }
        // Price out the artificial basics: z_row -= sum of their rows.
        for ri in 0..m {
            if ws.artificial_rows[ri] {
                let (row, z) = ws.t.row_and_z_mut(ri);
                for (zj, &v) in z.iter_mut().zip(row) {
                    *zj -= v;
                }
            }
        }
        let optimal = match pivot_loop(&mut ws.t, &mut pivots, max_pivots) {
            Ok(o) => o,
            Err(e) => {
                ws.record(false, pivots);
                return Err(e);
            }
        };
        debug_assert!(optimal, "phase-1 objective is bounded below by 0");
        if ws.t.objective_value() > 1e-7 {
            ws.record(false, pivots);
            return Ok(Solution {
                pivots,
                ..Solution::non_optimal(Status::Infeasible)
            });
        }
        // Drive remaining artificial variables out of the basis.
        ws.drop_rows.clear();
        for r in 0..ws.t.num_rows() {
            if ws.t.basis[r] >= total_structural {
                let piv = (0..total_structural).find(|&j| ws.t.get(r, j).abs() > 1e-7);
                match piv {
                    Some(j) => {
                        ws.t.pivot(r, j);
                        pivots += 1;
                    }
                    None => ws.drop_rows.push(r), // redundant constraint
                }
            }
        }
        let drop = std::mem::take(&mut ws.drop_rows);
        ws.t.remove_rows(&drop);
        ws.drop_rows = drop;
        // Continue in phase 2 without the artificial columns.
        ws.t.shrink_cols(total_structural);
    }

    // ---- Phase 2 (or single phase when no artificials were needed) ----
    price_out_objective(&mut ws.t, &ws.cost);
    let optimal = match pivot_loop(&mut ws.t, &mut pivots, max_pivots) {
        Ok(o) => o,
        Err(e) => {
            ws.record(false, pivots);
            return Err(e);
        }
    };
    ws.record(false, pivots);
    if !optimal {
        return Ok(Solution {
            pivots,
            ..Solution::non_optimal(Status::Unbounded)
        });
    }
    ws.save_basis(ws.t.num_rows(), total_structural);
    Ok(extract(lp, ws, n, pivots, false))
}

/// Map the internal primal solution back to user variables and recompute
/// the objective in the user's direction from first principles. (The
/// returned `x` is the one allocation a solve necessarily makes — it is
/// handed to the caller.)
fn extract(
    lp: &LinearProgram,
    ws: &mut SolverWorkspace,
    n: usize,
    pivots: usize,
    warm: bool,
) -> Solution {
    ws.xi.clear();
    ws.xi.resize(n, 0.0);
    ws.t.primal_into(&mut ws.xi);
    let xi = &ws.xi;
    let mut x = vec![0.0; lp.n];
    for (i, map) in ws.maps.iter().enumerate() {
        x[i] = match *map {
            VarMap::Shifted { col, lower } => lower + xi[col],
            VarMap::Mirrored { col, upper } => upper - xi[col],
            VarMap::Split { pos, neg } => xi[pos] - xi[neg],
        };
    }
    let objective: f64 = lp.objective.iter().zip(x.iter()).map(|(c, v)| c * v).sum();
    Solution {
        status: Status::Optimal,
        objective,
        x,
        pivots,
        warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bound, LinearProgram};
    use crate::workspace::SolverWorkspace;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn minimize_with_ge_constraints_uses_phase1() {
        // min 2x + 3y  s.t. x + y >= 10, x >= 2, y >= 0  -> x=10,y=0? cost 20
        // (x cheaper per unit), but x>=2 already satisfied.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(&[2.0, 3.0]);
        lp.add_constraint(&[1.0, 1.0], Relation::Ge, 10.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 20.0);
        assert_close(sol.x[0], 10.0);
        assert!(!sol.warm);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8 -> x = 2, y = 1, obj 3.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 2.0], Relation::Eq, 4.0);
        lp.add_constraint(&[3.0, 2.0], Relation::Eq, 8.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 1.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[1.0], Relation::Le, 1.0);
        lp.add_constraint(&[1.0], Relation::Ge, 2.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[1.0], Relation::Ge, 0.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[-1.0], Relation::Le, -3.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.x[0], 3.0);
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // x + y = 2 stated twice plus a harmless objective.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], Relation::Eq, 2.0);
        lp.add_constraint(&[2.0, 2.0], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 2.0); // x = 2, y = 0
    }

    #[test]
    fn boxed_variables() {
        // max x + y, 0.2 <= x <= 0.5, 0.1 <= y <= 0.3, x + y <= 0.7
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_bound(0, Bound::boxed(0.2, 0.5));
        lp.set_bound(1, Bound::boxed(0.1, 0.3));
        lp.add_constraint(&[1.0, 1.0], Relation::Le, 0.7);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 0.7);
        assert!(sol.x[0] >= 0.2 - 1e-9 && sol.x[0] <= 0.5 + 1e-9);
        assert!(sol.x[1] >= 0.1 - 1e-9 && sol.x[1] <= 0.3 + 1e-9);
    }

    #[test]
    fn infeasible_bounds_vs_constraints() {
        // 0.6 <= x <= 0.9 but x <= 0.5 required.
        let mut lp = LinearProgram::new(1, Objective::Maximize);
        lp.set_objective(&[1.0]);
        lp.set_bound(0, Bound::boxed(0.6, 0.9));
        lp.add_constraint(&[1.0], Relation::Le, 0.5);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Infeasible);
    }

    #[test]
    fn weight_polytope_style_problem() {
        // Typical dominance LP: min sum d_j w_j over
        // {w in [low,upp]^3, sum w = 1}.
        let d = [0.2, -0.1, 0.05];
        let low = [0.2, 0.3, 0.1];
        let upp = [0.5, 0.6, 0.4];
        let mut lp = LinearProgram::new(3, Objective::Minimize);
        lp.set_objective(&d);
        for i in 0..3 {
            lp.set_bound(i, Bound::boxed(low[i], upp[i]));
        }
        lp.add_constraint(&[1.0, 1.0, 1.0], Relation::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        let s: f64 = sol.x.iter().sum();
        assert_close(s, 1.0);
        // Optimal puts as much as possible on the most negative coefficient:
        // w2 = 0.6, then cheapest remaining on w3: w3 = 0.2? bounds: w3 <= 0.4,
        // w1 >= 0.2 -> w1 = 0.2, w3 = 0.2. Obj = .04 - .06 + .01 = -0.01.
        assert_close(sol.objective, -0.01);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy-inducing problem (Beale-like); just assert it
        // terminates with an optimum.
        let mut lp = LinearProgram::new(4, Objective::Minimize);
        lp.set_objective(&[-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
        lp.add_constraint(&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
        lp.add_constraint(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn objective_constant_for_fixed_all_vars() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(&[2.0, -1.0]);
        lp.set_bound(0, Bound::fixed(1.5));
        lp.set_bound(1, Bound::fixed(0.5));
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 2.5);
    }

    #[test]
    fn maximize_and_minimize_are_symmetric() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], Relation::Le, 1.0);
        let max = lp.solve().unwrap();

        let mut lp2 = LinearProgram::new(2, Objective::Minimize);
        lp2.set_objective(&[-1.0, -2.0]);
        lp2.add_constraint(&[1.0, 1.0], Relation::Le, 1.0);
        let min = lp2.solve().unwrap();
        assert_close(max.objective, -min.objective);
    }

    // ------------------------------------------------- warm-start contract

    /// A potential-optimality-shaped LP: max t over the boxed simplex with
    /// pairwise difference rows derived from `shift`.
    fn max_slack_lp(n: usize, shift: f64) -> LinearProgram {
        let mut lp = LinearProgram::new(n + 1, Objective::Maximize);
        let mut obj = vec![0.0; n + 1];
        obj[n] = 1.0;
        lp.set_objective(&obj);
        for j in 0..n {
            lp.set_bound(j, Bound::boxed(0.05, 0.8));
        }
        lp.set_bound(n, Bound::boxed(-2.0, 2.0));
        let mut norm = vec![1.0; n + 1];
        norm[n] = 0.0;
        lp.add_constraint(&norm, Relation::Eq, 1.0);
        for k in 0..n {
            let mut row = vec![0.0; n + 1];
            for (j, r) in row.iter_mut().enumerate().take(n) {
                *r = ((j * 7 + k * 13) % 11) as f64 / 11.0 - 0.4 + shift;
            }
            row[n] = -1.0;
            lp.add_constraint(&row, Relation::Ge, 0.0);
        }
        lp
    }

    #[test]
    fn warm_start_matches_cold_and_saves_pivots() {
        let mut ws = SolverWorkspace::new();
        let mut cold_pivots = 0usize;
        let mut warm_pivots = 0usize;
        for step in 0..6 {
            let lp = max_slack_lp(8, step as f64 * 0.01);
            let cold = lp.solve().unwrap();
            let sol = lp.solve_with(&mut ws).unwrap();
            assert_eq!(sol.status, cold.status);
            assert_close(sol.objective, cold.objective);
            if step == 0 {
                assert!(!sol.warm);
                cold_pivots = sol.pivots;
            } else {
                assert!(sol.warm, "step {step} should warm start");
                warm_pivots = warm_pivots.max(sol.pivots);
            }
        }
        assert!(
            warm_pivots < cold_pivots,
            "warm {warm_pivots} vs cold {cold_pivots}"
        );
        let stats = ws.stats();
        assert_eq!(stats.solves, 6);
        assert_eq!(stats.warm_solves, 5);
        assert_eq!(stats.pivots, stats.warm_pivots + stats.cold_pivots);
    }

    #[test]
    fn shape_change_falls_back_to_cold() {
        let mut ws = SolverWorkspace::new();
        let a = max_slack_lp(8, 0.0);
        a.solve_with(&mut ws).unwrap();
        let b = max_slack_lp(5, 0.0); // different shape
        let sol = b.solve_with(&mut ws).unwrap();
        assert!(!sol.warm);
        assert_eq!(sol.status, b.solve().unwrap().status);
    }

    #[test]
    fn warm_start_detects_infeasibility_via_fallback() {
        let mut ws = SolverWorkspace::new();
        // First a feasible box problem, then an infeasible sibling of the
        // same shape: the stale basis cannot be feasible, so the solver
        // falls back cold and still reports Infeasible.
        let mut a = LinearProgram::new(1, Objective::Maximize);
        a.set_objective(&[1.0]);
        a.set_bound(0, Bound::boxed(0.0, 1.0));
        a.add_constraint(&[1.0], Relation::Le, 0.5);
        assert_eq!(a.solve_with(&mut ws).unwrap().status, Status::Optimal);

        let mut b = LinearProgram::new(1, Objective::Maximize);
        b.set_objective(&[1.0]);
        b.set_bound(0, Bound::boxed(0.6, 0.9));
        b.add_constraint(&[1.0], Relation::Le, 0.5);
        let sol = b.solve_with(&mut ws).unwrap();
        assert_eq!(sol.status, Status::Infeasible);
        assert!(!sol.warm);
    }

    #[test]
    fn restored_per_key_basis_warm_starts_its_own_member() {
        // Two same-shape family members solved and stashed under their own
        // keys; revisiting a member restores *its* basis (not whatever
        // solved last) and warm-starts with the same optimum as cold.
        let mut ws = SolverWorkspace::new();
        let a = max_slack_lp(8, 0.0);
        let b = max_slack_lp(8, 0.3);
        a.solve_with(&mut ws).unwrap();
        ws.stash_basis(0);
        b.solve_with(&mut ws).unwrap();
        ws.stash_basis(1);

        assert!(ws.restore_basis(0));
        let again = a.solve_with(&mut ws).unwrap();
        assert!(again.warm, "a's own basis should warm-start a");
        assert_close(again.objective, a.solve().unwrap().objective);
        // The stash from before is untouched by the intervening solves.
        assert!(ws.basis_cache().contains(1));
    }

    #[test]
    fn invalidate_forces_cold_solve() {
        let mut ws = SolverWorkspace::new();
        let lp = max_slack_lp(6, 0.0);
        lp.solve_with(&mut ws).unwrap();
        assert!(lp.solve_with(&mut ws).unwrap().warm);
        ws.invalidate();
        assert!(!lp.solve_with(&mut ws).unwrap().warm);
    }

    #[test]
    fn workspace_cold_solve_is_identical_to_plain_solve() {
        // The cold path through a workspace is the same algorithm as
        // `solve()`: identical status, objective, point and pivot count.
        for shift in [0.0, 0.05, -0.1] {
            let lp = max_slack_lp(7, shift);
            let plain = lp.solve().unwrap();
            let mut ws = SolverWorkspace::new();
            let through_ws = lp.solve_with(&mut ws).unwrap();
            assert_eq!(plain.status, through_ws.status);
            assert_eq!(plain.pivots, through_ws.pivots);
            assert_eq!(plain.objective, through_ws.objective);
            assert_eq!(plain.x, through_ws.x);
        }
    }
}
