//! The general two-phase simplex behind [`LinearProgram::solve`]:
//! standard-form conversion, phase 1 (artificial variables), phase 2, and
//! solution extraction back in the user's variable space.
//!
//! Every solve runs cold on buffers of its own. Production code solves
//! only the potential-optimality family, through the bounded-variable
//! [`crate::SolverWorkspace`]; this path is the reference it is checked
//! against, and the LP behind [`crate::minimize_via_lp`].

use crate::error::LpError;
use crate::problem::{LinearProgram, Objective, Relation};
use crate::tableau::Tableau;
use crate::EPS;

/// How a user variable maps into the non-negative internal space.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + x'[col]`, optionally with an upper-bound row added.
    Shifted { col: usize, lower: f64 },
    /// `x = upper - x'[col]` (only an upper bound is finite).
    Mirrored { col: usize, upper: f64 },
    /// `x = x'[pos] - x'[neg]` (free variable split).
    Split { pos: usize, neg: usize },
}

/// The buffers of one solve: standard form, variable maps and tableau.
#[derive(Default)]
struct Work {
    t: Tableau,
    /// Standard-form rows, flattened `m × n_internal`.
    sf_coeffs: Vec<f64>,
    sf_rel: Vec<Relation>,
    sf_rhs: Vec<f64>,
    /// Internal minimization objective over structural variables.
    cost: Vec<f64>,
    maps: Vec<VarMap>,
}

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

/// Result of [`LinearProgram::solve`].
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
}

impl Solution {
    fn non_optimal(status: Status) -> Solution {
        Solution {
            status,
            objective: f64::NAN,
            x: Vec::new(),
        }
    }
}

/// Translate bounds and direction into `min c'·x', A'x' REL b', x' ≥ 0`,
/// writing everything into the flat standard-form buffers of `ws`.
/// Returns the internal (structural) variable count.
fn build_standard_form(lp: &LinearProgram, ws: &mut Work) -> usize {
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

pub(crate) fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let ws = &mut Work::default();
    let n = build_standard_form(lp, ws);
    let m = ws.sf_rel.len();
    let n_slack = ws.sf_rel.iter().filter(|r| **r != Relation::Eq).count();
    let total_structural = n + n_slack;

    // Build the equality system with rhs ≥ 0; slacks whose coefficient
    // stays +1 after the sign flip seed the basis, the rest of the rows
    // get artificial columns.
    let artificial_rows: Vec<bool> = (0..m)
        .map(|ri| {
            let flip = ws.sf_rhs[ri] < 0.0;
            match ws.sf_rel[ri] {
                Relation::Le => flip,
                Relation::Ge => !flip,
                Relation::Eq => true,
            }
        })
        .collect();
    let n_art = artificial_rows.iter().filter(|&&a| a).count();
    let cols = total_structural + n_art;

    ws.t.reset(m, cols);
    let mut next_slack = n;
    let mut next_art = total_structural;
    for (ri, &artificial) in artificial_rows.iter().enumerate() {
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
        for (ri, _) in artificial_rows.iter().enumerate().filter(|(_, &a)| a) {
            let (row, z) = ws.t.row_and_z_mut(ri);
            for (zj, &v) in z.iter_mut().zip(row) {
                *zj -= v;
            }
        }
        let optimal = pivot_loop(&mut ws.t, &mut pivots, max_pivots)?;
        debug_assert!(optimal, "phase-1 objective is bounded below by 0");
        if ws.t.objective_value() > 1e-7 {
            return Ok(Solution::non_optimal(Status::Infeasible));
        }
        // Drive remaining artificial variables out of the basis.
        let mut drop_rows = Vec::new();
        for r in 0..ws.t.num_rows() {
            if ws.t.basis[r] >= total_structural {
                let piv = (0..total_structural).find(|&j| ws.t.get(r, j).abs() > 1e-7);
                match piv {
                    Some(j) => {
                        ws.t.pivot(r, j);
                        pivots += 1;
                    }
                    None => drop_rows.push(r), // redundant constraint
                }
            }
        }
        ws.t.remove_rows(&drop_rows);
        // Continue in phase 2 without the artificial columns.
        ws.t.shrink_cols(total_structural);
    }

    // ---- Phase 2 (or single phase when no artificials were needed) ----
    price_out_objective(&mut ws.t, &ws.cost);
    if !pivot_loop(&mut ws.t, &mut pivots, max_pivots)? {
        return Ok(Solution::non_optimal(Status::Unbounded));
    }
    Ok(extract(lp, ws, n))
}

/// Map the internal primal solution back to user variables and recompute
/// the objective in the user's direction from first principles. (The
/// returned `x` is the one allocation a solve necessarily makes — it is
/// handed to the caller.)
fn extract(lp: &LinearProgram, ws: &Work, n: usize) -> Solution {
    let mut xi = vec![0.0; n];
    ws.t.primal_into(&mut xi);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Bound, LinearProgram};
    use crate::{max_slack_lp, SolverWorkspace, WeightPolytope};

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

    // ------------------------------- the max-slack solver against this one

    /// `n` rival rows over `n` weights, perturbed by `shift`.
    fn max_slack_rows(n: usize, shift: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| ((j * 7 + k * 13) % 11) as f64 / 11.0 - 0.4 + shift)
                    .collect()
            })
            .collect()
    }

    fn boxed(n: usize) -> WeightPolytope {
        WeightPolytope::new(&vec![0.05; n], &vec![0.8; n]).unwrap()
    }

    #[test]
    fn warm_start_matches_cold_and_saves_pivots() {
        // Rows appended one at a time to the optimal tableau re-optimize
        // warm, agree with a cold two-phase solve of the grown program,
        // and take fewer steps than solving each grown program from the
        // start.
        let p = boxed(8);
        let rows = max_slack_rows(8, 0.02);
        let mut ws = SolverWorkspace::new();
        let mut fresh = SolverWorkspace::new();
        ws.start(&p, &[0.0; 8]);
        ws.push_row(&rows[0]);
        ws.solve().unwrap();
        for k in 1..rows.len() {
            ws.push_row(&rows[k]);
            let t = ws.solve().unwrap();
            let cold = max_slack_lp(&p, &rows[..=k]).solve().unwrap();
            assert_eq!(cold.status, Status::Optimal);
            assert_close(t, cold.objective);
            fresh.start(&p, &[0.0; 8]);
            for c in &rows[..=k] {
                fresh.push_row(c);
            }
            assert_close(fresh.solve().unwrap(), t);
        }
        let stats = ws.stats();
        assert_eq!((stats.solves, stats.warm_solves), (8, 7));
        assert_eq!(stats.pivots, stats.warm_pivots + stats.cold_pivots);
        assert!(
            stats.warm_pivots < fresh.stats().cold_pivots,
            "warm {stats:?} vs fresh {:?}",
            fresh.stats()
        );
    }

    #[test]
    fn workspace_cold_solve_is_identical_to_plain_solve() {
        // A cold solve on a reused workspace is the same computation as
        // one on a fresh workspace, whatever the reused one solved before:
        // identical optimum, point and step count.
        let mut reused = SolverWorkspace::new();
        for (n, shift) in [(8, 0.0), (5, 0.05), (8, -0.1), (3, 0.02)] {
            let p = boxed(n);
            let rows = max_slack_rows(n, shift);
            let solve = |ws: &mut SolverWorkspace| {
                ws.start(&p, &vec![0.0; n]);
                for c in &rows {
                    ws.push_row(c);
                }
                let t = ws.solve().unwrap();
                let mut w = vec![0.0; n];
                ws.weights_into(&mut w);
                (t, w)
            };
            let before = reused.stats().pivots;
            let (t, w) = solve(&mut reused);
            let mut fresh = SolverWorkspace::new();
            let (t0, w0) = solve(&mut fresh);
            assert_eq!(t.to_bits(), t0.to_bits());
            assert_eq!(w, w0);
            assert_eq!(reused.stats().pivots - before, fresh.stats().pivots);
            assert_close(t, max_slack_lp(&p, &rows).solve().unwrap().objective);
        }
    }

    #[test]
    fn shape_change_falls_back_to_cold() {
        // A new start of another dimension discards the old tableau: its
        // first solve is cold and agrees with the two-phase solve.
        let mut ws = SolverWorkspace::new();
        ws.start(&boxed(8), &[0.0; 8]);
        for c in max_slack_rows(8, 0.0) {
            ws.push_row(&c);
        }
        ws.solve().unwrap();
        let rows = max_slack_rows(5, 0.1);
        ws.start(&boxed(5), &[1.0, 0.0, 0.0, 0.0, 0.0]);
        for c in &rows {
            ws.push_row(c);
        }
        let t = ws.solve().unwrap();
        assert_eq!(ws.stats().warm_solves, 0);
        assert_close(t, max_slack_lp(&boxed(5), &rows).solve().unwrap().objective);
    }
}
