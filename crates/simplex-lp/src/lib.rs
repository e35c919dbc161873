//! # simplex-lp
//!
//! A small, dependency-free, dense **two-phase simplex** linear-programming
//! solver.
//!
//! This crate is the optimization substrate for the imprecise-MAUT
//! sensitivity analyses of the GMAA reproduction (dominance and potential
//! optimality are decided by minimizing / maximizing linear functionals over
//! the *weight polytope* `{ w : low ≤ w ≤ upp, Σ w = 1 }`), but it is a
//! general-purpose LP solver:
//!
//! * minimize or maximize a linear objective,
//! * `≤`, `≥` and `=` constraints,
//! * per-variable lower/upper bounds (including free variables),
//! * exact infeasibility / unboundedness detection,
//! * Bland's anti-cycling rule as a fallback after a Dantzig-rule phase,
//! * **workspace reuse and warm starting** for solve loops over families
//!   of structurally similar programs.
//!
//! ## Example
//!
//! ```
//! use simplex_lp::{LinearProgram, Objective, Relation, Status};
//!
//! // maximize 3x + 2y  subject to  x + y <= 4, x + 3y <= 6, x,y >= 0
//! let mut lp = LinearProgram::new(2, Objective::Maximize);
//! lp.set_objective(&[3.0, 2.0]);
//! lp.add_constraint(&[1.0, 1.0], Relation::Le, 4.0);
//! lp.add_constraint(&[1.0, 3.0], Relation::Le, 6.0);
//! let sol = lp.solve().unwrap();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 12.0).abs() < 1e-9); // x=4, y=0
//! ```
//!
//! ## Workspace reuse and warm starting
//!
//! [`LinearProgram::solve`] allocates fresh tableau storage per call.
//! Solve loops — the sensitivity analyses solve one LP per alternative,
//! all sharing the same bounds and normalization row — should instead
//! hold a [`SolverWorkspace`] and call
//! [`LinearProgram::solve_with`]:
//!
//! * **Buffer reuse.** The standard-form scratch, the dense tableau and
//!   the basis vector live in the workspace and are resized in place, so
//!   after the first solve of a given shape subsequent solves perform no
//!   allocation.
//! * **Warm start.** After each optimal solve the workspace remembers the
//!   optimal basis. When the next program has the same standard-form
//!   shape (row count and structural column count — mutate rows in place
//!   with [`LinearProgram::set_constraint`] to keep it), the solver
//!   refactorizes that basis against the new coefficients; if it is still
//!   non-singular and primal feasible the whole phase-1 artificial pass
//!   is skipped and the solve typically finishes in a handful of pivots.
//!   [`Solution::warm`] reports whether that happened.
//! * **Verdicts are workspace-independent.** A saved basis that turns
//!   out singular or infeasible for the new coefficients silently falls
//!   back to the cold two-phase path; statuses never depend on the
//!   workspace's history. Optimal *objective values* agree only to
//!   floating-point roundoff: a warm solve may walk a different pivot
//!   sequence to the same vertex, so the low bits of an optimum depend on
//!   the chain of solves before it.
//! * **Accounting.** [`SolverWorkspace::stats`] exposes cumulative
//!   [`SolveStats`] — solves, warm-started solves, and pivots split
//!   cold/warm — which the engine benches surface as pivots-per-LP.
//!
//! ```
//! use simplex_lp::{LinearProgram, Objective, Relation, SolverWorkspace};
//!
//! let mut ws = SolverWorkspace::new();
//! let mut lp = LinearProgram::new(2, Objective::Maximize);
//! lp.set_objective(&[1.0, 1.0]);
//! lp.add_constraint(&[1.0, 2.0], Relation::Le, 4.0);
//! let a = lp.solve_with(&mut ws).unwrap();
//! assert!(!a.warm);
//! // Same skeleton, new coefficients: reuses the optimal basis.
//! lp.set_constraint(0, &[1.0, 2.5], Relation::Le, 4.0);
//! let b = lp.solve_with(&mut ws).unwrap();
//! assert!(b.warm);
//! assert_eq!(ws.stats().solves, 2);
//! ```

#![warn(missing_docs)]

mod error;
mod polytope;
mod problem;
mod solver;
mod tableau;
mod workspace;

pub use error::LpError;
pub use polytope::{minimize_via_lp, GreedyScratch, WeightPolytope, POUR_LANES};
pub use problem::{Bound, Constraint, LinearProgram, Objective, Relation};
pub use solver::{Solution, Status};
pub use workspace::{BasisCache, SolveStats, SolverWorkspace};

/// Numerical tolerance used throughout the solver for feasibility and
/// optimality tests. Problems in this workspace are small (tens of
/// variables), so a fixed absolute tolerance is adequate.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_example() {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective(&[3.0, 2.0]);
        lp.add_constraint(&[1.0, 1.0], Relation::Le, 4.0);
        lp.add_constraint(&[1.0, 3.0], Relation::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-9);
        assert!((sol.x[0] - 4.0).abs() < 1e-9);
        assert!(sol.x[1].abs() < 1e-9);
    }
}
