//! # simplex-lp
//!
//! A small, dependency-free, dense simplex linear-programming library.
//!
//! This crate is the optimization substrate for the imprecise-MAUT
//! sensitivity analyses of the GMAA reproduction: dominance and potential
//! optimality are decided by optimizing linear functionals over the
//! *weight polytope* `{ w : low ≤ w ≤ upp, Σ w = 1 }`. It has three parts:
//!
//! * [`WeightPolytope`]: exact greedy pours for linear functionals over
//!   the polytope (the dominance and intensity sweeps);
//! * [`SolverWorkspace`]: a bounded-variable simplex for the one LP family
//!   the potential-optimality certification solves, `max t` subject to
//!   rival rows `c_k·w ≥ t` over the polytope. Bounds are handled in the
//!   ratio test, and [`SolverWorkspace::start`] is closed-form (no phase
//!   1). Constraint generation appends the rows an optimum violates with
//!   [`SolverWorkspace::push_row`]; the basis stays dual feasible, so the
//!   next solve re-optimizes warm by dual simplex steps. [`SolveStats`]
//!   counts solves, warm re-solves and simplex steps;
//! * [`LinearProgram`]: a general two-phase simplex (`≤`, `≥`, `=` rows,
//!   boxed, fixed and free variables, infeasibility and unboundedness
//!   detection, Bland's rule after a Dantzig phase). Every solve is cold.
//!   It is the reference the other two are tested against.
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
pub use workspace::{max_slack_lp, SolveStats, SolverWorkspace};

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
