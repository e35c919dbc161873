use crate::error::LpError;
use crate::solver::{self, Solution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective functional.
    Minimize,
    /// Maximize the objective functional.
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// A single linear constraint `coeffs · x REL rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficient row `a` (one entry per variable).
    pub coeffs: Vec<f64>,
    /// The relation between `a·x` and `rhs`.
    pub relation: Relation,
    /// Right-hand side `b`.
    pub rhs: f64,
}

/// Per-variable bound. The solver internally shifts/splits variables so that
/// everything is expressed over non-negative variables in standard form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Lower bound; `f64::NEG_INFINITY` for unbounded below.
    pub lower: f64,
    /// Upper bound; `f64::INFINITY` for unbounded above.
    pub upper: f64,
}

impl Bound {
    /// The default bound: `x ≥ 0`.
    pub const NON_NEGATIVE: Bound = Bound {
        lower: 0.0,
        upper: f64::INFINITY,
    };

    /// A completely free variable.
    pub const FREE: Bound = Bound {
        lower: f64::NEG_INFINITY,
        upper: f64::INFINITY,
    };

    /// A boxed variable `lower ≤ x ≤ upper`.
    pub fn boxed(lower: f64, upper: f64) -> Bound {
        Bound { lower, upper }
    }

    /// A variable fixed at `v`.
    pub fn fixed(v: f64) -> Bound {
        Bound { lower: v, upper: v }
    }
}

/// A linear program in natural (user-facing) form.
///
/// Variables default to non-negative; use [`LinearProgram::set_bound`] for
/// boxed, fixed or free variables. Build the model, then call
/// [`LinearProgram::solve`].
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) n: usize,
    pub(crate) direction: Objective,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) bounds: Vec<Bound>,
}

impl LinearProgram {
    /// Create a program over `n` decision variables (all `≥ 0` by default).
    pub fn new(n: usize, direction: Objective) -> LinearProgram {
        LinearProgram {
            n,
            direction,
            objective: vec![0.0; n],
            constraints: Vec::new(),
            bounds: vec![Bound::NON_NEGATIVE; n],
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Set the objective coefficient vector.
    pub fn set_objective(&mut self, coeffs: &[f64]) -> &mut Self {
        assert_eq!(coeffs.len(), self.n, "objective length mismatch");
        self.objective.copy_from_slice(coeffs);
        self
    }

    /// Set the bound of variable `var`.
    pub fn set_bound(&mut self, var: usize, bound: Bound) -> &mut Self {
        self.bounds[var] = bound;
        self
    }

    /// Add the constraint `coeffs · x REL rhs`.
    pub fn add_constraint(&mut self, coeffs: &[f64], relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(coeffs.len(), self.n, "constraint length mismatch");
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
        self
    }

    /// Validate the model (dimensions, finiteness, bound sanity).
    pub fn validate(&self) -> Result<(), LpError> {
        if self.n == 0 {
            return Err(LpError::EmptyProblem);
        }
        for (i, c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::NonFiniteInput(format!("objective[{i}]")));
            }
        }
        for (ci, con) in self.constraints.iter().enumerate() {
            if con.coeffs.len() != self.n {
                return Err(LpError::DimensionMismatch {
                    expected: self.n,
                    got: con.coeffs.len(),
                });
            }
            if !con.rhs.is_finite() {
                return Err(LpError::NonFiniteInput(format!("constraint[{ci}].rhs")));
            }
            for (i, c) in con.coeffs.iter().enumerate() {
                if !c.is_finite() {
                    return Err(LpError::NonFiniteInput(format!("constraint[{ci}][{i}]")));
                }
            }
        }
        for (i, b) in self.bounds.iter().enumerate() {
            if b.lower > b.upper {
                return Err(LpError::InvalidBound {
                    var: i,
                    lower: b.lower,
                    upper: b.upper,
                });
            }
            if b.lower.is_nan() || b.upper.is_nan() {
                return Err(LpError::NonFiniteInput(format!("bound[{i}]")));
            }
        }
        Ok(())
    }

    /// Solve the program cold with the two-phase simplex method.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.validate()?;
        solver::solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Status;

    #[test]
    fn default_bounds_are_non_negative() {
        let lp = LinearProgram::new(3, Objective::Minimize);
        assert!(lp.bounds.iter().all(|b| *b == Bound::NON_NEGATIVE));
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 0);
    }

    #[test]
    fn validate_rejects_empty() {
        let lp = LinearProgram::new(0, Objective::Minimize);
        assert_eq!(lp.validate(), Err(LpError::EmptyProblem));
    }

    #[test]
    fn validate_rejects_nan_objective() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective(&[f64::NAN]);
        assert!(matches!(lp.validate(), Err(LpError::NonFiniteInput(_))));
    }

    #[test]
    fn validate_rejects_bad_bound() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_bound(0, Bound::boxed(2.0, 1.0));
        assert!(matches!(lp.validate(), Err(LpError::InvalidBound { .. })));
    }

    #[test]
    fn validate_rejects_infinite_rhs() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.add_constraint(&[1.0], Relation::Le, f64::INFINITY);
        assert!(matches!(lp.validate(), Err(LpError::NonFiniteInput(_))));
    }

    #[test]
    fn fixed_bound_forces_value() {
        // minimize x + y with x fixed at 2, y >= 0, x + y >= 3
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_bound(0, Bound::fixed(2.0));
        lp.add_constraint(&[1.0, 1.0], Relation::Ge, 3.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_can_go_negative() {
        // minimize x subject to x >= -5 is unbounded for FREE... use equality:
        // minimize x subject to x + y = 0, y <= 3 => x = -y >= -3, min x = -3.
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective(&[1.0, 0.0]);
        lp.set_bound(0, Bound::FREE);
        lp.set_bound(1, Bound::boxed(0.0, 3.0));
        lp.add_constraint(&[1.0, 1.0], Relation::Eq, 0.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.x[0] + 3.0).abs() < 1e-9, "x = {}", sol.x[0]);
    }
}
