//! Problem builder: variables, linear constraints, and an objective.
//!
//! All variables have an implicit lower bound of zero (every model in BATE
//! is naturally formulated over non-negative quantities — bandwidths, ratios
//! and indicator variables). Upper bounds and integrality are per-variable
//! attributes; the simplex backend materializes bounds as internal rows, so
//! they never appear in [`Problem::num_constraints`].

use crate::error::SolveError;
use crate::milp;
use crate::simplex;
use crate::solution::Solution;

/// Handle to a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the problem's variable list (also its index
    /// into [`Solution::values`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Continuity class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Ordinary continuous variable.
    Continuous,
    /// Integer-valued variable (branch-and-bound enforces integrality).
    Integer,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub kind: VarKind,
    /// Upper bound; `f64::INFINITY` when unbounded above.
    pub upper: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: `(variable, coefficient)` pairs.
    pub terms: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear (or mixed-integer linear) optimization problem under
/// construction.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Create an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            objective: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a continuous variable `>= 0` with no upper bound.
    pub fn add_var(&mut self, name: &str) -> VarId {
        self.add_var_full(name, VarKind::Continuous, f64::INFINITY)
    }

    /// Add a continuous variable `0 <= x <= upper`.
    pub fn add_bounded_var(&mut self, name: &str, upper: f64) -> VarId {
        self.add_var_full(name, VarKind::Continuous, upper)
    }

    /// Add a binary variable (`x ∈ {0, 1}`).
    pub fn add_binary_var(&mut self, name: &str) -> VarId {
        self.add_var_full(name, VarKind::Integer, 1.0)
    }

    /// Add an integer variable `0 <= x <= upper` (use `f64::INFINITY` for no
    /// upper bound).
    pub fn add_integer_var(&mut self, name: &str, upper: f64) -> VarId {
        self.add_var_full(name, VarKind::Integer, upper)
    }

    fn add_var_full(&mut self, name: &str, kind: VarKind, upper: f64) -> VarId {
        assert!(upper >= 0.0, "upper bound must be non-negative");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.to_string(),
            kind,
            upper,
        });
        self.objective.push(0.0);
        id
    }

    /// Set the objective coefficient of `var` (replaces any previous value).
    pub fn set_objective(&mut self, var: VarId, coeff: f64) {
        self.objective[var.0] = coeff;
    }

    /// Add `coeff` to the objective coefficient of `var`.
    pub fn add_objective(&mut self, var: VarId, coeff: f64) {
        self.objective[var.0] += coeff;
    }

    /// Add a linear constraint `Σ coeff·var  (relation)  rhs`.
    ///
    /// Duplicate variables in `terms` are accumulated. Returns the
    /// constraint's row index.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> usize {
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "variable from another problem");
            if c == 0.0 {
                continue;
            }
            match row.iter_mut().find(|(i, _)| *i == v.0) {
                Some((_, acc)) => *acc += c,
                None => row.push((v.0, c)),
            }
        }
        self.constraints.push(Constraint {
            terms: row,
            relation,
            rhs,
        });
        self.constraints.len() - 1
    }

    /// Replace the right-hand side of constraint `row`.
    ///
    /// The row's coefficients and relation are untouched, which is what
    /// lets a [`WarmState`](crate::WarmState) apply the change to its live
    /// tableau (the basic values move along one column) instead of
    /// solving again from scratch.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.constraints[row].rhs = rhs;
    }

    /// Right-hand side of constraint `row`.
    pub fn rhs(&self, row: usize) -> f64 {
        self.constraints[row].rhs
    }

    /// Replace the upper bound of `var` (`f64::INFINITY` for unbounded).
    ///
    /// Bounds are variable attributes, not rows, so tightening or relaxing
    /// one never changes a cached workspace layout or a live tableau's
    /// shape. Setting the bound to zero is the warm-start idiom for
    /// retiring a column in place.
    pub fn set_var_upper(&mut self, var: VarId, upper: f64) {
        assert!(upper >= 0.0, "upper bound must be non-negative");
        self.vars[var.0].upper = upper;
    }

    /// Upper bound of `var`.
    pub fn var_upper(&self, var: VarId) -> f64 {
        self.vars[var.0].upper
    }

    /// Append extra terms to an existing constraint row.
    ///
    /// Every appended term must reference a variable **not already present**
    /// in the row: the existing terms stay a frozen prefix, which is what
    /// lets a [`WarmState`](crate::WarmState) treat the old row as
    /// unchanged and splice only the new columns into its live tableau.
    /// Zero coefficients are dropped.
    pub fn extend_constraint(&mut self, row: usize, terms: &[(VarId, f64)]) {
        let c = &mut self.constraints[row];
        for &(v, coef) in terms {
            assert!(v.0 < self.vars.len(), "variable from another problem");
            if coef == 0.0 {
                continue;
            }
            assert!(
                !c.terms.iter().any(|&(i, _)| i == v.0),
                "extend_constraint: variable {} already in row {row}",
                v.0
            );
            c.terms.push((v.0, coef));
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints (upper bounds excluded — they are variable
    /// attributes, not rows).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True when at least one variable is integer-constrained.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Solve the problem.
    ///
    /// Continuous problems go straight to the simplex method; problems with
    /// integer variables are solved by branch-and-bound. Returns the optimal
    /// solution or a [`SolveError`] describing why none exists.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        if self.has_integers() {
            milp::solve(self, milp::BnbConfig::default())
        } else {
            simplex::solve_relaxation(self, &[])
        }
    }

    /// Solve the LP relaxation (integrality dropped). Mostly useful for
    /// comparing relaxation bounds against MILP optima.
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        simplex::solve_relaxation(self, &[])
    }

    /// Evaluate the objective at a candidate point (no feasibility check).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.iter().zip(values).map(|(c, x)| c * x).sum()
    }

    /// Check whether `values` satisfies every constraint and bound to within
    /// `tol`. Used by tests and by callers that cross-validate solutions.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, def) in values.iter().zip(&self.vars) {
            if *v < -tol || *v > def.upper + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, coef)| coef * values[i]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicate_terms() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        p.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 5.0);
        assert_eq!(p.constraints[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn builder_drops_zero_coefficients() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_constraint(&[(x, 0.0), (y, 1.0)], Relation::Ge, 1.0);
        assert_eq!(p.constraints[0].terms, vec![(1, 1.0)]);
    }

    #[test]
    fn feasibility_check_respects_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var("x", 2.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        assert!(p.is_feasible(&[1.5], 1e-9));
        assert!(!p.is_feasible(&[2.5], 1e-9)); // violates upper bound
        assert!(!p.is_feasible(&[0.5], 1e-9)); // violates constraint
        assert!(!p.is_feasible(&[-0.1], 1e-9)); // violates lower bound
    }

    #[test]
    fn objective_value_is_dot_product() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 2.0);
        p.set_objective(y, -1.0);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 2.0);
    }
}
