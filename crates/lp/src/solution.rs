//! Optimal solutions returned by the solvers.

use crate::problem::VarId;
use crate::stats::SolveStats;
use std::ops::Index;

/// An optimal solution: the objective value (in the problem's own sense) and
/// one value per variable, indexed by [`VarId`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: f64,
    /// Value of each variable, ordered by creation.
    pub values: Vec<f64>,
    /// Dual value (shadow price) per constraint, in the problem's own
    /// optimization sense. `Some` for pure LP solves; `None` for MILP
    /// solutions (duals are not defined at integer optima).
    pub duals: Option<Vec<f64>>,
    /// Kernel counters from the solve that produced this solution (for a
    /// MILP, from the node relaxation that became the incumbent).
    /// Excluded from equality: stats describe *how* the optimum was
    /// reached, not *what* it is.
    pub stats: SolveStats,
}

impl PartialEq for Solution {
    fn eq(&self, other: &Solution) -> bool {
        self.objective == other.objective
            && self.values == other.values
            && self.duals == other.duals
    }
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of a variable rounded to the nearest integer — convenient for
    /// reading MILP indicator variables.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.index()].round() as i64
    }
}

impl Index<VarId> for Solution {
    type Output = f64;

    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Sense};

    #[test]
    fn indexing_and_rounding() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let s = Solution {
            objective: 1.0,
            values: vec![0.999_999_9],
            duals: None,
            stats: SolveStats::default(),
        };
        assert_eq!(s.int_value(x), 1);
        assert!((s[x] - 0.999_999_9).abs() < 1e-12);
    }
}
