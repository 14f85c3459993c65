//! The two phases around the pivot loops: phase 1 (feasibility) and its
//! cost row, pricing out the real objective for phase 2, and reading the
//! answer — values and duals — off the final tableau.

use super::{Col, Tableau, PHASE1_TOL};
use crate::error::SolveError;
use crate::problem::{Problem, Sense};

impl Tableau {
    /// Phase 1: minimize the sum of artificial variables, from the
    /// reduced-cost row in `obj` (`build` wrote it; a live tableau's
    /// `resume` has `phase1_costs` scan for it).
    pub(super) fn phase1(&mut self) -> Result<(), SolveError> {
        if !self.basis.iter().any(|&b| self.is_artificial(b)) {
            return Ok(()); // slack basis is already feasible
        }

        self.reset_pricing();
        let t0 = std::time::Instant::now();
        let run = self.iterate();
        self.stats.phase1_secs += t0.elapsed().as_secs_f64();
        self.stats.phase1_iterations += run?;

        if self.objval > PHASE1_TOL {
            return Err(SolveError::Infeasible);
        }

        // Drive any artificial still in the basis out (it sits at zero, so
        // this is a degenerate pivot).
        for r in 0..self.rows {
            if self.is_artificial(self.basis[r]) {
                self.gather_row(r);
                let col = (0..self.scratch.len()).find(|&k| {
                    !self.is_artificial(self.scratch[k]) && self.scratch_val[k].abs() > 1e-8
                });
                if let Some(k) = col {
                    self.degenerate_swap(r, self.scratch[k]);
                }
                // No pivot column: the row is redundant; the artificial
                // stays basic at zero and its column is blocked in phase 2.
            }
        }
        Ok(())
    }

    /// The phase-1 reduced-cost row and objective by a scan of the matrix
    /// as it stands: what a live tableau, which `build` did not lay out,
    /// needs (cost 1 on every artificial; basics must have zero reduced
    /// cost, so subtract each artificial-basic row).
    pub(super) fn phase1_costs(&mut self) {
        for c in 0..self.cols {
            self.obj[c] = if self.is_artificial(c) { 1.0 } else { 0.0 };
        }
        self.objval = 0.0;
        for i in 0..self.rows {
            if self.is_artificial(self.basis[i]) {
                self.gather_row(i);
                for k in 0..self.scratch.len() {
                    self.obj[self.scratch[k]] -= self.scratch_val[k];
                }
                self.objval += self.xb[i];
            }
        }
    }

    /// Phase 2: optimize the real (internally minimized) objective from a
    /// basis whose reduced costs are not known yet.
    pub(super) fn phase2(&mut self, problem: &Problem) -> Result<(), SolveError> {
        self.price_out(problem);
        self.optimize(false)
    }

    /// Cost of column `c` in the internal minimization.
    #[inline]
    fn cost(&self, problem: &Problem, c: usize) -> f64 {
        match (self.kind[c], problem.sense) {
            (Col::Var(v), Sense::Minimize) => problem.objective[v],
            (Col::Var(v), Sense::Maximize) => -problem.objective[v],
            _ => 0.0,
        }
    }

    /// Rebuild the reduced costs `d_j = c_j - c_B' (B^{-1} A_j)` and the
    /// objective value from the tableau, and block the artificials.
    fn price_out(&mut self, problem: &Problem) {
        for c in 0..self.cols {
            if self.is_artificial(c) {
                self.allowed[c] = false;
            }
            self.obj[c] = self.cost(problem, c);
        }
        for i in 0..self.rows {
            let cb = self.cost(problem, self.basis[i]);
            if cb != 0.0 {
                self.gather_row(i);
                for k in 0..self.scratch.len() {
                    self.obj[self.scratch[k]] -= cb * self.scratch_val[k];
                }
            }
        }
        self.objval = self.basis_objective(problem);
    }

    /// Objective value of the current point:
    /// `c_B' x_B + Σ_{nonbasic at upper} c_j w_j`.
    pub(super) fn basis_objective(&self, problem: &Problem) -> f64 {
        let mut val = 0.0;
        for i in 0..self.rows {
            if let Col::Var(_) = self.kind[self.basis[i]] {
                val += self.cost(problem, self.basis[i]) * self.xb[i];
            }
        }
        for j in 0..self.cols {
            if let Col::Var(_) = self.kind[j] {
                if !self.is_basic[j] && self.at_upper[j] {
                    val += self.cost(problem, j) * self.ub[j];
                }
            }
        }
        val
    }

    /// The pivot loops of phase 2, from valid reduced costs. With
    /// `dual_repair` set (basics sit outside their box after a bound or
    /// rhs edit), a dual-simplex pass restores primal feasibility first —
    /// its ratio test reads the reduced costs — and the primal loop then
    /// polishes to optimality.
    pub(super) fn optimize(&mut self, dual_repair: bool) -> Result<(), SolveError> {
        if dual_repair {
            let t0 = std::time::Instant::now();
            let run = self.dual_iterate();
            let secs = t0.elapsed().as_secs_f64();
            self.stats.phase1_secs += secs;
            self.stats.dual_repair_secs += secs;
            self.stats.phase1_iterations += run?;
        }

        self.reset_pricing();
        let t0 = std::time::Instant::now();
        let run = self.iterate();
        self.stats.phase2_secs += t0.elapsed().as_secs_f64();
        self.stats.phase2_iterations += run?;
        Ok(())
    }

    /// Dual value (shadow price) of every original constraint, in the
    /// problem's own optimization sense: the marginal change of the
    /// optimal objective per unit of constraint rhs.
    pub(super) fn duals(&self, sense: Sense) -> Vec<f64> {
        let sense_factor = match sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.row_meta
            .iter()
            .map(|&(col, sign)| sense_factor * sign * self.obj[col])
            .collect()
    }

    /// The user variables' values at the final tableau, shifted back by
    /// `lo` and with solver noise clamped into the `[lo, hi]` box.
    pub(super) fn values(&self, lo: &[f64], hi: &[f64]) -> Vec<f64> {
        let mut values = self.extract();
        for (j, v) in values.iter_mut().enumerate() {
            *v = (lo[j] + *v).clamp(lo[j], hi[j]);
        }
        values
    }

    /// Read the structural-variable values out of the final tableau.
    fn extract(&self) -> Vec<f64> {
        let mut y = vec![0.0f64; self.n_struct];
        for c in 0..self.cols {
            if let Col::Var(v) = self.kind[c] {
                if !self.is_basic[c] && self.at_upper[c] {
                    y[v] = self.ub[c];
                }
            }
        }
        for i in 0..self.rows {
            if let Col::Var(v) = self.kind[self.basis[i]] {
                y[v] = self.xb[i].max(0.0);
            }
        }
        y
    }
}
