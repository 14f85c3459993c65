//! The dual-simplex repair loop a live tableau runs after a bound or rhs
//! edit pushed basics out of their box.

use super::{Tableau, PHASE1_TOL};
use crate::error::SolveError;
use crate::EPS;

impl Tableau {
    /// Dual-simplex repair loop: while some basic variable sits outside
    /// its box (below zero or above its upper bound), pivot it out to the
    /// violated bound and bring in the nonbasic column with the smallest
    /// dual ratio `|d_c / α_rc|` among those that move in a
    /// feasibility-restoring direction — the classic dual ratio test,
    /// which keeps the reduced costs (near-)optimal so the primal polish
    /// afterwards converges in a handful of pivots.
    ///
    /// The folded-rhs invariant (`xb(r)` = current value of row `r`'s
    /// basic) makes the pivot mechanics identical to the primal loop's:
    /// the entering variable moves by `step = (v - target) / α_re` from
    /// its rest, every other gathered row's value shifts by `-α · step`,
    /// and the leaving variable lands exactly on the violated bound (its
    /// at-upper rest is recorded before the pivot). The entering step is
    /// always kept inside the entering column's own box: a candidate whose
    /// box is too narrow to absorb the full repair is **bound-flipped**
    /// across it instead (shrinking the violation by `|α|·width`) and the
    /// scan repeats — the bounded-variable dual ratio test. An unclamped
    /// overshoot would leave the entering basic far outside its box, and
    /// chasing that new worst violation diverges (observed on
    /// branch-and-bound chains before flips were introduced).
    ///
    /// Candidates also need `|α| > 1e-7` — a repair pivot on a tiny
    /// element scales the tableau by `1/α` and wrecks it numerically;
    /// abandoning the repair instead is safe because the caller retries
    /// the whole solve cold on any dual-repair error.
    ///
    /// Tie-breaks (most-infeasible row, first column at the minimum
    /// ratio) are index-ordered, keeping pivot sequences deterministic.
    pub(super) fn dual_iterate(&mut self) -> Result<u64, SolveError> {
        /// Minimum pivot-element magnitude; below this the repair is
        /// abandoned rather than risk a `1/α` blow-up.
        const DUAL_PIVOT_TOL: f64 = 1e-7;
        let max_iters = 50 * self.rows + 1_000;
        let mut iters = 0u64;
        'outer: loop {
            if iters as usize >= max_iters {
                return Err(SolveError::IterationLimit);
            }
            // Leaving row: the most infeasible basic; strict comparisons
            // keep ties on the smallest row index.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, target, to_upper)
            let mut worst = PHASE1_TOL;
            for r in 0..self.rows {
                let v = self.xb[r];
                let b = self.basis[r];
                if v < -worst {
                    worst = -v;
                    leave = Some((r, 0.0, false));
                } else if self.ub[b].is_finite() && v - self.ub[b] > worst {
                    worst = v - self.ub[b];
                    leave = Some((r, self.ub[b], true));
                }
            }
            let Some((r, target, to_upper)) = leave else {
                return Ok(iters); // every basic back inside its box
            };
            // Read once: the bound flips below leave the row as it is.
            self.gather_row(r);
            // Inner loop: flip too-narrow candidates until one can absorb
            // the remaining violation, then pivot it in. Each flip strictly
            // shrinks `diff` and reverses the flipped column's admissible
            // direction, so the scan cannot revisit it for this row.
            loop {
                if iters as usize >= max_iters {
                    return Err(SolveError::IterationLimit);
                }
                let diff = self.xb[r] - target;
                if diff.abs() <= PHASE1_TOL {
                    // Flips alone repaired the row.
                    continue 'outer;
                }
                // Entering column: admissible direction (the entering
                // variable can only rise from its lower rest / fall from
                // its upper rest, and must push the leaving basic toward
                // `target`), minimum dual ratio.
                let mut best: Option<(usize, f64)> = None; // (col, alpha)
                let mut best_ratio = f64::INFINITY;
                for k in 0..self.scratch.len() {
                    let (c, alpha) = (self.scratch[k], self.scratch_val[k]);
                    if self.is_basic[c] || !self.allowed[c] {
                        continue;
                    }
                    if alpha.abs() <= DUAL_PIVOT_TOL {
                        continue;
                    }
                    // step = diff / alpha; at-lower columns need step > 0,
                    // at-upper columns step < 0.
                    let admissible = if self.at_upper[c] {
                        diff * alpha < 0.0
                    } else {
                        diff * alpha > 0.0
                    };
                    if !admissible {
                        continue;
                    }
                    let ratio = (self.obj[c] / alpha).abs();
                    if ratio < best_ratio - EPS {
                        best_ratio = ratio;
                        best = Some((c, alpha));
                    }
                }
                let Some((e, alpha)) = best else {
                    // No column can restore this row: the box constraints
                    // are inconsistent with the row system (or only
                    // numerically-unsafe pivots remain — the caller's cold
                    // retry settles which).
                    return Err(SolveError::Infeasible);
                };

                let step = diff / alpha;
                let width = self.ub[e];
                if width.is_finite() && step.abs() > width + EPS {
                    // Too narrow: move `e` across its whole box. `diff`
                    // shrinks by `|α|·width` and keeps its sign (the full
                    // pivot would have needed more than the width).
                    let delta = if self.at_upper[e] { -width } else { width };
                    self.gather_entering(e);
                    for k in 0..self.ecol_rows.len() {
                        let i = self.ecol_rows[k] as usize;
                        let nv = self.xb[i] - self.ecol_vals[k] * delta;
                        self.xb[i] = nv;
                    }
                    self.objval += self.obj[e] * delta;
                    self.at_upper[e] = !self.at_upper[e];
                    self.stats.bound_flips += 1;
                    iters += 1;
                    continue;
                }

                self.gather_entering(e);
                let pk = self
                    .ecol_rows
                    .iter()
                    .position(|&g| g as usize == r)
                    .expect("pivot row missing from entering-column gather");
                let rest = if self.at_upper[e] { self.ub[e] } else { 0.0 };
                self.objval += self.obj[e] * step;
                let old_basic = self.basis[r];
                self.at_upper[old_basic] = to_upper;
                self.pivot_with_rhs_update(r, e, step, pk);
                self.at_upper[e] = false;
                self.is_basic[old_basic] = false;
                self.is_basic[e] = true;
                self.basis[r] = e;
                // In-box by the width test above; clamp the epsilon slack.
                let nv = (rest + step).clamp(0.0, if width.is_finite() { width } else { f64::MAX });
                self.xb[r] = if nv.abs() < EPS { 0.0 } else { nv };
                self.stats.pivots += 1;
                self.stats.dual_pivots += 1;
                iters += 1;
                continue 'outer;
            }
        }
    }
}
