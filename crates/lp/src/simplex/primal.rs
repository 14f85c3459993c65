//! The primal pivot loop: pick an entering column, run the bounded ratio
//! test, flip a bound or pivot, fall back to Bland's rule on a stall. The
//! loop's termination tests live here, the wall-clock guard among them —
//! ROADMAP item 2 (Harris ratio test, deterministic budget) edits this
//! file.

use super::{Tableau, PHASE1_TOL, STALL_LIMIT, TIME_SAMPLE};
use crate::error::SolveError;
use crate::EPS;

impl Tableau {
    /// Main pivot loop. Returns the number of iterations performed (the
    /// caller attributes them to its phase). Wraps [`Self::iterate_inner`]
    /// to fold the sampled pricing/pivot timings into the stats exactly
    /// once per call, whatever exit path the loop takes.
    pub(super) fn iterate(&mut self) -> Result<u64, SolveError> {
        let mut pricing_ns = 0u64;
        let mut pivot_ns = 0u64;
        let out = self.iterate_inner(&mut pricing_ns, &mut pivot_ns);
        self.stats.pricing_secs += (pricing_ns * TIME_SAMPLE as u64) as f64 * 1e-9;
        self.stats.pivot_secs += (pivot_ns * TIME_SAMPLE as u64) as f64 * 1e-9;
        out
    }

    fn iterate_inner(
        &mut self,
        pricing_ns: &mut u64,
        pivot_ns: &mut u64,
    ) -> Result<u64, SolveError> {
        let max_iters = 400 * (self.rows + self.cols) + 20_000;
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        // Wall-clock guard: healthy solves of the model sizes BATE builds
        // finish in well under a second; a solve running for tens of
        // seconds is degenerate-cycling under Bland's slow-but-safe rule
        // and will not produce a better answer. The cap keeps online
        // components responsive (callers treat IterationLimit like
        // Infeasible: reject / fall back).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);

        for it in 0..max_iters {
            if it % 256 == 0 && std::time::Instant::now() > deadline {
                return Err(SolveError::IterationLimit);
            }
            // A phase 1 confined to the new violations of a live tableau
            // (the one that carries `parked`) is done the moment they are
            // gone. Its cost row is minus the few rows that measured them,
            // so from there on pricing would only find what cancellation
            // left in those rows, and pivot on it.
            if !self.parked.is_empty() && self.objval <= PHASE1_TOL {
                return Ok(it as u64);
            }
            // Phase-attribution sampling: every TIME_SAMPLE-th iteration is
            // timed (pricing vs pivot work) and the caller scales up.
            let t_iter = (it % TIME_SAMPLE == 0).then(std::time::Instant::now);
            let entering = self.choose_entering(bland);
            let t_pivot = t_iter.map(|t| {
                *pricing_ns += t.elapsed().as_nanos() as u64;
                std::time::Instant::now()
            });
            let Some(e) = entering else {
                return Ok(it as u64); // optimal (verified by a full pricing scan)
            };
            if bland {
                self.stats.bland_iterations += 1;
            }
            // Direction: +1 if entering rises from its lower bound, -1 if
            // it falls from its upper bound.
            let delta = if self.at_upper[e] { -1.0 } else { 1.0 };

            // Gather the entering column sparsely (ascending rows with
            // nonzero coefficients); the ratio test, rhs update, and
            // elimination below all iterate this instead of every row.
            self.gather_entering(e);

            // Ratio test: the entering step is limited by the entering
            // variable's own bound width (flip) and by every basic variable
            // hitting one of its bounds. Ties between rows break toward the
            // smallest basis index (Bland-compatible); a row beats a
            // same-sized bound flip. Rows absent from the gather have a
            // zero coefficient, i.e. never limit the step — visiting only
            // the gathered rows (in ascending order, like the full scan
            // this replaces) is exact.
            let mut t = self.ub[e]; // bound-flip limit (may be inf)
            let mut leave: Option<(usize, bool)> = None; // (gather index, leaves_at_upper)
            for k in 0..self.ecol_rows.len() {
                let i = self.ecol_rows[k] as usize;
                let alpha = self.ecol_vals[k];
                let rate = delta * alpha; // basic i changes at -rate per unit
                let candidate = if rate > EPS {
                    // Basic decreases toward 0.
                    Some((self.xb[i] / rate, false))
                } else if rate < -EPS && self.ub[self.basis[i]].is_finite() {
                    // Basic increases toward its own upper bound.
                    Some(((self.ub[self.basis[i]] - self.xb[i]) / (-rate), true))
                } else {
                    None
                };
                let Some((ti, at_up)) = candidate else { continue };
                let ti = ti.max(0.0);
                let take = match leave {
                    _ if ti < t - EPS => true,
                    None if ti <= t + EPS => true, // row beats a tied flip
                    Some((pk, _)) if ti <= t + EPS => {
                        self.basis[i] < self.basis[self.ecol_rows[pk] as usize]
                    }
                    _ => false,
                };
                if take {
                    t = t.min(ti);
                    leave = Some((k, at_up));
                }
            }

            if t.is_infinite() {
                return Err(SolveError::Unbounded);
            }

            // Objective improvement bookkeeping (d_e · Δx_e, Δx_e = δ·t).
            self.objval += self.obj[e] * delta * t;

            match leave {
                None => {
                    // Bound flip: entering moves across its whole range.
                    for k in 0..self.ecol_rows.len() {
                        let i = self.ecol_rows[k] as usize;
                        let nv = self.xb[i] - delta * self.ecol_vals[k] * t;
                        self.xb[i] = nv;
                    }
                    self.at_upper[e] = !self.at_upper[e];
                    self.stats.bound_flips += 1;
                }
                Some((pk, leaves_at_upper)) => {
                    let r = self.ecol_rows[pk] as usize;
                    let new_value = if self.at_upper[e] {
                        self.ub[e] - t
                    } else {
                        t
                    };
                    let old_basic = self.basis[r];
                    self.at_upper[old_basic] = leaves_at_upper;
                    self.pivot_with_rhs_update(r, e, delta * t, pk);
                    self.at_upper[e] = false;
                    self.is_basic[old_basic] = false;
                    self.is_basic[e] = true;
                    self.basis[r] = e;
                    self.xb[r] = new_value.max(0.0);
                    self.stats.pivots += 1;
                }
            }

            if let Some(t) = t_pivot {
                *pivot_ns += t.elapsed().as_nanos() as u64;
            }

            if self.objval < last_obj - 1e-12 {
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    bland = true;
                }
            }
            last_obj = self.objval;
        }
        Err(SolveError::IterationLimit)
    }
}
