//! Choosing the entering column: Dantzig pricing over a candidate list
//! that a periodic full scan refills (a small tableau full-scans every
//! time), first eligible index under Bland's rule. The refill keeps the
//! strongest `price_cap` columns and remembers which slot is the weakest
//! between replacements, so it costs the columns plus one pass over the
//! list per replacement, not one per eligible column.

use super::{Tableau, PRICE_REFRESH};
use crate::EPS;

impl Tableau {
    /// Pricing violation of column `c`: how strongly its reduced cost
    /// invites it into the basis (0.0 = not eligible).
    #[inline]
    fn violation(&self, c: usize) -> f64 {
        if self.is_basic[c] || !self.allowed[c] {
            return 0.0;
        }
        let d = self.obj[c];
        if self.at_upper[c] {
            if d > EPS {
                d
            } else {
                0.0
            }
        } else if d < -EPS {
            -d
        } else {
            0.0
        }
    }

    /// Forget the candidate list (phase transitions change the cost row
    /// wholesale, invalidating cached attractiveness).
    pub(super) fn reset_pricing(&mut self) {
        self.candidates.clear();
        self.cand_v.clear();
        self.refresh_in = 0;
    }

    /// Entering column: nonbasic at lower with `d < 0`, or nonbasic at
    /// upper with `d > 0`.
    ///
    /// Partial pricing: between full scans only the candidate list is
    /// priced (stale entries are dropped in place). A full scan — which is
    /// the only way `None` (optimality) is returned — refills the list with
    /// the `price_cap` most attractive columns. Bland mode always scans
    /// fully and takes the first eligible index.
    pub(super) fn choose_entering(&mut self, bland: bool) -> Option<usize> {
        if bland {
            return (0..self.cols).find(|&c| self.violation(c) > 0.0);
        }
        if !self.small && self.refresh_in > 0 && !self.candidates.is_empty() {
            self.refresh_in -= 1;
            let mut best: Option<usize> = None;
            let mut best_v = 0.0;
            let mut w = 0usize;
            for k in 0..self.candidates.len() {
                let c = self.candidates[k];
                let v = self.violation(c);
                if v > 0.0 {
                    self.candidates[w] = c;
                    self.cand_v[w] = v;
                    w += 1;
                    if v > best_v {
                        best_v = v;
                        best = Some(c);
                    }
                }
            }
            self.candidates.truncate(w);
            self.cand_v.truncate(w);
            if best.is_some() {
                self.stats.candidate_hits += 1;
                return best;
            }
        }
        self.full_price()
    }

    /// Full Dantzig scan; rebuilds the candidate list as a side effect.
    fn full_price(&mut self) -> Option<usize> {
        self.stats.full_price_scans += 1;
        self.refresh_in = PRICE_REFRESH;
        self.candidates.clear();
        self.cand_v.clear();
        let cap = self.price_cap;
        let mut best: Option<usize> = None;
        let mut best_v = 0.0;
        // Slot of the weakest cached candidate, while it is known: a
        // replacement forgets it, a column too weak to replace it does not.
        let mut weakest: Option<usize> = None;
        for c in 0..self.cols {
            let v = self.violation(c);
            if v <= 0.0 {
                continue;
            }
            if v > best_v {
                best_v = v;
                best = Some(c);
            }
            if self.small {
                continue; // pure Dantzig: no candidate list to maintain
            }
            if self.candidates.len() < cap {
                self.candidates.push(c);
                self.cand_v.push(v);
            } else {
                // Replace the weakest cached candidate (first-min on ties,
                // so the outcome is index-deterministic).
                let mi = *weakest.get_or_insert_with(|| {
                    (1..cap).fold(0, |mi, k| if self.cand_v[k] < self.cand_v[mi] { k } else { mi })
                });
                if v > self.cand_v[mi] {
                    self.candidates[mi] = c;
                    self.cand_v[mi] = v;
                    weakest = None;
                }
            }
        }
        best
    }
}
