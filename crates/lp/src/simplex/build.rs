//! Laying a [`Problem`] out as a tableau, and taking the tableau back to
//! all-zero afterwards — matrix and occupancy bits alike: set-up and
//! tear-down both cost the problem's nonzeros, not the matrix.

use super::{Col, Tableau, SMALL_TABLEAU_MAX_COLS};
use crate::problem::{Problem, Relation};
use crate::EPS;

impl Tableau {
    /// Fill the tableau from `problem`'s rows with variables shifted by
    /// `lo`; `hi` are the (pre-shift) upper bounds. Reuses every buffer.
    ///
    /// The layout gives every non-`Eq` row a slack/surplus column and
    /// every row an artificial column (used or not depending on the rhs
    /// normalization below; unused ones stay all-zero and blocked).
    pub(super) fn build(&mut self, problem: &Problem, lo: &[f64], hi: &[f64]) {
        let n = lo.len();
        let m = problem.constraints.len();
        let eq_rows = problem.constraints.iter().filter(|c| c.relation == Relation::Eq).count();
        let first_artificial = n + m - eq_rows;
        let cols = first_artificial + m;

        // The matrix is all-zero at rest and a solve uses a prefix of it,
        // so only a buffer that is too small is replaced — by fresh zero
        // pages: cells that are never written are never faulted in.
        self.sweep();
        self.dirty = true;
        self.stride = if self.roomy { cols + cols / 2 } else { cols };
        if self.a.len() < m * self.stride {
            self.a = vec![0.0; m * self.stride];
        }
        self.small = cols <= SMALL_TABLEAU_MAX_COLS;
        if !self.small && self.row_bits.len() < m * self.words() {
            self.row_bits = vec![0; m * self.words()];
        }
        self.xb.clear();
        self.xb.resize(m, 0.0);

        self.rows = m;
        self.cols = cols;
        self.n_struct = n;
        self.objval = 0.0;
        self.kind.clear();
        self.kind.extend((0..n).map(Col::Var));
        self.kind.resize(first_artificial, Col::Slack);
        self.kind.resize(cols, Col::Artificial);
        self.row_art.clear();
        self.row_art.extend(first_artificial..cols);
        self.parked.clear();

        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.is_basic.clear();
        self.is_basic.resize(cols, false);
        self.obj.clear();
        self.obj.resize(cols, 0.0);
        self.ub.clear();
        self.ub.resize(cols, f64::INFINITY);
        self.at_upper.clear();
        self.at_upper.resize(cols, false);
        self.allowed.clear();
        self.allowed.resize(cols, true);
        self.row_meta.clear();
        if self.col_rows.len() < cols {
            self.col_rows.resize_with(cols, Vec::new);
        }
        self.col_dense.clear();
        self.col_dense.resize(cols, self.small);
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        self.candidates.clear();
        self.cand_v.clear();
        self.refresh_in = 0;
        self.price_cap = (cols / 8).clamp(16, 256);

        for j in 0..n {
            self.ub[j] = hi[j] - lo[j];
            if self.ub[j] < EPS {
                self.allowed[j] = false; // fixed variable, can never move
            }
        }

        // The rows, and with them the phase-1 reduced-cost row (cost 1 on
        // every artificial, minus each row whose artificial is basic) and
        // objective: rows ascending, so every `obj` cell sees the
        // subtractions `phase1_costs` would make, in its order.
        let mut next_slack = n;
        for (i, c) in problem.constraints.iter().enumerate() {
            // Shifted rhs; a negative one flips the whole row so phase 1
            // starts from rhs >= 0 (flipped rows report sign-flipped duals).
            let shift: f64 = c.terms.iter().map(|&(j, coef)| coef * lo[j]).sum();
            let rhs = c.rhs - shift;
            let (sign, flip) = if rhs < 0.0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            let relation = match c.relation {
                Relation::Le if sign < 0.0 => Relation::Ge,
                Relation::Ge if sign < 0.0 => Relation::Le,
                relation => relation,
            };
            for &(j, coef) in &c.terms {
                self.put(i, j, sign * coef);
                if relation != Relation::Le && coef != 0.0 {
                    self.obj[j] -= sign * coef;
                }
            }
            self.xb[i] = sign * rhs;
            // `Eq` rows have no slack column (and never read `slack`).
            let slack = next_slack;
            if c.relation != Relation::Eq {
                next_slack += 1;
            }
            let art = first_artificial + i;
            match relation {
                Relation::Le => {
                    self.put(i, slack, 1.0);
                    self.basis[i] = slack;
                    // d_slack = -y_i  →  y_i = -d_slack.
                    self.row_meta.push((slack, -flip));
                    // This row's artificial column stays all-zero.
                    self.allowed[art] = false;
                    self.obj[art] = 1.0;
                }
                Relation::Ge => {
                    self.put(i, slack, -1.0);
                    self.obj[slack] = 1.0;
                    // d_surplus = +y_i.
                    self.row_meta.push((slack, flip));
                    self.put(i, art, 1.0);
                    self.basis[i] = art;
                }
                Relation::Eq => {
                    self.put(i, art, 1.0);
                    self.basis[i] = art;
                    // d_artificial = c_art - y_i = -y_i in phase 2.
                    self.row_meta.push((art, -flip));
                }
            }
            if relation != Relation::Le {
                self.objval += self.xb[i];
            }
            self.is_basic[self.basis[i]] = true;
        }
        debug_assert_eq!(next_slack, first_artificial);
    }

    /// Write cell `(r, c)` of a tableau being laid out, recording it in the
    /// column's row file and the row's occupancy bits.
    fn put(&mut self, r: usize, c: usize, v: f64) {
        self.set(r, c, v);
        if !self.small {
            self.col_rows[c].push(r as u32);
            self.set_bit(r, c);
        }
    }

    /// Put the matrix and the occupancy bits back to all-zero, the state
    /// every `Workspace` rests in: the cells the row files name, every row
    /// of a dense-flagged column, or the whole `rows × stride` prefix of a
    /// tableau too small to track files (which set no bit). The one routine
    /// that zeroes tableau cells in bulk.
    pub(super) fn sweep(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let (rows, stride) = (self.rows, self.stride);
        if self.small {
            self.a[..rows * stride].fill(0.0);
        } else {
            for c in 0..self.cols {
                if self.col_dense[c] {
                    for r in 0..rows {
                        self.a[r * stride + c] = 0.0;
                        self.clear_bit(r, c);
                    }
                }
                for k in 0..self.col_rows[c].len() {
                    let r = self.col_rows[c][k] as usize;
                    self.a[r * stride + c] = 0.0;
                    self.clear_bit(r, c);
                }
                // Cleared, not dropped: the files keep their allocations.
                self.col_rows[c].clear();
            }
        }
        // The prefix this solve used (the rest was clean before it), and a
        // fixed-size sample of the rest: a check that costs what the solve
        // did, not what the largest tableau ever seen would.
        let (used, rest) = self.a.split_at(rows * stride);
        let mut checked = used.iter().chain(rest.iter().step_by(rest.len() / 64 + 1));
        debug_assert!(checked.all(|v| v.to_bits() == 0), "sweep left a cell");
        let bits = if self.small { 0 } else { rows * self.words() };
        debug_assert!(self.row_bits[..bits].iter().all(|&w| w == 0), "sweep left a bit");
    }
}
