//! The warm start: resuming the simplex from the point the tableau
//! already describes instead of from the slack basis.
//!
//! [`solve_live`] (behind [`crate::WarmState`]) keeps the final tableau of
//! the previous solve and applies the caller's edits to it where it
//! stands. The factored matrix `B⁻¹A`, the basic values, the reduced
//! costs, the objective value and the at-upper rests are all still valid,
//! so an edit costs its own nonzeros:
//!
//! | edit | update |
//! |---|---|
//! | `set_rhs(i, b)` | `x_B += B⁻¹e_i · Δb`, read off row `i`'s marker column |
//! | `set_var_upper(j, w)` | a nonbasic `j` resting at its upper bound moves with it: `x_B -= B⁻¹a_j · Δw` |
//! | new variable `j` | `B⁻¹a_j = Σ_i a_ij · B⁻¹e_i`, reduced cost `c_j − yᵀa_j`, nonbasic at 0 |
//! | new row | its basic terms are eliminated against the rows that hold them; its own slack (artificial for `Eq`) is basic |
//!
//! No `build`, no pricing-out of the reduced-cost row. `B⁻¹e_i` is never
//! stored: row `i`'s slack (or artificial) started as `±e_i` and every
//! pivot since has transformed it along with the rest, so the column *is*
//! `±B⁻¹e_i` — with the same sign `row_meta` already keeps for reading the
//! row's dual. [`Tableau::classify`] then says what the edited point needs
//! before phase 2 can run from it.
//!
//! A cold answer is the reference; a live answer passes its guards
//! (`solve_live`'s residual backstop, the caller's KKT gate) or is redone
//! cold. Every refusal — an edit outside the contract, a rejected
//! classification, an error of the live run, a point that misses the rows
//! — drops the live tableau and solves cold, which is also what bounds
//! round-off drift: the tableau lives only as long as its answers keep
//! passing.

use super::{
    finish, fresh_stats, note_fallback, open_span, primal_violation, solve_with, Col, Tableau,
    Workspace, PHASE1_TOL,
};
use crate::error::SolveError;
use crate::problem::{Problem, Relation, Sense};
use crate::solution::Solution;
use crate::stats::SolveStats;
use crate::EPS;

/// What a warm point needs before phase 2 can run from it (see
/// [`Tableau::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Install {
    /// The point is primal feasible; phase 1 is skipped.
    Feasible,
    /// Some rows were repaired into artificial-basic form (appended rows
    /// the warm point violates); phase 1 runs from the warm point and only
    /// drives those out.
    NeedsPhase1,
    /// Some basic variables sit outside their box (the rhs/bound-edit
    /// pattern: a shrunk upper bound or tightened rhs pushed them out).
    /// The dual simplex repairs exactly those rows from the
    /// still-dual-feasible warm point (see [`Tableau::dual_iterate`])
    /// instead of restarting phase 1.
    NeedsDualRepair,
    /// The point cannot be repaired in place; the caller solves cold.
    Reject,
}

impl Tableau {
    /// Inspect the primal feasibility of the current point and commit one
    /// repair strategy for the whole tableau:
    ///
    /// * every basic inside its box → [`Install::Feasible`], phase 1 is
    ///   skipped entirely;
    /// * a slack-basic row driven negative (the row-generation pattern:
    ///   an appended row enters with its own slack basic, and the warm
    ///   point violates exactly the rows the separation oracle just
    ///   appended) is converted **in place** — the row is sign-flipped and
    ///   its (still all-zero) artificial column made basic at the
    ///   violation amount — and a basic artificial resting at a positive
    ///   value is kept as-is; both yield [`Install::NeedsPhase1`], where
    ///   phase 1 starts from the warm point and only has to drive out the
    ///   handful of artificials measuring the new violations instead of
    ///   rebuilding feasibility from the slack basis;
    /// * basics outside their box that the conversion above cannot absorb
    ///   (beyond a shrunk upper bound, or negative without the row's own
    ///   slack basic — the bound/rhs-edit pattern) are left as they are
    ///   and reported as [`Install::NeedsDualRepair`]: the dual simplex
    ///   drives them back to a bound from the still-dual-feasible point;
    /// * anything unrepairable (a negative basic artificial, positive
    ///   artificials mixed with out-of-box basics) → [`Install::Reject`].
    ///
    /// A first read-only pass classifies every row so that one strategy
    /// fits all of them: converting a row to artificial form pins it to a
    /// phase-1 run, while dual repair needs the infeasible rows untouched.
    fn classify(&mut self) -> Install {
        let mut has_pos_art = false;
        let mut has_above_ub = false;
        let mut all_convertible = true;
        let mut neg_rows: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            let v = self.xb[r];
            let b = self.basis[r];
            if self.is_artificial(b) {
                if v < -PHASE1_TOL {
                    return Install::Reject; // artificials cannot go negative
                }
                if v > PHASE1_TOL {
                    // A basic artificial at a positive value is a valid
                    // phase-1 starting point (its column is the unit
                    // vector for this row, like every basic's).
                    has_pos_art = true;
                }
                continue;
            }
            if v > self.ub[b] + PHASE1_TOL {
                has_above_ub = true;
            }
            if v < -PHASE1_TOL {
                neg_rows.push(r);
                if !self.can_convert_row(r) {
                    all_convertible = false;
                }
            }
        }

        if !has_pos_art && !has_above_ub && neg_rows.is_empty() {
            self.clamp_negative_noise();
            return Install::Feasible;
        }
        if !has_above_ub && all_convertible {
            // The appended-rows pattern: every violated row is a freshly
            // appended one whose slack went negative (plus possibly basic
            // artificials the basis kept). Convert in place and run a
            // short phase 1 confined to those artificials.
            for &r in &neg_rows {
                let ok = self.convert_row_to_artificial(r);
                debug_assert!(ok, "can_convert_row admitted an unconvertible row");
                if !ok {
                    return Install::Reject;
                }
            }
            self.clamp_negative_noise();
            return Install::NeedsPhase1;
        }
        if !has_pos_art {
            // The bound/rhs-edit pattern: basics pushed below zero or above
            // a (shrunk) upper bound. Leave the rows as they are — the
            // dual simplex drives each one back to a bound while keeping
            // reduced costs optimal.
            return Install::NeedsDualRepair;
        }
        // Positive artificials mixed with out-of-box basics: neither a
        // confined phase 1 nor a pure dual repair applies.
        Install::Reject
    }

    /// Clamp sub-tolerance negative basic values (solver noise on a basis
    /// accepted as feasible) back to zero.
    fn clamp_negative_noise(&mut self) {
        for v in self.xb.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Read-only preconditions of [`Tableau::convert_row_to_artificial`]:
    /// would the conversion succeed on row `r`?
    fn can_convert_row(&self, r: usize) -> bool {
        let slack = self.basis[r];
        if self.row_meta[r].0 != slack || self.kind[slack] != Col::Slack {
            return false;
        }
        let art = self.row_art[r];
        if self.is_basic[art] {
            return false;
        }
        // The column's row file is a superset of its nonzero rows.
        let elsewhere = |r2: usize| r2 != r && self.at(r2, art) != 0.0;
        if self.col_dense[art] {
            if (0..self.rows).any(elsewhere) {
                return false;
            }
        } else if self.col_rows[art].iter().any(|&r2| elsewhere(r2 as usize)) {
            return false;
        }
        let own = self.at(r, art);
        own == 0.0 || own == -1.0
    }

    /// Repair a row whose basic slack sits at a negative value by swapping
    /// the row's artificial in as the basic measuring the violation.
    ///
    /// Preconditions (checked; `false` on failure, caller rejects the
    /// warm point): the row's basic must be its own slack/surplus marker,
    /// and the row's artificial column must be zero outside row `r` and
    /// `0` or `-1` in it — true for appended rows: a `Le` artificial is
    /// never populated, a `Ge` artificial that `build` made basic holds
    /// exactly `-1` after the surplus pivot (the row was scaled by
    /// `1/(-1)`), and pivots cannot create fill-in elsewhere (every pivot
    /// row carries a zero in appended-row marker columns).
    ///
    /// The row `a·x + s = rhs` with basic `s = v < 0` is sign-flipped to
    /// `-a·x - s + art = -rhs` with `s` nonbasic at its lower bound and
    /// `art = -v > 0` basic: the artificial's value is exactly the
    /// violation, and driving it to zero in phase 1 restores the original
    /// inequality. The row's `row_meta` dual sign is untouched: the flip
    /// negates the marker column's coefficient along with the row, and the
    /// two cancel in the marker's reduced cost, keeping [`Tableau::duals`]
    /// exact for the final solve (verified against cold duals by
    /// `warm.rs`'s `violated_row_appends_match_cold_duals`). For the same
    /// reason the marker column keeps standing for `±B⁻¹e_r`: the flip is
    /// a row operation like any other.
    fn convert_row_to_artificial(&mut self, r: usize) -> bool {
        if !self.can_convert_row(r) {
            return false;
        }
        let slack = self.basis[r];
        let art = self.row_art[r];
        let base = r * self.stride;
        let own = self.a[base + art];
        // Flip the whole row, rhs included (xb[r] = v becomes -v > 0).
        self.gather_row(r);
        for k in 0..self.scratch.len() {
            self.a[base + self.scratch[k]] = -self.scratch_val[k];
        }
        if self.xb[r] != 0.0 {
            self.xb[r] = -self.xb[r];
        }
        if own == 0.0 {
            self.a[base + art] = 1.0;
            self.set_bit(r, art);
            if !self.small && !self.col_dense[art] {
                self.col_rows[art].push(r as u32);
            }
        }
        self.is_basic[slack] = false;
        self.at_upper[slack] = false; // rests at its lower bound (0)
        self.is_basic[art] = true;
        self.basis[r] = art;
        true
    }

    // --- edits on a live tableau ---------------------------------------

    /// Append an all-zero column, nonbasic at its lower bound, with `cost`
    /// as its reduced cost so far. The cells are already there: `stride`
    /// keeps head-room past `cols`, and nothing ever writes to it.
    fn push_col(&mut self, kind: Col, ub: f64, cost: f64) -> usize {
        let c = self.cols;
        if c == self.stride {
            // Out of head-room: re-stride with a quarter more, so that a
            // tableau growing by a few percent per batch re-strides a
            // bounded number of times over its life.
            let stride = self.stride + self.stride / 4 + 16;
            let mut a = vec![0.0; self.rows * stride];
            for r in 0..self.rows {
                a[r * stride..r * stride + c]
                    .copy_from_slice(&self.a[r * self.stride..r * self.stride + c]);
            }
            self.a = a;
            if !self.small {
                let (old, new) = (self.words(), stride.div_ceil(64));
                let mut bits = vec![0; self.rows * new];
                for r in 0..self.rows {
                    bits[r * new..r * new + old]
                        .copy_from_slice(&self.row_bits[r * old..(r + 1) * old]);
                }
                self.row_bits = bits;
            }
            self.stride = stride;
        }
        debug_assert!((0..self.rows).all(|r| self.at(r, c) == 0.0));
        self.cols += 1;
        self.kind.push(kind);
        self.ub.push(ub);
        self.obj.push(cost);
        self.is_basic.push(false);
        self.at_upper.push(false);
        // As `build` and `price_out` leave them: zero-width columns and
        // artificials never enter.
        self.allowed.push(kind != Col::Artificial && ub >= EPS);
        if c == self.col_rows.len() {
            self.col_rows.push(Vec::new()); // else an emptied file is there
        }
        self.col_dense.push(self.small);
        c
    }

    /// `x_B += f · column c`, with `c` gathered through its row file.
    fn shift_basics_along(&mut self, c: usize, f: f64) {
        self.gather_entering(c);
        for k in 0..self.ecol_rows.len() {
            self.xb[self.ecol_rows[k] as usize] += f * self.ecol_vals[k];
        }
    }

    /// Replace the width of user column `c`. A basic column just gets the
    /// new box (classification finds it outside); a nonbasic one resting
    /// at its upper bound moves with the bound, and the basics follow. A
    /// column that was resting on a zero-width box counts as at its lower
    /// bound, so re-opening a retired column does not jump it to the top.
    fn set_upper(&mut self, c: usize, w: f64) {
        let old = self.ub[c];
        self.ub[c] = w;
        self.allowed[c] = w >= EPS;
        if self.is_basic[c] || !self.at_upper[c] {
            return;
        }
        let stays_up = old >= EPS && w.is_finite() && w > 0.0;
        self.at_upper[c] = stays_up;
        let shift = if stays_up { w - old } else { -old };
        if shift != 0.0 {
            self.shift_basics_along(c, -shift);
            self.objval += self.obj[c] * shift;
        }
    }

    /// Move the rhs of constraint `i` by `delta` (in the caller's own
    /// orientation of the row): `x_B += B⁻¹e_i · Δb`.
    fn shift_rhs(&mut self, i: usize, delta: f64) {
        let (marker, sign) = self.row_meta[i];
        self.shift_basics_along(marker, -sign * delta);
        self.objval += sign * self.obj[marker] * delta;
    }

    /// Give existing constraint `i` the terms `(column, coefficient)` over
    /// freshly pushed columns: each column gains `a · B⁻¹e_i` and prices
    /// out against the row's dual.
    fn splice_into_row(&mut self, i: usize, terms: &[(usize, f64)]) {
        let (marker, sign) = self.row_meta[i];
        let dual = sign * self.obj[marker];
        self.gather_entering(marker);
        for &(c, coef) in terms {
            let f = -sign * coef;
            for k in 0..self.ecol_rows.len() {
                let r = self.ecol_rows[k] as usize;
                self.a[r * self.stride + c] += f * self.ecol_vals[k];
                self.set_bit(r, c);
            }
            if !self.col_dense[c] {
                self.col_rows[c].extend_from_slice(&self.ecol_rows);
            }
            self.obj[c] -= coef * dual;
        }
    }

    /// Append a constraint over existing columns with its own slack basic
    /// (its artificial for `Eq`), whatever value that gives the slack:
    /// classification turns a violated row into a confined phase 1 or a
    /// dual repair. `basic_row[c]` is the row column `c` is basic in
    /// (`u32::MAX` if nonbasic) as of before this call.
    fn append_row(
        &mut self,
        terms: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
        basic_row: &[u32],
    ) {
        let r = self.rows;
        let slack =
            (relation != Relation::Eq).then(|| self.push_col(Col::Slack, f64::INFINITY, 0.0));
        let art = self.push_col(Col::Artificial, f64::INFINITY, 0.0);
        let stride = self.stride;
        if self.a.len() < (r + 1) * stride {
            self.a.resize((r + 1) * stride, 0.0);
        }
        if !self.small && self.row_bits.len() < (r + 1) * self.words() {
            self.row_bits.resize((r + 1) * self.words(), 0);
        }
        self.rows += 1;

        // How far the current point is from the row.
        let mut resid = rhs;
        for &(c, coef) in terms {
            let at = match basic_row[c] {
                u32::MAX if self.at_upper[c] => self.ub[c],
                u32::MAX => 0.0,
                p => self.xb[p as usize],
            };
            resid -= coef * at;
        }
        // Orient the row so that its basic marker has coefficient +1 and,
        // for an `Eq` row, the artificial starts non-negative.
        let o = match relation {
            Relation::Le => 1.0,
            Relation::Ge => -1.0,
            Relation::Eq if resid < 0.0 => -1.0,
            Relation::Eq => 1.0,
        };
        let base = r * stride;
        for &(c, coef) in terms {
            self.a[base + c] = o * coef;
            self.set_bit(r, c);
        }
        // Express the row in the current nonbasic columns.
        for &(c, _) in terms {
            let (p, f) = (basic_row[c], self.a[base + c]);
            if p == u32::MAX || f == 0.0 {
                continue;
            }
            self.gather_row(p as usize);
            for k in 0..self.scratch.len() {
                self.a[base + self.scratch[k]] -= f * self.scratch_val[k];
                self.set_bit(r, self.scratch[k]);
            }
            self.a[base + c] = 0.0;
        }
        let marker = slack.unwrap_or(art);
        self.a[base + marker] = 1.0;
        self.set_bit(r, marker);
        if !self.small {
            // What cancelled above loses its bit here and enters no file.
            self.gather_row(r);
            for k in 0..self.scratch.len() {
                let c = self.scratch[k];
                if !self.col_dense[c] {
                    self.col_rows[c].push(r as u32);
                }
            }
        }
        self.is_basic[marker] = true;
        self.basis.push(marker);
        self.xb.push(o * resid);
        self.row_meta.push((marker, -o));
        self.row_art.push(art);
    }

    /// Re-optimize from the current point, which `install` classified.
    fn resume(&mut self, problem: &Problem, install: Install) -> Result<(), SolveError> {
        if install == Install::NeedsPhase1 {
            // Phase 1 takes over the cost row; the phase-2 reduced costs
            // ride along in `parked` and come back pivoted.
            self.parked.clone_from(&self.obj);
            self.phase1_costs(); // no `build` laid this tableau out
            let run = self.phase1();
            std::mem::swap(&mut self.obj, &mut self.parked);
            self.parked.clear();
            run?;
            self.objval = self.basis_objective(problem);
        }
        self.optimize(install == Install::NeedsDualRepair)
    }
}

/// The problem as a live tableau has absorbed it: what the next
/// [`solve_live`] diffs the caller's [`Problem`] against.
#[derive(Debug)]
pub(super) struct Live {
    sense: Sense,
    objective: Vec<f64>,
    /// Tableau column of each variable (its width is the tableau's `ub`).
    var_col: Vec<usize>,
    rows: Vec<RowSeen>,
}

/// One constraint as the live tableau holds it.
#[derive(Debug)]
struct RowSeen {
    relation: Relation,
    rhs: f64,
    /// How many of the constraint's terms are in (rows only ever grow).
    terms: usize,
}

impl RowSeen {
    fn of(c: &crate::problem::Constraint) -> RowSeen {
        RowSeen {
            relation: c.relation,
            rhs: c.rhs,
            terms: c.terms.len(),
        }
    }
}

impl Live {
    /// `problem` as a tableau that `build` just laid out holds it.
    fn capture(problem: &Problem) -> Live {
        Live {
            sense: problem.sense,
            objective: problem.objective.clone(),
            var_col: (0..problem.num_vars()).collect(),
            rows: problem.constraints.iter().map(RowSeen::of).collect(),
        }
    }

    /// Bring `tab` up to date with `problem`. `false` (tableau possibly
    /// half-edited, to be discarded) when the difference is not made of
    /// the edits [`crate::warm`]'s contract lists, as far as shape and the
    /// objective can tell.
    fn absorb(&mut self, problem: &Problem, tab: &mut Tableau) -> bool {
        let Live {
            sense,
            objective,
            var_col,
            rows,
        } = self;
        let (n_old, m_old) = (var_col.len(), rows.len());
        if problem.sense != *sense
            || problem.num_vars() < n_old
            || problem.constraints.len() < m_old
            || problem.objective[..n_old] != objective[..]
        {
            return false;
        }
        for (c, seen) in problem.constraints.iter().zip(rows.iter()) {
            if c.relation != seen.relation
                || c.terms.len() < seen.terms
                || c.terms[seen.terms..].iter().any(|&(j, _)| j < n_old)
            {
                return false;
            }
        }

        for (v, &c) in var_col.iter().enumerate() {
            let w = problem.vars[v].upper;
            if w != tab.ub[c] {
                tab.set_upper(c, w);
            }
        }
        for (i, (c, seen)) in problem.constraints.iter().zip(rows.iter_mut()).enumerate() {
            if c.rhs != seen.rhs {
                tab.shift_rhs(i, c.rhs - seen.rhs);
                seen.rhs = c.rhs;
            }
        }

        // New variables, then their terms in the rows that were extended.
        let sign = match sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for v in n_old..problem.num_vars() {
            let cost = sign * problem.objective[v];
            var_col.push(tab.push_col(Col::Var(v), problem.vars[v].upper, cost));
            objective.push(problem.objective[v]);
        }
        tab.n_struct = var_col.len();
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for (i, (c, seen)) in problem.constraints.iter().zip(rows.iter_mut()).enumerate() {
            if c.terms.len() > seen.terms {
                terms.clear();
                terms.extend(c.terms[seen.terms..].iter().map(|&(j, a)| (var_col[j], a)));
                tab.splice_into_row(i, &terms);
                seen.terms = c.terms.len();
            }
        }

        // New rows, over any column.
        if problem.constraints.len() > m_old {
            let mut basic_row = vec![u32::MAX; tab.cols];
            for (r, &b) in tab.basis.iter().enumerate() {
                basic_row[b] = r as u32;
            }
            for c in &problem.constraints[m_old..] {
                terms.clear();
                terms.extend(c.terms.iter().map(|&(j, a)| (var_col[j], a)));
                tab.append_row(&terms, c.relation, c.rhs, &basic_row);
                rows.push(RowSeen::of(c));
            }
        }
        true
    }
}

/// Solve `problem` on the live tableau `ws` holds for an earlier version
/// of it, if it holds one and the edits since are within the contract;
/// otherwise — and whenever a guard refuses the live answer — cold, from
/// a fresh `build`, after which the tableau is live again.
///
/// `stats.warm_start` on the answer says which happened.
pub(crate) fn solve_live(problem: &Problem, ws: &mut Workspace) -> Result<Solution, SolveError> {
    let mut wasted: Option<SolveStats> = None;
    'live: {
        let Some(mut live) = ws.live.take() else {
            break 'live;
        };
        let tab = &mut ws.tab;
        if !live.absorb(problem, tab) {
            break 'live;
        }
        let install = tab.classify();
        if install == Install::Reject {
            break 'live;
        }
        tab.stats = fresh_stats(tab, true);
        let span = open_span(tab);
        if tab.resume(problem, install).is_err() {
            // A stuck dual repair says nothing about the problem, and an
            // `Infeasible` or `IterationLimit` off a
            // tableau that has absorbed many solves' pivots and edits says
            // less than one off a fresh build: every live error is redone
            // cold, and only the cold verdict is reported.
            let reason = match install {
                Install::NeedsDualRepair => "dual_repair_failed",
                _ => "live_error",
            };
            note_fallback(span.is_some(), reason);
            break 'live;
        }
        let lo = vec![0.0; problem.num_vars()];
        let hi: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();
        let values = tab.values(&lo, &hi);
        if primal_violation(problem, &values) > 1e-6 {
            note_fallback(span.is_some(), "residual_backstop");
            wasted = Some(tab.stats.clone());
            break 'live;
        }
        ws.live = Some(live);
        return Ok(finish(problem, &ws.tab, values, span));
    }

    // Cold, on a tableau built with room to grow.
    ws.tab.roomy = true;
    let mut sol = solve_with(problem, &[], ws)?;
    if let Some(w) = wasted {
        sol.stats.pivots += w.pivots;
        sol.stats.dual_pivots += w.dual_pivots;
        sol.stats.bound_flips += w.bound_flips;
    }
    ws.live = Some(Live::capture(problem));
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live tableau gone wrong (here by hand: no column may enter, so
    /// the confined phase 1 cannot move) calls a feasible problem
    /// infeasible. That verdict is never reported: the solve is redone
    /// cold, answers from the fresh build, and is live again afterwards.
    #[test]
    fn live_error_is_redone_cold() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let y = p.add_var();
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let mut ws = Workspace::new();
        solve_live(&p, &mut ws).unwrap(); // x = 10, y = 0

        ws.tab.allowed.fill(false);
        p.add_constraint(&[(y, 1.0)], Relation::Ge, 5.0);
        let sol = solve_live(&p, &mut ws).unwrap();
        assert!(!sol.stats.warm_start, "the live verdict was an error");
        assert!((sol.objective - 25.0).abs() < 1e-9, "{}", sol.objective);

        p.set_rhs(1, 6.0);
        let sol = solve_live(&p, &mut ws).unwrap();
        assert!(sol.stats.warm_start);
        assert!((sol.objective - 26.0).abs() < 1e-9, "{}", sol.objective);
    }
}
