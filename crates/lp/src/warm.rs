//! Persistent warm-start state across solve rounds.
//!
//! The row-generation loops in `bate-core` rebuild their master LP from
//! scratch every scheduling round, even when the demand set changed by a
//! few percent. [`WarmState`] owns the master [`Problem`] and a *live*
//! simplex tableau *between* rounds: after a solve the factored matrix,
//! the basic values, the reduced costs and the at-upper rests stay where
//! the simplex left them, the caller mutates the problem incrementally
//! (append variables/rows, extend rows with new columns, edit rhs values
//! and variable bounds in place), and the next [`WarmState::solve`] diffs
//! the problem against what the tableau has absorbed and applies each
//! edit to the tableau directly (`crate::simplex`'s `live` module has the
//! algebra). A solve then costs its edits' nonzeros plus the pivots they
//! really need — no rebuild of the dense tableau, no re-pricing of the
//! reduced-cost row.
//!
//! ## Mutation contract
//!
//! Between solves the caller may only:
//!
//! * append variables and constraints ([`Problem::add_var`] /
//!   [`Problem::add_constraint`]),
//! * extend existing rows with terms over **newly appended** variables
//!   ([`Problem::extend_constraint`]),
//! * edit rhs values in place ([`Problem::set_rhs`]), and
//! * edit variable upper bounds ([`Problem::set_var_upper`]).
//!
//! Anything else that shows in the problem's shape, relations, sense or
//! objective vector makes the next solve cold. Editing an existing
//! *coefficient* in place shows in none of those and is outside the
//! contract; callers needing that rebuild via [`WarmState::rebuild_cold`].
//!
//! ## What drops the live tableau
//!
//! An edit outside the contract, a point the classification cannot repair
//! in place, any error of the live run (a stuck dual repair, an
//! `Infeasible` or `IterationLimit` from its short phase 1), an answer
//! that misses the problem's rows by more than 1e-6 (the residual
//! backstop), and [`WarmState::rebuild_cold`] — which is what callers
//! invoke when their own gate refuses an answer. The solve that follows is
//! today's cold one (fresh `build`, phase 1, phase 2), and it follows
//! within the same [`WarmState::solve`]: an error is only ever reported
//! from a fresh build. So correctness never depends on the live path, and
//! round-off cannot accumulate past the first answer a guard refuses.
//!
//! [`quick_check`] is the float mirror of the exact KKT certificate in
//! `bate-reference`: a microsecond-scale gate the incremental scheduler
//! runs on every warm answer before trusting it, with the rational
//! certificate reserved for offline verification (tests, fuzz campaign).

use crate::error::SolveError;
use crate::problem::{Problem, Relation, Sense};
use crate::simplex::{self, Workspace};
use crate::solution::Solution;

/// Warm-start survival counters, exposed for metrics/benchmark reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Solves that resumed on the live tableau (feasible directly, short
    /// phase 1, or dual repair).
    pub warm_solves: u64,
    /// Solves that ran cold (first solve, out-of-contract edit, refused
    /// live answer, or an explicit [`WarmState::rebuild_cold`]).
    pub cold_solves: u64,
    /// Total dual-simplex repair pivots across all solves.
    pub dual_pivots: u64,
}

/// A master problem plus the solver workspace — and in it the live
/// tableau — that outlives each solve.
#[derive(Debug)]
pub struct WarmState {
    problem: Problem,
    ws: Workspace,
    stats: WarmStats,
}

impl WarmState {
    /// Wrap `problem`; the first [`WarmState::solve`] runs cold and leaves
    /// the tableau live for every following one.
    pub fn new(problem: Problem) -> Self {
        WarmState {
            problem,
            ws: Workspace::new(),
            stats: WarmStats::default(),
        }
    }

    /// The master problem (read-only).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Mutable access to the master problem, under the module-level
    /// mutation contract (append-only structure; in-place rhs/bound edits).
    pub fn problem_mut(&mut self) -> &mut Problem {
        &mut self.problem
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Drop all cached solver state; the next solve runs cold. The safety
    /// valve for certificate failures and out-of-contract mutations.
    ///
    /// It drops the buffers too, not only the live tableau: it is called
    /// when a gate refused an answer, and a tableau that produced a
    /// refused answer is suspect down to its buffers, so the cold solve
    /// gets a fresh workspace. A problem replaced wholesale (the
    /// incremental scheduler's compaction) is not suspect and goes through
    /// [`WarmState::replace_problem`], which keeps them.
    pub fn rebuild_cold(&mut self) {
        self.ws = Workspace::new();
    }

    /// Replace the master problem wholesale. The next solve is cold — a
    /// fresh `build`, whatever the new problem's shape — on the same
    /// buffers, swept, whose pages are already faulted in.
    pub fn replace_problem(&mut self, problem: Problem) {
        self.problem = problem;
        self.ws.forget_live();
    }

    /// Apply the edits since the last solve to the live tableau and
    /// re-optimize from there; cold when there is no live tableau, the
    /// edits are outside the contract, or a guard refuses the live answer
    /// (see the module docs). `stats.warm_start` on the returned solution
    /// says which path actually ran.
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        let sol = simplex::solve_live(&self.problem, &mut self.ws)?;
        if sol.stats.warm_start {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        self.stats.dual_pivots += sol.stats.dual_pivots;
        Ok(sol)
    }
}

/// Float KKT gate for a warm solution: primal feasibility, dual sign
/// feasibility, reduced-cost sign for box-free variables, and the duality
/// gap, all in `f64` with the same scaling conventions as the exact
/// certificate (`bate_reference::verify_parts`). `tol` plays the roles of
/// `τ_feas`/`τ_dual`/`τ_gap` at once.
///
/// A `true` verdict is *not* a proof (that is the rational certificate's
/// job); a `false` verdict is a cheap, reliable signal to retry cold.
pub fn quick_check(problem: &Problem, sol: &Solution, tol: f64) -> bool {
    quick_check_why(problem, sol, tol).is_none()
}

/// [`quick_check`] with a human-readable reason for the first failing
/// condition (`None` when the check passes). Diagnostic aid for tests and
/// fallback logging.
#[doc(hidden)]
pub fn quick_check_why(problem: &Problem, sol: &Solution, tol: f64) -> Option<String> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    if sol.values.len() != n {
        return Some(format!("value count {} != vars {n}", sol.values.len()));
    }
    let Some(duals) = sol.duals.as_ref() else {
        return Some("no duals".into());
    };
    if duals.len() != m {
        return Some(format!("dual count {} != rows {m}", duals.len()));
    }
    if !problem.is_feasible(&sol.values, tol) {
        return Some("primal infeasible".into());
    }

    let sigma = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    // Minimize-form duals; dual sign feasibility per relation.
    let y: Vec<f64> = duals.iter().map(|&v| sigma * v).collect();
    for (i, c) in problem.constraints.iter().enumerate() {
        let eps = tol * (1.0 + y[i].abs());
        let ok = match c.relation {
            Relation::Le => y[i] <= eps,
            Relation::Ge => y[i] >= -eps,
            Relation::Eq => true,
        };
        if !ok {
            return Some(format!("dual sign of row {i}: y = {}", y[i]));
        }
    }

    // Reduced costs z_j = σc_j − Σ_i y_i a_ij with per-column magnitude
    // scales, accumulated row-wise over the sparse constraint terms.
    let mut z: Vec<f64> = (0..n).map(|j| sigma * problem.objective[j]).collect();
    let mut scale: Vec<f64> = z.iter().map(|c| c.abs()).collect();
    for (i, c) in problem.constraints.iter().enumerate() {
        if y[i] == 0.0 {
            continue;
        }
        for &(j, a) in &c.terms {
            let prod = y[i] * a;
            z[j] -= prod;
            scale[j] += prod.abs();
        }
    }

    // Box-free variables must price out non-negative; bounded ones may
    // carry negative reduced costs, which enter the dual objective below.
    let mut dual_obj: f64 = problem
        .constraints
        .iter()
        .enumerate()
        .map(|(i, c)| y[i] * c.rhs)
        .sum();
    for j in 0..n {
        let upper = problem.vars[j].upper;
        if upper.is_finite() {
            if z[j] < 0.0 {
                dual_obj += z[j] * upper;
            }
        } else if z[j] < -tol * (1.0 + scale[j]) {
            return Some(format!("reduced cost of free var {j}: z = {}", z[j]));
        }
    }

    let primal_obj = sigma * sol.objective;
    if (primal_obj - dual_obj).abs() > tol * (1.0 + primal_obj.abs()) {
        return Some(format!(
            "duality gap: primal {primal_obj} vs dual {dual_obj}"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Sense, VarId};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    fn demo() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let y = p.add_var();
        let z = p.add_bounded_var(2.0);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.set_objective(z, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 4.0);
        p
    }

    #[test]
    fn warm_state_round_trip_matches_cold() {
        let mut warm = WarmState::new(demo());
        let first = warm.solve().unwrap();
        assert!(!first.stats.warm_start);
        let second = warm.solve().unwrap();
        assert!(second.stats.warm_start);
        assert_eq!(second.stats.iterations(), 0, "nothing changed");
        approx(first.objective, second.objective);
        assert_eq!(warm.stats().warm_solves, 1);
        assert_eq!(warm.stats().cold_solves, 1);
        // A row the optimum already satisfies costs no phase 1.
        let slack_rhs = second.values[0] + second.values[1] + 100.0;
        warm.problem_mut()
            .add_constraint(&[(VarId(0), 1.0), (VarId(1), 1.0)], Relation::Le, slack_rhs);
        let third = warm.solve().unwrap();
        assert!(third.stats.warm_start);
        assert_eq!(third.stats.iterations(), 0);
        approx(first.objective, third.objective);
    }

    #[test]
    fn rhs_edit_resolves_warm_and_matches_cold() {
        let mut warm = WarmState::new(demo());
        warm.solve().unwrap();
        warm.problem_mut().set_rhs(0, 14.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
    }

    /// Shrinking a bound below the live optimum pushes the basic variable
    /// out of its box; the repair is dual pivots on the live tableau, not
    /// a cold restart, and lands on the optimum.
    #[test]
    fn shrunk_upper_bound_repairs_dually() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var(20.0);
        let y = p.add_var();
        p.set_objective(x, 1.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let mut warm = WarmState::new(p);
        let first = warm.solve().unwrap();
        approx(first.values[0], 10.0); // cheap x carries everything
        warm.problem_mut().set_var_upper(x, 4.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start, "bound edit should stay live");
        assert!(sol.stats.dual_pivots > 0, "expected dual repair pivots");
        assert_eq!(sol.stats.phase2_iterations, 0, "repair should land optimal");
        assert_eq!(warm.stats().dual_pivots, sol.stats.dual_pivots);
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
        approx(sol.values[0], 4.0);
        approx(sol.values[1], 6.0);
    }

    /// Degenerate dual pivot: the entering column has a zero reduced cost
    /// (alternative optima), so the repair pivot moves the basis without
    /// changing the objective — the classic degenerate case the ratio
    /// test must handle without stalling.
    #[test]
    fn degenerate_dual_pivot_terminates() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var(20.0);
        let y = p.add_var();
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0); // equal costs: z_y = 0 at the optimum
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let mut warm = WarmState::new(p);
        let first = warm.solve().unwrap();
        approx(first.objective, 10.0);
        let x_at = first.values[0];
        assert!(x_at > 1.0, "optimum should use x");
        warm.problem_mut().set_var_upper(x, x_at / 2.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        assert!(sol.stats.dual_pivots > 0);
        // Objective unchanged: the repair pivot was degenerate in cost.
        approx(sol.objective, 10.0);
        approx(sol.values[0] + sol.values[1], 10.0);
        assert!(sol.values[0] <= x_at / 2.0 + 1e-9);
    }

    /// Retiring a variable in place (upper bound to zero) must evict it
    /// from the basis and re-route — the demand-removal idiom.
    #[test]
    fn retire_variable_via_zero_bound() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var(20.0);
        let y = p.add_bounded_var(20.0);
        let z = p.add_var();
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        p.set_objective(z, 5.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Ge, 8.0);
        let mut warm = WarmState::new(p);
        let first = warm.solve().unwrap();
        approx(first.values[0], 8.0);
        warm.problem_mut().set_var_upper(x, 0.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
        approx(sol.values[0], 0.0);
        approx(sol.values[1], 8.0);
    }

    /// A repair whose cheapest entering column is too narrow to absorb the
    /// violation must bound-flip it and continue, not overshoot its box.
    /// max y + x/2 with x ∈ [0,1], x + y ≤ 5 optimizes to (0, 5); fencing
    /// y ≤ 2 forces a 3-unit repair whose best dual ratio is x (width 1):
    /// one flip, then the slack absorbs the rest.
    #[test]
    fn dual_repair_flips_narrow_column() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var(1.0);
        let y = p.add_var();
        p.set_objective(x, 0.5);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let mut warm = WarmState::new(p);
        let first = warm.solve().unwrap();
        approx(first.values[0], 0.0);
        approx(first.values[1], 5.0);
        warm.problem_mut().set_var_upper(y, 2.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start, "bound edit should stay live");
        assert!(sol.stats.bound_flips > 0, "expected a dual bound flip");
        assert!(sol.stats.dual_pivots > 0, "expected a dual repair pivot");
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
        approx(sol.objective, 2.5);
        approx(sol.values[0], 1.0);
        approx(sol.values[1], 2.0);
    }

    /// Randomized chains of edits on one live tableau — bounds shrunk
    /// (often to zero, the retirement case) and re-opened, rhs values
    /// moved — with every level compared against a cold solve, through
    /// infeasible levels and out of them again. A diverging repair
    /// (the unclamped dual overshoot this was written against) leaves the
    /// tableau inconsistent and the "optimum" off by whole units, which
    /// any level's comparison here catches.
    #[test]
    fn chained_edits_live_matches_cold() {
        // splitmix64: deterministic, dependency-free.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn unit(state: &mut u64) -> f64 {
            (next(state) >> 11) as f64 / (1u64 << 53) as f64
        }
        let (mut live_solves, mut dual_pivots, mut flips) = (0u64, 0u64, 0u64);
        for seed in 0..2000u64 {
            let mut s = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1;
            let n = 3 + (next(&mut s) % 6) as usize;
            let m = 2 + (next(&mut s) % 5) as usize;
            let sense = if seed % 2 == 0 {
                Sense::Minimize
            } else {
                Sense::Maximize
            };
            let mut p = Problem::new(sense);
            let vars: Vec<VarId> = (0..n)
                .map(|_| {
                    let ub = if unit(&mut s) < 0.3 {
                        f64::INFINITY
                    } else {
                        0.5 + 3.0 * unit(&mut s)
                    };
                    p.add_bounded_var(ub)
                })
                .collect();
            for &v in &vars {
                p.set_objective(v, 2.0 * unit(&mut s) - 1.0);
            }
            for _ in 0..m {
                let rel = match next(&mut s) % 3 {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for _ in 0..1 + (next(&mut s) % 4) as usize {
                    let v = vars[(next(&mut s) % n as u64) as usize];
                    if !terms.iter().any(|&(w, _)| w == v) {
                        terms.push((v, (2.0 * unit(&mut s) - 1.0) * 2.0));
                    }
                }
                let rhs = match rel {
                    Relation::Ge => unit(&mut s) * 1.5,
                    _ => 0.5 + unit(&mut s) * 3.0,
                };
                p.add_constraint(&terms, rel, rhs);
            }
            let mut warm = WarmState::new(p);
            if warm.solve().is_err() {
                continue;
            }
            for _level in 0..8 {
                let j = vars[(next(&mut s) % n as u64) as usize];
                let i = (next(&mut s) % m as u64) as usize;
                let p = warm.problem_mut();
                match next(&mut s) % 4 {
                    0 => p.set_var_upper(j, 0.0),
                    1 => p.set_var_upper(j, unit(&mut s) * 2.0),
                    2 => p.set_var_upper(j, 1.0 + unit(&mut s) * 3.0),
                    _ => p.set_rhs(i, p.constraints[i].rhs * (0.6 + 0.8 * unit(&mut s))),
                }
                let live = warm.solve();
                let cold = warm.problem().clone().solve();
                match (&live, &cold) {
                    (Ok(w), Ok(c)) => {
                        let d = (w.objective - c.objective).abs() / (1.0 + c.objective.abs());
                        assert!(
                            d <= 1e-6,
                            "seed {seed}: live {} vs cold {}",
                            w.objective,
                            c.objective
                        );
                        if w.stats.warm_start {
                            live_solves += 1;
                            dual_pivots += w.stats.dual_pivots;
                            flips += w.stats.bound_flips;
                        }
                    }
                    (Err(we), Err(ce)) => assert_eq!(we, ce, "seed {seed}"),
                    (w, c) => panic!(
                        "seed {seed}: verdict mismatch live {:?} cold {:?}",
                        w.as_ref().map(|r| r.objective),
                        c.as_ref().map(|r| r.objective)
                    ),
                }
            }
        }
        // The chains must reach the code they are here for.
        assert!(
            live_solves > 1000 && dual_pivots > 100 && flips > 20,
            "{live_solves} live solves, {dual_pivots} dual pivots, {flips} flips"
        );
    }

    #[test]
    fn column_append_prices_into_existing_basis() {
        let mut warm = WarmState::new(demo());
        let first = warm.solve().unwrap();
        // A cheaper route: new variable entering row 0 with cost 0.5.
        let w = warm.problem_mut().add_var();
        warm.problem_mut().set_objective(w, 0.5);
        warm.problem_mut().extend_constraint(0, &[(w, 1.0)]);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
        assert!(sol.objective < first.objective - 1.0);
    }

    /// The incremental scheduler's edit order in one batch: widen an
    /// existing row with a new column, then append a row over old and new
    /// columns alike.
    #[test]
    fn column_and_row_appends_combine() {
        let mut warm = WarmState::new(demo());
        warm.solve().unwrap();
        let p = warm.problem_mut();
        let w = p.add_bounded_var(5.0);
        p.set_objective(w, 0.25);
        p.extend_constraint(0, &[(w, 1.0)]);
        p.add_constraint(&[(w, 1.0), (VarId(0), 1.0)], Relation::Ge, 2.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        let cold = warm.problem().clone().solve().unwrap();
        approx(sol.objective, cold.objective);
        for (a, b) in sol.values.iter().zip(&cold.values) {
            approx(*a, *b);
        }
    }

    /// An appended row the warm point violates is repaired where it
    /// stands, for all three relations, and reports the dual a cold solve
    /// reports.
    #[test]
    fn violated_row_appends_match_cold_duals() {
        for relation in [Relation::Le, Relation::Ge, Relation::Eq] {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var();
            let y = p.add_var();
            p.set_objective(x, 2.0);
            p.set_objective(y, 3.0);
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
            let mut warm = WarmState::new(p);
            warm.solve().unwrap(); // optimum x = 10, y = 0
            match relation {
                Relation::Le => warm.problem_mut().add_constraint(&[(x, 1.0)], Relation::Le, 3.0),
                Relation::Ge => warm.problem_mut().add_constraint(&[(y, 1.0)], Relation::Ge, 5.0),
                // A negative rhs on the way: -x - y = -12.
                Relation::Eq => {
                    warm.problem_mut()
                        .add_constraint(&[(x, -1.0), (y, -1.0)], Relation::Eq, -12.0)
                }
            };
            let sol = warm.solve().unwrap();
            assert!(sol.stats.warm_start, "{relation:?} append should stay live");
            let cold = warm.problem().clone().solve().unwrap();
            approx(sol.objective, cold.objective);
            let (wd, cd) = (sol.duals.unwrap(), cold.duals.unwrap());
            for (i, (a, b)) in wd.iter().zip(&cd).enumerate() {
                assert!((a - b).abs() < 1e-6, "{relation:?} dual {i}: live {a} vs cold {b}");
            }
        }
    }

    /// rhs tightening below the warm point moves the basics with it and
    /// matches cold.
    #[test]
    fn rhs_tightening_matches_cold() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let y = p.add_var();
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 6.0);
        let mut warm = WarmState::new(p);
        warm.solve().unwrap();
        // Tighten the cap below the warm point (x = 6).
        warm.problem_mut().set_rhs(1, 2.0);
        let sol = warm.solve().unwrap();
        assert!(sol.stats.warm_start);
        approx(sol.objective, warm.problem().clone().solve().unwrap().objective);
        approx(sol.values[0], 2.0);
        approx(sol.values[1], 8.0);
    }

    /// Repeated bound/rhs edits — shrinks, relaxes, retiring a variable to
    /// a zero box and re-opening it — re-solved on one live tableau must
    /// track cold solves.
    #[test]
    fn repair_battery_matches_cold_across_edits() {
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..6).map(|_| p.add_bounded_var(10.0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective(v, 1.0 + i as f64 * 0.37);
        }
        p.add_constraint(
            &vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Relation::Ge,
            20.0,
        );
        p.add_constraint(&[(vars[0], 1.0), (vars[1], 1.0)], Relation::Le, 9.0);
        p.add_constraint(&[(vars[2], 1.0), (vars[3], 1.0)], Relation::Ge, 3.0);
        let mut warm = WarmState::new(p);
        warm.solve().unwrap();
        let edits: &[(usize, f64)] = &[(0, 2.0), (1, 5.0), (0, 10.0), (4, 1.5), (2, 0.0), (2, 7.0)];
        for (step, &(vi, ub)) in edits.iter().enumerate() {
            warm.problem_mut().set_var_upper(vars[vi], ub);
            warm.problem_mut().set_rhs(0, 20.0 - step as f64 * 0.5);
            let sol = warm.solve().unwrap();
            assert!(sol.stats.warm_start, "step {step}");
            let cold = warm.problem().clone().solve().unwrap();
            approx(sol.objective, cold.objective);
            assert!(warm.problem().is_feasible(&sol.values, 1e-6), "step {step}");
        }
        assert_eq!(warm.stats().cold_solves, 1);
    }

    /// Edits outside the contract that show in the problem's shape or
    /// objective cost a cold solve, never a wrong answer.
    #[test]
    fn out_of_contract_edits_solve_cold() {
        let mut warm = WarmState::new(demo());
        warm.solve().unwrap();
        // An objective entry edited in place.
        warm.problem_mut().set_objective(VarId(0), 5.0);
        let sol = warm.solve().unwrap();
        assert!(!sol.stats.warm_start);
        approx(sol.objective, warm.problem().clone().solve().unwrap().objective);
        // A term over an existing variable spliced into an existing row.
        warm.problem_mut().constraints[1].terms.push((2, 1.0));
        let sol = warm.solve().unwrap();
        assert!(!sol.stats.warm_start);
        approx(sol.objective, warm.problem().clone().solve().unwrap().objective);
        // A different (smaller) problem altogether.
        let mut other = Problem::new(Sense::Minimize);
        let q = other.add_var();
        other.set_objective(q, 1.0);
        other.add_constraint(&[(q, 1.0)], Relation::Ge, 1.0);
        *warm.problem_mut() = other;
        let sol = warm.solve().unwrap();
        assert!(!sol.stats.warm_start);
        approx(sol.objective, 1.0);
        // And live again afterwards.
        assert!(warm.solve().unwrap().stats.warm_start);
    }

    /// An infeasible edit is reported as such and leaves the state usable.
    #[test]
    fn infeasible_edit_is_detected_and_recovered_from() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var(10.0);
        let y = p.add_bounded_var(10.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 12.0);
        let mut warm = WarmState::new(p);
        warm.solve().unwrap();
        warm.problem_mut().set_var_upper(x, 1.0);
        warm.problem_mut().set_var_upper(y, 1.0);
        assert_eq!(warm.solve().unwrap_err(), SolveError::Infeasible);
        warm.problem_mut().set_var_upper(x, 10.0);
        warm.problem_mut().set_var_upper(y, 10.0);
        approx(warm.solve().unwrap().objective, 12.0);
    }

    #[test]
    fn rebuild_cold_forces_cold_solve() {
        let mut warm = WarmState::new(demo());
        warm.solve().unwrap();
        warm.rebuild_cold();
        let sol = warm.solve().unwrap();
        assert!(!sol.stats.warm_start);
        assert_eq!(warm.stats().cold_solves, 2);
    }

    #[test]
    fn quick_check_accepts_optimal_rejects_corrupted() {
        let p = demo();
        let sol = p.solve().unwrap();
        assert!(quick_check(&p, &sol, 1e-6));
        let mut bad = sol.clone();
        bad.values[0] += 1.0; // breaks feasibility/gap
        assert!(!quick_check(&p, &bad, 1e-6));
        let mut no_duals = sol.clone();
        no_duals.duals = None;
        assert!(!quick_check(&p, &no_duals, 1e-6));
    }
}
