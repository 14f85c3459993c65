//! Exact two-phase bounded-variable primal simplex over [`Rational`],
//! with Bland's rule.
//!
//! This is the reference oracle the float kernels are differenced
//! against: a deliberately simple dense tableau whose every entry is an
//! exact rational, so its verdicts (optimal value, feasibility,
//! unboundedness, duals) carry no round-off at all. Bland's smallest-index
//! rule for both the entering and the leaving variable guarantees
//! termination even on the degenerate families the fuzz fleet feeds it —
//! speed is a non-goal; instances are kept small by the harness.
//!
//! Standard form mirrors the float kernel (`bate_lp::simplex`): variables
//! are shifted to `y = x - lo ∈ [0, u]`, every row gains a slack
//! (`+1` for `Le`, `-1` for `Ge`, none for `Eq`) and an artificial whose
//! sign matches the shifted rhs so the all-artificial basis is feasible.
//! Phase 1 minimizes the artificial sum; phase 2 pins artificials to
//! `[0, 0]` (redundant rows keep theirs basic at zero, harmlessly) and
//! minimizes `σ·c`. Reported duals use the same convention as the float
//! kernel: marginal change of the optimum per unit of rhs *in the
//! problem's own sense*.

use crate::rational::Rational;
use bate_lp::{Problem, Relation, Sense, SolveError};
use std::cmp::Ordering;

/// An exact LP optimum: objective in the problem's own sense, one value
/// per structural variable, one dual per constraint row.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    pub objective: Rational,
    pub values: Vec<Rational>,
    pub duals: Vec<Rational>,
    /// Simplex pivots across both phases (bound flips included).
    pub pivots: usize,
}

/// Hard stop far beyond what Bland's rule needs on harness-sized
/// instances; hitting it reports [`SolveError::IterationLimit`] instead
/// of spinning.
const MAX_PIVOTS: usize = 500_000;

/// Solve the LP relaxation of `problem` exactly (integrality is ignored,
/// as in [`Problem::solve_relaxation`]).
pub fn solve_exact(problem: &Problem) -> Result<ExactSolution, SolveError> {
    solve_exact_with(problem, &[])
}

/// [`solve_exact`] with per-variable `(index, lo, hi)` bound overrides —
/// the same contract as the float kernel's branch-and-bound hook, so
/// exact branch-and-bound can reuse it.
pub fn solve_exact_with(
    problem: &Problem,
    overrides: &[(usize, f64, f64)],
) -> Result<ExactSolution, SolveError> {
    Tableau::build(problem, overrides)?.solve(problem)
}

/// Upper bound of a shifted variable: finite rational or +∞.
#[derive(Clone, Debug)]
enum Upper {
    Finite(Rational),
    Inf,
}

impl Upper {
    fn is_zero(&self) -> bool {
        matches!(self, Upper::Finite(u) if u.is_zero())
    }
}

struct Tableau {
    /// `rows × cols` dense matrix, currently `B⁻¹A`.
    a: Vec<Vec<Rational>>,
    /// Values of the basic variables (`B⁻¹(b − N·x_N)`).
    xb: Vec<Rational>,
    /// Reduced-cost row for the current phase.
    rc: Vec<Rational>,
    basis: Vec<usize>,
    is_basic: Vec<bool>,
    at_upper: Vec<bool>,
    upper: Vec<Upper>,
    /// Shift applied per structural variable (`x = lo + y`).
    lo: Vec<Rational>,
    rows: usize,
    cols: usize,
    n_struct: usize,
    /// Column of row `i`'s artificial and the `±1` sign it was given.
    art_col: Vec<usize>,
    art_sign: Vec<Rational>,
    pivots: usize,
}

impl Tableau {
    fn build(problem: &Problem, overrides: &[(usize, f64, f64)]) -> Result<Tableau, SolveError> {
        let n = problem.vars().len();
        let m = problem.constraints().len();

        let mut lo = vec![Rational::ZERO; n];
        let mut hi: Vec<Upper> = Vec::with_capacity(n);
        for v in problem.vars() {
            hi.push(if v.upper.is_finite() {
                Upper::Finite(exact(v.upper)?)
            } else {
                Upper::Inf
            });
        }
        for &(j, l, h) in overrides {
            if j >= n {
                return Err(SolveError::BadModel(format!("override on unknown var {j}")));
            }
            lo[j] = exact(l)?;
            hi[j] = if h.is_finite() {
                Upper::Finite(exact(h)?)
            } else {
                Upper::Inf
            };
        }
        // Shifted box [0, u]; an empty box is immediate infeasibility.
        let mut upper: Vec<Upper> = Vec::with_capacity(n);
        for j in 0..n {
            match &hi[j] {
                Upper::Inf => upper.push(Upper::Inf),
                Upper::Finite(h) => {
                    let u = h.sub_ref(&lo[j]);
                    if u.is_negative() {
                        return Err(SolveError::Infeasible);
                    }
                    upper.push(Upper::Finite(u));
                }
            }
        }

        // Columns: structural | slack per Le/Ge row | artificial per row.
        let num_slacks = problem
            .constraints()
            .iter()
            .filter(|c| c.relation != Relation::Eq)
            .count();
        let cols = n + num_slacks + m;
        let mut a = vec![vec![Rational::ZERO; cols]; m];
        let mut xb = vec![Rational::ZERO; m];
        let mut art_col = Vec::with_capacity(m);
        let mut art_sign = Vec::with_capacity(m);
        let mut upper_ext = upper.clone();

        let mut next_slack = n;
        let first_art = n + num_slacks;
        for (i, c) in problem.constraints().iter().enumerate() {
            // Shifted rhs: b − Σ a_ij lo_j, accumulated exactly.
            let mut rhs = exact(c.rhs)?;
            for &(j, coeff) in &c.terms {
                let q = exact(coeff)?;
                if !lo[j].is_zero() {
                    rhs = rhs.sub_ref(&q.mul_ref(&lo[j]));
                }
                a[i][j] = a[i][j].add_ref(&q);
            }
            match c.relation {
                Relation::Le => {
                    a[i][next_slack] = Rational::ONE;
                    upper_ext.push(Upper::Inf);
                    next_slack += 1;
                }
                Relation::Ge => {
                    a[i][next_slack] = -Rational::ONE;
                    upper_ext.push(Upper::Inf);
                    next_slack += 1;
                }
                Relation::Eq => {}
            }
            let sign = if rhs.is_negative() {
                -Rational::ONE
            } else {
                Rational::ONE
            };
            let col = first_art + i;
            a[i][col] = sign.clone();
            art_col.push(col);
            art_sign.push(sign.clone());
            // Initial basis B = diag(sign): row i of B⁻¹A is sign · A_i,
            // and xb_i = |rhs|.
            if sign.is_negative() {
                for v in a[i].iter_mut() {
                    if !v.is_zero() {
                        *v = -&*v;
                    }
                }
                // The artificial's own entry flipped to +1 — keep it.
            }
            xb[i] = rhs.abs();
        }
        // Artificial bounds: [0, ∞) during phase 1.
        for _ in 0..m {
            upper_ext.push(Upper::Inf);
        }

        let mut is_basic = vec![false; cols];
        let mut basis = Vec::with_capacity(m);
        for i in 0..m {
            basis.push(first_art + i);
            is_basic[first_art + i] = true;
        }

        Ok(Tableau {
            a,
            xb,
            rc: vec![Rational::ZERO; cols],
            basis,
            is_basic,
            at_upper: vec![false; cols],
            upper: upper_ext,
            lo,
            rows: m,
            cols,
            n_struct: n,
            art_col,
            art_sign,
            pivots: 0,
        })
    }

    /// Reduced costs `c_j − c_B·(B⁻¹A)_j` for an explicit cost vector.
    fn rebuild_rc(&mut self, cost: &[Rational]) {
        for j in 0..self.cols {
            let mut rc = cost[j].clone();
            for i in 0..self.rows {
                let cb = &cost[self.basis[i]];
                if !cb.is_zero() && !self.a[i][j].is_zero() {
                    rc = rc.sub_ref(&cb.mul_ref(&self.a[i][j]));
                }
            }
            self.rc[j] = rc;
        }
    }

    /// One Bland iteration: returns `false` at optimality.
    fn iterate(&mut self) -> Result<bool, SolveError> {
        // Entering: smallest-index nonbasic with an improving direction.
        let mut entering = None;
        for j in 0..self.cols {
            if self.is_basic[j] || self.upper[j].is_zero() {
                continue;
            }
            let rc = &self.rc[j];
            let improving = if self.at_upper[j] {
                rc.is_positive()
            } else {
                rc.is_negative()
            };
            if improving {
                entering = Some(j);
                break;
            }
        }
        let Some(e) = entering else { return Ok(false) };
        self.pivots += 1;
        if self.pivots > MAX_PIVOTS {
            return Err(SolveError::IterationLimit);
        }

        let from_upper = self.at_upper[e];
        // Ratio test. `t` is how far the entering variable travels from
        // its current bound (increase from lower / decrease from upper).
        let mut best_t: Option<Rational> = match &self.upper[e] {
            Upper::Finite(u) => Some(u.clone()),
            Upper::Inf => None,
        };
        let mut leave_row: Option<usize> = None;
        let mut leave_to_upper = false;
        for i in 0..self.rows {
            let d = &self.a[i][e];
            if d.is_zero() {
                continue;
            }
            // Direction the basic variable moves as t grows.
            let decreasing = if from_upper {
                d.is_negative()
            } else {
                d.is_positive()
            };
            let (limit, to_upper) = if decreasing {
                // Basic i falls toward 0.
                (self.xb[i].div_ref(&d.abs()), false)
            } else {
                match &self.upper[self.basis[i]] {
                    Upper::Inf => continue,
                    Upper::Finite(u) => (u.sub_ref(&self.xb[i]).div_ref(&d.abs()), true),
                }
            };
            let tighter = match &best_t {
                None => true,
                Some(t) => match limit.cmp_ref(t) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    // Bland tie-break: smallest leaving variable index.
                    Ordering::Equal => match leave_row {
                        None => false, // entering's own bound wins ties
                        Some(r) => self.basis[i] < self.basis[r],
                    },
                },
            };
            if tighter {
                best_t = Some(limit);
                leave_row = Some(i);
                leave_to_upper = to_upper;
            }
        }

        let Some(t) = best_t else {
            return Err(SolveError::Unbounded);
        };

        match leave_row {
            None => {
                // Bound flip: the entering variable crosses its own box.
                for i in 0..self.rows {
                    let d = &self.a[i][e];
                    if d.is_zero() {
                        continue;
                    }
                    let delta = t.mul_ref(d);
                    self.xb[i] = if from_upper {
                        self.xb[i].add_ref(&delta)
                    } else {
                        self.xb[i].sub_ref(&delta)
                    };
                }
                self.at_upper[e] = !from_upper;
            }
            Some(r) => {
                // Update basic values along the step, then pivot.
                for i in 0..self.rows {
                    if i == r {
                        continue;
                    }
                    let d = &self.a[i][e];
                    if d.is_zero() {
                        continue;
                    }
                    let delta = t.mul_ref(d);
                    self.xb[i] = if from_upper {
                        self.xb[i].add_ref(&delta)
                    } else {
                        self.xb[i].sub_ref(&delta)
                    };
                }
                let entering_value = if from_upper {
                    match &self.upper[e] {
                        Upper::Finite(u) => u.sub_ref(&t),
                        Upper::Inf => unreachable!("from_upper implies finite bound"),
                    }
                } else {
                    t
                };
                let leaving = self.basis[r];
                self.is_basic[leaving] = false;
                self.at_upper[leaving] = leave_to_upper;
                // Row-reduce on the pivot element.
                let pivot = self.a[r][e].clone();
                for v in self.a[r].iter_mut() {
                    if !v.is_zero() {
                        *v = v.div_ref(&pivot);
                    }
                }
                for i in 0..self.rows {
                    if i == r {
                        continue;
                    }
                    let f = self.a[i][e].clone();
                    if f.is_zero() {
                        continue;
                    }
                    for j in 0..self.cols {
                        if !self.a[r][j].is_zero() {
                            let delta = f.mul_ref(&self.a[r][j]);
                            self.a[i][j] = self.a[i][j].sub_ref(&delta);
                        }
                    }
                    self.a[i][e] = Rational::ZERO;
                }
                let f = self.rc[e].clone();
                if !f.is_zero() {
                    for j in 0..self.cols {
                        if !self.a[r][j].is_zero() {
                            let delta = f.mul_ref(&self.a[r][j]);
                            self.rc[j] = self.rc[j].sub_ref(&delta);
                        }
                    }
                    self.rc[e] = Rational::ZERO;
                }
                self.basis[r] = e;
                self.is_basic[e] = true;
                self.at_upper[e] = false;
                self.xb[r] = entering_value;
            }
        }
        Ok(true)
    }

    fn solve(mut self, problem: &Problem) -> Result<ExactSolution, SolveError> {
        // --- Phase 1: minimize the artificial sum --------------------------
        let mut cost = vec![Rational::ZERO; self.cols];
        for &c in &self.art_col {
            cost[c] = Rational::ONE;
        }
        self.rebuild_rc(&cost);
        while self.iterate()? {}
        let mut infeas = Rational::ZERO;
        for i in 0..self.rows {
            if self.basis[i] >= self.n_struct && self.art_col.contains(&self.basis[i]) {
                infeas = infeas.add_ref(&self.xb[i]);
            }
        }
        // Nonbasic artificials sit at a bound; at_upper is impossible
        // (their upper is ∞), so they contribute zero.
        if infeas.is_positive() {
            return Err(SolveError::Infeasible);
        }

        // --- Phase 2: artificials pinned, real costs -----------------------
        for &c in &self.art_col {
            self.upper[c] = Upper::Finite(Rational::ZERO);
        }
        let sigma = match problem.sense() {
            Sense::Minimize => Rational::ONE,
            Sense::Maximize => -Rational::ONE,
        };
        let mut cost = vec![Rational::ZERO; self.cols];
        for (j, &c) in problem.objective().iter().enumerate() {
            if c != 0.0 {
                cost[j] = sigma.mul_ref(&exact(c)?);
            }
        }
        self.rebuild_rc(&cost);
        while self.iterate()? {}

        // --- Extraction ----------------------------------------------------
        let mut values = vec![Rational::ZERO; self.n_struct];
        for (j, v) in values.iter_mut().enumerate() {
            if !self.is_basic[j] && self.at_upper[j] {
                if let Upper::Finite(u) = &self.upper[j] {
                    *v = u.clone();
                }
            }
        }
        for i in 0..self.rows {
            let b = self.basis[i];
            if b < self.n_struct {
                values[b] = self.xb[i].clone();
            }
        }
        for (j, v) in values.iter_mut().enumerate() {
            if !self.lo[j].is_zero() {
                *v = v.add_ref(&self.lo[j]);
            }
        }
        let mut objective = Rational::ZERO;
        for (j, &c) in problem.objective().iter().enumerate() {
            if c != 0.0 {
                objective = objective.add_ref(&exact(c)?.mul_ref(&values[j]));
            }
        }
        // Duals: y_int = c_B B⁻¹ read from the artificial columns
        // (art col = s·e_i ⇒ rc_art = −s·y_int_i), reported in the
        // problem's own sense via σ.
        let mut duals = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let y_int = -self.rc[self.art_col[i]].mul_ref(&self.art_sign[i]);
            duals.push(sigma.mul_ref(&y_int));
        }
        Ok(ExactSolution {
            objective,
            values,
            duals,
            pivots: self.pivots,
        })
    }
}

/// Exact conversion with a typed error on non-finite model data.
pub(crate) fn exact(v: f64) -> Result<Rational, SolveError> {
    Rational::from_f64(v).ok_or_else(|| SolveError::BadModel(format!("non-finite coefficient {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_lp::{Problem, Relation, Sense, SolveError};

    fn exactly(q: &Rational, v: f64) {
        assert_eq!(q, &Rational::from_f64(v).unwrap(), "{} != {v}", q.to_f64());
    }

    #[test]
    fn textbook_maximize() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var();
        let y = p.add_var();
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let s = solve_exact(&p).unwrap();
        exactly(&s.objective, 12.0);
        exactly(&s.values[0], 4.0);
        exactly(&s.values[1], 0.0);
        // Duals: row 0 binds with price 3, row 1 is slack.
        exactly(&s.duals[0], 3.0);
        exactly(&s.duals[1], 0.0);
    }

    #[test]
    fn two_phase_with_ge_rows() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let y = p.add_var();
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(&[(y, 1.0)], Relation::Ge, 3.0);
        let s = solve_exact(&p).unwrap();
        exactly(&s.objective, 23.0);
        exactly(&s.values[0], 7.0);
        exactly(&s.values[1], 3.0);
    }

    #[test]
    fn equality_and_negative_rhs() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        let y = p.add_var();
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, -1.0), (y, 1.0)], Relation::Ge, -1.0);
        let s = solve_exact(&p).unwrap();
        exactly(&s.objective, 2.0);
    }

    #[test]
    fn infeasible_and_unbounded() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_exact(&p).unwrap_err(), SolveError::Infeasible);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var();
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(solve_exact(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn bounded_variables_and_bound_flips() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var(1.0);
        let y = p.add_bounded_var(1.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let s = solve_exact(&p).unwrap();
        exactly(&s.objective, 1.5);

        // Pure box problem, no rows at all.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var(3.0);
        let y = p.add_bounded_var(4.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        let s = solve_exact(&p).unwrap();
        exactly(&s.objective, 11.0);
    }

    #[test]
    fn degenerate_beale_terminates_via_bland() {
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var();
        let x2 = p.add_var();
        let x3 = p.add_var();
        let x4 = p.add_var();
        p.set_objective(x1, -0.75);
        p.set_objective(x2, 150.0);
        p.set_objective(x3, -0.02);
        p.set_objective(x4, 6.0);
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0);
        let s = solve_exact(&p).unwrap();
        // The decimal data (-0.04, -0.02, ...) is not dyadic, so the exact
        // optimum of the float-converted model is only *near* -0.05.
        assert!((s.objective.to_f64() + 0.05).abs() < 1e-12);
    }

    #[test]
    fn bound_overrides_shift_the_box() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var();
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 10.0);
        let s = solve_exact_with(&p, &[(0, 3.0, 10.0)]).unwrap();
        exactly(&s.objective, 3.0);
        exactly(&s.values[0], 3.0);
        assert_eq!(
            solve_exact_with(&p, &[(0, 11.0, 20.0)]).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn agrees_with_float_kernel_on_duals() {
        // A scheduling-shaped miniature; duals must match the float
        // kernel's reported convention.
        let mut p = Problem::new(Sense::Minimize);
        let f1 = p.add_var();
        let f2 = p.add_var();
        p.set_objective(f1, 1.0);
        p.set_objective(f2, 1.0);
        p.add_constraint(&[(f1, 1.0), (f2, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(f1, 1.0)], Relation::Le, 4.0);
        let float = p.solve_relaxation().unwrap();
        let ex = solve_exact(&p).unwrap();
        assert!((float.objective - ex.objective.to_f64()).abs() < 1e-9);
        let duals = float.duals.as_ref().unwrap();
        for (i, d) in ex.duals.iter().enumerate() {
            assert!(
                (duals[i] - d.to_f64()).abs() < 1e-9,
                "dual {i}: float {} vs exact {}",
                duals[i],
                d.to_f64()
            );
        }
    }
}
