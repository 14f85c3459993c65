//! Optimality certificates, evaluated in exact arithmetic.
//!
//! The float kernels emit `(primal values, dual values)` pairs; this
//! module re-derives every optimality condition from those floats using
//! [`Rational`] arithmetic — the *evaluation* carries zero round-off, so
//! the only slack anywhere is the documented tolerances the float data is
//! allowed (see [`CertTolerances`]). A passing certificate upgrades
//! "the two float kernels agree" to "this answer satisfies the KKT
//! conditions of the model as written, within τ".
//!
//! For LPs the certificate is the classic triple:
//!
//! 1. **Primal feasibility** — bounds and rows hold within
//!    `τ_feas · (1 + |rhs|)`.
//! 2. **Dual feasibility** — row duals carry the sign their relation
//!    demands (in minimize form: `Le ⇒ y ≤ 0`, `Ge ⇒ y ≥ 0`, `Eq` free),
//!    and reduced costs of variables with *no* upper bound are
//!    nonnegative within a scaled `τ_dual`.
//! 3. **Complementary slackness / zero gap** — the duality gap
//!    `c·x − (y·b + Σ_j min(0, z_j)·u_j)` is a sum of products that are
//!    individually nonnegative under (1) and (2), so a single check
//!    `|gap| ≤ τ_gap · (1 + |c·x|)` bounds every slackness product at
//!    once.
//!
//! For MILPs the incumbent is certified (integrality + feasibility +
//! objective consistency) and its optimality is *bounded* against a
//! caller-supplied relaxation bound — typically the exact simplex's
//! rational root objective, which is a valid bound by construction. Big
//! instances thus get their float answers certified without an exact
//! re-solve, exactly as the differential harness needs.

use crate::rational::Rational;
use crate::simplex::{exact, ExactSolution};
use bate_lp::{Problem, Relation, Sense, Solution, VarKind};
use std::cmp::Ordering;
use std::fmt;

/// Why a certificate was rejected. Values are reported as floats for
/// display; the comparisons that produced them were exact.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// The solution carries no duals (MILP solutions don't) but an LP
    /// certificate was requested.
    MissingDuals,
    /// Primal / dual vector length does not match the model.
    WrongShape { expected: usize, got: usize },
    /// A value in the certificate data is NaN or infinite.
    NonFinite { what: &'static str, index: usize },
    /// `x_j` outside `[0, u_j]` beyond tolerance.
    BoundViolation { var: usize, value: f64, bound: f64 },
    /// Row residual beyond `τ_feas · (1 + |rhs|)`.
    RowViolation { row: usize, violation: f64 },
    /// A row dual with the wrong sign for its relation.
    DualSignViolation { row: usize, dual: f64 },
    /// Negative reduced cost on a variable with no upper bound.
    ReducedCostViolation { var: usize, reduced_cost: f64 },
    /// `|primal − dual objective|` beyond `τ_gap · (1 + |primal|)`.
    DualityGap { primal: f64, dual_bound: f64 },
    /// An integer variable's value is fractional beyond `τ_int`.
    NonIntegral { var: usize, value: f64 },
    /// Reported objective disagrees with `c·x` recomputed exactly.
    ObjectiveMismatch { reported: f64, computed: f64 },
    /// Incumbent objective beats the claimed relaxation bound.
    BoundProofViolation { incumbent: f64, bound: f64 },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::MissingDuals => write!(f, "solution has no duals"),
            CertificateError::WrongShape { expected, got } => {
                write!(f, "certificate vector has length {got}, model wants {expected}")
            }
            CertificateError::NonFinite { what, index } => {
                write!(f, "non-finite {what} at index {index}")
            }
            CertificateError::BoundViolation { var, value, bound } => {
                write!(f, "var {var} = {value} violates bound {bound}")
            }
            CertificateError::RowViolation { row, violation } => {
                write!(f, "row {row} violated by {violation}")
            }
            CertificateError::DualSignViolation { row, dual } => {
                write!(f, "row {row} dual {dual} has the wrong sign")
            }
            CertificateError::ReducedCostViolation { var, reduced_cost } => {
                write!(f, "var {var} (no upper bound) has reduced cost {reduced_cost} < 0")
            }
            CertificateError::DualityGap { primal, dual_bound } => {
                write!(f, "duality gap: primal {primal} vs dual bound {dual_bound}")
            }
            CertificateError::NonIntegral { var, value } => {
                write!(f, "integer var {var} = {value} is fractional")
            }
            CertificateError::ObjectiveMismatch { reported, computed } => {
                write!(f, "reported objective {reported} != computed {computed}")
            }
            CertificateError::BoundProofViolation { incumbent, bound } => {
                write!(f, "incumbent {incumbent} beats relaxation bound {bound}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// Documented tolerances the float certificate data is allowed. All
/// comparisons happen in exact arithmetic against these values; the
/// defaults are the ones the differential campaign and the golden suites
/// pin (`τ_feas = 1e-6`, `τ_dual = 1e-7`, `τ_gap = 1e-6`,
/// `τ_int = 1e-6` — the kernel's own `INT_EPS`).
#[derive(Debug, Clone)]
pub struct CertTolerances {
    /// Row / bound violation, scaled by `1 + |rhs|` (resp. `1 + u`).
    pub feas: f64,
    /// Dual sign slack and reduced-cost slack, scaled by the term's
    /// magnitude sum.
    pub dual: f64,
    /// Duality-gap slack, scaled by `1 + |objective|`.
    pub gap: f64,
    /// Integrality slack for MILP incumbents.
    pub int: f64,
}

impl Default for CertTolerances {
    fn default() -> Self {
        CertTolerances {
            feas: 1e-6,
            dual: 1e-7,
            gap: 1e-6,
            int: 1e-6,
        }
    }
}

/// Zero tolerance everywhere: what the exact oracle's own output must
/// satisfy.
impl CertTolerances {
    pub fn strict() -> Self {
        CertTolerances { feas: 0.0, dual: 0.0, gap: 0.0, int: 0.0 }
    }
}

/// Verify an LP optimality certificate (see module docs) with default
/// tolerances. `solution` must carry duals.
pub fn verify_certificate(problem: &Problem, solution: &Solution) -> Result<(), CertificateError> {
    verify_certificate_with(problem, solution, &CertTolerances::default())
}

/// [`verify_certificate`] with explicit tolerances.
pub fn verify_certificate_with(
    problem: &Problem,
    solution: &Solution,
    tol: &CertTolerances,
) -> Result<(), CertificateError> {
    let duals = solution.duals.as_ref().ok_or(CertificateError::MissingDuals)?;
    verify_parts(problem, &solution.values, duals, tol)
}

/// Verify a certificate given as raw primal/dual slices (the
/// `(problem, primal, dual)` form).
pub fn verify_parts(
    problem: &Problem,
    primal: &[f64],
    dual: &[f64],
    tol: &CertTolerances,
) -> Result<(), CertificateError> {
    let n = problem.vars().len();
    let m = problem.constraints().len();
    if primal.len() != n {
        return Err(CertificateError::WrongShape { expected: n, got: primal.len() });
    }
    if dual.len() != m {
        return Err(CertificateError::WrongShape { expected: m, got: dual.len() });
    }
    let x = rationalize(primal, "primal value")?;
    let y_rep = rationalize(dual, "dual value")?;

    let sigma = match problem.sense() {
        Sense::Minimize => Rational::ONE,
        Sense::Maximize => -Rational::ONE,
    };
    // Minimize-form duals and costs.
    let y: Vec<Rational> = y_rep.iter().map(|v| sigma.mul_ref(v)).collect();

    let t_feas = Rational::from_f64(tol.feas).expect("finite tolerance");
    let t_dual = Rational::from_f64(tol.dual).expect("finite tolerance");
    let t_gap = Rational::from_f64(tol.gap).expect("finite tolerance");

    check_primal(problem, &x, &t_feas)?;

    // Dual sign feasibility per relation (minimize form).
    for (i, c) in problem.constraints().iter().enumerate() {
        let ok = match c.relation {
            Relation::Le => y[i].cmp_ref(&t_feas_scale(&t_dual, &y[i])) != Ordering::Greater,
            Relation::Ge => (-&y[i]).cmp_ref(&t_feas_scale(&t_dual, &y[i])) != Ordering::Greater,
            Relation::Eq => true,
        };
        if !ok {
            return Err(CertificateError::DualSignViolation { row: i, dual: dual[i] });
        }
    }

    // Reduced costs z_j = σc_j − Σ_i y_i a_ij, with the per-variable
    // magnitude scale Σ|y_i a_ij| for the tolerance.
    let mut z = Vec::with_capacity(n);
    let mut z_scale = Vec::with_capacity(n);
    let mut col_terms: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); n];
    for (i, c) in problem.constraints().iter().enumerate() {
        for &(j, coeff) in &c.terms {
            col_terms[j].push((i, exact_or(coeff)?));
        }
    }
    for (j, terms) in col_terms.iter().enumerate() {
        let cj = sigma.mul_ref(&exact_or(problem.objective()[j])?);
        let mut zj = cj.clone();
        let mut scale = cj.abs();
        for (i, a) in terms {
            let prod = y[*i].mul_ref(a);
            scale = scale.add_ref(&prod.abs());
            zj = zj.sub_ref(&prod);
        }
        z.push(zj);
        z_scale.push(scale);
    }

    // Dual feasibility for box-free variables: z_j ≥ −τ·(1 + scale).
    for j in 0..n {
        if problem.vars()[j].upper.is_finite() {
            continue;
        }
        let eps = t_dual.mul_ref(&Rational::ONE.add_ref(&z_scale[j]));
        if (-&z[j]).cmp_ref(&eps) == Ordering::Greater {
            return Err(CertificateError::ReducedCostViolation {
                var: j,
                reduced_cost: z[j].to_f64(),
            });
        }
    }

    // Duality gap. dual_obj = y·b + Σ_{u_j finite} min(0, z_j)·u_j;
    // box-free variables contribute nothing (their z was just checked
    // ≥ −ε, and a valid bound treats the ε as part of the gap slack).
    let mut primal_obj = Rational::ZERO;
    for (j, xj) in x.iter().enumerate() {
        let cj = sigma.mul_ref(&exact_or(problem.objective()[j])?);
        if !cj.is_zero() {
            primal_obj = primal_obj.add_ref(&cj.mul_ref(xj));
        }
    }
    let mut dual_obj = Rational::ZERO;
    for (i, c) in problem.constraints().iter().enumerate() {
        if !y[i].is_zero() {
            dual_obj = dual_obj.add_ref(&y[i].mul_ref(&exact_or(c.rhs)?));
        }
    }
    for (j, zj) in z.iter().enumerate() {
        if problem.vars()[j].upper.is_finite() && zj.is_negative() {
            let u = exact_or(problem.vars()[j].upper)?;
            dual_obj = dual_obj.add_ref(&zj.mul_ref(&u));
        }
    }
    let gap = primal_obj.sub_ref(&dual_obj).abs();
    let allowed = t_gap.mul_ref(&Rational::ONE.add_ref(&primal_obj.abs()));
    if gap.cmp_ref(&allowed) == Ordering::Greater {
        return Err(CertificateError::DualityGap {
            primal: sigma.mul_ref(&primal_obj).to_f64(),
            dual_bound: sigma.mul_ref(&dual_obj).to_f64(),
        });
    }
    Ok(())
}

/// Certify an exact solution against its own problem with zero
/// tolerance — the oracle self-check the adversarial families pin.
pub fn verify_exact(problem: &Problem, solution: &ExactSolution) -> Result<(), CertificateError> {
    let n = problem.vars().len();
    let m = problem.constraints().len();
    if solution.values.len() != n {
        return Err(CertificateError::WrongShape { expected: n, got: solution.values.len() });
    }
    if solution.duals.len() != m {
        return Err(CertificateError::WrongShape { expected: m, got: solution.duals.len() });
    }
    verify_rational(problem, &solution.values, &solution.duals)
}

fn verify_rational(
    problem: &Problem,
    x: &[Rational],
    y_rep: &[Rational],
) -> Result<(), CertificateError> {
    check_primal(problem, x, &Rational::ZERO)?;
    let sigma = match problem.sense() {
        Sense::Minimize => Rational::ONE,
        Sense::Maximize => -Rational::ONE,
    };
    let y: Vec<Rational> = y_rep.iter().map(|v| sigma.mul_ref(v)).collect();
    for (i, c) in problem.constraints().iter().enumerate() {
        let ok = match c.relation {
            Relation::Le => !y[i].is_positive(),
            Relation::Ge => !y[i].is_negative(),
            Relation::Eq => true,
        };
        if !ok {
            return Err(CertificateError::DualSignViolation { row: i, dual: y_rep[i].to_f64() });
        }
    }
    let n = problem.vars().len();
    let mut z: Vec<Rational> = Vec::with_capacity(n);
    for j in 0..n {
        z.push(sigma.mul_ref(&exact_or(problem.objective()[j])?));
    }
    for (i, c) in problem.constraints().iter().enumerate() {
        if y[i].is_zero() {
            continue;
        }
        for &(j, coeff) in &c.terms {
            let delta = y[i].mul_ref(&exact_or(coeff)?);
            z[j] = z[j].sub_ref(&delta);
        }
    }
    for (j, zj) in z.iter().enumerate() {
        if !problem.vars()[j].upper.is_finite() && zj.is_negative() {
            return Err(CertificateError::ReducedCostViolation {
                var: j,
                reduced_cost: zj.to_f64(),
            });
        }
    }
    let mut primal_obj = Rational::ZERO;
    for (j, xj) in x.iter().enumerate() {
        let cj = sigma.mul_ref(&exact_or(problem.objective()[j])?);
        if !cj.is_zero() {
            primal_obj = primal_obj.add_ref(&cj.mul_ref(xj));
        }
    }
    let mut dual_obj = Rational::ZERO;
    for (i, c) in problem.constraints().iter().enumerate() {
        if !y[i].is_zero() {
            dual_obj = dual_obj.add_ref(&y[i].mul_ref(&exact_or(c.rhs)?));
        }
    }
    for (j, zj) in z.iter().enumerate() {
        if problem.vars()[j].upper.is_finite() && zj.is_negative() {
            dual_obj = dual_obj.add_ref(&zj.mul_ref(&exact_or(problem.vars()[j].upper)?));
        }
    }
    if primal_obj != dual_obj {
        return Err(CertificateError::DualityGap {
            primal: sigma.mul_ref(&primal_obj).to_f64(),
            dual_bound: sigma.mul_ref(&dual_obj).to_f64(),
        });
    }
    Ok(())
}

/// Certify a MILP incumbent: integrality, feasibility, objective
/// consistency, and — when a relaxation bound is supplied — the
/// branch-and-bound bound proof (`incumbent` cannot beat a valid
/// relaxation bound). Pass the *exact* root relaxation objective (from
/// [`crate::simplex::solve_exact`]) for an airtight proof, or a float
/// bound for big instances.
pub fn verify_milp_certificate(
    problem: &Problem,
    solution: &Solution,
    relaxation_bound: Option<f64>,
) -> Result<(), CertificateError> {
    verify_milp_certificate_with(problem, solution, relaxation_bound, &CertTolerances::default())
}

/// [`verify_milp_certificate`] with explicit tolerances.
pub fn verify_milp_certificate_with(
    problem: &Problem,
    solution: &Solution,
    relaxation_bound: Option<f64>,
    tol: &CertTolerances,
) -> Result<(), CertificateError> {
    let n = problem.vars().len();
    if solution.values.len() != n {
        return Err(CertificateError::WrongShape { expected: n, got: solution.values.len() });
    }
    let x = rationalize(&solution.values, "primal value")?;
    let t_feas = Rational::from_f64(tol.feas).expect("finite tolerance");
    let t_int = Rational::from_f64(tol.int).expect("finite tolerance");
    check_primal(problem, &x, &t_feas)?;

    for (j, v) in problem.vars().iter().enumerate() {
        if v.kind != VarKind::Integer {
            continue;
        }
        let rounded = Rational::from_f64(solution.values[j].round()).expect("finite rounded");
        if x[j].sub_ref(&rounded).abs().cmp_ref(&t_int) == Ordering::Greater {
            return Err(CertificateError::NonIntegral { var: j, value: solution.values[j] });
        }
    }

    let mut computed = Rational::ZERO;
    for (j, xj) in x.iter().enumerate() {
        let cj = exact_or(problem.objective()[j])?;
        if !cj.is_zero() {
            computed = computed.add_ref(&cj.mul_ref(xj));
        }
    }
    let reported = Rational::from_f64(solution.objective)
        .ok_or(CertificateError::NonFinite { what: "objective", index: 0 })?;
    let allowed = Rational::from_f64(tol.gap)
        .expect("finite tolerance")
        .mul_ref(&Rational::ONE.add_ref(&computed.abs()));
    if reported.sub_ref(&computed).abs().cmp_ref(&allowed) == Ordering::Greater {
        return Err(CertificateError::ObjectiveMismatch {
            reported: solution.objective,
            computed: computed.to_f64(),
        });
    }

    if let Some(bound) = relaxation_bound {
        let bound_q = Rational::from_f64(bound)
            .ok_or(CertificateError::NonFinite { what: "relaxation bound", index: 0 })?;
        let slack = Rational::from_f64(tol.gap)
            .expect("finite tolerance")
            .mul_ref(&Rational::ONE.add_ref(&bound_q.abs()));
        let ok = match problem.sense() {
            // Maximize: incumbent ≤ bound + slack.
            Sense::Maximize => {
                computed.cmp_ref(&bound_q.add_ref(&slack)) != Ordering::Greater
            }
            // Minimize: incumbent ≥ bound − slack.
            Sense::Minimize => {
                computed.add_ref(&slack).cmp_ref(&bound_q) != Ordering::Less
            }
        };
        if !ok {
            return Err(CertificateError::BoundProofViolation {
                incumbent: computed.to_f64(),
                bound,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------

fn rationalize(vals: &[f64], what: &'static str) -> Result<Vec<Rational>, CertificateError> {
    vals.iter()
        .enumerate()
        .map(|(i, &v)| {
            Rational::from_f64(v).ok_or(CertificateError::NonFinite { what, index: i })
        })
        .collect()
}

fn exact_or(v: f64) -> Result<Rational, CertificateError> {
    exact(v).map_err(|_| CertificateError::NonFinite { what: "model coefficient", index: 0 })
}

fn t_feas_scale(tol: &Rational, y: &Rational) -> Rational {
    tol.mul_ref(&Rational::ONE.add_ref(&y.abs()))
}

/// Bounds + rows, with violations scaled by `1 + |reference|`.
fn check_primal(
    problem: &Problem,
    x: &[Rational],
    tol: &Rational,
) -> Result<(), CertificateError> {
    for (j, v) in problem.vars().iter().enumerate() {
        let lo_slack = tol.clone();
        if (-&x[j]).cmp_ref(&lo_slack) == Ordering::Greater {
            return Err(CertificateError::BoundViolation {
                var: j,
                value: x[j].to_f64(),
                bound: 0.0,
            });
        }
        if v.upper.is_finite() {
            let u = exact_or(v.upper)?;
            let slack = tol.mul_ref(&Rational::ONE.add_ref(&u.abs()));
            if x[j].sub_ref(&u).cmp_ref(&slack) == Ordering::Greater {
                return Err(CertificateError::BoundViolation {
                    var: j,
                    value: x[j].to_f64(),
                    bound: v.upper,
                });
            }
        }
    }
    for (i, c) in problem.constraints().iter().enumerate() {
        let mut lhs = Rational::ZERO;
        for &(j, coeff) in &c.terms {
            let q = exact_or(coeff)?;
            lhs = lhs.add_ref(&q.mul_ref(&x[j]));
        }
        let rhs = exact_or(c.rhs)?;
        let slack = tol.mul_ref(&Rational::ONE.add_ref(&rhs.abs()));
        let violation = match c.relation {
            Relation::Le => lhs.sub_ref(&rhs),
            Relation::Ge => rhs.sub_ref(&lhs),
            Relation::Eq => lhs.sub_ref(&rhs).abs(),
        };
        if violation.cmp_ref(&slack) == Ordering::Greater {
            return Err(CertificateError::RowViolation {
                row: i,
                violation: violation.to_f64(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_exact;
    use bate_lp::{milp, Problem, Relation, Sense};

    fn scheduling_miniature() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let f1 = p.add_var();
        let f2 = p.add_var();
        p.set_objective(f1, 1.0);
        p.set_objective(f2, 1.0);
        let b = 10.0;
        p.add_constraint(&[(f1, 1.0), (f2, 1.0)], Relation::Ge, b);
        let states = [(0.9f64, true, true), (0.06, false, true), (0.03, true, false)];
        let mut avail = Vec::new();
        for &(prob, v1, v2) in &states {
            let bv = p.add_bounded_var(1.0);
            let mut terms = vec![(bv, b)];
            if v1 {
                terms.push((f1, -1.0));
            }
            if v2 {
                terms.push((f2, -1.0));
            }
            p.add_constraint(&terms, Relation::Le, 0.0);
            avail.push((bv, prob));
        }
        p.add_constraint(&avail, Relation::Ge, 0.95);
        p
    }

    #[test]
    fn float_solution_passes() {
        let p = scheduling_miniature();
        let sol = p.solve_relaxation().unwrap();
        verify_certificate(&p, &sol).unwrap();
    }

    #[test]
    fn exact_solution_passes_strict() {
        let p = scheduling_miniature();
        let ex = solve_exact(&p).unwrap();
        verify_exact(&p, &ex).unwrap();
    }

    #[test]
    fn corrupted_primal_rejected() {
        let p = scheduling_miniature();
        let mut sol = p.solve_relaxation().unwrap();
        sol.values[0] -= 1.0; // breaks the Ge coverage row
        assert!(matches!(
            verify_certificate(&p, &sol),
            Err(CertificateError::RowViolation { .. })
        ));
    }

    #[test]
    fn suboptimal_primal_rejected_by_gap() {
        let p = scheduling_miniature();
        let mut sol = p.solve_relaxation().unwrap();
        // Push a variable up: still feasible (Ge rows only get looser,
        // there is no capacity row), but objective is now suboptimal.
        sol.values[0] += 1.0;
        assert!(matches!(
            verify_certificate(&p, &sol),
            Err(CertificateError::DualityGap { .. })
        ));
    }

    #[test]
    fn wrong_sign_dual_rejected() {
        let p = scheduling_miniature();
        let mut sol = p.solve_relaxation().unwrap();
        if let Some(d) = sol.duals.as_mut() {
            d[0] = -5.0; // Ge row in a minimize: dual must be ≥ 0
        }
        assert!(matches!(
            verify_certificate(&p, &sol),
            Err(CertificateError::DualSignViolation { .. })
        ));
    }

    #[test]
    fn milp_incumbent_certifies_with_exact_bound() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary_var();
        let b = p.add_binary_var();
        let c = p.add_binary_var();
        p.set_objective(a, 5.0);
        p.set_objective(b, 4.0);
        p.set_objective(c, 3.0);
        p.add_constraint(&[(a, 2.0), (b, 3.0), (c, 1.0)], Relation::Le, 5.0);
        let sol = milp::solve(&p, milp::BnbConfig::default()).unwrap();
        let root = solve_exact(&p).unwrap();
        verify_milp_certificate(&p, &sol, Some(root.objective.to_f64())).unwrap();

        // Claiming a better objective than the relaxation allows fails.
        let mut fake = sol.clone();
        fake.values = sol.values.clone();
        fake.objective = 99.0;
        assert!(verify_milp_certificate(&p, &fake, Some(root.objective.to_f64())).is_err());
    }

    #[test]
    fn milp_fractional_incumbent_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary_var();
        p.set_objective(a, 1.0);
        p.add_constraint(&[(a, 1.0)], Relation::Le, 1.0);
        let mut sol = milp::solve(&p, milp::BnbConfig::default()).unwrap();
        sol.values[0] = 0.5;
        sol.objective = 0.5;
        assert!(matches!(
            verify_milp_certificate(&p, &sol, None),
            Err(CertificateError::NonIntegral { .. })
        ));
    }
}
