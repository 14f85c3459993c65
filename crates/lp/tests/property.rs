//! Property-based validation of the LP/MILP solvers.
//!
//! Strategy: generate small random problems whose variables are box-bounded
//! (so they are never unbounded), solve them, and check that
//!
//! 1. the reported point is feasible,
//! 2. the reported objective matches the reported point, and
//! 3. no randomly sampled feasible point (or, for MILPs, no point of the
//!    exhaustively enumerated integer lattice) beats the reported optimum.

use bate_lp::{Problem, Relation, Sense, SolveError};
use proptest::prelude::*;

const TOL: f64 = 1e-5;

#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    upper: Vec<f64>,
    objective: Vec<f64>,
    /// Each constraint: coefficients per var, relation selector, rhs.
    rows: Vec<(Vec<f64>, u8, f64)>,
}

fn random_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = RandomLp> {
    (1..=max_vars).prop_flat_map(move |nvars| {
        let upper = prop::collection::vec(0.5f64..10.0, nvars);
        let objective = prop::collection::vec(-5.0f64..5.0, nvars);
        let rows = prop::collection::vec(
            (
                prop::collection::vec(-3.0f64..3.0, nvars),
                0u8..2, // Le or Ge only: equalities over random data are
                // usually infeasible and tested separately.
                -5.0f64..15.0,
            ),
            0..=max_rows,
        );
        (upper, objective, rows).prop_map(move |(upper, objective, rows)| RandomLp {
            nvars,
            upper,
            objective,
            rows,
        })
    })
}

fn build(lp: &RandomLp, integral: bool) -> (Problem, Vec<bate_lp::VarId>) {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..lp.nvars)
        .map(|i| {
            if integral {
                p.add_integer_var(lp.upper[i].floor().max(0.0))
            } else {
                p.add_bounded_var(lp.upper[i])
            }
        })
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective(v, lp.objective[i]);
    }
    for (coeffs, rel, rhs) in &lp.rows {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        let relation = if *rel == 0 {
            Relation::Le
        } else {
            Relation::Ge
        };
        p.add_constraint(&terms, relation, *rhs);
    }
    (p, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The LP optimum is feasible and dominates random feasible samples.
    #[test]
    fn lp_optimum_is_feasible_and_dominant(
        lp in random_lp(4, 4),
        samples in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4), 32),
    ) {
        let (p, _) = build(&lp, false);
        match p.solve() {
            Ok(sol) => {
                prop_assert!(p.is_feasible(&sol.values, TOL),
                    "solver returned infeasible point {:?}", sol.values);
                prop_assert!((p.objective_value(&sol.values) - sol.objective).abs() < TOL);
                for s in &samples {
                    let candidate: Vec<f64> = (0..lp.nvars)
                        .map(|i| s[i] * lp.upper[i])
                        .collect();
                    if p.is_feasible(&candidate, 0.0) {
                        prop_assert!(
                            p.objective_value(&candidate) <= sol.objective + TOL,
                            "random feasible point beats 'optimum': {} > {}",
                            p.objective_value(&candidate), sol.objective
                        );
                    }
                }
            }
            Err(SolveError::Infeasible) => {
                // Spot-check: none of the random samples may be feasible.
                for s in &samples {
                    let candidate: Vec<f64> = (0..lp.nvars)
                        .map(|i| s[i] * lp.upper[i])
                        .collect();
                    prop_assert!(!p.is_feasible(&candidate, 0.0),
                        "solver said infeasible but {candidate:?} is feasible");
                }
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    /// MILP optimum equals exhaustive enumeration over the integer lattice.
    #[test]
    fn milp_matches_exhaustive_enumeration(lp in random_lp(3, 3)) {
        let (p, _) = build(&lp, true);
        // Enumerate every integer point in the box.
        let dims: Vec<i64> = (0..lp.nvars)
            .map(|i| lp.upper[i].floor().max(0.0) as i64)
            .collect();
        let mut best: Option<f64> = None;
        let mut point = vec![0i64; lp.nvars];
        loop {
            let candidate: Vec<f64> = point.iter().map(|&v| v as f64).collect();
            if p.is_feasible(&candidate, 1e-9) {
                let obj = p.objective_value(&candidate);
                best = Some(best.map_or(obj, |b: f64| b.max(obj)));
            }
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == lp.nvars {
                    break;
                }
                point[k] += 1;
                if point[k] <= dims[k] {
                    break;
                }
                point[k] = 0;
                k += 1;
            }
            if k == lp.nvars {
                break;
            }
        }

        match (p.solve(), best) {
            (Ok(sol), Some(b)) => {
                prop_assert!((sol.objective - b).abs() < TOL,
                    "milp={} exhaustive={}", sol.objective, b);
                prop_assert!(p.is_feasible(&sol.values, TOL));
            }
            (Err(SolveError::Infeasible), None) => {}
            (Ok(sol), None) => prop_assert!(false,
                "solver found {:?} but enumeration found nothing", sol.values),
            (Err(e), Some(b)) => prop_assert!(false,
                "solver failed with {e} but enumeration found optimum {b}"),
            (Err(e), None) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// The MILP optimum can never beat its own LP relaxation.
    #[test]
    fn relaxation_bounds_milp(lp in random_lp(3, 3)) {
        let (p, _) = build(&lp, true);
        if let (Ok(milp), Ok(relax)) = (p.solve(), p.solve_relaxation()) {
            prop_assert!(milp.objective <= relax.objective + TOL,
                "milp {} exceeds relaxation {}", milp.objective, relax.objective);
        }
    }
}
