//! Exact branch-and-bound over the exact simplex — the MILP side of the
//! certifying oracle.
//!
//! Deliberately sequential and deterministic (DFS, branch on the lowest
//! fractional integer index, floor branch first): its job is to produce
//! the provably-optimal objective for harness-sized MILPs so the float
//! branch-and-bound's answers can be differenced against it. Branch bounds
//! are integers, which `f64` represents exactly far beyond any instance
//! the harness generates, so the float-typed override channel shared with
//! the float kernel loses nothing.

use crate::rational::Rational;
use crate::simplex::solve_exact_with;
use bate_lp::{Problem, Sense, SolveError, VarKind};
use std::cmp::Ordering;

/// An exactly-optimal MILP solution.
#[derive(Clone, Debug)]
pub struct ExactMilpSolution {
    pub objective: Rational,
    pub values: Vec<Rational>,
    /// Branch-and-bound nodes solved (root included).
    pub nodes: usize,
}

/// Solve a MILP exactly by DFS branch-and-bound. `max_nodes` bounds the
/// tree ([`SolveError::NodeLimit`] past it); pruning compares bounds
/// exactly, so the returned incumbent is *the* optimum, not an
/// approximation.
pub fn solve_exact_milp(
    problem: &Problem,
    max_nodes: usize,
) -> Result<ExactMilpSolution, SolveError> {
    let int_vars: Vec<usize> = problem
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.kind == VarKind::Integer)
        .map(|(j, _)| j)
        .collect();

    let better = |a: &Rational, b: &Rational| match problem.sense() {
        Sense::Maximize => a.cmp_ref(b) == Ordering::Greater,
        Sense::Minimize => a.cmp_ref(b) == Ordering::Less,
    };

    let mut incumbent: Option<ExactMilpSolution> = None;
    let mut stack: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new()];
    let mut nodes = 0usize;

    while let Some(overrides) = stack.pop() {
        if nodes >= max_nodes {
            return Err(SolveError::NodeLimit);
        }
        nodes += 1;
        let relax = match solve_exact_with(problem, &overrides) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        // Bound pruning: a node whose relaxation cannot beat the incumbent
        // is dead (ties included — one optimum suffices).
        if let Some(inc) = &incumbent {
            if !better(&relax.objective, &inc.objective) {
                continue;
            }
        }
        // Lowest-index fractional integer variable.
        let frac = int_vars
            .iter()
            .copied()
            .find(|&j| !relax.values[j].is_integer());
        match frac {
            None => {
                if incumbent
                    .as_ref()
                    .is_none_or(|inc| better(&relax.objective, &inc.objective))
                {
                    incumbent = Some(ExactMilpSolution {
                        objective: relax.objective,
                        values: relax.values,
                        nodes,
                    });
                }
            }
            Some(j) => {
                let floor = relax.values[j].floor().to_f64();
                let (cur_lo, cur_hi) = overrides
                    .iter()
                    .find(|&&(v, _, _)| v == j)
                    .map(|&(_, l, h)| (l, h))
                    .unwrap_or((0.0, problem.vars()[j].upper));
                let mut up = overrides.clone();
                set_override(&mut up, j, floor + 1.0, cur_hi);
                let mut down = overrides;
                set_override(&mut down, j, cur_lo, floor);
                // DFS pops the floor branch first (deterministic order).
                stack.push(up);
                stack.push(down);
            }
        }
    }

    match incumbent {
        Some(mut inc) => {
            inc.nodes = nodes;
            Ok(inc)
        }
        None => Err(SolveError::Infeasible),
    }
}

fn set_override(overrides: &mut Vec<(usize, f64, f64)>, var: usize, lo: f64, hi: f64) {
    match overrides.iter_mut().find(|(v, _, _)| *v == var) {
        Some(entry) => {
            entry.1 = lo;
            entry.2 = hi;
        }
        None => overrides.push((var, lo, hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_lp::{milp, Problem, Relation, Sense, SolveError};

    #[test]
    fn knapsack_matches_float_bnb() {
        // max 5a + 4b + 3c, 2a + 3b + c <= 5, binaries.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary_var();
        let b = p.add_binary_var();
        let c = p.add_binary_var();
        p.set_objective(a, 5.0);
        p.set_objective(b, 4.0);
        p.set_objective(c, 3.0);
        p.add_constraint(&[(a, 2.0), (b, 3.0), (c, 1.0)], Relation::Le, 5.0);
        let ex = solve_exact_milp(&p, 1000).unwrap();
        assert_eq!(ex.objective, crate::rational::Rational::from_int(9));
        let fl = milp::solve(&p, milp::BnbConfig::default()).unwrap();
        assert!((fl.objective - ex.objective.to_f64()).abs() < 1e-9);
    }

    #[test]
    fn general_integers_and_infeasibility() {
        // min x + y, 2x + 2y >= 7, integers -> 4 (x+y must reach 4).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer_var(f64::INFINITY);
        let y = p.add_integer_var(f64::INFINITY);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Ge, 7.0);
        let ex = solve_exact_milp(&p, 1000).unwrap();
        assert_eq!(ex.objective.to_f64(), 4.0);

        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary_var();
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 2.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(x, 2.0)], Relation::Le, 1.0);
        assert_eq!(solve_exact_milp(&p, 1000).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn node_limit_reports() {
        let mut p = Problem::new(Sense::Maximize);
        let mut terms = Vec::new();
        for _ in 0..6 {
            let v = p.add_binary_var();
            p.set_objective(v, 1.0);
            terms.push((v, 1.0));
        }
        p.add_constraint(&terms, Relation::Le, 2.5);
        assert_eq!(solve_exact_milp(&p, 1).unwrap_err(), SolveError::NodeLimit);
    }
}
