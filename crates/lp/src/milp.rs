//! Branch-and-bound MILP solver on top of the simplex core.
//!
//! Depth-first search with best-bound pruning. Each node tightens variable
//! bounds (never adds rows), so the LP relaxations stay the same size as the
//! root problem. Branching picks the integer variable whose relaxation value
//! is most fractional.
//!
//! ## Node order
//!
//! The search runs on its caller's thread. Nodes leave the stack in
//! **batches**: while the frontier is thinner than [`NODE_BATCH`] one node
//! at a time (plain DFS, which dives to an incumbent fast), otherwise
//! [`NODE_BATCH`] at once (the ramp rule). Every relaxation of a batch is
//! solved, in stack order, before the nodes are processed in that order:
//! node accounting, incumbent updates, pruning and branching. An incumbent
//! found at position `i` of a batch therefore cannot cancel the
//! relaxations at positions `> i`; up to `NODE_BATCH - 1` solves per
//! improvement are spent past it.
//!
//! The batches are not a speed device. They fix the node order, and with
//! it the node counts, incumbent trajectories and `NodeLimit` outcomes,
//! that every pinned MILP result in the workspace was produced under (the
//! recovery MILP's goldens, the knapsack pins below). A search that pops
//! one node at a time visits a different tree.
//!
//! Every node solves cold on one [`simplex::Workspace`] the search owns,
//! which carries no rows and no basis from one solve to the next, so a
//! node's vertex is a function of the node alone.

use crate::error::SolveError;
use crate::problem::{Problem, Relation, Sense, VarId, VarKind};
use crate::simplex::{self, BoundOverride};
use crate::solution::Solution;
use crate::stats::{IncumbentPoint, MilpStats, SolveStats};
use crate::INT_EPS;
use std::time::{Duration, Instant};

/// Nodes popped per batch once the frontier is this deep (module doc).
const NODE_BATCH: usize = 8;

/// Search limits for branch-and-bound.
#[derive(Debug, Clone, Copy)]
pub struct BnbConfig {
    /// Maximum number of LP relaxations to solve before giving up.
    pub max_nodes: usize,
    /// Absolute optimality gap: incumbent within `gap` of the best bound is
    /// accepted as optimal.
    pub gap: f64,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 200_000,
            gap: 1e-6,
        }
    }
}

/// Solve a mixed-integer problem by branch-and-bound.
pub fn solve(problem: &Problem, config: BnbConfig) -> Result<Solution, SolveError> {
    solve_traced(problem, config).map(|(s, _)| s)
}

/// A constraint row produced by a separation oracle during the LP
/// cutting-plane loop ([`solve_lp_lazy`]) — a row of the *full*
/// formulation that the master problem omitted and the candidate solution
/// violates.
#[derive(Debug, Clone)]
pub struct LazyRow {
    pub terms: Vec<(VarId, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// What [`solve_lp_lazy`] did, filled in as it goes so that a caller can
/// book the master solves of a run that ended in an error too.
#[derive(Debug, Default)]
pub struct LazyLpLog {
    /// Kernel counters and wall time of every master solve that reached an
    /// optimum, in round order.
    pub solves: Vec<(SolveStats, Duration)>,
    /// Rows appended after each round. The last entry of a finished run is
    /// 0: the clean pass.
    pub rows_per_round: Vec<u32>,
}

/// The LP cutting-plane loop: solve the master cold, ask `separate` for
/// rows of the full formulation the optimum violates, append them to
/// `problem`, repeat until an optimum separates clean.
///
/// The master only ever lacks rows, so its optimum bounds the full
/// formulation's and an infeasible master proves the full LP infeasible;
/// the optimum that separates clean is feasible for, hence optimal in, the
/// full formulation. `separate` may skip rows it already reported.
///
/// Every round is a solve from scratch, so the accepted vertex is the one
/// a cold solve of the final master lands on. The loops this serves
/// separate clean on their first or second master (EXPERIMENTS.md E27);
/// carrying a basis across rounds cost more than it saved there.
pub fn solve_lp_lazy(
    problem: &mut Problem,
    log: &mut LazyLpLog,
    separate: impl FnMut(&Solution) -> Vec<LazyRow>,
) -> Result<Solution, SolveError> {
    lazy_lp_loop(
        problem,
        log,
        |p| simplex::solve_relaxation(p, &[]),
        separate,
    )
}

/// [`solve_lp_lazy`] over an injectable master solver (the unit tests
/// substitute one that fails on demand).
fn lazy_lp_loop(
    problem: &mut Problem,
    log: &mut LazyLpLog,
    mut solve: impl FnMut(&Problem) -> Result<Solution, SolveError>,
    mut separate: impl FnMut(&Solution) -> Vec<LazyRow>,
) -> Result<Solution, SolveError> {
    loop {
        let t0 = Instant::now();
        let sol = solve(problem)?;
        log.solves.push((sol.stats.clone(), t0.elapsed()));
        let cuts = separate(&sol);
        log.rows_per_round.push(cuts.len() as u32);
        if cuts.is_empty() {
            return Ok(sol);
        }
        for cut in &cuts {
            problem.add_constraint(&cut.terms, cut.relation, cut.rhs);
        }
    }
}

/// [`solve`], additionally returning the search statistics — node count,
/// maximum depth, aggregate LP work, and the incumbent trajectory, booked
/// as each batch is processed in node order.
pub fn solve_traced(
    problem: &Problem,
    config: BnbConfig,
) -> Result<(Solution, MilpStats), SolveError> {
    let int_vars = integer_vars(problem);
    if !int_vars.is_empty() {
        return branch_and_bound(problem, &int_vars, config);
    }
    let sol = simplex::solve_relaxation(problem, &[])?;
    let stats = MilpStats {
        nodes: 1,
        lp_iterations: sol.stats.iterations(),
        lp_pivots: sol.stats.pivots,
        incumbents: vec![IncumbentPoint {
            node: 1,
            objective: sol.objective,
        }],
        ..MilpStats::default()
    };
    Ok((sol, stats))
}

fn integer_vars(problem: &Problem) -> Vec<usize> {
    problem
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.kind == VarKind::Integer)
        .map(|(i, _)| i)
        .collect()
}

/// The one tree search behind [`solve_traced`].
fn branch_and_bound(
    problem: &Problem,
    int_vars: &[usize],
    config: BnbConfig,
) -> Result<(Solution, MilpStats), SolveError> {
    // Internally treat everything as minimization.
    let sign = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let mut stats = MilpStats::default();
    let mut incumbent: Option<Solution> = None;
    let mut incumbent_cost = f64::INFINITY; // sign * objective
    let mut nodes = 0usize;
    // DFS stack of nodes: the tightened bounds fully describe a node.
    struct Node {
        bounds: Vec<BoundOverride>,
    }
    let mut stack: Vec<Node> = vec![Node { bounds: Vec::new() }];
    let mut batch: Vec<Node> = Vec::with_capacity(NODE_BATCH);
    let mut ws = simplex::Workspace::new();

    while !stack.is_empty() {
        // Pop a batch in stack order (the ramp rule of the module doc).
        batch.clear();
        let take = if stack.len() >= NODE_BATCH {
            NODE_BATCH
        } else {
            1
        };
        while batch.len() < take {
            match stack.pop() {
                Some(node) => batch.push(node),
                None => break,
            }
        }
        // Every node solves cold: its vertex (and hence the branching) is
        // a function of the node alone. Warm starts live in the
        // round-to-round scheduling flow ([`crate::warm`]), not inside
        // the tree search.
        let evaluated: Vec<Result<Solution, SolveError>> = batch
            .iter()
            .map(|node| simplex::solve_with(problem, &node.bounds, &mut ws))
            .collect();

        // Process in batch order: this loop is the only place search
        // state (incumbent, node budget, stack) changes.
        for (node, relax) in batch.drain(..).zip(evaluated) {
            if nodes >= config.max_nodes {
                // Out of budget: report the incumbent if we have one.
                return incumbent
                    .map(|s| (s, stats))
                    .ok_or(SolveError::NodeLimit);
            }
            nodes += 1;
            stats.nodes = nodes as u64;
            stats.max_depth = stats.max_depth.max(node.bounds.len() as u32);

            let relax = match relax {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            stats.lp_iterations += relax.stats.iterations();
            stats.lp_pivots += relax.stats.pivots;
            let relax_cost = sign * relax.objective;
            if relax_cost >= incumbent_cost - config.gap {
                continue;
            }

            // Most fractional integer variable.
            let mut branch_var = None;
            let mut best_frac = INT_EPS;
            for &j in int_vars {
                let v = relax.values[j];
                let frac = (v - v.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some(j);
                }
            }

            match branch_var {
                None => {
                    // Integral within INT_EPS: snap the integers.
                    let mut vals = relax.values.clone();
                    for &j in int_vars {
                        vals[j] = vals[j].round();
                    }
                    let obj = problem.objective_value(&vals);
                    let cost = sign * obj;
                    if cost >= incumbent_cost {
                        continue;
                    }
                    incumbent_cost = cost;
                    stats.incumbents.push(IncumbentPoint {
                        node: nodes as u64,
                        objective: obj,
                    });
                    incumbent = Some(Solution {
                        objective: obj,
                        values: vals,
                        duals: None,
                        // The incumbent inherits the kernel counters of
                        // the node relaxation that produced it.
                        stats: relax.stats,
                    });
                }
                Some(j) => {
                    let v = relax.values[j];
                    let floor = v.floor();
                    // Explore the "round toward relaxation" side last so it
                    // pops first (DFS), which tends to find good incumbents
                    // early.
                    let down: BoundOverride = (j, 0.0, floor);
                    let up: BoundOverride = (j, floor + 1.0, f64::INFINITY);
                    let (first, second) = if v - floor > 0.5 {
                        (down, up)
                    } else {
                        (up, down)
                    };
                    let mut b1 = node.bounds.clone();
                    b1.push(first);
                    stack.push(Node { bounds: b1 });
                    let mut b2 = node.bounds;
                    b2.push(second);
                    stack.push(Node { bounds: b2 });
                }
            }
        }
    }

    incumbent.map(|s| (s, stats)).ok_or(SolveError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_binary() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=1, c=1 (17)
        // vs b+c (20)? b+c weight 6 value 20. Check: a+c weight 5 value 17;
        // b+c weight 6 value 20 -> optimal 20.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary_var();
        let b = p.add_binary_var();
        let c = p.add_binary_var();
        p.set_objective(a, 10.0);
        p.set_objective(b, 13.0);
        p.set_objective(c, 7.0);
        p.add_constraint(&[(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        let s = solve(&p, BnbConfig::default()).unwrap();
        approx(s.objective, 20.0);
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 1);
        assert_eq!(s.int_value(a), 0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y, 2x + 2y <= 5, integers -> LP gives 2.5, MILP gives 2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer_var(f64::INFINITY);
        let y = p.add_integer_var(f64::INFINITY);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Le, 5.0);
        let relax = p.solve_relaxation().unwrap();
        approx(relax.objective, 2.5);
        let s = p.solve().unwrap();
        approx(s.objective, 2.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + 3z with x integer, z continuous <= 1.2, x + z <= 4.8.
        // Candidates: x=3, z=1.2 (obj 9.6) vs x=4, z=0.8 (obj 10.4).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer_var(f64::INFINITY);
        let z = p.add_bounded_var(1.2);
        p.set_objective(x, 2.0);
        p.set_objective(z, 3.0);
        p.add_constraint(&[(x, 1.0), (z, 1.0)], Relation::Le, 4.8);
        let s = p.solve().unwrap();
        approx(s.objective, 10.4);
        assert_eq!(s.int_value(x), 4);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary_var();
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 2.0)], Relation::Eq, 1.0); // x = 0.5 impossible
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // The indicator pattern used by BATE's failure recovery:
        // y binary, R continuous; R >= y, R < M*y + 1 - y.
        // If R can reach 1, profit prefers y = 1.
        let m = 100.0;
        let mut p = Problem::new(Sense::Maximize);
        let y = p.add_binary_var();
        let r = p.add_bounded_var(2.0);
        p.set_objective(y, 10.0);
        p.add_constraint(&[(r, 1.0), (y, -1.0)], Relation::Ge, 0.0);
        p.add_constraint(&[(r, 1.0), (y, -(m - 1.0))], Relation::Le, 1.0);
        p.add_constraint(&[(r, 1.0)], Relation::Le, 1.5); // capacity allows R = 1.5
        let s = p.solve().unwrap();
        assert_eq!(s.int_value(y), 1);
    }

    #[test]
    fn double_knapsack_search_tree_is_pinned() {
        // A MILP big enough to branch repeatedly: a 12-item knapsack with
        // two capacity rows. The node order (batches, ramp rule, cold
        // relaxations) fixes the tree, its LP work and the nodes at which
        // each incumbent was found.
        let mut p = Problem::new(Sense::Maximize);
        let items: Vec<_> = (0..12).map(|_| p.add_binary_var()).collect();
        for (i, &x) in items.iter().enumerate() {
            p.set_objective(x, 3.0 + (i as f64 * 1.7).sin().abs() * 9.0);
            p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        }
        let w1: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, 1.0 + (i as f64 * 0.9).cos().abs() * 4.0))
            .collect();
        let w2: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, 1.0 + (i as f64 * 1.3).sin().abs() * 3.0))
            .collect();
        p.add_constraint(&w1, Relation::Le, 14.0);
        p.add_constraint(&w2, Relation::Le, 11.0);

        let (base, base_stats) = solve_traced(&p, BnbConfig::default()).unwrap();
        let s = &base_stats;
        assert_eq!(
            (s.nodes, s.max_depth, s.lp_iterations, s.lp_pivots),
            (155, 12, 319, 319)
        );
        let found_at: Vec<u64> = s.incumbents.iter().map(|i| i.node).collect();
        assert_eq!(found_at, vec![85, 98, 144]);
        assert_eq!(
            base_stats.incumbents.last().map(|i| i.objective),
            Some(base.objective),
            "the incumbent trajectory must end at the returned optimum"
        );
    }

    /// `min x + y` over `x + y >= 1/4`, with `x + y >= 2` held back: one
    /// cut, then a clean pass.
    fn one_cut_master() -> (Problem, LazyRow) {
        let mut master = Problem::new(Sense::Minimize);
        let x = master.add_var();
        let y = master.add_var();
        master.set_objective(x, 1.0);
        master.set_objective(y, 1.0);
        master.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 0.25);
        let hidden = LazyRow {
            terms: vec![(x, 1.0), (y, 1.0)],
            relation: Relation::Ge,
            rhs: 2.0,
        };
        (master, hidden)
    }

    /// An oracle that reports `hidden` while a candidate violates it.
    fn oracle(hidden: LazyRow) -> impl FnMut(&Solution) -> Vec<LazyRow> {
        move |cand| {
            let lhs: f64 = hidden.terms.iter().map(|&(v, c)| c * cand[v]).sum();
            if lhs < hidden.rhs - 1e-9 {
                vec![hidden.clone()]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn lazy_lp_error_keeps_the_completed_rounds_booked() {
        // Clean run: cold and cut, cold and clean.
        let (mut master, hidden) = one_cut_master();
        let mut log = LazyLpLog::default();
        let sol = solve_lp_lazy(&mut master, &mut log, oracle(hidden)).unwrap();
        approx(sol.objective, 2.0);
        assert_eq!(log.rows_per_round, vec![1, 0]);
        assert!(log.solves.iter().all(|(s, _)| !s.warm_start));
        assert_eq!(master.num_constraints(), 2);

        // The second master solve fails: that error is the answer, it is
        // not retried, and the first round stays booked with its cut.
        let (mut master, hidden) = one_cut_master();
        let mut log = LazyLpLog::default();
        let mut calls = 0;
        let res = lazy_lp_loop(
            &mut master,
            &mut log,
            |p| {
                calls += 1;
                if calls == 2 {
                    return Err(SolveError::IterationLimit);
                }
                simplex::solve_relaxation(p, &[])
            },
            oracle(hidden),
        );
        assert_eq!((res.unwrap_err(), calls), (SolveError::IterationLimit, 2));
        assert_eq!((log.solves.len(), &log.rows_per_round[..]), (1, &[1][..]));
        assert_eq!(master.num_constraints(), 2);
    }

    #[test]
    fn node_limit_reports_error_without_incumbent() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer_var(10.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 2.0)], Relation::Le, 9.0);
        let cfg = BnbConfig {
            max_nodes: 0,
            gap: 1e-6,
        };
        assert_eq!(solve(&p, cfg).unwrap_err(), SolveError::NodeLimit);
    }
}
