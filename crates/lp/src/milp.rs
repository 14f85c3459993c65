//! Branch-and-bound MILP solver on top of the simplex core.
//!
//! Depth-first search with best-bound pruning. Each node tightens variable
//! bounds (never adds rows), so the LP relaxations stay the same size as the
//! root problem. Branching picks the integer variable whose relaxation value
//! is most fractional.
//!
//! ## Parallel node evaluation
//!
//! Relaxations are evaluated in **fixed-size batches** ([`NODE_BATCH`] nodes
//! popped per round, independent of thread count) fanned out over
//! [`crate::par::par_map_with`], then processed strictly in batch order:
//! node accounting, incumbent updates, pruning, and branching all happen
//! sequentially. Because each node's relaxation depends only on the problem
//! and its bound overrides (properties of the search tree, never of worker
//! scheduling — every node solves cold), the solver returns
//! **byte-identical results for any thread count** — including 1. The cost
//! is bounded speculation: an incumbent found at position `i` of a batch
//! cannot cancel the (already evaluated) relaxations at positions `> i`, so
//! up to `NODE_BATCH - 1` solves per improvement are wasted relative to pure
//! sequential DFS.
//!
//! Each worker thread owns a [`simplex::Workspace`], so tableau buffers
//! are reused across the nodes of its chunk. A workspace carries no rows
//! and no basis from one solve to the next, so which chunk-mate ran before
//! a node cannot reach its result.

use crate::error::SolveError;
use crate::par::par_map_with;
use crate::problem::{Problem, Relation, Sense, VarId, VarKind};
use crate::simplex::{self, BoundOverride};
use crate::solution::Solution;
use crate::stats::{IncumbentPoint, MilpStats, SolveStats};
use crate::INT_EPS;
use std::time::{Duration, Instant};

/// Nodes evaluated per parallel batch. Fixed (not derived from the thread
/// count) so search behavior is reproducible on any machine.
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

/// A constraint row produced by a separation oracle during lazy
/// (cutting-plane) branch-and-bound — a row of the *full* formulation that
/// the master problem omitted and the candidate solution violates.
#[derive(Debug, Clone)]
pub struct LazyRow {
    pub terms: Vec<(VarId, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// [`solve_traced_lazy`] without the stats.
pub fn solve_lazy(
    problem: &mut Problem,
    config: BnbConfig,
    separate: impl FnMut(&Solution) -> Vec<LazyRow>,
) -> Result<Solution, SolveError> {
    solve_traced_lazy(problem, config, separate).map(|(s, _)| s)
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

/// Branch-and-cut: branch-and-bound over a master problem that holds only
/// a subset of the full formulation's rows, with `separate` called on
/// every surviving node relaxation to report violated full-formulation
/// rows.
///
/// Reported rows are appended to the shared `problem` — the global lazy
/// row pool — and the node is re-queued against the tightened master, so
/// every node (and in particular every child of the node that triggered
/// the separation) inherits all rows active anywhere in the tree so far.
/// Because the master is always a row-subset of the full formulation,
/// node relaxations stay valid lower bounds and pruning is exact; because
/// an incumbent is only accepted after `separate` returns no violations,
/// accepted incumbents are feasible for the full formulation. Together
/// that makes the search exactly equivalent to branch-and-bound on the
/// full problem: same optimal objective, same feasible/infeasible
/// verdict. `separate` must be deterministic (a pure function of the
/// candidate solution and the rows appended so far) for solves to stay
/// byte-identical across thread counts; it is only ever called from the
/// sequential batch-processing loop.
///
/// Two guards close gaps in that argument that `separate` alone cannot:
///
/// * **Stale batch-mates.** All relaxations of a batch are solved against
///   the master as it stood before the batch, but rows append mid-batch
///   (while earlier batch-mates are processed sequentially). An oracle is
///   allowed to skip rows already in the master ("the LP enforces them"),
///   which is false for a batch-mate solved before the row existed — so
///   every node is first checked directly against the rows appended since
///   its relaxation was solved, and a violator is re-queued against the
///   tightened master exactly like the cuts-nonempty path.
/// * **Rounding slip.** Integer values are snapped to `round()` before a
///   candidate becomes the incumbent; a binary rounded *up* by INT_EPS
///   tightens a lazy row `flow >= b·q` by `b·INT_EPS`, which can exceed
///   the oracle's separation tolerance. The rounded point is therefore
///   re-separated (and re-checked against mid-batch rows) and only
///   accepted when clean; otherwise the node re-queues with the fresh
///   rows appended.
///
/// Each re-queued evaluation counts against `config.max_nodes`. A re-queue
/// either appends at least one previously-missing row, or (the stale
/// batch-mate case) re-solves against rows some batch-mate just appended —
/// at most `NODE_BATCH - 1` such re-queues per append event, and once
/// re-solved the rows are enforced, so termination is inherited from the
/// finiteness of the full row set.
pub fn solve_traced_lazy(
    problem: &mut Problem,
    config: BnbConfig,
    mut separate: impl FnMut(&Solution) -> Vec<LazyRow>,
) -> Result<(Solution, MilpStats), SolveError> {
    let int_vars = integer_vars(problem);
    if !int_vars.is_empty() {
        return branch_and_bound(Master::Lazy(problem, &mut separate), &int_vars, config);
    }
    let mut log = LazyLpLog::default();
    let sol = solve_lp_lazy(problem, &mut log, separate)?;
    let mut stats = MilpStats {
        nodes: log.solves.len() as u64,
        separation_calls: log.solves.len() as u64,
        lazy_rows_added: log.rows_per_round.iter().map(|&r| r as u64).sum(),
        ..MilpStats::default()
    };
    for (solve, _) in &log.solves {
        stats.lp_iterations += solve.iterations();
        stats.lp_pivots += solve.pivots;
    }
    stats.incumbents.push(IncumbentPoint {
        node: stats.nodes,
        objective: sol.objective,
    });
    Ok((sol, stats))
}

/// [`solve`], additionally returning the search statistics — node count,
/// maximum depth, aggregate LP work, and the incumbent trajectory. All
/// accounting happens in the sequential batch-processing loop, so the
/// stats are byte-identical across thread counts.
pub fn solve_traced(
    problem: &Problem,
    config: BnbConfig,
) -> Result<(Solution, MilpStats), SolveError> {
    let int_vars = integer_vars(problem);
    if !int_vars.is_empty() {
        return branch_and_bound(Master::Fixed(problem), &int_vars, config);
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

/// What a branch-and-bound searches over: the whole formulation, or a
/// master that a separation oracle grows towards it.
enum Master<'a> {
    Fixed(&'a Problem),
    Lazy(&'a mut Problem, &'a mut dyn FnMut(&Solution) -> Vec<LazyRow>),
}

impl Master<'_> {
    fn problem(&self) -> &Problem {
        match self {
            Master::Fixed(problem) => problem,
            Master::Lazy(problem, _) => problem,
        }
    }

    /// Ask the oracle about `cand` and append what it reports. True when
    /// rows were appended: the caller re-queues its node against the
    /// tightened master (later batches re-prepare their workspaces
    /// against the grown row set by themselves).
    fn separate(&mut self, cand: &Solution, stats: &mut MilpStats) -> bool {
        let Master::Lazy(problem, separate) = self else {
            return false;
        };
        stats.separation_calls += 1;
        let cuts = separate(cand);
        stats.lazy_rows_added += cuts.len() as u64;
        for cut in &cuts {
            problem.add_constraint(&cut.terms, cut.relation, cut.rhs);
        }
        !cuts.is_empty()
    }
}

/// The one tree search behind [`solve_traced`] and [`solve_traced_lazy`].
fn branch_and_bound(
    mut master: Master<'_>,
    int_vars: &[usize],
    config: BnbConfig,
) -> Result<(Solution, MilpStats), SolveError> {
    // Internally treat everything as minimization.
    let sign = match master.problem().sense {
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

    while !stack.is_empty() {
        // Pop a batch (stack order) and evaluate the relaxations in
        // parallel, one workspace per worker thread. While the frontier is
        // thin, pop a single node — that is exactly sequential DFS, which
        // dives to an incumbent fast; only a frontier at least NODE_BATCH
        // deep fans out, bounding how much the batch can speculate past a
        // yet-undiscovered incumbent. The ramp rule depends only on the
        // stack (search state), never the thread count, so determinism is
        // preserved.
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
        // Every relaxation in this batch is solved against the master as
        // of this row count; rows appended while processing earlier
        // batch-mates are re-checked explicitly below.
        let rows_at_solve = master.problem().num_constraints();
        // Every node solves cold: its vertex (and hence the branching) is
        // a function of the node alone. Warm starts live in the
        // round-to-round scheduling flow ([`crate::warm`]), not inside
        // the tree search.
        let evaluated: Vec<Result<Solution, SolveError>> = {
            let problem = master.problem();
            par_map_with(&batch, simplex::Workspace::new, |ws, node: &Node| {
                simplex::solve_with(problem, &node.bounds, ws)
            })
        };

        // Process strictly in batch order: this loop is the only place
        // search state (incumbent, node budget, stack, row pool) changes
        // and the only place the oracle runs, so results do not depend on
        // how the batch was scheduled over threads.
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
                continue; // valid even on the row-subset: it's a relaxation
            }

            // A batch-mate processed earlier may have appended rows this
            // relaxation was solved without. The oracle may legitimately
            // skip rows already in the master, so they are checked here
            // directly; a violator is re-queued against the tightened
            // master (its stale objective is still a valid bound, so the
            // pruning test above stays exact).
            if violates_rows_since(master.problem(), rows_at_solve, &relax.values)
                || master.separate(&relax, &mut stats)
            {
                stack.push(Node { bounds: node.bounds });
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
                    // Integral and cleanly separated — but separation ran
                    // on the *unrounded* relaxation, and snapping a binary
                    // up by INT_EPS can push a lazy row past the oracle's
                    // tolerance. Re-check the rounded point (mid-batch rows
                    // directly, the rest via the oracle) before accepting.
                    let mut vals = relax.values.clone();
                    for &j in int_vars {
                        vals[j] = vals[j].round();
                    }
                    let obj = master.problem().objective_value(&vals);
                    let cost = sign * obj;
                    if cost >= incumbent_cost {
                        continue;
                    }
                    let cand = Solution {
                        objective: obj,
                        values: vals,
                        duals: None,
                        // The incumbent inherits the kernel counters of
                        // the node relaxation that produced it.
                        stats: relax.stats.clone(),
                    };
                    if violates_rows_since(master.problem(), rows_at_solve, &cand.values)
                        || master.separate(&cand, &mut stats)
                    {
                        stack.push(Node { bounds: node.bounds });
                        continue;
                    }
                    incumbent_cost = cost;
                    stats.incumbents.push(IncumbentPoint {
                        node: nodes as u64,
                        objective: obj,
                    });
                    incumbent = Some(cand);
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

/// True when `values` violates any master row from index `from` on.
/// Branch-and-cut uses this to re-check candidates against rows their
/// relaxation was solved without (stale batch-mates, rounded incumbent
/// candidates). The rows checked were never in the solved LP, so a
/// tolerance tighter than the simplex's is safe: a flagged node simply
/// re-solves with the row enforced, after which it is never re-checked.
fn violates_rows_since(problem: &Problem, from: usize, values: &[f64]) -> bool {
    problem.constraints[from..].iter().any(|c| {
        let lhs: f64 = c.terms.iter().map(|&(i, coef)| coef * values[i]).sum();
        let tol = 1e-9 * (1.0 + c.rhs.abs());
        match c.relation {
            Relation::Le => lhs > c.rhs + tol,
            Relation::Ge => lhs < c.rhs - tol,
            Relation::Eq => (lhs - c.rhs).abs() > tol,
        }
    })
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
        let a = p.add_binary_var("a");
        let b = p.add_binary_var("b");
        let c = p.add_binary_var("c");
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
        let x = p.add_integer_var("x", f64::INFINITY);
        let y = p.add_integer_var("y", f64::INFINITY);
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
        let x = p.add_integer_var("x", f64::INFINITY);
        let z = p.add_bounded_var("z", 1.2);
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
        let x = p.add_binary_var("x");
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
        let y = p.add_binary_var("y");
        let r = p.add_bounded_var("r", 2.0);
        p.set_objective(y, 10.0);
        p.add_constraint(&[(r, 1.0), (y, -1.0)], Relation::Ge, 0.0);
        p.add_constraint(&[(r, 1.0), (y, -(m - 1.0))], Relation::Le, 1.0);
        p.add_constraint(&[(r, 1.0)], Relation::Le, 1.5); // capacity allows R = 1.5
        let s = p.solve().unwrap();
        assert_eq!(s.int_value(y), 1);
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        // A MILP big enough to branch repeatedly: a 12-item knapsack with
        // two capacity rows. Every thread count must produce bit-identical
        // objective and values (node evaluation is batch-synchronous and
        // every relaxation solves cold, independent of worker chunking).
        let mut p = Problem::new(Sense::Maximize);
        let items: Vec<_> = (0..12).map(|i| p.add_binary_var(&format!("x{i}"))).collect();
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

        let solve_at = |threads: usize| {
            crate::par::with_thread_count(threads, || {
                solve_traced(&p, BnbConfig::default()).unwrap()
            })
        };
        let (base, base_stats) = solve_at(1);
        // The search as the eager loop ran it before it was folded into
        // the shared one: same tree, and no oracle was ever asked.
        let s = &base_stats;
        assert_eq!(
            (s.nodes, s.max_depth, s.lp_iterations, s.lp_pivots),
            (155, 12, 319, 319)
        );
        let found_at: Vec<u64> = s.incumbents.iter().map(|i| i.node).collect();
        assert_eq!(found_at, vec![85, 98, 144]);
        assert_eq!((s.separation_calls, s.lazy_rows_added), (0, 0));
        assert_eq!(
            base_stats.incumbents.last().map(|i| i.objective),
            Some(base.objective),
            "the incumbent trajectory must end at the returned optimum"
        );
        for threads in [2, 3, 8] {
            let (s, stats) = solve_at(threads);
            assert_eq!(
                base.objective.to_bits(),
                s.objective.to_bits(),
                "objective differs at {threads} threads"
            );
            assert_eq!(base.values.len(), s.values.len());
            for (a, b) in base.values.iter().zip(&s.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "values differ at {threads} threads");
            }
            // Node accounting is sequential, so stats are identical too.
            assert_eq!(base_stats, stats, "search stats differ at {threads} threads");
        }
    }

    #[test]
    fn lazy_rows_match_full_formulation() {
        // The 12-item double-knapsack from the determinism test, but with
        // the second capacity row revealed lazily by a separation oracle.
        // Branch-and-cut must land on the same optimum as the full solve.
        let build = |with_w2: bool| {
            let mut p = Problem::new(Sense::Maximize);
            let items: Vec<_> = (0..12).map(|i| p.add_binary_var(&format!("x{i}"))).collect();
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
            if with_w2 {
                p.add_constraint(&w2, Relation::Le, 11.0);
            }
            (p, w2)
        };

        let (full, _) = build(true);
        let want = solve(&full, BnbConfig::default()).unwrap();

        let (mut master, w2) = build(false);
        let mut active = false;
        let (sol, stats) = solve_traced_lazy(&mut master, BnbConfig::default(), |cand| {
            let lhs: f64 = w2.iter().map(|&(x, c)| c * cand[x]).sum();
            if !active && lhs > 11.0 + 1e-9 {
                active = true;
                vec![LazyRow {
                    terms: w2.clone(),
                    relation: Relation::Le,
                    rhs: 11.0,
                }]
            } else {
                Vec::new()
            }
        })
        .unwrap();
        approx(sol.objective, want.objective);
        assert!(stats.separation_calls > 0);
        // The hidden row matters for this instance, so it must have been
        // pulled in (otherwise the LP bound would overshoot the optimum).
        assert_eq!(stats.lazy_rows_added, 1);

        // Determinism across thread counts, oracle included.
        let solve_at = |threads: usize| {
            crate::par::with_thread_count(threads, || {
                let (mut master, w2) = build(false);
                let mut appended = false;
                solve_traced_lazy(&mut master, BnbConfig::default(), |cand| {
                    let lhs: f64 = w2.iter().map(|&(x, c)| c * cand[x]).sum();
                    if !appended && lhs > 11.0 + 1e-9 {
                        appended = true;
                        vec![LazyRow {
                            terms: w2.clone(),
                            relation: Relation::Le,
                            rhs: 11.0,
                        }]
                    } else {
                        Vec::new()
                    }
                })
                .unwrap()
            })
        };
        let (base, base_stats) = solve_at(1);
        for threads in [2, 3, 8] {
            let (s, stats) = solve_at(threads);
            assert_eq!(base.objective.to_bits(), s.objective.to_bits());
            for (a, b) in base.values.iter().zip(&s.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "values differ at {threads} threads");
            }
            assert_eq!(base_stats, stats, "stats differ at {threads} threads");
        }
    }

    #[test]
    fn stale_batch_mates_cannot_become_incumbents() {
        // Regression for the batch-staleness hole: all relaxations of a
        // batch are solved against the pre-batch master, and an oracle
        // that skips rows already in the master (the `added`-tracking
        // pattern the admission MILP uses) will not re-report a row some
        // earlier batch-mate just appended — so a stale batch-mate whose
        // integral relaxation violates that row used to be accepted as an
        // incumbent infeasible for the full formulation.
        //
        // The instance forces that interleaving deterministically:
        //
        // * `nj` junk gadgets — binary `j`, continuous `j' <= min(j, 1-j)`
        //   with reward on `j'` — each relax at j = j' = 0.5, and both
        //   branches of `j` stay feasible, so the DFS frontier grows past
        //   NODE_BATCH and batches genuinely fan out.
        // * a z-gadget — `r <= 2z`, `r <= 2 - 2z`, and the reward on `r`
        //   (15) exceeding the combined a/b reward slack — pins z = 0.5
        //   and r = 1 in every relaxation, which through the shared gate
        //   `a + b + r <= 2` holds a + b = 1. z has the highest variable
        //   index, so every junk gadget branches before it.
        // * branching z kills r on BOTH sides, so both z-children relax
        //   to the integral point a = b = 1 — violating the hidden row
        //   `a + b <= 1` — and sit adjacent on the stack, landing in the
        //   same batch. The first one separates and appends the row; the
        //   second used to sail through `cuts.is_empty()` and become a
        //   bogus incumbent at objective 20 (true optimum: 10).
        let nj = 8;
        let build = |with_hidden: bool| {
            let mut p = Problem::new(Sense::Maximize);
            for k in 0..nj {
                let j = p.add_binary_var(&format!("j{k}"));
                let jp = p.add_bounded_var(&format!("jp{k}"), 1.0);
                p.set_objective(jp, 1.0);
                p.add_constraint(&[(jp, 1.0), (j, -1.0)], Relation::Le, 0.0);
                p.add_constraint(&[(jp, 1.0), (j, 1.0)], Relation::Le, 1.0);
            }
            let z = p.add_binary_var("z");
            let r = p.add_bounded_var("r", 1.0);
            let a = p.add_binary_var("a");
            let b = p.add_binary_var("b");
            p.set_objective(r, 15.0);
            p.set_objective(a, 10.0);
            p.set_objective(b, 10.0);
            p.add_constraint(&[(r, 1.0), (z, -2.0)], Relation::Le, 0.0);
            p.add_constraint(&[(r, 1.0), (z, 2.0)], Relation::Le, 2.0);
            p.add_constraint(&[(a, 1.0), (b, 1.0), (r, 1.0)], Relation::Le, 2.0);
            let hidden = vec![(vec![(a, 1.0), (b, 1.0)], 1.0)];
            if with_hidden {
                for (t, rhs) in &hidden {
                    p.add_constraint(t, Relation::Le, *rhs);
                }
            }
            (p, hidden)
        };

        let (full, _) = build(true);
        let want = solve(&full, BnbConfig::default()).unwrap();
        approx(want.objective, 10.0);

        let solve_at = |threads: usize| {
            crate::par::with_thread_count(threads, || {
                let (mut master, hidden) = build(false);
                let mut added = vec![false; hidden.len()];
                solve_traced_lazy(&mut master, BnbConfig::default(), |cand| {
                    let mut cuts = Vec::new();
                    for (ri, (terms, rhs)) in hidden.iter().enumerate() {
                        if added[ri] {
                            continue; // "the LP enforces it already"
                        }
                        let lhs: f64 = terms.iter().map(|&(x, c)| c * cand[x]).sum();
                        if lhs > rhs + 1e-9 {
                            added[ri] = true;
                            cuts.push(LazyRow {
                                terms: terms.clone(),
                                relation: Relation::Le,
                                rhs: *rhs,
                            });
                        }
                    }
                    cuts
                })
                .unwrap()
            })
        };
        let (base, base_stats) = solve_at(1);
        approx(base.objective, want.objective);
        assert!(
            full.is_feasible(&base.values, 1e-6),
            "lazy incumbent violates the hidden row"
        );
        assert_eq!(base_stats.lazy_rows_added, 1);
        for threads in [2, 4, 8] {
            let (s, stats) = solve_at(threads);
            assert_eq!(
                base.objective.to_bits(),
                s.objective.to_bits(),
                "objective differs at {threads} threads"
            );
            for (va, vb) in base.values.iter().zip(&s.values) {
                assert_eq!(va.to_bits(), vb.to_bits(), "values differ at {threads} threads");
            }
            assert_eq!(base_stats, stats, "stats differ at {threads} threads");
        }
    }

    /// `min x + y` over `x + y >= 1/4`, with `x + y >= 2` held back: one
    /// cut, then a clean pass.
    fn one_cut_master() -> (Problem, LazyRow) {
        let mut master = Problem::new(Sense::Minimize);
        let x = master.add_var("x");
        let y = master.add_var("y");
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
        let x = p.add_integer_var("x", 10.0);
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 2.0)], Relation::Le, 9.0);
        let cfg = BnbConfig {
            max_nodes: 0,
            gap: 1e-6,
        };
        assert_eq!(solve(&p, cfg).unwrap_err(), SolveError::NodeLimit);
    }
}
