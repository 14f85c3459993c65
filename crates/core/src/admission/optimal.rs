//! The optimal admission baseline ("OPT" of Fig. 7(a) and Fig. 12): can
//! every demand of a pool be satisfied at once?
//!
//! The paper answers with the 0-1 MILP of Appendix A, solved exactly, and
//! proves the problem NP-hard (reduction from all-or-nothing
//! multicommodity flow). A pool of single-pair demands on at most four
//! tunnels each, which is every demand the repository's generators build,
//! is decided here by an exact search instead ([`upset_search`]). Since
//! `f ≥ 0`, the classes a placement qualifies form an up-set of its pair's
//! tunnel lattice. So the pool is feasible iff some choice of one minimal
//! qualifying up-set per demand makes the joint covering LP
//! ([`crate::model::CoveringLp`]) feasible. Any other pool goes to the
//! MILP, which is also the oracle the search is tested against.
//!
//! Two model simplifications of the MILP that preserve the optimum:
//!
//! * Scenarios are collapsed per demand ([`crate::profile`]), making the
//!   binary count `Σ_d (#states of d)` instead of `|D| · |Z|`.
//! * The big-M upper linkages (Eq. 14's `R < M q + 1 - q` and Eq. 16's
//!   `s < β(1-a) + a`) only force indicators *down* when ratios fall short;
//!   under maximization of `Σ a_d` the solver never *wants* an indicator at
//!   0 when it could be 1, so the lower linkages (`R ≥ q`-style) suffice
//!   and the model needs no M constant at all.

use crate::allocation::{Allocation, SATISFY_TOL};
use crate::demand::BaDemand;
use crate::model::{self, CoveringLp, DemandCols, Form};
use crate::profile::MaskedProfile;
use crate::scheduling::{on_upsets, place_single_hard, qualifying_upsets, schedule};
use crate::TeContext;
use bate_lp::{milp, Problem, Relation, Sense, SolveError, VarId};
use std::cmp::Ordering;

/// Result of the optimal admission MILP.
#[derive(Debug, Clone)]
pub struct OptimalAdmission {
    /// Which demands (by position in the input slice) were satisfiable.
    pub accepted: Vec<bool>,
    /// An allocation witnessing the accepted set.
    pub allocation: Allocation,
}

/// Exact feasibility: can *every* demand in `demands` be satisfied
/// simultaneously? This is the optimal admission decision for one arriving
/// demand (admitted demands are committed, so the newcomer is accepted iff
/// all of them remain satisfiable together).
///
/// Two exact fast paths come first:
///
/// 1. If the scheduling LP (the `B ∈ [0,1]` relaxation) is infeasible, no
///    placement is — reject.
/// 2. If hard-placing each demand on the residual the previous ones left
///    (highest β first, [`place_single_hard`]) places them all, that is a
///    witness — accept.
///
/// Then a pool that [`upset_search`] can decide goes to it, and any other
/// pool to the Appendix-A MILP. Neither path turns a limit into a verdict:
/// the MILP's `NodeLimit` and a simplex `IterationLimit` come back as
/// errors, for the caller to book.
pub fn optimal_feasible(ctx: &TeContext, demands: &[BaDemand]) -> Result<bool, SolveError> {
    match schedule(ctx, demands) {
        Err(SolveError::Infeasible) => return Ok(false),
        Err(e) => return Err(e),
        Ok(_) => {}
    }
    let mut order: Vec<&BaDemand> = demands.iter().collect();
    order.sort_by(|a, b| by_beta(a, b));
    let mut acc = Allocation::new();
    let placed = order.iter().all(|d| {
        let residual = acc.residual_capacities(ctx);
        let placed = place_single_hard(ctx, d, &residual);
        placed.map(|p| acc.adopt_demand(d.id, &p)).is_some()
    });
    if placed {
        return Ok(true);
    }
    if demands.iter().all(|d| on_upsets(ctx, d)) {
        return upset_search(ctx, demands).map(|s| s.witness.is_some());
    }
    match solve_admission(ctx, demands, true) {
        Ok(res) => Ok(res.accepted.iter().all(|&a| a)),
        Err(SolveError::Infeasible) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Highest β first, then by id: the order OPT places and chooses in.
fn by_beta(a: &BaDemand, b: &BaDemand) -> Ordering {
    b.beta.total_cmp(&a.beta).then_with(|| a.id.cmp(&b.id))
}

/// What [`upset_search`] found.
#[derive(Debug, Clone)]
pub struct UpsetSearch {
    /// An allocation within the link capacities that meets every demand's
    /// target, when the pool is feasible.
    pub witness: Option<Allocation>,
    /// Joint covering LPs the depth-first search solved (the single-demand
    /// LPs that order each demand's candidates are not counted).
    pub nodes: u64,
}

/// Exact feasibility of a pool of single-pair demands, each on at most four
/// tunnels: a depth-first search over each demand's choice of one minimal
/// qualifying up-set ([`qualifying_upsets`]).
///
/// Demands are chosen highest β first, then by id. A demand's candidates
/// are tried cheapest first, by the optimum of its covering LP alone on
/// the full link capacities (ties in [`qualifying_upsets`] order); a
/// candidate that does not fit alone is dropped. A demand whose `β` is
/// within `SATISFY_TOL` of 0 needs no flow: its one candidate is the empty
/// up-set, as the MILP's `q = 0` (the fixed check still places such a
/// demand in the all-up class). A node is the joint covering LP
/// ([`CoveringLp`]) over the demands chosen so far, solved cold. An
/// infeasible node prunes its subtree: a deeper node adds covering rows,
/// and columns `f ≥ 0` that only add load to the capacity rows. A feasible
/// leaf's allocation is the witness once every demand's `meets_target`
/// holds on it. There is no node limit: the problem is NP-hard, so the
/// search is exponential in the pool's size in the worst case.
///
/// A demand over several pairs or more than four tunnels has no such
/// lattice here; debug builds panic on one, release builds would read only
/// its first pair.
pub fn upset_search(ctx: &TeContext, demands: &[BaDemand]) -> Result<UpsetSearch, SolveError> {
    debug_assert!(
        demands.iter().all(|d| on_upsets(ctx, d)),
        "upset_search takes single-pair demands on at most four tunnels"
    );
    let caps = ctx.link_capacities();
    let mut order: Vec<&BaDemand> = demands.iter().collect();
    order.sort_by(|a, b| by_beta(a, b));
    let mut nodes = 0;
    let found = |witness, nodes| Ok(UpsetSearch { witness, nodes });
    if order.is_empty() {
        return found(Some(Allocation::new()), nodes);
    }
    // Per demand, in `order`: its candidates' minimal classes, cheapest first.
    let mut candidates: Vec<Vec<Vec<u64>>> = Vec::with_capacity(order.len());
    for d in &order {
        if d.beta - SATISFY_TOL <= 0.0 {
            candidates.push(vec![Vec::new()]);
            continue;
        }
        let mut alone = CoveringLp::new(ctx, [*d], &caps);
        let mut costed = Vec::new();
        for upset in qualifying_upsets(ctx, d).iter() {
            match alone.solve_covered([(0, &upset[..])]) {
                Ok(sol) => costed.push((sol.objective, upset.clone())),
                Err(SolveError::Infeasible) => {}
                Err(e) => return Err(e),
            }
        }
        if costed.is_empty() {
            return found(None, nodes);
        }
        costed.sort_by(|a, b| a.0.total_cmp(&b.0));
        candidates.push(costed.into_iter().map(|(_, upset)| upset).collect());
    }
    // `chosen[k]` is the candidate of `order[k]`; `next` is the candidate
    // to try next at depth `chosen.len()`.
    let mut chosen: Vec<usize> = Vec::with_capacity(order.len());
    let mut next = 0;
    loop {
        let depth = chosen.len();
        if next == candidates[depth].len() {
            match chosen.pop() {
                Some(c) => next = c + 1,
                None => return found(None, nodes),
            }
            continue;
        }
        chosen.push(next);
        nodes += 1;
        let mut lp = CoveringLp::new(ctx, order[..=depth].iter().copied(), &caps);
        let node = chosen.iter().enumerate().map(|(k, &c)| (k, &candidates[k][c][..]));
        match lp.solve_covered(node) {
            Ok(_) if chosen.len() < order.len() => {
                next = 0;
                continue;
            }
            Ok(sol) => {
                let witness = lp.allocation(&sol);
                if order.iter().all(|d| witness.meets_target(ctx, d)) {
                    return found(Some(witness), nodes);
                }
            }
            Err(SolveError::Infeasible) => {}
            Err(e) => return Err(e),
        }
        // A dead end: its next sibling.
        next = chosen.pop().expect("a node was just chosen") + 1;
    }
}

/// The full Appendix-A objective: maximize the number of accepted demands
/// with the MILP (no fast path in front).
pub fn maximize_admissions(
    ctx: &TeContext,
    demands: &[BaDemand],
) -> Result<OptimalAdmission, SolveError> {
    solve_admission(ctx, demands, false)
}

/// Build the full Appendix-A admission MILP without solving it.
///
/// Like [`crate::scheduling::scheduling_lp`], this is the entry point for
/// the exact certifying oracle and differential harness (DESIGN.md §5d):
/// the model the production solve builds, by the same code path.
pub fn admission_milp(
    ctx: &TeContext,
    demands: &[BaDemand],
    force_all: bool,
) -> Result<Problem, SolveError> {
    let profiles = model::collapse_all(ctx, demands);
    Ok(build_admission_milp(ctx, demands, &profiles, force_all)?.p)
}

/// The admission MILP under construction, with the handles the solve
/// loop and the read-out need.
struct BuiltMilp {
    p: Problem,
    /// Per demand, in `demands` order (`ind` are the `q` binaries).
    cols: Vec<DemandCols>,
    /// Acceptance binary per demand (`None` under `force_all`).
    a_vars: Vec<Option<VarId>>,
}

/// Build the Appendix-A MILP: every flow column, then per demand its `q`
/// binaries, every Eq. 14 row and its Eq. 15–16 row, then the capacity
/// rows.
fn build_admission_milp(
    ctx: &TeContext,
    demands: &[BaDemand],
    profiles: &[MaskedProfile],
    force_all: bool,
) -> Result<BuiltMilp, SolveError> {
    let mut p = Problem::new(Sense::Maximize);
    let flows = demands
        .iter()
        .map(|d| model::flow_columns(&mut p, ctx, d, 0.0))
        .collect::<Result<Vec<_>, _>>()?;

    let mut a_vars: Vec<Option<VarId>> = Vec::with_capacity(demands.len());
    let mut cols: Vec<DemandCols> = Vec::with_capacity(demands.len());
    for ((demand, profile), f) in demands.iter().zip(profiles).zip(flows) {
        let mut c = DemandCols::new(&mut p, Form::Admission, profile, f);
        c.add_rows(&mut p, demand, profile, false, None);

        // Achieved availability s_d = Σ q p (Eq. 15), linked to acceptance.
        let mut s_terms = c.availability_terms(profile);
        if force_all {
            p.add_constraint(&s_terms, Relation::Ge, demand.beta);
            a_vars.push(None);
        } else {
            let a = p.add_binary_var();
            p.set_objective(a, 1.0);
            // s_d >= β a_d (Eq. 16 lower linkage).
            s_terms.push((a, -demand.beta));
            p.add_constraint(&s_terms, Relation::Ge, 0.0);
            a_vars.push(Some(a));
        }
        cols.push(c);
    }

    // Capacity (Eq. 18).
    let members = demands.iter().zip(&cols);
    model::add_capacity_rows(&mut p, ctx, members, &ctx.link_capacities());
    Ok(BuiltMilp { p, cols, a_vars })
}

/// Build and solve the Appendix-A MILP.
fn solve_admission(
    ctx: &TeContext,
    demands: &[BaDemand],
    force_all: bool,
) -> Result<OptimalAdmission, SolveError> {
    let profiles = model::collapse_all(ctx, demands);
    let BuiltMilp { p, cols, a_vars } =
        build_admission_milp(ctx, demands, &profiles, force_all)?;

    // Each node costs a simplex solve. The budget counts every relaxation
    // the search solves, including those a batch spends past a fresh
    // incumbent (`bate_lp::milp`'s node order); run out without an
    // incumbent, it is a `NodeLimit` error, never a verdict.
    let cfg = milp::BnbConfig {
        max_nodes: 400,
        gap: 1e-6,
    };
    let sol = milp::solve(&p, cfg)?;

    let accepted = a_vars
        .iter()
        .map(|a| match a {
            Some(v) => sol.int_value(*v) == 1,
            None => true,
        })
        .collect();
    Ok(OptimalAdmission {
        accepted,
        allocation: model::read_allocation(demands.iter().zip(&cols), &sol),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_toy() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        (topo, tunnels, scenarios)
    }

    #[test]
    fn motivating_example_is_feasible_optimally() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let demands = vec![
            BaDemand::single(1, pair, 6000.0, 0.99),
            BaDemand::single(2, pair, 12_000.0, 0.90),
        ];
        assert!(optimal_feasible(&ctx, &demands).unwrap());
    }

    #[test]
    fn overload_is_rejected_and_maximization_picks_a_subset() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // Three 9 Gbps demands cannot all fit through a 20 Gbps cut.
        let demands: Vec<BaDemand> = (0..3)
            .map(|i| BaDemand::single(i, pair, 9000.0, 0.5))
            .collect();
        assert!(!optimal_feasible(&ctx, &demands).unwrap());
        let res = maximize_admissions(&ctx, &demands).unwrap();
        let count = res.accepted.iter().filter(|&&a| a).count();
        assert_eq!(count, 2, "exactly two 9 Gbps demands fit");
    }

    #[test]
    fn optimal_beats_or_matches_greedy_conjecture() {
        // The greedy conjecture has no false positives, so anything it
        // admits the optimal check must also admit.
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(3));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let demands = vec![
            BaDemand::single(1, pair, 500.0, 0.99),
            BaDemand::single(2, pair, 400.0, 0.95),
        ];
        if crate::admission::greedy::conjecture(&ctx, &demands[..1], &demands[1]) {
            assert!(optimal_feasible(&ctx, &demands).unwrap());
        }
    }
}
