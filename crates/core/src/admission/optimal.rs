//! The optimal admission baseline — the 0-1 MILP of Appendix A.
//!
//! The paper proves this problem NP-hard (reduction from all-or-nothing
//! multicommodity flow) and uses it, solved exactly, as the "OPT" baseline
//! that BATE's greedy admission is compared against (Fig. 7(a), Fig. 12).
//!
//! Two model simplifications that preserve the optimum:
//!
//! * Scenarios are collapsed per demand ([`crate::profile`]), making the
//!   binary count `Σ_d (#states of d)` instead of `|D| · |Z|`.
//! * The big-M upper linkages (Eq. 14's `R < M q + 1 - q` and Eq. 16's
//!   `s < β(1-a) + a`) only force indicators *down* when ratios fall short;
//!   under maximization of `Σ a_d` the solver never *wants* an indicator at
//!   0 when it could be 1, so the lower linkages (`R ≥ q`-style) suffice
//!   and the model needs no M constant at all.

use crate::allocation::Allocation;
use crate::demand::BaDemand;
use crate::model::{self, DemandCols, Form};
use crate::profile::MaskedProfile;
use crate::scheduling::SolveMode;
use crate::TeContext;
use bate_lp::{milp, Problem, Relation, Sense, SolveError, VarId};

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
/// Two exact fast paths keep this tractable online:
///
/// 1. If the scheduling LP (the `B ∈ [0,1]` relaxation) is infeasible, the
///    MILP is too — reject without branching.
/// 2. If Algorithm 1's witness allocation verifiably meets every target
///    against the scenario set, the MILP is feasible — accept without
///    branching.
///
/// Only the gray zone between them runs branch-and-bound.
pub fn optimal_feasible(ctx: &TeContext, demands: &[BaDemand]) -> Result<bool, SolveError> {
    optimal_feasible_mode(ctx, demands, SolveMode::Auto)
}

/// [`optimal_feasible`] with an explicit [`SolveMode`] for the MILP stage
/// (the LP fast paths always use their own Auto gate). Goldens pin
/// Full-vs-RowGen verdict equivalence through this.
pub fn optimal_feasible_mode(
    ctx: &TeContext,
    demands: &[BaDemand],
    mode: SolveMode,
) -> Result<bool, SolveError> {
    // Fast reject: the continuous relaxation can't even cover everyone.
    match crate::scheduling::schedule(ctx, demands) {
        Err(SolveError::Infeasible) => return Ok(false),
        Err(e) => return Err(e),
        Ok(res) => {
            // Fast accept: the LP allocation itself may already be a hard
            // witness (B variables at extreme points often are).
            if demands.iter().all(|d| res.allocation.meets_target(ctx, d)) {
                return Ok(true);
            }
        }
    }
    // Fast accept via the Algorithm-1 witness.
    if let Some(witness) = crate::admission::greedy::conjecture_with_allocation(ctx, demands) {
        if demands.iter().all(|d| witness.meets_target(ctx, d)) {
            return Ok(true);
        }
    }
    // Fast accept via sequential constructive placement: hard-place each
    // demand (highest β first) on the residual left by the previous ones;
    // success is a feasibility certificate.
    {
        let mut order: Vec<&BaDemand> = demands.iter().collect();
        order.sort_by(|a, b| {
            b.beta
                .partial_cmp(&a.beta)
                .unwrap()
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut acc = Allocation::new();
        let mut all_placed = true;
        for d in order {
            let residual = acc.residual_capacities(ctx);
            match crate::scheduling::place_single_hard(ctx, d, &residual) {
                Some(placed) => acc.adopt_demand(d.id, &placed),
                None => {
                    all_placed = false;
                    break;
                }
            }
        }
        if all_placed {
            return Ok(true);
        }
    }
    match solve_admission(ctx, demands, true, mode) {
        Ok(res) => Ok(res.accepted.iter().all(|&a| a)),
        Err(SolveError::Infeasible) => Ok(false),
        // A blown node budget means we could not *prove* feasibility;
        // treat as a (conservative) rejection rather than an error so long
        // online runs keep going.
        Err(SolveError::NodeLimit) => Ok(false),
        Err(e) => Err(e),
    }
}

/// The full Appendix-A objective: maximize the number of accepted demands,
/// solved in `mode` — the direct MILP entry the row-generation goldens
/// compare through (no LP fast paths in front).
pub fn maximize_admissions_mode(
    ctx: &TeContext,
    demands: &[BaDemand],
    mode: SolveMode,
) -> Result<OptimalAdmission, SolveError> {
    solve_admission(ctx, demands, false, mode)
}

/// The branch-and-cut master of [`maximize_admissions_mode`] as a row
/// generation search left it: seed rows, then the pooled cuts in order.
/// What `model_text_golden.rs` pins.
#[doc(hidden)]
pub fn admission_lazy_master(ctx: &TeContext, demands: &[BaDemand]) -> Result<Problem, SolveError> {
    solve_admission_model(ctx, demands, false, SolveMode::RowGen).map(|(_, master)| master)
}

/// Build the full Appendix-A admission MILP without solving it.
///
/// Like [`crate::scheduling::scheduling_lp`], this is the entry point for
/// the exact certifying oracle and differential harness (DESIGN.md §5d):
/// the model is the one `SolveMode::Full` solves (every qualification row
/// present), built by the same code path as the production solve.
pub fn admission_milp(
    ctx: &TeContext,
    demands: &[BaDemand],
    force_all: bool,
) -> Result<Problem, SolveError> {
    let profiles = model::collapse_all(ctx, demands);
    Ok(build_admission_milp(ctx, demands, &profiles, force_all, false)?.p)
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
/// binaries, Eq. 14 rows and Eq. 15–16 row, then the capacity rows.
/// `lazy` keeps only the seed states' Eq. 14 rows — the branch-and-cut
/// master; otherwise every one is emitted.
fn build_admission_milp(
    ctx: &TeContext,
    demands: &[BaDemand],
    profiles: &[MaskedProfile],
    force_all: bool,
    lazy: bool,
) -> Result<BuiltMilp, SolveError> {
    let mut p = Problem::new(Sense::Maximize);
    let flows = demands
        .iter()
        .map(|d| model::flow_columns(&mut p, ctx, d, 0.0))
        .collect::<Result<Vec<_>, _>>()?;

    let mut a_vars: Vec<Option<VarId>> = Vec::with_capacity(demands.len());
    let mut cols: Vec<DemandCols> = Vec::with_capacity(demands.len());
    for ((demand, profile), f) in demands.iter().zip(profiles).zip(flows) {
        let mut c = DemandCols::new(&mut p, Form::Admission, demand, profile, f);
        c.add_rows(&mut p, demand, profile, lazy, None);

        // Achieved availability s_d = Σ q p (Eq. 15), linked to acceptance.
        let mut s_terms = c.availability_terms(profile);
        if force_all {
            p.add_constraint(&s_terms, Relation::Ge, demand.beta);
            a_vars.push(None);
        } else {
            let a = p.add_binary_var(&format!("a[{}]", demand.id.0));
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
///
/// Under [`SolveMode::RowGen`] (or Auto above the threshold) the
/// per-(state, pair) qualification rows of Eq. 14 are generated lazily by
/// branch-and-cut ([`milp::solve_lazy`]): the master starts with the
/// seeded states' rows, the separation sweep checks every candidate
/// relaxation against all collapsed states, and violated rows join a
/// global row pool every node inherits. Exactness argument mirrors the
/// scheduling LP's: node relaxations are row-subset relaxations (pruning
/// stays valid) and incumbents are only accepted after clean separation.
fn solve_admission(
    ctx: &TeContext,
    demands: &[BaDemand],
    force_all: bool,
    mode: SolveMode,
) -> Result<OptimalAdmission, SolveError> {
    solve_admission_model(ctx, demands, force_all, mode).map(|(res, _)| res)
}

fn solve_admission_model(
    ctx: &TeContext,
    demands: &[BaDemand],
    force_all: bool,
    mode: SolveMode,
) -> Result<(OptimalAdmission, Problem), SolveError> {
    let profiles = model::collapse_all(ctx, demands);
    let lazy = mode.lazy(model::full_qualification_rows(demands, &profiles));
    let BuiltMilp {
        mut p,
        mut cols,
        a_vars,
    } = build_admission_milp(ctx, demands, &profiles, force_all, lazy)?;

    // Each node costs a simplex solve; the fast paths above mean the MILP
    // only sees genuinely ambiguous instances, where a moderate budget
    // almost always suffices (NodeLimit is treated as a rejection by
    // `optimal_feasible`). The batch-parallel branch-and-bound can
    // speculate up to a batch of nodes past where sequential DFS would
    // have pruned, so the budget is scaled accordingly — the extra nodes
    // run concurrently, so wall-clock stays comparable.
    let cfg = milp::BnbConfig {
        max_nodes: 400,
        gap: 1e-6,
    };
    let sol = if lazy {
        // Branch-and-cut: the sweep covers every collapsed state of every
        // demand — exactly the full Eq. 14 row set — and skips the rows
        // the master holds, so no row is ever generated twice.
        milp::solve_lazy(&mut p, cfg, |relax| {
            let violated = model::sweep(demands, &profiles, &cols, relax);
            model::cuts(demands, &profiles, &mut cols, &violated)
        })?
    } else {
        milp::solve(&p, cfg)?
    };

    let accepted = a_vars
        .iter()
        .map(|a| match a {
            Some(v) => sol.int_value(*v) == 1,
            None => true,
        })
        .collect();
    let res = OptimalAdmission {
        accepted,
        allocation: model::read_allocation(demands.iter().zip(&cols), &sol),
    };
    Ok((res, p))
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
        let res = maximize_admissions_mode(&ctx, &demands, SolveMode::Auto).unwrap();
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
        if crate::admission::greedy::conjecture(&ctx, &demands) {
            assert!(optimal_feasible(&ctx, &demands).unwrap());
        }
    }
}
