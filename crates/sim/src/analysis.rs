//! Analytic ("post-processing") evaluation — the §5.2 methodology.
//!
//! "We simulate different failure scenarios according to their
//! probabilities, and in each scenario we record the demands that can be
//! satisfied. If the achieved availability — the total posterior
//! probability of qualified scenarios — is larger than the user's target,
//! the BA demand is satisfied."
//!
//! Given an allocation, that quantity is exactly
//! [`Allocation::achieved_availability`], so Figs. 13/14/18 reduce to:
//! allocate with each TE scheme, then count demands whose achieved
//! availability meets their target.

use bate_baselines::TeAlgorithm;
use bate_core::{Allocation, BaDemand, TeContext};

/// Per-demand analytic outcome for one TE allocation.
#[derive(Debug, Clone)]
pub struct DemandOutcome {
    pub id: u64,
    pub beta: f64,
    pub achieved: f64,
    pub satisfied: bool,
}

/// Evaluate a TE algorithm on a static demand set: allocate once, then
/// score every demand against the scenario distribution.
pub fn evaluate_te(
    ctx: &TeContext,
    te: &dyn TeAlgorithm,
    demands: &[BaDemand],
) -> Vec<DemandOutcome> {
    let allocation = te
        .allocate(ctx, demands)
        .unwrap_or_else(|_| Allocation::new());
    evaluate_allocation(ctx, &allocation, demands)
}

/// Score an existing allocation.
pub fn evaluate_allocation(
    ctx: &TeContext,
    allocation: &Allocation,
    demands: &[BaDemand],
) -> Vec<DemandOutcome> {
    demands
        .iter()
        .map(|d| {
            let achieved = allocation.achieved_availability(ctx, d);
            DemandOutcome {
                id: d.id.0,
                beta: d.beta,
                achieved,
                satisfied: achieved >= d.beta - 1e-9,
            }
        })
        .collect()
}

/// Fraction of demands satisfied (the y-axis of Figs. 13/14/18).
pub fn satisfaction_fraction(outcomes: &[DemandOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 1.0;
    }
    outcomes.iter().filter(|o| o.satisfied).count() as f64 / outcomes.len() as f64
}

/// Analytic profit after refunds for one concrete failure scenario: run
/// the TE allocation, apply the failure, apply each demand's flat refund
/// ratio if its bandwidth no longer fits (used for Fig. 15-style sweeps
/// when the full event simulation is overkill).
pub fn profit_under_scenario(
    ctx: &TeContext,
    allocation: &Allocation,
    demands: &[BaDemand],
    scenario: &bate_net::Scenario,
) -> f64 {
    demands
        .iter()
        .map(|d| {
            if allocation.satisfied_under(ctx, d, scenario) {
                d.price
            } else {
                (1.0 - d.refund_ratio) * d.price
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_baselines::{traits::Bate, Swan};
    use bate_core::BaDemand;
    use bate_net::{topologies, Scenario, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn bate_beats_teavar_on_heterogeneous_targets() {
        // The motivating example as an analytic experiment: BATE satisfies
        // both users; TEAVAR's CVaR-driven splitting strands part of
        // user1's traffic on the risky path (§2.2 / Fig. 2).
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let demands = vec![
            BaDemand::single(1, pair, 6000.0, 0.99),
            BaDemand::single(2, pair, 12_000.0, 0.90),
        ];
        let bate = satisfaction_fraction(&evaluate_te(&ctx, &Bate, &demands));
        let teavar = satisfaction_fraction(&evaluate_te(
            &ctx,
            &bate_baselines::Teavar::new(0.999),
            &demands,
        ));
        let swan = satisfaction_fraction(&evaluate_te(&ctx, &Swan::new(), &demands));
        assert_eq!(bate, 1.0);
        assert!(
            teavar < 1.0,
            "TEAVAR misses a heterogeneous target: {teavar}"
        );
        assert!(swan <= 1.0);
    }

    #[test]
    fn profit_under_failure_scenario() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut d = BaDemand::single(1, pair, 6000.0, 0.9);
        (d.price, d.refund_ratio) = (100.0, 0.25);
        let mut alloc = Allocation::new();
        alloc.set(d.id, bate_routing::TunnelId { pair, tunnel: 0 }, 6000.0);
        let all_up = Scenario::with_failures(&topo, &[]);
        assert_eq!(
            profit_under_scenario(&ctx, &alloc, std::slice::from_ref(&d), &all_up),
            100.0
        );
        let g = topo
            .link(
                tunnels
                    .path(bate_routing::TunnelId { pair, tunnel: 0 })
                    .links[0],
            )
            .group;
        let sc = Scenario::with_failures(&topo, &[g]);
        assert_eq!(profit_under_scenario(&ctx, &alloc, &[d], &sc), 75.0);
    }
}
