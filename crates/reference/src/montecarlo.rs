//! Monte-Carlo cross-validation of the analytic availability calculus.
//!
//! The scheduler's guarantees rest on scenario-probability arithmetic
//! (products of independent per-group failure probabilities, pruned
//! enumeration, per-demand collapsing). This module estimates the same
//! quantities by sampling raw link states, giving an independent check
//! that the analytic machinery is wired correctly — the reproduction's
//! equivalent of the paper's testbed "emulate failures with a dice roll
//! every second" methodology.

use bate_core::{Allocation, BaDemand, TeContext};
use bate_net::{LinkSet, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample a raw network state: every fate group down independently with
/// its probability.
pub fn sample_state(ctx: &TeContext, rng: &mut StdRng) -> Scenario {
    let mut failed = LinkSet::new(ctx.topo.num_groups());
    for (g, def) in ctx.topo.groups() {
        if rng.gen_range(0.0f64..1.0) < def.failure_prob {
            failed.insert(g.index());
        }
    }
    Scenario {
        probability: bate_net::scenario::scenario_probability(ctx.topo, &failed),
        failed,
    }
}

/// Monte-Carlo estimate of a demand's availability under an allocation:
/// the fraction of sampled states in which its full bandwidth survives.
pub fn estimate_availability(
    ctx: &TeContext,
    allocation: &Allocation,
    demand: &BaDemand,
    samples: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..samples {
        let state = sample_state(ctx, &mut rng);
        if allocation.satisfied_under(ctx, demand, &state) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_core::scheduling::schedule_hardened;
    use bate_core::BaDemand;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    /// The analytic achieved availability and the Monte-Carlo estimate
    /// must agree within sampling error.
    #[test]
    fn analytic_matches_monte_carlo() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();

        // user1 of the motivating example: lands on the 99.8999% path.
        let d = BaDemand::single(1, pair, 6000.0, 0.99);
        let res = schedule_hardened(&ctx, std::slice::from_ref(&d)).unwrap();

        let analytic = res.allocation.achieved_availability(&ctx, &d);
        let sampled = estimate_availability(&ctx, &res.allocation, &d, 200_000, 7);
        // Availability ~0.999: standard error ~sqrt(p(1-p)/n) ≈ 7e-5.
        assert!(
            (analytic - sampled).abs() < 5e-4,
            "analytic {analytic} vs sampled {sampled}"
        );
    }

    /// Sampled state probabilities follow the scenario model: the all-up
    /// frequency matches `Π (1 - x_i)`.
    #[test]
    fn all_up_frequency_matches_product() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 300_000;
        let mut up = 0usize;
        for _ in 0..n {
            if sample_state(&ctx, &mut rng).failed.is_empty() {
                up += 1;
            }
        }
        let freq = up as f64 / n as f64;
        let expected = bate_net::Scenario::with_failures(&topo, &[]).probability;
        assert!((freq - expected).abs() < 1e-3, "{freq} vs {expected}");
    }
}
