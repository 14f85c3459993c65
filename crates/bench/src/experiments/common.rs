//! Shared experiment plumbing: contexts, demand snapshots, and formatting.

use bate_core::{BaDemand, DemandId, TeContext};
use bate_net::{ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A topology with its tunnels and pruned scenario set, bundled so
/// experiments can borrow a [`TeContext`] from it.
pub struct Env {
    pub topo: Topology,
    pub tunnels: TunnelSet,
    pub scenarios: ScenarioSet,
}

impl Env {
    pub fn new(topo: Topology, routing: RoutingScheme, max_failures: usize) -> Env {
        let tunnels = TunnelSet::compute(&topo, routing);
        let scenarios = ScenarioSet::enumerate(&topo, max_failures);
        Env {
            topo,
            tunnels,
            scenarios,
        }
    }

    pub fn testbed() -> Env {
        Env::new(
            bate_net::topologies::testbed6(),
            RoutingScheme::default_ksp4(),
            2,
        )
    }

    pub fn ctx(&self) -> TeContext<'_> {
        TeContext::new(&self.topo, &self.tunnels, &self.scenarios)
    }

    /// A deterministic subset of s-d pairs with at least 2 tunnels each —
    /// the pairs experiments place demands on.
    pub fn demand_pairs(&self, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut candidates: Vec<usize> = (0..self.tunnels.num_pairs())
            .filter(|&p| self.tunnels.tunnels(p).len() >= 2)
            .collect();
        let mut out = Vec::new();
        while out.len() < count && !candidates.is_empty() {
            let i = rng.gen_range(0..candidates.len());
            out.push(candidates.swap_remove(i));
        }
        out
    }
}

/// Draw a steady-state snapshot of `count` active demands, as §5.2's
/// workload would produce (the paper's expected active count is
/// `rate × mean duration`; the reproduction keeps LP sizes laptop-friendly
/// by using fewer, proportionally fatter demands — same capacity pressure,
/// smaller models).
pub fn demand_snapshot(
    env: &Env,
    count: usize,
    bw_range: (f64, f64),
    availability_targets: &[f64],
    seed: u64,
) -> Vec<BaDemand> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = count.max(1);
    let pairs = env.demand_pairs(6, seed ^ 0xABCD);
    let refunds = bate_core::pricing::azure_services();
    (0..n)
        .map(|i| {
            let pair = pairs[rng.gen_range(0..pairs.len())];
            let bw = rng.gen_range(bw_range.0..=bw_range.1);
            let beta = availability_targets[rng.gen_range(0..availability_targets.len())];
            let sched = &refunds[rng.gen_range(0..refunds.len())];
            BaDemand {
                id: DemandId(i as u64 + 1),
                bandwidth: vec![(pair, bw)],
                beta,
                price: bw,
                refund_ratio: sched.violation_ratio(),
            }
        })
        .collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_and_snapshot() {
        let env = Env::testbed();
        let demands = demand_snapshot(&env, 20, (10.0, 50.0), &[0.9, 0.99], 1);
        assert_eq!(demands.len(), 20);
        for d in &demands {
            assert!(d.total_bandwidth() >= 10.0 && d.total_bandwidth() <= 50.0);
            assert!(d.beta == 0.9 || d.beta == 0.99);
            assert!(d.refund_ratio > 0.0);
        }
        // Pairs are valid tunnel-set indices with tunnels.
        for d in &demands {
            let (pair, _) = d.bandwidth[0];
            assert!(!env.tunnels.tunnels(pair).is_empty());
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
