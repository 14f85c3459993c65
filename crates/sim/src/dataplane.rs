//! Delivered-bandwidth model.
//!
//! Given the current allocation and the current link state, how much
//! bandwidth does each demand actually receive?
//!
//! 1. Flow on a tunnel with any failed link is lost (until recovery
//!    reroutes it).
//! 2. If rerouted/rescaled traffic overloads a link, every flow crossing it
//!    is degraded by the link's `capacity / load` factor (FIFO queues drop
//!    proportionally); a flow's delivery factor is the minimum across its
//!    links. This is what turns TEAVAR's aggressive allocations into
//!    congestion loss after rescaling (Fig. 11).

use bate_core::{Allocation, BaDemand, TeContext};
use bate_net::Scenario;

/// Per-demand delivered bandwidth on each of its pairs.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// `(pair, demanded, delivered)` per requested pair.
    pub per_pair: Vec<(usize, f64, f64)>,
}

impl Delivery {
    /// Is the demand satisfied within the paper's 1 % downward-deviation
    /// tolerance (§5.1)?
    pub fn satisfied(&self) -> bool {
        self.per_pair.iter().all(|&(_, b, got)| got >= b * 0.99)
    }

    /// Delivered / demanded over the whole demand (for Fig. 8's CDF).
    pub fn ratio(&self) -> f64 {
        let b: f64 = self.per_pair.iter().map(|&(_, b, _)| b).sum();
        let got: f64 = self.per_pair.iter().map(|&(_, _, g)| g).sum();
        if b <= 0.0 {
            1.0
        } else {
            (got / b).min(1.0)
        }
    }
}

/// Compute deliveries for every demand under the current link state.
pub fn deliveries(
    ctx: &TeContext,
    allocation: &Allocation,
    demands: &[BaDemand],
    state: &Scenario,
) -> Vec<Delivery> {
    // Load per link counting only flows whose tunnel is fully up.
    let mut loads = vec![0.0f64; ctx.topo.num_links()];
    for demand in demands {
        for (t, f) in allocation.flows_of(demand.id) {
            let path = ctx.tunnels.path(t);
            if path.available_under(ctx.topo, state) {
                for &l in &path.links {
                    loads[l.index()] += f;
                }
            }
        }
    }
    // Degradation factor per link.
    let factor: Vec<f64> = ctx
        .topo
        .links()
        .map(|(l, def)| {
            if loads[l.index()] > def.capacity {
                def.capacity / loads[l.index()]
            } else {
                1.0
            }
        })
        .collect();

    demands
        .iter()
        .map(|demand| {
            let per_pair = demand
                .bandwidth
                .iter()
                .map(|&(pair, b)| {
                    let mut got = 0.0;
                    for (t, f) in allocation.flows_of(demand.id) {
                        if t.pair != pair {
                            continue;
                        }
                        let path = ctx.tunnels.path(t);
                        if !path.available_under(ctx.topo, state) {
                            continue;
                        }
                        let degrade = path
                            .links
                            .iter()
                            .map(|l| factor[l.index()])
                            .fold(1.0f64, f64::min);
                        got += f * degrade;
                    }
                    // Delivering more than demanded doesn't help anyone.
                    (pair, b, got.min(b))
                })
                .collect();
            Delivery { per_pair }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_core::BaDemand;
    use bate_net::{topologies, Scenario, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelId, TunnelSet};

    fn ctx_toy() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn clean_network_delivers_in_full() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 5000.0, 0.9);
        let mut a = Allocation::new();
        a.set(d.id, TunnelId { pair, tunnel: 0 }, 5000.0);
        let del = deliveries(&ctx, &a, &[d], &Scenario::all_up(&topo));
        assert!(del[0].satisfied());
        assert_eq!(del[0].ratio(), 1.0);
    }

    #[test]
    fn failed_tunnel_loses_its_flow() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 6000.0, 0.9);
        let mut a = Allocation::new();
        a.set(d.id, TunnelId { pair, tunnel: 0 }, 3000.0);
        a.set(d.id, TunnelId { pair, tunnel: 1 }, 3000.0);
        // Fail the first tunnel's first link.
        let g = topo
            .link(tunnels.path(TunnelId { pair, tunnel: 0 }).links[0])
            .group;
        let sc = Scenario::with_failures(&topo, &[g]);
        let del = deliveries(&ctx, &a, &[d], &sc);
        assert!(!del[0].satisfied());
        assert!((del[0].ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn congestion_degrades_proportionally() {
        // Two demands over the same single link, overcommitted 2x: each
        // delivers half.
        let mut topo = bate_net::Topology::new("t");
        let a = topo.add_node("A");
        let b = topo.add_node("B");
        topo.add_duplex_link(a, b, 1000.0, 0.001);
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(1));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pair = tunnels.pair_index(a, b).unwrap();
        let d1 = BaDemand::single(1, pair, 1000.0, 0.9);
        let d2 = BaDemand::single(2, pair, 1000.0, 0.9);
        let mut alloc = Allocation::new();
        alloc.set(d1.id, TunnelId { pair, tunnel: 0 }, 1000.0);
        alloc.set(d2.id, TunnelId { pair, tunnel: 0 }, 1000.0);
        let del = deliveries(&ctx, &alloc, &[d1, d2], &Scenario::all_up(&topo));
        for d in &del {
            assert!((d.ratio() - 0.5).abs() < 1e-9, "{}", d.ratio());
            assert!(!d.satisfied());
        }
    }
}
