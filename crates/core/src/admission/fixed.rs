//! Step 1 of admission: the *fixed* check.
//!
//! Keep the bandwidth allocation of every admitted demand fixed and ask
//! whether the newcomer alone can be scheduled on the remaining capacity
//! with its availability target met. This is cheap (for one pair, a
//! covering LP of at most four columns per minimal qualifying up-set) but
//! conservative — the paper's "Fixed" baseline in Fig. 7(a) and Fig. 12
//! runs *only* this step, which is why it rejects 10–20 % more demands.

use crate::allocation::Allocation;
use crate::demand::BaDemand;
use crate::TeContext;

/// Try to admit `new` without touching existing allocations. Returns the
/// newcomer's allocation on success.
///
/// "Check whether d can be satisfied by the remaining network capacity and
/// failure probability" (§3.2 step 1): for one pair, [`place_single_hard`]
/// answers the hard question, not Eq. 4's relaxation, so it admits iff a
/// hard placement fits the residual; a multi-pair demand solves the
/// relaxation and checks its vertex hard.
///
/// [`place_single_hard`]: crate::scheduling::place_single_hard
pub fn fixed_admission(
    ctx: &TeContext,
    current: &Allocation,
    new: &BaDemand,
) -> Option<Allocation> {
    let residual = current.residual_capacities(ctx);
    crate::scheduling::place_single_hard(ctx, new, &residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn admits_into_empty_network() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 1000.0, 0.95);
        let alloc = fixed_admission(&ctx, &Allocation::new(), &d).unwrap();
        assert!(alloc.meets_target(&ctx, &d));
    }

    #[test]
    fn rejects_when_residual_is_insufficient() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();

        // Fill both paths almost completely with an existing demand.
        let hog = BaDemand::single(1, pair, 19_000.0, 0.0);
        let res = crate::scheduling::schedule(&ctx, &[hog]).unwrap();
        let d = BaDemand::single(2, pair, 5000.0, 0.5);
        assert!(fixed_admission(&ctx, &res.allocation, &d).is_none());
    }

    #[test]
    fn fixed_is_more_conservative_than_reschedule() {
        // A demand pinned to a bad path blocks the fixed check even though
        // a full reschedule would fit both demands.
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();

        // Manually park an 8 Gbps demand HALF on each path (4+4), leaving
        // 6 Gbps free per path.
        let mut current = Allocation::new();
        let d1 = BaDemand::single(1, pair, 8000.0, 0.5);
        current.set(d1.id, bate_routing::TunnelId { pair, tunnel: 0 }, 4000.0);
        current.set(d1.id, bate_routing::TunnelId { pair, tunnel: 1 }, 4000.0);

        // A 99.9%-availability 6 Gbps demand needs ~6 Gbps on the reliable
        // path *plus* protection on the other; with only 6 Gbps residual per
        // path, protection is impossible at full size.
        let d2 = BaDemand::single(2, pair, 7000.0, 0.999);
        assert!(fixed_admission(&ctx, &current, &d2).is_none());
        // But rescheduling both demands together fits.
        assert!(crate::scheduling::schedule(&ctx, &[d1, d2]).is_ok());
    }
}
