//! Bandwidth allocations `{f_d^t}` and the satisfaction/availability
//! calculus on top of them (§3.1).
//!
//! The hard-availability verdict ([`Allocation::achieved_availability`],
//! what every install is certified by) does not visit scenarios one by one:
//! it partitions the scenario set by the up/down pattern of the tunnels
//! that carry the demand's flow ([`bate_net::ScenarioSet::partition`]),
//! decides each class once, and adds `p_z` over the qualified classes in
//! ascending scenario order — bit-identical to the scenario-by-scenario
//! definition ([`Allocation::satisfied_under`] per scenario), which
//! `bate_bench::fuzz` keeps as the test oracle.

use crate::demand::{BaDemand, DemandId};
use crate::TeContext;
use bate_net::{LinkSet, Scenario};
use bate_routing::TunnelId;
use std::collections::BTreeMap;

/// Relative tolerance when checking whether delivered bandwidth covers a
/// demand; the testbed methodology (§5.1) counts a slot as satisfied when
/// the downward deviation is below 1 %, we use a tight numerical tolerance
/// for the analytical checks.
pub const SATISFY_TOL: f64 = 1e-6;

/// An allocation of tunnel bandwidth per demand.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    flows: BTreeMap<DemandId, BTreeMap<TunnelId, f64>>,
}

impl Allocation {
    pub fn new() -> Allocation {
        Allocation::default()
    }

    /// Set `f_d^t` (values below 1e-12 clear the entry).
    pub fn set(&mut self, d: DemandId, t: TunnelId, f: f64) {
        assert!(f >= -1e-9, "negative flow {f}");
        let per = self.flows.entry(d).or_default();
        if f > 1e-12 {
            per.insert(t, f);
        } else {
            per.remove(&t);
        }
    }

    /// Add to `f_d^t`.
    pub fn add(&mut self, d: DemandId, t: TunnelId, f: f64) {
        let cur = self.get(d, t);
        self.set(d, t, cur + f);
    }

    /// `f_d^t` (zero when unset).
    pub fn get(&self, d: DemandId, t: TunnelId) -> f64 {
        self.flows
            .get(&d)
            .and_then(|per| per.get(&t))
            .copied()
            .unwrap_or(0.0)
    }

    /// All flows of one demand.
    pub fn flows_of(&self, d: DemandId) -> impl Iterator<Item = (TunnelId, f64)> + '_ {
        self.flows
            .get(&d)
            .into_iter()
            .flat_map(|per| per.iter().map(|(&t, &f)| (t, f)))
    }

    /// Demands with any allocation.
    pub fn demands(&self) -> impl Iterator<Item = DemandId> + '_ {
        self.flows.keys().copied()
    }

    /// Drop a demand's allocation entirely (used when a demand departs).
    pub fn remove_demand(&mut self, d: DemandId) {
        self.flows.remove(&d);
    }

    /// Replace one demand's allocation with the flows from `other`.
    pub fn adopt_demand(&mut self, d: DemandId, other: &Allocation) {
        self.remove_demand(d);
        for (t, f) in other.flows_of(d) {
            self.set(d, t, f);
        }
    }

    /// Total allocated bandwidth `Σ f_d^t` (the scheduling objective).
    pub fn total_allocated(&self) -> f64 {
        self.flows.values().flat_map(|per| per.values()).sum()
    }

    /// Bandwidth delivered to demand `d` on pair `k` under `scenario`:
    /// `Σ_{t ∈ T_k} f_d^t · v_t^z`.
    pub fn delivered(&self, ctx: &TeContext, d: DemandId, pair: usize, scenario: &Scenario) -> f64 {
        self.flows_of(d)
            .filter(|(t, _)| t.pair == pair)
            .filter(|(t, _)| ctx.tunnels.path(*t).available_under(ctx.topo, scenario))
            .map(|(_, f)| f)
            .sum()
    }

    /// Is `scenario` qualified for this demand (`z ∝ <d, {f_d^t}>`)?
    pub fn satisfied_under(&self, ctx: &TeContext, demand: &BaDemand, scenario: &Scenario) -> bool {
        demand.bandwidth.iter().all(|&(pair, b)| {
            self.delivered(ctx, demand.id, pair, scenario) >= b * (1.0 - SATISFY_TOL)
        })
    }

    /// Achieved availability: total probability of qualified scenarios in
    /// the pruned set. The residual mass is conservatively unqualified, so
    /// this is a lower bound on the demand's true availability.
    pub fn achieved_availability(&self, ctx: &TeContext, demand: &BaDemand) -> f64 {
        let flows: Vec<(TunnelId, f64)> = self.flows_of(demand.id).collect();
        let groups: Vec<_> = (flows.iter())
            .map(|(t, _)| ctx.tunnels.path(*t).groups(ctx.topo))
            .collect();
        let part = ctx.scenarios.partition(&groups);
        let mut qualified = LinkSet::new(ctx.scenarios.len());
        for (c, members) in part.classes().iter().enumerate() {
            // [`Self::delivered`] with the class's pattern for `v_t^z`.
            let delivered = |pair| -> f64 {
                let up = flows.iter().enumerate().filter(|(i, _)| part.is_up(c, *i));
                let of_pair = up.filter(|(_, (t, _))| t.pair == pair);
                of_pair.map(|(_, (_, f))| *f).sum()
            };
            let satisfied = |&(pair, b)| delivered(pair) >= b * (1.0 - SATISFY_TOL);
            if demand.bandwidth.iter().all(satisfied) {
                qualified.union_with(members);
            }
        }
        ctx.scenarios.probability_of(&qualified)
    }

    /// Does the allocation meet the demand's BA target?
    pub fn meets_target(&self, ctx: &TeContext, demand: &BaDemand) -> bool {
        self.achieved_availability(ctx, demand) >= demand.beta - SATISFY_TOL
    }

    /// The *relaxed* availability of Eq. 4: scenarios earn fractional
    /// credit `min_k min(1, delivered/b)` instead of all-or-nothing
    /// qualification. This is exactly what the scheduling LP guarantees to
    /// be ≥ β (the paper explicitly relaxes the MILP, §3.3); the hard
    /// [`Self::achieved_availability`] can be lower when flow is split.
    pub fn relaxed_availability(&self, ctx: &TeContext, demand: &BaDemand) -> f64 {
        ctx.scenarios
            .iter()
            .map(|z| {
                let credit = demand
                    .bandwidth
                    .iter()
                    .map(|&(pair, b)| {
                        (self.delivered(ctx, demand.id, pair, z) / b).min(1.0)
                    })
                    .fold(1.0f64, f64::min);
                z.probability * credit.max(0.0)
            })
            .sum()
    }

    /// Aggregate load per directed link.
    pub fn link_loads(&self, ctx: &TeContext) -> Vec<f64> {
        let mut loads = vec![0.0f64; ctx.topo.num_links()];
        for per in self.flows.values() {
            for (&t, &f) in per {
                for &l in &ctx.tunnels.path(t).links {
                    loads[l.index()] += f;
                }
            }
        }
        loads
    }

    /// Residual capacity per directed link after this allocation.
    pub fn residual_capacities(&self, ctx: &TeContext) -> Vec<f64> {
        let loads = self.link_loads(ctx);
        ctx.topo
            .links()
            .map(|(l, def)| (def.capacity - loads[l.index()]).max(0.0))
            .collect()
    }

    /// Does every link load fit its capacity (within `tol` relative slack)?
    pub fn respects_capacity(&self, ctx: &TeContext, tol: f64) -> bool {
        let loads = self.link_loads(ctx);
        ctx.topo
            .links()
            .all(|(l, def)| loads[l.index()] <= def.capacity * (1.0 + tol) + 1e-9)
    }

    /// Mean link utilization (Fig. 12(b)).
    pub fn mean_utilization(&self, ctx: &TeContext) -> f64 {
        let loads = self.link_loads(ctx);
        let mut total = 0.0;
        let mut n = 0usize;
        for (l, def) in ctx.topo.links() {
            total += loads[l.index()] / def.capacity;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, Scenario, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn toy_ctx() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn set_get_add_remove() {
        let (topo, tunnels, scenarios) = toy_ctx();
        let _ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let mut a = Allocation::new();
        let t = TunnelId { pair: 0, tunnel: 0 };
        let d = DemandId(1);
        a.set(d, t, 5.0);
        assert_eq!(a.get(d, t), 5.0);
        a.add(d, t, 2.5);
        assert_eq!(a.get(d, t), 7.5);
        a.set(d, t, 0.0);
        assert_eq!(a.get(d, t), 0.0);
        a.set(d, t, 1.0);
        a.remove_demand(d);
        assert_eq!(a.total_allocated(), 0.0);
    }

    #[test]
    fn delivered_respects_scenarios() {
        let (topo, tunnels, scenarios) = toy_ctx();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 6000.0, 0.99);

        let mut a = Allocation::new();
        // Put everything on the first tunnel of the pair.
        a.set(d.id, TunnelId { pair, tunnel: 0 }, 6000.0);

        let all_up = Scenario::all_up(&topo);
        assert!((a.delivered(&ctx, d.id, pair, &all_up) - 6000.0).abs() < 1e-9);
        assert!(a.satisfied_under(&ctx, &d, &all_up));

        // Kill the first tunnel's first link: delivery drops to zero.
        let first_link = tunnels.path(TunnelId { pair, tunnel: 0 }).links[0];
        let sc = Scenario::with_failures(&topo, &[topo.link(first_link).group]);
        assert_eq!(a.delivered(&ctx, d.id, pair, &sc), 0.0);
        assert!(!a.satisfied_under(&ctx, &d, &sc));
    }

    #[test]
    fn achieved_availability_single_tunnel() {
        let (topo, tunnels, _) = toy_ctx();
        // Full enumeration so availability is exact.
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 1000.0, 0.99);

        // Find the tunnel through DC3 (the reliable one).
        let reliable = (0..tunnels.tunnels(pair).len())
            .map(|i| TunnelId { pair, tunnel: i })
            .find(|&t| tunnels.path(t).nodes(&topo).contains(&n("DC3")))
            .unwrap();
        let mut a = Allocation::new();
        a.set(d.id, reliable, 1000.0);
        let achieved = a.achieved_availability(&ctx, &d);
        // Availability of the DC1→DC3→DC4 path is 0.998999001 (§2.2).
        assert!((achieved - 0.998999001).abs() < 1e-6, "{achieved}");
        assert!(a.meets_target(&ctx, &d));
    }

    #[test]
    fn link_loads_and_capacity() {
        let (topo, tunnels, scenarios) = toy_ctx();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC2")).unwrap();
        let mut a = Allocation::new();
        let t = TunnelId { pair, tunnel: 0 };
        a.set(DemandId(1), t, 9000.0);
        assert!(a.respects_capacity(&ctx, 0.0));
        a.set(DemandId(2), t, 2000.0);
        assert!(!a.respects_capacity(&ctx, 0.0)); // 11000 > 10000
        let loads = a.link_loads(&ctx);
        let l = tunnels.path(t).links[0];
        assert!((loads[l.index()] - 11000.0).abs() < 1e-9);
        assert!(a.mean_utilization(&ctx) > 0.0);
    }

    #[test]
    fn adopt_demand_replaces_flows() {
        let (topo, tunnels, scenarios) = toy_ctx();
        let _ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let d = DemandId(5);
        let t0 = TunnelId { pair: 0, tunnel: 0 };
        let t1 = TunnelId { pair: 0, tunnel: 1 };
        let mut a = Allocation::new();
        a.set(d, t0, 3.0);
        let mut b = Allocation::new();
        b.set(d, t1, 7.0);
        a.adopt_demand(d, &b);
        assert_eq!(a.get(d, t0), 0.0);
        assert_eq!(a.get(d, t1), 7.0);
    }
}
