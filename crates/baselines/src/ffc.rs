//! FFC — Traffic Engineering with Forward Fault Correction (Liu et al.,
//! SIGCOMM '14).
//!
//! FFC guarantees that the bandwidth promised to each demand survives *any*
//! combination of up to `l` link failures: for every such failure scenario,
//! the flow remaining on surviving tunnels must still cover the guarantee.
//! The LP maximizes the total guaranteed bandwidth (capped at the demanded
//! rates), with a tiny penalty on raw flow so protection capacity is not
//! allocated gratuitously. Because the guarantee quantifies over *all*
//! ≤ l-failure scenarios regardless of probability, FFC keeps reliable
//! links underutilized — the conservatism Fig. 2(b) illustrates.

use crate::swan::extract;
use crate::traits::TeAlgorithm;
use bate_core::profile::MaskedProfile;
use bate_core::{Allocation, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError, VarId};
use bate_net::ScenarioSet;

#[derive(Debug, Clone, Copy)]
pub struct Ffc {
    /// Maximum number of concurrent fate-group failures to survive.
    pub max_failures: usize,
}

impl Ffc {
    pub fn new(max_failures: usize) -> Ffc {
        Ffc { max_failures }
    }
}

impl TeAlgorithm for Ffc {
    fn name(&self) -> &'static str {
        "FFC"
    }

    fn allocate(&self, ctx: &TeContext, demands: &[BaDemand]) -> Result<Allocation, SolveError> {
        // FFC's scenario universe is "every ≤ l failures", independent of
        // the probabilistic set in `ctx` — enumerate it locally and collapse
        // per demand.
        let ffc_scenarios = ScenarioSet::enumerate(ctx.topo, self.max_failures);
        let ffc_ctx = TeContext::new(ctx.topo, ctx.tunnels, &ffc_scenarios);

        let mut p = Problem::new(Sense::Maximize);
        let mut f_vars: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(demands.len());
        let flow_penalty = 1e-4;

        for demand in demands {
            let mut per = Vec::new();
            for &(pair, _) in &demand.bandwidth {
                let vars: Vec<VarId> = (0..ctx.tunnels.tunnels(pair).len())
                    .map(|_| {
                        let v = p.add_var();
                        p.set_objective(v, -flow_penalty);
                        v
                    })
                    .collect();
                per.push(vars);
            }
            f_vars.push(per);
        }

        for (di, demand) in demands.iter().enumerate() {
            let profile = MaskedProfile::collapse(&ffc_ctx, demand, &[]);
            for (ki, &(_, b)) in demand.bandwidth.iter().enumerate() {
                // Guaranteed bandwidth on this pair, capped at the demand.
                let s = p.add_bounded_var(b);
                p.set_objective(s, 1.0);
                // For every ≤ l failure state: surviving flow covers s.
                for si in 0..profile.len() {
                    let mut terms: Vec<(VarId, f64)> = vec![(s, -1.0)];
                    for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                        if profile.avail(si, ki, ti) {
                            terms.push((fv, 1.0));
                        }
                    }
                    p.add_constraint(&terms, Relation::Ge, 0.0);
                }
            }
        }

        crate::swan::add_capacity_rows(ctx, demands, &f_vars, &mut p, 1.0);
        let sol = p.solve()?;
        Ok(extract(demands, &f_vars, &sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelId, TunnelSet};

    /// The guaranteed (worst-case over ≤ l failures) bandwidth of an
    /// allocation for one demand-pair.
    fn guaranteed_bandwidth(
        ctx: &TeContext,
        alloc: &Allocation,
        demand: &BaDemand,
        pair: usize,
        max_failures: usize,
    ) -> f64 {
        let scenarios = ScenarioSet::enumerate(ctx.topo, max_failures);
        scenarios
            .iter()
            .map(|z| {
                alloc
                    .flows_of(demand.id)
                    .filter(|(t, _)| t.pair == pair)
                    .filter(|(t, _)| {
                        ctx.tunnels
                            .path(TunnelId {
                                pair: t.pair,
                                tunnel: t.tunnel,
                            })
                            .available_under(ctx.topo, z)
                    })
                    .map(|(_, f)| f)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn ctx_toy() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn ffc_splits_conservatively_like_fig2b() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // Fig. 2: user1 6 Gbps, user2 12 Gbps. FFC(1) can guarantee at most
        // 10 Gbps total (one path's worth) and splits across both paths.
        let demands = vec![
            BaDemand::single(1, pair, 6000.0, 0.99),
            BaDemand::single(2, pair, 12_000.0, 0.90),
        ];
        let alloc = Ffc::new(1).allocate(&ctx, &demands).unwrap();
        let total_guaranteed: f64 = demands
            .iter()
            .map(|d| guaranteed_bandwidth(&ctx, &alloc, d, pair, 1))
            .sum();
        assert!(
            (total_guaranteed - 10_000.0).abs() < 1.0,
            "FFC(1) guarantees one path's capacity: {total_guaranteed}"
        );
        // Neither demand is fully guaranteed — the Fig. 2(b) failure mode.
        assert!(guaranteed_bandwidth(&ctx, &alloc, &demands[1], pair, 1) < 12_000.0);
        assert!(alloc.respects_capacity(&ctx, 1e-6));
    }

    #[test]
    fn ffc_guarantee_survives_any_single_failure() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 4000.0, 0.99);
        let alloc = Ffc::new(1).allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let g = guaranteed_bandwidth(&ctx, &alloc, &d, pair, 1);
        assert!(
            (g - 4000.0).abs() < 1.0,
            "4 Gbps fits under protection: {g}"
        );
        // Verify against explicit single-failure scenarios.
        for (gid, _) in topo.groups() {
            let sc = bate_net::Scenario::with_failures(&topo, &[gid]);
            assert!(alloc.delivered(&ctx, d.id, pair, &sc) >= 4000.0 - 1.0);
        }
    }

    #[test]
    fn ffc_zero_failures_degenerates_to_throughput() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 15_000.0, 0.9);
        let alloc = Ffc::new(0).allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let total: f64 = alloc.flows_of(d.id).map(|(_, f)| f).sum();
        assert!((total - 15_000.0).abs() < 1.0, "{total}");
    }
}
