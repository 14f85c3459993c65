//! TEAVAR — Traffic Engineering Applying Value at Risk (Bogle et al.,
//! SIGCOMM '19).
//!
//! TEAVAR picks one network-wide availability level β and minimizes the
//! conditional value at risk (CVaR_β) of bandwidth loss over probabilistic
//! failure scenarios, via the Rockafellar-Uryasev linearization:
//!
//! ```text
//! minimize  α + 1/(1-β) Σ_z p_z s_z
//! s.t.      s_z ≥ loss_z - α,  s_z ≥ 0
//!           loss_z = Σ_d w_d u_{d,z},   u_{d,z} ≥ 1 - delivered/b (per pair)
//! ```
//!
//! The one-size-fits-all β is TEAVAR's core limitation in the BATE story
//! (Fig. 2(c)): it exploits failure probabilities well but cannot give one
//! user 99.99 % while another needs only 90 %.
//!
//! Scenario handling: the `s_z` variables are global (they couple all
//! demands), so the per-demand collapse of `bate-core` does not apply;
//! instead scenarios are collapsed *globally* by the joint availability
//! mask of every demand's tunnels, which is equally exact.

use crate::swan::{add_capacity_rows, capped_flow_columns, extract};
use crate::traits::TeAlgorithm;
use bate_core::{Allocation, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError, VarId};
use bate_net::LinkSet;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
pub struct Teavar {
    /// The single network-wide availability level β.
    pub beta: f64,
}

impl Teavar {
    pub fn new(beta: f64) -> Teavar {
        assert!((0.0..1.0).contains(&beta));
        Teavar { beta }
    }
}

impl TeAlgorithm for Teavar {
    fn name(&self) -> &'static str {
        "TEAVAR"
    }

    fn allocate(&self, ctx: &TeContext, demands: &[BaDemand]) -> Result<Allocation, SolveError> {
        let mut p = Problem::new(Sense::Minimize);

        // Flow variables; each pair is capped at its demanded rate, and a
        // small reward pushes toward serving demands fully even in the
        // no-risk corner cases.
        let f_vars = capped_flow_columns(ctx, demands, &mut p, -1e-7);
        add_capacity_rows(ctx, demands, &f_vars, &mut p, 1.0);

        // Global scenario collapse: joint tunnel-availability mask.
        let tunnel_groups: Vec<Vec<Vec<LinkSet>>> = demands
            .iter()
            .map(|d| {
                d.bandwidth
                    .iter()
                    .map(|&(pair, _)| {
                        ctx.tunnels
                            .tunnels(pair)
                            .iter()
                            .map(|path| {
                                let mut s = LinkSet::new(ctx.topo.num_groups());
                                for g in path.groups(ctx.topo) {
                                    s.insert(g.index());
                                }
                                s
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let mut states: Vec<(Vec<bool>, f64)> = Vec::new();
        let mut state_index: HashMap<Vec<bool>, usize> = HashMap::new();
        for z in ctx.scenarios.iter() {
            let mut mask = Vec::new();
            for per_demand in &tunnel_groups {
                for per_pair in per_demand {
                    for groups in per_pair {
                        mask.push(!groups.intersects(&z.failed));
                    }
                }
            }
            match state_index.get(&mask) {
                Some(&i) => states[i].1 += z.probability,
                None => {
                    state_index.insert(mask.clone(), states.len());
                    states.push((mask, z.probability));
                }
            }
        }

        // CVaR machinery. Demand weights: bandwidth share.
        let total_bw: f64 = demands.iter().map(|d| d.total_bandwidth()).sum();
        let alpha = p.add_var();
        p.set_objective(alpha, 1.0);
        let tail = 1.0 / (1.0 - self.beta);

        for (mask, prob) in &states {
            let s_z = p.add_var();
            p.set_objective(s_z, tail * prob);

            // loss_z = Σ_d w_d u_{d,si};  s_z + α - loss_z >= 0.
            let mut loss_terms: Vec<(VarId, f64)> = vec![(s_z, 1.0), (alpha, 1.0)];
            let mut flat = 0usize;
            for (di, demand) in demands.iter().enumerate() {
                let w = demand.total_bandwidth() / total_bw.max(1e-12);
                let u = p.add_var();
                for (ki, &(_, b)) in demand.bandwidth.iter().enumerate() {
                    // u >= 1 - Σ f v / b  ⇔  b·u + Σ f v >= b.
                    let mut terms: Vec<(VarId, f64)> = vec![(u, b)];
                    for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                        if mask[flat + ti] {
                            terms.push((fv, 1.0));
                        }
                    }
                    p.add_constraint(&terms, Relation::Ge, b);
                    flat += f_vars[di][ki].len();
                }
                loss_terms.push((u, -w));
            }
            p.add_constraint(&loss_terms, Relation::Ge, 0.0);
        }

        let sol = p.solve()?;
        Ok(extract(demands, &f_vars, &sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, Scenario, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_toy() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn teavar_splits_like_fig2c() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // CVaR on *fractional* loss rewards splitting: losing half the
        // bandwidth in the tail beats losing all of it — exactly the
        // split allocations Fig. 2(c) shows for TEAVAR. Consequence: part
        // of the traffic rides the risky path and dies with it.
        let d = BaDemand::single(1, pair, 6000.0, 0.99);
        let alloc = Teavar::new(0.999).allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let used_tunnels = alloc.flows_of(d.id).count();
        assert_eq!(used_tunnels, 2, "TEAVAR splits across both paths");
        let g = topo.link(topo.find_link(n("DC1"), n("DC2")).unwrap()).group;
        let sc = Scenario::with_failures(&topo, &[g]);
        let survived = alloc.delivered(&ctx, d.id, pair, &sc);
        assert!(
            survived > 0.0 && survived < 6000.0 - 1.0,
            "risky-path share is lost on failure: {survived}"
        );
    }

    #[test]
    fn teavar_serves_full_demand_when_riskless() {
        let (topo, tunnels, scenarios) = ctx_toy();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 3000.0, 0.9);
        let alloc = Teavar::new(0.99).allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let total: f64 = alloc.flows_of(d.id).map(|(_, f)| f).sum();
        assert!((total - 3000.0).abs() < 1.0, "{total}");
        assert!(alloc.respects_capacity(&ctx, 1e-6));
    }

    #[test]
    fn one_size_fits_all_limitation() {
        // The Fig. 2(c) story: with both users demanding 18 Gbps total,
        // TEAVAR at a single β can serve both, but user1's achieved
        // availability lands below its 99 % requirement because part of its
        // traffic rides the risky path.
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let user1 = BaDemand::single(1, pair, 6000.0, 0.99);
        let user2 = BaDemand::single(2, pair, 12_000.0, 0.90);
        let alloc = Teavar::new(0.999)
            .allocate(&ctx, &[user1.clone(), user2.clone()])
            .unwrap();
        // Both demands are fully allocated in the no-failure case...
        let all_up = Scenario::with_failures(&topo, &[]);
        assert!(alloc.delivered(&ctx, user1.id, pair, &all_up) >= 6000.0 - 1.0);
        assert!(alloc.delivered(&ctx, user2.id, pair, &all_up) >= 12_000.0 - 1.0);
        // ...but at least one of the two misses its own availability
        // target (capacity forces 8 Gbps across the risky path, and TEAVAR
        // has no notion of *whose* traffic should avoid it).
        let met1 = alloc.meets_target(&ctx, &user1);
        let met2 = alloc.meets_target(&ctx, &user2);
        assert!(
            !(met1 && met2),
            "TEAVAR cannot satisfy both heterogeneous targets here"
        );
    }
}
