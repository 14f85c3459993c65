//! SWAN-style TE: maximize total delivered throughput (§5.2 setting).
//!
//! The real SWAN (Hong et al., SIGCOMM '13) approximates max-min fairness
//! across priority classes; the BATE evaluation configures it to "maximize
//! the total throughput of all users", which is the LP implemented here:
//! per-demand allocations are capped at the demanded rate, link capacities
//! bind, failures are ignored entirely.

use crate::traits::TeAlgorithm;
use bate_core::{Allocation, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError, VarId};
use bate_routing::TunnelId;

#[derive(Debug, Default, Clone, Copy)]
pub struct Swan;

impl Swan {
    pub fn new() -> Swan {
        Swan
    }
}

impl TeAlgorithm for Swan {
    fn name(&self) -> &'static str {
        "SWAN"
    }

    fn allocate(&self, ctx: &TeContext, demands: &[BaDemand]) -> Result<Allocation, SolveError> {
        let mut p = Problem::new(Sense::Maximize);
        let f_vars = capped_flow_columns(ctx, demands, &mut p, 1.0);
        add_capacity_rows(ctx, demands, &f_vars, &mut p, 1.0);
        let sol = p.solve()?;
        Ok(extract(demands, &f_vars, &sol))
    }
}

/// Shared helper: per demand and requested pair, one flow column per
/// tunnel at objective `cost`, then a row that never allocates beyond the
/// demanded rate (Σf ≤ b; none for a pair without tunnels). Returns the
/// columns as `f[demand][pair][tunnel]`.
pub(crate) fn capped_flow_columns(
    ctx: &TeContext,
    demands: &[BaDemand],
    p: &mut Problem,
    cost: f64,
) -> Vec<Vec<Vec<VarId>>> {
    let mut f_vars = Vec::with_capacity(demands.len());
    for demand in demands {
        let mut per = Vec::with_capacity(demand.bandwidth.len());
        for &(pair, b) in &demand.bandwidth {
            let vars: Vec<VarId> = (0..ctx.tunnels.tunnels(pair).len())
                .map(|_| {
                    let v = p.add_var();
                    p.set_objective(v, cost);
                    v
                })
                .collect();
            if !vars.is_empty() {
                let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
                p.add_constraint(&terms, Relation::Le, b);
            }
            per.push(vars);
        }
        f_vars.push(per);
    }
    f_vars
}

/// Shared helper: add one capacity row per used link, scaled by `headroom`
/// (1.0 = full capacity).
pub(crate) fn add_capacity_rows(
    ctx: &TeContext,
    demands: &[BaDemand],
    f_vars: &[Vec<Vec<VarId>>],
    p: &mut Problem,
    headroom: f64,
) {
    let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ctx.topo.num_links()];
    for (di, demand) in demands.iter().enumerate() {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                for &l in &ctx.tunnels.path(TunnelId { pair, tunnel: ti }).links {
                    per_link[l.index()].push((fv, 1.0));
                }
            }
        }
    }
    for (li, terms) in per_link.iter().enumerate() {
        if !terms.is_empty() {
            let cap = ctx.topo.link(bate_net::LinkId(li)).capacity * headroom;
            p.add_constraint(terms, Relation::Le, cap);
        }
    }
}

/// Shared helper: read flows out of a solution.
pub(crate) fn extract(
    demands: &[BaDemand],
    f_vars: &[Vec<Vec<VarId>>],
    sol: &bate_lp::Solution,
) -> Allocation {
    let mut alloc = Allocation::new();
    for (di, demand) in demands.iter().enumerate() {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                let f = sol[fv];
                if f > 1e-9 {
                    alloc.set(demand.id, TunnelId { pair, tunnel: ti }, f);
                }
            }
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn swan_fills_demands_up_to_capacity() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 6000.0, 0.99);
        let alloc = Swan.allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let total: f64 = alloc.flows_of(d.id).map(|(_, f)| f).sum();
        assert!(
            (total - 6000.0).abs() < 1e-6,
            "demand fully served: {total}"
        );
        assert!(alloc.respects_capacity(&ctx, 1e-9));
    }

    #[test]
    fn swan_caps_at_capacity_under_overload() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 50_000.0, 0.5);
        let alloc = Swan.allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let total: f64 = alloc.flows_of(d.id).map(|(_, f)| f).sum();
        // DC1's egress cut is 20 Gbps.
        assert!((total - 20_000.0).abs() < 1e-6, "{total}");
        assert!(alloc.respects_capacity(&ctx, 1e-9));
    }
}
