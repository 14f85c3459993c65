//! SMORE-style TE: load-balanced rate adaptation (Kumar et al., NSDI '18).
//!
//! SMORE pairs an oblivious (Räcke) path set with per-interval rate
//! adaptation that keeps the maximum link utilization low. Over the shared
//! tunnel set, we reproduce the rate-adaptation half as a lexicographic LP:
//! first maximize total delivered throughput, then (via a small weight)
//! minimize the worst link utilization among throughput-optimal solutions.
//! Combined with the `Oblivious` routing scheme of `bate-routing` this
//! matches the paper's SMORE configuration (Fig. 18 studies the path-set
//! half separately).

use crate::swan::{add_capacity_rows, capped_flow_columns, extract};
use crate::traits::TeAlgorithm;
use bate_core::{Allocation, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError, VarId};
use bate_routing::TunnelId;

#[derive(Debug, Default, Clone, Copy)]
pub struct Smore;

impl Smore {
    pub fn new() -> Smore {
        Smore
    }
}

impl TeAlgorithm for Smore {
    fn name(&self) -> &'static str {
        "SMORE"
    }

    fn allocate(&self, ctx: &TeContext, demands: &[BaDemand]) -> Result<Allocation, SolveError> {
        let mut p = Problem::new(Sense::Maximize);
        let f_vars = capped_flow_columns(ctx, demands, &mut p, 1.0);
        add_capacity_rows(ctx, demands, &f_vars, &mut p, 1.0);

        // Load balancing: U >= load_e / c_e for every link; subtract a
        // small multiple of U from the objective. The weight is small
        // relative to one unit of throughput so throughput stays lexically
        // first, but enough to break ties toward spread-out allocations.
        let u = p.add_var();
        let balance_weight = 0.001
            * demands
                .iter()
                .map(|d| d.total_bandwidth())
                .sum::<f64>()
                .max(1.0);
        p.set_objective(u, -balance_weight);
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
                let cap = ctx.topo.link(bate_net::LinkId(li)).capacity;
                // load/cap - U <= 0
                let mut t: Vec<(VarId, f64)> = terms.iter().map(|&(v, c)| (v, c / cap)).collect();
                t.push((u, -1.0));
                p.add_constraint(&t, Relation::Le, 0.0);
            }
        }

        let sol = p.solve()?;
        Ok(extract(demands, &f_vars, &sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swan::Swan;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn smore_spreads_load_across_paths() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 8000.0, 0.9);
        let alloc = Smore.allocate(&ctx, std::slice::from_ref(&d)).unwrap();
        let total: f64 = alloc.flows_of(d.id).map(|(_, f)| f).sum();
        assert!((total - 8000.0).abs() < 1e-6);
        // Both 10 Gbps paths must carry ~4 Gbps each (balanced), unlike a
        // throughput-only LP which may put all 8 on one path.
        let flows: Vec<f64> = alloc.flows_of(d.id).map(|(_, f)| f).collect();
        assert_eq!(flows.len(), 2, "should use both tunnels");
        for f in flows {
            assert!((f - 4000.0).abs() < 1.0, "unbalanced flow {f}");
        }
    }

    #[test]
    fn smore_matches_swan_throughput() {
        // Lexicographic: SMORE's total throughput equals SWAN's.
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p13 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let p25 = tunnels.pair_index(n("DC2"), n("DC5")).unwrap();
        let demands = vec![
            BaDemand::single(1, p13, 900.0, 0.9),
            BaDemand::single(2, p25, 700.0, 0.9),
        ];
        let swan_total = Swan.allocate(&ctx, &demands).unwrap().total_allocated();
        let smore_total = Smore.allocate(&ctx, &demands).unwrap().total_allocated();
        assert!(
            (swan_total - smore_total).abs() < swan_total * 0.01 + 1e-6,
            "swan {swan_total} vs smore {smore_total}"
        );
    }
}
