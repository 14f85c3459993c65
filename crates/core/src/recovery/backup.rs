//! Proactive backup allocations (§3.4, Fig. 4).
//!
//! "BATE proactively computes backup allocation strategies for potential
//! failure scenarios, so that the surviving tunnels can be used immediately
//! and packet loss can be mitigated." Like the paper, the precomputation
//! covers every *single* fate-group failure (footnote 6: the scheme extends
//! to concurrent failures, which [`BackupPlan::compute_with_depth`]
//! implements for pairs).

use super::greedy::greedy_recovery;
use super::RecoveryOutcome;
use crate::demand::BaDemand;
use crate::TeContext;
use bate_net::{GroupId, Scenario};
use std::collections::HashMap;

/// Precomputed backup allocations, keyed by the failed fate-group set.
#[derive(Debug, Clone)]
pub struct BackupPlan {
    /// Single-failure plans: group index → outcome.
    single: HashMap<usize, RecoveryOutcome>,
    /// Optional two-failure plans: (low group, high group) → outcome.
    pairs: HashMap<(usize, usize), RecoveryOutcome>,
}

impl BackupPlan {
    /// Precompute a backup allocation for every single fate-group failure.
    pub fn compute(ctx: &TeContext, demands: &[BaDemand]) -> BackupPlan {
        Self::compute_with_depth(ctx, demands, 1)
    }

    /// Precompute plans for up to `depth` (1 or 2) concurrent failures.
    pub fn compute_with_depth(ctx: &TeContext, demands: &[BaDemand], depth: usize) -> BackupPlan {
        assert!((1..=2).contains(&depth), "backup depth must be 1 or 2");
        let mut single = HashMap::new();
        let n = ctx.topo.num_groups();
        for g in 0..n {
            let sc = Scenario::with_failures(ctx.topo, &[GroupId(g)]);
            single.insert(g, greedy_recovery(ctx, demands, &sc));
        }
        let mut pairs = HashMap::new();
        if depth >= 2 {
            for a in 0..n {
                for b in a + 1..n {
                    let sc = Scenario::with_failures(ctx.topo, &[GroupId(a), GroupId(b)]);
                    pairs.insert((a, b), greedy_recovery(ctx, demands, &sc));
                }
            }
        }
        BackupPlan { single, pairs }
    }

    /// The precomputed plan for a failure of exactly these groups, if one
    /// was computed.
    pub fn lookup(&self, failed: &[GroupId]) -> Option<&RecoveryOutcome> {
        match failed {
            [g] => self.single.get(&g.index()),
            [a, b] => {
                let key = (a.index().min(b.index()), a.index().max(b.index()));
                self.pairs.get(&key)
            }
            _ => None,
        }
    }

    /// Number of precomputed plans.
    pub fn len(&self) -> usize {
        self.single.len() + self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn single_failure_plans_cover_all_groups() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let mut demands = vec![BaDemand::single(1, p, 500.0, 0.9)];
        demands[0].refund_ratio = 0.2;
        let plan = BackupPlan::compute(&ctx, &demands);
        assert_eq!(plan.len(), topo.num_groups());
        for (g, _) in topo.groups() {
            let out = plan.lookup(&[g]).unwrap();
            // The plan never routes over the failed group.
            let loads = out.allocation.link_loads(&ctx);
            for &l in &topo.group(g).links {
                assert_eq!(loads[l.index()], 0.0);
            }
        }
    }

    #[test]
    fn fig4_style_backup_reroutes() {
        // Fig. 4: after DC2→DC4 fails, the DC1→DC4 flow shifts to the
        // surviving path. On toy4: fail DC2-DC4, demand DC1→DC4 must land
        // entirely on DC1→DC3→DC4.
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut demands = vec![BaDemand::single(1, pair, 5000.0, 0.9)];
        demands[0].refund_ratio = 0.5;
        let plan = BackupPlan::compute(&ctx, &demands);
        let g = topo.link(topo.find_link(n("DC2"), n("DC4")).unwrap()).group;
        let out = plan.lookup(&[g]).unwrap();
        assert_eq!(out.satisfied.len(), 1);
        let delivered: f64 = out.allocation.flows_of(demands[0].id).map(|(_, f)| f).sum();
        assert!((delivered - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn depth_two_covers_pairs() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let demands = vec![BaDemand::single(1, pair, 1000.0, 0.9)];
        let plan = BackupPlan::compute_with_depth(&ctx, &demands, 2);
        let g = topo.num_groups();
        assert_eq!(plan.len(), g + g * (g - 1) / 2);
        let g0 = topo.groups().next().unwrap().0;
        let g1 = topo.groups().nth(1).unwrap().0;
        assert!(plan.lookup(&[g0, g1]).is_some());
        assert!(plan.lookup(&[g1, g0]).is_some(), "order-insensitive lookup");
        assert!(plan.lookup(&[]).is_none());
    }
}
