//! Edge-disjoint path computation (§3.1 cites risk-aware OSPF routing [49]).
//!
//! Greedy shortest-path peeling: find the shortest path, remove every link
//! of every fate group it traverses (so subsequent paths share no *physical*
//! link, not merely no directed link), repeat. Greedy peeling can find fewer
//! paths than a max-flow formulation in adversarial graphs, but on WAN
//! topologies with ring-plus-chord structure it recovers the full disjoint
//! set and is what operators deploy.

use crate::ksp::shortest_path_avoiding;
use crate::path::Path;
use bate_net::{LinkId, NodeId, Topology};
use std::collections::HashSet;

/// Up to `k` pairwise fate-disjoint paths from `src` to `dst`, shortest
/// first.
pub fn edge_disjoint_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut banned: HashSet<LinkId> = HashSet::new();
    let mut out = Vec::new();
    while out.len() < k {
        let Some(p) = shortest_path_avoiding(topo, src, dst, &banned, &HashSet::new()) else {
            break;
        };
        for g in p.groups(topo) {
            for &l in &topo.group(g).links {
                banned.insert(l);
            }
        }
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies::{self, att, b4, fiti, ibm};

    /// No two returned paths share a fate group.
    fn assert_disjoint(topo: &Topology, paths: &[Path]) {
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                let gi = paths[i].groups(topo);
                for g in paths[j].groups(topo) {
                    assert!(!gi.contains(&g), "paths {i} and {j} share group {g:?}");
                }
            }
        }
    }

    #[test]
    fn toy4_has_two_disjoint_paths() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let ps = edge_disjoint_paths(&t, n("DC1"), n("DC4"), 4);
        assert_eq!(ps.len(), 2);
        assert_disjoint(&t, &ps);
    }

    #[test]
    fn testbed6_disjointness() {
        let t = topologies::testbed6();
        let n = |s: &str| t.find_node(s).unwrap();
        let ps = edge_disjoint_paths(&t, n("DC1"), n("DC4"), 4);
        assert!(ps.len() >= 2);
        assert_disjoint(&t, &ps);
        // First path is the direct L8 link.
        assert_eq!(ps[0].len(), 1);
    }

    #[test]
    fn disjoint_on_all_simulation_topologies() {
        for t in [b4(), ibm(), att(), fiti()] {
            let nodes: Vec<_> = t.nodes().collect();
            let ps = edge_disjoint_paths(&t, nodes[0], nodes[nodes.len() / 2], 4);
            assert!(!ps.is_empty(), "{}", t.name());
            assert_disjoint(&t, &ps);
        }
    }

    #[test]
    fn k_limits_path_count() {
        let t = topologies::testbed6();
        let n = |s: &str| t.find_node(s).unwrap();
        let ps = edge_disjoint_paths(&t, n("DC1"), n("DC4"), 1);
        assert_eq!(ps.len(), 1);
    }
}
