//! Oblivious-style diverse low-stretch path selection.
//!
//! SMORE's oblivious routing builds Räcke decomposition trees; what the BATE
//! evaluation actually exploits (Fig. 18: "it finds diverse and low-stretch
//! paths and avoids link over-utilization") is the *diversity* of the
//! resulting path set. We reproduce that with iterative penalty re-weighting:
//! each round computes a shortest path under weights inflated on fate groups
//! already used by earlier selections, so later paths spread across the
//! topology while staying short.

use crate::path::Path;
use bate_net::{NodeId, Topology};
use std::collections::HashSet;

/// Multiplicative penalty applied to a fate group each time a selected path
/// uses it.
const PENALTY: f64 = 4.0;

/// Up to `k` diverse paths from `src` to `dst`.
pub fn oblivious_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut usage = vec![0u32; topo.num_groups()];
    let mut out: Vec<Path> = Vec::new();
    let mut seen: HashSet<Vec<bate_net::LinkId>> = HashSet::new();

    for _ in 0..k * 3 {
        if out.len() >= k {
            break;
        }
        let p = penalized_shortest(topo, src, dst, &usage);
        let Some(p) = p else { break };
        for g in p.groups(topo) {
            usage[g.index()] += 1;
        }
        if seen.insert(p.links.clone()) {
            out.push(p);
        }
    }
    out
}

/// Dijkstra under penalty-inflated fate-group weights.
fn penalized_shortest(topo: &Topology, src: NodeId, dst: NodeId, usage: &[u32]) -> Option<Path> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct E {
        d: f64,
        n: usize,
    }
    impl Eq for E {}
    impl Ord for E {
        fn cmp(&self, o: &Self) -> Ordering {
            o.d.partial_cmp(&self.d)
                .unwrap_or(Ordering::Equal)
                .then_with(|| o.n.cmp(&self.n))
        }
    }
    impl PartialOrd for E {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }

    if src == dst {
        return None;
    }
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(E {
        d: 0.0,
        n: src.index(),
    });
    while let Some(E { d, n: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &l in topo.out_links(NodeId(u)) {
            let g = topo.link(l).group;
            let w = 1.0 * PENALTY.powi(usage[g.index()] as i32)
                + 1e-6 / topo.link(l).capacity.max(1e-9);
            let v = topo.link(l).dst.index();
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some(l);
                heap.push(E { d: nd, n: v });
            }
        }
    }
    if dist[dst.index()].is_infinite() {
        return None;
    }
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let l = prev[cur.index()]?;
        links.push(l);
        cur = topo.link(l).src;
    }
    links.reverse();
    Some(Path { links })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies::{self, att, b4, fiti, ibm};

    #[test]
    fn toy4_diverse_paths() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let ps = oblivious_paths(&t, n("DC1"), n("DC4"), 2);
        assert_eq!(ps.len(), 2);
        // The two 2-hop paths must both be selected (diversity).
        assert!(ps.iter().all(|p| p.len() == 2));
        assert_ne!(ps[0], ps[1]);
    }

    #[test]
    fn paths_are_valid_and_distinct() {
        for t in [b4(), ibm(), att(), fiti()] {
            let nodes: Vec<_> = t.nodes().collect();
            let ps = oblivious_paths(&t, nodes[1], nodes[nodes.len() - 2], 4);
            assert!(!ps.is_empty(), "{}", t.name());
            let mut seen = std::collections::HashSet::new();
            for p in &ps {
                assert_eq!(p.src(&t), nodes[1]);
                assert_eq!(p.dst(&t), nodes[nodes.len() - 2]);
                assert!(seen.insert(p.links.clone()));
            }
        }
    }

    #[test]
    fn diversity_spreads_over_groups() {
        // On the testbed, 3 oblivious paths DC1→DC5 should cover more
        // distinct fate groups than 3x the shortest path would.
        let t = topologies::testbed6();
        let n = |s: &str| t.find_node(s).unwrap();
        let ps = oblivious_paths(&t, n("DC1"), n("DC5"), 3);
        let mut groups = std::collections::HashSet::new();
        for p in &ps {
            for g in p.groups(&t) {
                groups.insert(g);
            }
        }
        assert!(groups.len() >= 4, "only {} groups covered", groups.len());
    }
}
