//! Property-based validation of the routing algorithms against brute-force
//! path enumeration on small random topologies.

use bate_net::{NodeId, Topology};
use bate_routing::{ksp, Path, RoutingScheme, TunnelSet};
use proptest::prelude::*;

/// No repeated nodes?
fn is_simple(p: &Path, topo: &Topology) -> bool {
    let nodes = p.nodes(topo);
    let mut seen = std::collections::HashSet::new();
    nodes.iter().all(|n| seen.insert(*n))
}

fn random_topology() -> impl Strategy<Value = Topology> {
    (
        4usize..7,
        prop::collection::vec((0usize..8, 0usize..8), 0..8),
    )
        .prop_map(|(n, chords)| {
            let mut t = Topology::new("prop");
            let ids: Vec<_> = (0..n).map(|i| t.add_node(&format!("N{i}"))).collect();
            for i in 0..n {
                t.add_duplex_link(ids[i], ids[(i + 1) % n], 100.0, 0.001);
            }
            for (a, b) in chords {
                let (a, b) = (a % n, b % n);
                if a != b && t.find_link(ids[a], ids[b]).is_none() {
                    t.add_duplex_link(ids[a], ids[b], 100.0, 0.001);
                }
            }
            t
        })
}

/// All simple paths from src to dst, by DFS; returns sorted hop counts.
fn all_simple_path_lengths(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<usize> {
    fn dfs(
        topo: &Topology,
        cur: NodeId,
        dst: NodeId,
        visited: &mut Vec<NodeId>,
        depth: usize,
        out: &mut Vec<usize>,
    ) {
        if cur == dst {
            out.push(depth);
            return;
        }
        for &l in topo.out_links(cur) {
            let next = topo.link(l).dst;
            if !visited.contains(&next) {
                visited.push(next);
                dfs(topo, next, dst, visited, depth + 1, out);
                visited.pop();
            }
        }
    }
    let mut out = Vec::new();
    dfs(topo, src, dst, &mut vec![src], 0, &mut out);
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's KSP returns exactly the k shortest loopless path lengths.
    #[test]
    fn ksp_matches_bruteforce(topo in random_topology(), s in 0usize..8, d in 0usize..8, k in 1usize..6) {
        let s = NodeId(s % topo.num_nodes());
        let d = NodeId(d % topo.num_nodes());
        prop_assume!(s != d);
        let expected = all_simple_path_lengths(&topo, s, d);
        let paths = ksp::k_shortest_paths(&topo, s, d, k);
        prop_assert_eq!(paths.len(), k.min(expected.len()));
        for (p, &len) in paths.iter().zip(expected.iter()) {
            prop_assert_eq!(p.len(), len);
            prop_assert!(is_simple(p, &topo));
            prop_assert_eq!(p.src(&topo), s);
            prop_assert_eq!(p.dst(&topo), d);
        }
        // Distinct paths.
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            prop_assert!(seen.insert(p.links.clone()));
        }
    }

    /// Every routing scheme yields valid, simple, distinct paths.
    #[test]
    fn all_schemes_yield_valid_tunnels(topo in random_topology(), k in 1usize..5) {
        for scheme in [
            RoutingScheme::Ksp(k),
            RoutingScheme::EdgeDisjoint(k),
            RoutingScheme::Oblivious(k),
        ] {
            let set = TunnelSet::compute(&topo, scheme);
            for pair in 0..set.num_pairs() {
                let (s, d) = set.pair(pair);
                let mut seen = std::collections::HashSet::new();
                for p in set.tunnels(pair) {
                    prop_assert!(is_simple(p, &topo), "{}", scheme.name());
                    prop_assert_eq!(p.src(&topo), s);
                    prop_assert_eq!(p.dst(&topo), d);
                    prop_assert!(seen.insert(p.links.clone()), "{}", scheme.name());
                    // A simple path never exceeds n-1 hops.
                    prop_assert!(p.len() < topo.num_nodes());
                }
            }
        }
    }

    /// Edge-disjoint paths never share a fate group.
    #[test]
    fn disjoint_paths_share_nothing(topo in random_topology(), k in 2usize..5) {
        let set = TunnelSet::compute(&topo, RoutingScheme::EdgeDisjoint(k));
        for pair in 0..set.num_pairs() {
            let paths = set.tunnels(pair);
            for i in 0..paths.len() {
                for j in i + 1..paths.len() {
                    let gi = paths[i].groups(&topo);
                    for g in paths[j].groups(&topo) {
                        prop_assert!(!gi.contains(&g));
                    }
                }
            }
        }
    }

    /// Path availability equals the product over distinct fate groups and
    /// is consistent with scenario-based evaluation.
    #[test]
    fn availability_consistency(topo in random_topology()) {
        prop_assume!(topo.num_groups() <= 10);
        let full = bate_net::ScenarioSet::enumerate(&topo, topo.num_groups());
        let set = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        for pair in 0..set.num_pairs().min(6) {
            for p in set.tunnels(pair) {
                let analytic = p.availability(&topo);
                let summed: f64 = full
                    .iter()
                    .filter(|z| p.available_under(&topo, z))
                    .map(|z| z.probability)
                    .sum();
                prop_assert!((analytic - summed).abs() < 1e-9,
                    "analytic {analytic} vs summed {summed}");
            }
        }
    }
}
