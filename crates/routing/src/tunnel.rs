//! Tunnel sets: the pre-computed `T_k` for every source-destination pair.

use crate::disjoint::edge_disjoint_paths;
use crate::ksp::k_shortest_paths;
use crate::oblivious::oblivious_paths;
use crate::path::Path;
use bate_net::{NodeId, Topology};
use std::collections::HashMap;

/// Which offline routing algorithm computes the tunnels (§4, Offline
/// Routing; compared in Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// Yen's k-shortest paths (the paper's default is `Ksp(4)`).
    Ksp(usize),
    /// Fate-disjoint paths.
    EdgeDisjoint(usize),
    /// Diverse low-stretch (oblivious-style) paths.
    Oblivious(usize),
}

impl RoutingScheme {
    /// The paper's default: 4-shortest paths.
    pub fn default_ksp4() -> Self {
        RoutingScheme::Ksp(4)
    }

    pub fn name(&self) -> &'static str {
        match self {
            RoutingScheme::Ksp(_) => "KSP",
            RoutingScheme::EdgeDisjoint(_) => "Edge-disjoint",
            RoutingScheme::Oblivious(_) => "Oblivious",
        }
    }
}

/// Identifies one tunnel: the s-d pair index and the tunnel's position in
/// that pair's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TunnelId {
    pub pair: usize,
    pub tunnel: usize,
}

/// All tunnels of a topology, indexed by s-d pair.
#[derive(Debug, Clone)]
pub struct TunnelSet {
    pairs: Vec<(NodeId, NodeId)>,
    pair_index: HashMap<(NodeId, NodeId), usize>,
    tunnels: Vec<Vec<Path>>,
    /// `p_t` per tunnel, parallel to `tunnels`. `Path::availability`
    /// allocates a group vector on every call, which is too expensive for
    /// the sort comparators in admission and hardening; the product only
    /// depends on the topology the set was computed from, so it is cached
    /// here once at build time.
    avail: Vec<Vec<f64>>,
}

impl TunnelSet {
    /// Compute tunnels for every ordered s-d pair of `topo`.
    pub fn compute(topo: &Topology, scheme: RoutingScheme) -> TunnelSet {
        Self::compute_for_pairs(topo, &topo.sd_pairs(), scheme)
    }

    /// Compute tunnels for a subset of pairs (cheaper when the demand set
    /// touches few pairs).
    pub fn compute_for_pairs(
        topo: &Topology,
        pairs: &[(NodeId, NodeId)],
        scheme: RoutingScheme,
    ) -> TunnelSet {
        let mut set = TunnelSet {
            pairs: Vec::with_capacity(pairs.len()),
            pair_index: HashMap::new(),
            tunnels: Vec::with_capacity(pairs.len()),
            avail: Vec::with_capacity(pairs.len()),
        };
        for &(s, d) in pairs {
            let paths = match scheme {
                RoutingScheme::Ksp(k) => k_shortest_paths(topo, s, d, k),
                RoutingScheme::EdgeDisjoint(k) => edge_disjoint_paths(topo, s, d, k),
                RoutingScheme::Oblivious(k) => oblivious_paths(topo, s, d, k),
            };
            set.pair_index.insert((s, d), set.pairs.len());
            set.pairs.push((s, d));
            set.avail.push(paths.iter().map(|p| p.availability(topo)).collect());
            set.tunnels.push(paths);
        }
        set
    }

    /// Number of s-d pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The s-d pair at `index`.
    pub fn pair(&self, index: usize) -> (NodeId, NodeId) {
        self.pairs[index]
    }

    /// Index of an s-d pair.
    pub fn pair_index(&self, s: NodeId, d: NodeId) -> Option<usize> {
        self.pair_index.get(&(s, d)).copied()
    }

    /// Tunnels of a pair by index.
    pub fn tunnels(&self, pair: usize) -> &[Path] {
        &self.tunnels[pair]
    }

    /// The path behind a [`TunnelId`].
    pub fn path(&self, id: TunnelId) -> &Path {
        &self.tunnels[id.pair][id.tunnel]
    }

    /// Cached `p_t` of every tunnel of a pair, parallel to
    /// [`TunnelSet::tunnels`]. Equals `Path::availability` against the
    /// topology the set was computed from, without the per-call group
    /// allocation.
    pub fn availabilities(&self, pair: usize) -> &[f64] {
        &self.avail[pair]
    }

    /// Cached `p_t` of one tunnel (see [`TunnelSet::availabilities`]).
    pub fn availability(&self, id: TunnelId) -> f64 {
        self.avail[id.pair][id.tunnel]
    }

    /// Iterate every tunnel as `(TunnelId, &Path)`.
    pub fn iter(&self) -> impl Iterator<Item = (TunnelId, &Path)> {
        self.tunnels.iter().enumerate().flat_map(|(pi, ts)| {
            ts.iter().enumerate().map(move |(ti, p)| {
                (
                    TunnelId {
                        pair: pi,
                        tunnel: ti,
                    },
                    p,
                )
            })
        })
    }

    /// Total number of tunnels across all pairs.
    pub fn total_tunnels(&self) -> usize {
        self.tunnels.iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies;

    #[test]
    fn computes_all_pairs() {
        let t = topologies::toy4();
        let set = TunnelSet::compute(&t, RoutingScheme::Ksp(2));
        assert_eq!(set.num_pairs(), 12);
        assert!(set.total_tunnels() >= 12);
    }

    #[test]
    fn pair_lookup_roundtrip() {
        let t = topologies::testbed6();
        let set = TunnelSet::compute(&t, RoutingScheme::default_ksp4());
        let n = |s: &str| t.find_node(s).unwrap();
        let i = set.pair_index(n("DC1"), n("DC3")).unwrap();
        assert_eq!(set.pair(i), (n("DC1"), n("DC3")));
        assert_eq!(set.tunnels(i).len(), 4);
    }

    #[test]
    fn subset_of_pairs() {
        let t = topologies::testbed6();
        let n = |s: &str| t.find_node(s).unwrap();
        let pairs = vec![(n("DC1"), n("DC4"))];
        let set = TunnelSet::compute_for_pairs(&t, &pairs, RoutingScheme::Ksp(3));
        assert_eq!(set.num_pairs(), 1);
        assert!(set.pair_index(n("DC4"), n("DC1")).is_none());
    }

    #[test]
    fn iter_yields_every_tunnel() {
        let t = topologies::toy4();
        let set = TunnelSet::compute(&t, RoutingScheme::Ksp(2));
        assert_eq!(set.iter().count(), set.total_tunnels());
        for (id, p) in set.iter() {
            assert_eq!(set.path(id).links, p.links);
        }
    }

    #[test]
    fn cached_availability_matches_path() {
        let t = topologies::testbed6();
        let set = TunnelSet::compute(&t, RoutingScheme::default_ksp4());
        for (id, p) in set.iter() {
            assert!(
                (set.availability(id) - p.availability(&t)).abs() < 1e-12,
                "cache diverged for {id:?}"
            );
        }
        for pair in 0..set.num_pairs() {
            assert_eq!(set.availabilities(pair).len(), set.tunnels(pair).len());
        }
    }

    #[test]
    fn all_schemes_produce_tunnels_on_b4() {
        let t = topologies::b4();
        for scheme in [
            RoutingScheme::Ksp(4),
            RoutingScheme::EdgeDisjoint(4),
            RoutingScheme::Oblivious(4),
        ] {
            let nodes: Vec<_> = t.nodes().collect();
            let set = TunnelSet::compute_for_pairs(&t, &[(nodes[0], nodes[6])], scheme);
            assert!(!set.tunnels(0).is_empty(), "{}", scheme.name());
        }
    }
}
