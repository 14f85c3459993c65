//! Paths (tunnels) through the WAN: a sequence of directed links.

use bate_net::{GroupId, LinkId, NodeId, Scenario, Topology};

/// A simple directed path, stored as its link sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    pub links: Vec<LinkId>,
}

impl Path {
    /// Build a path and check it is contiguous.
    ///
    /// # Panics
    ///
    /// Panics if consecutive links do not connect or the path is empty.
    pub fn new(topo: &Topology, links: Vec<LinkId>) -> Path {
        assert!(!links.is_empty(), "empty path");
        for w in links.windows(2) {
            assert_eq!(
                topo.link(w[0]).dst,
                topo.link(w[1]).src,
                "links are not contiguous"
            );
        }
        Path { links }
    }

    /// Source node.
    pub fn src(&self, topo: &Topology) -> NodeId {
        topo.link(self.links[0]).src
    }

    /// Destination node.
    pub fn dst(&self, topo: &Topology) -> NodeId {
        topo.link(*self.links.last().unwrap()).dst
    }

    /// Node sequence, source first.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = vec![self.src(topo)];
        for &l in &self.links {
            out.push(topo.link(l).dst);
        }
        out
    }

    /// Hop count.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Fate groups traversed, deduplicated in traversal order.
    pub fn groups(&self, topo: &Topology) -> Vec<GroupId> {
        let mut out: Vec<GroupId> = Vec::with_capacity(self.links.len());
        for &l in &self.links {
            let g = topo.link(l).group;
            if !out.contains(&g) {
                out.push(g);
            }
        }
        out
    }

    /// Steady-state availability `p_t = Π (1 - x_i)` over traversed fate
    /// groups (§2.2 computes exactly this for the two DC1→DC4 paths).
    pub fn availability(&self, topo: &Topology) -> f64 {
        self.groups(topo)
            .iter()
            .map(|&g| 1.0 - topo.group(g).failure_prob)
            .product()
    }

    /// Is the whole path up under a failure scenario (`v_t^z`)?
    pub fn available_under(&self, topo: &Topology, scenario: &Scenario) -> bool {
        self.links.iter().all(|&l| scenario.link_up(topo, l))
    }

    /// Render as "DC1→DC2→DC4".
    pub fn format(&self, topo: &Topology) -> String {
        self.nodes(topo)
            .iter()
            .map(|&n| topo.node_name(n).to_string())
            .collect::<Vec<_>>()
            .join("→")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies;

    impl Path {
        /// No repeated nodes?
        pub(crate) fn is_simple(&self, topo: &Topology) -> bool {
            let nodes = self.nodes(topo);
            let mut seen = std::collections::HashSet::new();
            nodes.iter().all(|n| seen.insert(*n))
        }

        /// Build a path from a node sequence; every consecutive pair must be
        /// directly linked.
        fn from_nodes(topo: &Topology, nodes: &[NodeId]) -> Option<Path> {
            if nodes.len() < 2 {
                return None;
            }
            let mut links = Vec::with_capacity(nodes.len() - 1);
            for w in nodes.windows(2) {
                links.push(topo.find_link(w[0], w[1])?);
            }
            Some(Path { links })
        }
    }

    #[test]
    fn from_nodes_and_accessors() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let p = Path::from_nodes(&t, &[n("DC1"), n("DC2"), n("DC4")]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.src(&t), n("DC1"));
        assert_eq!(p.dst(&t), n("DC4"));
        assert_eq!(p.format(&t), "DC1→DC2→DC4");
        assert!(p.is_simple(&t));
    }

    #[test]
    fn from_nodes_rejects_missing_links() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        assert!(Path::from_nodes(&t, &[n("DC2"), n("DC3")]).is_none());
    }

    #[test]
    fn availability_matches_motivating_example() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let upper = Path::from_nodes(&t, &[n("DC1"), n("DC2"), n("DC4")]).unwrap();
        let lower = Path::from_nodes(&t, &[n("DC1"), n("DC3"), n("DC4")]).unwrap();
        assert!((upper.availability(&t) - 0.95999904).abs() < 1e-9);
        assert!((lower.availability(&t) - 0.998999001).abs() < 1e-9);
    }

    #[test]
    fn availability_under_scenario() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let p = Path::from_nodes(&t, &[n("DC1"), n("DC2"), n("DC4")]).unwrap();
        let all_up = Scenario::with_failures(&t, &[]);
        assert!(p.available_under(&t, &all_up));
        let g = t.link(t.find_link(n("DC1"), n("DC2")).unwrap()).group;
        let down = Scenario::with_failures(&t, &[g]);
        assert!(!p.available_under(&t, &down));
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn new_rejects_broken_chain() {
        let t = topologies::toy4();
        let n = |s: &str| t.find_node(s).unwrap();
        let l1 = t.find_link(n("DC1"), n("DC2")).unwrap();
        let l2 = t.find_link(n("DC3"), n("DC4")).unwrap();
        Path::new(&t, vec![l1, l2]);
    }
}
