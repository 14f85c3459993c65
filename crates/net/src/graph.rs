//! The inter-DC WAN as a directed graph `G(V, E)` (§3.1).
//!
//! Nodes are data centers; links are directed and capacitated. Failures are
//! modeled per *fate group*: a physical bidirectional link contributes two
//! directed links that fail together. The paper's scenario vector `z` then
//! ranges over fate groups rather than directed links, which halves the
//! scenario space and captures shared-fiber fate.

use std::fmt;

/// Identifier of a data-center node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifier of a failure fate group (one per physical link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

impl NodeId {
    pub fn index(self) -> usize {
        self.0
    }
}

impl LinkId {
    pub fn index(self) -> usize {
        self.0
    }
}

impl GroupId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// A directed, capacitated link between two data centers.
#[derive(Debug, Clone)]
pub struct Link {
    pub src: NodeId,
    pub dst: NodeId,
    /// Capacity in bandwidth units (the reproduction uses Mbps throughout).
    pub capacity: f64,
    /// Failure fate group this link belongs to.
    pub group: GroupId,
}

/// A failure fate group: the set of directed links brought down together by
/// one physical failure, with the estimated failure probability `x_i`.
#[derive(Debug, Clone)]
pub struct FateGroup {
    /// Probability that this group is down at any given moment (`x_i`).
    pub failure_prob: f64,
    /// Directed links in the group.
    pub links: Vec<LinkId>,
}

/// An inter-DC WAN topology.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nodes: Vec<String>,
    links: Vec<Link>,
    groups: Vec<FateGroup>,
    /// Outgoing links per node.
    out_adj: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new(name: &str) -> Self {
        Topology {
            name: name.to_string(),
            nodes: Vec::new(),
            links: Vec::new(),
            groups: Vec::new(),
            out_adj: Vec::new(),
        }
    }

    /// Human-readable topology name (e.g. "B4").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a data center.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(name.to_string());
        self.out_adj.push(Vec::new());
        id
    }

    /// Add a single directed link with its own fate group.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
        failure_prob: f64,
    ) -> LinkId {
        assert!(src != dst, "self-loop links are not allowed");
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(
            (0.0..1.0).contains(&failure_prob),
            "failure probability must be in [0, 1)"
        );
        let group = GroupId(self.groups.len());
        self.groups.push(FateGroup {
            failure_prob,
            links: Vec::new(),
        });
        self.add_link_in_group(src, dst, capacity, group)
    }

    /// Add a bidirectional physical link: two directed links sharing one
    /// fate group. Returns `(forward, reverse)` link ids.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        failure_prob: f64,
    ) -> (LinkId, LinkId) {
        let group = GroupId(self.groups.len());
        self.groups.push(FateGroup {
            failure_prob,
            links: Vec::new(),
        });
        let fwd = self.add_link_in_group(a, b, capacity, group);
        let rev = self.add_link_in_group(b, a, capacity, group);
        (fwd, rev)
    }

    fn add_link_in_group(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
        group: GroupId,
    ) -> LinkId {
        assert!(src != dst, "self-loop links are not allowed");
        assert!(capacity > 0.0, "capacity must be positive");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            capacity,
            group,
        });
        self.groups[group.0].links.push(id);
        self.out_adj[src.0].push(id);
        id
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of failure fate groups (physical links).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    pub fn group(&self, id: GroupId) -> &FateGroup {
        &self.groups[id.0]
    }

    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    pub fn groups(&self) -> impl Iterator<Item = (GroupId, &FateGroup)> {
        self.groups.iter().enumerate().map(|(i, g)| (GroupId(i), g))
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0]
    }

    /// Find a node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n == name).map(NodeId)
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_adj[node.0]
    }

    /// Find a directed link from `src` to `dst`, if any.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_adj[src.0]
            .iter()
            .copied()
            .find(|&l| self.links[l.0].dst == dst)
    }

    /// Override a fate group's failure probability. Used to build the
    /// independent-*marginal* baseline of a correlated model (see
    /// [`crate::srlg::SrlgSet::marginal_topology`]).
    pub fn set_group_failure_prob(&mut self, g: GroupId, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "failure probability must be in [0, 1)"
        );
        self.groups[g.0].failure_prob = p;
    }

    /// All ordered source-destination pairs `K` (§3.1).
    pub fn sd_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for s in 0..self.nodes.len() {
            for d in 0..self.nodes.len() {
                if s != d {
                    out.push((NodeId(s), NodeId(d)));
                }
            }
        }
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {} links, {} fate groups)",
            self.name,
            self.num_nodes(),
            self.num_links(),
            self.num_groups()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// Availability (`1 - x_i`) of a link's fate group.
        pub(crate) fn link_availability(&self, id: LinkId) -> f64 {
            1.0 - self.groups[self.links[id.0].group.0].failure_prob
        }

        /// Failure probability of a link's fate group.
        pub(crate) fn link_failure_prob(&self, id: LinkId) -> f64 {
            self.groups[self.links[id.0].group.0].failure_prob
        }

        /// Check that every node can reach every other node (over up links).
        pub(crate) fn is_strongly_connected(&self) -> bool {
            let n = self.num_nodes();
            if n == 0 {
                return true;
            }
            // BFS from node 0 forward and backward.
            let reach_fwd = self.bfs_reach(NodeId(0), false);
            let reach_bwd = self.bfs_reach(NodeId(0), true);
            reach_fwd.iter().all(|&r| r) && reach_bwd.iter().all(|&r| r)
        }

        fn bfs_reach(&self, start: NodeId, reverse: bool) -> Vec<bool> {
            let mut seen = vec![false; self.num_nodes()];
            let mut queue = vec![start];
            seen[start.0] = true;
            while let Some(u) = queue.pop() {
                for (_, l) in self.links() {
                    let (from, to) = if reverse {
                        (l.dst, l.src)
                    } else {
                        (l.src, l.dst)
                    };
                    if from == u && !seen[to.0] {
                        seen[to.0] = true;
                        queue.push(to);
                    }
                }
            }
            seen
        }
    }

    fn two_node() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new("t");
        let a = t.add_node("A");
        let b = t.add_node("B");
        (t, a, b)
    }

    #[test]
    fn duplex_links_share_a_fate_group() {
        let (mut t, a, b) = two_node();
        let (f, r) = t.add_duplex_link(a, b, 10.0, 0.01);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.num_groups(), 1);
        assert_eq!(t.link(f).group, t.link(r).group);
        assert_eq!(t.link(f).src, a);
        assert_eq!(t.link(r).src, b);
    }

    #[test]
    fn directed_links_get_own_groups() {
        let (mut t, a, b) = two_node();
        t.add_link(a, b, 10.0, 0.01);
        t.add_link(b, a, 10.0, 0.02);
        assert_eq!(t.num_groups(), 2);
    }

    #[test]
    fn adjacency_and_lookup() {
        let (mut t, a, b) = two_node();
        let c = t.add_node("C");
        let l1 = t.add_link(a, b, 10.0, 0.0);
        let l2 = t.add_link(a, c, 5.0, 0.0);
        assert_eq!(t.out_links(a), &[l1, l2]);
        assert_eq!(t.find_link(a, c), Some(l2));
        assert_eq!(t.find_link(b, c), None);
        assert_eq!(t.find_node("C"), Some(c));
        assert_eq!(t.find_node("Z"), None);
    }

    #[test]
    fn availability_and_all_up_probability() {
        let (mut t, a, b) = two_node();
        let (f, _) = t.add_duplex_link(a, b, 1.0, 0.04);
        assert!((t.link_availability(f) - 0.96).abs() < 1e-12);
        let all_up = crate::Scenario::with_failures(&t, &[]);
        assert!((all_up.probability - 0.96).abs() < 1e-12);
    }

    #[test]
    fn sd_pairs_are_all_ordered_pairs() {
        let (mut t, _, _) = two_node();
        t.add_node("C");
        assert_eq!(t.sd_pairs().len(), 6);
    }

    #[test]
    fn strong_connectivity() {
        let (mut t, a, b) = two_node();
        t.add_link(a, b, 1.0, 0.0);
        assert!(!t.is_strongly_connected());
        t.add_link(b, a, 1.0, 0.0);
        assert!(t.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let (mut t, a, _) = two_node();
        t.add_link(a, a, 1.0, 0.0);
    }
}
