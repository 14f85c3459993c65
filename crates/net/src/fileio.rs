//! Plain-text topology files.
//!
//! The paper's simulation topologies come from files shared by the TEAVAR
//! authors; operators of this library will similarly want to load their
//! own WANs. The format is line-oriented:
//!
//! ```text
//! # comments and blank lines are ignored
//! topology MyWAN
//! node DC1
//! node DC2
//! node DC3
//! duplex DC1 DC2 1000 0.0001    # capacity Mbps, failure probability
//! link   DC2 DC3 2000 0.001     # one-directional link
//! ```

use crate::graph::Topology;
use std::fmt;

/// Errors from [`parse_topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// `(line number, message)`.
    Line(usize, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ParseError::Line(n, msg) = self;
        write!(f, "line {n}: {msg}")
    }
}

impl std::error::Error for ParseError {}

/// Parse a topology from its text form.
pub fn parse_topology(text: &str) -> Result<Topology, ParseError> {
    let mut topo = Topology::new("unnamed");
    let err = |n: usize, msg: String| Err(ParseError::Line(n, msg));

    for (idx, raw) in text.lines().enumerate() {
        let n = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap();
        let rest: Vec<&str> = parts.collect();
        match keyword {
            "topology" => {
                let [name] = rest.as_slice() else {
                    return err(n, "topology takes exactly one name".into());
                };
                // Name must come before any structure.
                if topo.num_nodes() > 0 {
                    return err(n, "topology line must come first".into());
                }
                topo = Topology::new(name);
            }
            "node" => {
                let [name] = rest.as_slice() else {
                    return err(n, "node takes exactly one name".into());
                };
                if topo.find_node(name).is_some() {
                    return err(n, format!("duplicate node {name}"));
                }
                topo.add_node(name);
            }
            "duplex" | "link" => {
                let [a, b, cap, prob] = rest.as_slice() else {
                    return err(n, format!("{keyword} takes: src dst capacity failure_prob"));
                };
                let Some(na) = topo.find_node(a) else {
                    return err(n, format!("unknown node {a}"));
                };
                let Some(nb) = topo.find_node(b) else {
                    return err(n, format!("unknown node {b}"));
                };
                let capacity: f64 = cap
                    .parse()
                    .map_err(|_| ParseError::Line(n, format!("bad capacity {cap}")))?;
                let p: f64 = prob
                    .parse()
                    .map_err(|_| ParseError::Line(n, format!("bad probability {prob}")))?;
                if capacity <= 0.0 {
                    return err(n, "capacity must be positive".into());
                }
                if !(0.0..1.0).contains(&p) {
                    return err(n, "failure probability must be in [0, 1)".into());
                }
                if keyword == "duplex" {
                    topo.add_duplex_link(na, nb, capacity, p);
                } else {
                    topo.add_link(na, nb, capacity, p);
                }
            }
            other => return err(n, format!("unknown keyword {other}")),
        }
    }
    Ok(topo)
}

/// Load a topology from a file path.
pub fn load_topology(path: &std::path::Path) -> Result<Topology, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_topology(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    /// Serialize a topology to the text form, for the round-trip tests.
    /// Duplex pairs (two directed links sharing a fate group with mirrored
    /// endpoints) are written as one `duplex` line.
    fn format_topology(topo: &Topology) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "topology {}", topo.name());
        for node in topo.nodes() {
            let _ = writeln!(out, "node {}", topo.node_name(node));
        }
        for (_, group) in topo.groups() {
            let links = &group.links;
            match links.as_slice() {
                [a, b]
                    if topo.link(*a).src == topo.link(*b).dst
                        && topo.link(*a).dst == topo.link(*b).src
                        && topo.link(*a).capacity == topo.link(*b).capacity =>
                {
                    let l = topo.link(*a);
                    let _ = writeln!(
                        out,
                        "duplex {} {} {} {}",
                        topo.node_name(l.src),
                        topo.node_name(l.dst),
                        l.capacity,
                        group.failure_prob
                    );
                }
                _ => {
                    for &lid in links {
                        let l = topo.link(lid);
                        let _ = writeln!(
                            out,
                            "link {} {} {} {}",
                            topo.node_name(l.src),
                            topo.node_name(l.dst),
                            l.capacity,
                            group.failure_prob
                        );
                    }
                }
            }
        }
        out
    }

    #[test]
    fn parse_basic() {
        let text = r"
            # a tiny WAN
            topology Tiny
            node A
            node B
            node C
            duplex A B 1000 0.001
            link B C 500 0.0002  # one way only
        ";
        let t = parse_topology(text).unwrap();
        assert_eq!(t.name(), "Tiny");
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.num_groups(), 2);
    }

    #[test]
    fn roundtrip_every_builtin_topology() {
        for topo in [
            topologies::toy4(),
            topologies::testbed6(),
            topologies::b4(),
            topologies::ibm(),
            topologies::att(),
            topologies::fiti(),
        ] {
            let text = format_topology(&topo);
            let back = parse_topology(&text).unwrap();
            assert_eq!(back.name(), topo.name());
            assert_eq!(back.num_nodes(), topo.num_nodes());
            assert_eq!(back.num_links(), topo.num_links());
            assert_eq!(back.num_groups(), topo.num_groups());
            for ((_, a), (_, b)) in topo.links().zip(back.links()) {
                assert_eq!(a.src, b.src);
                assert_eq!(a.dst, b.dst);
                assert_eq!(a.capacity, b.capacity);
            }
            for ((_, a), (_, b)) in topo.groups().zip(back.groups()) {
                assert!((a.failure_prob - b.failure_prob).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("node A\nnode A", 2, "duplicate"),
            ("duplex A B 10 0.1", 1, "unknown node"),
            ("node A\nnode B\nduplex A B -5 0.1", 3, "capacity"),
            ("node A\nnode B\nduplex A B 10 1.5", 3, "probability"),
            ("frobnicate", 1, "unknown keyword"),
            ("node A\ntopology Late", 2, "must come first"),
            ("node A\nnode B\nduplex A B 10", 3, "takes"),
        ];
        for (text, line, needle) in cases {
            match parse_topology(text) {
                Err(ParseError::Line(n, msg)) => {
                    assert_eq!(n, line, "{text}");
                    assert!(msg.contains(needle), "{msg} should mention {needle}");
                }
                Ok(_) => panic!("{text} should fail"),
            }
        }
    }

    #[test]
    fn load_from_disk() {
        let dir = std::env::temp_dir().join("bate-net-fileio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.topo");
        std::fs::write(&path, format_topology(&topologies::toy4())).unwrap();
        let t = load_topology(&path).unwrap();
        assert_eq!(t.num_nodes(), 4);
        std::fs::remove_file(&path).ok();
    }
}
