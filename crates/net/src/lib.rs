//! # bate-net — inter-DC WAN model for BATE
//!
//! The network substrate of the BATE reproduction:
//!
//! * [`graph`] — the WAN as a directed graph of data centers and capacitated
//!   links. Physical (bidirectional) links are modeled as *fate groups*: two
//!   directed links sharing one failure state, matching how a fiber cut takes
//!   out both directions.
//! * [`scenario`] — network failure scenarios `z` and the pruned enumeration
//!   of §3.3: all scenarios with at most `y` concurrent fate-group failures
//!   are enumerated exactly, everything deeper is folded into a single
//!   *residual* scenario that is conservatively treated as never qualified.
//! * [`distributions`] — the random samplers the evaluation needs (Weibull
//!   link-failure probabilities as in Fig. 1(b), exponential demand
//!   durations, Poisson arrivals) implemented from first principles so the
//!   dependency set stays within the approved list.
//! * [`srlg`] — shared-risk link groups: named fiber-cut events spanning
//!   several fate groups, correlated scenario enumeration with exact joint
//!   probabilities, and a seeded conduit-heuristic generator for the
//!   synthetic topologies.
//! * [`topologies`] — the six topologies of the paper: the 4-DC motivating
//!   example (Fig. 2), the 6-DC testbed (Fig. 6), and B4 / IBM / ATT / FITI
//!   (Table 4) with synthetic capacities and Weibull-sampled failure
//!   probabilities (see DESIGN.md, substitutions).
//! * [`traffic`] — gravity-model traffic matrices standing in for the
//!   paper's collected matrices.
//! * [`fileio`] — a plain-text topology format so operators can load
//!   their own WANs.

pub mod distributions;
pub mod fileio;
pub mod graph;
pub mod linkset;
pub mod scenario;
pub mod srlg;
pub mod topologies;
pub mod traffic;

pub use graph::{GroupId, Link, LinkId, NodeId, Topology};
pub use linkset::LinkSet;
pub use scenario::{Classes, Partition, Scenario, ScenarioSet};
pub use srlg::{Srlg, SrlgId, SrlgSet};
pub use traffic::TrafficMatrix;
