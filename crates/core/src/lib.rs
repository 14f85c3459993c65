//! # bate-core — the BATE traffic-engineering framework (§3)
//!
//! The paper's primary contribution: traffic engineering with per-demand
//! **bandwidth availability** (BA) provision over an inter-DC WAN. A demand
//! `d = (b_d, β_d)` asks that bandwidth `b_d` (a vector over s-d pairs) be
//! deliverable in a set of failure scenarios whose total probability is at
//! least `β_d`.
//!
//! Three components (§3):
//!
//! * [`admission`] — decide, in near-real-time, whether a newly arrived
//!   demand can be admitted: the *fixed* check (step 1), the greedy
//!   *conjecture* of Algorithm 1 (step 2, no false positives — Theorem 1),
//!   and the *optimal* MILP of Appendix A as the baseline.
//! * [`scheduling`] — the periodic LP (Eq. 1–7) that re-optimizes all
//!   admitted demands, guaranteeing every availability target while
//!   minimizing total allocated bandwidth, over the pruned scenario set.
//! * [`recovery`] — when a failure actually occurs: the profit-maximizing
//!   MILP (Eq. 8–12) with SLA refunds, its 2-approximation greedy
//!   (Algorithm 2 / Appendix D), and proactive backup-allocation
//!   precomputation (§3.4).
//!
//! Supporting models: [`demand`] (BA demands, Table 1 availability classes),
//! [`pricing`] (Azure-style SLA refund schedules), [`allocation`] (tunnel
//! bandwidth assignments and their achieved availability), and
//! [`profile`] (the per-demand scenario-collapsing device that keeps the
//! LPs small — see module docs). The scheduling LP, the [`incremental`]
//! master and the optimal-admission MILP are built from one private
//! `model` module, which holds the formulation they share.
//!
//! ## Example
//!
//! ```
//! use bate_core::{admission, scheduling, Allocation, BaDemand, TeContext};
//! use bate_net::{topologies, ScenarioSet};
//! use bate_routing::{RoutingScheme, TunnelSet};
//!
//! // The Fig. 2 motivating topology, 2-shortest-path tunnels, failure
//! // scenarios pruned at two concurrent failures.
//! let topo = topologies::toy4();
//! let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
//! let scenarios = ScenarioSet::enumerate(&topo, 2);
//! let ctx = TeContext::new(&topo, &tunnels, &scenarios);
//!
//! // 6 Gbps DC1→DC4 at 99% availability (user1 of §2.2).
//! let pair = tunnels
//!     .pair_index(topo.find_node("DC1").unwrap(), topo.find_node("DC4").unwrap())
//!     .unwrap();
//! let demand = BaDemand::single(1, pair, 6000.0, 0.99);
//!
//! // Admit, then schedule with a hard guarantee.
//! let outcome = admission::admit(&ctx, &[], &Allocation::new(), &demand);
//! assert!(matches!(outcome, admission::AdmissionOutcome::Admitted { .. }));
//! let result = scheduling::schedule_hardened(&ctx, &[demand.clone()]).unwrap();
//! assert!(result.allocation.meets_target(&ctx, &demand));
//! ```

pub mod admission;
pub mod allocation;
pub mod demand;
pub mod incremental;
mod model;
pub mod pricing;
pub mod profile;
pub mod recovery;
pub mod scheduling;

/// Time as a capability. The implementation moved to `bate-obs` (the
/// workspace's dependency-free bottom layer) so telemetry timestamps can
/// share the components' time source; this re-export keeps the original
/// `bate_core::clock` paths working.
pub use bate_obs::clock;

pub use allocation::Allocation;
pub use clock::{Clock, SimClock, SystemClock};
pub use demand::{AvailabilityClass, BaDemand, DemandId};
pub use incremental::{DemandDelta, IncrementalScheduler, IncrementalStats, SchedulingSession};
pub use pricing::SlaSchedule;

/// The solver error type, re-exported so downstream crates (sim, system)
/// can name the errors our scheduling/admission APIs return without
/// depending on `bate-lp` directly.
pub use bate_lp::SolveError;

use bate_net::{ScenarioSet, Topology};
use bate_routing::TunnelSet;

/// Everything the optimization models need about the network: the topology,
/// the pre-computed tunnels, and the pruned failure-scenario set.
#[derive(Debug, Clone, Copy)]
pub struct TeContext<'a> {
    pub topo: &'a Topology,
    pub tunnels: &'a TunnelSet,
    pub scenarios: &'a ScenarioSet,
}

impl<'a> TeContext<'a> {
    pub fn new(topo: &'a Topology, tunnels: &'a TunnelSet, scenarios: &'a ScenarioSet) -> Self {
        TeContext {
            topo,
            tunnels,
            scenarios,
        }
    }

    /// Every link's full capacity, in link order — the capacity vector of
    /// a schedule that has the whole network to itself.
    pub fn link_capacities(&self) -> Vec<f64> {
        self.topo.links().map(|(_, l)| l.capacity).collect()
    }
}
