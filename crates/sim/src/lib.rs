//! # bate-sim — discrete-event inter-DC WAN simulator
//!
//! Replaces both halves of the paper's evaluation substrate: the 6-server
//! testbed (§5.1) and the trace-driven large-scale simulator (§5.2).
//!
//! * [`events`] — the event queue: demand arrivals/departures, link
//!   failures/repairs, periodic TE rounds.
//! * [`workload`] — Poisson arrivals, exponential durations, demand sizes
//!   from gravity-model traffic matrices or uniform ranges, availability
//!   targets and Azure refund ratios drawn per §5.1/§5.2.
//! * [`failures`] — the link failure/repair process: each fate group fails
//!   per second with its probability `x_i` (exactly the testbed's
//!   per-second dice roll, realized event-driven via geometric gaps) and
//!   repairs after a configurable hold time (3 s default, swept in
//!   Fig. 20).
//! * [`dataplane`] — delivered-bandwidth model: flows on failed tunnels are
//!   lost; overloaded links (rescaled traffic after failures) degrade every
//!   flow crossing them proportionally, which is how TEAVAR's aggressive
//!   allocations turn failures into congestion loss (Fig. 11).
//! * [`engine`] — the simulation loop binding admission control, the TE
//!   algorithm, and failure recovery together.
//! * [`metrics`] — per-run measurements: rejection ratio, admission delay,
//!   link utilization, per-demand achieved availability, profit after
//!   refunds, delivered/demanded ratios, data-loss ratios.
//! * [`analysis`] — the §5.2 "post-processing" methodology: evaluate an
//!   allocation analytically against the scenario distribution instead of
//!   rolling dice (used for Fig. 13/14/18).
//! * [`montecarlo`] — raw-state sampling that cross-validates the analytic
//!   availability calculus.
//! * [`churn`] — seeded demand-churn workloads (1–5% add/remove/resize per
//!   round) driving the incremental warm-start scheduler, with per-round
//!   solve latency (DESIGN.md §5e).
//! * [`loadgen`] — mgen-style seeded steady submission schedules for
//!   driving the real control plane over sockets: the open-loop arrivals
//!   of the benchmark's `open_light` workload.
//! * [`storm`] — recovery storms: a region SRLG cut held across several
//!   rounds of concurrent churn, with per-round Algorithm-2/exact-MILP
//!   recovery deltas and latency (DESIGN.md §6x).

pub mod analysis;
pub mod churn;
pub mod dataplane;
pub mod engine;
pub mod events;
pub mod failures;
pub mod loadgen;
pub mod metrics;
pub mod montecarlo;
pub mod storm;
pub mod workload;

pub use engine::{AdmissionStrategy, RecoveryPolicy, SimConfig, Simulation};
pub use metrics::SimReport;
pub use workload::WorkloadConfig;
