//! The four workloads, each with its expected outcome declared up front,
//! and the names and units of every metric the benchmark emits.

use bate_net::{topologies, Topology};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OpenLight,
    BurstBatched,
    ContendedMix,
    WanCycle,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::OpenLight,
    Workload::BurstBatched,
    Workload::ContendedMix,
    Workload::WanCycle,
];

/// What a workload is made of and what a run of it must show. A run that
/// breaks `rejected_share` or `min_batch_mean` counts as failed.
pub struct Spec {
    pub name: &'static str,
    pub topology: fn() -> Topology,
    /// Uniform demand size in Mbps.
    pub bandwidth: (f64, f64),
    /// Demands admitted in one flush during set-up: the pool the workload
    /// holds in steady state, so that set-up has work to time and the
    /// warm-up starts where the window will run.
    pub prefill: usize,
    /// Allowed share of submissions the controller rejects.
    pub rejected_share: (f64, f64),
    /// Whether the next operation waits for the last (throughput is then
    /// the machine's, and reported at reference speed) or goes out on a
    /// schedule.
    pub closed_loop: bool,
    /// Lower limit on the controller's mean admission batch size.
    pub min_batch_mean: f64,
    /// Whether every round and link step must push exactly one install per
    /// pooled demand. Not on `contended_mix`: near capacity about one cold
    /// round in 14,000 does not solve, and the controller then keeps the
    /// allocation it has and pushes nothing.
    pub exact_installs: bool,
    /// Which end-to-end metric the tracing overhead is read from.
    pub headline: &'static str,
    /// The expected outcome, stated before the run and printed with it.
    pub expected: &'static str,
}

/// Scenario pruning depth of every workload's controller.
pub const MAX_FAILURES: usize = 2;
pub const BETAS: [f64; 3] = [0.9, 0.95, 0.99];

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::OpenLight => Spec {
                name: "open_light",
                topology: topologies::testbed6,
                bandwidth: (10.0, 50.0),
                prefill: 16,
                rejected_share: (0.0, 0.0),
                closed_loop: false,
                min_batch_mean: 1.0,
                exact_installs: true,
                headline: "verdict_p50_ms",
                expected: "testbed6, 16 demands pre-filled, open loop at 300 submits/s, 10-50 Mbps, each \
                    admitted demand withdrawn with the first flush 50 ms after its verdict: about \
                    16 demands live, nothing rejected, at most one submit in flight so every \
                    wakeup is a batch of one, generator lateness p99 under 5 ms; every 150 ms a \
                    TE round, a link failure and its repair, back to back",
            },
            Workload::BurstBatched => Spec {
                name: "burst_batched",
                topology: topologies::testbed6,
                bandwidth: (10.0, 50.0),
                prefill: 32,
                rejected_share: (0.0, 0.0),
                closed_loop: true,
                min_batch_mean: 8.0,
                exact_installs: true,
                headline: "churn_p50_ms",
                expected: "testbed6, two waves pre-filled, closed loop, waves of 16 submits in one write, the wave \
                    admitted two waves ago withdrawn with the next: pool 32-48, nothing rejected, \
                    mean batch at least 8, one warm solve and one pool-wide push per wave; every \
                    16 waves the pool is cut to two waves for a TE round, a link failure and \
                    its repair",
            },
            Workload::ContendedMix => Spec {
                name: "contended_mix",
                topology: topologies::b4,
                bandwidth: (100.0, 400.0),
                prefill: 0,
                rejected_share: (0.20, 0.35),
                closed_loop: true,
                min_batch_mean: 1.0,
                exact_installs: false,
                headline: "verdict_p50_ms",
                expected: "B4, closed loop, window 1, 100-400 Mbps, each admitted demand withdrawn \
                    128 submissions later, a TE round every 64 submissions, a link failure and \
                    its repair every 512: 20-35 % of submissions rejected, the verdict sequence \
                    equals the reference fold, the incremental scheduler never runs",
            },
            Workload::WanCycle => Spec {
                name: "wan_cycle",
                topology: topologies::att,
                bandwidth: (10.0, 50.0),
                prefill: 250,
                rejected_share: (0.0, 0.0),
                closed_loop: true,
                min_batch_mean: 4.0,
                exact_installs: true,
                headline: "round_p50_ms",
                expected: "ATT (1,597 scenarios), pool pre-filled to 250 demands of 10-50 Mbps; \
                    each cycle flushes 8 withdraws + 8 submits, runs a TE round, fails a seeded \
                    fate group and repairs it: nothing rejected, exactly 250 installs per step, \
                    every round's allocation meets its targets within capacity",
            },
        }
    }
}

/// `(name, unit)` of every end-to-end metric, in the order of
/// `BENCHMARK.json`. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("install_p50_ms", "ms"),
    ("submit_throughput_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("churn_p50_ms", "ms"),
    ("recovery_p50_ms", "ms"),
    ("repair_p50_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric; the prefix is the module
/// the number belongs to.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("peak_rss_mb", "MB"),
    ("bench.speed_probe_p50_us", "us"),
    ("bench.speed_probe_p90_p10_ratio", "ratio"),
    ("sim.loadgen.offered_per_s", "1/s"),
    ("sim.loadgen.late_p99_ms", "ms"),
    ("sim.loadgen.outstanding_max", "count"),
    ("system.client.send_us", "us"),
    ("system.client.wait_us", "us"),
    ("system.client.verdict_p99_ms", "ms"),
    ("system.wire.encode_submit_ns", "ns"),
    ("system.wire.encode_install_ns", "ns"),
    ("system.wire.decode_ns", "ns"),
    ("system.wire.crc_ns_per_kib", "ns"),
    ("system.wire.bytes_per_submit", "B"),
    ("system.wire.frames_per_submit", "count"),
    ("system.controller.batches", "count"),
    ("system.controller.batch_size_mean", "count"),
    ("system.controller.warm_solves", "count"),
    ("system.controller.admit_latency_p50_us", "us"),
    ("system.controller.installs_per_admit", "count"),
    ("system.controller.self_us_per_op", "us"),
    ("system.controller.attributed_share", "ratio"),
    ("core.admission.admit_us", "us"),
    ("core.admission.reject_us", "us"),
    ("core.admission.fixed_share", "ratio"),
    ("core.admission.conjecture_calls", "count"),
    ("core.admission.busy_share", "ratio"),
    ("core.incremental.apply_p50_ms", "ms"),
    ("core.incremental.warm_rounds", "count"),
    ("core.incremental.cold_rounds", "count"),
    ("core.incremental.warm_share", "ratio"),
    ("core.incremental.cert_fallbacks", "count"),
    ("core.incremental.dual_pivots", "count"),
    ("core.scheduling.round_p50_ms", "ms"),
    ("core.scheduling.lp_build_p50_ms", "ms"),
    ("core.scheduling.harden_p50_ms", "ms"),
    ("core.scheduling.rowgen_rounds", "count"),
    ("core.scheduling.rows_added", "count"),
    ("core.scheduling.master_rows", "count"),
    ("core.scheduling.hard_violations", "count"),
    ("lp.solve_p50_ms", "ms"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.iterations", "count"),
    ("lp.pivots", "count"),
    ("lp.bland_iterations", "count"),
    ("lp.phase1_share", "ratio"),
    ("core.recovery.greedy_p50_us", "us"),
    ("core.recovery.affected_demands", "count"),
    ("net.scenario_enumerate_ms", "ms"),
    ("net.scenarios", "count"),
    ("routing.tunnel_compute_ms", "ms"),
    ("routing.tunnels", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans", "count"),
];
