//! Deterministic telemetry capture: run a seeded testbed simulation with
//! the JSONL trace subscriber installed and dump a filtered registry
//! snapshot — the harness behind `scripts/obscheck.sh`, which runs this
//! twice and diffs the outputs byte for byte.
//!
//! ```text
//! cargo run --release --example obs_trace -- <trace_out> <metrics_out> \
//!     [seed] [e2e_out] [flight_out] [slo_out]
//! ```
//!
//! The three optional outputs exercise the causal-tracing layer:
//! * `e2e_out` — the canonical causal slice of one admission flow driven
//!   through real sockets (client → controller → LP solve → broker push),
//!   all under the single deterministic trace id of `("submit", 7)`;
//! * `flight_out` — the flight-recorder artifact dumped by a forced
//!   cert-gate cold fallback, causally sliced on the triggering trace;
//! * `slo_out` — the deterministic-spec SLO burn-rate report.
//!
//! Determinism contract:
//! * the installed trace clock is a [`SimClock`] that is never advanced,
//!   so event `t_ns` stamps are constant; real timing lives in the events'
//!   explicit `sim_time` fields, which come from the (seed-deterministic)
//!   event queue;
//! * the simulator charges a fixed recovery outage window and keeps
//!   measured admission time out of its event schedule, so the schedule
//!   itself is a pure function of the seed;
//! * the metrics snapshot keeps counters only — histograms hold wall-clock
//!   latencies, the one thing that legitimately differs between runs.

use bate_net::{topologies, GroupId, ScenarioSet};
use bate_obs::{JsonlSubscriber, MetricKind, Registry, SimClock};
use bate_routing::{RoutingScheme, TunnelSet};
use bate_sim::workload::generate;
use bate_sim::{churn, storm};
use bate_sim::{AdmissionStrategy, RecoveryPolicy, SimConfig, Simulation, WorkloadConfig};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [trace_out, metrics_out] = &args[..2] else {
        eprintln!("usage: obs_trace <trace_out> <metrics_out> [seed]");
        std::process::exit(2);
    };
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);

    let subscriber = JsonlSubscriber::to_file(Path::new(trace_out), "obs_trace")
        .expect("create trace file");
    bate_obs::trace::install(subscriber, SimClock::shared());

    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(3));
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = bate_core::TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let pairs = vec![
        tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
        tunnels.pair_index(n("DC1"), n("DC4")).unwrap(),
        tunnels.pair_index(n("DC2"), n("DC6")).unwrap(),
    ];
    let horizon = 15.0 * 60.0;
    let workload = generate(&WorkloadConfig::testbed(pairs, seed), &tunnels, horizon);
    let mut cfg = SimConfig::testbed(horizon, seed);
    cfg.admission = AdmissionStrategy::Bate;
    cfg.recovery = RecoveryPolicy::Greedy;
    let te = bate_baselines::traits::Bate;

    let report = Simulation {
        ctx,
        te: &te,
        config: cfg,
        workload: &workload,
    }
    .run();

    // Drive a seeded churn sequence through the incremental warm-start
    // scheduler so the `bate_warm_*` counter families (DESIGN.md §5e)
    // appear with nonzero, seed-deterministic values in the snapshot
    // (the wall-clock resolve latency lands in a histogram, which the
    // counter-only filter below excludes).
    let churn_ctx = bate_core::TeContext::new(&topo, &tunnels, &scenarios);
    let live_pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| !tunnels.tunnels(p).is_empty())
        .take(4)
        .collect();
    let churn_cfg = churn::ChurnConfig::steady(live_pairs, 6, 4, seed);
    let churn_report =
        churn::run(&churn_ctx, &churn::generate(&churn_cfg)).expect("churn run");

    // Drive a seeded recovery storm (DESIGN.md §6x) so the `bate_storm_*`
    // counter family also lands in the snapshot with seed-deterministic
    // values. Same region cut the golden timeline pins: all three DC1
    // uplinks severed together. Latencies stay pinned to zero
    // (`measure_time = false`) — and land in a histogram the counter-only
    // filter excludes anyway.
    let storm_tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let storm_scenarios = ScenarioSet::enumerate(&topo, 1);
    let storm_ctx = bate_core::TeContext::new(&topo, &storm_tunnels, &storm_scenarios);
    let storm_pairs: Vec<usize> = (0..storm_tunnels.num_pairs())
        .filter(|&p| !storm_tunnels.tunnels(p).is_empty())
        .take(4)
        .collect();
    let storm_cfg = storm::StormConfig::regional(
        storm_pairs,
        6,
        vec![GroupId(0), GroupId(5), GroupId(7)],
        seed,
    );
    let storm_report = storm::run(&storm_ctx, &storm_cfg).expect("storm run");

    // Flush the trace before snapshotting (uninstall flushes the writer).
    bate_obs::trace::uninstall();

    let snapshot = Registry::global()
        .snapshot_jsonl_filtered(|_, kind| kind == MetricKind::Counter);
    std::fs::write(metrics_out, snapshot).expect("write metrics snapshot");

    // --- Causal-tracing artifacts (optional outputs 4–6) ---------------
    if let (Some(e2e_out), Some(flight_out), Some(slo_out)) =
        (args.get(3), args.get(4), args.get(5))
    {
        causal_artifacts(&topo, e2e_out, flight_out, slo_out, seed);
    }

    println!(
        "seed {seed}: {} arrived, {} admitted, {} rejected; churn {} rounds ({} warm); \
         storm {} rounds (greedy retains {:.1}%) -> {trace_out} + {metrics_out}",
        report.arrived,
        report.admitted,
        report.rejected,
        churn_report.rounds.len(),
        churn_report.stats.warm_rounds,
        storm_report.rounds.len(),
        storm_report.greedy_profit_retention() * 100.0
    );
}

/// Produce the three causal-tracing artifacts. Runs under a fresh
/// [`RingBufferSubscriber`] on a pinned [`SimClock`], so every event's
/// `t_ns` and `dur_ns` are constant and the outputs are byte-identical
/// across same-seed runs.
fn causal_artifacts(
    topo: &bate_net::Topology,
    e2e_out: &str,
    flight_out: &str,
    slo_out: &str,
    seed: u64,
) {
    use bate_core::incremental::{DemandDelta, IncrementalScheduler};
    use bate_core::BaDemand;
    use bate_obs::{flight, RingBufferSubscriber, SloEngine};
    use bate_system::client::DemandRequest;
    use bate_system::{Broker, Client, Controller, ControllerConfig};
    use std::time::Duration;

    let ring = RingBufferSubscriber::new(65_536);
    bate_obs::trace::install(ring.clone(), SimClock::shared());

    // --- E2E admission: one traced flow across real sockets ----------
    // No scheduling-interval thread: every event of this section is
    // caused by the one submit, so the causal slice is closed.
    {
        let controller = Controller::start(ControllerConfig {
            topo: topo.clone(),
            routing: RoutingScheme::Ksp(3),
            max_failures: 2,
            schedule_interval: None,
            idle_timeout: Some(Duration::from_secs(30)),
        })
        .expect("controller start");
        let broker = Broker::connect(controller.addr(), "DC1").expect("broker connect");
        let mut client = Client::connect(controller.addr()).expect("client connect");

        let req = DemandRequest::new(7, "DC1", "DC3", 200.0, 0.95);
        let admitted = client.submit(&req).expect("submit");
        assert!(admitted, "seeded e2e demand must be admitted");
        assert!(
            broker.wait_for_demand(7, Duration::from_secs(5)),
            "broker must receive the install push"
        );

        let tid = bate_obs::context::trace_id("submit", 7);
        let events = ring.take();
        let slice = flight::causal_slice(&events, tid);
        flight::validate_tree(&slice).expect("e2e trace tree well-formed");
        for required in ["client.submit", "admission.pipeline", "lp.solve", "broker.install"] {
            assert!(
                slice.iter().any(|e| e.name == required),
                "e2e slice missing {required}"
            );
        }
        let mut artifact = format!(
            "{{\"e2e\":\"admission\",\"trace\":\"{}\",\"events\":{}}}\n",
            bate_obs::context::hex(tid),
            slice.len()
        );
        for e in &slice {
            artifact.push_str(&e.to_json());
            artifact.push('\n');
        }
        std::fs::write(e2e_out, artifact).expect("write e2e artifact");
    }

    // --- Forced cert-gate cold fallback: flight-recorder dump ---------
    // Fresh flight ring so the dump is a pure function of this section's
    // single-threaded (deterministic) event stream.
    flight::enable(8192);
    flight::set_dump_dir(None);
    let slo = SloEngine::new(bate_obs::slo::deterministic_specs());
    {
        let tunnels = TunnelSet::compute(topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(topo, 1);
        let ctx = bate_core::TeContext::new(topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .take(3)
            .collect();

        let _root = bate_obs::context::root("cert-demo", seed);
        let mut sched = IncrementalScheduler::new(&ctx);
        let fill: Vec<DemandDelta> = pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| DemandDelta::Add(BaDemand::single(i as u64, p, 120.0, 0.9)))
            .collect();
        sched.apply(&ctx, &fill).expect("initial fill");
        slo.record_sample(Registry::global());

        // A few warm churn rounds feed the SLO history...
        for round in 0..4u64 {
            let delta = DemandDelta::Resize {
                id: bate_core::DemandId(round % pairs.len() as u64),
                factor: 1.05,
            };
            sched.apply(&ctx, &[delta]).expect("churn round");
            slo.record_sample(Registry::global());
        }
        // ...then the gate is forced open: the next warm answer fails
        // certification, falls back cold, and trips the flight trigger
        // with this trace's id.
        sched.force_cert_failure_once();
        let delta = DemandDelta::Resize {
            id: bate_core::DemandId(0),
            factor: 1.1,
        };
        sched.apply(&ctx, &[delta]).expect("forced-fallback round");
        slo.record_sample(Registry::global());
    }
    let dumps = flight::take_dumps();
    let dump = dumps
        .iter()
        .find(|d| d.reason == "cert_cold_fallback")
        .expect("forced cert fallback must dump a flight artifact");
    flight::validate_tree(&dump.events).expect("flight dump tree well-formed");
    assert!(
        dump.events.iter().any(|e| e.name == "lp.solve"),
        "flight dump must contain the triggering solve's phase spans"
    );
    std::fs::write(flight_out, dump.render_jsonl()).expect("write flight artifact");
    flight::disable();

    // --- SLO burn-rate report (deterministic counter-ratio specs) -----
    std::fs::write(slo_out, slo.render_report()).expect("write slo report");

    bate_obs::trace::uninstall();
}
