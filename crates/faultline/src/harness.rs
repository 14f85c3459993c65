//! End-to-end pipeline harness: a real controller, a real broker, and a
//! real client whose controller channel runs through the fault proxy.
//!
//! [`run_pipeline`] drives submit → admit → push → enforce under one
//! fault plan, then exercises a link-failure/repair cycle, and returns a
//! [`PipelineReport`] with the observed outcomes, the decision trace, and
//! any invariant violations:
//!
//! 1. **No admitted demand silently dropped** — every demand the client
//!    believes admitted is admitted at the controller and fully installed
//!    at the broker within the deadline.
//! 2. **No double-counting** — the controller's admitted count equals the
//!    number of distinct ids it recorded as admitted, retries included.
//! 3. **Bounded-time recovery** — after a link failure report the reroute
//!    converges at the broker within the deadline, and again after repair.

use crate::plan::FaultPlan;
use crate::proxy::FaultProxy;
use bate_core::clock::SystemClock;
use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::wire::Transport;
use bate_system::{Broker, Client, Controller, ControllerConfig, RetryPolicy};
use std::net::TcpStream;
use std::time::Duration;

/// How long an install/reroute may take to converge at the broker.
const CONVERGE: Duration = Duration::from_secs(3);

/// What happened to one submitted demand.
#[derive(Debug)]
pub struct SubmitOutcome {
    pub id: u64,
    pub bandwidth: f64,
    /// What the client observed: the admission verdict, or the transport
    /// error that exhausted its retries.
    pub observed: Result<bool, String>,
    /// The controller's idempotency record for the id.
    pub verdict: Option<bool>,
}

/// The result of one pipeline run under a fault plan.
#[derive(Debug)]
pub struct PipelineReport {
    pub outcomes: Vec<SubmitOutcome>,
    pub admitted_at_controller: usize,
    /// Whether the failure → reroute → repair cycle converged in time
    /// (`None` if no rerouteable demand was admitted).
    pub recovery_converged: Option<bool>,
    /// The proxy's replayable JSONL decision trace.
    pub trace: String,
    /// Human-readable invariant violations; empty means all held.
    pub violations: Vec<String>,
}

/// The standard seeded suite: 21 plans from clean through compound chaos.
/// Each seed is distinct so schedules don't correlate across plans. This
/// is the set the fault-suite tests run and whose traces are pinned as
/// goldens under `goldens/` (see `trace_golden_path`).
pub fn standard_suite() -> Vec<FaultPlan> {
    vec![
        FaultPlan::seeded(100),
        FaultPlan::seeded(101).drop(0.05),
        FaultPlan::seeded(102).drop(0.15),
        FaultPlan::seeded(103).drop(0.3),
        FaultPlan::seeded(104).delay(0.3, 10),
        FaultPlan::seeded(105).delay(0.5, 20),
        FaultPlan::seeded(106).duplicate(0.2),
        FaultPlan::seeded(107).duplicate(0.5),
        FaultPlan::seeded(108).truncate(0.1),
        FaultPlan::seeded(109).corrupt(0.1),
        FaultPlan::seeded(110).corrupt(0.3),
        FaultPlan::seeded(111).sever_after(2),
        FaultPlan::seeded(112).sever_after(5),
        FaultPlan::seeded(113).drop_first(Some(crate::plan::Direction::S2C), 1),
        FaultPlan::seeded(114).drop(0.1).delay(0.2, 10),
        FaultPlan::seeded(115).drop(0.1).duplicate(0.2),
        FaultPlan::seeded(116).drop(0.1).corrupt(0.1),
        FaultPlan::seeded(117).truncate(0.05).delay(0.3, 5),
        FaultPlan::seeded(118).drop(0.2).sever_after(6),
        FaultPlan::seeded(119).corrupt(0.05).duplicate(0.1).drop(0.05),
        FaultPlan::seeded(120).delay(0.2, 15).sever_after(8),
    ]
}

/// Where a plan's pinned golden trace lives (checked in under the crate's
/// `goldens/` directory, one JSONL file per plan seed). The controller
/// must reproduce them byte-identically, which pins its wire-visible
/// behavior: frame counts, ordering per connection, verdicts, retries.
pub fn trace_golden_path(plan: &FaultPlan) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("plan_{}.jsonl", plan.seed))
}

/// The standard workload: five admissible demands across three s-d pairs
/// plus one oversized demand that must be rejected. Ids are fixed so
/// traces are comparable across runs.
pub fn standard_demands() -> Vec<DemandRequest> {
    vec![
        DemandRequest::new(1, "DC1", "DC3", 200.0, 0.95),
        DemandRequest::new(2, "DC1", "DC4", 300.0, 0.9),
        DemandRequest::new(3, "DC2", "DC6", 150.0, 0.99),
        DemandRequest::new(4, "DC1", "DC3", 100.0, 0.9),
        DemandRequest::new(5, "DC2", "DC6", 50.0, 0.95),
        // DC1's egress cut is 3 Gbps: this can never be admitted.
        DemandRequest::new(6, "DC1", "DC3", 10_000.0, 0.5),
    ]
}

/// The retry policy the harness's client runs under: tight deadlines so
/// fault plans resolve quickly, attempts bounded so nothing hangs, jitter
/// seeded from the plan for reproducibility.
///
/// The request timeout is the one knob that couples the *trace* to host
/// speed: a timeout that fires because the machine stalled (not because
/// the plan dropped anything) adds a retry and thus extra frames. 250 ms
/// keeps spurious fires out of reach of test-suite load while still
/// resolving a genuinely dropped reply in well under a second.
pub fn harness_policy(plan: &FaultPlan) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(30),
        request_timeout: Duration::from_millis(250),
        jitter_seed: plan.seed,
    }
}

/// Run the full pipeline under `plan` with the given demands.
pub fn run_pipeline(plan: &FaultPlan, demands: &[DemandRequest]) -> PipelineReport {
    let topo = topologies::testbed6();
    let controller = Controller::start(ControllerConfig::manual(
        topo.clone(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start");

    // The broker's channel is direct: install delivery is the *oracle* the
    // invariants check against, so only the client channel is faulted.
    // (Broker-channel faults are exercised by the dedicated regression
    // tests, where reconnection itself is the subject.)
    let broker = Broker::connect(controller.addr(), "DC1").expect("broker connect");
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));

    let proxy = FaultProxy::start(controller.addr(), plan.clone()).expect("proxy start");

    let proxy_addr = proxy.addr();
    let mut client = Client::connect_with(
        Box::new(move || {
            let stream = TcpStream::connect(proxy_addr)?;
            stream.set_nodelay(true)?;
            Ok(Box::new(stream) as Box<dyn Transport>)
        }),
        SystemClock::shared(),
        harness_policy(plan),
    )
    .expect("client connect");

    // Phase 1: submit everything through the faulty channel.
    let mut outcomes = Vec::new();
    for req in demands {
        let observed = client.submit(req).map_err(|e| e.to_string());
        outcomes.push(SubmitOutcome {
            id: req.id,
            bandwidth: req.bandwidth,
            observed,
            verdict: None,
        });
    }
    for outcome in &mut outcomes {
        outcome.verdict = controller.admission_verdict(outcome.id);
    }

    // Phase 2: invariants.
    let mut violations = Vec::new();
    for outcome in &outcomes {
        match &outcome.observed {
            Ok(true) => {
                if outcome.verdict != Some(true) {
                    violations.push(format!(
                        "demand {}: client believes admitted but controller verdict is {:?} \
                         (admitted demand silently dropped)",
                        outcome.id, outcome.verdict
                    ));
                } else if !broker.wait_for_rate(outcome.id, CONVERGE, |r| {
                    r >= outcome.bandwidth - 1e-6
                }) {
                    violations.push(format!(
                        "demand {}: admitted but never fully installed at the broker \
                         ({} of {} Mbps)",
                        outcome.id,
                        broker.installed_rate(outcome.id),
                        outcome.bandwidth
                    ));
                }
            }
            Ok(false) => {
                if outcome.verdict == Some(true) {
                    violations.push(format!(
                        "demand {}: client was told rejected but the controller admitted it",
                        outcome.id
                    ));
                }
            }
            // Retries exhausted: the client doesn't know. Either terminal
            // state is consistent; the count check below still applies.
            Err(_) => {}
        }
    }
    let verdict_true = outcomes
        .iter()
        .filter(|o| o.verdict == Some(true))
        .count();
    let admitted_at_controller = controller.admitted_count();
    if admitted_at_controller != verdict_true {
        violations.push(format!(
            "controller holds {admitted_at_controller} demands but recorded \
             {verdict_true} admitted verdicts (double-count or leak)"
        ));
    }

    // Phase 3: failure → reroute → repair, if a rerouteable demand made it
    // in. Demand 2 (DC1→DC4) rides the direct L8 link by default.
    let recovery_converged = outcomes
        .iter()
        .find(|o| o.id == 2 && o.verdict == Some(true))
        .map(|o| {
            let n = |s: &str| topo.find_node(s).unwrap();
            let l8 = topo.find_link(n("DC1"), n("DC4")).unwrap();
            let group = topo.link(l8).group.index() as u32;
            if broker.report_link(group, false).is_err() {
                return false;
            }
            let tunnels =
                bate_routing::TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
            let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap() as u32;
            let rerouted = broker.wait_for_entries(2, CONVERGE, |entries| {
                let direct = entries
                    .iter()
                    .any(|e| e.pair == pair && e.tunnel == 0 && e.rate > 1e-6);
                let total: f64 = entries.iter().map(|e| e.rate).sum();
                !direct && total >= o.bandwidth - 1e-6
            });
            if broker.report_link(group, true).is_err() {
                return false;
            }
            let repaired =
                broker.wait_for_rate(2, CONVERGE, |r| r >= o.bandwidth - 1e-6);
            rerouted && repaired
        });
    if recovery_converged == Some(false) {
        violations.push("recovery did not converge within the deadline".to_string());
    }

    PipelineReport {
        outcomes,
        admitted_at_controller,
        recovery_converged,
        trace: proxy.trace_jsonl(),
        violations,
    }
}
