//! End-to-end control-plane tests over real TCP sockets: submit → admit →
//! push → enforce → fail → recover.
//!
//! Deflaked: no blind wall-clock sleeps. Registration is awaited with
//! [`Controller::wait_for_brokers`], installs with the broker's
//! condvar-notified `wait_for_*` helpers, and every listener binds an
//! ephemeral port.

use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::{Broker, Client, Controller, ControllerConfig};
use std::time::Duration;

fn start_controller() -> Controller {
    Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start")
}

#[test]
fn submit_admit_and_install() {
    let controller = start_controller();
    let broker = Broker::connect(controller.addr(), "DC1").unwrap();
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));

    let mut client = Client::connect(controller.addr()).unwrap();
    let req = DemandRequest::new(1, "DC1", "DC3", 200.0, 0.95);
    assert!(client.submit(&req).unwrap(), "200 Mbps @ 95% must fit");
    assert_eq!(controller.admitted_count(), 1);

    // The broker receives the allocation and programs its enforcer.
    assert!(broker.wait_for_demand(1, Duration::from_secs(2)));
    let rate = broker.installed_rate(1);
    assert!(rate >= 200.0 - 1e-6, "installed rate {rate}");
    assert!(broker.enforcer().demand_rate(1) >= 200.0 - 1e-6);
}

#[test]
fn rejection_of_oversized_demand() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    // DC1's egress cut is 3 Gbps; 10 Gbps can never fit.
    let req = DemandRequest::new(1, "DC1", "DC3", 10_000.0, 0.5);
    assert!(!client.submit(&req).unwrap());
    assert_eq!(controller.admitted_count(), 0);
    // Unknown node names are rejected, not crashed on.
    let bad = DemandRequest::new(2, "DC1", "Nowhere", 10.0, 0.5);
    assert!(!client.submit(&bad).unwrap());
}

/// A resubmitted id is an idempotent replay, not a refusal: the retried
/// SubmitDemand gets the original verdict and the demand is counted once.
#[test]
fn duplicate_ids_replay_the_original_verdict() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    let req = DemandRequest::new(7, "DC1", "DC4", 100.0, 0.9);
    assert!(client.submit(&req).unwrap());
    assert!(
        client.submit(&req).unwrap(),
        "a retried submit must replay the admitted verdict"
    );
    assert_eq!(controller.admitted_count(), 1, "never double-counted");

    // Same id with *different* content is an id collision, not a retry.
    let collision = DemandRequest::new(7, "DC1", "DC4", 250.0, 0.9);
    assert!(!client.submit(&collision).unwrap());
    assert_eq!(controller.admitted_count(), 1);
}

#[test]
fn withdraw_frees_capacity() {
    let controller = start_controller();
    let broker = Broker::connect(controller.addr(), "DC1").unwrap();
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));
    let mut client = Client::connect(controller.addr()).unwrap();

    // The DC3-ingress cut (L2 + L3) caps DC1→DC3 at 2000 Mbps. Fill most
    // of it, check a second large demand is rejected, then withdraw the
    // first and watch the second fit.
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 1200.0, 0.0))
        .unwrap());
    assert!(broker.wait_for_demand(1, Duration::from_secs(2)));
    assert!(!client
        .submit(&DemandRequest::new(2, "DC1", "DC3", 1200.0, 0.0))
        .unwrap());
    // Withdraw is acknowledged, and idempotent under retries.
    client.withdraw(1).unwrap();
    client.withdraw(1).unwrap();
    assert!(broker.wait_for_rate(1, Duration::from_secs(2), |r| r == 0.0));
    assert!(client
        .submit(&DemandRequest::new(2, "DC1", "DC3", 1200.0, 0.0))
        .unwrap());
    // A stale resubmit of the withdrawn id must not resurrect it.
    assert!(!client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 1200.0, 0.0))
        .unwrap());
    assert_eq!(controller.admitted_count(), 1);
}

#[test]
fn link_failure_triggers_reroute() {
    let controller = start_controller();
    let broker = Broker::connect(controller.addr(), "DC1").unwrap();
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));
    let mut client = Client::connect(controller.addr()).unwrap();

    // A demand on DC1→DC4 whose shortest tunnel is the direct L8 link.
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC4", 500.0, 0.9))
        .unwrap());
    assert!(broker.wait_for_demand(1, Duration::from_secs(2)));

    // Find the fate group of the direct DC1-DC4 link and fail it.
    let topo = topologies::testbed6();
    let n = |s: &str| topo.find_node(s).unwrap();
    let l8 = topo.find_link(n("DC1"), n("DC4")).unwrap();
    let group = topo.link(l8).group.index() as u32;
    broker.report_link(group, false).unwrap();

    // The controller reroutes: a full-rate allocation arrives that does not
    // use the failed direct tunnel. The direct path is tunnel 0 of the
    // pair (it is the unique 1-hop path, so KSP puts it first).
    let tunnels = bate_routing::TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap() as u32;
    let ok = broker.wait_for_entries(1, Duration::from_secs(2), |entries| {
        let uses_direct = entries
            .iter()
            .any(|e| e.pair == pair && e.tunnel == 0 && e.rate > 1e-6);
        let total: f64 = entries.iter().map(|e| e.rate).sum();
        !uses_direct && total >= 500.0 - 1e-6
    });
    assert!(ok, "reroute must avoid the failed direct tunnel");

    // Repair: the controller reschedules and the demand stays whole.
    broker.report_link(group, true).unwrap();
    assert!(broker.wait_for_rate(1, Duration::from_secs(2), |r| r >= 500.0 - 1e-6));
}

/// The `StatsQuery` RPC (what `batectl stats` prints): the controller
/// returns its registry as Prometheus text exposition, with the solver,
/// admission, and wire metric families present and parseable.
#[test]
fn stats_query_returns_prometheus_exposition() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    // Drive at least one admission + solve so the families exist.
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 200.0, 0.95))
        .unwrap());

    let text = client.stats().unwrap();
    for family in [
        "bate_solver_solves_total",
        "bate_admission_checks_total",
        "bate_wire_frames_received_total",
        "bate_ctrl_submits_total",
    ] {
        assert!(text.contains(family), "missing family {family} in:\n{text}");
    }
    // Parseable: every non-comment line is `name[{labels}] value` with a
    // numeric value; TYPE comments name a known metric kind and are
    // immediately preceded by the family's HELP comment.
    let mut last_help: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(!name.is_empty(), "HELP line without a metric name: {line}");
            last_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE line: {line}"
            );
            assert_eq!(
                last_help.as_deref(),
                Some(name),
                "TYPE line not preceded by its HELP line: {line}"
            );
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in line: {line}"
        );
    }

    // The idempotent-replay counter is fed by the retry path.
    let req = DemandRequest::new(1, "DC1", "DC3", 200.0, 0.95);
    assert!(client.submit(&req).unwrap());
    let text = client.stats().unwrap();
    assert!(
        text.contains("bate_ctrl_idempotent_replay_hits_total"),
        "replay hit family missing after a resubmit:\n{text}"
    );
}

// The `*_families_render_at_zero` snapshot-golden tests live in
// `tests/stats_goldens.rs`: they assert exact zero renderings from the
// process-global registry, so they need a test binary where no other
// test (e.g. a multi-client run whose batch triggers a warm solve) can
// bump those counters first.

#[test]
fn ping_roundtrip() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    let rtt = client.ping().unwrap();
    assert!(rtt < Duration::from_secs(1));
}

#[test]
fn many_clients_concurrently() {
    let controller = start_controller();
    let addr = controller.addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let req = DemandRequest::new(100 + i, "DC2", "DC6", 50.0, 0.9);
                client.submit(&req).unwrap()
            })
        })
        .collect();
    let admitted = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&a| a)
        .count();
    // 8 × 50 Mbps easily fits DC2→DC6.
    assert_eq!(admitted, 8);
    assert_eq!(controller.admitted_count(), 8);
}

#[test]
fn periodic_scheduler_keeps_allocations_fresh() {
    let controller = Controller::start(ControllerConfig {
        topo: topologies::testbed6(),
        routing: RoutingScheme::default_ksp4(),
        max_failures: 2,
        schedule_interval: Some(Duration::from_millis(40)),
        idle_timeout: Some(Duration::from_secs(30)),
    })
    .unwrap();
    let broker = Broker::connect(controller.addr(), "DC1").unwrap();
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));
    let mut client = Client::connect(controller.addr()).unwrap();
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 300.0, 0.99))
        .unwrap());
    // The demand must be (and stay) fully allocated across automatic
    // rounds, which re-push allocations to the broker.
    assert!(broker.wait_for_rate(1, Duration::from_secs(2), |r| r >= 300.0 - 1e-6));
    // Wait until at least one automatic round has re-pushed (the install
    // arrives again) — condvar-notified, no blind sleep: the wait returns
    // as soon as a fresh install lands at full rate.
    assert!(broker.wait_for_rate(1, Duration::from_secs(2), |r| r >= 300.0 - 1e-6));
    assert_eq!(controller.admitted_count(), 1);
}

/// The `admission_p99_ms` SLO reads the histogram the controller
/// observes per demand. A spec naming a family nobody observes would
/// silently read empty, because `Registry::histogram` creates one on
/// demand.
#[test]
fn controller_feeds_the_admission_slo() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    for id in 1..=3 {
        assert!(client
            .submit(&DemandRequest::new(id, "DC2", "DC6", 50.0, 0.9))
            .unwrap());
    }
    let engine = bate_obs::SloEngine::global();
    engine.record_sample(bate_obs::Registry::global());
    let status = engine
        .evaluate()
        .into_iter()
        .find(|s| s.name == "admission_p99_ms")
        .expect("admission_p99_ms is a standard spec");
    assert!(status.current > 0.0, "admission p99 read empty: {status:?}");
}
