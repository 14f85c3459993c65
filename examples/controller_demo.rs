//! The BATE system (§4) live: a controller and per-DC brokers over real
//! TCP sockets. Submits demands, fails a link, and watches the controller
//! reroute.
//!
//! ```text
//! cargo run --example controller_demo
//! ```

use bate::net::topologies;
use bate::routing::RoutingScheme;
use bate::system::client::DemandRequest;
use bate::system::{Broker, Client, Controller, ControllerConfig};
use std::time::Duration;

fn main() {
    let topo = topologies::testbed6();
    // The Online Scheduler reschedules every 2 s in this demo (the paper
    // uses minutes in production).
    let controller = Controller::start(ControllerConfig {
        topo: topologies::testbed6(),
        routing: RoutingScheme::default_ksp4(),
        max_failures: 2,
        schedule_interval: Some(Duration::from_secs(2)),
        idle_timeout: Some(Duration::from_secs(30)),
    })
    .expect("controller start");
    println!("controller listening on {}", controller.addr());

    // One broker per data center, like the paper's deployment.
    let brokers: Vec<Broker> = (1..=6)
        .map(|i| Broker::connect(controller.addr(), &format!("DC{i}")).expect("broker connect"))
        .collect();
    controller.wait_for_brokers(brokers.len(), Duration::from_secs(2));
    println!("{} brokers registered", controller.broker_count());

    let mut client = Client::connect(controller.addr()).expect("client connect");
    println!("client RTT: {:?}", client.ping().unwrap());

    // Submit BA demands with Table-1-style availability classes.
    let requests = vec![
        DemandRequest::new(1, "DC1", "DC3", 400.0, 0.9999),
        DemandRequest::new(2, "DC1", "DC4", 500.0, 0.999),
        DemandRequest::new(3, "DC2", "DC6", 700.0, 0.95),
        DemandRequest::new(4, "DC1", "DC3", 5000.0, 0.99), // oversized
    ];
    for req in &requests {
        let admitted = client.submit(req).expect("submit");
        println!(
            "demand {} ({} Mbps {}→{} @ {}%): {}",
            req.id,
            req.bandwidth,
            req.src,
            req.dst,
            req.beta * 100.0,
            if admitted { "ADMITTED" } else { "rejected" }
        );
    }

    // Brokers received the allocations.
    let dc1 = &brokers[0];
    for id in [1u64, 2] {
        dc1.wait_for_demand(id, Duration::from_secs(2));
        println!(
            "broker DC1: demand {id} installed at {:.1} Mbps over {} tunnels",
            dc1.installed_rate(id),
            dc1.entries(id).len()
        );
    }

    // Fail the direct DC1-DC4 link and watch demand 2 reroute.
    let n = |s: &str| topo.find_node(s).unwrap();
    let l8 = topo.find_link(n("DC1"), n("DC4")).unwrap();
    let group = topo.link(l8).group.index() as u32;
    println!("\n!! link DC1-DC4 (L8) fails — broker reports it");
    dc1.report_link(group, false).expect("report");
    dc1.wait_for_rate(2, Duration::from_secs(2), |r| r >= 500.0 - 1e-6);
    println!("controller rerouted demand 2:");
    for e in dc1.entries(2) {
        println!(
            "  pair {} tunnel {} at {:.1} Mbps",
            e.pair, e.tunnel, e.rate
        );
    }

    println!("\n!! link repaired");
    dc1.report_link(group, true).expect("report");
    dc1.wait_for_rate(2, Duration::from_secs(2), |r| r >= 500.0 - 1e-6);
    println!(
        "demand 2 back on its scheduled allocation at {:.1} Mbps",
        dc1.installed_rate(2)
    );
}
