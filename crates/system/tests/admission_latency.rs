//! The admission-latency histogram counts every submit. This binary holds
//! one test and so one controller: the registry is process-wide, and a
//! second controller submitting concurrently would move the same count.

use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::{Client, Controller, ControllerConfig};

/// Every submit the controller decides is one observation of
/// `bate_admission_latency_us`, the histogram the benchmark reads for its
/// admission-latency layer. A family nobody observes would silently read
/// empty, because `Registry::histogram` creates one on demand.
#[test]
fn every_submit_observes_the_admission_latency() {
    let latency = bate_obs::Registry::global().histogram("bate_admission_latency_us");
    let controller = Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start");
    let mut client = Client::connect(controller.addr()).unwrap();
    let before = latency.count();
    let n = 3;
    for id in 1..=n {
        assert!(client
            .submit(&DemandRequest::new(id, "DC2", "DC6", 50.0, 0.9))
            .unwrap());
    }
    // The loop observes a batch after flushing its verdicts; the ping is
    // answered on a later pass of the same loop.
    client.ping().unwrap();
    let risen = latency.count() - before;
    assert_eq!(risen, n, "{n} submits, {risen} latency observations");
}
