//! What a failing master costs the incremental scheduler, read off its
//! trace. Alone in this file: the trace subscriber is process-wide.

use bate_core::incremental::{DemandDelta, IncrementalScheduler};
use bate_core::{BaDemand, TeContext};
use bate_lp::SolveError;
use bate_net::{topologies, ScenarioSet};
use bate_routing::{RoutingScheme, TunnelSet};

/// `WarmState::solve` redoes every live error cold inside the call, so an
/// error that reaches the scheduler is already a cold verdict: it is
/// reported, not solved a second time.
#[test]
fn infeasible_master_is_solved_cold_once() {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let scenarios = ScenarioSet::enumerate(&topo, 3);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    let d1 = BaDemand::single(1, pair, 4000.0, 0.9);
    // 30 Gbps through a 20 Gbps cut — infeasible.
    let hog = BaDemand::single(2, pair, 30_000.0, 0.5);

    let mut inc = IncrementalScheduler::new(&ctx);
    inc.apply(&ctx, &[DemandDelta::Add(d1)]).unwrap();

    let ring = bate_obs::trace::RingBufferSubscriber::new(256);
    bate_obs::trace::install(ring.clone(), bate_obs::SimClock::shared());
    let verdict = {
        let _root = bate_obs::context::root("hog", 1);
        inc.apply(&ctx, &[DemandDelta::Add(hog)])
    };
    bate_obs::trace::uninstall();

    assert_eq!(verdict.unwrap_err(), SolveError::Infeasible);
    // A live attempt on the edited tableau may come first; it carries
    // `warm_start = true`.
    let is_cold = |e: &&bate_obs::Event| {
        let cold = ("warm_start", bate_obs::Value::Bool(false));
        e.name == "lp.solve" && e.fields.contains(&cold)
    };
    let cold_solves = ring.events().iter().filter(is_cold).count();
    assert_eq!(cold_solves, 1, "the failing master was solved cold more than once");
}
