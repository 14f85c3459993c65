//! Cross-crate integration: the full BATE pipeline from topology to
//! recovery, exercised through the facade crate.

use bate::core::recovery::backup::BackupPlan;
use bate::core::recovery::greedy::greedy_recovery;
use bate::core::{admission, scheduling, Allocation, BaDemand, TeContext};
use bate::net::{topologies, Scenario, ScenarioSet};
use bate::routing::{RoutingScheme, TunnelSet};

/// Admit a stream of demands, schedule, fail the worst link, recover, and
/// verify every invariant along the way.
#[test]
fn full_lifecycle() {
    // 1. Network + tunnels + scenarios.
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();

    // 2. Admission of a demand stream.
    let requests: Vec<BaDemand> = vec![
        BaDemand {
            refund_ratio: 0.25,
            ..BaDemand::single(
                1,
                tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
                400.0,
                0.999,
            )
        },
        BaDemand {
            refund_ratio: 0.10,
            ..BaDemand::single(
                2,
                tunnels.pair_index(n("DC1"), n("DC4")).unwrap(),
                300.0,
                0.99,
            )
        },
        BaDemand {
            refund_ratio: 0.10,
            ..BaDemand::single(
                3,
                tunnels.pair_index(n("DC2"), n("DC6")).unwrap(),
                500.0,
                0.95,
            )
        },
        BaDemand {
            refund_ratio: 0.25,
            ..BaDemand::single(
                4,
                tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
                350.0,
                0.99,
            )
        },
    ];
    let mut admitted = Vec::new();
    let mut current = Allocation::new();
    for d in requests {
        if let admission::AdmissionOutcome::Admitted { allocation, .. } =
            admission::admit(&ctx, &admitted, &current, &d)
        {
            for (t, f) in allocation.flows_of(d.id) {
                current.set(d.id, t, f);
            }
            admitted.push(d);
        }
    }
    assert!(admitted.len() >= 3, "most demands fit: {}", admitted.len());

    // 3. Scheduling: targets met, capacity respected, bandwidth minimal.
    let result = scheduling::schedule(&ctx, &admitted).expect("schedulable");
    let alloc = &result.allocation;
    assert!(alloc.respects_capacity(&ctx, 1e-6));
    for d in &admitted {
        assert!(alloc.meets_target(&ctx, d), "target missed for {:?}", d.id);
    }
    let demanded: f64 = admitted.iter().map(|d| d.total_bandwidth()).sum();
    assert!(result.total_bandwidth >= demanded - 1e-6);

    // 4. Backup precomputation covers every fate group.
    let plan = BackupPlan::compute(&ctx, &admitted);
    assert_eq!(plan.len(), topo.num_groups());

    // 5. An actual failure of the riskiest link (L4).
    let l4 = topo.find_link(n("DC4"), n("DC5")).unwrap();
    let scenario = Scenario::with_failures(&topo, &[topo.link(l4).group]);
    let recovery = greedy_recovery(&ctx, &admitted, &scenario);
    // Nothing may ride the dead link, and profit accounting is sane.
    let loads = recovery.allocation.link_loads(&ctx);
    for &l in &topo.group(topo.link(l4).group).links {
        assert_eq!(loads[l.index()], 0.0);
    }
    let baseline: f64 = admitted.iter().map(|d| d.price).sum();
    assert!(recovery.profit <= baseline + 1e-9);
    assert!(recovery.profit > 0.0);

    // The precomputed plan for L4 gives the same outcome (it was computed
    // by the same algorithm over the same state).
    let planned = plan.lookup(&[topo.link(l4).group]).unwrap();
    assert_eq!(planned.satisfied.len(), recovery.satisfied.len());
}

/// The pruning knob: deeper enumeration covers more probability, never
/// *increases* the scheduled bandwidth, and never breaks guarantees.
#[test]
fn pruning_depth_tradeoff() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let n = |s: &str| topo.find_node(s).unwrap();
    let d = BaDemand::single(
        1,
        tunnels.pair_index(n("DC1"), n("DC4")).unwrap(),
        800.0,
        0.999,
    );

    let mut prev_bw = f64::INFINITY;
    let mut prev_cover = 0.0;
    for y in 1..=4 {
        let scenarios = ScenarioSet::enumerate(&topo, y);
        assert!(scenarios.covered_probability() >= prev_cover);
        prev_cover = scenarios.covered_probability();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let res = scheduling::schedule(&ctx, std::slice::from_ref(&d)).expect("feasible at all depths");
        assert!(res.total_bandwidth <= prev_bw + 1e-6, "y={y}");
        prev_bw = res.total_bandwidth;
        assert!(res.allocation.meets_target(&ctx, &d));
    }
}

/// Multi-pair demands work end to end (the b_d vector of §3.1).
#[test]
fn multi_pair_demand() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let d = BaDemand {
        id: bate::core::DemandId(1),
        bandwidth: vec![
            (tunnels.pair_index(n("DC1"), n("DC3")).unwrap(), 300.0),
            (tunnels.pair_index(n("DC2"), n("DC5")).unwrap(), 200.0),
        ],
        beta: 0.99,
        price: 500.0,
        refund_ratio: 0.1,
    };
    let res = scheduling::schedule(&ctx, std::slice::from_ref(&d)).expect("feasible");
    assert!(res.allocation.meets_target(&ctx, &d));
    // A scenario killing one pair's only used tunnels must disqualify the
    // whole demand (availability is per-demand, not per-pair).
    let achieved = res.allocation.achieved_availability(&ctx, &d);
    assert!((0.99..=1.0).contains(&achieved));
}
