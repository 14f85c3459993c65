//! Cross-crate integration: every TE algorithm against every topology,
//! plus the headline BATE-vs-baselines comparisons.

use bate::baselines::{paper_baselines, traits::Bate, TeAlgorithm};
use bate::core::{BaDemand, TeContext};
use bate::net::topologies::{self, att, b4, fiti, ibm};
use bate::net::ScenarioSet;
use bate::routing::{RoutingScheme, TunnelSet};
use bate::sim::analysis::{evaluate_te, satisfaction_fraction};

fn snapshot(tunnels: &TunnelSet, count: usize, seed: u64) -> Vec<BaDemand> {
    // Small deterministic LCG so the test needs no rand dependency wiring.
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    let betas = [0.0, 0.9, 0.95, 0.99, 0.999];
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| tunnels.tunnels(p).len() >= 2)
        .collect();
    (0..count)
        .map(|i| {
            let pair = pairs[next() % pairs.len()];
            let bw = 20.0 + (next() % 200) as f64;
            BaDemand::single(i as u64 + 1, pair, bw, betas[next() % betas.len()])
        })
        .collect()
}

/// Every algorithm produces a capacity-respecting allocation on every
/// simulation topology (Table 4).
#[test]
fn all_algorithms_respect_capacity_on_all_topologies() {
    for topo in [b4(), ibm(), att(), fiti()] {
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let demands = snapshot(&tunnels, 10, 7);
        let mut algos: Vec<Box<dyn TeAlgorithm>> = vec![Box::new(Bate)];
        algos.extend(paper_baselines());
        for algo in &algos {
            if let Ok(alloc) = algo.allocate(&ctx, &demands) {
                assert!(
                    alloc.respects_capacity(&ctx, 1e-4),
                    "{} on {}",
                    algo.name(),
                    topo.name()
                );
            }
            // BATE may legitimately return Infeasible for a random
            // snapshot; baselines never do.
            if algo.name() != "BATE" {
                assert!(
                    algo.allocate(&ctx, &demands).is_ok(),
                    "{} must be best-effort",
                    algo.name()
                );
            }
        }
    }
}

/// Headline claim (§1): under normal load BATE satisfies substantially
/// more BA demands than the baselines. Checked analytically on the
/// testbed with a BATE-admitted demand set.
#[test]
fn bate_leads_satisfaction() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 3);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);

    // Demand set that BATE's admission accepts in full.
    let all = snapshot(&tunnels, 14, 3);
    let mut admitted = Vec::new();
    let mut current = bate::core::Allocation::new();
    for d in &all {
        if let bate::core::admission::AdmissionOutcome::Admitted { allocation, .. } =
            bate::core::admission::admit(&ctx, &admitted, &current, d)
        {
            for (t, f) in allocation.flows_of(d.id) {
                current.set(d.id, t, f);
            }
            admitted.push(d.clone());
        }
    }
    assert!(admitted.len() >= 8, "admitted {}", admitted.len());

    let bate_sat = satisfaction_fraction(&evaluate_te(&ctx, &Bate, &admitted));
    assert!(
        (bate_sat - 1.0).abs() < 1e-9,
        "BATE guarantees every admitted demand: {bate_sat}"
    );
    for baseline in paper_baselines() {
        let sat = satisfaction_fraction(&evaluate_te(&ctx, baseline.as_ref(), &admitted));
        assert!(
            bate_sat >= sat - 1e-9,
            "{} ({sat}) beat BATE ({bate_sat})",
            baseline.name()
        );
    }
}

/// FFC's conservatism: on the same demand set, FFC allocates no *more*
/// usable (demand-capped) bandwidth than BATE guarantees, and satisfies
/// fewer high-availability demands (the 23–60 % gap of Fig. 13).
#[test]
fn ffc_is_conservative() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 3);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    // Moderately loaded: high-β demands that need smart placement.
    let n = |s: &str| topo.find_node(s).unwrap();
    let demands: Vec<BaDemand> = (0..6)
        .map(|i| {
            BaDemand::single(
                i + 1,
                tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
                250.0,
                0.999,
            )
        })
        .collect();
    let ffc = bate::baselines::Ffc::new(1);
    let ffc_sat = satisfaction_fraction(&evaluate_te(&ctx, &ffc, &demands));
    let bate_sat = satisfaction_fraction(&evaluate_te(&ctx, &Bate, &demands));
    assert!(
        bate_sat > ffc_sat,
        "BATE {bate_sat} must beat FFC {ffc_sat} on contended 99.9% demands"
    );
}
