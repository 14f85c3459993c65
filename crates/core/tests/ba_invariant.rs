//! End-to-end bandwidth-availability invariant checker (DESIGN.md §5d).
//!
//! Independently of the production availability calculus
//! (`Allocation::achieved_availability` and friends), this test
//! brute-forces the pruned scenario set from first principles — tunnel
//! paths, fate groups, scenario probabilities — and verifies that for
//! every admitted demand the allocation delivers `b_d` in at least
//! `β_d` of the enumerated probability mass:
//!
//! * the plain scheduling LP guarantees the *relaxed* credit of Eq. 4
//!   (`Σ_z p_z · min_k min(1, delivered/b) ≥ β`),
//! * the hardened schedule, the admission MILP and the witness of OPT's
//!   up-set search guarantee the hard all-or-nothing form
//!   (`Σ_{z qualified} p_z ≥ β`),
//!
//! on toy4 with pruning depth y = 2 and testbed6 with y = 1. A final
//! test corrupts a passing allocation and shows the checker rejects it,
//! so a silent regression in the scheduler cannot pass by vacuity.
//!
//! The correlated family repeats the exercise with a fiber-cut SRLG over
//! toy4's two disjoint DC1→DC4 paths: the scenario probabilities are
//! audited against an in-test brute force over *all* event subsets
//! (residual per-group failures plus the SRLG, independent of
//! `SrlgSet`'s pruned enumeration), coverage is re-verified under the
//! joint distribution, the correlated model provably rejects a demand the
//! independent-marginal model admits, and a tampered joint probability is
//! caught by the audit.

use bate_core::admission::optimal::{maximize_admissions, optimal_feasible, upset_search};
use bate_core::scheduling::{harden, schedule};
use bate_core::{Allocation, BaDemand, TeContext};
use bate_net::{topologies, GroupId, Scenario, ScenarioSet, SrlgSet, Topology};
use bate_routing::{RoutingScheme, TunnelId, TunnelSet};
use std::collections::HashMap;

/// Relative slack for float LP output (mirrors the production
/// SATISFY_TOL, restated here so the checker stays independent).
const TOL: f64 = 1e-6;

/// Bandwidth reaching `pair` for demand `id` under `scenario`, computed
/// from raw tunnel paths and fate groups only.
fn delivered_brute(
    ctx: &TeContext,
    alloc: &Allocation,
    id: bate_core::DemandId,
    pair: usize,
    scenario: &Scenario,
) -> f64 {
    let num_tunnels = ctx.tunnels.tunnels(pair).len();
    (0..num_tunnels)
        .map(|ti| {
            let t = TunnelId { pair, tunnel: ti };
            let f = alloc.get(id, t);
            if f == 0.0 {
                return 0.0;
            }
            let all_up = ctx
                .tunnels
                .path(t)
                .links
                .iter()
                .all(|&l| scenario.group_up(ctx.topo.link(l).group));
            if all_up {
                f
            } else {
                0.0
            }
        })
        .sum()
}

/// Probability mass of enumerated scenarios in which *every* pair of the
/// demand receives its full `b_d` (hard, all-or-nothing qualification).
fn hard_coverage(ctx: &TeContext, alloc: &Allocation, demand: &BaDemand) -> f64 {
    ctx.scenarios
        .iter()
        .filter(|z| {
            demand.bandwidth.iter().all(|&(pair, b)| {
                delivered_brute(ctx, alloc, demand.id, pair, z) >= b * (1.0 - TOL)
            })
        })
        .map(|z| z.probability)
        .sum()
}

/// Eq. 4's relaxed credit: scenarios earn `min_k min(1, delivered/b)`.
fn relaxed_coverage(ctx: &TeContext, alloc: &Allocation, demand: &BaDemand) -> f64 {
    ctx.scenarios
        .iter()
        .map(|z| {
            let credit = demand
                .bandwidth
                .iter()
                .map(|&(pair, b)| (delivered_brute(ctx, alloc, demand.id, pair, z) / b).min(1.0))
                .fold(1.0f64, f64::min);
            z.probability * credit.max(0.0)
        })
        .sum()
}

/// Independent capacity audit: per-link loads recomputed from paths.
fn respects_capacity_brute(ctx: &TeContext, alloc: &Allocation, demands: &[BaDemand]) -> bool {
    let mut loads = vec![0.0f64; ctx.topo.num_links()];
    for d in demands {
        for &(pair, _) in &d.bandwidth {
            for ti in 0..ctx.tunnels.tunnels(pair).len() {
                let t = TunnelId { pair, tunnel: ti };
                let f = alloc.get(d.id, t);
                for &l in &ctx.tunnels.path(t).links {
                    loads[l.index()] += f;
                }
            }
        }
    }
    ctx.topo
        .links()
        .all(|(l, def)| loads[l.index()] <= def.capacity * (1.0 + TOL) + TOL)
}

fn toy4_setup() -> (Topology, TunnelSet, ScenarioSet) {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    (topo, tunnels, scenarios)
}

fn toy4_demands(topo: &Topology, tunnels: &TunnelSet) -> Vec<BaDemand> {
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    vec![
        BaDemand::single(1, pair, 6000.0, 0.99),
        BaDemand::single(2, pair, 12_000.0, 0.90),
    ]
}

#[test]
fn toy4_schedule_meets_ba_targets_depth2() {
    let (topo, tunnels, scenarios) = toy4_setup();
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let demands = toy4_demands(&topo, &tunnels);

    // The LP alone guarantees the relaxed form for every demand.
    let lp = schedule(&ctx, &demands).unwrap();
    assert!(respects_capacity_brute(&ctx, &lp.allocation, &demands));
    for d in &demands {
        let cov = relaxed_coverage(&ctx, &lp.allocation, d);
        assert!(
            cov >= d.beta - TOL,
            "demand {} relaxed coverage {cov} < β {}",
            d.id.0,
            d.beta
        );
    }

    // Hardening upgrades the motivating example to the hard form.
    let mut hardened = lp;
    let violations = harden(&ctx, &demands, &mut hardened);
    assert_eq!(violations, 0, "motivating example must harden cleanly");
    assert!(respects_capacity_brute(&ctx, &hardened.allocation, &demands));
    for d in &demands {
        let cov = hard_coverage(&ctx, &hardened.allocation, d);
        assert!(
            cov >= d.beta - TOL,
            "demand {} hard coverage {cov} < β {}",
            d.id.0,
            d.beta
        );
    }
}

#[test]
fn testbed6_admitted_demands_are_covered_depth1() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(3));
    let scenarios = ScenarioSet::enumerate(&topo, 1);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let p13 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
    let p12 = tunnels.pair_index(n("DC1"), n("DC2")).unwrap();
    let demands = vec![
        BaDemand::single(1, p13, 500.0, 0.99),
        BaDemand::single(2, p13, 400.0, 0.95),
        BaDemand::single(3, p12, 300.0, 0.99),
        // Deliberately unservable: forces a rejection so the invariant
        // is exercised on a strict subset, not vacuously on everyone.
        BaDemand::single(4, p13, 1e7, 0.999),
    ];

    let res = maximize_admissions(&ctx, &demands).unwrap();
    assert!(
        !res.accepted[3],
        "the 10 Tbps demand cannot be admitted on testbed6"
    );
    let admitted: Vec<&BaDemand> = demands
        .iter()
        .zip(&res.accepted)
        .filter(|(_, &a)| a)
        .map(|(d, _)| d)
        .collect();
    assert!(!admitted.is_empty(), "some demand must be admissible");

    assert!(respects_capacity_brute(&ctx, &res.allocation, &demands));
    for d in admitted {
        let cov = hard_coverage(&ctx, &res.allocation, d);
        assert!(
            cov >= d.beta - TOL,
            "admitted demand {} hard coverage {cov} < β {}",
            d.id.0,
            d.beta
        );
    }
}

#[test]
fn upset_search_witnesses_are_covered() {
    // Seeded pools of 3–6 single-pair demands on toy4 (y = 2) and
    // testbed6 (y = 1), sized so that about half are feasible: every
    // accept's witness must fit the links and give every demand its hard
    // coverage under the brute-force walk.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(25);
    let mut accepts = 0;
    for (topo, y) in [(topologies::toy4(), 2), (topologies::testbed6(), 1)] {
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, y);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .collect();
        let caps = ctx.link_capacities();
        let mean_cap = caps.iter().sum::<f64>() / caps.len() as f64;
        for pool in 0..30 {
            let demands: Vec<BaDemand> = (0..rng.gen_range(3..=6u64))
                .map(|i| {
                    let pair = pairs[rng.gen_range(0..pairs.len())];
                    let beta = [0.0, 0.9, 0.99, 0.999][rng.gen_range(0..4usize)];
                    BaDemand::single(i + 1, pair, rng.gen_range(0.1..0.8) * mean_cap, beta)
                })
                .collect();
            let Some(w) = upset_search(&ctx, &demands).unwrap().witness else {
                continue;
            };
            accepts += 1;
            let tag = format!("{} pool {pool}", topo.name());
            assert!(respects_capacity_brute(&ctx, &w, &demands), "{tag}");
            for d in &demands {
                let cov = hard_coverage(&ctx, &w, d);
                assert!(cov >= d.beta - TOL, "{tag}: demand {} covers {cov}", d.id.0);
            }
        }
    }
    assert!(accepts >= 20, "{accepts} accepts");
}

/// The correlated event model of toy4 plus one fiber-cut SRLG over the
/// two low-failure links (e2, e4 — one per disjoint DC1→DC4 path),
/// restated from first principles: each fate group fails on its own with
/// the topology's probability, and the conduit cut takes both paths down
/// together with probability `q`.
fn toy4_fiber_cut_events(topo: &Topology, q: f64) -> Vec<(f64, Vec<usize>)> {
    let mut events: Vec<(f64, Vec<usize>)> = topo
        .groups()
        .map(|(g, def)| (def.failure_prob, vec![g.0]))
        .collect();
    events.push((q, vec![1, 3]));
    events
}

/// Exact probability mass of every down-set, brute-forced over all 2^n
/// independent-event subsets (the ground truth the pruned correlated
/// enumeration must never exceed).
fn brute_down_masses(events: &[(f64, Vec<usize>)]) -> HashMap<Vec<usize>, f64> {
    let n = events.len();
    assert!(n <= 16, "brute force is 2^n");
    let mut masses: HashMap<Vec<usize>, f64> = HashMap::new();
    for mask in 0u32..(1 << n) {
        let mut p = 1.0;
        let mut down: Vec<usize> = Vec::new();
        for (i, (q, cover)) in events.iter().enumerate() {
            if mask & (1 << i) != 0 {
                p *= q;
                for &g in cover {
                    if !down.contains(&g) {
                        down.push(g);
                    }
                }
            } else {
                p *= 1.0 - q;
            }
        }
        down.sort_unstable();
        *masses.entry(down).or_insert(0.0) += p;
    }
    masses
}

/// Audit a scenario set's joint probabilities against the exact masses:
/// no scenario may claim more than its state's true mass (pruning only
/// ever under-counts), and enumerated + residual mass must be exactly 1.
fn audit_joint_probabilities(
    scenarios: &ScenarioSet,
    exact: &HashMap<Vec<usize>, f64>,
) -> Result<(), String> {
    let mut total = 0.0;
    for z in scenarios.iter() {
        let key: Vec<usize> = z.failed.iter().collect();
        let mass = exact.get(&key).copied().unwrap_or(0.0);
        if z.probability > mass + 1e-9 {
            return Err(format!(
                "scenario {key:?} claims probability {} > exact mass {mass}",
                z.probability
            ));
        }
        total += z.probability;
    }
    if (total + scenarios.residual_probability - 1.0).abs() > 1e-9 {
        return Err(format!(
            "mass not conserved: covered {total} + residual {} != 1",
            scenarios.residual_probability
        ));
    }
    Ok(())
}

fn toy4_correlated_setup(q: f64) -> (Topology, TunnelSet, ScenarioSet) {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let mut srlgs = SrlgSet::new(&topo);
    srlgs.add("fiber-cut", q, &[GroupId(1), GroupId(3)]);
    let scenarios = srlgs.enumerate(&topo, 2);
    (topo, tunnels, scenarios)
}

#[test]
fn toy4_correlated_fiber_cut_meets_ba_targets_depth2() {
    let (topo, tunnels, scenarios) = toy4_correlated_setup(0.02);
    audit_joint_probabilities(&scenarios, &brute_down_masses(&toy4_fiber_cut_events(&topo, 0.02)))
        .expect("genuine correlated enumeration must pass the audit");

    // The SRLG scenario (both paths down, mass ≈ 2%) is enumerated and
    // never qualified, so targets must sit below ~98% here; under
    // independence the same β-values from `toy4_demands` would clear.
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    let demands = vec![
        BaDemand::single(1, pair, 6000.0, 0.95),
        BaDemand::single(2, pair, 12_000.0, 0.90),
    ];

    let lp = schedule(&ctx, &demands).unwrap();
    assert!(respects_capacity_brute(&ctx, &lp.allocation, &demands));
    for d in &demands {
        let cov = relaxed_coverage(&ctx, &lp.allocation, d);
        assert!(
            cov >= d.beta - TOL,
            "demand {} correlated relaxed coverage {cov} < β {}",
            d.id.0,
            d.beta
        );
    }

    let mut hardened = lp;
    let violations = harden(&ctx, &demands, &mut hardened);
    assert_eq!(violations, 0, "correlated toy4 must harden cleanly");
    assert!(respects_capacity_brute(&ctx, &hardened.allocation, &demands));
    for d in &demands {
        let cov = hard_coverage(&ctx, &hardened.allocation, d);
        assert!(
            cov >= d.beta - TOL,
            "demand {} correlated hard coverage {cov} < β {}",
            d.id.0,
            d.beta
        );
        // The joint model really bites: the fiber cut caps achievable
        // coverage strictly below what per-link independence promises.
        assert!(
            cov < 1.0 - 0.015,
            "demand {} coverage {cov} ignores the 2% fiber cut",
            d.id.0
        );
    }
}

#[test]
fn correlated_model_rejects_what_independent_marginals_admit() {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let mut srlgs = SrlgSet::new(&topo);
    srlgs.add("fiber-cut", 0.01, &[GroupId(1), GroupId(3)]);

    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    // Small enough to ride either path alone; β = 99.9% is exactly the
    // kind of target two "independent" 1% paths appear to clear.
    let probe = vec![BaDemand::single(7, pair, 1000.0, 0.999)];

    // Correlation-blind observer: same marginal failure rates, no joint
    // structure. Admission accepts.
    let marginal = srlgs.marginal_topology(&topo);
    let indep = ScenarioSet::enumerate(&marginal, 2);
    let ctx_indep = TeContext::new(&marginal, &tunnels, &indep);
    assert!(
        optimal_feasible(&ctx_indep, &probe).unwrap(),
        "independent marginals must admit the 99.9% demand"
    );

    // Joint model: the conduit takes both paths down together with mass
    // ≈ 1% > 0.1%, so no allocation can reach β. Admission rejects.
    let corr = srlgs.enumerate(&topo, 2);
    let ctx_corr = TeContext::new(&topo, &tunnels, &corr);
    assert!(
        !optimal_feasible(&ctx_corr, &probe).unwrap(),
        "the correlated model must reject what independence admits"
    );
}

#[test]
fn corrupted_joint_probability_fails_the_audit() {
    let (topo, tunnels, scenarios) = toy4_correlated_setup(0.01);
    let exact = brute_down_masses(&toy4_fiber_cut_events(&topo, 0.01));
    audit_joint_probabilities(&scenarios, &exact).expect("genuine set passes");

    // Launder the fiber-cut mass back into the all-up scenario — the
    // classic way to make an unservable 99.9% demand look coverable.
    let mut corrupted = scenarios.clone();
    assert!(corrupted.scenarios[0].failed.is_empty());
    corrupted.scenarios[0].probability += 0.01;

    let err = audit_joint_probabilities(&corrupted, &exact)
        .expect_err("inflated all-up probability must fail the audit");
    assert!(err.contains("claims probability"), "unexpected audit error: {err}");

    // The tamper is not cosmetic: under the corrupted probabilities a
    // hardened allocation appears to clear a β the true joint
    // distribution cannot reach.
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    let demands = vec![BaDemand::single(1, pair, 1000.0, 0.95)];
    let mut result = schedule(&ctx, &demands).unwrap();
    assert_eq!(harden(&ctx, &demands, &mut result), 0);

    let honest = hard_coverage(&ctx, &result.allocation, &demands[0]);
    let ctx_bad = TeContext::new(&topo, &tunnels, &corrupted);
    let laundered = hard_coverage(&ctx_bad, &result.allocation, &demands[0]);
    assert!(
        laundered > honest + 0.008,
        "tamper should inflate coverage: honest {honest}, laundered {laundered}"
    );
    let beta_star = honest + 0.005;
    assert!(honest < beta_star && laundered >= beta_star);
}

#[test]
fn corrupted_allocation_fails_the_checker() {
    let (topo, tunnels, scenarios) = toy4_setup();
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let demands = toy4_demands(&topo, &tunnels);

    let mut result = schedule(&ctx, &demands).unwrap();
    let violations = harden(&ctx, &demands, &mut result);
    assert_eq!(violations, 0);
    let victim = &demands[0];
    assert!(hard_coverage(&ctx, &result.allocation, victim) >= victim.beta - TOL);

    // Halve the victim's flows: every scenario now under-delivers, so
    // both the hard and the relaxed form must detect the shortfall.
    let mut corrupted = result.allocation.clone();
    let flows: Vec<(TunnelId, f64)> = corrupted.flows_of(victim.id).collect();
    assert!(!flows.is_empty());
    for (t, f) in flows {
        corrupted.set(victim.id, t, f * 0.5);
    }
    assert!(
        hard_coverage(&ctx, &corrupted, victim) < victim.beta - TOL,
        "checker failed to flag a corrupted allocation (hard form)"
    );
    assert!(
        relaxed_coverage(&ctx, &corrupted, victim) < victim.beta - TOL,
        "checker failed to flag a corrupted allocation (relaxed form)"
    );
}
