//! Property-based validation of the BATE core invariants on the testbed
//! topology: Theorem 1, scheduling guarantees, pruning monotonicity, and
//! recovery bounds.

use bate_core::admission::greedy::{best_effort_allocation, conjecture_with_allocation};
use bate_core::profile::MaskedProfile;
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::scheduling::{schedule, schedule_hardened, separate_demand};
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{topologies, GroupId, Scenario, ScenarioSet};
use bate_reference::walk::relaxed_availability_walk;
use bate_routing::{RoutingScheme, TunnelSet};
use proptest::prelude::*;

fn demand_strategy(num_pairs: usize, max: usize) -> impl Strategy<Value = Vec<BaDemand>> {
    prop::collection::vec(
        (
            0usize..num_pairs,
            50.0f64..600.0,
            prop::sample::select(vec![0.0, 0.9, 0.95, 0.99, 0.999]),
            10.0f64..500.0,
            0.0f64..1.0,
        ),
        1..=max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (pair, bw, beta, price, refund))| BaDemand {
                id: DemandId(i as u64 + 1),
                bandwidth: vec![(pair, bw)],
                beta,
                price,
                refund_ratio: refund,
            })
            .collect()
    })
}

fn testbed() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
    (topo, tunnels, scenarios)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: a conjectured *yes* always has a feasible schedule whose
    /// allocation meets every availability target.
    #[test]
    fn theorem1_holds(demands in demand_strategy(30, 5)) {
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        if conjecture_with_allocation(&ctx, &demands).is_some() {
            let res = schedule_hardened(&ctx, &demands);
            prop_assert!(res.is_ok(), "conjecture admitted an unschedulable set");
            let alloc = res.unwrap().allocation;
            prop_assert!(alloc.respects_capacity(&ctx, 1e-6));
            for d in &demands {
                prop_assert!(alloc.meets_target(&ctx, d), "target missed: {d:?}");
            }
        }
    }

    /// Whenever scheduling succeeds, the result is capacity-feasible,
    /// allocates at least the demanded bandwidth, and guarantees every
    /// demand's *relaxed* availability (Eq. 4 — the criterion the paper's
    /// LP actually enforces). The hardened variant additionally repairs
    /// hard-availability violations without breaking anything else.
    #[test]
    fn scheduling_postconditions(demands in demand_strategy(30, 5)) {
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        if let Ok(res) = schedule(&ctx, &demands) {
            prop_assert!(res.allocation.respects_capacity(&ctx, 1e-6));
            let demanded: f64 = demands.iter().map(|d| d.total_bandwidth()).sum();
            prop_assert!(res.total_bandwidth >= demanded - 1e-6);
            for d in &demands {
                let relaxed = relaxed_availability_walk(&ctx, &res.allocation, d);
                prop_assert!(relaxed >= d.beta - 1e-6,
                    "relaxed availability {relaxed} < {}", d.beta);
            }
            // Hardening preserves capacity feasibility and the relaxed
            // guarantee, and never *worsens* hard satisfaction.
            let before: usize = demands
                .iter()
                .filter(|d| res.allocation.meets_target(&ctx, d))
                .count();
            let hard = schedule_hardened(&ctx, &demands).unwrap();
            prop_assert!(hard.allocation.respects_capacity(&ctx, 1e-6));
            let after: usize = demands
                .iter()
                .filter(|d| hard.allocation.meets_target(&ctx, d))
                .count();
            prop_assert!(after >= before, "hardening lost guarantees: {after} < {before}");
        }
    }

    /// Recovery invariants for an arbitrary single failure: no flow on dead
    /// links, capacity respected, profit within [refund floor, baseline],
    /// and satisfied demands really are fully delivered.
    #[test]
    fn recovery_invariants(demands in demand_strategy(30, 6), g in 0usize..8) {
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let scenario = Scenario::with_failures(&topo, &[GroupId(g % topo.num_groups())]);
        let out = greedy_recovery(&ctx, &demands, &scenario);

        let loads = out.allocation.link_loads(&ctx);
        for (l, _) in topo.links() {
            if !scenario.link_up(&topo, l) {
                prop_assert_eq!(loads[l.index()], 0.0);
            }
        }
        prop_assert!(out.allocation.respects_capacity(&ctx, 1e-6));

        let baseline: f64 = demands.iter().map(|d| d.price).sum();
        let floor: f64 = demands.iter().map(|d| (1.0 - d.refund_ratio) * d.price).sum();
        prop_assert!(out.profit <= baseline + 1e-9);
        prop_assert!(out.profit >= floor - 1e-9);

        for id in &out.satisfied {
            let d = demands.iter().find(|d| d.id == *id).unwrap();
            prop_assert!(out.allocation.satisfied_under(&ctx, d, &scenario));
        }
    }

    /// Best-effort allocation never exceeds residual capacity or the
    /// demand itself.
    #[test]
    fn best_effort_is_bounded(demands in demand_strategy(30, 4)) {
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let mut current = Allocation::new();
        for d in &demands {
            let extra = best_effort_allocation(&ctx, &current.residual_capacities(&ctx), d);
            let got: f64 = extra.flows_of(d.id).map(|(_, f)| f).sum();
            prop_assert!(got <= d.total_bandwidth() + 1e-9);
            for (t, f) in extra.flows_of(d.id) {
                current.set(d.id, t, f);
            }
            prop_assert!(current.respects_capacity(&ctx, 1e-6));
        }
    }

    /// The collapsed states are the distinct tunnel up/down patterns of the
    /// scenarios (read off `Scenario::failed` directly), in first-seen
    /// order, carrying those scenarios' mass; and the bitset separation
    /// oracle flags *exactly* the rows a brute-force walk of those
    /// patterns' qualification constraints flags, for arbitrary candidate
    /// points — same set, same order, bit-identical left-hand sides (the
    /// masked sweep consumes bits lowest-first, the same accumulation
    /// order as the tunnel-index walk).
    #[test]
    fn separation_oracle_matches_brute_force(
        bw in prop::collection::vec((0usize..30, 50.0f64..600.0), 1..=3),
        f_pool in prop::collection::vec(0.0f64..800.0, 64),
        b_pool in prop::collection::vec(0.0f64..1.0, 64),
        added_pool in prop::collection::vec(0usize..2, 64),
    ) {
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let demand = BaDemand {
            id: DemandId(1),
            bandwidth: bw,
            beta: 0.99,
            price: 0.0,
            refund_ratio: 0.0,
        };
        let masked = MaskedProfile::collapse(&ctx, &demand, &[]);
        let pairs = demand.bandwidth.len();

        // `avail[si][ki][ti]` and each state's mass, scenario by scenario.
        let mut avail: Vec<Vec<Vec<bool>>> = Vec::new();
        let mut mass: Vec<f64> = Vec::new();
        for scenario in scenarios.iter() {
            let up = |path: &bate_routing::Path| path.groups(&topo).iter().all(|&g| scenario.group_up(g));
            let pattern: Vec<Vec<bool>> = demand
                .bandwidth
                .iter()
                .map(|&(pair, _)| tunnels.tunnels(pair).iter().map(up).collect())
                .collect();
            match avail.iter().position(|p| *p == pattern) {
                Some(si) => mass[si] += scenario.probability,
                None => {
                    avail.push(pattern);
                    mass.push(scenario.probability);
                }
            }
        }
        prop_assert_eq!(masked.len(), avail.len());
        for (si, state) in masked.states.iter().enumerate() {
            prop_assert!((state.probability - mass[si]).abs() < 1e-12);
            for (ki, per_pair) in avail[si].iter().enumerate() {
                for (ti, &up) in per_pair.iter().enumerate() {
                    prop_assert_eq!(masked.avail(si, ki, ti), up, "state {} pair {} tunnel {}", si, ki, ti);
                }
            }
        }
        prop_assert!(avail[0].iter().flatten().all(|&up| up), "scenario 0 is state 0");
        prop_assert!((masked.covered_probability() - scenarios.covered_probability()).abs() < 1e-12);

        // Random candidate point and random already-added row set, drawn
        // from fixed-size pools (sizes depend on the generated demand).
        let f_vals: Vec<Vec<f64>> = demand
            .bandwidth
            .iter()
            .enumerate()
            .map(|(ki, &(pair, _))| {
                (0..tunnels.tunnels(pair).len())
                    .map(|ti| f_pool[(ki * 7 + ti) % f_pool.len()])
                    .collect()
            })
            .collect();
        let b_vals: Vec<f64> = (0..masked.len()).map(|si| b_pool[si % b_pool.len()]).collect();
        let added: Vec<bool> = (0..masked.len() * pairs)
            .map(|i| added_pool[i % added_pool.len()] != 0)
            .collect();

        let oracle = separate_demand(&demand, &masked, &f_vals, &b_vals, &added);

        let mut brute = Vec::new();
        for (si, state) in avail.iter().enumerate() {
            for (ki, &(_, b)) in demand.bandwidth.iter().enumerate() {
                if added[si * pairs + ki] {
                    continue;
                }
                let mut flow = 0.0;
                for (ti, &up) in state[ki].iter().enumerate() {
                    if up {
                        flow += f_vals[ki][ti];
                    }
                }
                if b * b_vals[si] - flow > 1e-9 * (1.0 + b.abs()) {
                    brute.push((si, ki));
                }
            }
        }
        prop_assert_eq!(oracle, brute);
    }

    /// Row generation and the full formulation agree on feasibility and
    /// (when feasible) the optimal objective, for arbitrary demand sets.
    #[test]
    fn rowgen_equals_full_on_random_demands(demands in demand_strategy(30, 4)) {
        use bate_core::scheduling::{schedule_with_capacities_mode, SolveMode};
        let (topo, tunnels, scenarios) = testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let caps = ctx.link_capacities();
        let full = schedule_with_capacities_mode(&ctx, &demands, &caps, SolveMode::Full);
        let lazy = schedule_with_capacities_mode(&ctx, &demands, &caps, SolveMode::RowGen);
        match (full, lazy) {
            (Ok(f), Ok(l)) => {
                let scale = 1.0 + f.total_bandwidth.abs().max(l.total_bandwidth.abs());
                prop_assert!(
                    (f.total_bandwidth - l.total_bandwidth).abs() <= 1e-9 * scale,
                    "objective mismatch: {} vs {}", f.total_bandwidth, l.total_bandwidth
                );
            }
            (Err(_), Err(_)) => {}
            (f, l) => {
                prop_assert!(
                    false,
                    "paths disagree on feasibility: full={:?} rowgen={:?}",
                    f.map(|r| r.total_bandwidth),
                    l.map(|r| r.total_bandwidth)
                );
            }
        }
    }

    /// Achieved availability is monotone in the scenario-set depth and
    /// always within [0, 1].
    #[test]
    fn availability_monotone_in_depth(demands in demand_strategy(30, 3)) {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let deep = ScenarioSet::enumerate(&topo, 4);
        let ctx_deep = TeContext::new(&topo, &tunnels, &deep);
        if let Ok(res) = schedule(&ctx_deep, &demands) {
            let mut prev = vec![0.0f64; demands.len()];
            for y in 1..=4 {
                let set = ScenarioSet::enumerate(&topo, y);
                let ctx = TeContext::new(&topo, &tunnels, &set);
                for (i, d) in demands.iter().enumerate() {
                    let a = res.allocation.achieved_availability(&ctx, d);
                    prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
                    prop_assert!(a >= prev[i] - 1e-12, "availability must grow with depth");
                    prev[i] = a;
                }
            }
        }
    }
}
