//! Differential test of the scenario sweeps (DESIGN.md §5).
//!
//! `MaskedProfile::collapse` and `Allocation::achieved_availability` answer
//! from bitset algebra over `ScenarioSet::partition`; their definitions are
//! scenario-by-scenario walks, kept in `bate_bench::fuzz` as the oracle.
//! The two must agree **bit for bit** — every state probability is an LP
//! coefficient and every availability decides an install, so "close" would
//! move pivots and goldens. Each case is a seeded demand and allocation
//! over one scenario set; a failure prints `family:seed` (the family is the
//! scenario set), which reproduces it. `FUZZ_BUDGET` sets the cases per
//! family, as for the campaign in `fuzz_campaign.rs`.

use bate_bench::fuzz::{achieved_availability_walk, collapse_walk, fuzz_budget, NetFixture};
use bate_core::profile::{DemandProfile, MaskedProfile};
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{topologies, ScenarioSet, SrlgSet};
use bate_routing::{RoutingScheme, TunnelId, TunnelSet};
use rand::{Rng, SeedableRng, StdRng};

/// Independent sets at every pruning depth in use, and correlated sets
/// whose events take several fate groups down at once.
fn families() -> Vec<(String, NetFixture)> {
    let mut out = Vec::new();
    let topos = [
        (topologies::toy4(), 3),
        (topologies::testbed6(), 3),
        (topologies::b4(), 3),
        (topologies::att(), 2),
    ];
    for (topo, max_depth) in topos {
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let mut push = |tag: String, scenarios: ScenarioSet| {
            let fix = NetFixture {
                topo: topo.clone(),
                tunnels: tunnels.clone(),
                scenarios,
            };
            out.push((format!("{}/{tag}", topo.name()), fix));
        };
        for y in 1..=max_depth {
            push(format!("y{y}"), ScenarioSet::enumerate(&topo, y));
        }
        push(
            "srlg".into(),
            SrlgSet::generate(&topo, 11).enumerate(&topo, 2),
        );
    }
    out
}

/// One to three requested pairs — sometimes the same pair twice, sometimes
/// none at all.
fn demand(rng: &mut StdRng, fix: &NetFixture) -> BaDemand {
    let routable: Vec<usize> = (0..fix.tunnels.num_pairs())
        .filter(|&p| !fix.tunnels.tunnels(p).is_empty())
        .collect();
    let pick = |rng: &mut StdRng| routable[rng.gen_range(0..routable.len())];
    let mut bandwidth = Vec::new();
    match rng.gen_range(0..8) {
        0 => {}
        1 => {
            let pair = pick(rng);
            bandwidth.push((pair, rng.gen_range(10.0..50.0)));
            bandwidth.push((pair, rng.gen_range(10.0..50.0)));
        }
        2..=4 => bandwidth.push((pick(rng), rng.gen_range(10.0..50.0))),
        _ => {
            let pairs = rng.gen_range(2..=3);
            while bandwidth.len() < pairs {
                let pair = pick(rng);
                if bandwidth.iter().all(|&(p, _)| p != pair) {
                    bandwidth.push((pair, rng.gen_range(10.0..50.0)));
                }
            }
        }
    }
    BaDemand {
        id: DemandId(7),
        bandwidth,
        beta: 0.99,
        price: 1.0,
        refund_ratio: 0.1,
    }
}

/// Flows for `demand`, pair by pair: none, the full rate on one tunnel,
/// the full rate on two, an even split over all tunnels or over a strict
/// subset, and a single flow exactly at or a hair under `b·(1 − 1e-6)`.
fn allocation(rng: &mut StdRng, fix: &NetFixture, demand: &BaDemand) -> Allocation {
    let mut alloc = Allocation::new();
    for &(pair, b) in &demand.bandwidth {
        let n = fix.tunnels.tunnels(pair).len();
        let mut set = |tunnel: usize, f: f64| alloc.set(demand.id, TunnelId { pair, tunnel }, f);
        let one = rng.gen_range(0..n);
        match rng.gen_range(0..7) {
            0 => {}
            1 => set(one, b),
            2 => {
                set(one, b);
                set((one + 1) % n, b);
            }
            3 => (0..n).for_each(|t| set(t, b / n as f64)),
            4 => {
                let k = rng.gen_range(1..=n.max(2) - 1);
                (0..k.min(n)).for_each(|t| set(t, b / k as f64));
            }
            5 => set(one, b * (1.0 - 1e-6)),
            _ => set(one, b * (1.0 - 1e-6) * (1.0 - 1e-12)),
        }
    }
    alloc
}

fn check_case(tag: &str, fix: &NetFixture, rng: &mut StdRng) {
    let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
    let demand = demand(rng, fix);
    let mut tracked = fix.scenarios.most_probable_singles(4);
    tracked.push(0);
    tracked.push(rng.gen_range(0..fix.scenarios.len()));

    let walk = collapse_walk(&ctx, &demand, &tracked);
    let masked = MaskedProfile::collapse(&ctx, &demand, &tracked);
    let bools = DemandProfile::collapse(&ctx, &demand);
    assert_eq!(masked.len(), walk.len(), "{tag}: state count");
    assert_eq!(bools.len(), walk.len(), "{tag}: bool state count");
    assert_eq!(
        masked.tracked_states, walk.tracked_states,
        "{tag}: tracked states"
    );
    for (si, (got, want)) in masked.states.iter().zip(&walk.states).enumerate() {
        assert_eq!(got.masks, want.masks, "{tag}: masks of state {si}");
        assert_eq!(
            got.probability.to_bits(),
            want.probability.to_bits(),
            "{tag}: probability of state {si}: {} vs {}",
            got.probability,
            want.probability
        );
        assert_eq!(
            bools.states[si].probability.to_bits(),
            want.probability.to_bits()
        );
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            let up: Vec<bool> = (0..fix.tunnels.tunnels(pair).len())
                .map(|t| want.masks[ki] >> t & 1 == 1)
                .collect();
            assert_eq!(
                bools.states[si].avail[ki], up,
                "{tag}: bool view of state {si}"
            );
        }
    }

    let alloc = allocation(rng, fix, &demand);
    let got = alloc.achieved_availability(&ctx, &demand);
    let want = achieved_availability_walk(&ctx, &alloc, &demand);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{tag}: availability {got} vs {want}"
    );
}

#[test]
fn sweeps_match_the_scenario_walk_bit_for_bit() {
    for (family, fix) in families() {
        for seed in 0..fuzz_budget(40) as u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0011);
            check_case(&format!("{family}:{seed}"), &fix, &mut rng);
        }
    }
}
