//! Seeded instance-generator fleet for the differential fuzzing campaign
//! (DESIGN.md §5d, §7).
//!
//! Every generator is a pure function of its seed, so the campaign in
//! `crates/bench/tests/fuzz_campaign.rs` is deterministic end to end:
//! a failure reports `family:seed`, and replaying that pair reproduces
//! the instance bit for bit. Families:
//!
//! * [`random_lp`] — unstructured LPs over the full builder surface
//!   (bounded/unbounded vars, all three relations, all senses; may be
//!   infeasible or unbounded — verdicts are differenced too).
//! * [`degenerate_lp`] — balanced transportation models with tied costs
//!   and duplicated rows: massively degenerate optimal faces that stress
//!   Bland's-rule anti-cycling and warm-install repair.
//! * [`ill_conditioned_lp`] — coefficients spanning ~9 orders of
//!   magnitude with near-parallel rows; constructed feasible and bounded
//!   so the objective difference is always checkable.
//! * [`recovery_shaped_lp`] — post-failure reroute shape: coverage `Ge`
//!   rows over surviving tunnels plus link-capacity `Le` rows, the
//!   structure `optimal_recovery` solves.
//! * [`tie_fan_lp`] — the new adversarial family of this PR: fans of
//!   *identical* columns under redundant duplicated rows, so every
//!   pricing step ties and bounded-variable bound flips are forced; the
//!   float kernel's candidate-list pricing and the exact oracle's Bland
//!   rule must still land on the same objective.
//! * [`srlg_scheduling_lp`] — the correlated-failure family of this PR:
//!   real Eq. 4 scheduling LPs built over toy4 with seeded fiber-cut
//!   SRLGs, so the scenario probabilities are *joint* (group-level
//!   Bernoulli events), not per-link independent. Instances straddle
//!   feasible/infeasible as the conduit probability sweeps, exercising
//!   the verdict-agreement path.
//! * [`random_milp`] — knapsack-shaped MILPs with binaries plus an
//!   occasional general-integer variable and side row.
//! * [`srlg_admission_milp`] — oversubscribed Appendix-A admission MILPs
//!   over the same correlated fixtures, forcing rejections whose
//!   accept/reject split the exact oracle must reproduce.
//! * [`stale_batch_mates_gadget`] — the PR-4 branch-and-cut regression
//!   gadget (junk-gadget fan-out, z/r pin, hidden row), exposed here so
//!   the campaign certifies it against the exact oracle.
//!
//! Network-model instances (gravity demands over bate-net topologies,
//! fed to the real scheduling/admission builders across all
//! `SolveMode`s) come from [`net_fixture`] + [`gravity_demands`].
//!
//! ## Scenario-sweep oracle
//!
//! [`collapse_walk`] and [`achieved_availability_walk`] are the
//! scenario-by-scenario definitions of `MaskedProfile::collapse` and
//! `Allocation::achieved_availability`. The shipped versions answer from
//! bitset algebra over `ScenarioSet::partition`; `tests/scenario_sweep.rs`
//! holds them to these walks bit for bit, and the `scenario_sweep` entry of
//! the `lp` bench times one against the other.
//!
//! ## Seed-corpus policy
//!
//! The `proptest` shim has no `proptest-regressions` persistence, so
//! seeds that ever exposed a bug are checked in at
//! [`REGRESSION_SEEDS`] and replayed by the campaign *before* the
//! random sweep. `FUZZ_BUDGET` scales the per-family case count
//! ([`fuzz_budget`]): tier-1 runs the small default, nightly runs set
//! it high.

use bate_core::profile::{MaskedProfile, MaskedState};
use bate_core::{Allocation, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, VarId};
use bate_net::{topologies, traffic, GroupId, LinkSet, ScenarioSet, SrlgSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;

/// `(family, seed)` pairs the campaign replays before any random sweep:
/// seeds that exposed bugs in the past, plus one pinned representative
/// of each correlated family (so the SRLG-shaped models stay covered
/// even under tiny `FUZZ_BUDGET` settings). Append the reported pair
/// when a campaign fails, then fix the bug — the corpus replays every
/// entry first, forever.
pub const REGRESSION_SEEDS: &[(&str, u64)] = &[
    ("srlg_scheduling_lp", 3),
    ("srlg_admission_milp", 1),
];

/// Per-family case budget: `FUZZ_BUDGET` when set, `default` otherwise.
pub fn fuzz_budget(default: usize) -> usize {
    std::env::var("FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
}

/// A generated instance, tagged for reproduction.
pub struct FuzzInstance {
    /// `family:seed` tag reported on failure.
    pub name: String,
    pub problem: Problem,
}

/// A named seeded generator: `(family name, constructor)`.
pub type Family = (&'static str, fn(u64) -> FuzzInstance);

/// `Le` rows as `(terms, rhs)` pairs, for driving lazy-oracle solves.
pub type LeRows = Vec<(Vec<(VarId, f64)>, f64)>;

/// The LP generator fleet as `(family name, generator)` pairs.
pub fn lp_families() -> Vec<Family> {
    vec![
        ("random_lp", random_lp),
        ("degenerate_lp", degenerate_lp),
        ("ill_conditioned_lp", ill_conditioned_lp),
        ("recovery_shaped_lp", recovery_shaped_lp),
        ("tie_fan_lp", tie_fan_lp),
        ("srlg_scheduling_lp", srlg_scheduling_lp),
    ]
}

/// The MILP generator fleet.
pub fn milp_families() -> Vec<Family> {
    vec![
        ("random_milp", random_milp),
        ("srlg_admission_milp", srlg_admission_milp),
    ]
}

fn coeff(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(-4i32..5) as f64,
        1 => rng.gen_range(-8i32..9) as f64 * 0.5,
        2 => rng.gen_range(1i32..5) as f64,
        _ => rng.gen_range(-2.0..2.0),
    }
}

/// Unstructured LPs over the whole builder surface. Roughly half are
/// feasible-and-bounded; the rest exercise the Infeasible/Unbounded
/// verdict paths, which the differential harness compares as verdicts.
pub fn random_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut p = Problem::new(sense);
    let n = rng.gen_range(2usize..=7);
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            if rng.gen_bool(0.5) {
                p.add_bounded_var(&format!("x{i}"), rng.gen_range(1i32..=10) as f64)
            } else {
                p.add_var(&format!("x{i}"))
            }
        })
        .collect();
    for &v in &vars {
        if rng.gen_bool(0.8) {
            p.set_objective(v, coeff(&mut rng));
        }
    }
    for _ in 0..rng.gen_range(1usize..=2 * n) {
        let k = rng.gen_range(1usize..=n);
        let terms: Vec<(VarId, f64)> = (0..k)
            .map(|_| (vars[rng.gen_range(0usize..n)], coeff(&mut rng)))
            .collect();
        let rel = match rng.gen_range(0u32..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = rng.gen_range(-2i32..11) as f64;
        p.add_constraint(&terms, rel, rhs);
    }
    FuzzInstance {
        name: format!("random_lp:{seed}"),
        problem: p,
    }
}

/// Balanced transportation with tied unit costs, a duplicated row and a
/// redundant aggregate row — the optimal face is a whole polytope, so
/// the float kernel's pricing and the exact Bland walk traverse wildly
/// different bases and must still agree on the objective.
pub fn degenerate_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0002);
    let m = rng.gen_range(2usize..=3); // sources
    let n = rng.gen_range(2usize..=3); // sinks
    let mut p = Problem::new(Sense::Minimize);
    // Tied costs: only two distinct values, many ties.
    let x: Vec<Vec<VarId>> = (0..m)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let v = p.add_var(&format!("x{i}{j}"));
                    p.set_objective(v, if rng.gen_bool(0.5) { 1.0 } else { 2.0 });
                    v
                })
                .collect()
        })
        .collect();
    // Balanced integer supplies/demands with deliberate ties.
    let total = rng.gen_range(4i32..=8) * n as i32;
    let supply = total / m as i32;
    let demand = total / n as i32;
    let extra_s = total - supply * m as i32;
    let extra_d = total - demand * n as i32;
    for (i, row) in x.iter().enumerate() {
        let s = supply + if i == 0 { extra_s } else { 0 };
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Relation::Eq, s as f64);
    }
    for j in 0..n {
        let d = demand + if j == 0 { extra_d } else { 0 };
        let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[j], 1.0)).collect();
        p.add_constraint(&terms, Relation::Ge, d as f64);
        if j == 0 {
            // Duplicate of the first demand row: a redundant copy whose
            // artificial stays basic at zero through phase 2.
            p.add_constraint(&terms, Relation::Ge, d as f64);
        }
    }
    // Redundant aggregate (implied by the supply rows).
    let all: Vec<(VarId, f64)> = x.iter().flatten().map(|&v| (v, 1.0)).collect();
    p.add_constraint(&all, Relation::Le, total as f64);
    FuzzInstance {
        name: format!("degenerate_lp:{seed}"),
        problem: p,
    }
}

/// Coefficients spanning ~1e-4..1e5 with a near-parallel row pair.
/// Constructed feasible (origin) and bounded (box), so the outcome is
/// always `Optimal` and the objectives must agree within the documented
/// relative tolerance.
pub fn ill_conditioned_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0003);
    let n = rng.gen_range(3usize..=5);
    let mut p = Problem::new(Sense::Maximize);
    let scales = [1e-4, 1e-2, 1.0, 1e2, 1e5];
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            let v = p.add_bounded_var(&format!("x{i}"), rng.gen_range(1.0..1e4));
            p.set_objective(v, rng.gen_range(0.1..4.0) * scales[i % scales.len()]);
            v
        })
        .collect();
    let base: Vec<(VarId, f64)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, rng.gen_range(0.5..3.0) * scales[(i + 2) % scales.len()]))
        .collect();
    p.add_constraint(&base, Relation::Le, rng.gen_range(1e2..1e6));
    // Near-parallel twin: same row scaled by (1 + 4e-7), slightly
    // different rhs — the pair straddles the float tolerance band.
    let twin: Vec<(VarId, f64)> = base.iter().map(|&(v, c)| (v, c * (1.0 + 4e-7))).collect();
    p.add_constraint(&twin, Relation::Le, rng.gen_range(1e2..1e6));
    for _ in 0..rng.gen_range(1usize..=2) {
        let k = rng.gen_range(1usize..=n);
        let terms: Vec<(VarId, f64)> = (0..k)
            .map(|_| {
                (
                    vars[rng.gen_range(0usize..n)],
                    rng.gen_range(0.1..2.0) * scales[rng.gen_range(0usize..scales.len())],
                )
            })
            .collect();
        p.add_constraint(&terms, Relation::Le, rng.gen_range(1.0..1e5));
    }
    FuzzInstance {
        name: format!("ill_conditioned_lp:{seed}"),
        problem: p,
    }
}

/// Post-failure reroute shape: minimize total flow over surviving
/// tunnels subject to per-demand coverage and link capacities — the
/// structure `bate_core::recovery` solves after masking failed links.
/// Capacities are sized to twice the total demand, so instances are
/// feasible and the optimum equals the coverage total.
pub fn recovery_shaped_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0004);
    let links = rng.gen_range(3usize..=6);
    let demands = rng.gen_range(1usize..=3);
    let mut p = Problem::new(Sense::Minimize);
    let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); links];
    let mut total_b = 0.0;
    for d in 0..demands {
        let tunnels = rng.gen_range(2usize..=4);
        let b = rng.gen_range(1i32..=9) as f64;
        total_b += b;
        let mut cover = Vec::with_capacity(tunnels);
        for t in 0..tunnels {
            // A surviving tunnel crosses 1–3 random links.
            let v = p.add_var(&format!("f{d}_{t}"));
            p.set_objective(v, 1.0);
            cover.push((v, 1.0));
            for _ in 0..rng.gen_range(1usize..=3) {
                per_link[rng.gen_range(0usize..links)].push((v, 1.0));
            }
        }
        p.add_constraint(&cover, Relation::Ge, b);
    }
    for terms in per_link.iter().filter(|t| !t.is_empty()) {
        p.add_constraint(terms, Relation::Le, total_b * 2.0);
    }
    FuzzInstance {
        name: format!("recovery_shaped_lp:{seed}"),
        problem: p,
    }
}

/// The new adversarial family: fans of identical bounded columns under
/// duplicated covering rows. Every entering choice ties with every
/// other, the ratio test ties against the entering variable's own bound
/// (forcing bound flips), and the duplicated rows keep redundant
/// artificials basic at zero — the paths the warm-install repair and
/// rowgen acceptance logic are most sensitive to.
pub fn tie_fan_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0005);
    let fan = rng.gen_range(4usize..=8);
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<VarId> = (0..fan)
        .map(|i| {
            let v = p.add_bounded_var(&format!("x{i}"), 1.0);
            p.set_objective(v, 1.0); // all costs identical
            v
        })
        .collect();
    let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    // Fractional covering level: optimum sits strictly inside a face
    // where `floor(r)` columns are at their upper bound and one is
    // fractional — which columns is entirely tie-broken. Capped at
    // `fan - 2` so the pinned pair below never renders it infeasible
    // (the family must stay Optimal: the exact certificate needs a
    // solution to verify).
    let r = rng.gen_range(1usize..fan - 1) as f64 + 0.5;
    p.add_constraint(&all, Relation::Ge, r);
    p.add_constraint(&all, Relation::Ge, r); // exact duplicate
    // A weaker implied row and a pinned pair for extra degeneracy.
    p.add_constraint(&all, Relation::Ge, r - 1.0);
    let pinned: Vec<(VarId, f64)> = vars.iter().take(2).map(|&v| (v, 1.0)).collect();
    p.add_constraint(&pinned, Relation::Le, 1.0);
    FuzzInstance {
        name: format!("tie_fan_lp:{seed}"),
        problem: p,
    }
}

/// Knapsack-shaped MILPs: binaries with integer weights/rewards, an
/// occasional general-integer column and side row. Always feasible
/// (the origin), so float branch-and-bound and the exact oracle must
/// agree on the optimum exactly.
pub fn random_milp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0006);
    let n = rng.gen_range(3usize..=6);
    let mut p = Problem::new(Sense::Maximize);
    let mut weights = Vec::with_capacity(n + 1);
    for i in 0..n {
        let v = p.add_binary_var(&format!("x{i}"));
        p.set_objective(v, rng.gen_range(1i32..=9) as f64);
        weights.push((v, rng.gen_range(1i32..=9) as f64));
    }
    if rng.gen_bool(0.4) {
        let v = p.add_integer_var("g", rng.gen_range(2i32..=4) as f64);
        p.set_objective(v, rng.gen_range(1i32..=5) as f64);
        weights.push((v, rng.gen_range(1i32..=5) as f64));
    }
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    p.add_constraint(&weights, Relation::Le, (total / 2.0).floor().max(1.0));
    if rng.gen_bool(0.5) {
        // Side row: a cardinality cap over a random subset.
        let k = rng.gen_range(1usize..=n);
        let sub: Vec<(VarId, f64)> = weights.iter().take(k).map(|&(v, _)| (v, 1.0)).collect();
        p.add_constraint(&sub, Relation::Le, k.div_ceil(2) as f64);
    }
    FuzzInstance {
        name: format!("random_milp:{seed}"),
        problem: p,
    }
}

/// A seeded correlated fixture: toy4 plus 1–2 random fiber-cut SRLGs
/// (each covering 2–3 fate groups, conduit probability log-uniform in
/// ~1e-3..5e-2), enumerated at depth 2 over the *event* space — so the
/// scenario probabilities are joint, not per-link independent. Kept to
/// toy4 so the exact rational oracle can certify every instance.
pub fn srlg_fixture(rng: &mut StdRng) -> NetFixture {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let mut srlgs = SrlgSet::new(&topo);
    let cuts = rng.gen_range(1usize..=2);
    for c in 0..cuts {
        let k = rng.gen_range(2usize..=3);
        let mut groups: Vec<GroupId> = Vec::with_capacity(k);
        while groups.len() < k {
            let g = GroupId(rng.gen_range(0usize..topo.num_groups()));
            if !groups.contains(&g) {
                groups.push(g);
            }
        }
        let q = 10f64.powf(rng.gen_range(-3.0..-1.3));
        srlgs.add(&format!("cut{c}"), q, &groups);
    }
    let scenarios = srlgs.enumerate(&topo, 2);
    NetFixture {
        topo,
        tunnels,
        scenarios,
    }
}

/// Real Eq. 4 scheduling LPs over seeded correlated fixtures. Depending
/// on how hard the drawn conduits hit the drawn demands' β-targets, the
/// instance is Optimal or Infeasible — both verdicts are differenced
/// against the exact oracle.
pub fn srlg_scheduling_lp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0007);
    let fix = srlg_fixture(&mut rng);
    let mean_total = rng.gen_range(8_000.0..16_000.0);
    let demands = gravity_demands(&fix, 3, mean_total, seed + 300);
    let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
    let caps: Vec<f64> = fix.topo.links().map(|(_, l)| l.capacity).collect();
    let problem = bate_core::scheduling::scheduling_lp(&ctx, &demands, &caps)
        .expect("scheduling LP build is infallible for non-empty demand sets");
    FuzzInstance {
        name: format!("srlg_scheduling_lp:{seed}"),
        problem,
    }
}

/// Oversubscribed Appendix-A admission MILPs over the same correlated
/// fixtures: the traffic draw deliberately exceeds toy4's capacity, so
/// the optimal accept/reject split is non-trivial and the float
/// branch-and-bound must reproduce the exact oracle's count.
pub fn srlg_admission_milp(seed: u64) -> FuzzInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0008);
    let fix = srlg_fixture(&mut rng);
    let mean_total = rng.gen_range(25_000.0..45_000.0);
    let demands = gravity_demands(&fix, 3, mean_total, seed + 400);
    let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
    let problem = bate_core::admission::optimal::admission_milp(&ctx, &demands, false)
        .expect("admission MILP build is infallible for non-empty demand sets");
    FuzzInstance {
        name: format!("srlg_admission_milp:{seed}"),
        problem,
    }
}

/// The PR-4 branch-and-cut regression gadget (`stale_batch_mates` in
/// `bate-lp`'s MILP tests): `nj` junk gadgets fan the DFS frontier out
/// past the node batch, a z/r gadget pins every relaxation to r = 1,
/// and the hidden row `a + b <= 1` is what the lazy oracle must append
/// before any incumbent is accepted. With the hidden row built in
/// (`with_hidden`), the true optimum is 10; without it, 20 (a = b = 1
/// is the bogus incumbent PR-4's fix rejects). Returns the problem plus
/// the hidden row for driving `solve_lazy` oracles.
pub fn stale_batch_mates_gadget(
    nj: usize,
    with_hidden: bool,
) -> (FuzzInstance, LeRows) {
    let mut p = Problem::new(Sense::Maximize);
    for k in 0..nj {
        let j = p.add_binary_var(&format!("j{k}"));
        let jp = p.add_bounded_var(&format!("jp{k}"), 1.0);
        p.set_objective(jp, 1.0);
        p.add_constraint(&[(jp, 1.0), (j, -1.0)], Relation::Le, 0.0);
        p.add_constraint(&[(jp, 1.0), (j, 1.0)], Relation::Le, 1.0);
    }
    let z = p.add_binary_var("z");
    let r = p.add_bounded_var("r", 1.0);
    let a = p.add_binary_var("a");
    let b = p.add_binary_var("b");
    p.set_objective(r, 15.0);
    p.set_objective(a, 10.0);
    p.set_objective(b, 10.0);
    p.add_constraint(&[(r, 1.0), (z, -2.0)], Relation::Le, 0.0);
    p.add_constraint(&[(r, 1.0), (z, 2.0)], Relation::Le, 2.0);
    p.add_constraint(&[(a, 1.0), (b, 1.0), (r, 1.0)], Relation::Le, 2.0);
    let hidden = vec![(vec![(a, 1.0), (b, 1.0)], 1.0)];
    if with_hidden {
        for (t, rhs) in &hidden {
            p.add_constraint(t, Relation::Le, *rhs);
        }
    }
    let tag = if with_hidden { "full" } else { "lazy" };
    (
        FuzzInstance {
            name: format!("stale_batch_mates[nj={nj},{tag}]"),
            problem: p,
        },
        hidden,
    )
}

/// A topology + tunnels + pruned scenarios bundle for the network-model
/// side of the campaign.
pub struct NetFixture {
    pub topo: Topology,
    pub tunnels: TunnelSet,
    pub scenarios: ScenarioSet,
}

/// The two harness-sized fixtures the campaign solves exactly:
/// toy4 at pruning depth 2 and testbed6 at depth 1.
pub fn net_fixtures() -> Vec<NetFixture> {
    let mut out = Vec::new();
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    out.push(NetFixture {
        topo,
        tunnels,
        scenarios,
    });
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 1);
    out.push(NetFixture {
        topo,
        tunnels,
        scenarios,
    });
    out
}

/// Top-`n` gravity-matrix entries as single-pair BA demands, betas
/// cycling through the availability classes. Deterministic in `seed`
/// (same construction the rowgen goldens pin).
pub fn gravity_demands(fix: &NetFixture, n: usize, mean_total: f64, seed: u64) -> Vec<BaDemand> {
    let matrix = &traffic::generate_matrices(&fix.topo, 1, mean_total, seed)[0];
    let mut entries: Vec<(usize, f64)> = matrix
        .entries()
        .filter_map(|(s, d, v)| fix.tunnels.pair_index(s, d).map(|pair| (pair, v)))
        .filter(|&(pair, _)| !fix.tunnels.tunnels(pair).is_empty())
        .collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries.truncate(n);
    let betas = [0.9, 0.99, 0.95, 0.999];
    entries
        .iter()
        .enumerate()
        .map(|(i, &(pair, v))| BaDemand::single(i as u64 + 1, pair, v, betas[i % betas.len()]))
        .collect()
}

/// Oracle for `MaskedProfile::collapse`: visit every scenario in index
/// order, test each of the demand's tunnels against its failed groups, and
/// add its probability to the state with that up/down pattern (states in
/// first-seen order).
pub fn collapse_walk(ctx: &TeContext, demand: &BaDemand, tracked: &[usize]) -> MaskedProfile {
    let groups_per_tunnel: Vec<Vec<LinkSet>> = demand
        .bandwidth
        .iter()
        .map(|&(pair, _)| {
            let tunnels = ctx.tunnels.tunnels(pair);
            tunnels
                .iter()
                .map(|path| {
                    let mut set = LinkSet::new(ctx.topo.num_groups());
                    for g in path.groups(ctx.topo) {
                        set.insert(g.index());
                    }
                    set
                })
                .collect()
        })
        .collect();

    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut states: Vec<MaskedState> = Vec::new();
    let mut tracked_states = vec![0usize; tracked.len()];

    for (zi, scenario) in ctx.scenarios.iter().enumerate() {
        let masks: Vec<u64> = groups_per_tunnel
            .iter()
            .map(|per_pair| {
                let mut m = 0u64;
                for (t, groups) in per_pair.iter().enumerate() {
                    if !groups.intersects(&scenario.failed) {
                        m |= 1 << t;
                    }
                }
                m
            })
            .collect();
        let si = match index.get(&masks) {
            Some(&i) => {
                states[i].probability += scenario.probability;
                i
            }
            None => {
                let i = states.len();
                index.insert(masks.clone(), i);
                states.push(MaskedState {
                    masks,
                    probability: scenario.probability,
                });
                i
            }
        };
        for (pos, &tz) in tracked.iter().enumerate() {
            if tz == zi {
                tracked_states[pos] = si;
            }
        }
    }
    MaskedProfile {
        states,
        tracked_states,
    }
}

/// Oracle for `Allocation::achieved_availability`: the probability of the
/// scenarios, taken one by one, in which every requested pair is delivered
/// its bandwidth.
pub fn achieved_availability_walk(ctx: &TeContext, alloc: &Allocation, demand: &BaDemand) -> f64 {
    ctx.scenarios
        .iter()
        .filter(|z| alloc.satisfied_under(ctx, demand, z))
        .map(|z| z.probability)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for (name, gen) in lp_families().into_iter().chain(milp_families()) {
            let a = gen(42).problem.to_lp_format();
            let b = gen(42).problem.to_lp_format();
            assert_eq!(a, b, "{name} not deterministic");
            let c = gen(43).problem.to_lp_format();
            assert_ne!(a, c, "{name} ignores its seed");
        }
    }

    #[test]
    fn gadget_optima_are_pinned() {
        let (full, _) = stale_batch_mates_gadget(2, true);
        let sol = full.problem.solve().unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-9, "{}", sol.objective);
        let (lazy, _) = stale_batch_mates_gadget(2, false);
        let sol = lazy.problem.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-9, "{}", sol.objective);
    }
}
