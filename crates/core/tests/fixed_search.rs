//! The fixed check's search over minimal qualifying up-sets
//! (`scheduling::place_single_hard` for a single-pair demand, DESIGN.md
//! §5) against a brute force: on toy4, testbed6 and B4 with random
//! residuals and β, it admits iff some up-set of the pair's classes with
//! probability at least `β − SATISFY_TOL` has a placement that delivers
//! `b` in every one of its classes within every link's residual, decided
//! by the exact rational simplex of `bate-reference`. Every admit respects
//! the residual and meets its target, and every newcomer that the LP step
//! it replaced (the single-demand `schedule_with_capacities_mode` +
//! `meets_target`) admits is admitted too.
//!
//! β is drawn two ways: from {0.9, 0.95, 0.99, 0.995, 0.999, 0.9995,
//! 0.9999}, or just above an up-set's probability, inside the tolerance,
//! where only the tolerance admits. No β is kept whose threshold lies
//! within 1e-9 of an up-set's probability: there the float sums may fall
//! either way.
//!
//! OPT's search over every demand's choice of one minimal qualifying up-set
//! (`admission::optimal::upset_search`) is held to the same brute force
//! lifted to a pool: on random toy4, testbed6 and B4 pools it returns the
//! verdict of the full Appendix-A MILP wherever that finishes, every
//! accept's witness meets every target within the link capacities (also
//! under the scenario-by-scenario walk), and a
//! reject on toy4 or testbed6 that the MILP leaves open (or any such
//! reject with few enough choices) is confirmed by trying every choice
//! with exact rational feasibility.

use bate_core::admission::optimal::{admission_milp, upset_search};
use bate_core::allocation::SATISFY_TOL;
use bate_core::scheduling::{place_single_hard, schedule_with_capacities_mode, SolveMode};
use bate_core::{BaDemand, TeContext};
use bate_lp::{milp, Problem, Relation, Sense, SolveError, VarId};
use bate_net::{topologies, ScenarioSet};
use bate_reference::solve_exact;
use bate_reference::walk::{achieved_availability_walk, collapse_walk};
use bate_routing::{RoutingScheme, TunnelSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BETAS: [f64; 7] = [0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999];

/// The 168 up-sets of the lattice of four tunnels' up-masks, each as a
/// bitmask over the 16 masks: every set of masks that holds each superset
/// of its members.
fn lattice_upsets() -> Vec<u32> {
    let closed = |set: u32| {
        (0..16u32).all(|m| set >> m & 1 == 0 || (0..16u32).all(|s| s & m != m || set >> s & 1 == 1))
    };
    (0..1u32 << 16).filter(|&set| closed(set)).collect()
}

/// `d`'s pair's classes as (up-mask, probability), in class order, and
/// every up-set of them (`lattice` holds the up-sets of the whole lattice)
/// that no class with no tunnel up is in, as its classes' masks and its
/// probability, each once. The empty set is one of them.
fn class_upsets(ctx: &TeContext, d: &BaDemand, lattice: &[u32]) -> Vec<(Vec<u64>, f64)> {
    let profile = collapse_walk(ctx, d, &[]);
    let class = |s: &bate_core::profile::MaskedState| (s.masks[0], s.probability);
    let classes: Vec<(u64, f64)> = profile.states.iter().map(class).collect();
    let mut out: Vec<(Vec<u64>, f64)> = lattice
        .iter()
        .map(|&set| {
            let held = classes.iter().filter(|(m, _)| set >> m & 1 == 1);
            let p = held.clone().map(|(_, p)| p).sum();
            (held.map(|(m, _)| *m).collect::<Vec<_>>(), p)
        })
        .filter(|(held, _)| !held.contains(&0))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup();
    out
}

/// Is there `f ≥ 0` with `Σ_{t up in c} f_t ≥ b` for every cover `(pair,
/// b, classes)` and every mask `c` of its classes, on flows of its own, and
/// every link's load within its residual? Exact.
fn coverable(ctx: &TeContext, covers: &[(usize, f64, &[u64])], residual: &[f64]) -> bool {
    let mut p = Problem::new(Sense::Minimize);
    let mut on_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); residual.len()];
    for &(pair, b, classes) in covers {
        let tunnels = ctx.tunnels.tunnels(pair);
        let f: Vec<_> = tunnels.iter().map(|_| p.add_var()).collect();
        for &m in classes {
            let up: Vec<_> = (0..f.len()).filter(|t| m >> t & 1 == 1).collect();
            p.add_constraint(
                &up.iter().map(|&t| (f[t], 1.0)).collect::<Vec<_>>(),
                Relation::Ge,
                b,
            );
        }
        for (t, path) in tunnels.iter().enumerate() {
            for l in &path.links {
                on_link[l.index()].push((f[t], 1.0));
            }
        }
    }
    for (on, &r) in on_link.iter().zip(residual) {
        if !on.is_empty() {
            p.add_constraint(on, Relation::Le, r);
        }
    }
    match solve_exact(&p) {
        Ok(_) => true,
        Err(SolveError::Infeasible) => false,
        Err(e) => panic!("exact solve failed: {e:?}"),
    }
}

#[test]
fn search_admits_iff_a_brute_force_over_all_upsets_does() {
    let upsets = lattice_upsets();
    assert_eq!(upsets.len(), 168);
    let mut rng = StdRng::seed_from_u64(44);
    for topo in [topologies::toy4(), topologies::testbed6(), topologies::b4()] {
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .collect();
        let (mut admits, mut rejects, mut lp_admits, mut window) = (0, 0, 0, 0);
        let mut trial = 0u64;
        while trial < 200 {
            let pair = pairs[rng.gen_range(0..pairs.len())];
            let b = rng.gen_range(50.0..2000.0);
            let mut d = BaDemand::single(trial, pair, b, 0.0);
            let mut candidates = class_upsets(&ctx, &d, &upsets);
            candidates.retain(|(held, _)| !held.is_empty());
            let in_range: Vec<f64> = (candidates.iter().map(|c| c.1))
                .filter(|p| (0.9..0.9999).contains(p))
                .collect();
            d.beta = if rng.gen_bool(0.5) || in_range.is_empty() {
                BETAS[rng.gen_range(0..BETAS.len())]
            } else {
                in_range[rng.gen_range(0..in_range.len())] + rng.gen_range(2e-9..SATISFY_TOL - 2e-9)
            };
            let threshold = d.beta - SATISFY_TOL;
            if candidates.iter().any(|c| (c.1 - threshold).abs() < 1e-9) {
                continue;
            }
            trial += 1;
            let residual: Vec<f64> = (0..topo.num_links())
                .map(|_| rng.gen_range(0.0..1.5 * b))
                .collect();

            let qualifying = candidates.iter().filter(|c| c.1 >= threshold);
            let feasible: Vec<f64> = qualifying
                .filter(|c| coverable(&ctx, &[(pair, b, &c.0)], &residual))
                .map(|c| c.1)
                .collect();
            let brute = !feasible.is_empty();
            window += usize::from(brute && feasible.iter().all(|&p| p < d.beta));
            let placed = place_single_hard(&ctx, &d, &residual);
            let name = topo.name();
            assert_eq!(
                placed.is_some(),
                brute,
                "{name}: pair {pair} b {b} beta {}",
                d.beta
            );
            if let Some(alloc) = &placed {
                let loads = alloc.link_loads(&ctx);
                assert!(
                    loads.iter().zip(&residual).all(|(load, cap)| *load <= cap + 1e-6),
                    "{name}: over capacity"
                );
                assert!(alloc.meets_target(&ctx, &d), "{name}: short of its target");
            }
            let alone = std::slice::from_ref(&d);
            let lp = schedule_with_capacities_mode(&ctx, alone, &residual, SolveMode::Auto);
            if lp.is_ok_and(|lp| lp.allocation.meets_target(&ctx, &d)) {
                lp_admits += 1;
                assert!(
                    placed.is_some(),
                    "{name}: the LP step admits pair {pair}, the search not"
                );
            }
            admits += usize::from(placed.is_some());
            rejects += usize::from(placed.is_none());
        }
        let name = topo.name();
        assert!(
            admits >= 20 && rejects >= 20,
            "{name}: {admits} admits, {rejects} rejects"
        );
        assert!(lp_admits > 0, "{name}: the LP step admits none");
        assert!(window > 0, "{name}: no admit rests on the tolerance");
    }
}

/// `d`'s minimal qualifying up-sets by brute force: the up-sets of
/// [`class_upsets`] with probability at least `β − SATISFY_TOL` that hold
/// no other such up-set, each as all its classes' masks. `None` when a
/// non-empty up-set's probability lies within 1e-9 of `β` or of `β −
/// SATISFY_TOL`, or between them: there float sums, or the tolerance the
/// search reads and the MILP does not, decide.
fn minimal_qualifying(ctx: &TeContext, d: &BaDemand, lattice: &[u32]) -> Option<Vec<Vec<u64>>> {
    let upsets = class_upsets(ctx, d, lattice);
    let threshold = d.beta - SATISFY_TOL;
    let near = |p: f64| p > threshold - 1e-9 && p < d.beta + 1e-9;
    if upsets.iter().any(|(held, p)| !held.is_empty() && near(*p)) {
        return None;
    }
    let qualifying: Vec<&Vec<u64>> = (upsets.iter())
        .filter(|(_, p)| *p >= threshold)
        .map(|(held, _)| held)
        .collect();
    let within = |a: &Vec<u64>, b: &Vec<u64>| a != b && a.iter().all(|m| b.contains(m));
    let minimal = (qualifying.iter())
        .filter(|&&u| !qualifying.iter().any(|&v| within(v, u)))
        .map(|&u| u.clone());
    Some(minimal.collect())
}

/// Is some choice of one up-set of `choices[i]` per demand jointly
/// coverable? Tries every choice, each exactly.
fn some_choice_coverable(ctx: &TeContext, demands: &[BaDemand], choices: &[Vec<Vec<u64>>]) -> bool {
    let caps = ctx.link_capacities();
    if choices.iter().any(Vec::is_empty) {
        return false;
    }
    let mut at = vec![0; demands.len()];
    loop {
        let covers: Vec<(usize, f64, &[u64])> = (demands.iter().zip(choices).zip(&at))
            .map(|((d, c), &i)| (d.bandwidth[0].0, d.bandwidth[0].1, &c[i][..]))
            .collect();
        if coverable(ctx, &covers, &caps) {
            return true;
        }
        // The next choice, odometer order.
        let mut k = 0;
        while k < at.len() && at[k] + 1 == choices[k].len() {
            at[k] = 0;
            k += 1;
        }
        if k == at.len() {
            return false;
        }
        at[k] += 1;
    }
}

/// The one pool below on which branch and bound answers `Unbounded`,
/// although the admission MILP's objective is 0 and its root relaxation
/// solves: a fault of the MILP, not of the search, so the pool counts as
/// open and its verdict rests on the search's witness and the brute force.
/// `Unbounded` on any other pool fails the test.
const UNBOUNDED_POOL: &str = "testbed6 pool 66";

#[test]
fn pool_search_matches_the_milp_and_a_brute_force_over_upset_choices() {
    let lattice = lattice_upsets();
    let mut rng = StdRng::seed_from_u64(25);
    let betas = [0.0, 0.9, 0.95, 0.99, 0.995, 0.999];
    let cfg = milp::BnbConfig {
        max_nodes: 2000,
        gap: 1e-6,
    };
    let (mut pools, mut accepts, mut rejects, mut open, mut brute) = (0, 0, 0, 0, 0);
    for topo in [topologies::toy4(), topologies::testbed6(), topologies::b4()] {
        let small = topo.name() != "b4";
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .collect();
        let caps = ctx.link_capacities();
        let mean_cap = caps.iter().sum::<f64>() / caps.len() as f64;
        let mut kept = 0;
        while kept < 70 {
            let n = rng.gen_range(3..=if small { 6 } else { 8 });
            let demands: Vec<BaDemand> = (0..n)
                .map(|i| {
                    let pair = pairs[rng.gen_range(0..pairs.len())];
                    let b = rng.gen_range(0.1..1.0) * mean_cap;
                    BaDemand::single(i as u64 + 1, pair, b, betas[rng.gen_range(0..betas.len())])
                })
                .collect();
            let choices: Option<Vec<_>> = (demands.iter())
                .map(|d| minimal_qualifying(&ctx, d, &lattice))
                .collect();
            let Some(choices) = choices else { continue };
            kept += 1;
            let tag = format!("{} pool {kept}", topo.name());

            let search = upset_search(&ctx, &demands).unwrap();
            let full = match milp::solve(&admission_milp(&ctx, &demands, true).unwrap(), cfg) {
                Ok(_) => Some(true),
                Err(SolveError::Infeasible) => Some(false),
                // A limit leaves the pool open.
                Err(SolveError::NodeLimit) => None,
                Err(SolveError::Unbounded) if tag == UNBOUNDED_POOL => None,
                Err(e) => panic!("{tag}: {e}"),
            };
            if let Some(full) = full {
                assert_eq!(search.witness.is_some(), full, "{tag}: the MILP differs");
            }
            open += usize::from(full.is_none());
            match &search.witness {
                Some(w) => {
                    accepts += 1;
                    for d in &demands {
                        assert!(w.meets_target(&ctx, d), "{tag}: demand {} short", d.id.0);
                        // And under the scenario-by-scenario walk.
                        let walked = achieved_availability_walk(&ctx, w, d);
                        assert!(walked >= d.beta - SATISFY_TOL, "{tag}: {walked}");
                    }
                    assert!(w.respects_capacity(&ctx, 1e-9), "{tag}: over capacity");
                }
                None => {
                    rejects += 1;
                    let tries: usize = choices.iter().map(Vec::len).product();
                    if small && (full.is_none() || tries <= 64) {
                        brute += 1;
                        assert!(
                            !some_choice_coverable(&ctx, &demands, &choices),
                            "{tag}: a choice of up-sets is coverable"
                        );
                    } else {
                        assert!(full.is_some(), "{tag}: nothing confirms the reject");
                    }
                }
            }
        }
        pools += kept;
    }
    assert!(pools >= 200, "{pools} pools");
    let tally = format!("{accepts} accepts, {rejects} rejects, {brute} brute-forced, {open} open");
    assert!(accepts >= 40 && rejects >= 40 && brute >= 20, "{tally}");
}
