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

use bate_core::allocation::SATISFY_TOL;
use bate_core::scheduling::{place_single_hard, schedule_with_capacities_mode, SolveMode};
use bate_core::{BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError};
use bate_net::{topologies, ScenarioSet};
use bate_reference::solve_exact;
use bate_reference::walk::collapse_walk;
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

/// Is there `f ≥ 0` with `Σ_{t up in c} f_t ≥ b` for every mask `c` of
/// `classes` and every link's load within its residual? Exact.
fn coverable(ctx: &TeContext, pair: usize, b: f64, classes: &[u64], residual: &[f64]) -> bool {
    let tunnels = ctx.tunnels.tunnels(pair);
    let mut p = Problem::new(Sense::Minimize);
    let f: Vec<_> = tunnels.iter().map(|_| p.add_var()).collect();
    for &m in classes {
        let up: Vec<_> = (0..f.len()).filter(|t| m >> t & 1 == 1).collect();
        p.add_constraint(
            &up.iter().map(|&t| (f[t], 1.0)).collect::<Vec<_>>(),
            Relation::Ge,
            b,
        );
    }
    for (l, &r) in residual.iter().enumerate() {
        let on: Vec<_> = (0..f.len())
            .filter(|&t| tunnels[t].links.iter().any(|x| x.index() == l))
            .map(|t| (f[t], 1.0))
            .collect();
        if !on.is_empty() {
            p.add_constraint(&on, Relation::Le, r);
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
            // The pair's classes as (up-mask, probability), in class order,
            // and every up-set of them that no class with no tunnel up is
            // in, as its classes' masks and its probability.
            let profile = collapse_walk(&ctx, &d, &[]);
            let class = |s: &bate_core::profile::MaskedState| (s.masks[0], s.probability);
            let classes: Vec<(u64, f64)> = profile.states.iter().map(class).collect();
            let mut candidates: Vec<(Vec<u64>, f64)> = upsets
                .iter()
                .map(|&set| {
                    let held = classes.iter().filter(|(m, _)| set >> m & 1 == 1);
                    let p = held.clone().map(|(_, p)| p).sum();
                    (held.map(|(m, _)| *m).collect::<Vec<_>>(), p)
                })
                .filter(|(held, _)| !held.is_empty() && !held.contains(&0))
                .collect();
            candidates.sort_by(|a, b| a.0.cmp(&b.0));
            candidates.dedup();
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
                .filter(|c| coverable(&ctx, pair, b, &c.0, &residual))
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
