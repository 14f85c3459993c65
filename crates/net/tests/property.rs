//! Property-based validation of the scenario model and samplers.

use bate_net::{scenario, LinkSet, Scenario, ScenarioSet, SrlgSet, Topology};
use proptest::prelude::*;

/// Build a random connected topology from a ring plus extra chords, with
/// bounded failure probabilities.
fn random_topology() -> impl Strategy<Value = Topology> {
    (3usize..8, prop::collection::vec((0usize..8, 0usize..8, 1e-6f64..0.05), 0..6)).prop_map(
        |(n, chords)| {
            let mut t = Topology::new("prop");
            let ids: Vec<_> = (0..n).map(|i| t.add_node(&format!("N{i}"))).collect();
            for i in 0..n {
                t.add_duplex_link(ids[i], ids[(i + 1) % n], 100.0, 0.001 * (i + 1) as f64);
            }
            for (a, b, p) in chords {
                let (a, b) = (a % n, b % n);
                if a != b && t.find_link(ids[a], ids[b]).is_none() {
                    t.add_duplex_link(ids[a], ids[b], 100.0, p);
                }
            }
            t
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Enumerated + residual probability is exactly 1, and deeper pruning
    /// covers monotonically more mass.
    #[test]
    fn scenario_mass_conservation(topo in random_topology(), y in 0usize..4) {
        let set = ScenarioSet::enumerate(&topo, y);
        let total: f64 = set.scenarios.iter().map(|s| s.probability).sum();
        prop_assert!((total + set.residual_probability - 1.0).abs() < 1e-9);
        if y > 0 {
            let shallower = ScenarioSet::enumerate(&topo, y - 1);
            prop_assert!(set.covered_probability() >= shallower.covered_probability() - 1e-12);
            prop_assert!(set.len() >= shallower.len());
        }
        // Every enumerated scenario respects the depth bound and has the
        // exact product probability.
        for s in &set.scenarios {
            prop_assert!(s.num_failures() <= y);
            let p = scenario::scenario_probability(&topo, &s.failed);
            prop_assert!((p - s.probability).abs() < 1e-12);
        }
    }

    /// Full enumeration sums to 1 with zero residual.
    #[test]
    fn full_enumeration_is_exhaustive(topo in random_topology()) {
        // Cap the group count so 2^n stays tiny.
        prop_assume!(topo.num_groups() <= 10);
        let set = ScenarioSet::enumerate(&topo, topo.num_groups());
        prop_assert_eq!(set.len(), 1usize << topo.num_groups());
        prop_assert!(set.residual_probability < 1e-9);
    }

    /// Fate sharing: a failed group takes down exactly its directed links.
    #[test]
    fn fate_sharing(topo in random_topology(), idx in 0usize..32) {
        let g = bate_net::GroupId(idx % topo.num_groups());
        let sc = Scenario::with_failures(&topo, &[g]);
        for (l, link) in topo.links() {
            prop_assert_eq!(sc.link_up(&topo, l), link.group != g);
        }
    }

    /// LinkSet behaves like a set of usize.
    #[test]
    fn linkset_model(
        len in 1usize..200,
        ops in prop::collection::vec((0usize..200, any::<bool>()), 0..64),
    ) {
        let mut set = LinkSet::new(len);
        let mut model = std::collections::BTreeSet::new();
        for (i, insert) in ops {
            let i = i % len;
            if insert {
                set.insert(i);
                model.insert(i);
            } else {
                set.remove(i);
                model.remove(&i);
            }
        }
        prop_assert_eq!(set.count(), model.len());
        let items: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(items, expected);
    }

    /// Correlated enumeration conserves probability mass: the joint
    /// probabilities sum to ≤ 1 (with the residual as exact complement)
    /// and `covered_probability` is monotone in the event-depth bound.
    #[test]
    fn srlg_mass_conservation(topo in random_topology(), seed in any::<u64>(), y in 0usize..4) {
        let srlgs = SrlgSet::generate(&topo, seed);
        let set = srlgs.enumerate(&topo, y);
        let total: f64 = set.scenarios.iter().map(|s| s.probability).sum();
        prop_assert!(total <= 1.0 + 1e-9);
        prop_assert!((total + set.residual_probability - 1.0).abs() < 1e-9);
        if y > 0 {
            let shallower = srlgs.enumerate(&topo, y - 1);
            prop_assert!(set.covered_probability() >= shallower.covered_probability() - 1e-12);
            prop_assert!(set.len() >= shallower.len());
        }
        // Each state's merged probability is the exact joint probability,
        // whenever every event subset confined to the down-set fits within
        // the enumeration depth (then nothing reaching this state was
        // pruned).
        let events = srlgs.events(&topo);
        for s in set.scenarios.iter().take(64) {
            let inside = events.iter().filter(|e| e.cover.is_subset(&s.failed)).count();
            if inside <= y {
                let p = srlgs.state_probability(&topo, &s.failed);
                prop_assert!((p - s.probability).abs() < 1e-9,
                    "merged {} vs exact {p}", s.probability);
            }
        }
    }

    /// The SRLG generator is deterministic per seed and well-formed.
    #[test]
    fn srlg_generator_deterministic(topo in random_topology(), seed in any::<u64>()) {
        let a = SrlgSet::generate(&topo, seed);
        let b = SrlgSet::generate(&topo, seed);
        prop_assert_eq!(a.len(), b.len());
        for ((ia, sa), (ib, sb)) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(&sa.name, &sb.name);
            prop_assert_eq!(sa.failure_prob, sb.failure_prob);
            prop_assert_eq!(&sa.groups, &sb.groups);
            prop_assert!(sa.groups.count() >= 2);
            prop_assert!((1e-4..=1e-2).contains(&sa.failure_prob));
        }
        // Enumeration of equal sets is identical (bitwise).
        let ea = a.enumerate(&topo, 2);
        let eb = b.enumerate(&topo, 2);
        prop_assert_eq!(ea.len(), eb.len());
        for (x, z) in ea.iter().zip(eb.iter()) {
            prop_assert_eq!(&x.failed, &z.failed);
            prop_assert_eq!(x.probability, z.probability);
        }
    }

    /// Link/group state consistency: in every enumerated correlated
    /// scenario, a directed link is down iff its fate group is covered by
    /// some *failed* event whose whole cover is down — i.e. every down-set
    /// is a union of event covers, and fate-sharing holds inside it.
    #[test]
    fn srlg_link_state_consistent_with_groups(
        topo in random_topology(),
        seed in any::<u64>(),
    ) {
        let srlgs = SrlgSet::generate(&topo, seed);
        let events = srlgs.events(&topo);
        let set = srlgs.enumerate(&topo, 2);
        for s in set.scenarios.iter().take(128) {
            // Union of the covers contained in the down-set reconstructs it
            // exactly: each failed group is explained by a failed event.
            let mut covered = LinkSet::new(topo.num_groups());
            for e in &events {
                if e.cover.is_subset(&s.failed) {
                    for g in e.cover.iter() {
                        covered.insert(g);
                    }
                }
            }
            prop_assert_eq!(&covered, &s.failed);
            // Directed-link view agrees with the group view.
            for (l, link) in topo.links() {
                prop_assert_eq!(
                    s.link_up(&topo, l),
                    !s.failed.contains(link.group.index())
                );
            }
        }
        // Firing one SRLG takes down exactly its covered groups.
        let events = srlgs.events(&topo);
        for (id, srlg) in srlgs.iter() {
            prop_assert_eq!(&events[topo.num_groups() + id.index()].cover, &srlg.groups);
        }
    }

    /// The distribution samplers stay in range and are deterministic per
    /// seed.
    #[test]
    fn samplers_are_sane(seed in any::<u64>()) {
        use bate_net::distributions::*;
        use rand::{rngs::StdRng, SeedableRng};
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let wa = weibull(&mut a, 2.0, 1.5);
            let wb = weibull(&mut b, 2.0, 1.5);
            prop_assert!(wa >= 0.0 && wa.is_finite());
            prop_assert_eq!(wa, wb);
        }
        let ea = exponential(&mut a, 3.0);
        prop_assert!(ea >= 0.0);
        let pa = poisson(&mut a, 2.5);
        prop_assert!(pa < 1000);
    }
}
