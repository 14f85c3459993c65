//! The scenario set's class cache (DESIGN.md §5) against the walk: a
//! collapse whose classes come from a warm cache, a cold one, a cloned set
//! (which starts empty) and two threads filling one cache at once must
//! each equal `bate_reference::walk::collapse_walk` bit for bit, on every
//! pair of toy4, testbed6 and B4. The seed singles, sorted once when the
//! set is built, must be the prefixes the per-call filter and sort gave.

use bate_core::profile::MaskedProfile;
use bate_core::{BaDemand, TeContext};
use bate_net::{topologies, ScenarioSet, Topology};
use bate_reference::walk::collapse_walk;
use bate_routing::{RoutingScheme, TunnelSet};

/// A profile's masks, probability bits and tracked states.
type Bits = (Vec<(Vec<u64>, u64)>, Vec<usize>);

fn bits(p: &MaskedProfile) -> Bits {
    let states = p
        .states
        .iter()
        .map(|s| (s.masks.clone(), s.probability.to_bits()));
    (states.collect(), p.tracked_states.clone())
}

/// One single-pair demand per pair with tunnels, then one over the first
/// three of those pairs.
fn demands(tunnels: &TunnelSet) -> Vec<BaDemand> {
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| !tunnels.tunnels(p).is_empty())
        .collect();
    let mut out: Vec<BaDemand> = pairs
        .iter()
        .map(|&p| BaDemand::single(p as u64, p, 10.0, 0.9))
        .collect();
    let mut multi = BaDemand::single(pairs.len() as u64, pairs[0], 10.0, 0.9);
    multi
        .bandwidth
        .extend(pairs[1..3].iter().map(|&p| (p, 5.0)));
    out.push(multi);
    out
}

fn collapse_all(
    topo: &Topology,
    tunnels: &TunnelSet,
    set: &ScenarioSet,
    tracked: &[usize],
) -> Vec<Bits> {
    let ctx = TeContext::new(topo, tunnels, set);
    let collapse = |d: &BaDemand| bits(&MaskedProfile::collapse(&ctx, d, tracked));
    demands(tunnels).iter().map(collapse).collect()
}

#[test]
fn cached_collapse_equals_the_walk_bit_for_bit() {
    for topo in [topologies::toy4(), topologies::testbed6(), topologies::b4()] {
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let set = ScenarioSet::enumerate(&topo, 2);
        let mut tracked = set.most_probable_singles(4).to_vec();
        tracked.extend([0, set.len() - 1]);
        let ctx = TeContext::new(&topo, &tunnels, &set);
        let walk: Vec<Bits> = (demands(&tunnels).iter())
            .map(|d| bits(&collapse_walk(&ctx, d, &tracked)))
            .collect();
        let name = topo.name();
        assert_eq!(
            collapse_all(&topo, &tunnels, &set, &tracked),
            walk,
            "{name}: cold"
        );
        assert_eq!(
            collapse_all(&topo, &tunnels, &set, &tracked),
            walk,
            "{name}: warm"
        );
        let clone = set.clone();
        assert_eq!(
            collapse_all(&topo, &tunnels, &clone, &tracked),
            walk,
            "{name}: clone"
        );
        // Two threads fill one cold cache at once, as the figure sweeps'
        // workers share a set.
        let shared = set.clone();
        let racing: Vec<Vec<Bits>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| collapse_all(&topo, &tunnels, &shared, &tracked)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (thread, profiles) in racing.iter().enumerate() {
            assert_eq!(profiles, &walk, "{name}: thread {thread}");
        }
    }
}

#[test]
fn seed_singles_are_prefixes_of_the_filter_and_sort() {
    for topo in [topologies::toy4(), topologies::testbed6(), topologies::b4()] {
        let set = ScenarioSet::enumerate(&topo, 2);
        let mut singles: Vec<usize> = (0..set.len())
            .filter(|&i| set.scenarios[i].num_failures() == 1)
            .collect();
        singles.sort_by(|&a, &b| {
            let (pa, pb) = (set.scenarios[a].probability, set.scenarios[b].probability);
            pb.partial_cmp(&pa).unwrap().then(a.cmp(&b))
        });
        for k in 0..=5 {
            let old = &singles[..k.min(singles.len())];
            assert_eq!(set.most_probable_singles(k), old, "{} k = {k}", topo.name());
        }
    }
}
