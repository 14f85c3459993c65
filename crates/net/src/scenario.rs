//! Network failure scenarios and their pruned enumeration (§3.1, §3.3).
//!
//! A scenario `z` assigns up/down to every fate group; its probability is
//! `p_z = Π_i (z_i (1-x_i) + (1-z_i) x_i)` under the paper's independence
//! assumption. Enumerating all `2^|E|` scenarios is intractable, so BATE
//! prunes: scenarios with at most `y` concurrent failures are enumerated
//! exactly (layers 0..=y of the lattice in Fig. 3) and every deeper scenario
//! is aggregated into one **residual** scenario whose probability is the
//! complement. The residual is treated as *never qualified*, which makes the
//! pruned availability estimate a lower bound on the true availability — the
//! scheduler can only over-provision, never silently under-provision.
//!
//! Consumers ask one question of the set — in which scenarios are these
//! tunnels up? — and [`ScenarioSet::partition`] answers it for all scenarios
//! at once, 64 per word, from an inverted index (group → scenarios it is down in).

use crate::graph::{GroupId, LinkId, Topology};
use crate::linkset::LinkSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One enumerated failure scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fate groups that are down in this scenario.
    pub failed: LinkSet,
    /// `p_z`.
    pub probability: f64,
}

impl Scenario {
    /// Scenario with exactly the given fate groups failed, probability
    /// computed from the topology's per-group failure probabilities
    /// **under independence**. When links share risk (fiber conduits), use
    /// [`crate::srlg::SrlgSet::scenario`] instead — the independence
    /// product can understate joint failures by orders of magnitude.
    pub fn with_failures(topo: &Topology, groups: &[GroupId]) -> Scenario {
        let mut failed = LinkSet::new(topo.num_groups());
        for g in groups {
            failed.insert(g.index());
        }
        let probability = scenario_probability(topo, &failed);
        Scenario {
            failed,
            probability,
        }
    }

    /// Is the fate group up in this scenario?
    pub fn group_up(&self, g: GroupId) -> bool {
        !self.failed.contains(g.index())
    }

    /// Is the directed link up in this scenario?
    pub fn link_up(&self, topo: &Topology, l: LinkId) -> bool {
        self.group_up(topo.link(l).group)
    }

    /// Number of concurrent failures.
    pub fn num_failures(&self) -> usize {
        self.failed.count()
    }
}

/// Exact probability of a scenario given which fate groups failed,
/// **assuming fate groups fail independently** (the paper's §3.1 model).
///
/// This is only correct when no shared-risk structure exists. With SRLGs
/// the per-group probabilities are *marginals* of a correlated joint
/// distribution and their product is wrong — see
/// [`crate::srlg::SrlgSet::state_probability`] for the exact correlated
/// form, and the `independent_marginals_overstate_two_path_availability`
/// test below for how far off the product gets on a 2-link SRLG.
pub fn scenario_probability(topo: &Topology, failed: &LinkSet) -> f64 {
    topo.groups()
        .map(|(g, def)| {
            if failed.contains(g.index()) {
                def.failure_prob
            } else {
                1.0 - def.failure_prob
            }
        })
        .product()
}

/// The pruned scenario set of §3.3.
#[derive(Debug, Clone)]
pub struct ScenarioSet {
    /// Enumerated scenarios in DFS emission order ({}, {0}, {0,1}, …);
    /// index 0 is always the all-up scenario.
    pub scenarios: Vec<Scenario>,
    /// Total probability of all pruned (deeper) scenarios, treated as
    /// unqualified.
    pub residual_probability: f64,
    /// The pruning depth `y` used.
    pub max_failures: usize,
    /// Inverted index: `down_in[g]` holds the indices of the scenarios in
    /// which fate group `g` is down, `all` every index. Read off `failed`
    /// at construction; editing a `failed` afterwards leaves it stale.
    down_in: Vec<LinkSet>,
    all: LinkSet,
    /// [`ScenarioSet::most_probable_singles`] hands out prefixes of this.
    singles: Vec<usize>,
    cache: ClassCache,
}

/// The class cache of [`ScenarioSet::classes`], keyed by each tunnel's fate
/// groups (what a partition reads). A clone starts empty.
#[derive(Debug, Default)]
struct ClassCache(Mutex<HashMap<Vec<Vec<GroupId>>, Arc<Classes>>>);

impl Clone for ClassCache {
    fn clone(&self) -> Self {
        ClassCache::default()
    }
}

/// A [`Partition`] as [`ScenarioSet::classes`] keeps it: each class by its
/// lowest member (not its KB-sized member set) and its probability.
#[derive(Debug)]
pub struct Classes {
    /// Per tunnel, the scenarios in which it is down.
    dead: Vec<LinkSet>,
    /// Each class's lowest member, ascending.
    first: Vec<usize>,
    /// [`ScenarioSet::probability_of`] each class, in class order.
    pub probabilities: Vec<f64>,
    /// [`Classes::minimal_upsets`] by its threshold's bits.
    upsets: Mutex<HashMap<u64, Arc<[Vec<u64>]>>>,
}

impl Classes {
    /// Is the `t`-th tunnel up in the scenarios of class `c`?
    pub fn is_up(&self, c: usize, t: usize) -> bool {
        !self.dead[t].contains(self.first[c])
    }

    /// The class of scenario `z` of the set: its tunnels are up where `z`'s are.
    pub fn class_of(&self, z: usize) -> usize {
        let same = |&c: &usize| self.dead.iter().all(|d| d.contains(z) == d.contains(c));
        let class = self.first.iter().position(same);
        class.expect("every scenario of the set is in a class")
    }

    /// The minimal up-sets of classes (each class with more tunnels up than
    /// a member is a member) that hold class 0, the all-up one, and no class
    /// with every tunnel down, whose probability added in class order
    /// reaches `threshold`: each as its minimal classes' up-tunnel masks, in
    /// a fixed order, kept by `threshold`'s bits. At most 64 tunnels and
    /// classes; the search is exponential in them.
    pub fn minimal_upsets(&self, threshold: f64) -> Arc<[Vec<u64>]> {
        let memo = || self.upsets.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = memo().get(&threshold.to_bits()) {
            return Arc::clone(hit);
        }
        assert!(self.first.len() <= 64, "{} classes", self.first.len());
        let up = |c| (0..self.dead.len()).filter(move |&t| self.is_up(c, t));
        let masks: Vec<u64> = (0..self.first.len())
            .map(|c| up(c).fold(0, |m, t| m | 1 << t))
            .collect();
        let members = |set: u64| (0..masks.len()).filter(move |&c| set >> c & 1 == 1);
        let p = |set: u64| -> f64 { members(set).map(|c| self.probabilities[c]).sum() };
        // `d` has fewer tunnels up than `c`.
        let below = |c: usize, d: usize| c != d && masks[d] & masks[c] == masks[d];
        // Supersets first, so a class is decided after every class above it;
        // a branch ends at the first set that reaches the threshold.
        let mut order: Vec<usize> = (1..masks.len()).filter(|&c| masks[c] != 0).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(masks[c].count_ones()));
        let (mut found, mut stack) = (Vec::new(), vec![(0, 1u64)]);
        while let Some((at, set)) = stack.pop() {
            if p(set) >= threshold {
                let minimal = members(set).filter(|&c| !members(set).any(|d| below(c, d)));
                let minimal: Vec<usize> = minimal.collect();
                let needed = |&c: &usize| c == 0 || p(set & !(1 << c)) < threshold;
                if minimal.iter().all(needed) {
                    found.push(minimal.iter().map(|&c| masks[c]).collect());
                }
            } else if let Some(&c) = order.get(at) {
                stack.push((at + 1, set));
                if members(!set).all(|d| !below(d, c)) {
                    stack.push((at + 1, set | 1 << c));
                }
            }
        }
        Arc::clone(memo().entry(threshold.to_bits()).or_insert(found.into()))
    }
}

/// A scenario set split into non-empty, disjoint classes of scenarios that
/// leave the same subset of some tunnels up ([`ScenarioSet::partition`]).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per tunnel, the scenarios in which it is down.
    dead: Vec<LinkSet>,
    classes: Vec<LinkSet>,
}

impl Partition {
    /// The classes (sets of scenario indices), ordered by lowest member.
    pub fn classes(&self) -> &[LinkSet] {
        &self.classes
    }

    /// Is the `t`-th tunnel up in the scenarios of class `c`?
    pub fn is_up(&self, c: usize, t: usize) -> bool {
        let z = self.classes[c].iter().next().expect("non-empty class");
        !self.dead[t].contains(z)
    }
}

impl ScenarioSet {
    /// Enumerate all scenarios with at most `max_failures` concurrent
    /// fate-group failures.
    ///
    /// # Panics
    ///
    /// Panics if the enumeration would exceed 20 million scenarios — that is
    /// beyond anything the scheduler can use and indicates a mis-chosen
    /// pruning depth.
    pub fn enumerate(topo: &Topology, max_failures: usize) -> ScenarioSet {
        let n = topo.num_groups();
        let expected = count_scenarios(n, max_failures);
        assert!(
            expected <= 20_000_000,
            "pruning depth {max_failures} on {n} fate groups yields {expected} scenarios"
        );

        let probs: Vec<f64> = topo.groups().map(|(_, g)| g.failure_prob).collect();
        let all_up_p: f64 = probs.iter().map(|p| 1.0 - p).product();

        let mut scenarios = Vec::with_capacity(expected);
        scenarios.push(Scenario {
            failed: LinkSet::new(n),
            probability: all_up_p,
        });

        // Enumerate combinations layer by layer. Each failed group i swaps a
        // factor (1-x_i) for x_i, i.e. multiplies by x_i / (1-x_i).
        let ratio: Vec<f64> = probs.iter().map(|&p| p / (1.0 - p)).collect();
        let mut failed = LinkSet::new(n);
        enumerate_combos(
            n,
            max_failures,
            0,
            all_up_p,
            &ratio,
            &mut failed,
            &mut scenarios,
        );

        ScenarioSet::from_scenarios(scenarios, max_failures)
    }

    /// A set over `scenarios` (all-up first): the residual is the mass they
    /// leave uncovered, the inverted index is read off their `failed` sets.
    pub(crate) fn from_scenarios(scenarios: Vec<Scenario>, max_failures: usize) -> ScenarioSet {
        let enumerated: f64 = scenarios.iter().map(|s| s.probability).sum();
        let mut all = LinkSet::new(scenarios.len());
        let mut down_in = vec![all.clone(); scenarios[0].failed.capacity()];
        for (z, s) in scenarios.iter().enumerate() {
            all.insert(z);
            s.failed.iter().for_each(|g| down_in[g].insert(z));
        }
        let mut singles: Vec<usize> = (0..scenarios.len())
            .filter(|&i| scenarios[i].num_failures() == 1)
            .collect();
        let p = |i: usize| scenarios[i].probability;
        let by_p = |a: usize, b: usize| p(b).partial_cmp(&p(a)).expect("probabilities are numbers");
        singles.sort_by(|&a, &b| by_p(a, b).then(a.cmp(&b)));
        ScenarioSet {
            scenarios,
            residual_probability: (1.0 - enumerated).max(0.0),
            max_failures,
            down_in,
            all,
            singles,
            cache: ClassCache::default(),
        }
    }

    /// Split the set by which of `tunnels` (each the fate groups it
    /// crosses) a scenario leaves up. A tunnel is down wherever one of its
    /// groups is: an OR over the index; each tunnel halves the classes.
    pub fn partition(&self, tunnels: &[Vec<GroupId>]) -> Partition {
        let mut dead = Vec::with_capacity(tunnels.len());
        let mut classes = vec![self.all.clone()];
        for groups in tunnels {
            let mut down = LinkSet::new(self.len());
            for g in groups {
                down.union_with(&self.down_in[g.index()]);
            }
            let halves = classes.iter().flat_map(|c| c.split(&down));
            classes = halves.filter(|c| !c.is_empty()).collect();
            dead.push(down);
        }
        classes.sort_by_key(|c| c.iter().next());
        Partition { dead, classes }
    }

    /// [`Self::partition`] of `tunnels` from the set's class cache. An entry
    /// never goes stale: it is a function of its key and of the scenarios,
    /// which do not change after the set is built.
    pub fn classes(&self, tunnels: &[Vec<GroupId>]) -> Arc<Classes> {
        // Each insert leaves the map valid, so a poisoned lock is still usable.
        let cache = || self.cache.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = cache().get(tunnels) {
            return Arc::clone(hit);
        }
        let Partition { dead, classes } = self.partition(tunnels);
        let fresh = Classes {
            dead,
            first: classes.iter().flat_map(|c| c.iter().next()).collect(),
            probabilities: classes.iter().map(|c| self.probability_of(c)).collect(),
            upsets: Mutex::default(),
        };
        Arc::clone(cache().entry(tunnels.to_vec()).or_insert(Arc::new(fresh)))
    }

    /// `Σ p_z` over the scenario indices in `members`, added ascending.
    pub fn probability_of(&self, members: &LinkSet) -> f64 {
        members.iter().map(|z| self.scenarios[z].probability).sum()
    }

    /// Total probability mass of the enumerated scenarios.
    pub fn covered_probability(&self) -> f64 {
        1.0 - self.residual_probability
    }

    /// Number of enumerated scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Iterate `(scenario, probability)`.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Indices of the `k` most probable single-failure scenarios, most
    /// probable first (ties broken by enumeration index so the selection
    /// is deterministic). Used to seed the row-generation master LP with
    /// the failure states most likely to bind.
    pub fn most_probable_singles(&self, k: usize) -> &[usize] {
        &self.singles[..k.min(self.singles.len())]
    }
}

/// Recursive layer-by-layer combination walk. `failed` is the parent
/// scenario's group set, maintained incrementally: each child inserts one
/// group, clones the set for the emitted scenario (a flat word copy), and
/// removes the group on backtrack — O(words) per scenario instead of
/// re-inserting the whole combo at every node.
fn enumerate_combos(
    n: usize,
    depth_left: usize,
    start: usize,
    prob: f64,
    ratio: &[f64],
    failed: &mut LinkSet,
    out: &mut Vec<Scenario>,
) {
    if depth_left == 0 {
        return;
    }
    for i in start..n {
        failed.insert(i);
        let p = prob * ratio[i];
        out.push(Scenario {
            failed: failed.clone(),
            probability: p,
        });
        enumerate_combos(n, depth_left - 1, i + 1, p, ratio, failed, out);
        failed.remove(i);
    }
}

/// Number of scenarios with at most `y` of `n` failures: `Σ_{k<=y} C(n, k)`.
pub fn count_scenarios(n: usize, y: usize) -> usize {
    let mut total = 0usize;
    let mut c = 1usize; // C(n, 0)
    for k in 0..=y.min(n) {
        total = total.saturating_add(c);
        // C(n, k+1) = C(n, k) * (n - k) / (k + 1)
        c = c.saturating_mul(n - k) / (k + 1);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn paper_example_probability() {
        // §3.1: availabilities 96%, 99.9999%, 99.9%, 99.9999% and scenario
        // z = {1,1,0,1} (e3 down) has p ≈ 0.000959998.
        let mut t = Topology::new("paper");
        let a = t.add_node("DC1");
        let b = t.add_node("DC2");
        let c = t.add_node("DC3");
        let d = t.add_node("DC4");
        t.add_link(a, b, 10.0, 0.04);
        let _e2 = t.add_link(b, d, 10.0, 0.000001);
        let e3 = t.add_link(a, c, 10.0, 0.001);
        t.add_link(c, d, 10.0, 0.000001);
        let s = Scenario::with_failures(&t, &[t.link(e3).group]);
        assert!(
            (s.probability - 0.000959998).abs() < 1e-8,
            "{}",
            s.probability
        );
    }

    #[test]
    fn count_scenarios_formula() {
        assert_eq!(count_scenarios(4, 0), 1);
        assert_eq!(count_scenarios(4, 1), 5);
        assert_eq!(count_scenarios(4, 2), 11);
        assert_eq!(count_scenarios(4, 4), 16);
        assert_eq!(count_scenarios(38, 2), 1 + 38 + 703);
    }

    #[test]
    fn enumeration_matches_count_and_orders_all_up_first() {
        let t = topologies::toy4();
        for y in 0..=4 {
            let set = ScenarioSet::enumerate(&t, y);
            assert_eq!(set.len(), count_scenarios(t.num_groups(), y));
            assert!(set.scenarios[0].failed.is_empty());
        }
    }

    #[test]
    fn full_enumeration_probabilities_sum_to_one() {
        let t = topologies::toy4();
        let set = ScenarioSet::enumerate(&t, t.num_groups());
        let total: f64 = set.scenarios.iter().map(|s| s.probability).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert!(set.residual_probability < 1e-12);
    }

    #[test]
    fn pruning_residual_is_complement() {
        let t = topologies::testbed6();
        let set = ScenarioSet::enumerate(&t, 2);
        let total: f64 = set.scenarios.iter().map(|s| s.probability).sum();
        assert!((total + set.residual_probability - 1.0).abs() < 1e-12);
        assert!(set.residual_probability > 0.0);
        // Deeper pruning covers more probability.
        let set3 = ScenarioSet::enumerate(&t, 3);
        assert!(set3.covered_probability() >= set.covered_probability());
    }

    #[test]
    fn scenario_respects_fate_groups() {
        let mut t = Topology::new("t");
        let a = t.add_node("A");
        let b = t.add_node("B");
        let (f, r) = t.add_duplex_link(a, b, 1.0, 0.1);
        let s = Scenario::with_failures(&t, &[t.link(f).group]);
        assert!(!s.link_up(&t, f));
        assert!(!s.link_up(&t, r)); // shared fate: reverse is down too
        assert_eq!(s.num_failures(), 1);
    }

    #[test]
    fn most_probable_singles_orders_by_probability() {
        // toy4 failure probs: e1 4%, e2 0.0001%, e3 0.1%, e4 0.0001%.
        let t = topologies::toy4();
        let set = ScenarioSet::enumerate(&t, 2);
        let picks = set.most_probable_singles(2);
        assert_eq!(picks.len(), 2);
        let groups: Vec<usize> = picks
            .iter()
            .map(|&i| {
                assert_eq!(set.scenarios[i].num_failures(), 1);
                set.scenarios[i].failed.iter().next().unwrap()
            })
            .collect();
        assert_eq!(groups, vec![0, 2], "expected e1 (4%) then e3 (0.1%)");
        // Asking for more singles than exist returns them all.
        assert_eq!(set.most_probable_singles(100).len(), t.num_groups());
        // Probabilities are non-increasing along the selection.
        let all = set.most_probable_singles(100);
        for w in all.windows(2) {
            assert!(set.scenarios[w[0]].probability >= set.scenarios[w[1]].probability);
        }
    }

    /// Negative test for the independence bake-in: on toy4 with e2 and e4
    /// riding one 1% conduit, the independence product over the *marginal*
    /// probabilities says "some path DC2→DC4-or-DC3→DC4 survives" with
    /// 99.99%+ availability, while the correlated model says at most ~99%.
    /// A BA guarantee of 99.9% priced from independent probabilities
    /// accepts; the correlated model correctly rejects.
    #[test]
    fn independent_marginals_overstate_two_path_availability() {
        use crate::srlg::SrlgSet;
        let t = topologies::toy4();
        let mut srlgs = SrlgSet::new(&t);
        srlgs.add("conduit", 0.01, &[GroupId(1), GroupId(3)]);
        let beta = 0.999;

        // Availability of "e2 up or e4 up" = 1 - P(both down), exact under
        // each model (full enumeration, no pruning residual).
        let avail = |set: &ScenarioSet| -> f64 {
            set.iter()
                .filter(|s| !(s.failed.contains(1) && s.failed.contains(3)))
                .map(|s| s.probability)
                .sum()
        };

        let marginal = srlgs.marginal_topology(&t);
        let indep = ScenarioSet::enumerate(&marginal, marginal.num_groups());
        let corr = srlgs.enumerate(&t, t.num_groups() + srlgs.len());

        let a_indep = avail(&indep);
        let a_corr = avail(&corr);
        assert!(a_indep >= beta, "independence accepts: {a_indep}");
        assert!(a_corr < beta, "correlated rejects: {a_corr}");
        // The gap is the conduit probability, not rounding noise.
        assert!(a_indep - a_corr > 0.009, "gap {}", a_indep - a_corr);
    }

    /// `n` scenarios over three fate groups: group 0 is down in none of
    /// them, group 1 in all but scenario 0, group 2 in every third.
    fn synthetic(n: usize) -> ScenarioSet {
        let scenario = |z: usize| {
            let down = [(z > 0, 1), (z % 3 == 1, 2)];
            let down: Vec<usize> = down.iter().filter(|d| d.0).map(|d| d.1).collect();
            Scenario {
                failed: LinkSet::from_indices(3, &down),
                probability: 1.0 / n as f64,
            }
        };
        ScenarioSet::from_scenarios((0..n).map(scenario).collect(), 2)
    }

    #[test]
    fn partition_classes_are_disjoint_ordered_and_cover_every_word_boundary() {
        let tunnels = [
            vec![GroupId(0)],
            vec![GroupId(2), GroupId(2)],
            vec![GroupId(1), GroupId(0)],
        ];
        for n in [1, 63, 64, 65, 128] {
            let set = synthetic(n);
            let part = set.partition(&tunnels);
            let mut seen = vec![false; n];
            let mut lowest = Vec::new();
            for (c, class) in part.classes().iter().enumerate() {
                lowest.push(class.iter().next().expect("non-empty"));
                for z in class.iter() {
                    assert!(z < n, "n={n}: member {z} beyond the set");
                    assert!(
                        !std::mem::replace(&mut seen[z], true),
                        "n={n}: {z} in two classes"
                    );
                    for (t, groups) in tunnels.iter().enumerate() {
                        let up = groups.iter().all(|&g| set.scenarios[z].group_up(g));
                        assert_eq!(part.is_up(c, t), up, "n={n} scenario {z} tunnel {t}");
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "n={n}: classes do not cover the set"
            );
            assert!(lowest.windows(2).all(|w| w[0] < w[1]), "n={n}: {lowest:?}");
            // Patterns present: all up (z = 0), tunnel 2 down (z % 3 != 1),
            // tunnels 1 and 2 down (z % 3 == 1).
            assert_eq!(lowest, [0, 1, 2][..n.min(3)], "n={n}");
            let total = set.probability_of(&set.all);
            assert!((total - 1.0).abs() < 1e-12, "n={n}: {total}");
        }
    }

    #[test]
    fn partition_by_a_group_that_never_or_nearly_always_fails() {
        for n in [1, 64, 65] {
            let set = synthetic(n);
            // No tunnels, or one over a group that is never down: one class.
            for tunnels in [vec![], vec![vec![GroupId(0)]]] {
                let part = set.partition(&tunnels);
                assert_eq!(part.classes(), std::slice::from_ref(&set.all), "n={n}");
                assert!(tunnels.is_empty() || part.is_up(0, 0));
            }
            // Down in all but scenario 0: {0} and the rest.
            let part = set.partition(&[vec![GroupId(1)]]);
            assert_eq!(part.classes()[0].iter().collect::<Vec<_>>(), [0], "n={n}");
            assert!(part.is_up(0, 0));
            assert_eq!(part.classes().len(), n.min(2), "n={n}");
            if n > 1 {
                assert_eq!(
                    part.classes()[1].iter().collect::<Vec<_>>(),
                    (1..n).collect::<Vec<_>>()
                );
                assert!(!part.is_up(1, 0));
            }
        }
    }

    #[test]
    fn max_failures_beyond_groups_is_full_enumeration() {
        let t = topologies::toy4();
        let set = ScenarioSet::enumerate(&t, 100);
        assert_eq!(set.len(), 16);
    }
}
