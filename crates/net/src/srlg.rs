//! Shared-risk link groups (SRLGs) and correlated failure scenarios.
//!
//! The paper's availability guarantee (§3.1) prices scenarios under
//! per-fate-group independence. Real inter-DC WANs also fail in *shared
//! risk link groups*: several physical links ride one conduit, line card,
//! or geographic corridor, and a single fiber cut takes all of them down
//! together. This module extends the fate-group idea one level up — from
//! "two directed links share a physical fiber" to "several physical links
//! share a conduit" — without giving up exact probabilities.
//!
//! ## Event model
//!
//! Failures are driven by independent Bernoulli *events*:
//!
//! * one **residual** event per fate group `i`, firing with the group's own
//!   probability `x_i` from the [`Topology`] (lightning on that one span,
//!   optics, per-link maintenance), and
//! * one event per SRLG `j`, firing with probability `q_j` and covering a
//!   set of fate groups `C_j` (the conduit cut).
//!
//! A fate group is down iff at least one event covering it fired. With no
//! SRLGs this reduces *exactly* to the paper's independence model, so every
//! downstream consumer ([`ScenarioSet`], the Eq. 4 availability rows, the
//! separation oracle) keeps its semantics. With SRLGs, distinct event
//! subsets can induce the same down-set; [`SrlgSet::enumerate`] merges them
//! so each emitted [`Scenario`] carries the exact joint probability of its
//! down-set (restricted to at most `max_events` fired events — the same
//! pruning-by-depth idea as §3.3, with the residual mass again treated as
//! never qualified, keeping the availability estimate a lower bound).

use crate::graph::{GroupId, NodeId, Topology};
use crate::linkset::LinkSet;
use crate::scenario::{count_scenarios, Scenario, ScenarioSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Identifier of a shared-risk link group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SrlgId(pub usize);

impl SrlgId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named fiber-cut group: fate groups that go down together when the
/// shared event (conduit cut, line-card loss) fires.
#[derive(Debug, Clone)]
pub struct Srlg {
    pub name: String,
    /// Probability `q_j` that the shared event is active at any moment.
    pub failure_prob: f64,
    /// Fate groups covered by the event (indices into the topology's
    /// groups).
    pub groups: LinkSet,
}

/// One independent Bernoulli failure event: its probability and the fate
/// groups it takes down. Events `0..num_groups` are the per-group residual
/// events; events `num_groups..` are the SRLGs, in insertion order.
#[derive(Debug, Clone)]
pub struct FailureEvent {
    pub prob: f64,
    pub cover: LinkSet,
}

/// A set of SRLGs layered over one topology's fate groups.
#[derive(Debug, Clone)]
pub struct SrlgSet {
    num_groups: usize,
    srlgs: Vec<Srlg>,
}

impl SrlgSet {
    /// Empty SRLG set for `topo` (pure independence until groups are added).
    pub fn new(topo: &Topology) -> SrlgSet {
        SrlgSet {
            num_groups: topo.num_groups(),
            srlgs: Vec::new(),
        }
    }

    /// Add a named SRLG over the given fate groups.
    pub fn add(&mut self, name: &str, failure_prob: f64, groups: &[GroupId]) -> SrlgId {
        assert!(
            (0.0..1.0).contains(&failure_prob),
            "SRLG failure probability must be in [0, 1)"
        );
        assert!(!groups.is_empty(), "SRLG must cover at least one fate group");
        let mut set = LinkSet::new(self.num_groups);
        for g in groups {
            set.insert(g.index());
        }
        let id = SrlgId(self.srlgs.len());
        self.srlgs.push(Srlg {
            name: name.to_string(),
            failure_prob,
            groups: set,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.srlgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.srlgs.is_empty()
    }

    /// Number of fate groups in the underlying topology.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    pub fn get(&self, id: SrlgId) -> &Srlg {
        &self.srlgs[id.0]
    }

    pub fn iter(&self) -> impl Iterator<Item = (SrlgId, &Srlg)> {
        self.srlgs.iter().enumerate().map(|(i, s)| (SrlgId(i), s))
    }

    /// SRLGs whose cover contains the fate group.
    pub fn covering(&self, g: GroupId) -> Vec<SrlgId> {
        (0..self.srlgs.len())
            .filter(|&j| self.srlgs[j].groups.contains(g.index()))
            .map(SrlgId)
            .collect()
    }

    /// The full independent-event list: residual per-group events first
    /// (probabilities from `topo`), then one event per SRLG.
    pub fn events(&self, topo: &Topology) -> Vec<FailureEvent> {
        assert_eq!(
            topo.num_groups(),
            self.num_groups,
            "SRLG set built for a different topology"
        );
        let mut out: Vec<FailureEvent> = topo
            .groups()
            .map(|(g, def)| FailureEvent {
                prob: def.failure_prob,
                cover: LinkSet::from_indices(self.num_groups, &[g.index()]),
            })
            .collect();
        out.extend(self.srlgs.iter().map(|s| FailureEvent {
            prob: s.failure_prob,
            cover: s.groups.clone(),
        }));
        out
    }

    /// Probability that *no* event fires anywhere (`Π_e (1 - q_e)`). Equals
    /// [`Topology::all_up_probability`] when the set is empty.
    pub fn all_up_probability(&self, topo: &Topology) -> f64 {
        self.events(topo).iter().map(|e| 1.0 - e.prob).product()
    }

    /// Marginal failure probability of one fate group:
    /// `1 - Π_{e ∋ g} (1 - q_e)`. This is what an observer estimating
    /// per-link probabilities from uptime logs would measure — and what an
    /// independence-assuming model would (wrongly) multiply.
    pub fn marginal_failure_prob(&self, topo: &Topology, g: GroupId) -> f64 {
        let mut up = 1.0 - topo.group(g).failure_prob;
        for s in &self.srlgs {
            if s.groups.contains(g.index()) {
                up *= 1.0 - s.failure_prob;
            }
        }
        1.0 - up
    }

    /// A copy of `topo` whose per-group failure probabilities are the
    /// correlated model's *marginals*. Enumerating this copy independently
    /// is the "what a correlation-blind operator would compute" baseline
    /// that the negative tests difference against.
    pub fn marginal_topology(&self, topo: &Topology) -> Topology {
        let mut t = topo.clone();
        for (g, _) in topo.groups() {
            t.set_group_failure_prob(g, self.marginal_failure_prob(topo, g));
        }
        t
    }

    /// The fate groups taken down by a set of fired events (union of their
    /// covers). A group is down iff some fired event covers it.
    pub fn down_groups(&self, topo: &Topology, fired: &[usize]) -> LinkSet {
        let events = self.events(topo);
        let mut down = LinkSet::new(self.num_groups);
        for &e in fired {
            for g in events[e].cover.iter() {
                down.insert(g);
            }
        }
        down
    }

    /// Exact probability that the down-set is *exactly* `failed`: every
    /// event not confined to `failed` stays quiet, and the events confined
    /// to `failed` fire in some combination whose covers union to `failed`.
    ///
    /// # Panics
    ///
    /// Panics if more than 22 events are confined to `failed` (the inner
    /// sum is exponential in that count; real down-sets are small).
    pub fn state_probability(&self, topo: &Topology, failed: &LinkSet) -> f64 {
        let events = self.events(topo);
        let mut outside = 1.0;
        let mut inside: Vec<&FailureEvent> = Vec::new();
        for e in &events {
            if e.cover.is_subset(failed) {
                inside.push(e);
            } else {
                outside *= 1.0 - e.prob;
            }
        }
        assert!(
            inside.len() <= 22,
            "state_probability: {} events inside the down-set",
            inside.len()
        );
        let need = failed.count();
        let mut counts = vec![0u32; self.num_groups];
        let mut total = 0.0;
        sum_exact_covers(&inside, 0, 1.0, &mut counts, 0, need, &mut total);
        outside * total
    }

    /// A [`Scenario`] for the given failed fate groups with the exact
    /// correlated state probability (the SRLG-aware counterpart of
    /// [`Scenario::with_failures`]).
    pub fn scenario(&self, topo: &Topology, groups: &[GroupId]) -> Scenario {
        let mut failed = LinkSet::new(self.num_groups);
        for g in groups {
            failed.insert(g.index());
        }
        let probability = self.state_probability(topo, &failed);
        Scenario {
            failed,
            probability,
        }
    }

    /// Enumerate all down-sets reachable by at most `max_events` fired
    /// events, with exact joint probabilities.
    ///
    /// Event subsets inducing the same down-set are merged (their
    /// probabilities add), so each returned [`Scenario`] carries the full
    /// probability of its down-set within the enumerated depth. The
    /// residual is the mass of subsets with more than `max_events` fired
    /// events — treated as never qualified downstream, exactly like the
    /// §3.3 pruning, so availability stays a lower bound.
    ///
    /// Invariants shared with [`ScenarioSet::enumerate`]: index 0 is the
    /// all-up scenario, ordering is the deterministic depth-first
    /// enumeration order (each down-set sits at the position of the first
    /// event subset that reaches it), and `covered_probability()` is
    /// monotone in `max_events`.
    ///
    /// # Panics
    ///
    /// Panics if the event-subset enumeration would exceed 20 million
    /// states.
    pub fn enumerate(&self, topo: &Topology, max_events: usize) -> ScenarioSet {
        let events = self.events(topo);
        let ne = events.len();
        let expected = count_scenarios(ne, max_events);
        assert!(
            expected <= 20_000_000,
            "pruning depth {max_events} on {ne} failure events yields {expected} subsets"
        );

        let all_up_p: f64 = events.iter().map(|e| 1.0 - e.prob).product();
        let ratio: Vec<f64> = events.iter().map(|e| e.prob / (1.0 - e.prob)).collect();

        let mut scenarios = vec![Scenario {
            failed: LinkSet::new(self.num_groups),
            probability: all_up_p,
        }];
        let mut index: HashMap<LinkSet, usize> = HashMap::new();
        index.insert(scenarios[0].failed.clone(), 0);

        // States appear in the same depth-first order as the independent
        // `enumerate_combos` walk (first event subset to reach each
        // down-set wins the slot; later duplicates add in place), so with
        // zero SRLGs the result is identical to `ScenarioSet::enumerate`
        // and the ordering is deterministic per `(topo, srlgs)`.
        let mut walk = EventWalk {
            events: &events,
            ratio: &ratio,
            counts: vec![0u32; self.num_groups],
            down: LinkSet::new(self.num_groups),
            index: &mut index,
            out: &mut scenarios,
        };
        walk.recurse(max_events, 0, all_up_p);

        ScenarioSet::from_scenarios(scenarios, max_events)
    }

    /// Seeded SRLG generator for the synthetic topologies (B4/IBM/ATT/…).
    ///
    /// Conduit heuristic: physical links leaving the same data center share
    /// ducts out of the building, so each node with at least two incident
    /// fate groups may contribute one SRLG bundling 2–3 of them. Roughly a
    /// third of eligible nodes get a conduit; event probabilities are
    /// log-uniform in `[1e-4, 1e-2]` (fiber-cut scale — rarer than optics
    /// flaps, far more damaging). Deterministic per `(topo, seed)`.
    pub fn generate(topo: &Topology, seed: u64) -> SrlgSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SrlgSet::new(topo);

        // Fate groups incident to each node (via either directed link).
        let mut incident: Vec<Vec<GroupId>> = vec![Vec::new(); topo.num_nodes()];
        for (g, def) in topo.groups() {
            let mut nodes: Vec<NodeId> = Vec::new();
            for &l in &def.links {
                let link = topo.link(l);
                for n in [link.src, link.dst] {
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
            }
            for n in nodes {
                incident[n.index()].push(g);
            }
        }

        for node in topo.nodes() {
            let groups = &incident[node.index()];
            if groups.len() < 2 || !rng.gen_bool(0.35) {
                continue;
            }
            let take = rng.gen_range(2..=groups.len().min(3));
            // Seeded choice of `take` distinct incident groups.
            let mut pool: Vec<GroupId> = groups.clone();
            let mut chosen = Vec::with_capacity(take);
            for _ in 0..take {
                let k = rng.gen_range(0..pool.len());
                chosen.push(pool.swap_remove(k));
            }
            // Log-uniform in [1e-4, 1e-2].
            let exp = rng.gen_range(-4.0..=-2.0f64);
            let q = 10f64.powf(exp);
            let name = format!("conduit-{}", topo.node_name(node));
            set.add(&name, q, &chosen);
        }
        set
    }
}

/// Sum over subsets of `inside` events whose covers union to the full
/// down-set (all `need` groups touched). `prob` carries `Π q` / `Π (1-q)`
/// factors of the decided prefix; `counts` ref-counts group coverage so
/// overlapping covers backtrack cleanly.
fn sum_exact_covers(
    inside: &[&FailureEvent],
    i: usize,
    prob: f64,
    counts: &mut [u32],
    covered: usize,
    need: usize,
    total: &mut f64,
) {
    if i == inside.len() {
        if covered == need {
            *total += prob;
        }
        return;
    }
    let e = inside[i];
    // Event off.
    sum_exact_covers(inside, i + 1, prob * (1.0 - e.prob), counts, covered, need, total);
    // Event on.
    let mut newly = 0;
    for g in e.cover.iter() {
        counts[g] += 1;
        if counts[g] == 1 {
            newly += 1;
        }
    }
    sum_exact_covers(
        inside,
        i + 1,
        prob * e.prob,
        counts,
        covered + newly,
        need,
        total,
    );
    for g in e.cover.iter() {
        counts[g] -= 1;
    }
}

/// Recursive event-subset walk for [`SrlgSet::enumerate`]: the same
/// ratio-trick combination walk as the independent enumeration, with the
/// down-set maintained incrementally via per-group cover counts and merged
/// into `out` through `index`.
struct EventWalk<'a> {
    events: &'a [FailureEvent],
    ratio: &'a [f64],
    counts: Vec<u32>,
    down: LinkSet,
    index: &'a mut HashMap<LinkSet, usize>,
    out: &'a mut Vec<Scenario>,
}

impl EventWalk<'_> {
    fn recurse(&mut self, depth_left: usize, start: usize, prob: f64) {
        if depth_left == 0 {
            return;
        }
        for e in start..self.events.len() {
            for g in self.events[e].cover.iter() {
                self.counts[g] += 1;
                if self.counts[g] == 1 {
                    self.down.insert(g);
                }
            }
            let p = prob * self.ratio[e];
            if let Some(&i) = self.index.get(&self.down) {
                self.out[i].probability += p;
            } else {
                self.index.insert(self.down.clone(), self.out.len());
                self.out.push(Scenario {
                    failed: self.down.clone(),
                    probability: p,
                });
            }
            self.recurse(depth_left - 1, e + 1, p);
            for g in self.events[e].cover.iter() {
                self.counts[g] -= 1;
                if self.counts[g] == 0 {
                    self.down.remove(g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSet;
    use crate::topologies;

    #[test]
    fn empty_srlg_set_matches_independent_enumeration() {
        let t = topologies::toy4();
        let set = SrlgSet::new(&t);
        for y in 0..=3 {
            let corr = set.enumerate(&t, y);
            let indep = ScenarioSet::enumerate(&t, y);
            assert_eq!(corr.len(), indep.len(), "y={y}");
            for (a, b) in corr.iter().zip(indep.iter()) {
                assert_eq!(a.failed, b.failed);
                assert!((a.probability - b.probability).abs() < 1e-15);
            }
            assert!((corr.residual_probability - indep.residual_probability).abs() < 1e-12);
        }
    }

    #[test]
    fn full_correlated_enumeration_sums_to_one() {
        let t = topologies::toy4();
        let mut set = SrlgSet::new(&t);
        set.add("cut", 0.01, &[GroupId(1), GroupId(3)]);
        let n_events = t.num_groups() + 1;
        let full = set.enumerate(&t, n_events);
        let total: f64 = full.iter().map(|s| s.probability).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert!(full.residual_probability < 1e-12);
        // All-up first; every down-set appears exactly once.
        assert!(full.scenarios[0].failed.is_empty());
        let mut seen = std::collections::HashSet::new();
        for s in full.iter() {
            assert!(seen.insert(s.failed.clone()), "duplicate down-set");
        }
    }

    #[test]
    fn merged_state_probability_matches_exact() {
        let t = topologies::toy4();
        let mut set = SrlgSet::new(&t);
        set.add("cut", 0.01, &[GroupId(1), GroupId(3)]);
        let full = set.enumerate(&t, t.num_groups() + 1);
        for s in full.iter() {
            let exact = set.state_probability(&t, &s.failed);
            assert!(
                (s.probability - exact).abs() < 1e-14,
                "state {:?}: merged {} vs exact {}",
                s.failed.iter().collect::<Vec<_>>(),
                s.probability,
                exact
            );
        }
    }

    #[test]
    fn srlg_pair_fails_together_far_more_often_than_independence_predicts() {
        let t = topologies::toy4();
        let mut set = SrlgSet::new(&t);
        // e2 and e4 (the two 0.0001% links) ride one conduit cut at 1%.
        set.add("conduit", 0.01, &[GroupId(1), GroupId(3)]);
        let both = LinkSet::from_indices(4, &[1, 3]);

        // Correlated: the pair goes down with ~the conduit probability.
        let corr = set.state_probability(&t, &both);
        assert!(corr > 0.009, "correlated joint {corr}");

        // Independence over the *marginals* (what a correlation-blind
        // observer would compute) underestimates by orders of magnitude.
        let marginal = set.marginal_topology(&t);
        let indep = crate::scenario::scenario_probability(&marginal, &both);
        assert!(indep < 1e-3, "independent joint {indep}");
        assert!(corr / indep > 50.0, "corr {corr} vs indep {indep}");
    }

    #[test]
    fn marginals_match_event_model() {
        let t = topologies::testbed6();
        let mut set = SrlgSet::new(&t);
        set.add("west", 0.005, &[GroupId(0), GroupId(5)]);
        set.add("east", 0.002, &[GroupId(2), GroupId(3), GroupId(7)]);
        // Marginal of group 0: 1 - (1-x_0)(1-0.005).
        let x0 = t.group(GroupId(0)).failure_prob;
        let want = 1.0 - (1.0 - x0) * (1.0 - 0.005);
        let got = set.marginal_failure_prob(&t, GroupId(0));
        assert!((got - want).abs() < 1e-15);
        // Uncovered group keeps its own probability.
        let x1 = t.group(GroupId(1)).failure_prob;
        assert!((set.marginal_failure_prob(&t, GroupId(1)) - x1).abs() < 1e-15);
        // Full correlated enumeration's per-group marginal agrees.
        let full = set.enumerate(&t, t.num_groups() + 2);
        let m0: f64 = full
            .iter()
            .filter(|s| s.failed.contains(0))
            .map(|s| s.probability)
            .sum();
        assert!((m0 - want).abs() < 1e-9, "{m0} vs {want}");
    }

    #[test]
    fn covered_probability_monotone_in_depth() {
        let t = topologies::testbed6();
        let mut set = SrlgSet::new(&t);
        set.add("a", 0.004, &[GroupId(0), GroupId(1)]);
        set.add("b", 0.003, &[GroupId(4), GroupId(5), GroupId(6)]);
        let mut prev = 0.0;
        for y in 0..=4 {
            let s = set.enumerate(&t, y);
            assert!(
                s.covered_probability() >= prev - 1e-15,
                "y={y}: {} < {prev}",
                s.covered_probability()
            );
            prev = s.covered_probability();
        }
    }

    #[test]
    fn generator_is_deterministic_and_well_formed() {
        for topo in [topologies::b4(), topologies::ibm(), topologies::att()] {
            let a = SrlgSet::generate(&topo, 7);
            let b = SrlgSet::generate(&topo, 7);
            assert_eq!(a.len(), b.len(), "{}", topo.name());
            assert!(!a.is_empty(), "{} should get conduits", topo.name());
            for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.failure_prob, y.failure_prob);
                assert_eq!(x.groups, y.groups);
            }
            for (_, s) in a.iter() {
                let k = s.groups.count();
                assert!((2..=3).contains(&k), "conduit of {k} groups");
                assert!((1e-4..=1e-2).contains(&s.failure_prob));
            }
            // A different seed moves the conduits.
            let c = SrlgSet::generate(&topo, 8);
            let same = a.len() == c.len()
                && a.iter().zip(c.iter()).all(|((_, x), (_, y))| x.groups == y.groups);
            assert!(!same, "{}: seed had no effect", topo.name());
        }
    }

    #[test]
    fn down_groups_is_union_of_covers() {
        let t = topologies::toy4();
        let mut set = SrlgSet::new(&t);
        set.add("cut", 0.01, &[GroupId(0), GroupId(2)]);
        // Residual event 1 + SRLG event 4 (= num_groups + 0).
        let down = set.down_groups(&t, &[1, 4]);
        let want: Vec<usize> = vec![0, 1, 2];
        assert_eq!(down.iter().collect::<Vec<_>>(), want);
    }
}
