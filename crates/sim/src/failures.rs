//! The link failure/repair process.
//!
//! The testbed (§5.1) rolls a die every second per link: fail with
//! probability `x_i`, then repair after `repair_time` seconds (3 s default;
//! Fig. 20 sweeps 0.5–4 s). Event-driven equivalent: the gap between
//! repairs and the next failure is geometric with success probability
//! `x_i`, which we sample directly so long simulations never tick through
//! quiet seconds.
//!
//! With an [`SrlgSet`] attached ([`FailureProcess::with_srlgs`]) the dice
//! are rolled per independent Bernoulli *event* — one residual event per
//! fate group plus one per SRLG — and a fate group is down iff at least one
//! active event covers it (reference-counted, so overlapping SRLG and
//! residual failures repair independently without flapping the group).

use bate_net::{GroupId, LinkSet, Scenario, SrlgSet, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Tracks which failure events are active, which fate groups that takes
/// down, and samples failure gaps.
pub struct FailureProcess {
    /// Per-event failure probability per second. Events `0..num_groups`
    /// are the per-group residual events; later indices are SRLG events.
    probs: Vec<f64>,
    /// Fate groups covered by each event.
    covers: Vec<LinkSet>,
    /// Which events are currently active.
    event_down: Vec<bool>,
    /// Per-group count of active covering events.
    cover_counts: Vec<u32>,
    /// Currently failed groups (covered by ≥ 1 active event).
    down: LinkSet,
    /// How long a failure lasts, seconds.
    pub repair_time: f64,
    /// The SRLG layer, when correlated failures are modeled.
    srlgs: Option<SrlgSet>,
}

impl FailureProcess {
    /// Independent per-group failures (the paper's model).
    pub fn new(topo: &Topology, repair_time: f64) -> FailureProcess {
        let n = topo.num_groups();
        FailureProcess {
            probs: topo.groups().map(|(_, g)| g.failure_prob).collect(),
            covers: (0..n).map(|i| LinkSet::from_indices(n, &[i])).collect(),
            event_down: vec![false; n],
            cover_counts: vec![0; n],
            down: LinkSet::new(n),
            repair_time,
            srlgs: None,
        }
    }

    /// SRLG-aware process: per-group residual events plus one event per
    /// shared-risk group, all independent.
    pub fn with_srlgs(topo: &Topology, srlgs: &SrlgSet, repair_time: f64) -> FailureProcess {
        let events = srlgs.events(topo);
        FailureProcess {
            probs: events.iter().map(|e| e.prob).collect(),
            covers: events.into_iter().map(|e| e.cover).collect(),
            event_down: vec![false; topo.num_groups() + srlgs.len()],
            cover_counts: vec![0; topo.num_groups()],
            down: LinkSet::new(topo.num_groups()),
            repair_time,
            srlgs: Some(srlgs.clone()),
        }
    }

    /// Sample the number of seconds from now until `group`'s residual
    /// event next fires (geometric with parameter `x_i`, ≥ 1 second).
    pub fn sample_gap(&self, rng: &mut StdRng, group: GroupId) -> f64 {
        self.sample_event_gap(rng, group.index())
    }

    /// Sample the seconds until failure event `event` next fires.
    pub fn sample_event_gap(&self, rng: &mut StdRng, event: usize) -> f64 {
        let x = self.probs[event];
        if x <= 0.0 {
            return f64::INFINITY;
        }
        // Geometric via inverse CDF: ceil(ln(1-u) / ln(1-x)).
        let u: f64 = rng.gen_range(0.0f64..1.0);
        ((1.0 - u).ln() / (1.0 - x).ln()).ceil().max(1.0)
    }

    /// Mark a group failed (its residual event fires). Returns false if
    /// the group was already down (the new failure is absorbed).
    pub fn fail(&mut self, group: GroupId) -> bool {
        if self.down.contains(group.index()) {
            return false;
        }
        self.fail_event(group.index());
        true
    }

    /// Activate a failure event. Returns false if it was already active.
    /// All covered fate groups go down (reference-counted).
    pub fn fail_event(&mut self, event: usize) -> bool {
        if self.event_down[event] {
            return false;
        }
        self.event_down[event] = true;
        // Clone keeps the borrow checker happy; covers are a few words.
        let cover = self.covers[event].clone();
        for g in cover.iter() {
            self.cover_counts[g] += 1;
            if self.cover_counts[g] == 1 {
                self.down.insert(g);
            }
        }
        true
    }

    /// Mark a group repaired (its residual event clears). The group stays
    /// down if an active SRLG event still covers it.
    pub fn repair(&mut self, group: GroupId) {
        self.repair_event(group.index());
    }

    /// Deactivate a failure event; covered groups come back up once no
    /// active event covers them.
    pub fn repair_event(&mut self, event: usize) {
        if !self.event_down[event] {
            return;
        }
        self.event_down[event] = false;
        let cover = self.covers[event].clone();
        for g in cover.iter() {
            self.cover_counts[g] -= 1;
            if self.cover_counts[g] == 0 {
                self.down.remove(g);
            }
        }
    }

    /// Is the event currently active?
    pub fn event_active(&self, event: usize) -> bool {
        self.event_down[event]
    }

    /// Is anything failed right now?
    pub fn any_down(&self) -> bool {
        !self.down.is_empty()
    }

    /// Currently failed groups.
    pub fn failed_groups(&self) -> Vec<GroupId> {
        self.down.iter().map(GroupId).collect()
    }

    /// The current network state as a [`Scenario`] (probability field set
    /// to the analytic probability of this exact state — the correlated
    /// joint probability when SRLGs are attached).
    pub fn current_scenario(&self, topo: &Topology) -> Scenario {
        let probability = match &self.srlgs {
            Some(srlgs) => srlgs.state_probability(topo, &self.down),
            None => bate_net::scenario::scenario_probability(topo, &self.down),
        };
        Scenario {
            failed: self.down.clone(),
            probability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies;
    use rand::SeedableRng;

    #[test]
    fn gap_distribution_matches_probability() {
        let topo = topologies::testbed6();
        let fp = FailureProcess::new(&topo, 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        // L4 (DC4-DC5) fails 1% per second: mean gap ≈ 100 s.
        let n = |s: &str| topo.find_node(s).unwrap();
        let l4 = topo.find_link(n("DC4"), n("DC5")).unwrap();
        let g = topo.link(l4).group;
        let trials = 20_000;
        let mean: f64 =
            (0..trials).map(|_| fp.sample_gap(&mut rng, g)).sum::<f64>() / trials as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean gap {mean}");
    }

    #[test]
    fn fail_repair_cycle() {
        let topo = topologies::toy4();
        let mut fp = FailureProcess::new(&topo, 3.0);
        let g = GroupId(0);
        assert!(!fp.any_down());
        assert!(fp.fail(g));
        assert!(!fp.fail(g), "double failure absorbed");
        assert!(fp.any_down());
        assert_eq!(fp.failed_groups(), vec![g]);
        let sc = fp.current_scenario(&topo);
        assert_eq!(sc.num_failures(), 1);
        fp.repair(g);
        assert!(!fp.any_down());
    }

    #[test]
    fn zero_probability_never_fails() {
        let mut topo = bate_net::Topology::new("t");
        let a = topo.add_node("A");
        let b = topo.add_node("B");
        topo.add_duplex_link(a, b, 1.0, 0.0);
        let fp = FailureProcess::new(&topo, 3.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(fp.sample_gap(&mut rng, GroupId(0)).is_infinite());
    }

    #[test]
    fn srlg_event_downs_all_covered_groups() {
        let topo = topologies::toy4();
        let mut srlgs = SrlgSet::new(&topo);
        srlgs.add("cut", 0.01, &[GroupId(1), GroupId(3)]);
        let mut fp = FailureProcess::with_srlgs(&topo, &srlgs, 3.0);

        let srlg_event = topo.num_groups(); // first (only) SRLG
        assert!(fp.fail_event(srlg_event));
        assert!(!fp.fail_event(srlg_event), "double event absorbed");
        assert_eq!(fp.failed_groups(), vec![GroupId(1), GroupId(3)]);

        // A residual failure on a covered group overlaps the SRLG…
        assert!(!fp.fail(GroupId(1)), "group already down — absorbed");
        fp.fail_event(1); // …unless driven at the event level.
        // Repairing the SRLG leaves group 1 down (its residual event is
        // still active) and brings group 3 back.
        fp.repair_event(srlg_event);
        assert_eq!(fp.failed_groups(), vec![GroupId(1)]);
        fp.repair(GroupId(1));
        assert!(!fp.any_down());
    }

    #[test]
    fn srlg_scenario_probability_is_correlated() {
        let topo = topologies::toy4();
        let mut srlgs = SrlgSet::new(&topo);
        srlgs.add("cut", 0.01, &[GroupId(1), GroupId(3)]);
        let mut fp = FailureProcess::with_srlgs(&topo, &srlgs, 3.0);
        fp.fail_event(topo.num_groups());
        let sc = fp.current_scenario(&topo);
        assert_eq!(sc.num_failures(), 2);
        let exact = srlgs.state_probability(&topo, &sc.failed);
        assert_eq!(sc.probability, exact);
        // Far above the independence product over the raw per-group probs.
        let indep = bate_net::scenario::scenario_probability(&topo, &sc.failed);
        assert!(sc.probability / indep > 100.0, "{} vs {indep}", sc.probability);
    }
}
