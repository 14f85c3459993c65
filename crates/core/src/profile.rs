//! Per-demand scenario collapsing.
//!
//! The scheduling LP (Eq. 7) has one `B_d^z` variable per demand and
//! scenario, which explodes even with pruning (B4 at `y = 2` already yields
//! 742 scenarios). But the LP only observes a scenario through the tunnel
//! availabilities `v_t^z` of *that demand's* tunnels: two scenarios that
//! leave the same subset of a demand's tunnels alive are interchangeable,
//! so their probabilities can be summed into a single collapsed **state**.
//! A demand with 4 tunnels has at most 16 distinct states regardless of the
//! scenario count, which is what keeps the LPs small. The collapse is exact
//! — it changes nothing about the optimum, only the model size.
//!
//! The states are the classes of [`ScenarioSet::partition`] over all the
//! demand's tunnels (bitset algebra over an inverted group → scenarios
//! index, no per-scenario loop); a state's probability is its members'
//! `p_z` added in ascending scenario order — the order a scenario-by-
//! scenario walk adds them in, so every LP coefficient is bit-identical to
//! that walk's (`bate_bench::fuzz` keeps the walk as the test oracle).
//!
//! [`ScenarioSet::partition`]: bate_net::ScenarioSet::partition

use crate::demand::BaDemand;
use crate::TeContext;

/// One collapsed failure state as seen by a single demand.
#[derive(Debug, Clone)]
pub struct ProfileState {
    /// `avail[i][j]`: is tunnel `j` of the demand's `i`-th pair up?
    /// Pairs are indexed in the order they appear in `demand.bandwidth`.
    pub avail: Vec<Vec<bool>>,
    /// Total probability of all scenarios collapsing to this state.
    pub probability: f64,
}

impl ProfileState {
    /// True if every tunnel of every pair is up.
    pub fn all_up(&self) -> bool {
        self.avail.iter().all(|pair| pair.iter().all(|&b| b))
    }
}

/// The collapsed scenario profile of one demand.
#[derive(Debug, Clone)]
pub struct DemandProfile {
    /// Distinct states, first-seen order (the all-up state of scenario 0 is
    /// always index 0).
    pub states: Vec<ProfileState>,
}

impl DemandProfile {
    /// Collapse the context's scenario set against one demand: the bool
    /// view of [`MaskedProfile::collapse`] (and its panic contract).
    pub fn collapse(ctx: &TeContext, demand: &BaDemand) -> DemandProfile {
        let masked = MaskedProfile::collapse(ctx, demand, &[]);
        let avail = |si: usize, (ki, &(pair, _)): (usize, &(usize, f64))| {
            let tunnels = ctx.tunnels.tunnels(pair).len();
            (0..tunnels).map(|ti| masked.avail(si, ki, ti)).collect()
        };
        let state = |(si, s): (usize, &MaskedState)| ProfileState {
            avail: demand
                .bandwidth
                .iter()
                .enumerate()
                .map(|k| avail(si, k))
                .collect(),
            probability: s.probability,
        };
        DemandProfile {
            states: masked.states.iter().enumerate().map(state).collect(),
        }
    }

    /// Number of collapsed states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total covered probability (equals the scenario set's coverage).
    pub fn covered_probability(&self) -> f64 {
        self.states.iter().map(|s| s.probability).sum()
    }
}

/// One collapsed state in bitmask form: one `u64` of tunnel-availability
/// bits per requested pair.
#[derive(Debug, Clone)]
pub struct MaskedState {
    /// `masks[i] >> t & 1`: is tunnel `t` of the demand's `i`-th pair up?
    pub masks: Vec<u64>,
    /// Total probability of all scenarios collapsing to this state.
    pub probability: f64,
}

/// Bitmask form of [`DemandProfile`], built for the row-generation path:
/// the separation oracle evaluates a qualification row with one masked
/// popcount-style sweep per pair instead of a bool-matrix walk. State
/// indices are interchangeable between the two representations.
#[derive(Debug, Clone)]
pub struct MaskedProfile {
    /// Distinct states, first-seen order (scenario 0's all-up state is
    /// always index 0).
    pub states: Vec<MaskedState>,
    /// For each scenario index in the `tracked` argument of
    /// [`MaskedProfile::collapse`], the collapsed state it landed in —
    /// how the row-generation seed scenarios map to master-LP rows.
    pub tracked_states: Vec<usize>,
}

impl MaskedProfile {
    /// Collapse the context's scenario set against one demand, recording
    /// where each scenario index in `tracked` ends up.
    ///
    /// # Panics
    ///
    /// Panics if any requested pair has more than 64 tunnels (the paper's
    /// routing uses KSP-4; the `u64` masks cap far above that), or if a
    /// `tracked` index is not a scenario of the set.
    pub fn collapse(ctx: &TeContext, demand: &BaDemand, tracked: &[usize]) -> MaskedProfile {
        // Every tunnel's fate groups in (pair, tunnel) order, and where each
        // pair's tunnels sit in that list.
        let mut groups = Vec::new();
        let mut spans = Vec::with_capacity(demand.bandwidth.len());
        for &(pair, _) in &demand.bandwidth {
            let tunnels = ctx.tunnels.tunnels(pair);
            assert!(
                tunnels.len() <= 64,
                "pair {pair} has {} tunnels; masks hold at most 64",
                tunnels.len()
            );
            spans.push((groups.len(), tunnels.len()));
            groups.extend(tunnels.iter().map(|path| path.groups(ctx.topo)));
        }
        let part = ctx.scenarios.partition(&groups);
        let mask = |c: usize, &(first, len): &(usize, usize)| {
            let up = (0..len).filter(|&t| part.is_up(c, first + t));
            up.fold(0u64, |m, t| m | 1 << t)
        };
        let state = |(c, members)| MaskedState {
            masks: spans.iter().map(|span| mask(c, span)).collect(),
            probability: ctx.scenarios.probability_of(members),
        };
        let state_of = |&z: &usize| {
            let holder = part.classes().iter().position(|class| class.contains(z));
            holder.expect("tracked index within the scenario set")
        };
        MaskedProfile {
            states: part.classes().iter().enumerate().map(state).collect(),
            tracked_states: tracked.iter().map(state_of).collect(),
        }
    }

    /// Is tunnel `ti` of pair `ki` up in state `si`?
    pub fn avail(&self, si: usize, ki: usize, ti: usize) -> bool {
        self.states[si].masks[ki] >> ti & 1 == 1
    }

    /// Number of collapsed states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total covered probability (equals the scenario set's coverage).
    pub fn covered_probability(&self) -> f64 {
        self.states.iter().map(|s| s.probability).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn collapse_is_probability_preserving() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let d = BaDemand::single(1, pair, 100.0, 0.99);
        let profile = DemandProfile::collapse(&ctx, &d);
        assert!((profile.covered_probability() - scenarios.covered_probability()).abs() < 1e-12);
        // Collapsing must shrink the 37-scenario set dramatically: a pair
        // with 4 tunnels has at most 16 states.
        assert!(profile.len() <= 16, "{} states", profile.len());
        assert!(profile.len() < scenarios.len());
        assert!(profile.states[0].all_up());
    }

    #[test]
    fn states_are_distinct() {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, topo.num_groups());
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 100.0, 0.99);
        let profile = DemandProfile::collapse(&ctx, &d);
        let mut seen = std::collections::HashSet::new();
        for s in &profile.states {
            let key: Vec<bool> = s.avail.iter().flatten().copied().collect();
            assert!(seen.insert(key), "duplicate state");
            assert!(s.probability > 0.0);
        }
        // 2 tunnels -> at most 4 states.
        assert!(profile.len() <= 4);
    }

    /// Each requested pair's tunnel up/down bits under one scenario, read
    /// off `Scenario::failed` directly — what a state's masks must equal
    /// for every scenario that collapsed into it.
    fn masks_under(ctx: &TeContext, demand: &BaDemand, scenario: &bate_net::Scenario) -> Vec<u64> {
        let up =
            |path: &bate_routing::Path| path.groups(ctx.topo).iter().all(|&g| scenario.group_up(g));
        let mask = |&(pair, _): &(usize, f64)| {
            let tunnels = ctx.tunnels.tunnels(pair).iter().enumerate();
            tunnels.fold(0u64, |m, (t, path)| m | u64::from(up(path)) << t)
        };
        demand.bandwidth.iter().map(mask).collect()
    }

    /// The invariants of a collapse, checked scenario by scenario: states
    /// are distinct, every scenario's own pattern is the masks of exactly
    /// one state and the states' probabilities are those scenarios' mass,
    /// scenario 0 is in state 0, tracked scenarios point at their state.
    fn assert_collapse_invariants(ctx: &TeContext, demand: &BaDemand, tracked: &[usize]) {
        let masked = MaskedProfile::collapse(ctx, demand, tracked);
        assert_eq!(masked.tracked_states.len(), tracked.len());
        let mut mass = vec![0.0; masked.len()];
        for (z, scenario) in ctx.scenarios.iter().enumerate() {
            let own = masks_under(ctx, demand, scenario);
            let mut holders = (0..masked.len()).filter(|&si| masked.states[si].masks == own);
            let si = holders
                .next()
                .expect("a scenario's pattern is some state's");
            assert_eq!(
                holders.next(),
                None,
                "states {si} and another share masks {own:?}"
            );
            assert!(z > 0 || si == 0, "scenario 0 landed in state {si}");
            mass[si] += scenario.probability;
            for pos in (0..tracked.len()).filter(|&pos| tracked[pos] == z) {
                assert_eq!(masked.tracked_states[pos], si, "tracked scenario {z}");
            }
        }
        for (state, mass) in masked.states.iter().zip(mass) {
            assert!(mass > 0.0, "a state no scenario collapses to");
            assert!((state.probability - mass).abs() < 1e-12);
        }
        let covered = ctx.scenarios.covered_probability();
        assert!((masked.covered_probability() - covered).abs() < 1e-12);
    }

    #[test]
    fn collapse_invariants_hold_scenario_by_scenario() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p1 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let p2 = tunnels.pair_index(n("DC2"), n("DC6")).unwrap();
        let tracked = scenarios.most_probable_singles(3);
        let mut d = BaDemand::single(3, p1, 10.0, 0.95);
        assert_collapse_invariants(&ctx, &d, &tracked);
        let all_up = u64::MAX >> (64 - tunnels.tunnels(p1).len());
        assert_eq!(
            MaskedProfile::collapse(&ctx, &d, &[]).states[0].masks,
            [all_up]
        );
        d.bandwidth.push((p2, 20.0));
        assert_collapse_invariants(&ctx, &d, &tracked);
        d.bandwidth.clear();
        assert_collapse_invariants(&ctx, &d, &tracked);
    }

    /// The first `pairs` pairs of ATT at KSP-`k` (they have more simple
    /// paths than a mask has bits).
    fn wide_att(k: usize, pairs: usize) -> (bate_net::Topology, TunnelSet) {
        let topo = topologies::att();
        let sd = &topo.sd_pairs()[..pairs];
        let tunnels = TunnelSet::compute_for_pairs(&topo, sd, RoutingScheme::Ksp(k));
        (topo, tunnels)
    }

    #[test]
    #[should_panic(expected = "masks hold at most 64")]
    fn more_than_64_tunnels_on_one_pair_panics() {
        let (topo, tunnels) = wide_att(65, 1);
        assert_eq!(
            tunnels.tunnels(0).len(),
            65,
            "ATT has 65 simple paths for pair 0"
        );
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        MaskedProfile::collapse(&ctx, &BaDemand::single(1, 0, 10.0, 0.9), &[]);
    }

    #[test]
    fn more_than_64_tunnels_over_several_pairs_still_collapse() {
        let (topo, tunnels) = wide_att(30, 3);
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let mut d = BaDemand::single(1, 0, 10.0, 0.9);
        d.bandwidth.extend([(1, 10.0), (2, 10.0)]);
        let total: usize = (0..3).map(|p| tunnels.tunnels(p).len()).sum();
        assert!(total > 64, "{total} tunnels");
        assert_collapse_invariants(&ctx, &d, &scenarios.most_probable_singles(4));
    }

    #[test]
    fn multi_pair_demand_profiles_pairs_in_order() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p1 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let p2 = tunnels.pair_index(n("DC2"), n("DC6")).unwrap();
        let d = BaDemand {
            id: crate::DemandId(9),
            bandwidth: vec![(p1, 10.0), (p2, 20.0)],
            beta: 0.9,
            price: 30.0,
            refund_ratio: 0.1,
        };
        let profile = DemandProfile::collapse(&ctx, &d);
        for s in &profile.states {
            assert_eq!(s.avail.len(), 2);
            assert_eq!(s.avail[0].len(), tunnels.tunnels(p1).len());
            assert_eq!(s.avail[1].len(), tunnels.tunnels(p2).len());
        }
    }
}
