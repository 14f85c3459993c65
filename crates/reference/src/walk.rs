//! Scenario-by-scenario walks: the definitions the shipped scenario
//! sweeps are held to.
//!
//! [`collapse_walk`] and [`achieved_availability_walk`] are the
//! scenario-by-scenario definitions of `MaskedProfile::collapse` and
//! `Allocation::achieved_availability`. The shipped versions answer from
//! bitset algebra over `ScenarioSet::partition`;
//! `crates/bench/tests/scenario_sweep.rs` holds them to these walks bit for
//! bit, and the `scenario_sweep` entry of the `lp` bench times one against
//! the other. [`relaxed_availability_walk`] is Eq. 4's fractional credit,
//! which nothing shipped computes: the scheduling LP's postcondition test
//! holds each allocation to it.

use bate_core::profile::{MaskedProfile, MaskedState};
use bate_core::{Allocation, BaDemand, TeContext};
use bate_net::LinkSet;
use std::collections::HashMap;

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

/// The *relaxed* availability of Eq. 4: scenarios earn fractional credit
/// `min_k min(1, delivered/b)` instead of all-or-nothing qualification.
/// This is exactly what the scheduling LP guarantees to be ≥ β (the paper
/// explicitly relaxes the MILP, §3.3); the hard
/// `Allocation::achieved_availability` can be lower when flow is split.
pub fn relaxed_availability_walk(ctx: &TeContext, alloc: &Allocation, demand: &BaDemand) -> f64 {
    ctx.scenarios
        .iter()
        .map(|z| {
            let credit = demand
                .bandwidth
                .iter()
                .map(|&(pair, b)| (alloc.delivered(ctx, demand.id, pair, z) / b).min(1.0))
                .fold(1.0f64, f64::min);
            z.probability * credit.max(0.0)
        })
        .sum()
}
