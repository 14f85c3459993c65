//! Admission control (§3.2).
//!
//! Demands are served first-come-first-served without preemption. When a
//! demand arrives, BATE runs a three-step strategy:
//!
//! 1. [`fixed`] — keep every admitted demand's allocation untouched and try
//!    to schedule only the newcomer on the residual capacity (for one pair,
//!    exactly: it admits iff a hard placement on the residual exists).
//! 2. [`greedy`] — Algorithm 1: a fast conjecture on whether *rescheduling
//!    everyone* could accommodate the newcomer. No false positives
//!    (Theorem 1): a conjectured "yes" always has a witnessing allocation.
//! 3. Reject.
//!
//! [`optimal`] is the admission baseline the paper solves as the
//! Appendix-A MILP ("OPT" in Fig. 7(a)/12): an exact search over each
//! demand's minimal qualifying up-sets for a pool of single-pair demands,
//! the MILP for any other pool.

pub mod fixed;
pub mod greedy;
pub mod optimal;

use crate::allocation::Allocation;
use crate::demand::BaDemand;
use crate::TeContext;
use bate_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// How a demand was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPath {
    /// Step 1: fitted into residual capacity without touching anyone.
    Fixed,
    /// Step 2: Algorithm 1 conjectured a full reschedule would fit.
    Conjecture,
}

/// Outcome of BATE's admission pipeline for one arriving demand.
#[derive(Debug, Clone)]
pub enum AdmissionOutcome {
    /// Admitted; `allocation` holds the newcomer's (possibly temporary)
    /// flows. On the [`AdmitPath::Conjecture`] path the temporary
    /// allocation may fall short of the demanded bandwidth until the next
    /// scheduling round (footnote 5 of the paper).
    Admitted {
        path: AdmitPath,
        allocation: Allocation,
    },
    Rejected,
}

/// Registry handles for the admission metric family.
struct AdmissionMetrics {
    checks: Arc<Counter>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    via_fixed: Arc<Counter>,
    via_conjecture: Arc<Counter>,
}

fn admission_metrics() -> &'static AdmissionMetrics {
    static M: OnceLock<AdmissionMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = Registry::global();
        AdmissionMetrics {
            checks: r.counter("bate_admission_checks_total"),
            admitted: r.counter("bate_admission_admitted_total"),
            rejected: r.counter("bate_admission_rejected_total"),
            via_fixed: r.counter("bate_admission_via_fixed_total"),
            via_conjecture: r.counter("bate_admission_via_conjecture_total"),
        }
    })
}

/// BATE's full admission pipeline (§3.2 steps 1–3).
///
/// `admitted` are the currently admitted demands with their current
/// allocation `current`; `new` is the arriving demand.
pub fn admit(
    ctx: &TeContext,
    admitted: &[BaDemand],
    current: &Allocation,
    new: &BaDemand,
) -> AdmissionOutcome {
    let residual = current.residual_capacities(ctx);
    decide(ctx, admitted, new, &residual)
}

/// [`admit`], given the current allocation's residual capacities.
fn decide(
    ctx: &TeContext,
    admitted: &[BaDemand],
    new: &BaDemand,
    residual: &[f64],
) -> AdmissionOutcome {
    let m = admission_metrics();
    // Inside an active trace (a controller handling a submit), the whole
    // pipeline gets a span so the LP solves under it parent correctly;
    // untraced callers (sim loops) keep the legacy event-only shape.
    let traced = bate_obs::context::current().is_some();
    let _sp = traced.then(|| bate_obs::span!("admission.pipeline", demand = new.id.0));
    let outcome = admit_inner(ctx, admitted, new, residual);
    m.checks.inc();
    let verdict = match &outcome {
        AdmissionOutcome::Admitted {
            path: AdmitPath::Fixed,
            ..
        } => {
            m.admitted.inc();
            m.via_fixed.inc();
            "fixed"
        }
        AdmissionOutcome::Admitted {
            path: AdmitPath::Conjecture,
            ..
        } => {
            m.admitted.inc();
            m.via_conjecture.inc();
            "conjecture"
        }
        AdmissionOutcome::Rejected => {
            m.rejected.inc();
            "rejected"
        }
    };
    // Deterministic fields only (verdict latency goes to the histogram,
    // never into the trace).
    bate_obs::info!(
        "admission.verdict",
        demand = new.id.0,
        beta = new.beta,
        pool = admitted.len(),
        verdict = verdict,
    );
    outcome
}

/// One FCFS fold step over an evolving pool, on fresh link loads: see
/// [`PoolLoads::admit_and_apply`].
pub fn admit_and_apply(
    ctx: &TeContext,
    admitted: &mut Vec<BaDemand>,
    current: &mut Allocation,
    new: &BaDemand,
) -> bool {
    PoolLoads::default().admit_and_apply(ctx, admitted, current, new)
}

/// The link loads of the pool an admission batch folds into, carried from
/// one [`PoolLoads::admit_and_apply`] to the next over an allocation that
/// nothing else edits meanwhile. [`Allocation::link_loads`] adds flows in
/// demand-id order, so adding a newcomer's flows whose id sorts after
/// every other is bit-identical to a recompute; any other admit drops the
/// carried loads, and the next step recomputes them.
#[derive(Debug, Default)]
pub struct PoolLoads(Option<Vec<f64>>);

impl PoolLoads {
    /// One FCFS fold step: run the pipeline for `new` and, on admission,
    /// apply its flows to `current` and append it to `admitted`. A batch
    /// folded one entry at a time decides what one-by-one submits would.
    pub fn admit_and_apply(
        &mut self,
        ctx: &TeContext,
        admitted: &mut Vec<BaDemand>,
        current: &mut Allocation,
        new: &BaDemand,
    ) -> bool {
        let loads = self.0.get_or_insert_with(|| current.link_loads(ctx));
        let residual = crate::allocation::residual_of(ctx, loads);
        let outcome = decide(ctx, admitted, new, &residual);
        let AdmissionOutcome::Admitted { allocation, .. } = outcome else {
            return false;
        };
        let last = current.demands().next_back().is_none_or(|id| id < new.id);
        for (t, f) in allocation.flows_of(new.id) {
            current.set(new.id, t, f);
        }
        if let Some(loads) = self.0.as_mut().filter(|_| last) {
            for (t, f) in current.flows_of(new.id) {
                for l in &ctx.tunnels.path(t).links {
                    loads[l.index()] += f;
                }
            }
        } else {
            self.0 = None;
        }
        admitted.push(new.clone());
        true
    }
}

fn admit_inner(
    ctx: &TeContext,
    admitted: &[BaDemand],
    new: &BaDemand,
    residual: &[f64],
) -> AdmissionOutcome {
    // Step 1: fixed check (`fixed::fixed_admission` on the given residual).
    if let Some(allocation) = crate::scheduling::place_single_hard(ctx, new, residual) {
        return AdmissionOutcome::Admitted {
            path: AdmitPath::Fixed,
            allocation,
        };
    }
    // Step 2: greedy conjecture over everyone.
    if greedy::conjecture(ctx, admitted, new) {
        let allocation = greedy::best_effort_allocation(ctx, residual, new);
        return AdmissionOutcome::Admitted {
            path: AdmitPath::Conjecture,
            allocation,
        };
    }
    AdmissionOutcome::Rejected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduling::schedule;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    #[test]
    fn pipeline_admits_then_rejects_as_capacity_fills() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();

        let mut admitted: Vec<BaDemand> = Vec::new();
        let mut current = Allocation::new();
        let mut rejected = 0;
        for i in 0..20 {
            let d = BaDemand::single(i, pair, 400.0, 0.95);
            match admit(&ctx, &admitted, &current, &d) {
                AdmissionOutcome::Admitted { allocation, .. } => {
                    for (t, f) in allocation.flows_of(d.id) {
                        current.set(d.id, t, f);
                    }
                    admitted.push(d);
                    // Periodic rescheduling keeps the pool compact.
                    if let Ok(res) = schedule(&ctx, &admitted) {
                        current = res.allocation;
                    }
                }
                AdmissionOutcome::Rejected => rejected += 1,
            }
        }
        assert!(!admitted.is_empty(), "some demands must fit");
        assert!(rejected > 0, "the pool must eventually fill");
        // Each admitted demand's target holds after the final reschedule.
        for d in &admitted {
            assert!(current.meets_target(&ctx, d), "demand {:?}", d.id);
        }
    }

    /// A fold on carried loads decides and installs what a fold on fresh
    /// loads does, and whenever it holds loads they are a recompute's, bit
    /// for bit, whether or not a newcomer's id sorts after the pool's.
    #[test]
    fn carried_loads_are_a_recompute_bit_for_bit() {
        let topo = topologies::b4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .collect();
        let cap = topo.links().map(|(_, l)| l.capacity).fold(0.0, f64::max);
        let flows = |a: &Allocation| -> Vec<(crate::DemandId, bate_routing::TunnelId, u64)> {
            let of = |d| a.flows_of(d).map(move |(t, f)| (d, t, f.to_bits()));
            a.demands().flat_map(of).collect()
        };
        let (mut pool, mut alloc) = (Vec::new(), Allocation::new());
        let (mut fresh_pool, mut fresh_alloc) = (Vec::new(), Allocation::new());
        let mut loads = PoolLoads::default();
        let (mut admits, mut dropped) = (0, 0);
        for i in 0..80u64 {
            // Every fifth id sorts before every admitted one.
            let id = if i % 5 == 4 { i } else { 1000 + i };
            let pair = pairs[(i as usize * 7) % pairs.len()];
            let beta = [0.9, 0.99, 0.999][i as usize % 3];
            // Irregular sizes, so that adding them in another order moves bits.
            let size = cap * (0.02 + 0.05 * (i as f64 * 0.618034).fract());
            let d = BaDemand::single(id, pair, size, beta);
            let carried = loads.admit_and_apply(&ctx, &mut pool, &mut alloc, &d);
            let fresh = admit_and_apply(&ctx, &mut fresh_pool, &mut fresh_alloc, &d);
            assert_eq!(carried, fresh, "demand {id}");
            assert_eq!(flows(&alloc), flows(&fresh_alloc), "demand {id}");
            admits += usize::from(carried);
            match &loads.0 {
                Some(held) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(held), bits(&alloc.link_loads(&ctx)), "demand {id}");
                }
                None => dropped += 1,
            }
        }
        assert!(admits > 10 && admits < 80, "{admits} of 80 admitted");
        assert!(dropped > 0, "no admit dropped the carried loads");
    }

    /// A conjecture admit installs what `best_effort_allocation` makes of
    /// a recomputed residual, bit for bit, whether the fold carries its
    /// loads or sums them afresh. The pool replicates three demands on
    /// every tunnel of their pair, so the newcomers fill what is left
    /// through step 1 and then get in only through the conjecture: the
    /// first of those on what residual is left, the rest on none.
    #[test]
    fn conjecture_admit_installs_best_effort_on_the_residual() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut pool = Vec::new();
        let mut alloc = Allocation::new();
        for id in 1..=3 {
            let d = BaDemand::single(id, pair, 150.0, 0.9);
            for tunnel in 0..tunnels.tunnels(pair).len() {
                alloc.set(d.id, bate_routing::TunnelId { pair, tunnel }, 150.0);
            }
            pool.push(d);
        }
        let (mut fresh_pool, mut fresh_alloc) = (pool.clone(), alloc.clone());
        let mut loads = PoolLoads::default();
        let (mut paths, mut filled) = (String::new(), 0);
        for id in 100..108 {
            let d = BaDemand::single(id, pair, 200.0, 0.9);
            let want = match admit(&ctx, &pool, &alloc, &d) {
                AdmissionOutcome::Admitted {
                    path: AdmitPath::Fixed,
                    ..
                } => {
                    paths.push('F');
                    None
                }
                AdmissionOutcome::Admitted {
                    path: AdmitPath::Conjecture,
                    ..
                } => {
                    paths.push('C');
                    let residual = alloc.residual_capacities(&ctx);
                    Some(greedy::best_effort_allocation(&ctx, &residual, &d))
                }
                AdmissionOutcome::Rejected => panic!("demand {id} rejected"),
            };
            assert!(loads.admit_and_apply(&ctx, &mut pool, &mut alloc, &d));
            assert!(admit_and_apply(&ctx, &mut fresh_pool, &mut fresh_alloc, &d));
            if let Some(want) = want {
                let bits = |a: &Allocation| -> Vec<_> {
                    a.flows_of(d.id).map(|(t, f)| (t, f.to_bits())).collect()
                };
                filled += usize::from(!bits(&want).is_empty());
                assert_eq!(bits(&alloc), bits(&want), "carried loads, demand {id}");
                assert_eq!(bits(&fresh_alloc), bits(&want), "fresh loads, demand {id}");
            }
        }
        assert_eq!(paths, "FFFCCCCC");
        assert_eq!(filled, 1);
        assert!(loads.0.is_some(), "the fold carried its loads throughout");
    }
}
