//! Admission control (§3.2).
//!
//! Demands are served first-come-first-served without preemption. When a
//! demand arrives, BATE runs a three-step strategy:
//!
//! 1. [`fixed`] — keep every admitted demand's allocation untouched and try
//!    to schedule only the newcomer on the residual capacity.
//! 2. [`greedy`] — Algorithm 1: a fast conjecture on whether *rescheduling
//!    everyone* could accommodate the newcomer. No false positives
//!    (Theorem 1): a conjectured "yes" always has a witnessing allocation.
//! 3. Reject.
//!
//! [`optimal`] implements the Appendix-A MILP the paper uses as the
//! admission baseline ("OPT" in Fig. 7(a)/12).

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

impl AdmissionOutcome {
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionOutcome::Admitted { .. })
    }
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
    let m = admission_metrics();
    // Inside an active trace (a controller handling a submit), the whole
    // pipeline gets a span so the LP solves under it parent correctly;
    // untraced callers (sim loops) keep the legacy event-only shape.
    let traced = bate_obs::context::current().is_some();
    let _sp = traced.then(|| bate_obs::span!("admission.pipeline", demand = new.id.0));
    let outcome = admit_inner(ctx, admitted, current, new);
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

/// One FCFS fold step over an evolving pool: run the pipeline for
/// `new` and, on admission, apply its flows to `current` and append it
/// to `admitted`. This is the exact per-demand sequence the controller's
/// threaded plane ran; batching builds on it below.
pub fn admit_and_apply(
    ctx: &TeContext,
    admitted: &mut Vec<BaDemand>,
    current: &mut Allocation,
    new: &BaDemand,
) -> bool {
    match admit(ctx, admitted, current, new) {
        AdmissionOutcome::Admitted { allocation, .. } => {
            for (t, f) in allocation.flows_of(new.id) {
                current.set(new.id, t, f);
            }
            admitted.push(new.clone());
            true
        }
        AdmissionOutcome::Rejected => false,
    }
}

/// Batched admission: decide `batch` first-come-first-served against the
/// evolving pool, returning one verdict per entry in order.
///
/// Verdicts are *by construction* identical to submitting the same
/// demands sequentially: each entry is decided by the same three-step
/// pipeline against the pool state left by its predecessors. Batching
/// changes only *when* the pool is re-optimized — the caller amortizes
/// one warm scheduling solve across the whole batch instead of paying a
/// scheduling round per arrival — never *what* is admitted. (The
/// batched-admission equivalence test in `bate-system` pins this against
/// the exact LP oracle.)
pub fn admit_batch(
    ctx: &TeContext,
    admitted: &mut Vec<BaDemand>,
    current: &mut Allocation,
    batch: &[BaDemand],
) -> Vec<bool> {
    batch
        .iter()
        .map(|d| admit_and_apply(ctx, admitted, current, d))
        .collect()
}

fn admit_inner(
    ctx: &TeContext,
    admitted: &[BaDemand],
    current: &Allocation,
    new: &BaDemand,
) -> AdmissionOutcome {
    // Step 1: fixed check.
    if let Some(allocation) = fixed::fixed_admission(ctx, current, new) {
        return AdmissionOutcome::Admitted {
            path: AdmitPath::Fixed,
            allocation,
        };
    }
    // Step 2: greedy conjecture over everyone.
    let mut all: Vec<BaDemand> = admitted.to_vec();
    all.push(new.clone());
    if greedy::conjecture(ctx, &all) {
        let allocation = greedy::best_effort_allocation(ctx, current, new);
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

    /// Batched admission must be verdict-for-verdict the sequential
    /// pipeline: same demands, same order, same pool evolution.
    #[test]
    fn batched_verdicts_match_sequential_fold() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p13 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let p26 = tunnels.pair_index(n("DC2"), n("DC6")).unwrap();
        // A mix that exercises admit and reject: the 10 Gbps entry can
        // never fit (DC1's egress cut is 3 Gbps).
        let batch: Vec<BaDemand> = vec![
            BaDemand::single(1, p13, 400.0, 0.95),
            BaDemand::single(2, p26, 300.0, 0.9),
            BaDemand::single(3, p13, 10_000.0, 0.5),
            BaDemand::single(4, p13, 250.0, 0.99),
            BaDemand::single(5, p26, 150.0, 0.95),
        ];

        let mut seq_pool = Vec::new();
        let mut seq_alloc = Allocation::new();
        let seq: Vec<bool> = batch
            .iter()
            .map(|d| admit_and_apply(&ctx, &mut seq_pool, &mut seq_alloc, d))
            .collect();

        let mut bat_pool = Vec::new();
        let mut bat_alloc = Allocation::new();
        let bat = admit_batch(&ctx, &mut bat_pool, &mut bat_alloc, &batch);

        assert_eq!(seq, bat, "batched verdicts diverged from sequential");
        assert_eq!(seq.iter().filter(|&&a| a).count(), 4, "only the 10G entry rejects");
        assert_eq!(
            seq_pool.iter().map(|d| d.id).collect::<Vec<_>>(),
            bat_pool.iter().map(|d| d.id).collect::<Vec<_>>(),
        );
    }
}
