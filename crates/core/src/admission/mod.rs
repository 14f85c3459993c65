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
/// to `admitted`. The controller folds an admission batch with this, one
/// entry at a time, so a batch's verdicts are by construction those of
/// the same demands submitted one by one.
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
}
