//! Failure recovery (§3.4): reroute around actual failures while minimizing
//! revenue loss from SLA refunds.
//!
//! * [`milp`] — the exact profit-maximizing MILP (Eq. 8–12), NP-hard by
//!   reduction from all-or-nothing multicommodity flow (Appendix C).
//! * [`greedy`] — Algorithm 2, the 2-approximation used online
//!   (Appendix D), ~50× faster than brute force (Fig. 21).
//! * [`backup`] — proactive precomputation of backup allocations for every
//!   single-fate-group failure so the brokers can switch instantly.

pub mod backup;
pub mod greedy;
pub mod milp;

use crate::allocation::Allocation;
use crate::demand::{BaDemand, DemandId};

/// Registry handles for the recovery-storm metric family (`bate_storm_*`).
///
/// Recorded by the storm workload driver in `bate-sim` (which layers an
/// SRLG cut over concurrent demand churn); defined here so the controller
/// can pre-register the family before any storm runs — exposition then
/// renders every series at zero from the first scrape (the same contract
/// as `bate_warm_*`). Counters only commute; the latency histogram is
/// excluded from determinism-checked snapshots.
pub struct StormMetrics {
    /// SRLG cut events driven through the failure process.
    pub events: std::sync::Arc<bate_obs::Counter>,
    /// Recovery computations (greedy or MILP) triggered by storms.
    pub recovery_runs: std::sync::Arc<bate_obs::Counter>,
    /// Demands whose full bandwidth survived a storm-round recovery.
    pub recovered: std::sync::Arc<bate_obs::Counter>,
    /// Demands forfeited (refunded) in a storm-round recovery.
    pub forfeited: std::sync::Arc<bate_obs::Counter>,
    /// Churn deltas applied while a storm was active.
    pub churn_deltas: std::sync::Arc<bate_obs::Counter>,
    /// Wall-clock of each storm recovery computation.
    pub recovery_ms: std::sync::Arc<bate_obs::Histogram>,
}

/// Global handles for the `bate_storm_*` family.
pub fn storm_metrics() -> &'static StormMetrics {
    static M: std::sync::OnceLock<StormMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        StormMetrics {
            events: r.counter("bate_storm_events_total"),
            recovery_runs: r.counter("bate_storm_recovery_runs_total"),
            recovered: r.counter("bate_storm_demands_recovered_total"),
            forfeited: r.counter("bate_storm_demands_forfeited_total"),
            churn_deltas: r.counter("bate_storm_churn_deltas_total"),
            recovery_ms: r.histogram("bate_storm_recovery_ms"),
        }
    })
}

/// Pre-register the `bate_storm_*` family (controller startup).
pub fn register_storm_metrics() {
    let _ = storm_metrics();
}

/// Result of a recovery computation for one failure scenario.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Post-failure allocation over surviving tunnels.
    pub allocation: Allocation,
    /// Demands whose full bandwidth survives (they keep full profit).
    pub satisfied: Vec<DemandId>,
    /// Total profit after refunds: `Σ_{satisfied} g_d + Σ_{violated}
    /// (1-μ_d) g_d`.
    pub profit: f64,
}

impl RecoveryOutcome {
    /// Profit accounting shared by both solvers.
    pub(crate) fn compute_profit(demands: &[BaDemand], satisfied: &[DemandId]) -> f64 {
        demands
            .iter()
            .map(|d| {
                if satisfied.contains(&d.id) {
                    d.price
                } else {
                    (1.0 - d.refund_ratio) * d.price
                }
            })
            .sum()
    }

    /// The profit had no failure occurred (every demand satisfied).
    pub fn baseline_profit(demands: &[BaDemand]) -> f64 {
        demands.iter().map(|d| d.price).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::BaDemand;

    #[test]
    fn profit_accounting() {
        let mut demands = vec![
            BaDemand::single(1, 0, 100.0, 0.9),
            BaDemand::single(2, 0, 200.0, 0.9),
        ];
        demands[0].refund_ratio = 0.25;
        demands[1].refund_ratio = 0.10;
        let profit = RecoveryOutcome::compute_profit(&demands, &[DemandId(1)]);
        // d1 full (100) + d2 refunded 10% (180).
        assert!((profit - 280.0).abs() < 1e-12);
        assert!((RecoveryOutcome::baseline_profit(&demands) - 300.0).abs() < 1e-12);
    }
}
