//! Measurements collected by a simulation run.

use bate_core::pricing::SlaSchedule;
use bate_core::DemandId;
use serde::Serialize;

/// Lifetime record of one demand.
#[derive(Debug, Clone, Serialize)]
pub struct DemandRecord {
    pub id: u64,
    /// Availability target β.
    pub beta: f64,
    /// Charge g_d.
    pub price: f64,
    /// Index into the workload's refund pool.
    pub schedule: usize,
    /// Total demanded bandwidth.
    pub bandwidth: f64,
    pub admitted: bool,
    /// Seconds the demand was active.
    pub total_secs: f64,
    /// Seconds its full bandwidth (within 1 %) was delivered.
    pub satisfied_secs: f64,
}

impl DemandRecord {
    /// Measured availability: satisfied time over lifetime.
    pub fn achieved_availability(&self) -> f64 {
        if self.total_secs <= 0.0 {
            1.0
        } else {
            self.satisfied_secs / self.total_secs
        }
    }

    /// Did the demand meet its BA target over its lifetime?
    pub fn met_target(&self) -> bool {
        self.achieved_availability() >= self.beta - 1e-9
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimReport {
    pub arrived: usize,
    pub admitted: usize,
    pub rejected: usize,
    /// Rejections that the optimal (Appendix A) check would have admitted —
    /// only populated when the run measures false rejections (Fig. 12(d)).
    pub false_rejections: usize,
    /// Arrivals whose OPT check (`optimal_feasible`, run by the Optimal
    /// strategy or by the false-rejection count) returned an error (the
    /// MILP's `NodeLimit`, a simplex `IterationLimit`) instead of a
    /// verdict. Such an arrival is still booked as a rejection (or as no
    /// false rejection), so the rows stay comparable; a nonzero count
    /// means a limit, not the model, decided some of them.
    pub opt_undecided: usize,
    pub demands: Vec<DemandRecord>,
    /// Delivered/demanded samples taken at scheduling rounds (Fig. 8).
    pub bw_ratio_samples: Vec<f64>,
    /// Failure count per fate group (Fig. 10).
    pub failure_counts: Vec<usize>,
    /// Time-averaged mean link utilization (Fig. 12(b)).
    pub mean_link_utilization: f64,
    /// Time-integrated undelivered bandwidth over demanded bandwidth
    /// (Fig. 11's data-loss ratio for this run).
    pub data_loss_ratio: f64,
    /// Simulated horizon, seconds.
    pub horizon_secs: f64,
    /// Wall-clock milliseconds of each admission decision, in arrival
    /// order (Fig. 12(c)). The one measured field: it differs between runs
    /// of one seed, and nothing in the event schedule reads it.
    pub admission_wall_ms: Vec<f64>,
}

impl SimReport {
    /// Fraction of arrivals rejected (Fig. 7(a), 12(a)).
    pub fn rejection_ratio(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.rejected as f64 / self.arrived as f64
        }
    }

    /// Median admission decision latency in milliseconds (Fig. 12(c)):
    /// unlike the mean, one decision that lost its CPU to another process
    /// cannot move it.
    pub fn median_admission_delay_ms(&self) -> f64 {
        let mut ms = self.admission_wall_ms.clone();
        ms.sort_by(f64::total_cmp);
        match ms.len() {
            0 => 0.0,
            n if n % 2 == 1 => ms[n / 2],
            n => (ms[n / 2 - 1] + ms[n / 2]) / 2.0,
        }
    }

    /// Fraction of admitted demands meeting their BA target (Fig. 7(b),
    /// 9, 13, 14).
    pub fn satisfaction_fraction(&self) -> f64 {
        let admitted: Vec<&DemandRecord> = self
            .demands
            .iter()
            .filter(|d| d.admitted && d.total_secs > 0.0)
            .collect();
        if admitted.is_empty() {
            return 1.0;
        }
        admitted.iter().filter(|d| d.met_target()).count() as f64 / admitted.len() as f64
    }

    /// Satisfaction restricted to demands with a given availability target
    /// (Fig. 7(b) buckets).
    pub fn satisfaction_for_target(&self, beta: f64) -> f64 {
        let subset: Vec<&DemandRecord> = self
            .demands
            .iter()
            .filter(|d| d.admitted && d.total_secs > 0.0 && (d.beta - beta).abs() < 1e-9)
            .collect();
        if subset.is_empty() {
            return 1.0;
        }
        subset.iter().filter(|d| d.met_target()).count() as f64 / subset.len() as f64
    }

    /// Total profit after tiered refunds (Fig. 7(c)/(d), 15), using the
    /// run's refund pool.
    pub fn profit(&self, pool: &[SlaSchedule]) -> f64 {
        self.demands
            .iter()
            .filter(|d| d.admitted)
            .map(|d| {
                let refund = pool
                    .get(d.schedule)
                    .map(|s| s.refund_fraction(d.achieved_availability()))
                    .unwrap_or(0.0);
                d.price * (1.0 - refund)
            })
            .sum()
    }

    /// The profit if every admitted demand had met its SLA.
    pub fn baseline_profit(&self) -> f64 {
        self.demands
            .iter()
            .filter(|d| d.admitted)
            .map(|d| d.price)
            .sum()
    }

    /// Profit after refunds relative to the no-violation baseline.
    pub fn profit_gain(&self, pool: &[SlaSchedule]) -> f64 {
        let base = self.baseline_profit();
        if base <= 0.0 {
            1.0
        } else {
            self.profit(pool) / base
        }
    }

    /// Record lookup by id.
    pub fn record(&self, id: DemandId) -> Option<&DemandRecord> {
        self.demands.iter().find(|d| d.id == id.0)
    }
}

/// Empirical CDF helper for the figure harness: returns `(value, cdf)`
/// points of the sorted samples.
pub fn ecdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_core::pricing::azure_services;

    fn record(beta: f64, satisfied: f64, total: f64, price: f64) -> DemandRecord {
        DemandRecord {
            id: 0,
            beta,
            price,
            schedule: 0,
            bandwidth: 10.0,
            admitted: true,
            total_secs: total,
            satisfied_secs: satisfied,
        }
    }

    #[test]
    fn availability_and_satisfaction() {
        let r = record(0.99, 995.0, 1000.0, 10.0);
        assert!((r.achieved_availability() - 0.995).abs() < 1e-12);
        assert!(r.met_target());
        let bad = record(0.999, 995.0, 1000.0, 10.0);
        assert!(!bad.met_target());
    }

    #[test]
    fn report_aggregates() {
        let mut rep = SimReport {
            arrived: 10,
            admitted: 8,
            rejected: 2,
            ..Default::default()
        };
        rep.demands.push(record(0.99, 1000.0, 1000.0, 100.0));
        rep.demands.push(record(0.99, 900.0, 1000.0, 100.0));
        assert!((rep.rejection_ratio() - 0.2).abs() < 1e-12);
        assert!((rep.satisfaction_fraction() - 0.5).abs() < 1e-12);
        assert!((rep.satisfaction_for_target(0.99) - 0.5).abs() < 1e-12);
        assert_eq!(rep.satisfaction_for_target(0.95), 1.0);
        let pool = azure_services();
        // First record: no refund; second (achieved 0.9): deep violation.
        let profit = rep.profit(&pool);
        assert!(profit < rep.baseline_profit());
        assert!(rep.profit_gain(&pool) < 1.0);
    }

    #[test]
    fn ecdf_monotone() {
        let points = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points[0], (1.0, 1.0 / 3.0));
        assert_eq!(points[2], (3.0, 1.0));
    }
}
