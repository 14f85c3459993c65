//! Bandwidth-availability demands (§3.1) and the B4 availability classes of
//! Table 1.

use serde::{Deserialize, Serialize};

/// Unique demand identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DemandId(pub u64);

/// A bandwidth-availability demand `d = (b_d, β_d)` with the pricing fields
/// the failure-recovery model needs.
///
/// `bandwidth` is the vector `<b_d^1, b_d^2, ...>` over s-d pairs, stored
/// sparsely as `(pair index, rate)` where the pair index refers to a
/// [`bate_routing::TunnelSet`]. Start/end times are carried by the simulator
/// (the demand itself is timeless, matching footnote 4 of the paper).
#[derive(Debug, Clone)]
pub struct BaDemand {
    pub id: DemandId,
    /// Per s-d pair bandwidth requests; pair indices must be distinct.
    pub bandwidth: Vec<(usize, f64)>,
    /// Availability target `β_d` in `[0, 1]` (e.g. 0.9999).
    pub beta: f64,
    /// Charge `g_d` for serving the demand (unit price × Mbps per §5.1).
    pub price: f64,
    /// Refund fraction `μ_d` returned to the customer when the BA target is
    /// violated.
    pub refund_ratio: f64,
}

impl BaDemand {
    /// Single-pair demand with pricing of one unit per Mbps and no refund.
    pub fn single(id: u64, pair: usize, bandwidth: f64, beta: f64) -> BaDemand {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
        BaDemand {
            id: DemandId(id),
            bandwidth: vec![(pair, bandwidth)],
            beta,
            price: bandwidth,
            refund_ratio: 0.0,
        }
    }

    /// Total requested bandwidth `Σ_k b_d^k`.
    pub fn total_bandwidth(&self) -> f64 {
        self.bandwidth.iter().map(|(_, b)| b).sum()
    }

    /// The admission-ordering key of Algorithm 1: `Σ_k b_d^k × β_d`.
    pub fn admission_key(&self) -> f64 {
        self.total_bandwidth() * self.beta
    }

    /// Profit density used by recovery Algorithm 2: `g_d / Σ_k b_d^k`.
    pub fn profit_density(&self) -> f64 {
        self.price / self.total_bandwidth().max(f64::MIN_POSITIVE)
    }
}

/// The availability classes Google publishes for B4 services (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AvailabilityClass {
    /// Search ads, DNS, WWW — 99.99 %.
    Critical,
    /// Photo service backend, Email — 99.95 %.
    High,
    /// Ads database replication — 99.9 %.
    Medium,
    /// Search-index copies, logs — 99 %.
    Low,
    /// Bulk transfer — no availability target.
    BestEffort,
}

impl AvailabilityClass {
    /// The availability target as a fraction.
    pub fn target(self) -> f64 {
        match self {
            AvailabilityClass::Critical => 0.9999,
            AvailabilityClass::High => 0.9995,
            AvailabilityClass::Medium => 0.999,
            AvailabilityClass::Low => 0.99,
            AvailabilityClass::BestEffort => 0.0,
        }
    }

    /// All classes, highest availability first (Table 1 order).
    pub fn all() -> [AvailabilityClass; 5] {
        [
            AvailabilityClass::Critical,
            AvailabilityClass::High,
            AvailabilityClass::Medium,
            AvailabilityClass::Low,
            AvailabilityClass::BestEffort,
        ]
    }

    /// The availability-target pool §5.1 draws from on the testbed.
    pub fn testbed_targets() -> [f64; 5] {
        [0.95, 0.99, 0.999, 0.9995, 0.9999]
    }

    /// The availability-target pool §5.2 draws from in simulations.
    pub fn simulation_targets() -> [f64; 7] {
        [0.0, 0.90, 0.95, 0.99, 0.999, 0.9995, 0.9999]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_demand_defaults() {
        let d = BaDemand::single(1, 0, 100.0, 0.99);
        assert_eq!(d.total_bandwidth(), 100.0);
        assert_eq!(d.price, 100.0); // unit price per Mbps
        assert_eq!(d.refund_ratio, 0.0);
        assert!((d.admission_key() - 99.0).abs() < 1e-12);
    }

    #[test]
    fn multi_pair_totals() {
        let d = BaDemand {
            id: DemandId(2),
            bandwidth: vec![(0, 10.0), (3, 30.0)],
            beta: 0.9,
            price: 80.0,
            refund_ratio: 0.25,
        };
        assert_eq!(d.total_bandwidth(), 40.0);
        assert!((d.profit_density() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table1_targets() {
        assert_eq!(AvailabilityClass::Critical.target(), 0.9999);
        assert_eq!(AvailabilityClass::Low.target(), 0.99);
        assert_eq!(AvailabilityClass::BestEffort.target(), 0.0);
        assert_eq!(AvailabilityClass::all().len(), 5);
        // Classes are ordered by decreasing availability.
        let targets: Vec<f64> = AvailabilityClass::all()
            .iter()
            .map(|c| c.target())
            .collect();
        for w in targets.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn rejects_bad_beta() {
        BaDemand::single(1, 0, 1.0, 1.5);
    }
}
