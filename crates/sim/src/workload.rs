//! Demand workload generation (§5.1 testbed / §5.2 simulation settings).
//!
//! Arrivals follow a Poisson process; durations are exponential; demand
//! sizes are uniform (testbed: 10–50 Mbps) or drawn from gravity-model
//! traffic matrices with a scale-down factor (simulation); availability
//! targets come from the Table-1-style pools; refund ratios are drawn from
//! the Azure service schedules.
//!
//! The arrival *rate* can additionally be shaped ([`RateShape`]): a diurnal
//! sinusoid plus seeded flash-crowd windows, mirroring the
//! `network_listener` exp2 cross-traffic profile (stable background load
//! with short bursts landing on average every 15 time units and lasting 2)
//! scaled from seconds to minutes. [`RateShape::Constant`] reproduces the
//! paper's settings bit-for-bit.

use bate_core::pricing::SlaSchedule;
use bate_core::{BaDemand, DemandId};
use bate_net::distributions::{exponential, poisson};
use bate_net::TrafficMatrix;
use bate_routing::TunnelSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How demand bandwidths are drawn.
#[derive(Debug, Clone)]
pub enum BandwidthModel {
    /// Uniform in `[lo, hi]` (testbed: 10–50 Mbps).
    Uniform { lo: f64, hi: f64 },
    /// Proportional to a traffic-matrix entry for the chosen pair, times
    /// `scale` (the paper's scale-down factor of 5 is `scale = 1/5` on
    /// pre-normalized matrices).
    Matrix {
        matrices: Vec<TrafficMatrix>,
        scale: f64,
    },
}

/// Time-of-day modulation of the arrival rate.
#[derive(Debug, Clone)]
pub enum RateShape {
    /// Constant rate — the paper's §5.1/§5.2 settings.
    Constant,
    /// Diurnal sinusoid with seeded flash-crowd bursts layered on top.
    ///
    /// The per-minute rate is
    /// `base · (1 + A·sin(2π·minute/period)) · (flash? m : 1)`,
    /// with flash onsets arriving as an exponential stream (mean gap
    /// `flash_every_min`) drawn from a dedicated RNG stream so the demand
    /// draw sequence itself is untouched by the shape.
    DiurnalFlash {
        /// Peak-to-trough swing as a fraction of the mean rate (`A`, in
        /// `[0, 1)`).
        diurnal_amplitude: f64,
        /// Diurnal period in minutes (1440 = one day).
        period_min: f64,
        /// Mean minutes between flash-crowd onsets.
        flash_every_min: f64,
        /// How long each flash lasts, minutes.
        flash_duration_min: f64,
        /// Arrival-rate multiplier while a flash is active (`m`).
        flash_multiplier: f64,
    },
}

impl RateShape {
    /// The exp2 cross-traffic profile: bursts every ~15 minutes lasting 2,
    /// six-fold rate inside a burst, on a half-amplitude daily sinusoid.
    pub fn exp2() -> RateShape {
        RateShape::DiurnalFlash {
            diurnal_amplitude: 0.5,
            period_min: 1440.0,
            flash_every_min: 15.0,
            flash_duration_min: 2.0,
            flash_multiplier: 6.0,
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean demand arrivals per minute (whole network).
    pub arrivals_per_min: f64,
    /// Mean demand lifetime in minutes.
    pub mean_duration_min: f64,
    /// Which s-d pairs (tunnel-set indices) demands may request.
    pub pairs: Vec<usize>,
    pub bandwidth: BandwidthModel,
    /// Availability targets to draw from, uniformly.
    pub availability_targets: Vec<f64>,
    /// Refund schedules to draw from, uniformly.
    pub refund_pool: Vec<SlaSchedule>,
    /// Price per Mbps (§5.1: "a unit price is charged for 1 Mbps").
    pub unit_price: f64,
    /// Time-of-day shaping of `arrivals_per_min`.
    pub shape: RateShape,
    pub seed: u64,
}

impl WorkloadConfig {
    /// The §5.1 testbed workload over the given pairs.
    pub fn testbed(pairs: Vec<usize>, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals_per_min: 2.0,
            mean_duration_min: 5.0,
            pairs,
            bandwidth: BandwidthModel::Uniform { lo: 10.0, hi: 50.0 },
            availability_targets: bate_core::AvailabilityClass::testbed_targets().to_vec(),
            refund_pool: bate_core::pricing::testbed_services(),
            unit_price: 1.0,
            shape: RateShape::Constant,
            seed,
        }
    }

    /// The §5.2 simulation workload (arrival rate swept 1–6/min).
    pub fn simulation(pairs: Vec<usize>, arrivals_per_min: f64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals_per_min,
            mean_duration_min: 5.0,
            pairs,
            bandwidth: BandwidthModel::Uniform { lo: 10.0, hi: 50.0 },
            availability_targets: bate_core::AvailabilityClass::simulation_targets().to_vec(),
            refund_pool: bate_core::pricing::azure_services(),
            unit_price: 1.0,
            shape: RateShape::Constant,
            seed,
        }
    }
}

/// Per-minute rate multipliers over the horizon. A dedicated RNG stream
/// (`seed ^ FLASH_STREAM`) drives the flash onsets so attaching a shape
/// never perturbs the demand draws themselves.
fn rate_factors(config: &WorkloadConfig, minutes: usize) -> Vec<f64> {
    match &config.shape {
        RateShape::Constant => vec![1.0; minutes],
        RateShape::DiurnalFlash {
            diurnal_amplitude,
            period_min,
            flash_every_min,
            flash_duration_min,
            flash_multiplier,
        } => {
            const FLASH_STREAM: u64 = 0xF1A5_u64;
            let mut rng = StdRng::seed_from_u64(config.seed ^ FLASH_STREAM);
            let mut flash = vec![false; minutes];
            let mut t = exponential(&mut rng, *flash_every_min);
            while (t as usize) < minutes {
                let end = t + flash_duration_min;
                let mut m = t as usize;
                while (m as f64) < end && m < minutes {
                    flash[m] = true;
                    m += 1;
                }
                t += flash_duration_min + exponential(&mut rng, *flash_every_min);
            }
            (0..minutes)
                .map(|m| {
                    let phase = 2.0 * std::f64::consts::PI * m as f64 / period_min;
                    let diurnal = 1.0 + diurnal_amplitude * phase.sin();
                    let burst = if flash[m] { *flash_multiplier } else { 1.0 };
                    (diurnal * burst).max(0.0)
                })
                .collect()
        }
    }
}

/// A generated arrival: when it lands, how long it lives, and the demand.
#[derive(Debug, Clone)]
pub struct GeneratedDemand {
    pub arrival_time: f64,
    pub duration: f64,
    pub demand: BaDemand,
    /// Index into the refund pool (for post-hoc tiered-refund accounting).
    pub schedule: usize,
}

/// Generate all arrivals in `[0, horizon_secs)`.
pub fn generate(
    config: &WorkloadConfig,
    tunnels: &TunnelSet,
    horizon_secs: f64,
) -> Vec<GeneratedDemand> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    let minutes = (horizon_secs / 60.0).ceil() as usize;
    let factors = rate_factors(config, minutes);
    for (minute, factor) in factors.iter().enumerate() {
        let n = poisson(&mut rng, config.arrivals_per_min * factor);
        for _ in 0..n {
            let arrival_time = minute as f64 * 60.0 + rng.gen_range(0.0..60.0);
            if arrival_time >= horizon_secs {
                continue;
            }
            let pair = config.pairs[rng.gen_range(0..config.pairs.len())];
            let bw = match &config.bandwidth {
                BandwidthModel::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
                BandwidthModel::Matrix { matrices, scale } => {
                    let m = &matrices[rng.gen_range(0..matrices.len())];
                    let (s, d) = tunnels.pair(pair);
                    (m.demand(s, d) * scale).max(1.0)
                }
            };
            let beta =
                config.availability_targets[rng.gen_range(0..config.availability_targets.len())];
            let schedule = rng.gen_range(0..config.refund_pool.len().max(1));
            let refund = config
                .refund_pool
                .get(schedule)
                .map(|s| s.violation_ratio())
                .unwrap_or(0.0);
            let duration = exponential(&mut rng, config.mean_duration_min * 60.0);
            id += 1;
            out.push(GeneratedDemand {
                arrival_time,
                duration: duration.max(1.0),
                demand: BaDemand {
                    id: DemandId(id),
                    bandwidth: vec![(pair, bw)],
                    beta,
                    price: bw * config.unit_price,
                    refund_ratio: refund,
                },
                schedule,
            });
        }
    }
    out.sort_by(|a, b| a.arrival_time.partial_cmp(&b.arrival_time).unwrap());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::topologies;
    use bate_routing::RoutingScheme;

    fn tunnels() -> (bate_net::Topology, TunnelSet) {
        let topo = topologies::testbed6();
        let t = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        (topo, t)
    }

    #[test]
    fn arrival_rate_matches_config() {
        let (_topo, tunnels) = tunnels();
        let cfg = WorkloadConfig::testbed(vec![0, 1, 2], 7);
        let horizon = 600.0 * 60.0; // 600 minutes
        let arrivals = generate(&cfg, &tunnels, horizon);
        let per_min = arrivals.len() as f64 / 600.0;
        assert!((per_min - 2.0).abs() < 0.2, "{per_min}/min");
        // Sorted by arrival time, within horizon.
        for w in arrivals.windows(2) {
            assert!(w[0].arrival_time <= w[1].arrival_time);
        }
        assert!(arrivals.iter().all(|a| a.arrival_time < horizon));
    }

    #[test]
    fn demand_fields_within_pools() {
        let (_topo, tunnels) = tunnels();
        let cfg = WorkloadConfig::testbed(vec![0, 5], 3);
        let arrivals = generate(&cfg, &tunnels, 3600.0);
        assert!(!arrivals.is_empty());
        for a in &arrivals {
            let (pair, bw) = a.demand.bandwidth[0];
            assert!(pair == 0 || pair == 5);
            assert!((10.0..=50.0).contains(&bw));
            assert!(cfg.availability_targets.contains(&a.demand.beta));
            assert!(a.duration >= 1.0);
            assert_eq!(a.demand.price, bw);
        }
        // Ids are unique.
        let mut ids: Vec<u64> = arrivals.iter().map(|a| a.demand.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), arrivals.len());
    }

    #[test]
    fn mean_duration_close_to_config() {
        let (_topo, tunnels) = tunnels();
        let cfg = WorkloadConfig::testbed(vec![0], 11);
        let arrivals = generate(&cfg, &tunnels, 2000.0 * 60.0);
        let mean: f64 = arrivals.iter().map(|a| a.duration).sum::<f64>() / arrivals.len() as f64;
        assert!((mean - 300.0).abs() < 30.0, "mean duration {mean} s");
    }

    #[test]
    fn matrix_bandwidth_model() {
        let (topo, tunnels) = tunnels();
        let matrices = bate_net::traffic::generate_matrices(&topo, 3, 30_000.0, 5);
        let mut cfg = WorkloadConfig::simulation(vec![0, 1, 2, 3], 3.0, 13);
        cfg.bandwidth = BandwidthModel::Matrix {
            matrices,
            scale: 1.0 / 5.0,
        };
        let arrivals = generate(&cfg, &tunnels, 3600.0);
        assert!(!arrivals.is_empty());
        for a in &arrivals {
            assert!(a.demand.bandwidth[0].1 >= 1.0);
        }
    }

    #[test]
    fn diurnal_flash_raises_mean_rate_and_stays_deterministic() {
        let (_topo, tunnels) = tunnels();
        let horizon = 600.0 * 60.0;
        let flat = generate(&WorkloadConfig::testbed(vec![0, 1], 7), &tunnels, horizon);
        let cfg = WorkloadConfig {
            shape: RateShape::exp2(),
            ..WorkloadConfig::testbed(vec![0, 1], 7)
        };
        let shaped = generate(&cfg, &tunnels, horizon);
        // Flash windows (~2/15 of the time at 6x) push the mean rate well
        // above the flat profile; the sinusoid averages out.
        assert!(
            shaped.len() as f64 > flat.len() as f64 * 1.2,
            "flat {} vs shaped {}",
            flat.len(),
            shaped.len()
        );
        let again = generate(&cfg, &tunnels, horizon);
        assert_eq!(shaped.len(), again.len());
        for (x, y) in shaped.iter().zip(&again) {
            assert_eq!(x.arrival_time, y.arrival_time);
            assert_eq!(x.demand.bandwidth, y.demand.bandwidth);
            assert_eq!(x.demand.beta, y.demand.beta);
        }
    }

    #[test]
    fn flash_windows_cluster_arrivals() {
        let (_topo, tunnels) = tunnels();
        let cfg = WorkloadConfig {
            shape: RateShape::exp2(),
            ..WorkloadConfig::testbed(vec![0], 19)
        };
        let horizon = 300.0 * 60.0;
        let arrivals = generate(&cfg, &tunnels, horizon);
        // Busiest minute should far exceed the base 2/min rate.
        let mut per_min = vec![0usize; 300];
        for a in &arrivals {
            per_min[(a.arrival_time / 60.0) as usize] += 1;
        }
        let max = per_min.iter().max().copied().unwrap();
        assert!(max >= 6, "busiest minute only {max} arrivals");
    }

    #[test]
    fn deterministic_under_seed() {
        let (_topo, tunnels) = tunnels();
        let cfg = WorkloadConfig::testbed(vec![0, 1], 42);
        let a = generate(&cfg, &tunnels, 3600.0);
        let b = generate(&cfg, &tunnels, 3600.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_time, y.arrival_time);
            assert_eq!(x.demand.bandwidth, y.demand.bandwidth);
        }
    }
}
