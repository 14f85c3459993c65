//! E2 (Fig. 7(a)) and E10 (Fig. 12): admission-control experiments.

use super::common::{mean, Env};
use bate_baselines::traits::Bate;
use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_sim::workload::{generate, BandwidthModel, WorkloadConfig};
use bate_sim::{AdmissionStrategy, SimConfig, Simulation};

/// Row of Fig. 7(a): rejection ratio per admission strategy at one mean
/// demand size.
#[derive(Debug, Clone)]
pub struct Fig7aRow {
    pub demand_mbps: f64,
    pub fixed: f64,
    pub bate: f64,
    pub optimal: f64,
}

fn run_admission(
    env: &Env,
    admission: AdmissionStrategy,
    wl: &WorkloadConfig,
    horizon: f64,
    seed: u64,
    measure_false: bool,
) -> bate_sim::SimReport {
    let workload = generate(wl, &env.tunnels, horizon);
    let mut cfg = SimConfig::testbed(horizon, seed);
    cfg.admission = admission;
    cfg.recovery = bate_sim::RecoveryPolicy::NextRound;
    cfg.measure_false_rejections = measure_false;
    let te = Bate;
    Simulation {
        ctx: env.ctx(),
        te: &te,
        config: cfg,
        workload: &workload,
    }
    .run()
}

/// Fig. 7(a): rejection ratio vs demand size (20–50 Mbps) under Fixed /
/// BATE / OPT admission on the testbed.
pub fn fig7a(horizon_min: f64, seeds: &[u64]) -> Vec<Fig7aRow> {
    let env = Env::testbed();
    let pairs = env.demand_pairs(6, 99);
    [20.0, 30.0, 40.0, 50.0]
        .iter()
        .map(|&size| {
            // Seeds fan out in parallel (three simulations each); the merge
            // below keeps seed order.
            let per_seed: Vec<[f64; 3]> = bate_lp::par_map(seeds, |&seed| {
                let mut wl = WorkloadConfig::testbed(pairs.clone(), seed);
                // Demands concentrated around `size`, arrival rate scaled
                // up so the network saturates (the paper's x-axis sweeps
                // the per-demand size at fixed arrivals; larger demands →
                // more rejections).
                wl.arrivals_per_min = 6.0;
                // Demands concentrated around `size`, scaled x5 so the
                // reproduction's 6 demand pairs feel the same packing
                // pressure the paper's full mesh does. (Scaling much
                // harder would shift the pressure from packing to
                // protection infeasibility, which is a different regime.)
                let scale = 5.0;
                wl.bandwidth = BandwidthModel::Uniform {
                    lo: size * 0.8 * scale,
                    hi: size * 1.2 * scale,
                };
                let horizon = horizon_min * 60.0;
                [
                    run_admission(&env, AdmissionStrategy::Fixed, &wl, horizon, seed, false)
                        .rejection_ratio(),
                    run_admission(&env, AdmissionStrategy::Bate, &wl, horizon, seed, false)
                        .rejection_ratio(),
                    run_admission(&env, AdmissionStrategy::Optimal, &wl, horizon, seed, false)
                        .rejection_ratio(),
                ]
            });
            let fixed: Vec<f64> = per_seed.iter().map(|r| r[0]).collect();
            let bate: Vec<f64> = per_seed.iter().map(|r| r[1]).collect();
            let optimal: Vec<f64> = per_seed.iter().map(|r| r[2]).collect();
            Fig7aRow {
                demand_mbps: size,
                fixed: mean(&fixed),
                bate: mean(&bate),
                optimal: mean(&optimal),
            }
        })
        .collect()
}

/// Row of Fig. 12: one arrival rate, all four panels.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub arrivals_per_min: f64,
    /// (a) rejection ratio per strategy.
    pub rejection: [f64; 3],
    /// (b) mean link utilization per strategy.
    pub utilization: [f64; 3],
    /// (c) median admission delay (ms) per strategy, over the run's
    /// decisions.
    pub delay_ms: [f64; 3],
    /// (d) conjecture error (false rejections / arrivals) for Fixed and
    /// BATE.
    pub conjecture_error: [f64; 2],
}

/// Fig. 12(a–d) on the B4 topology, arrival rates 1..=max_rate per minute.
pub fn fig12(max_rate: usize, horizon_min: f64, seed: u64) -> Vec<Fig12Row> {
    // y = 1 pruning keeps the optimal-admission MILP tractable.
    let env = Env::new(topologies::b4(), RoutingScheme::default_ksp4(), 1);
    let pairs = env.demand_pairs(6, 7);
    (1..=max_rate)
        .map(|rate| {
            let mut wl = WorkloadConfig::simulation(pairs.clone(), rate as f64, seed);
            // Scale demand sizes so that rate 5–6 is "normal load" for the
            // synthetic capacities (the paper's scale-down factor of 5
            // plays the same role).
            wl.bandwidth = BandwidthModel::Uniform {
                lo: 10.0 * 8.0,
                hi: 50.0 * 8.0,
            };
            let horizon = horizon_min * 60.0;
            let strategies = [
                AdmissionStrategy::Fixed,
                AdmissionStrategy::Bate,
                AdmissionStrategy::Optimal,
            ];
            let mut rejection = [0.0; 3];
            let mut utilization = [0.0; 3];
            let mut delay_ms = [0.0; 3];
            let mut conjecture_error = [0.0; 2];
            for (i, &strategy) in strategies.iter().enumerate() {
                let measure = strategy != AdmissionStrategy::Optimal;
                let rep = run_admission(&env, strategy, &wl, horizon, seed, measure);
                rejection[i] = rep.rejection_ratio();
                utilization[i] = rep.mean_link_utilization;
                delay_ms[i] = rep.median_admission_delay_ms();
                if measure && rep.arrived > 0 {
                    conjecture_error[i] = rep.false_rejections as f64 / rep.arrived as f64;
                }
            }
            Fig12Row {
                arrivals_per_min: rate as f64,
                rejection,
                utilization,
                delay_ms,
                conjecture_error,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_shapes() {
        let rows = fig7a(3.0, &[1]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // OPT rejects least; Fixed rejects most (Fig. 7(a) ordering).
            assert!(
                r.optimal <= r.bate + 0.10,
                "OPT {} should not reject much more than BATE {}",
                r.optimal,
                r.bate
            );
            assert!(
                r.bate <= r.fixed + 0.10,
                "BATE {} should not reject much more than Fixed {}",
                r.bate,
                r.fixed
            );
        }
        // Larger demands are rejected more often.
        assert!(rows.last().unwrap().fixed >= rows[0].fixed - 1e-9);
    }

    #[test]
    fn fig12_admission_delay_ordering() {
        // 20 minutes at 1 and 2 arrivals per minute: a few dozen decisions
        // per strategy, so a preemption during a few of BATE's cannot lift
        // its median to OPT's.
        let rows = fig12(2, 20.0, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // The OPT MILP must be slower than BATE's pipeline (the 30×
            // headline; exact factor depends on the machine). Strict: a
            // charged constant instead of a measurement would tie.
            assert!(
                r.delay_ms[2] > r.delay_ms[1],
                "OPT {}ms vs BATE {}ms",
                r.delay_ms[2],
                r.delay_ms[1]
            );
        }
    }
}
