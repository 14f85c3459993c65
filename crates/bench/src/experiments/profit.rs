//! E4/E5 (Fig. 7(c)/(d)), E13 (Fig. 15), E17 (Fig. 19), E19 (Fig. 21):
//! profit and failure-recovery experiments.

use super::common::{demand_snapshot, mean, Env};
use bate_baselines::{paper_baselines, traits::Bate, Ffc, TeAlgorithm, Teavar};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::recovery::milp::optimal_recovery;
use bate_core::AvailabilityClass;
use bate_net::{topologies, GroupId, Scenario};
use bate_routing::RoutingScheme;
use bate_sim::analysis::profit_under_scenario;
use bate_sim::workload::{generate, WorkloadConfig};
use bate_sim::{AdmissionStrategy, RecoveryPolicy, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Fig. 7(c)/(d): profit loss and overall profit gain per (admission
/// strategy × TE algorithm) on the testbed, under real failure events.
pub struct Fig7cdCell {
    pub admission: &'static str,
    pub te: &'static str,
    /// 1 - profit/baseline (Fig. 7(c)).
    pub profit_loss: f64,
    /// profit/baseline (Fig. 7(d)).
    pub profit_gain: f64,
    /// OPT arrivals a solver limit decided, summed over the seeds
    /// (`SimReport::opt_undecided`; booked as rejections).
    pub opt_undecided: usize,
}

pub fn fig7cd(horizon_min: f64, seeds: &[u64]) -> Vec<Fig7cdCell> {
    let env = Env::testbed();
    let pairs = env.demand_pairs(6, 31);
    let admissions = [
        ("Fixed", AdmissionStrategy::Fixed),
        ("BATE-AD", AdmissionStrategy::Bate),
        ("OPT", AdmissionStrategy::Optimal),
    ];
    let bate = Bate;
    let teavar = Teavar::new(0.999);
    let ffc = Ffc::new(1);
    let tes: [(&'static str, &dyn TeAlgorithm, RecoveryPolicy); 3] = [
        ("BATE", &bate, RecoveryPolicy::Backup),
        ("TEAVAR", &teavar, RecoveryPolicy::NextRound),
        ("FFC", &ffc, RecoveryPolicy::NextRound),
    ];
    let pool = bate_core::pricing::testbed_services();

    let mut out = Vec::new();
    for (aname, admission) in admissions {
        for (tname, te, recovery) in tes {
            // Per-seed simulations fan out; the mean is seed-order stable.
            let per_seed: Vec<(f64, usize)> = crate::par::par_map(seeds, |&seed| {
                let mut wl = WorkloadConfig::testbed(pairs.clone(), seed);
                wl.refund_pool = pool.clone();
                let horizon = horizon_min * 60.0;
                let workload = generate(&wl, &env.tunnels, horizon);
                let mut cfg = SimConfig::testbed(horizon, seed);
                cfg.admission = admission;
                cfg.recovery = recovery;
                let rep = Simulation {
                    ctx: env.ctx(),
                    te,
                    config: cfg,
                    workload: &workload,
                }
                .run();
                (rep.profit_gain(&pool), rep.opt_undecided)
            });
            let gains: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
            let gain = mean(&gains);
            out.push(Fig7cdCell {
                admission: aname,
                te: tname,
                profit_loss: 1.0 - gain,
                profit_gain: gain,
                opt_undecided: per_seed.iter().map(|r| r.1).sum(),
            });
        }
    }
    out
}

/// Fig. 15: profit gain after failures vs arrival rate, all algorithms,
/// analytic: allocate → draw weighted single-failure scenarios → recover
/// (BATE) or keep the allocation (baselines) → account refunds.
pub struct Fig15Row {
    pub arrivals_per_min: f64,
    /// `(algorithm, mean profit gain)`.
    pub gains: Vec<(String, f64)>,
}

pub fn fig15(rates: &[usize], seeds: &[u64]) -> Vec<Fig15Row> {
    let env = Env::new(topologies::b4(), RoutingScheme::default_ksp4(), 2);
    let targets = AvailabilityClass::simulation_targets();
    let mut algos: Vec<Box<dyn TeAlgorithm>> = vec![Box::new(Bate)];
    algos.extend(paper_baselines());
    let ctx = env.ctx();

    rates
        .iter()
        .map(|&rate| {
            // Seeds fan out in parallel, each producing one gain value per
            // algorithm; the merge below is in seed order.
            let per_seed: Vec<Vec<f64>> = crate::par::par_map(seeds, |&seed| {
                let demands = demand_snapshot(&env, rate * 4, (100.0, 500.0), &targets, seed);
                let baseline: f64 = demands.iter().map(|d| d.price).sum();
                // Failure scenarios: every single fate-group failure,
                // weighted by its probability.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
                let picks: Vec<GroupId> = (0..5)
                    .map(|_| GroupId(rng.gen_range(0..env.topo.num_groups())))
                    .collect();
                algos
                    .iter()
                    .map(|algo| {
                        let alloc = algo
                            .allocate(&ctx, &demands)
                            .unwrap_or_else(|_| bate_core::Allocation::new());
                        let mut total = 0.0;
                        for &g in &picks {
                            let sc = Scenario::with_failures(&env.topo, &[g]);
                            let profit = if algo.name() == "BATE" {
                                // BATE reroutes with Algorithm 2.
                                greedy_recovery(&ctx, &demands, &sc).profit
                            } else {
                                profit_under_scenario(&ctx, &alloc, &demands, &sc)
                            };
                            total += profit / baseline;
                        }
                        total / picks.len() as f64
                    })
                    .collect()
            });
            let mut gains: Vec<(String, Vec<f64>)> = algos
                .iter()
                .map(|a| (a.name().to_string(), Vec::new()))
                .collect();
            for vals in &per_seed {
                for (ai, &v) in vals.iter().enumerate() {
                    gains[ai].1.push(v);
                }
            }
            Fig15Row {
                arrivals_per_min: rate as f64,
                gains: gains
                    .into_iter()
                    .map(|(name, vals)| (name, mean(&vals)))
                    .collect(),
            }
        })
        .collect()
}

/// Fig. 19 + Fig. 21: greedy recovery quality (OPT profit / greedy profit)
/// and speedup (OPT time / greedy time) vs arrival rate.
pub struct RecoveryRow {
    pub arrivals_per_min: f64,
    pub approx_ratio: f64,
    pub speedup: f64,
}

pub fn fig19_21(rates: &[usize], seeds: &[u64]) -> Vec<RecoveryRow> {
    let env = Env::testbed();
    let ctx = env.ctx();
    let targets = AvailabilityClass::simulation_targets();
    rates
        .iter()
        .map(|&rate| {
            let mut ratios = Vec::new();
            let mut speedups = Vec::new();
            // Deliberately sequential: this sweep measures wall-clock
            // (greedy vs OPT recovery time), and concurrent runs would
            // contend for cores and distort the speedup ratios.
            for &seed in seeds {
                let demands = demand_snapshot(&env, rate * 2, (50.0, 250.0), &targets, seed);
                let n = |s: &str| env.topo.find_node(s).unwrap();
                let l4 = env.topo.find_link(n("DC4"), n("DC5")).unwrap();
                let sc = Scenario::with_failures(&env.topo, &[env.topo.link(l4).group]);

                let t0 = Instant::now();
                let grd = greedy_recovery(&ctx, &demands, &sc);
                let t_greedy = t0.elapsed().as_secs_f64().max(1e-7);

                let t1 = Instant::now();
                if let Ok(opt) = optimal_recovery(&ctx, &demands, &sc) {
                    let t_opt = t1.elapsed().as_secs_f64().max(1e-7);
                    if grd.profit > 0.0 {
                        ratios.push(opt.profit / grd.profit);
                    }
                    speedups.push(t_opt / t_greedy);
                }
            }
            RecoveryRow {
                arrivals_per_min: rate as f64,
                approx_ratio: mean(&ratios),
                speedup: mean(&speedups),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_ratio_bounds() {
        let rows = fig19_21(&[2, 4], &[1, 2]);
        for r in &rows {
            assert!(
                r.approx_ratio >= 1.0 - 1e-6,
                "optimal cannot lose to greedy: {}",
                r.approx_ratio
            );
            assert!(
                r.approx_ratio <= 2.0 + 1e-6,
                "2-approximation bound: {}",
                r.approx_ratio
            );
            assert!(r.speedup > 0.0);
        }
    }

    #[test]
    fn fig7cd_opt_verdicts_are_the_models() {
        let cells = fig7cd(3.0, &[1]);
        assert_eq!(cells.len(), 9);
        for c in &cells {
            assert_eq!(c.opt_undecided, 0, "{} / {}", c.admission, c.te);
        }
    }

    #[test]
    fn fig15_bate_retains_most_profit() {
        let rows = fig15(&[2], &[3]);
        let row = &rows[0];
        let bate = row
            .gains
            .iter()
            .find(|(n, _)| n == "BATE")
            .map(|(_, g)| *g)
            .unwrap();
        for (name, gain) in &row.gains {
            if name != "BATE" {
                assert!(
                    bate >= gain - 0.05,
                    "BATE {bate} should retain at least as much as {name} {gain}"
                );
            }
        }
    }
}
