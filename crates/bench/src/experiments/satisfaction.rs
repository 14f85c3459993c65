//! E3 (Fig. 7(b)), E6 (Fig. 8), E11/E12 (Fig. 13/14), E16 (Fig. 18):
//! satisfaction experiments.

use super::common::{demand_snapshot, mean, Env};
use bate_baselines::{paper_baselines, traits::Bate, Ffc, TeAlgorithm, Teavar};
use bate_core::AvailabilityClass;
use bate_core::BaDemand;
use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_sim::analysis::{evaluate_te, satisfaction_fraction};
use bate_sim::workload::{generate, WorkloadConfig};
use bate_sim::{AdmissionStrategy, RecoveryPolicy, SimConfig, Simulation};

/// Fig. 7(b): satisfaction percentage per availability-target bucket for
/// BATE vs TEAVAR-Fixed vs FFC-Fixed (event simulation on the testbed).
pub struct Fig7bRow {
    pub target: f64,
    pub bate: f64,
    pub teavar_fixed: f64,
    pub ffc_fixed: f64,
}

pub fn fig7b(horizon_min: f64, seeds: &[u64]) -> Vec<Fig7bRow> {
    let env = Env::testbed();
    let pairs = env.demand_pairs(6, 21);
    let targets = [0.95, 0.99, 0.9999];

    // Each seed is an independent workload plus three simulations, so the
    // seed sweep fans out in parallel; results come back in seed order and
    // the merge below is sequential, so output is thread-count independent.
    let per_seed: Vec<[[f64; 3]; 3]> = crate::par::par_map(seeds, |&seed| {
        let mut wl = WorkloadConfig::testbed(pairs.clone(), seed);
        // The paper's testbed spreads 2/min over a full mesh; the
        // reproduction's 6 pairs get the same pressure via more,
        // fatter demands.
        wl.arrivals_per_min = 6.0;
        wl.bandwidth = bate_sim::workload::BandwidthModel::Uniform {
            lo: 10.0 * 5.0,
            hi: 50.0 * 5.0,
        };
        let horizon = horizon_min * 60.0;
        let workload = generate(&wl, &env.tunnels, horizon);
        let setups: [(&dyn TeAlgorithm, AdmissionStrategy, RecoveryPolicy); 3] = [
            (&Bate, AdmissionStrategy::Bate, RecoveryPolicy::Backup),
            (
                &Teavar::new(0.999),
                AdmissionStrategy::Fixed,
                RecoveryPolicy::NextRound,
            ),
            (
                &Ffc::new(1),
                AdmissionStrategy::Fixed,
                RecoveryPolicy::NextRound,
            ),
        ];
        let mut sat = [[0.0f64; 3]; 3];
        for (ai, (te, admission, recovery)) in setups.iter().enumerate() {
            let mut cfg = SimConfig::testbed(horizon, seed);
            cfg.admission = *admission;
            cfg.recovery = *recovery;
            let rep = Simulation {
                ctx: env.ctx(),
                te: *te,
                config: cfg,
                workload: &workload,
            }
            .run();
            for (ti, &t) in targets.iter().enumerate() {
                sat[ai][ti] = rep.satisfaction_for_target(t);
            }
        }
        sat
    });
    let mut per_algo: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); targets.len()]; 3];
    for sat in &per_seed {
        for (ai, row) in sat.iter().enumerate() {
            for (ti, &v) in row.iter().enumerate() {
                per_algo[ai][ti].push(v);
            }
        }
    }

    targets
        .iter()
        .enumerate()
        .map(|(ti, &target)| Fig7bRow {
            target,
            bate: mean(&per_algo[0][ti]),
            teavar_fixed: mean(&per_algo[1][ti]),
            ffc_fixed: mean(&per_algo[2][ti]),
        })
        .collect()
}

/// Fig. 8: delivered/demanded ratio samples per algorithm (CDF input).
pub fn fig8(horizon_min: f64, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let env = Env::testbed();
    let pairs = env.demand_pairs(6, 22);
    let mut wl = WorkloadConfig::testbed(pairs, seed);
                wl.arrivals_per_min = 6.0;
                wl.bandwidth = bate_sim::workload::BandwidthModel::Uniform {
                    lo: 10.0 * 5.0,
                    hi: 50.0 * 5.0,
                };
    let horizon = horizon_min * 60.0;
    let workload = generate(&wl, &env.tunnels, horizon);
    let bate = Bate;
    let teavar = Teavar::new(0.999);
    let ffc = Ffc::new(1);
    let setups: [(&dyn TeAlgorithm, AdmissionStrategy); 3] = [
        (&bate, AdmissionStrategy::Bate),
        (&teavar, AdmissionStrategy::AcceptAll),
        (&ffc, AdmissionStrategy::AcceptAll),
    ];
    setups
        .iter()
        .map(|(te, admission)| {
            let mut cfg = SimConfig::testbed(horizon, seed);
            cfg.admission = *admission;
            cfg.recovery = RecoveryPolicy::NextRound;
            let rep = Simulation {
                ctx: env.ctx(),
                te: *te,
                config: cfg,
                workload: &workload,
            }
            .run();
            (te.name(), rep.bw_ratio_samples)
        })
        .collect()
}

/// One Fig. 13/14/18-style series: satisfaction per arrival rate.
pub struct SatisfactionSeries {
    pub algorithm: String,
    /// `(arrival rate, satisfaction fraction)`.
    pub points: Vec<(f64, f64)>,
}

/// Fig. 13: analytic satisfaction of all six algorithms vs arrival rate.
/// BATE admits with its own pipeline (its rejections are not counted as
/// unsatisfied — they were never served); baselines take every demand.
pub fn fig13(max_rate: usize, seeds: &[u64]) -> Vec<SatisfactionSeries> {
    satisfaction_sweep(max_rate, seeds, false)
}

/// Fig. 14: the same sweep with every algorithm behind the fixed admission
/// filter.
pub fn fig14(max_rate: usize, seeds: &[u64]) -> Vec<SatisfactionSeries> {
    satisfaction_sweep(max_rate, seeds, true)
}

fn satisfaction_sweep(
    max_rate: usize,
    seeds: &[u64],
    fixed_admission: bool,
) -> Vec<SatisfactionSeries> {
    let env = Env::new(topologies::b4(), RoutingScheme::default_ksp4(), 2);
    let targets = AvailabilityClass::simulation_targets();

    let mut algos: Vec<Box<dyn TeAlgorithm>> = vec![Box::new(Bate)];
    algos.extend(paper_baselines());

    let mut series: Vec<SatisfactionSeries> = algos
        .iter()
        .map(|a| SatisfactionSeries {
            algorithm: a.name().to_string(),
            points: Vec::new(),
        })
        .collect();

    for rate in 1..=max_rate {
        // Seeds are independent trials: fan the sweep out, collect one
        // value per algorithm per seed, and merge in seed order.
        let per_seed: Vec<Vec<f64>> = crate::par::par_map(seeds, |&seed| {
            // rate r/min with 5-min lifetimes gives ~5r active demands in the
            // paper; we use 3r demands at ~2x bandwidth for the same pressure.
            let all = demand_snapshot(&env, rate * 4, (100.0, 500.0), &targets, seed);
            let ctx = env.ctx();
            // Admission filter.
            let admitted: Vec<BaDemand> = if fixed_admission {
                let mut current = bate_core::Allocation::new();
                let mut kept = Vec::new();
                for d in &all {
                    if let Some(a) = bate_core::admission::fixed::fixed_admission(&ctx, &current, d)
                    {
                        for (t, f) in a.flows_of(d.id) {
                            current.set(d.id, t, f);
                        }
                        kept.push(d.clone());
                    }
                }
                kept
            } else {
                all.clone()
            };
            algos
                .iter()
                .map(|algo| {
                    let demands: Vec<BaDemand> = if algo.name() == "BATE" && !fixed_admission {
                        // BATE's own admission pipeline.
                        let mut current = bate_core::Allocation::new();
                        let mut kept: Vec<BaDemand> = Vec::new();
                        for d in &all {
                            let out = bate_core::admission::admit(&ctx, &kept, &current, d);
                            if let bate_core::admission::AdmissionOutcome::Admitted {
                                allocation, ..
                            } = out
                            {
                                for (t, f) in allocation.flows_of(d.id) {
                                    current.set(d.id, t, f);
                                }
                                kept.push(d.clone());
                            }
                        }
                        kept
                    } else {
                        admitted.clone()
                    };
                    if demands.is_empty() {
                        return 1.0;
                    }
                    let outcomes = evaluate_te(&ctx, algo.as_ref(), &demands);
                    satisfaction_fraction(&outcomes)
                })
                .collect()
        });
        let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
        for vals in &per_seed {
            for (ai, &v) in vals.iter().enumerate() {
                per_algo[ai].push(v);
            }
        }
        for (ai, vals) in per_algo.iter().enumerate() {
            series[ai].points.push((rate as f64, mean(vals)));
        }
    }
    series
}

/// Fig. 18: achieved availability (satisfaction) per routing scheme.
pub fn fig18(max_rate: usize, seeds: &[u64]) -> Vec<SatisfactionSeries> {
    let schemes = [
        ("Oblivious", RoutingScheme::Oblivious(4)),
        ("Edge-disjoint", RoutingScheme::EdgeDisjoint(4)),
        ("KSP-4", RoutingScheme::Ksp(4)),
    ];
    let targets = AvailabilityClass::simulation_targets();
    schemes
        .iter()
        .map(|(name, scheme)| {
            let env = Env::new(topologies::b4(), *scheme, 2);
            let ctx = env.ctx();
            let points = (1..=max_rate)
                .map(|rate| {
                    // Per-seed trials fan out; mean over seed order.
                    let vals: Vec<f64> = crate::par::par_map(seeds, |&seed| {
                            let all =
                                demand_snapshot(&env, rate * 4, (100.0, 500.0), &targets, seed);
                            // BATE serves admitted demands (as in Fig. 13).
                            let mut admitted = Vec::new();
                            let mut current = bate_core::Allocation::new();
                            for d in &all {
                                if let bate_core::admission::AdmissionOutcome::Admitted {
                                    allocation,
                                    ..
                                } = bate_core::admission::admit(&ctx, &admitted, &current, d)
                                {
                                    for (t, f) in allocation.flows_of(d.id) {
                                        current.set(d.id, t, f);
                                    }
                                    admitted.push(d.clone());
                                }
                            }
                            let outcomes = evaluate_te(&ctx, &Bate, &admitted);
                            satisfaction_fraction(&outcomes)
                        });
                    (rate as f64, mean(&vals))
                })
                .collect();
            SatisfactionSeries {
                algorithm: name.to_string(),
                points,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_bate_leads() {
        let series = fig13(2, &[5]);
        let bate = series.iter().find(|s| s.algorithm == "BATE").unwrap();
        let ffc = series.iter().find(|s| s.algorithm == "FFC").unwrap();
        for ((_, b), (_, f)) in bate.points.iter().zip(&ffc.points) {
            assert!(b >= f, "BATE {b} must beat FFC {f}");
        }
        // BATE stays near 100 % (its admission only takes what it can
        // guarantee).
        for (_, b) in &bate.points {
            assert!(*b > 0.95, "BATE satisfaction {b}");
        }
    }

    #[test]
    fn fig18_all_schemes_reasonable() {
        let series = fig18(1, &[3]);
        assert_eq!(series.len(), 3);
        for s in &series {
            for (_, v) in &s.points {
                assert!(*v > 0.9, "{}: {v}", s.algorithm);
            }
        }
    }
}
