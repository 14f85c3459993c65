//! Seeded demand-churn workloads for the incremental TE path
//! (DESIGN.md §5e).
//!
//! Between scheduling rounds the admitted demand set drifts by a few
//! percent — arrivals, departures, and rescaled reservations. This module
//! generates that drift deterministically (a seeded stream of
//! [`DemandDelta`] batches at a configurable churn fraction) and drives an
//! [`IncrementalScheduler`] through it, recording per-round solve latency
//! so the warm path's speedup over cold re-solves can be measured.

use bate_core::incremental::{DemandDelta, IncrementalScheduler, IncrementalStats};
use bate_core::{BaDemand, DemandId, TeContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Parameters of a churn workload.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Demands admitted before round 0 (the steady-state pool).
    pub initial_demands: usize,
    /// Scheduling rounds to run after the initial fill.
    pub rounds: usize,
    /// Fraction of the live pool churned per round (the paper's regime is
    /// 1–5%); at least one delta is always generated.
    pub churn_fraction: f64,
    /// s-d pairs (tunnel-set indices) demands may request.
    pub pairs: Vec<usize>,
    /// Distinct pairs per demand (1 = point-to-point; >1 spans several
    /// site pairs, which is what makes the scenario profiles — and the
    /// from-scratch re-solve the warm path avoids — expensive).
    pub pairs_per_demand: usize,
    /// Uniform bandwidth range in Mbps.
    pub bandwidth: (f64, f64),
    /// Availability targets to draw from, uniformly.
    pub availability_targets: Vec<f64>,
    /// Refund ratio `μ` stamped on every generated demand (a fixed value,
    /// not an RNG draw, so changing it never perturbs the delta stream).
    /// Zero keeps recovery profit-neutral; storms set it positive so
    /// forfeited demands actually cost money.
    pub refund_ratio: f64,
    pub seed: u64,
}

impl ChurnConfig {
    /// A small steady pool with the paper's 1–5% churn regime (3%).
    pub fn steady(pairs: Vec<usize>, initial_demands: usize, rounds: usize, seed: u64) -> Self {
        ChurnConfig {
            initial_demands,
            rounds,
            churn_fraction: 0.03,
            pairs,
            pairs_per_demand: 1,
            bandwidth: (10.0, 50.0),
            availability_targets: bate_core::AvailabilityClass::testbed_targets().to_vec(),
            refund_ratio: 0.0,
            seed,
        }
    }
}

/// A generated workload: the initial pool plus one delta batch per round.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    pub initial: Vec<BaDemand>,
    pub rounds: Vec<Vec<DemandDelta>>,
}

fn draw_demand(rng: &mut StdRng, config: &ChurnConfig, id: u64) -> BaDemand {
    let k = config.pairs_per_demand.max(1).min(config.pairs.len());
    let mut chosen = Vec::with_capacity(k);
    while chosen.len() < k {
        let pair = config.pairs[rng.gen_range(0..config.pairs.len())];
        if !chosen.contains(&pair) {
            chosen.push(pair);
        }
    }
    let (lo, hi) = config.bandwidth;
    let bandwidth: Vec<(usize, f64)> =
        chosen.into_iter().map(|p| (p, rng.gen_range(lo..=hi))).collect();
    let beta = config.availability_targets[rng.gen_range(0..config.availability_targets.len())];
    let price = bandwidth.iter().map(|&(_, b)| b).sum();
    BaDemand {
        id: DemandId(id),
        bandwidth,
        beta,
        price,
        refund_ratio: config.refund_ratio,
    }
}

/// Generate the workload deterministically from `config.seed`. Removes and
/// resizes always reference a demand that is live at that point in the
/// stream, so the batches replay cleanly against any scheduler.
pub fn generate(config: &ChurnConfig) -> ChurnWorkload {
    assert!(!config.pairs.is_empty(), "churn workload needs pairs");
    assert!(config.churn_fraction > 0.0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut next_id = 0u64;
    let mut live: Vec<BaDemand> = Vec::new();

    let initial: Vec<BaDemand> = (0..config.initial_demands)
        .map(|_| {
            next_id += 1;
            let d = draw_demand(&mut rng, config, next_id);
            live.push(d.clone());
            d
        })
        .collect();

    let mut rounds = Vec::with_capacity(config.rounds);
    for _ in 0..config.rounds {
        let ops = ((live.len() as f64 * config.churn_fraction).round() as usize).max(1);
        let mut batch = Vec::with_capacity(ops);
        for _ in 0..ops {
            let kind = rng.gen_range(0..3u8);
            match kind {
                1 if !live.is_empty() => {
                    let k = rng.gen_range(0..live.len());
                    batch.push(DemandDelta::Remove(live.swap_remove(k).id));
                }
                2 if !live.is_empty() => {
                    let k = rng.gen_range(0..live.len());
                    let factor = rng.gen_range(0.5..=1.5);
                    let id = live[k].id;
                    for (_, b) in &mut live[k].bandwidth {
                        *b *= factor;
                    }
                    batch.push(DemandDelta::Resize { id, factor });
                }
                _ => {
                    next_id += 1;
                    let d = draw_demand(&mut rng, config, next_id);
                    live.push(d.clone());
                    batch.push(DemandDelta::Add(d));
                }
            }
        }
        rounds.push(batch);
    }
    ChurnWorkload { initial, rounds }
}

/// Per-round measurements from a churn run.
#[derive(Debug, Clone)]
pub struct ChurnRound {
    pub round: usize,
    /// Deltas applied this round (0 for the initial fill).
    pub deltas: usize,
    /// Live demands after the deltas.
    pub live: usize,
    /// Wall-clock of the full `apply` (deltas + warm row-generation loop).
    pub solve_ms: f64,
    /// Did the accepted master optimum ride a saved basis?
    pub warm: bool,
    /// Dual-simplex repair pivots spent this round.
    pub dual_pivots: u64,
    pub objective: f64,
}

/// A completed churn run.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    pub rounds: Vec<ChurnRound>,
    pub stats: IncrementalStats,
}

/// Drive an [`IncrementalScheduler`] through the workload: round 0 admits
/// the initial pool, every later round applies one delta batch, and each
/// round's solve latency is recorded.
pub fn run(
    ctx: &TeContext,
    workload: &ChurnWorkload,
) -> Result<ChurnReport, bate_core::SolveError> {
    let mut sched = IncrementalScheduler::new(ctx);
    let mut rounds = Vec::with_capacity(workload.rounds.len() + 1);

    let initial: Vec<DemandDelta> = workload
        .initial
        .iter()
        .map(|d| DemandDelta::Add(d.clone()))
        .collect();
    let mut prev_pivots = 0u64;
    for (round, batch) in std::iter::once(&initial)
        .chain(workload.rounds.iter())
        .enumerate()
    {
        let t0 = Instant::now();
        let result = sched.apply(ctx, batch)?;
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = sched.stats();
        rounds.push(ChurnRound {
            round,
            deltas: if round == 0 { 0 } else { batch.len() },
            live: sched.demands().len(),
            solve_ms,
            warm: result.solve_stats.warm_start,
            dual_pivots: stats.dual_pivots - prev_pivots,
            objective: result.total_bandwidth,
        });
        prev_pivots = stats.dual_pivots;
    }
    Ok(ChurnReport {
        rounds,
        stats: sched.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_parts() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn workload_is_deterministic_and_replayable() {
        let cfg = ChurnConfig::steady(vec![0, 1], 8, 6, 17);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.initial.len(), b.initial.len());
        assert_eq!(a.rounds.len(), 6);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.len(), y.len());
            for (dx, dy) in x.iter().zip(y) {
                assert_eq!(format!("{dx:?}"), format!("{dy:?}"));
            }
        }
        // Every Remove/Resize targets a demand live at that point.
        let mut live: std::collections::HashSet<u64> =
            a.initial.iter().map(|d| d.id.0).collect();
        for batch in &a.rounds {
            for delta in batch {
                match delta {
                    DemandDelta::Add(d) => assert!(live.insert(d.id.0)),
                    DemandDelta::Remove(id) => assert!(live.remove(&id.0)),
                    DemandDelta::Resize { id, .. } => assert!(live.contains(&id.0)),
                }
            }
        }
    }

    #[test]
    fn churn_run_warms_and_reports_latency() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .take(4)
            .collect();
        let cfg = ChurnConfig::steady(pairs, 6, 5, 23);
        let workload = generate(&cfg);
        let report = run(&ctx, &workload).unwrap();
        assert_eq!(report.rounds.len(), 6);
        assert!(report.rounds.iter().all(|r| r.solve_ms >= 0.0));
        assert!(
            report.stats.warm_rounds > 0,
            "churn rounds should warm-start: {:?}",
            report.stats
        );
    }
}
