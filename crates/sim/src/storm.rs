//! Recovery-storm workloads: a region SRLG cut during demand churn.
//!
//! The hard case for the incremental TE path (DESIGN.md §5e) is a
//! correlated failure landing *while* the demand set is drifting: a fiber
//! conduit takes several fate groups down at once, every affected demand
//! needs Algorithm-2 (and optionally exact-MILP) recovery, and the 1–5%
//! per-round churn keeps flowing through the [`IncrementalScheduler`] at
//! the same time. This module generates that timeline deterministically
//! and reports per-round profit, recovery quality, and recovery latency so
//! the greedy-vs-optimal gap under storms can be plotted.
//!
//! Timeline: `pre_rounds` of churn on a healthy network, then the SRLG
//! event fires ([`FailureProcess::fail_event`]) and stays active for
//! `storm_rounds` of concurrent churn + recovery, then the conduit is
//! repaired for `post_rounds` of churn. Everything is seeded; with
//! `measure_time = false` latencies are pinned to zero and a run is
//! bitwise reproducible.

use crate::churn::{self, ChurnConfig};
use bate_core::incremental::{DemandDelta, IncrementalScheduler};
use bate_core::recovery::{greedy::greedy_recovery, milp::optimal_recovery, storm_metrics};
use bate_core::recovery::RecoveryOutcome;
use bate_core::{BaDemand, TeContext};
use bate_net::{GroupId, SrlgSet};
use std::time::Instant;

/// Parameters of a recovery storm.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// The churn stream (pool size, fraction, pairs, seed). Its `rounds`
    /// field is ignored; the storm derives the round count below.
    pub churn: ChurnConfig,
    /// Churn-only rounds before the cut.
    pub pre_rounds: usize,
    /// Rounds with the SRLG event active (churn + recovery each round).
    pub storm_rounds: usize,
    /// Churn-only rounds after repair.
    pub post_rounds: usize,
    /// Fate groups severed together by the region event.
    pub srlg_groups: Vec<GroupId>,
    /// The event's failure probability (prices the storm scenario).
    pub srlg_prob: f64,
    /// Also solve the exact recovery MILP each storm round (the
    /// greedy-vs-optimal delta; skip on large instances).
    pub run_milp: bool,
    /// Record wall-clock recovery/solve latencies. `false` pins every
    /// latency to zero so reports are bitwise deterministic.
    pub measure_time: bool,
    /// Flight-recorder trigger: a storm round whose Algorithm-2 recovery
    /// exceeds this bound (ms, measured even when `measure_time` is off)
    /// dumps the ring via [`bate_obs::flight::trigger`]. `None` disables.
    pub latency_bound_ms: Option<f64>,
}

impl StormConfig {
    /// A small deterministic storm: 3 healthy rounds, 4 storm rounds, 2
    /// recovery rounds, 3% churn, MILP deltas on, latencies pinned.
    pub fn regional(
        pairs: Vec<usize>,
        initial_demands: usize,
        srlg_groups: Vec<GroupId>,
        seed: u64,
    ) -> StormConfig {
        let mut churn = ChurnConfig::steady(pairs, initial_demands, 0, seed);
        // Azure-scale refunds so forfeiting a demand costs real profit.
        churn.refund_ratio = 0.25;
        StormConfig {
            churn,
            pre_rounds: 3,
            storm_rounds: 4,
            post_rounds: 2,
            srlg_groups,
            srlg_prob: 0.01,
            run_milp: true,
            measure_time: false,
            latency_bound_ms: None,
        }
    }
}

/// Which part of the timeline a round belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Healthy network, churn only.
    Pre,
    /// SRLG event active: churn + recovery.
    Storm,
    /// Conduit repaired, churn only.
    Post,
}

/// One round of the storm timeline.
#[derive(Debug, Clone)]
pub struct StormRound {
    pub round: usize,
    pub phase: Phase,
    /// Churn deltas applied this round (0 for the initial fill).
    pub deltas: usize,
    /// Live demands after the deltas.
    pub live: usize,
    /// Did the scheduler's accepted optimum ride a saved basis?
    pub warm: bool,
    /// Scheduling objective (total allocated bandwidth).
    pub objective: f64,
    /// Profit had no failure occurred (every live demand satisfied).
    pub baseline_profit: f64,
    /// Algorithm-2 outcome, storm rounds only.
    pub greedy_satisfied: usize,
    pub greedy_profit: f64,
    pub greedy_ms: f64,
    /// Exact-MILP outcome, storm rounds with `run_milp` only.
    pub milp_satisfied: Option<usize>,
    pub milp_profit: Option<f64>,
    pub milp_ms: f64,
}

/// A completed storm run.
#[derive(Debug, Clone)]
pub struct StormReport {
    pub rounds: Vec<StormRound>,
    /// Exact joint probability of the storm scenario under the SRLG model.
    pub scenario_probability: f64,
    /// The same state priced by the raw per-group independence product —
    /// the availability overstatement a correlation-blind model commits.
    pub independent_probability: f64,
}

impl StormReport {
    fn storm_rounds(&self) -> impl Iterator<Item = &StormRound> {
        self.rounds.iter().filter(|r| r.phase == Phase::Storm)
    }

    /// Mean fraction of baseline profit retained by Algorithm 2 across the
    /// storm rounds.
    pub fn greedy_profit_retention(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0);
        for r in self.storm_rounds() {
            if r.baseline_profit > 0.0 {
                sum += r.greedy_profit / r.baseline_profit;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Mean greedy-vs-optimal profit gap fraction over storm rounds (0 when
    /// the MILP was not run).
    pub fn milp_profit_gap(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0);
        for r in self.storm_rounds() {
            if let Some(m) = r.milp_profit {
                if m > 0.0 {
                    sum += (m - r.greedy_profit) / m;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean Algorithm-2 latency over storm rounds, ms.
    pub fn mean_greedy_ms(&self) -> f64 {
        let v: Vec<f64> = self.storm_rounds().map(|r| r.greedy_ms).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Mean exact-MILP latency over storm rounds, ms.
    pub fn mean_milp_ms(&self) -> f64 {
        let v: Vec<f64> = self
            .storm_rounds()
            .filter(|r| r.milp_profit.is_some())
            .map(|r| r.milp_ms)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

/// Run the storm timeline against `ctx` (whose scenario set prices the
/// scheduler; the storm scenario itself is priced by the SRLG model).
pub fn run(ctx: &TeContext, config: &StormConfig) -> Result<StormReport, bate_core::SolveError> {
    let total_rounds = config.pre_rounds + config.storm_rounds + config.post_rounds;
    let mut churn_cfg = config.churn.clone();
    churn_cfg.rounds = total_rounds;
    let workload = churn::generate(&churn_cfg);

    // The SRLG layer: one region event over the configured groups.
    let mut srlgs = SrlgSet::new(ctx.topo);
    srlgs.add("storm-region", config.srlg_prob, &config.srlg_groups);
    let mut fp = crate::failures::FailureProcess::with_srlgs(ctx.topo, &srlgs, 3.0);
    let storm_event = ctx.topo.num_groups(); // first (only) SRLG event

    let m = storm_metrics();
    let mut sched = IncrementalScheduler::new(ctx);
    let mut rounds = Vec::with_capacity(total_rounds + 1);
    let mut scenario_probability = 0.0;
    let mut independent_probability = 0.0;

    let initial: Vec<DemandDelta> = workload
        .initial
        .iter()
        .map(|d| DemandDelta::Add(d.clone()))
        .collect();
    for (round, batch) in std::iter::once(&initial)
        .chain(workload.rounds.iter())
        .enumerate()
    {
        // Phase transitions happen before the round's churn: the cut lands
        // at the start of the first storm round, the repair at the start
        // of the first post round. Round 0 is the initial fill.
        let phase = if round == 0 || round <= config.pre_rounds {
            Phase::Pre
        } else if round <= config.pre_rounds + config.storm_rounds {
            Phase::Storm
        } else {
            Phase::Post
        };
        match phase {
            Phase::Storm if !fp.event_active(storm_event) => {
                fp.fail_event(storm_event);
                m.events.inc();
                let sc = fp.current_scenario(ctx.topo);
                scenario_probability = sc.probability;
                independent_probability =
                    bate_net::scenario::scenario_probability(ctx.topo, &sc.failed);
            }
            Phase::Post if fp.event_active(storm_event) => {
                fp.repair_event(storm_event);
            }
            _ => {}
        }

        let result = sched.apply(ctx, batch)?;
        if phase == Phase::Storm {
            m.churn_deltas.add(batch.len() as u64);
        }
        let demands: Vec<BaDemand> = sched.demands().into_iter().cloned().collect();
        let baseline_profit = RecoveryOutcome::baseline_profit(&demands);

        let mut record = StormRound {
            round,
            phase,
            deltas: if round == 0 { 0 } else { batch.len() },
            live: demands.len(),
            warm: result.solve_stats.warm_start,
            objective: result.total_bandwidth,
            baseline_profit,
            greedy_satisfied: 0,
            greedy_profit: baseline_profit,
            greedy_ms: 0.0,
            milp_satisfied: None,
            milp_profit: None,
            milp_ms: 0.0,
        };

        if phase == Phase::Storm {
            let scenario = fp.current_scenario(ctx.topo);

            let t0 = Instant::now();
            let greedy = greedy_recovery(ctx, &demands, &scenario);
            let greedy_ms = if config.measure_time {
                t0.elapsed().as_secs_f64() * 1e3
            } else {
                0.0
            };
            m.recovery_runs.inc();
            m.recovered.add(greedy.satisfied.len() as u64);
            m.forfeited
                .add(demands.len().saturating_sub(greedy.satisfied.len()) as u64);
            m.recovery_ms.observe_ms(t0.elapsed());
            record.greedy_satisfied = greedy.satisfied.len();
            record.greedy_profit = greedy.profit;
            record.greedy_ms = greedy_ms;
            // A recovery round blowing its latency budget is a flight
            // trigger — the measured elapsed time is used even when the
            // *report* pins latencies to zero, so the deterministic CSV
            // stays byte-stable while the breach still dumps.
            if let Some(bound) = config.latency_bound_ms {
                let measured_ms = t0.elapsed().as_secs_f64() * 1e3;
                if measured_ms > bound {
                    bate_obs::warn!(
                        "storm.latency_breach",
                        round = round,
                        bound_ms = bound,
                    );
                    bate_obs::flight::trigger(
                        "storm_latency_breach",
                        bate_obs::context::current().trace_id,
                    );
                }
            }

            if config.run_milp {
                let t1 = Instant::now();
                let milp = optimal_recovery(ctx, &demands, &scenario)?;
                record.milp_ms = if config.measure_time {
                    t1.elapsed().as_secs_f64() * 1e3
                } else {
                    0.0
                };
                m.recovery_runs.inc();
                record.milp_satisfied = Some(milp.satisfied.len());
                record.milp_profit = Some(milp.profit);
            }
        }
        rounds.push(record);
    }

    Ok(StormReport {
        rounds,
        scenario_probability,
        independent_probability,
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
    fn storm_runs_end_to_end_with_phases() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| !tunnels.tunnels(p).is_empty())
            .take(4)
            .collect();
        let cfg = StormConfig::regional(pairs, 6, vec![GroupId(1), GroupId(3)], 11);
        let report = run(&ctx, &cfg).unwrap();
        assert_eq!(report.rounds.len(), 1 + 3 + 4 + 2);
        let phases: Vec<Phase> = report.rounds.iter().map(|r| r.phase).collect();
        assert_eq!(&phases[..4], &[Phase::Pre; 4]);
        assert_eq!(&phases[4..8], &[Phase::Storm; 4]);
        assert_eq!(&phases[8..], &[Phase::Post; 2]);
        // Storm rounds ran both recovery paths; greedy never beats the
        // exact MILP.
        for r in report.rounds.iter().filter(|r| r.phase == Phase::Storm) {
            assert!(r.greedy_profit <= r.milp_profit.unwrap() + 1e-9);
            assert!(r.milp_profit.unwrap() <= r.baseline_profit + 1e-9);
        }
        // The storm scenario's correlated probability dwarfs the
        // independence product (two 1e-6 links vs a 1% conduit).
        assert!(report.scenario_probability > 100.0 * report.independent_probability);
    }

    #[test]
    fn storm_report_is_deterministic_without_timing() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let cfg = StormConfig::regional(vec![0, 1], 5, vec![GroupId(0)], 23);
        let a = run(&ctx, &cfg).unwrap();
        let b = run(&ctx, &cfg).unwrap();
        assert_eq!(format!("{:?}", a.rounds), format!("{:?}", b.rounds));
    }
}
