//! The simulation engine: admission + scheduling + failures + recovery.

use crate::dataplane::deliveries;
use crate::events::{Event, EventQueue};
use crate::failures::FailureProcess;
use crate::metrics::{DemandRecord, SimReport};
use crate::workload::GeneratedDemand;
use bate_baselines::TeAlgorithm;
use bate_core::admission::{self, optimal::optimal_feasible, AdmissionOutcome};
use bate_core::recovery::backup::BackupPlan;
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::recovery::milp::optimal_recovery;
use bate_core::{Allocation, BaDemand, TeContext};
use bate_net::GroupId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Which admission strategy the run uses (Fig. 7(a)/12 compare all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionStrategy {
    /// Step 1 only (the paper's "Fixed" baseline).
    Fixed,
    /// BATE's full pipeline (fixed check + Algorithm-1 conjecture).
    Bate,
    /// The Appendix-A MILP ("OPT").
    Optimal,
    /// Admit everything (baseline TE algorithms have no admission control;
    /// used when comparing raw TE behaviour).
    AcceptAll,
}

/// What happens right after a link fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Nothing until the next scheduling round (how the plain baselines
    /// behave).
    NextRound,
    /// Run Algorithm 2 on the spot, behind a fixed 50 ms outage window.
    Greedy,
    /// Use the backup allocation precomputed at the last scheduling round
    /// (§3.4); near-instant activation.
    Backup,
    /// Solve the recovery MILP on the spot (slow — Fig. 21's 50× baseline).
    Optimal,
}

/// The outage window charged for an on-the-spot recovery computation, in
/// seconds: the paper's testbed floor of 50 ms. It is a constant, not a
/// measurement, so the event schedule does not depend on host speed.
const RECOVERY_OUTAGE_SECS: f64 = 0.05;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduling period in seconds (testbed: 60 s).
    pub schedule_interval_secs: f64,
    /// Link repair time in seconds (default 3 s, swept in Fig. 20).
    pub repair_time_secs: f64,
    /// Simulated horizon in seconds.
    pub horizon_secs: f64,
    pub admission: AdmissionStrategy,
    pub recovery: RecoveryPolicy,
    /// When true, every rejection is double-checked against the optimal
    /// MILP to count false rejections (Fig. 12(d)). Expensive.
    pub measure_false_rejections: bool,
    /// Seed for the failure process.
    pub seed: u64,
}

impl SimConfig {
    /// The §5.1 testbed defaults: 1-minute scheduling, 3-second repairs.
    pub fn testbed(horizon_secs: f64, seed: u64) -> SimConfig {
        SimConfig {
            schedule_interval_secs: 60.0,
            repair_time_secs: 3.0,
            horizon_secs,
            admission: AdmissionStrategy::Bate,
            recovery: RecoveryPolicy::Backup,
            measure_false_rejections: false,
            seed,
        }
    }
}

/// One simulation run binding a context, a TE algorithm, a config, and a
/// pre-generated workload.
pub struct Simulation<'a> {
    pub ctx: TeContext<'a>,
    pub te: &'a dyn TeAlgorithm,
    pub config: SimConfig,
    pub workload: &'a [GeneratedDemand],
}

struct State<'a> {
    ctx: TeContext<'a>,
    active: Vec<BaDemand>,
    base_alloc: Allocation,
    /// Recovery allocation in force while failures are present.
    overlay: Option<Allocation>,
    /// Recovery computed but not yet activated: (sequence, allocation).
    pending: Option<(u64, Allocation)>,
    recovery_seq: u64,
    fp: FailureProcess,
    records: HashMap<u64, usize>,
    report: SimReport,
    last_time: f64,
    util_integral: f64,
    loss_integral: f64,
    demand_integral: f64,
    backup: Option<BackupPlan>,
    /// Demand ids the current backup plan was computed for; arrivals after
    /// the last round make the plan stale.
    backup_for: Vec<u64>,
}

impl<'a> State<'a> {
    fn effective_alloc(&self) -> &Allocation {
        match (&self.overlay, self.fp.any_down()) {
            (Some(o), true) => o,
            _ => &self.base_alloc,
        }
    }

    /// Integrate satisfaction/loss/utilization from `last_time` to `t`.
    fn accrue(&mut self, t: f64) {
        let dt = t - self.last_time;
        if dt <= 0.0 {
            return;
        }
        self.last_time = t;
        let scenario = self.fp.current_scenario(self.ctx.topo);
        let alloc = match (&self.overlay, self.fp.any_down()) {
            (Some(o), true) => o.clone(),
            _ => self.base_alloc.clone(),
        };
        if !self.active.is_empty() {
            let dels = deliveries(&self.ctx, &alloc, &self.active, &scenario);
            for (demand, del) in self.active.iter().zip(&dels) {
                if let Some(&ri) = self.records.get(&demand.id.0) {
                    let rec = &mut self.report.demands[ri];
                    rec.total_secs += dt;
                    if del.satisfied() {
                        rec.satisfied_secs += dt;
                    }
                }
                for &(_, b, got) in &del.per_pair {
                    self.loss_integral += (b - got) * dt;
                    self.demand_integral += b * dt;
                }
            }
        }
        self.util_integral += alloc.mean_utilization(&self.ctx) * dt;
    }
}

impl<'a> Simulation<'a> {
    /// Run to the horizon and produce the report.
    pub fn run(&self) -> SimReport {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut queue = EventQueue::new();
        let mut st = State {
            ctx: self.ctx,
            active: Vec::new(),
            base_alloc: Allocation::new(),
            overlay: None,
            pending: None,
            recovery_seq: 0,
            fp: FailureProcess::new(self.ctx.topo, cfg.repair_time_secs),
            records: HashMap::new(),
            report: SimReport {
                failure_counts: vec![0; self.ctx.topo.num_groups()],
                horizon_secs: cfg.horizon_secs,
                ..Default::default()
            },
            last_time: 0.0,
            util_integral: 0.0,
            loss_integral: 0.0,
            demand_integral: 0.0,
            backup: None,
            backup_for: Vec::new(),
        };

        // Seed events: arrivals, schedule rounds, first failure per group.
        for g in self.workload {
            if g.arrival_time < cfg.horizon_secs {
                queue.push(g.arrival_time, Event::Arrival(g.demand.clone()));
            }
        }
        let mut t = cfg.schedule_interval_secs;
        while t < cfg.horizon_secs {
            queue.push(t, Event::ScheduleRound);
            t += cfg.schedule_interval_secs;
        }
        for (g, _) in self.ctx.topo.groups() {
            let gap = st.fp.sample_gap(&mut rng, g);
            if gap < cfg.horizon_secs {
                queue.push(gap, Event::LinkFailure(g));
            }
        }

        // Map workload metadata for record creation.
        let meta: HashMap<u64, &GeneratedDemand> =
            self.workload.iter().map(|g| (g.demand.id.0, g)).collect();

        while let Some((time, event)) = queue.pop() {
            if time > cfg.horizon_secs {
                break;
            }
            st.accrue(time);
            match event {
                Event::Arrival(demand) => {
                    self.handle_arrival(&mut st, &mut queue, &meta, time, demand)
                }
                Event::Departure(id) => {
                    st.active.retain(|d| d.id != id);
                    st.base_alloc.remove_demand(id);
                    if let Some(o) = &mut st.overlay {
                        o.remove_demand(id);
                    }
                }
                Event::ScheduleRound => self.handle_schedule_round(&mut st, time),
                Event::LinkFailure(g) => {
                    self.handle_failure(&mut st, &mut queue, &mut rng, time, g)
                }
                Event::LinkRepair(g) => {
                    st.fp.repair(g);
                    if !st.fp.any_down() {
                        st.overlay = None;
                        st.pending = None;
                    }
                }
                Event::ApplyRecovery(seq) => {
                    if let Some((pseq, alloc)) = st.pending.take() {
                        if pseq == seq && st.fp.any_down() {
                            st.overlay = Some(alloc);
                        } else if pseq != seq {
                            st.pending = Some((pseq, alloc));
                        }
                    }
                }
            }
        }
        st.accrue(cfg.horizon_secs);

        let mut report = st.report;
        report.mean_link_utilization = st.util_integral / cfg.horizon_secs;
        report.data_loss_ratio = if st.demand_integral > 0.0 {
            st.loss_integral / st.demand_integral
        } else {
            0.0
        };
        report
    }

    fn handle_arrival(
        &self,
        st: &mut State,
        queue: &mut EventQueue,
        meta: &HashMap<u64, &GeneratedDemand>,
        time: f64,
        demand: BaDemand,
    ) {
        st.report.arrived += 1;
        // The decision's wall time goes to a report-level list that no
        // event is scheduled on, so every record stays a function of the
        // seed (Fig. 12(c) reads the list).
        let started = Instant::now();
        let outcome = match self.config.admission {
            AdmissionStrategy::Fixed => {
                match admission::fixed::fixed_admission(&st.ctx, &st.base_alloc, &demand) {
                    Some(allocation) => AdmissionOutcome::Admitted {
                        path: admission::AdmitPath::Fixed,
                        allocation,
                    },
                    None => AdmissionOutcome::Rejected,
                }
            }
            AdmissionStrategy::Bate => {
                admission::admit(&st.ctx, &st.active, &st.base_alloc, &demand)
            }
            AdmissionStrategy::Optimal => {
                let mut all = st.active.clone();
                all.push(demand.clone());
                match optimal_feasible(&st.ctx, &all) {
                    Ok(true) => {
                        // Take the newcomer's allocation from a reschedule.
                        match bate_core::scheduling::schedule_hardened(&st.ctx, &all) {
                            Ok(res) => AdmissionOutcome::Admitted {
                                path: admission::AdmitPath::Conjecture,
                                allocation: res.allocation,
                            },
                            Err(_) => AdmissionOutcome::Rejected,
                        }
                    }
                    _ => AdmissionOutcome::Rejected,
                }
            }
            AdmissionStrategy::AcceptAll => AdmissionOutcome::Admitted {
                path: admission::AdmitPath::Fixed,
                // Best-effort immediate placement so the demand isn't
                // starved until the next TE round (baselines install the
                // newcomer right away on whatever capacity remains).
                allocation: admission::greedy::best_effort_allocation(
                    &st.ctx,
                    &st.base_alloc,
                    &demand,
                ),
            },
        };
        (st.report.admission_wall_ms).push(started.elapsed().as_secs_f64() * 1000.0);

        let g = meta.get(&demand.id.0).expect("workload metadata");
        let mut record = DemandRecord {
            id: demand.id.0,
            beta: demand.beta,
            price: demand.price,
            schedule: g.schedule,
            bandwidth: demand.total_bandwidth(),
            admitted: false,
            total_secs: 0.0,
            satisfied_secs: 0.0,
        };

        match outcome {
            AdmissionOutcome::Admitted { allocation, .. } => {
                st.report.admitted += 1;
                record.admitted = true;
                for (tid, f) in allocation.flows_of(demand.id) {
                    st.base_alloc.set(demand.id, tid, f);
                }
                queue.push(time + g.duration, Event::Departure(demand.id));
                st.active.push(demand.clone());
            }
            AdmissionOutcome::Rejected => {
                st.report.rejected += 1;
                if self.config.measure_false_rejections {
                    let mut all = st.active.clone();
                    all.push(demand.clone());
                    if optimal_feasible(&st.ctx, &all).unwrap_or(false) {
                        st.report.false_rejections += 1;
                    }
                }
            }
        }
        st.records.insert(demand.id.0, st.report.demands.len());
        st.report.demands.push(record);
    }

    fn handle_schedule_round(&self, st: &mut State, time: f64) {
        if st.active.is_empty() {
            return;
        }
        if let Ok(alloc) = self.te.allocate(&st.ctx, &st.active) {
            st.base_alloc = alloc;
        }
        // Sample delivered/demanded ratios for Fig. 8 under the current
        // link state.
        let scenario = st.fp.current_scenario(self.ctx.topo);
        let eff = st.effective_alloc().clone();
        let mut satisfied = 0usize;
        for del in deliveries(&st.ctx, &eff, &st.active, &scenario) {
            if del.satisfied() {
                satisfied += 1;
            }
            st.report.bw_ratio_samples.push(del.ratio());
        }
        // Sequential context, deterministic fields only: the sim time is
        // event time, never the wall clock.
        bate_obs::info!(
            "sim.round",
            sim_time = time,
            active = st.active.len(),
            satisfied = satisfied,
            failed_groups = st.fp.failed_groups().len(),
        );
        // Refresh backup plans (§3.4: the online scheduler precomputes
        // backups each round).
        if self.config.recovery == RecoveryPolicy::Backup {
            st.backup = Some(BackupPlan::compute(&st.ctx, &st.active));
            st.backup_for = st.active.iter().map(|d| d.id.0).collect();
        }
        // Failures in progress: recompute the overlay against the new base.
        if st.fp.any_down() && self.config.recovery != RecoveryPolicy::NextRound {
            let scenario = st.fp.current_scenario(self.ctx.topo);
            let out = greedy_recovery(&st.ctx, &st.active, &scenario);
            st.overlay = Some(out.allocation);
        }
    }

    fn handle_failure(
        &self,
        st: &mut State,
        queue: &mut EventQueue,
        rng: &mut StdRng,
        time: f64,
        g: GroupId,
    ) {
        // Schedule this group's next failure after the repair completes.
        let gap = st.fp.sample_gap(rng, g);
        let next = time + self.config.repair_time_secs + gap;
        if next < self.config.horizon_secs {
            queue.push(next, Event::LinkFailure(g));
        }
        if !st.fp.fail(g) {
            return; // already down
        }
        st.report.failure_counts[g.index()] += 1;
        queue.push(time + self.config.repair_time_secs, Event::LinkRepair(g));

        if st.active.is_empty() {
            return;
        }
        let scenario = st.fp.current_scenario(self.ctx.topo);
        let (outcome, compute_secs) = match self.config.recovery {
            RecoveryPolicy::NextRound => return,
            RecoveryPolicy::Backup => {
                let failed = st.fp.failed_groups();
                // A plan is only usable if it covers every currently
                // active demand (arrivals after the last round stale it).
                let fresh = st
                    .active
                    .iter()
                    .all(|d| st.backup_for.contains(&d.id.0));
                match st.backup.as_ref().filter(|_| fresh).and_then(|p| p.lookup(&failed)) {
                    // Precomputed: activation is near-instant.
                    Some(out) => (out.clone(), 0.1),
                    None => (
                        greedy_recovery(&st.ctx, &st.active, &scenario),
                        RECOVERY_OUTAGE_SECS,
                    ),
                }
            }
            RecoveryPolicy::Greedy => (
                greedy_recovery(&st.ctx, &st.active, &scenario),
                RECOVERY_OUTAGE_SECS,
            ),
            RecoveryPolicy::Optimal => (
                optimal_recovery(&st.ctx, &st.active, &scenario)
                    .unwrap_or_else(|_| greedy_recovery(&st.ctx, &st.active, &scenario)),
                RECOVERY_OUTAGE_SECS,
            ),
        };
        st.recovery_seq += 1;
        // Per-failure recovery convergence: how many demands survive the
        // reroute and how long the outage window is, keyed by sim time.
        bate_obs::warn!(
            "sim.recovery",
            sim_time = time,
            group = g.index(),
            active = st.active.len(),
            survivors = outcome.satisfied.len(),
            outage_secs = compute_secs,
        );
        st.pending = Some((st.recovery_seq, outcome.allocation));
        queue.push(time + compute_secs, Event::ApplyRecovery(st.recovery_seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use bate_baselines::traits::Bate;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn run_small(admission: AdmissionStrategy, recovery: RecoveryPolicy, seed: u64) -> SimReport {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(3));
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pairs = vec![
            tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
            tunnels.pair_index(n("DC1"), n("DC4")).unwrap(),
            tunnels.pair_index(n("DC2"), n("DC6")).unwrap(),
        ];
        let wl_cfg = WorkloadConfig::testbed(pairs, seed);
        let horizon = 10.0 * 60.0;
        let workload = generate(&wl_cfg, &tunnels, horizon);
        let mut cfg = SimConfig::testbed(horizon, seed);
        cfg.admission = admission;
        cfg.recovery = recovery;
        let te = Bate;
        Simulation {
            ctx,
            te: &te,
            config: cfg,
            workload: &workload,
        }
        .run()
    }

    #[test]
    fn bookkeeping_is_consistent() {
        let rep = run_small(AdmissionStrategy::Bate, RecoveryPolicy::Backup, 1);
        assert_eq!(rep.arrived, rep.admitted + rep.rejected);
        assert_eq!(rep.demands.len(), rep.arrived);
        assert!(rep.admitted > 0, "some demands must be admitted");
        for d in &rep.demands {
            assert!(d.satisfied_secs <= d.total_secs + 1e-6);
            if !d.admitted {
                assert_eq!(d.total_secs, 0.0);
            }
        }
        assert!((0.0..=1.0).contains(&rep.data_loss_ratio));
        assert!(rep.mean_link_utilization >= 0.0);
    }

    #[test]
    fn fixed_rejects_at_least_as_much_as_bate() {
        let fixed = run_small(AdmissionStrategy::Fixed, RecoveryPolicy::NextRound, 3);
        let bate = run_small(AdmissionStrategy::Bate, RecoveryPolicy::NextRound, 3);
        assert!(
            fixed.rejection_ratio() >= bate.rejection_ratio() - 1e-9,
            "fixed {} vs bate {}",
            fixed.rejection_ratio(),
            bate.rejection_ratio()
        );
    }

    #[test]
    fn accept_all_admits_everything() {
        let rep = run_small(AdmissionStrategy::AcceptAll, RecoveryPolicy::NextRound, 5);
        assert_eq!(rep.rejected, 0);
        assert_eq!(rep.admitted, rep.arrived);
    }

    /// A run is a pure function of the seed: two runs must agree bitwise on
    /// every counter, every per-demand record, and every integral — nothing
    /// in the event schedule may depend on host speed. The measured
    /// admission wall time is the one field that differs, and it is not
    /// compared.
    #[test]
    fn runs_are_bitwise_deterministic() {
        let a = run_small(AdmissionStrategy::Bate, RecoveryPolicy::Greedy, 11);
        let b = run_small(AdmissionStrategy::Bate, RecoveryPolicy::Greedy, 11);
        assert_eq!(a.arrived, b.arrived);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.failure_counts, b.failure_counts);
        assert_eq!(a.data_loss_ratio.to_bits(), b.data_loss_ratio.to_bits());
        assert_eq!(
            a.mean_link_utilization.to_bits(),
            b.mean_link_utilization.to_bits()
        );
        assert_eq!(
            format!("{:?}", a.demands),
            format!("{:?}", b.demands),
            "same-seed runs must produce identical records"
        );
        assert_eq!(a.bw_ratio_samples.len(), b.bw_ratio_samples.len());
        assert!(
            a.median_admission_delay_ms() > 0.0,
            "every decision takes measurable wall time"
        );
    }

    #[test]
    fn satisfaction_is_high_under_bate_with_backup() {
        let rep = run_small(AdmissionStrategy::Bate, RecoveryPolicy::Backup, 7);
        assert!(
            rep.satisfaction_fraction() > 0.7,
            "satisfaction {}",
            rep.satisfaction_fraction()
        );
    }
}
