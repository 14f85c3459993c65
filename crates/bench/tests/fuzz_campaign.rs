//! The seeded differential fuzzing campaign (DESIGN.md §5d, §7).
//!
//! Every instance from the `bate_bench::fuzz` generator fleet is solved
//! by the float kernel AND the exact rational oracle, and the two must
//! agree: identical verdicts (Optimal/Infeasible/Unbounded), objectives
//! within the documented tolerance, and every float solution must pass
//! the exact KKT certificate. Network-model instances additionally run
//! the real scheduling builders across all `SolveMode`s (Full, RowGen,
//! Auto) and require mode-equivalent answers, and OPT's up-set search
//! against the full admission MILP.
//!
//! Default budgets total ≥ 500 instances (420 synthetic LPs + 80
//! synthetic MILPs + the model-based sweeps); `FUZZ_BUDGET=n` rescales
//! every family to `n` cases for nightly runs. Failures print a
//! `family:seed` tag — append it to `fuzz::REGRESSION_SEEDS` so the
//! corpus replays it forever (see the seed-corpus policy in
//! `crates/bench/src/fuzz.rs`).

use bate_bench::fuzz::{
    self, fuzz_budget, gravity_demands, lp_families, milp_families, net_fixtures,
    stale_batch_mates_gadget, FuzzInstance,
};
use bate_core::admission::optimal::{
    admission_milp, maximize_admissions, optimal_feasible, upset_search,
};
use bate_core::incremental::{DemandDelta, IncrementalScheduler, SchedulingSession, SessionPath};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::recovery::milp::{optimal_recovery, recovery_milp};
use bate_core::recovery::RecoveryOutcome;
use bate_core::scheduling::{self, SolveMode};
use bate_core::{BaDemand, DemandId, TeContext};
use bate_lp::{milp, SolveError};
use bate_net::{topologies, GroupId, ScenarioSet, SrlgSet};
use bate_reference::{
    solve_exact, solve_exact_milp, verify_certificate, verify_exact, verify_milp_certificate,
};
use bate_routing::{RoutingScheme, TunnelSet};
use bate_sim::churn;

/// Documented differential tolerance: relative on the larger magnitude.
const OBJ_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= OBJ_TOL * (1.0 + a.abs().max(b.abs()))
}

fn rowgen_mode() -> SolveMode {
    SolveMode::RowGen
}

/// Difference one LP instance: float kernel vs exact oracle. Optimal
/// answers must match in objective and both certify; Infeasible and
/// Unbounded verdicts must match exactly.
fn diff_lp(inst: &FuzzInstance) {
    let float = inst.problem.solve_relaxation();
    let exact = solve_exact(&inst.problem);
    match (float, exact) {
        (Ok(f), Ok(e)) => {
            let eo = e.objective.to_f64();
            assert!(
                close(f.objective, eo),
                "{}: float objective {} vs exact {}",
                inst.name,
                f.objective,
                eo
            );
            verify_certificate(&inst.problem, &f)
                .unwrap_or_else(|err| panic!("{}: float certificate rejected: {err}", inst.name));
            verify_exact(&inst.problem, &e)
                .unwrap_or_else(|err| panic!("{}: exact certificate rejected: {err}", inst.name));
        }
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
        (f, e) => panic!(
            "{}: verdict mismatch: float {:?} vs exact {:?}",
            inst.name,
            f.map(|s| s.objective),
            e.map(|s| s.objective.to_f64())
        ),
    }
}

/// Difference one MILP instance: float branch-and-bound vs exact
/// branch-and-bound, plus the MILP certificate against the exact
/// relaxation root bound.
fn diff_milp(inst: &FuzzInstance) {
    let float = milp::solve(&inst.problem, milp::BnbConfig::default());
    let exact = solve_exact_milp(&inst.problem, 50_000);
    match (float, exact) {
        (Ok(f), Ok(e)) => {
            let eo = e.objective.to_f64();
            assert!(
                close(f.objective, eo),
                "{}: float MILP objective {} vs exact {}",
                inst.name,
                f.objective,
                eo
            );
            let root = solve_exact(&inst.problem)
                .unwrap_or_else(|err| panic!("{}: exact root failed: {err}", inst.name));
            verify_milp_certificate(&inst.problem, &f, Some(root.objective.to_f64()))
                .unwrap_or_else(|err| panic!("{}: MILP certificate rejected: {err}", inst.name));
        }
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (f, e) => panic!(
            "{}: MILP verdict mismatch: float {:?} vs exact {:?}",
            inst.name,
            f.map(|s| s.objective),
            e.map(|s| s.objective.to_f64())
        ),
    }
}

fn gen_for(family: &str) -> fn(u64) -> FuzzInstance {
    lp_families()
        .into_iter()
        .chain(milp_families())
        .find(|&(name, _)| name == family)
        .unwrap_or_else(|| panic!("unknown regression family {family}"))
        .1
}

/// The checked-in regression corpus replays before any random sweep.
#[test]
fn regression_corpus_replays_clean() {
    for &(family, seed) in fuzz::REGRESSION_SEEDS {
        let inst = gen_for(family)(seed);
        if milp_families().iter().any(|&(name, _)| name == family) {
            diff_milp(&inst);
        } else {
            diff_lp(&inst);
        }
    }
}

#[test]
fn synthetic_lp_differential_campaign() {
    // Default per-family budgets; 420 synthetic LPs total.
    let budgets = [
        ("random_lp", 120),
        ("degenerate_lp", 80),
        ("ill_conditioned_lp", 80),
        ("recovery_shaped_lp", 80),
        ("tie_fan_lp", 60),
        // Real scheduling models over correlated fixtures: each instance
        // runs the exact oracle on an Eq. 4 LP, so the budget is smaller.
        ("srlg_scheduling_lp", 8),
    ];
    for (name, gen) in lp_families() {
        let default = budgets
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, b)| b)
            .unwrap_or(50);
        for seed in 0..fuzz_budget(default) as u64 {
            diff_lp(&gen(seed));
        }
    }
}

#[test]
fn synthetic_milp_differential_campaign() {
    // Exact branch-and-bound on the Appendix-A admission models is far
    // heavier per instance than on knapsacks, hence the smaller budget.
    let budgets = [("random_milp", 80), ("srlg_admission_milp", 6)];
    for (name, gen) in milp_families() {
        let default = budgets
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, b)| b)
            .unwrap_or(40);
        for seed in 0..fuzz_budget(default) as u64 {
            diff_milp(&gen(seed));
        }
    }
}

/// The new adversarial family must certify with the *zero-tolerance*
/// rational certificate, not just the float-tolerance one.
#[test]
fn tie_fan_family_certifies_exactly() {
    for seed in 0..fuzz_budget(20) as u64 {
        let inst = fuzz::tie_fan_lp(seed);
        let e = solve_exact(&inst.problem)
            .unwrap_or_else(|err| panic!("{}: exact solve failed: {err}", inst.name));
        verify_exact(&inst.problem, &e)
            .unwrap_or_else(|err| panic!("{}: exact certificate rejected: {err}", inst.name));
        // The optimum is pinned by construction: fan columns cost 1 and
        // the binding cover level is the largest duplicated rhs.
        let f = inst.problem.solve_relaxation().unwrap();
        assert!(close(f.objective, e.objective.to_f64()), "{}", inst.name);
    }
}

/// The stale batch-mate gadget (`bate_bench::fuzz`), certified exactly:
/// the exact oracle reproduces the true optimum of the full model, and the
/// float branch-and-bound agrees with it under the exact certificate.
#[test]
fn stale_batch_mates_gadget_certifies_exactly() {
    let full_small = stale_batch_mates_gadget(2);
    let e = solve_exact_milp(&full_small.problem, 50_000).unwrap();
    assert!(
        (e.objective.to_f64() - 10.0).abs() < 1e-12,
        "exact optimum of the small gadget must be 10, got {}",
        e.objective.to_f64()
    );
    diff_milp(&full_small);
}

/// Scheduling LPs from gravity traffic across all three SolveModes:
/// mode-equivalent objectives, float certificates on every instance,
/// exact re-solves on the toy4 fixture.
#[test]
fn scheduling_instances_agree_across_modes_and_certify() {
    let fixtures = net_fixtures();
    for (fi, fix) in fixtures.iter().enumerate() {
        let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
        let caps: Vec<f64> = fix.topo.links().map(|(_, l)| l.capacity).collect();
        let mean_total = if fi == 0 { 12_000.0 } else { 2000.0 };
        for seed in 0..fuzz_budget(6) as u64 {
            let demands = gravity_demands(fix, 4, mean_total, seed + 100);
            let tag = format!("sched[{}]:{}", fix.topo.name(), seed);

            let modes = [SolveMode::Full, rowgen_mode(), SolveMode::Auto];
            let answers: Vec<_> = modes
                .iter()
                .map(|&m| {
                    let caps = ctx.link_capacities();
                    scheduling::schedule_with_capacities_mode(&ctx, &demands, &caps, m)
                })
                .collect();
            match &answers[0] {
                Ok(f) => {
                    for a in &answers[1..] {
                        let a = a.as_ref().unwrap_or_else(|e| {
                            panic!("{tag}: mode verdict mismatch: Full ok, other {e}")
                        });
                        assert!(
                            close(f.total_bandwidth, a.total_bandwidth),
                            "{tag}: mode objective mismatch {} vs {}",
                            f.total_bandwidth,
                            a.total_bandwidth
                        );
                    }
                }
                Err(e) => {
                    for a in &answers[1..] {
                        assert_eq!(
                            a.as_ref().err(),
                            Some(e),
                            "{tag}: mode verdict mismatch on error path"
                        );
                    }
                }
            }

            let p = scheduling::scheduling_lp(&ctx, &demands, &caps).unwrap();
            match p.solve() {
                Ok(sol) => {
                    verify_certificate(&p, &sol)
                        .unwrap_or_else(|err| panic!("{tag}: certificate rejected: {err}"));
                    if fi == 0 {
                        let e = solve_exact(&p).unwrap();
                        assert!(
                            close(sol.objective, e.objective.to_f64()),
                            "{tag}: float {} vs exact {}",
                            sol.objective,
                            e.objective.to_f64()
                        );
                        verify_exact(&p, &e).unwrap();
                    }
                }
                Err(SolveError::Infeasible) => {
                    if fi == 0 {
                        assert_eq!(
                            solve_exact(&p).err(),
                            Some(SolveError::Infeasible),
                            "{tag}: float infeasible but exact disagrees"
                        );
                    }
                }
                Err(e) => panic!("{tag}: unexpected solve error {e}"),
            }
        }
    }
}

/// Random churn sequences through the incremental warm-start scheduler
/// (DESIGN.md §5e): every round's warm re-solve must match a cold batch
/// re-solve of the same live pool — objective within tolerance and
/// identical per-demand hard-availability verdicts — and every warm
/// master optimum must pass the exact rational KKT certificate.
#[test]
fn churn_sequences_match_cold_and_certify() {
    let fixtures = net_fixtures();
    let fix = &fixtures[0]; // toy4: small enough to certify every round
    let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
    let pairs: Vec<usize> = (0..fix.tunnels.num_pairs())
        .filter(|&p| !fix.tunnels.tunnels(p).is_empty())
        .take(4)
        .collect();
    for seed in 0..fuzz_budget(4) as u64 {
        let mut cfg = churn::ChurnConfig::steady(pairs.clone(), 6, 5, 900 + seed);
        // Sweep the paper's 1-5% churn regime across seeds (the pool is
        // tiny, so every round still churns at least one demand).
        cfg.churn_fraction = 0.01 + 0.01 * (seed % 5) as f64;
        let workload = churn::generate(&cfg);
        let tag = format!("churn:{seed}");

        let mut sched = IncrementalScheduler::new(&ctx);
        let mut pool: Vec<BaDemand> = Vec::new();
        let fill: Vec<DemandDelta> = workload
            .initial
            .iter()
            .map(|d| DemandDelta::Add(d.clone()))
            .collect();
        for (round, batch) in std::iter::once(&fill)
            .chain(workload.rounds.iter())
            .enumerate()
        {
            for delta in batch {
                match delta {
                    DemandDelta::Add(d) => pool.push(d.clone()),
                    DemandDelta::Remove(id) => pool.retain(|d| d.id != *id),
                    DemandDelta::Resize { id, factor } => {
                        for d in pool.iter_mut().filter(|d| d.id == *id) {
                            for (_, b) in &mut d.bandwidth {
                                *b *= factor;
                            }
                            d.price *= factor;
                        }
                    }
                }
            }
            let warm = sched
                .apply(&ctx, batch)
                .unwrap_or_else(|e| panic!("{tag} round {round}: warm apply failed: {e}"));
            let caps = ctx.link_capacities();
            let cold = scheduling::schedule_with_capacities_mode(&ctx, &pool, &caps, rowgen_mode())
                .unwrap_or_else(|e| panic!("{tag} round {round}: cold solve failed: {e}"));
            assert!(
                close(warm.total_bandwidth, cold.total_bandwidth),
                "{tag} round {round}: warm objective {} vs cold {}",
                warm.total_bandwidth,
                cold.total_bandwidth
            );
            // Identical per-demand hard-availability verdicts.
            for d in &pool {
                assert_eq!(
                    warm.allocation.meets_target(&ctx, d),
                    cold.allocation.meets_target(&ctx, d),
                    "{tag} round {round}: BA verdict differs for demand {:?}",
                    d.id
                );
            }
            // The warm master optimum certifies against the exact oracle.
            let sol = sched.last_solution().unwrap();
            verify_certificate(sched.problem(), sol).unwrap_or_else(|err| {
                panic!("{tag} round {round}: warm certificate rejected: {err}")
            });
        }
        assert!(
            sched.stats().warm_rounds > 0,
            "{tag}: churn rounds never warm-started: {:?}",
            sched.stats()
        );
    }
}

/// Random churn sequences through a [`SchedulingSession`] (DESIGN.md
/// §6y): every warm round's hardening scan reuses the verdicts of the
/// demands whose LP flows did not move, and must be bit for bit what
/// [`scheduling::harden`] gives on the same LP optimum with an empty
/// memo: every demand's flows, the total, and the violators left. A
/// `Resize` reaches the session as a withdraw and a re-add of the same
/// id. The LP optimum comes from a second master fed what the session's
/// is fed: the first pool, then each round's edits with an `Add` dropped
/// by a `Remove` of its id, as `note_remove` drops it. Pools sit near
/// testbed6's capacity, so the LP leaves demands short of their hard
/// target and the re-placement runs under the memo.
#[test]
fn session_churn_hardens_like_the_full_scan() {
    let fixtures = net_fixtures();
    let fix = &fixtures[1]; // testbed6, KSP-4, single failures
    let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
    let pairs: Vec<usize> = (0..fix.tunnels.num_pairs())
        .filter(|&p| fix.tunnels.tunnels(p).len() >= 2)
        .collect();
    let (mut rounds_short, mut checks, mut checked_pool) = (0, 0, 0);
    for seed in 0..fuzz_budget(8) as u64 {
        let mut cfg = churn::ChurnConfig::steady(pairs.clone(), 16, 8, 3500 + seed);
        cfg.bandwidth = (50.0, 250.0);
        cfg.churn_fraction = 0.1 + 0.05 * (seed % 3) as f64;
        let workload = churn::generate(&cfg);
        let tag = format!("session_churn:{seed}");

        let mut session = SchedulingSession::default();
        let mut pool = workload.initial.clone();
        let (mut shadow, mut fed): (Option<IncrementalScheduler>, Vec<DemandDelta>) = (None, vec![]);
        let mut lp = None;
        let remove = |fed: &mut Vec<DemandDelta>, id: DemandId| {
            let added = fed.iter().rposition(|d| matches!(d, DemandDelta::Add(a) if a.id == id));
            match added {
                Some(i) => {
                    fed.remove(i);
                }
                None => fed.push(DemandDelta::Remove(id)),
            }
        };
        for (round, batch) in std::iter::once(&Vec::new())
            .chain(workload.rounds.iter())
            .enumerate()
        {
            for delta in batch {
                match delta {
                    DemandDelta::Add(d) => {
                        session.note_add(d);
                        fed.push(DemandDelta::Add(d.clone()));
                        pool.push(d.clone());
                    }
                    DemandDelta::Remove(id) => {
                        session.note_remove(*id);
                        remove(&mut fed, *id);
                        pool.retain(|d| d.id != *id);
                    }
                    DemandDelta::Resize { id, factor } => {
                        session.note_remove(*id);
                        remove(&mut fed, *id);
                        for d in pool.iter_mut().filter(|d| d.id == *id) {
                            for (_, b) in &mut d.bandwidth {
                                *b *= factor;
                            }
                            d.price *= factor;
                            session.note_add(d);
                            fed.push(DemandDelta::Add(d.clone()));
                        }
                    }
                }
            }
            // The session's master (built on the first pass) answers with
            // its hardened optimum; the shadow's LP optimum is what the
            // full scan hardens.
            if session.batch_optimum(&ctx, &pool).is_none() {
                assert!(
                    scheduling::schedule_hardened(&ctx, &pool).is_err(),
                    "{tag} round {round}: the master failed on a pool that schedules cold"
                );
                break;
            }
            let master = shadow.get_or_insert_with(|| {
                fed = pool.iter().cloned().map(DemandDelta::Add).collect();
                IncrementalScheduler::new(&ctx)
            });
            if !fed.is_empty() {
                assert_eq!(session.stats().last_apply_deltas, fed.len(), "{tag} round {round}");
                let deltas = std::mem::take(&mut fed);
                lp = Some(master.apply(&ctx, &deltas).expect("the shadow master solves"));
            }
            let held = session
                .hardened_round(&ctx, &pool)
                .unwrap_or_else(|e| panic!("{tag} round {round}: session round failed: {e}"));
            assert_eq!(held.path, SessionPath::Reused, "{tag} round {round}");
            let mut full = lp.clone().expect("the shadow holds an optimum");
            let short = pool.iter().filter(|d| !full.allocation.meets_target(&ctx, d)).count();
            let violations = scheduling::harden(&ctx, &pool, &mut full);
            assert_eq!(
                held.result.total_bandwidth.to_bits(),
                full.total_bandwidth.to_bits(),
                "{tag} round {round}: total"
            );
            for d in &pool {
                let bits = |r: &scheduling::ScheduleResult| -> Vec<_> {
                    r.allocation.flows_of(d.id).map(|(t, f)| (t, f.to_bits())).collect()
                };
                assert_eq!(bits(&held.result), bits(&full), "{tag} round {round}: {:?}", d.id);
            }
            let left = (pool.iter())
                .filter(|d| !held.result.allocation.meets_target(&ctx, d))
                .count();
            assert_eq!(left, violations, "{tag} round {round}: violators left");
            rounds_short += usize::from(short > 0);
            checks += session.stats().last_scan_checks;
            checked_pool += pool.len();
        }
    }
    // Non-vacuity: the re-placement ran, and the memo answered for part
    // of the pools.
    assert!(rounds_short > 0, "no round left a demand short of its target");
    assert!(checks < checked_pool, "the memo never answered: {checks} of {checked_pool}");
}

/// The acceptance-criterion divergence case, certified end to end: a
/// demand the independent-marginal model admits (Optimal scheduling LP,
/// float certificate AND exact rational certificate) that the correlated
/// model rejects (Infeasible), with the exact oracle confirming the
/// rejection is structural, not a float artifact.
#[test]
fn correlated_divergence_is_certified_by_the_exact_oracle() {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let mut srlgs = SrlgSet::new(&topo);
    // One conduit over e2 and e4: the only two disjoint DC1→DC4 paths
    // share a 1% fiber cut their marginals don't reveal.
    srlgs.add("fiber-cut", 0.01, &[GroupId(1), GroupId(3)]);
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    let probe = vec![BaDemand::single(1, pair, 1000.0, 0.999)];
    let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();

    // Correlation-blind observer: admits, and both certificates agree.
    let marginal = srlgs.marginal_topology(&topo);
    let indep = ScenarioSet::enumerate(&marginal, 2);
    let ctx_indep = TeContext::new(&marginal, &tunnels, &indep);
    let p_indep = scheduling::scheduling_lp(&ctx_indep, &probe, &caps).unwrap();
    let sol = p_indep
        .solve()
        .expect("independent marginals must admit the 99.9% probe");
    verify_certificate(&p_indep, &sol).expect("float certificate on the independent model");
    let e = solve_exact(&p_indep).expect("exact oracle agrees the independent model is feasible");
    assert!(
        close(sol.objective, e.objective.to_f64()),
        "independent model: float {} vs exact {}",
        sol.objective,
        e.objective.to_f64()
    );
    verify_exact(&p_indep, &e).expect("exact certificate on the independent model");

    // Joint model: the same demand is structurally unservable.
    let corr = srlgs.enumerate(&topo, 2);
    let ctx_corr = TeContext::new(&topo, &tunnels, &corr);
    let p_corr = scheduling::scheduling_lp(&ctx_corr, &probe, &caps).unwrap();
    assert_eq!(
        p_corr.solve().err(),
        Some(SolveError::Infeasible),
        "the correlated model must reject the probe"
    );
    assert_eq!(
        solve_exact(&p_corr).err(),
        Some(SolveError::Infeasible),
        "exact oracle must confirm the correlated rejection"
    );
}

/// Recovery-storm models certified against the exact oracle: for seeded
/// churn pools hit by the toy4 fiber cut, Algorithm 2 must stay within
/// the MILP optimum, the MILP optimum within the no-failure baseline,
/// and the Eq. 8–12 model itself must pass the exact MILP differential
/// (float branch-and-bound objective = exact rational objective, MILP
/// certificate against the exact relaxation root).
#[test]
fn storm_recovery_milps_certify_against_the_exact_oracle() {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
    let mut srlgs = SrlgSet::new(&topo);
    srlgs.add("storm-region", 0.01, &[GroupId(1), GroupId(3)]);
    let scenarios = srlgs.enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let cut = srlgs.scenario(&topo, &[GroupId(1), GroupId(3)]);
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| !tunnels.tunnels(p).is_empty())
        .take(4)
        .collect();

    for seed in 0..fuzz_budget(3) as u64 {
        let mut cfg = churn::ChurnConfig::steady(pairs.clone(), 6, 0, 700 + seed);
        cfg.refund_ratio = 0.25; // forfeits must cost profit
        let pool = churn::generate(&cfg).initial;
        let tag = format!("storm_recovery:{seed}");

        let greedy = greedy_recovery(&ctx, &pool, &cut);
        let optimal = optimal_recovery(&ctx, &pool, &cut)
            .unwrap_or_else(|e| panic!("{tag}: recovery MILP failed: {e}"));
        let baseline = RecoveryOutcome::baseline_profit(&pool);
        assert!(
            greedy.profit <= optimal.profit + OBJ_TOL * baseline,
            "{tag}: greedy profit {} exceeds MILP optimum {}",
            greedy.profit,
            optimal.profit
        );
        assert!(
            optimal.profit <= baseline + OBJ_TOL * baseline,
            "{tag}: recovery profit {} exceeds baseline {}",
            optimal.profit,
            baseline
        );

        let p = recovery_milp(&ctx, &pool, &cut);
        let sol = milp::solve(&p, milp::BnbConfig::default())
            .unwrap_or_else(|e| panic!("{tag}: float MILP failed: {e}"));
        let exact = solve_exact_milp(&p, 50_000)
            .unwrap_or_else(|e| panic!("{tag}: exact MILP failed: {e}"));
        assert!(
            close(sol.objective, exact.objective.to_f64()),
            "{tag}: float MILP objective {} vs exact {}",
            sol.objective,
            exact.objective.to_f64()
        );
        let root = solve_exact(&p).unwrap();
        verify_milp_certificate(&p, &sol, Some(root.objective.to_f64()))
            .unwrap_or_else(|err| panic!("{tag}: MILP certificate rejected: {err}"));

        // The model objective is the refund saved (Σ g μ over satisfied
        // demands): profit = baseline − Σ g μ + objective.
        let refundable: f64 = pool.iter().map(|d| d.price * d.refund_ratio).sum();
        assert!(
            close(optimal.profit, baseline - refundable + exact.objective.to_f64()),
            "{tag}: profit accounting {} vs certified {}",
            optimal.profit,
            baseline - refundable + exact.objective.to_f64()
        );
    }
}

/// Admission pools: OPT's up-set search and `optimal_feasible` return the
/// full MILP's feasibility verdict, the Appendix-A objective's admitted
/// count is the MILP optimum, and the exact MILP certificate (with the
/// exact relaxation root as bound proof) holds on the Appendix-A model of
/// every instance.
#[test]
fn admission_search_agrees_with_full_milp_and_certifies() {
    let fixtures = net_fixtures();
    for (fi, fix) in fixtures.iter().enumerate() {
        let ctx = TeContext::new(&fix.topo, &fix.tunnels, &fix.scenarios);
        // Oversubscribe so some instances force rejections.
        let mean_total = if fi == 0 { 40_000.0 } else { 6000.0 };
        for seed in 0..fuzz_budget(4) as u64 {
            let demands = gravity_demands(fix, 4, mean_total, seed + 200);
            let tag = format!("adm[{}]:{}", fix.topo.name(), seed);

            let full = match admission_milp(&ctx, &demands, true).unwrap().solve() {
                Ok(_) => true,
                Err(SolveError::Infeasible) => false,
                Err(e) => panic!("{tag}: feasibility MILP failed: {e}"),
            };
            let search = upset_search(&ctx, &demands).unwrap();
            assert_eq!(search.witness.is_some(), full, "{tag}: search verdict differs");
            assert_eq!(optimal_feasible(&ctx, &demands).unwrap(), full, "{tag}");

            let mf = maximize_admissions(&ctx, &demands).unwrap();
            let count = |a: &[bool]| a.iter().filter(|&&x| x).count();
            assert_eq!(count(&mf.accepted) == demands.len(), full, "{tag}");

            let p = admission_milp(&ctx, &demands, false).unwrap();
            match p.solve() {
                Ok(sol) => {
                    let root = solve_exact(&p).unwrap();
                    verify_milp_certificate(&p, &sol, Some(root.objective.to_f64()))
                        .unwrap_or_else(|err| panic!("{tag}: MILP certificate rejected: {err}"));
                    assert!(
                        close(sol.objective, count(&mf.accepted) as f64),
                        "{tag}: MILP objective {} vs admitted count {}",
                        sol.objective,
                        count(&mf.accepted)
                    );
                }
                Err(SolveError::Infeasible) => {}
                Err(e) => panic!("{tag}: unexpected admission solve error {e}"),
            }
        }
    }
}
