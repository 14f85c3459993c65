//! BA traffic scheduling — the periodic LP of §3.3 (Eq. 1–7).
//!
//! For the admitted demands, find tunnel allocations `{f_d^t}` that
//! guarantee every availability target while using the least total
//! bandwidth:
//!
//! ```text
//! minimize   Σ f_d^t
//! subject to Σ_t f_d^t           >= b_d^k                  (Eq. 1)
//!            B_d^z <= (Σ_t f_d^t v_t^z) / b_d^k  ∀k        (Eq. 2–3)
//!            Σ_z B_d^z p_z       >= β_d                    (Eq. 4)
//!            f >= 0, capacity                              (Eq. 5–6)
//! ```
//!
//! `B_d^z` is clamped to `[0, 1]` so one over-provisioned scenario cannot
//! pay for a missing one. Scenarios are collapsed per demand
//! ([`crate::profile`]), which is exact and keeps the LP size independent
//! of the scenario count. The pruned residual mass never contributes to
//! Eq. 4, so a feasible schedule guarantees *at least* `β_d` even if every
//! pruned scenario fails the demand.

use crate::allocation::{Allocation, SATISFY_TOL};
use crate::demand::{BaDemand, DemandId};
use crate::model::{self, DemandCols, Form};
use crate::profile::MaskedProfile;
use crate::TeContext;
use bate_lp::{Problem, Relation, Sense, Solution, SolveError, SolveStats};
use bate_obs::{Counter, Histogram, Registry};
use bate_routing::TunnelId;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use crate::model::{separate_demand, ROWGEN_SEED_SINGLES};

/// How [`schedule_with_capacities_mode`] builds and solves the LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// Pick [`SolveMode::RowGen`] when the full formulation would carry
    /// more than [`ROWGEN_AUTO_THRESHOLD`] qualification rows; the full
    /// build otherwise. This is what every production entry point uses.
    Auto,
    /// Build every qualification row upfront — the reference formulation.
    Full,
    /// Cutting-plane row generation: the master LP starts with the
    /// qualification rows of the all-up state plus the states of the
    /// [`ROWGEN_SEED_SINGLES`] most probable single-failure scenarios,
    /// and grows by exactly the rows a separation oracle finds violated.
    RowGen,
}

impl SolveMode {
    /// Whether a model with `full_qual_rows` qualification rows in its
    /// full formulation generates them lazily.
    pub(crate) fn lazy(self, full_qual_rows: usize) -> bool {
        match self {
            SolveMode::Full => false,
            SolveMode::RowGen => true,
            SolveMode::Auto => full_qual_rows > ROWGEN_AUTO_THRESHOLD,
        }
    }
}

/// Auto switches to row generation above this many full-formulation
/// qualification rows. Sized so every pinned test instance (toy4,
/// testbed6 at the depths the goldens use) keeps the byte-identical Full
/// path, while Table-4-scale instances (B4/IBM/ATT/FITI with tens of
/// demands) go lazy.
pub const ROWGEN_AUTO_THRESHOLD: usize = 512;

/// Per-round instrumentation from a row-generation solve.
///
/// Everything except `separation_ns` is deterministic for a given
/// `(problem, mode)` input; `separation_ns` is wall clock and excluded
/// from determinism comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowGenStats {
    /// Master solves performed (final round included, so always ≥ 1).
    pub rounds: u32,
    /// Qualification rows appended by the oracle across all rounds
    /// (seed rows excluded).
    pub rows_added: u64,
    /// Rows appended per round, in round order. The last entry is always
    /// 0 — the clean separation pass that proves optimality.
    pub rows_per_round: Vec<u32>,
    /// Constraint rows in the final master LP.
    pub master_rows: u32,
    /// Constraint rows the full formulation would have carried.
    pub full_rows: u32,
    /// Wall-clock nanoseconds spent in the separation oracle
    /// (informational; nondeterministic).
    pub separation_ns: u64,
    /// Master solves that resumed on a live tableau. Always 0 for the
    /// batch rowgen path above (every master there solves cold); filled by
    /// the incremental scheduler ([`crate::incremental`]), whose warm
    /// answers are gated by the float KKT certificate.
    pub warm_rounds: u32,
    /// Dual-simplex repair pivots across the warm master solves.
    pub dual_repair_pivots: u64,
    /// Warm answers that failed the KKT gate and were redone cold.
    pub cert_fallbacks: u32,
}

/// Result of a scheduling round.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    pub allocation: Allocation,
    /// The LP objective: total allocated bandwidth.
    pub total_bandwidth: f64,
    /// Shadow price per directed link: the marginal reduction in total
    /// allocated bandwidth per extra unit of that link's capacity (from
    /// the LP duals). Zero for uncongested links; reset to zeros by
    /// [`harden`] (the repaired allocation is no longer an LP vertex).
    pub link_prices: Vec<f64>,
    /// Kernel counters from the scheduling LP solve that produced this
    /// result. Hardening re-placements are separate single-demand solves
    /// and are not reflected here, so the counts are pinnable goldens for
    /// the round's main LP. Under row generation these are the counters
    /// of the *final* master solve (the one whose vertex is returned);
    /// the per-round history lives in [`ScheduleResult::rowgen`].
    pub solve_stats: SolveStats,
    /// Row-generation instrumentation; `None` when the full formulation
    /// was built directly.
    pub rowgen: Option<RowGenStats>,
}

/// Registry handles for the solver/scheduling metric family, registered
/// once and shared by every solve, hardening re-placements included.
struct SchedMetrics {
    solves: Arc<Counter>,
    solve_errors: Arc<Counter>,
    lp_iterations: Arc<Counter>,
    lp_pivots: Arc<Counter>,
    solve_ms: Arc<Histogram>,
    rounds: Arc<Counter>,
    round_violations: Arc<Counter>,
    round_ms: Arc<Histogram>,
    rowgen_rounds: Arc<Counter>,
    rowgen_rows: Arc<Counter>,
    rowgen_separation_ns: Arc<Histogram>,
    /// Phase-attribution alias of `rowgen_separation_ns` in the
    /// `bate_solve_phase_*` family (registered by `bate-lp`, observed
    /// here — separation is a solver phase that happens to live in the
    /// scheduler).
    solve_phase_separation_ns: Arc<Histogram>,
}

fn sched_metrics() -> &'static SchedMetrics {
    static M: OnceLock<SchedMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = Registry::global();
        SchedMetrics {
            solves: r.counter("bate_solver_solves_total"),
            solve_errors: r.counter("bate_solver_errors_total"),
            lp_iterations: r.counter("bate_solver_iterations_total"),
            lp_pivots: r.counter("bate_solver_pivots_total"),
            solve_ms: r.histogram("bate_solver_solve_ms"),
            rounds: r.counter("bate_sched_rounds_total"),
            round_violations: r.counter("bate_sched_hard_violations_total"),
            round_ms: r.histogram("bate_sched_round_ms"),
            rowgen_rounds: r.counter("bate_rowgen_rounds_total"),
            rowgen_rows: r.counter("bate_rowgen_rows_added_total"),
            rowgen_separation_ns: r.histogram("bate_rowgen_separation_ns"),
            solve_phase_separation_ns: r.histogram("bate_solve_phase_separation_ns"),
        }
    })
}

/// Force-register the solver/scheduling/row-generation metric families
/// with the global registry so they render (at zero) in Prometheus
/// expositions before the first solve — the controller calls this at
/// startup so `batectl stats` always shows the full family set.
pub fn register_metrics() {
    let _ = sched_metrics();
    // The rest of the phase-attribution family lives in the solver.
    bate_lp::register_phase_metrics();
}

/// Schedule all demands on the full link capacities.
pub fn schedule(ctx: &TeContext, demands: &[BaDemand]) -> Result<ScheduleResult, SolveError> {
    schedule_with_capacities_mode(ctx, demands, &ctx.link_capacities(), SolveMode::Auto)
}

/// [`schedule`] followed by a hardening pass.
///
/// The LP guarantees the *relaxed* availability of Eq. 4; when its optimum
/// splits a demand's flow, the hard (all-or-nothing) availability can fall
/// below β. Hardening walks the violating demands (highest β first), lifts
/// each one out of the allocation, and re-places it alone on the residual
/// capacity — the single-demand LP concentrates flow on reliable tunnels
/// and its result is verified against the hard criterion before adoption.
/// Demands that cannot be repaired keep their LP flows (still
/// relaxed-guaranteed).
pub fn schedule_hardened(
    ctx: &TeContext,
    demands: &[BaDemand],
) -> Result<ScheduleResult, SolveError> {
    // Traced rounds get a span so the master solve and the hardening
    // pass's re-placements all parent under one node.
    let traced = bate_obs::context::current().is_some();
    let _sp = traced.then(|| bate_obs::span!("sched.harden", demands = demands.len()));
    let t0 = Instant::now();
    let mut result = schedule(ctx, demands)?;
    let violations = harden(ctx, demands, &mut result);
    count_round(demands.len(), violations, &result, t0);
    Ok(result)
}

/// Book one hardened scheduling round, whether its LP optimum came from
/// the cold [`schedule`] above or from the warm session
/// ([`crate::incremental::SchedulingSession`], which may also reinstall a
/// held result): `bate_sched_rounds_total`,
/// `bate_sched_hard_violations_total`, `bate_sched_round_ms` since `t0`,
/// and the `sched.round` event.
pub fn count_round(demands: usize, violations: usize, result: &ScheduleResult, t0: Instant) {
    let m = sched_metrics();
    m.rounds.inc();
    m.round_violations.add(violations as u64);
    m.round_ms.observe_ms(t0.elapsed());
    // Trace contract: this event fires from the caller's (sequential)
    // context. Fields carry deterministic values only.
    bate_obs::info!(
        "sched.round",
        demands = demands,
        violations = violations,
        total_bandwidth = result.total_bandwidth,
        lp_iterations = result.solve_stats.iterations(),
        lp_pivots = result.solve_stats.pivots,
    );
}

/// Place a single demand with a **hard** availability guarantee on the
/// given residual capacities; `None` when no hard placement fits.
///
/// One pair of at most four tunnels is placed exactly (`place_on_upsets`).
/// Any other demand solves the single-demand LP (Eq. 4's relaxation) and
/// checks its vertex hard. When the vertex falls short (the minimum-
/// bandwidth objective avoids paying for protection), it falls back to
/// n+1-style replication: carry the full rate on each of the `k` most
/// available tunnels of every pair, growing `k` until the joint hard
/// availability reaches β or tunnels run out.
pub fn place_single_hard(
    ctx: &TeContext,
    demand: &BaDemand,
    capacities: &[f64],
) -> Option<Allocation> {
    if on_upsets(ctx, demand) {
        return place_on_upsets(ctx, demand, capacities);
    }
    let alone = std::slice::from_ref(demand);
    if let Ok(res) = schedule_with_capacities_mode(ctx, alone, capacities, SolveMode::Auto) {
        if res.allocation.meets_target(ctx, demand) {
            return Some(res.allocation);
        }
    }
    // Replication fallback: k copies on the k most-available tunnels.
    let max_tunnels = demand
        .bandwidth
        .iter()
        .map(|&(pair, _)| ctx.tunnels.tunnels(pair).len())
        .max()
        .unwrap_or(0);
    for k in 1..=max_tunnels {
        let mut alloc = Allocation::new();
        let mut residual = capacities.to_vec();
        let mut feasible = true;
        for &(pair, b) in &demand.bandwidth {
            let tunnels = ctx.tunnels.tunnels(pair);
            let avail = ctx.tunnels.availabilities(pair);
            let mut order: Vec<usize> = (0..tunnels.len()).collect();
            order.sort_by(|&a, &c| avail[c].partial_cmp(&avail[a]).unwrap().then(a.cmp(&c)));
            let mut placed = 0usize;
            for &t in &order {
                if placed == k.min(tunnels.len()) {
                    break;
                }
                let cap = tunnels[t]
                    .links
                    .iter()
                    .map(|l| residual[l.index()])
                    .fold(f64::INFINITY, f64::min);
                if cap + 1e-9 < b {
                    continue; // this tunnel can't carry a full copy
                }
                alloc.set(demand.id, TunnelId { pair, tunnel: t }, b);
                for &l in &tunnels[t].links {
                    residual[l.index()] -= b;
                }
                placed += 1;
            }
            if placed == 0 {
                feasible = false;
                break;
            }
        }
        if feasible && alloc.meets_target(ctx, demand) {
            return Some(alloc);
        }
    }
    None
}

/// Is `demand` one pair of at most four tunnels, which
/// [`place_single_hard`] places and OPT decides exactly by its minimal
/// qualifying up-sets ([`qualifying_upsets`])?
pub(crate) fn on_upsets(ctx: &TeContext, demand: &BaDemand) -> bool {
    demand.bandwidth.len() == 1 && ctx.tunnels.tunnels(demand.bandwidth[0].0).len() <= 4
}

/// The minimal up-sets of classes of `demand`'s one pair with `P ≥ β −
/// SATISFY_TOL` ([`bate_net::Classes::minimal_upsets`]), each as its
/// minimal classes' up-tunnel masks. Since `f ≥ 0`, the classes a
/// placement qualifies form an up-set, so it meets the target iff it
/// covers one of these.
pub(crate) fn qualifying_upsets(ctx: &TeContext, demand: &BaDemand) -> Arc<[Vec<u64>]> {
    let tunnels = ctx.tunnels.tunnels(demand.bandwidth[0].0);
    let groups: Vec<_> = tunnels.iter().map(|path| path.groups(ctx.topo)).collect();
    let classes = ctx.scenarios.classes(&groups);
    classes.minimal_upsets(demand.beta - SATISFY_TOL)
}

/// [`place_single_hard`] for one pair, exact: the joint covering LP
/// ([`model::CoveringLp`]) of this one demand, one per qualifying up-set
/// (at most four columns each), minimises `Σ f`; the first of the
/// cheapest is checked with `meets_target`.
fn place_on_upsets(ctx: &TeContext, demand: &BaDemand, capacities: &[f64]) -> Option<Allocation> {
    let mut lp = model::CoveringLp::new(ctx, [demand], capacities);
    let upsets = qualifying_upsets(ctx, demand);
    let solve = |upset: &Vec<u64>| lp.solve_covered([(0, &upset[..])]).ok();
    let solutions = upsets.iter().filter_map(solve);
    let best = solutions.reduce(|k, s| if s.objective < k.objective { s } else { k })?;
    Some(lp.allocation(&best)).filter(|alloc| alloc.meets_target(ctx, demand))
}

/// In-place hardening pass (see [`schedule_hardened`]). Returns how many
/// demands still violate their hard target afterwards.
///
/// This is the pass on an empty memo, so its violation scan checks every
/// demand. A [`SchedulingSession`](crate::incremental::SchedulingSession)
/// runs the same pass on the memo it keeps (`Hardener`), whose scan
/// reuses the last verdict of every demand whose LP flows are
/// bit-identical to those it was computed on. The result is the same bit
/// for bit: a hard verdict is a function of the context, the demand's
/// `bandwidth` and `beta`, and its own flows alone, so a verdict whose
/// inputs are bit-identical is the one a fresh check returns, and the β
/// order, re-placement and adoption that follow the scan are unchanged.
pub fn harden(ctx: &TeContext, demands: &[BaDemand], result: &mut ScheduleResult) -> usize {
    Hardener::default().run(ctx, demands, result)
}

/// The hard verdict of one demand at a scan, and where the bits it was
/// computed from sit in its [`ScanMemo`].
#[derive(Debug)]
struct Verdict {
    id: DemandId,
    beta: u64,
    bandwidth: Range<usize>,
    /// The demand's LP flows, in [`Allocation::flows_of`] order.
    flows: Range<usize>,
    meets: bool,
}

/// The verdicts of one scan, sorted by demand id, with the `bandwidth`
/// and flow bits of all of them in two flat buffers.
#[derive(Debug, Default)]
struct ScanMemo {
    verdicts: Vec<Verdict>,
    bandwidth: Vec<(usize, u64)>,
    flows: Vec<(TunnelId, u64)>,
}

impl ScanMemo {
    fn clear(&mut self) {
        self.verdicts.clear();
        self.bandwidth.clear();
        self.flows.clear();
    }
}

/// The hardening pass with a memo of its violation scan: the verdict of
/// every demand at the last [`run`](Self::run), keyed by its id, the bits
/// of its `bandwidth` and `beta`, and its LP flows. A
/// [`SchedulingSession`](crate::incremental::SchedulingSession) keeps one
/// per master, so it serves one [`TeContext`]; a fresh one is [`harden`].
#[derive(Debug, Default)]
pub struct Hardener {
    last: ScanMemo,
    /// The scan being taken; swapped with `last` when it ends, so the
    /// buffers of both are kept.
    next: ScanMemo,
    checks: usize,
}

impl Hardener {
    /// Demands the last scan checked; the others reused their verdict.
    pub fn last_checks(&self) -> usize {
        self.checks
    }

    /// `alloc.meets_target(ctx, demand)`, from the last scan's verdict
    /// when its bits are the demand's now. Demands come in id order.
    fn meets_target(&mut self, ctx: &TeContext, alloc: &Allocation, demand: &BaDemand) -> bool {
        let (last, next) = (&self.last, &mut self.next);
        let (b0, f0) = (next.bandwidth.len(), next.flows.len());
        (next.bandwidth).extend(demand.bandwidth.iter().map(|&(pair, b)| (pair, b.to_bits())));
        (next.flows).extend(alloc.flows_of(demand.id).map(|(t, f)| (t, f.to_bits())));
        let (bandwidth, flows) = (b0..next.bandwidth.len(), f0..next.flows.len());
        let beta = demand.beta.to_bits();
        let held = (last.verdicts.binary_search_by_key(&demand.id, |v| v.id).ok())
            .map(|i| &last.verdicts[i])
            .filter(|v| {
                v.beta == beta
                    && last.bandwidth[v.bandwidth.clone()] == next.bandwidth[bandwidth.clone()]
                    && last.flows[v.flows.clone()] == next.flows[flows.clone()]
            })
            .map(|v| v.meets);
        let meets = held.unwrap_or_else(|| {
            self.checks += 1;
            alloc.meets_target(ctx, demand)
        });
        next.verdicts.push(Verdict {
            id: demand.id,
            beta,
            bandwidth,
            flows,
            meets,
        });
        meets
    }

    /// The hardening pass of [`harden`] over `result`, scanning through
    /// the memo. Returns how many demands still violate their hard
    /// target afterwards.
    ///
    /// Both steps are plain loops on the caller's thread (a hard check
    /// costs microseconds, a single-demand re-placement tens of them;
    /// spawning workers for either cost more than the work). The scan
    /// finds the violators; they are then taken once each, highest β
    /// first: lifted out of the live allocation, placed alone by
    /// [`place_single_hard`] on the residual that allocation leaves them,
    /// and the placement adopted, or the violation counted. Each
    /// re-placement therefore sees the capacity every earlier adoption
    /// took. Placing the violators jointly (ROADMAP item 1(c)) is open.
    pub fn run(
        &mut self,
        ctx: &TeContext,
        demands: &[BaDemand],
        result: &mut ScheduleResult,
    ) -> usize {
        // Violation scan (a demand's hard availability depends only on its
        // own flows, so adoption below cannot change another demand's
        // violation status, and a demand whose flows did not move keeps
        // its verdict). It walks the pool in id order, the memo's order;
        // the violators are then taken highest β first.
        let mut by_id: Vec<&BaDemand> = demands.iter().collect();
        by_id.sort_by_key(|d| d.id);
        self.checks = 0;
        self.next.verdicts.reserve(demands.len());
        let mut violating: Vec<&BaDemand> = (by_id.into_iter())
            .filter(|demand| !self.meets_target(ctx, &result.allocation, demand))
            .collect();
        std::mem::swap(&mut self.last, &mut self.next);
        self.next.clear();
        violating.sort_by(|a, b| {
            b.beta
                .partial_cmp(&a.beta)
                .unwrap()
                .then_with(|| a.id.cmp(&b.id))
        });
        // Inside a trace, each re-placement is a span under the caller's
        // (`sched.harden` in `schedule_hardened`), and its solves parent
        // on it.
        let traced = bate_obs::context::current().is_some();
        let mut violations = 0;
        for demand in violating {
            let _sp = traced.then(|| bate_obs::span!("harden.place", demand = demand.id.0));
            let mut without = result.allocation.clone();
            without.remove_demand(demand.id);
            let residual = without.residual_capacities(ctx);
            match place_single_hard(ctx, demand, &residual) {
                Some(single) => {
                    without.adopt_demand(demand.id, &single);
                    result.allocation = without;
                }
                None => violations += 1,
            }
        }
        result.total_bandwidth = result.allocation.total_allocated();
        // The repaired allocation is no longer the LP vertex the duals priced.
        result.link_prices = vec![0.0; ctx.topo.num_links()];
        violations
    }
}

/// Build the full scheduling LP of Eq. 1–7 without solving it.
///
/// This is the entry point for the exact certifying oracle and the
/// differential harness (DESIGN.md §5d): they re-solve or certify the
/// very same [`Problem`] the float path solves, so the model must come
/// from the same builder. Row order matches `SolveMode::Full` exactly.
pub fn scheduling_lp(
    ctx: &TeContext,
    demands: &[BaDemand],
    capacities: &[f64],
) -> Result<Problem, SolveError> {
    assert_eq!(capacities.len(), ctx.topo.num_links());
    let profiles = model::collapse_all(ctx, demands);
    Ok(build_lp(ctx, demands, capacities, &profiles, false)?.p)
}

/// The row-generation master as its final round left it: seed rows, then
/// the appended cuts in order. What `model_text_golden.rs` pins.
#[doc(hidden)]
pub fn rowgen_master(
    ctx: &TeContext,
    demands: &[BaDemand],
    capacities: &[f64],
) -> Result<Problem, SolveError> {
    solve_mode(ctx, demands, capacities, SolveMode::RowGen).map(|(_, master)| master)
}

/// The LP under construction, with the handles the solve loop and the
/// read-out need.
struct BuiltLp {
    p: Problem,
    /// Per demand, in `demands` order.
    cols: Vec<DemandCols>,
    /// Row index of each link's capacity constraint (None: link unused).
    capacity_row: Vec<Option<usize>>,
}

/// Build the scheduling LP of Eq. 1–7: every flow column, then per demand
/// its Eq. 1 rows, `B` columns, qualification rows and Eq. 4 row, then
/// the capacity rows. `lazy` keeps only the seed states' qualification
/// rows — the row-generation master; otherwise every one is emitted.
fn build_lp(
    ctx: &TeContext,
    demands: &[BaDemand],
    capacities: &[f64],
    profiles: &[MaskedProfile],
    lazy: bool,
) -> Result<BuiltLp, SolveError> {
    let mut p = Problem::new(Sense::Minimize);
    let flows = demands
        .iter()
        .map(|d| model::flow_columns(&mut p, ctx, d, 1.0))
        .collect::<Result<Vec<_>, _>>()?;

    let mut cols: Vec<DemandCols> = Vec::with_capacity(demands.len());
    for ((demand, profile), f) in demands.iter().zip(profiles).zip(flows) {
        model::coverage_rows(&mut p, demand, &f);
        let mut c = DemandCols::new(&mut p, Form::Scheduling, profile, f);
        c.add_rows(&mut p, demand, profile, lazy, None);
        p.add_constraint(&c.availability_terms(profile), Relation::Ge, demand.beta);
        cols.push(c);
    }

    let capacity_row =
        model::add_capacity_rows(&mut p, ctx, demands.iter().zip(&cols), capacities);
    Ok(BuiltLp {
        p,
        cols,
        capacity_row,
    })
}

/// Schedule with an explicit capacity vector and [`SolveMode`] — the
/// general form behind [`schedule`] (full capacities, `Auto`), the fixed
/// admission check and hardening (residual capacities, `Auto`), and the
/// Full-vs-RowGen goldens.
///
/// The row-generation path is *exactly equivalent* to the full build: the
/// master LP's feasible set is a superset (fewer rows), so its optimum
/// can only be lower; the loop stops only when the separation oracle
/// finds no violated row, i.e. the master optimum is feasible for — and
/// therefore optimal in — the full formulation. An infeasible master
/// means the full LP (a subset of its points) is infeasible too, so
/// `Err(Infeasible)` needs no further rows.
pub fn schedule_with_capacities_mode(
    ctx: &TeContext,
    demands: &[BaDemand],
    capacities: &[f64],
    mode: SolveMode,
) -> Result<ScheduleResult, SolveError> {
    solve_mode(ctx, demands, capacities, mode).map(|(result, _)| result)
}

fn solve_mode(
    ctx: &TeContext,
    demands: &[BaDemand],
    capacities: &[f64],
    mode: SolveMode,
) -> Result<(ScheduleResult, Problem), SolveError> {
    assert_eq!(capacities.len(), ctx.topo.num_links());
    let profiles = model::collapse_all(ctx, demands);
    let full_qual_rows = model::full_qualification_rows(demands, &profiles);
    let lazy = mode.lazy(full_qual_rows);
    let mut built = build_lp(ctx, demands, capacities, &profiles, lazy)?;

    let m = sched_metrics();
    let book_solve = |stats: &SolveStats, wall: Duration| {
        m.solves.inc();
        m.lp_iterations.add(stats.iterations());
        m.lp_pivots.add(stats.pivots);
        m.solve_ms.observe_ms(wall);
    };
    if !lazy {
        let t0 = Instant::now();
        let sol = built.p.solve().inspect_err(|_| m.solve_errors.inc())?;
        book_solve(&sol.stats, t0.elapsed());
        let members = demands.iter().zip(&built.cols);
        let result = schedule_result(members, &built.capacity_row, &sol, None);
        return Ok((result, built.p));
    }

    // Cutting-plane row generation (`bate_lp::solve_lp_lazy` is the loop;
    // this side supplies the separation oracle and books the rounds).
    let seed_qual_rows: usize = built
        .cols
        .iter()
        .map(|c| c.added.iter().filter(|&&held| held).count())
        .sum();
    let mut rg = RowGenStats {
        full_rows: (built.p.num_constraints() + full_qual_rows - seed_qual_rows) as u32,
        ..RowGenStats::default()
    };
    let mut log = bate_lp::LazyLpLog::default();
    let solved = bate_lp::solve_lp_lazy(&mut built.p, &mut log, |sol| {
        let t_sep = Instant::now();
        let violated = model::sweep(demands, &profiles, &built.cols, sol);
        rg.separation_ns += t_sep.elapsed().as_nanos() as u64;
        model::cuts(demands, &profiles, &mut built.cols, &violated)
    });
    for (stats, wall) in &log.solves {
        book_solve(stats, *wall);
    }
    let sol = solved.inspect_err(|_| m.solve_errors.inc())?;
    rg.rounds = log.solves.len() as u32;
    rg.rows_added = log.rows_per_round.iter().map(|&r| r as u64).sum();
    rg.rows_per_round = log.rows_per_round;
    rg.master_rows = built.p.num_constraints() as u32;
    m.rowgen_rounds.add(rg.rounds as u64);
    m.rowgen_rows.add(rg.rows_added);
    m.rowgen_separation_ns
        .observe_ns(Duration::from_nanos(rg.separation_ns));
    m.solve_phase_separation_ns
        .observe_ns(Duration::from_nanos(rg.separation_ns));

    let members = demands.iter().zip(&built.cols);
    let result = schedule_result(members, &built.capacity_row, &sol, Some(rg));
    Ok((result, built.p))
}

/// Turn an LP vertex into a [`ScheduleResult`]: link shadow prices from
/// the duals, then the sparse tunnel allocation of `members`.
pub(crate) fn schedule_result<'a>(
    members: impl IntoIterator<Item = (&'a BaDemand, &'a DemandCols)>,
    capacity_row: &[Option<usize>],
    sol: &Solution,
    rowgen: Option<RowGenStats>,
) -> ScheduleResult {
    ScheduleResult {
        total_bandwidth: sol.objective,
        allocation: model::read_allocation(members, sol),
        link_prices: model::link_prices(sol, capacity_row),
        solve_stats: sol.stats.clone(),
        rowgen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_toy4(max_failures: usize) -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, max_failures);
        (topo, tunnels, scenarios)
    }

    /// The motivating example (Fig. 2(d)): user1 6 Gbps @ 99 % must go on
    /// the reliable DC1→DC3→DC4 path; user2 12 Gbps @ 90 % can use both.
    #[test]
    fn motivating_example_allocation() {
        let (topo, tunnels, scenarios) = ctx_toy4(4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let user1 = BaDemand::single(1, pair, 6000.0, 0.99);
        let user2 = BaDemand::single(2, pair, 12_000.0, 0.90);

        let res = schedule(&ctx, &[user1.clone(), user2.clone()]).unwrap();
        let a = &res.allocation;
        assert!(a.respects_capacity(&ctx, 1e-6));
        // Both demands' hard availability targets are met.
        assert!(a.meets_target(&ctx, &user1), "user1 availability not met");
        assert!(a.meets_target(&ctx, &user2), "user2 availability not met");

        // user1 must avoid the risky DC1→DC2→DC4 path: the flow it carries
        // on the risky tunnel cannot be essential. Check user1 survives the
        // DC1-DC2 failure.
        let g = topo.link(topo.find_link(n("DC1"), n("DC2")).unwrap()).group;
        let sc = bate_net::Scenario::with_failures(&topo, &[g]);
        assert!(
            a.delivered(&ctx, user1.id, pair, &sc) >= 6000.0 * 0.999,
            "user1 must survive the 4% link failing"
        );
    }

    #[test]
    fn infeasible_when_capacity_exceeded() {
        let (topo, tunnels, scenarios) = ctx_toy4(2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // 30 Gbps through a 20 Gbps cut.
        let d = BaDemand::single(1, pair, 30_000.0, 0.5);
        assert_eq!(schedule(&ctx, &[d]).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn infeasible_when_availability_unreachable() {
        let (topo, tunnels, scenarios) = ctx_toy4(4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // 15 Gbps needs both paths, but the combined availability of
        // "both paths up" is below 0.9999.
        let d = BaDemand::single(1, pair, 15_000.0, 0.9999);
        assert_eq!(schedule(&ctx, &[d]).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn scheduling_minimizes_bandwidth() {
        let (topo, tunnels, scenarios) = ctx_toy4(2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // A lax target is satisfiable with exactly the demanded bandwidth.
        let d = BaDemand::single(1, pair, 1000.0, 0.5);
        let res = schedule(&ctx, &[d]).unwrap();
        assert!((res.total_bandwidth - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn high_availability_costs_more_bandwidth() {
        let (topo, tunnels, scenarios) = ctx_toy4(4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let lax = schedule(&ctx, &[BaDemand::single(1, pair, 5000.0, 0.5)])
            .unwrap()
            .total_bandwidth;
        let strict = schedule(&ctx, &[BaDemand::single(1, pair, 5000.0, 0.9999)])
            .unwrap()
            .total_bandwidth;
        assert!(
            strict > lax,
            "99.99% target should need protection bandwidth ({strict} vs {lax})"
        );
    }

    #[test]
    fn harden_places_produce_a_well_formed_span_tree() {
        let (topo, tunnels, scenarios) = ctx_toy4(4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        // 12 Gbps @ 99%: no single tunnel can carry it, so the LP must
        // split the flow and the hard availability of the split falls
        // short — the hardening pass has real work to do. A second,
        // repairable demand rides along.
        let demands = vec![
            BaDemand::single(1, pair, 12_000.0, 0.99),
            BaDemand::single(2, pair, 6_000.0, 0.95),
        ];
        let pre = schedule(&ctx, &demands).unwrap();
        assert!(
            demands.iter().any(|d| !pre.allocation.meets_target(&ctx, d)),
            "test instance no longer triggers hardening"
        );

        let ring = bate_obs::trace::RingBufferSubscriber::new(4096);
        bate_obs::trace::install(ring.clone(), bate_obs::SimClock::shared());
        let root_trace;
        {
            let root = bate_obs::context::root("harden-test", 9);
            root_trace = root.ctx.trace_id;
            schedule_hardened(&ctx, &demands).unwrap();
        }
        // The thread-local span stack fully unwound with the guards.
        assert!(!bate_obs::context::current().is_some());
        bate_obs::trace::uninstall();

        // Filter to this trace: concurrent tests' events are untraced
        // (trace 0) and other traces never share this root id.
        let events: Vec<bate_obs::Event> = ring
            .events()
            .into_iter()
            .filter(|e| e.ctx.trace_id == root_trace)
            .collect();
        bate_obs::flight::validate_tree(&events).expect("span tree well-formed");

        let harden_span = events
            .iter()
            .find(|e| e.name == "sched.harden")
            .expect("sched.harden span closed");
        let places: Vec<&bate_obs::Event> =
            events.iter().filter(|e| e.name == "harden.place").collect();
        assert!(!places.is_empty(), "a violator's re-placement opens a span");
        for p in &places {
            assert_eq!(
                p.ctx.parent_span_id, harden_span.ctx.span_id,
                "every harden.place span parents on sched.harden"
            );
        }
        let place_ids: std::collections::BTreeSet<u64> =
            places.iter().map(|e| e.ctx.span_id).collect();
        assert_eq!(place_ids.len(), places.len(), "harden.place span ids collide");
        // A re-placement's solves parent on its own span.
        assert!(
            events
                .iter()
                .any(|e| e.name == "lp.solve" && place_ids.contains(&e.ctx.parent_span_id)),
            "re-placement lp.solve spans must parent on harden.place spans"
        );
    }

    #[test]
    fn hardener_rechecks_a_demand_whose_request_or_flows_moved() {
        let (topo, tunnels, scenarios) = ctx_toy4(4);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 4000.0, 0.9);
        let lp = schedule(&ctx, std::slice::from_ref(&d)).unwrap();
        // `run` on the memo against `harden` on an empty one, same LP
        // optimum: checks taken, and the result bit for bit.
        let mut hardener = Hardener::default();
        let mut pass = |demands: &[BaDemand], lp: &ScheduleResult| {
            let (mut memo, mut full) = (lp.clone(), lp.clone());
            let violations = hardener.run(&ctx, demands, &mut memo);
            assert_eq!(violations, harden(&ctx, demands, &mut full));
            assert_eq!(memo.total_bandwidth.to_bits(), full.total_bandwidth.to_bits());
            hardener.last_checks()
        };
        assert_eq!(pass(std::slice::from_ref(&d), &lp), 1);
        assert_eq!(pass(std::slice::from_ref(&d), &lp), 0, "nothing moved");
        // Same id and flows, another β, then another rate: each is
        // re-checked, and the doubled rate is short on the flows the LP
        // placed for the old one.
        let stricter = BaDemand::single(1, pair, 4000.0, 0.95);
        assert_eq!(pass(std::slice::from_ref(&stricter), &lp), 1);
        let doubled = BaDemand::single(1, pair, 8000.0, 0.95);
        assert!(!lp.allocation.meets_target(&ctx, &doubled));
        assert_eq!(pass(std::slice::from_ref(&doubled), &lp), 1);
        // Moved flows are re-checked; a demand that left is forgotten.
        let mut moved = lp.clone();
        let (t, f) = moved.allocation.flows_of(d.id).next().unwrap();
        moved.allocation.set(d.id, t, f * 0.5);
        assert_eq!(pass(std::slice::from_ref(&d), &moved), 1);
        assert_eq!(pass(&[], &lp), 0);
        assert_eq!(pass(std::slice::from_ref(&d), &lp), 1);
    }

    #[test]
    fn residual_capacity_scheduling() {
        let (topo, tunnels, scenarios) = ctx_toy4(2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 8000.0, 0.5);
        // Leave only 4 Gbps on every link: the 8 Gbps demand splits, but if
        // we zero one path's capacity it becomes infeasible at 0.9 target.
        let caps: Vec<f64> = ctx.topo.links().map(|_| 4000.0).collect();
        let res =
            schedule_with_capacities_mode(&ctx, std::slice::from_ref(&d), &caps, SolveMode::Auto)
                .unwrap();
        let loads = res.allocation.link_loads(&ctx);
        assert!(loads.iter().zip(&caps).all(|(load, cap)| *load <= cap + 1e-6));
    }

    #[test]
    fn pruned_schedule_never_underestimates_needed_bandwidth() {
        // Fig. 16's premise: pruning trades bandwidth for speed — the
        // pruned schedule allocates at least as much as the full one.
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 5000.0, 0.99);
        let mut totals = Vec::new();
        for y in 1..=4 {
            let scenarios = ScenarioSet::enumerate(&topo, y);
            let ctx = TeContext::new(&topo, &tunnels, &scenarios);
            totals.push(schedule(&ctx, std::slice::from_ref(&d)).unwrap().total_bandwidth);
        }
        for w in totals.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-6,
                "deeper pruning must not cost more: {totals:?}"
            );
        }
    }
}
