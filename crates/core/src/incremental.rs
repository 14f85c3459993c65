//! Incremental TE: warm-start scheduling and admission across rounds
//! (DESIGN.md §5e).
//!
//! The batch path ([`crate::scheduling`]) rebuilds its master LP from
//! scratch every round, even when the demand set changed by a few percent.
//! [`IncrementalScheduler`] keeps the row-generation master *alive*
//! between rounds inside a [`WarmState`]: demand churn arrives as
//! [`DemandDelta`]s, each delta edits the master in place under the
//! warm-start mutation contract, and the next solve applies the same
//! edits to the live simplex tableau the last one left and repairs that
//! (dual simplex for retired/tightened work, priced-in columns and a
//! short phase 1 for new demands) instead of running cold.
//!
//! Delta semantics:
//!
//! * **Add** — append the demand's `f`/`B` columns, its Eq. 1 / seeded
//!   qualification / Eq. 4 rows, and splice the new flow columns into the
//!   existing capacity rows.
//! * **Remove** — retire in place: every column's upper bound drops to
//!   zero and the demand's `≥` rows drop to a zero rhs. Rows stay in the
//!   master (structurally unchanged ⇒ the live tableau survives); the dead
//!   columns are reclaimed by a periodic compaction once they exceed
//!   [`COMPACT_DEAD_FRACTION`] of the master. Compaction rebuilds the
//!   master in place: the live demands keep their profiles and cut pools,
//!   the solver keeps its buffers, and only the basis is lost (the solve
//!   after it is cold).
//! * **Resize** — remove + re-add under the same id (the bandwidth `b`
//!   appears as a *coefficient* of the qualification rows, which in-place
//!   edits cannot touch).
//!
//! Correctness never rests on the warm path: every warm answer must pass
//! the float KKT gate ([`bate_lp::quick_check`]) or the round is redone
//! cold (the PR-4 cold-retry pattern), and separation always finishes
//! with a clean pass over **all** live demands — the delta-touched fast
//! path only decides which rows to look at first. The differential fuzz
//! campaign certifies warm optima against the exact rational oracle.
//!
//! [`SchedulingSession`] is what a long-lived caller (the controller's
//! event loop) holds: one master plus the deltas since its last optimum
//! and that optimum before and after hardening, so a request for "the
//! optimum of the live pool" — a batch, a TE round or a repair — costs
//! what changed (DESIGN.md §6y).

use crate::demand::{BaDemand, DemandId};
use crate::model::{self, DemandCols, Form};
use crate::profile::MaskedProfile;
use crate::scheduling::{
    count_round, schedule_hardened, schedule_result, Hardener, RowGenStats, ScheduleResult,
};
use crate::TeContext;
use bate_lp::{quick_check, Relation, Sense, Solution, SolveError, WarmState};
use bate_obs::{Counter, Histogram, Registry};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Tolerance of the float KKT gate on warm answers.
const CERT_TOL: f64 = 1e-6;

/// Compact (rebuild the master from the live demands) once retired
/// columns exceed this fraction of all columns…
pub const COMPACT_DEAD_FRACTION: f64 = 0.3;
/// …and at least this many columns are dead (small masters never compact;
/// the rebuild would cost more than the dead weight).
pub const COMPACT_DEAD_FLOOR: usize = 64;

/// One demand-churn edit between scheduling rounds.
#[derive(Debug, Clone)]
pub enum DemandDelta {
    /// A new demand enters the pool.
    Add(BaDemand),
    /// An admitted demand leaves the pool.
    Remove(DemandId),
    /// An admitted demand rescales every pair bandwidth by `factor`
    /// (price rescales with it; β is unchanged).
    Resize { id: DemandId, factor: f64 },
}

/// Counters the scheduler accumulates across its lifetime (survive
/// compaction rebuilds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Deltas applied.
    pub deltas: u64,
    /// Master solves that resumed on the live tableau.
    pub warm_rounds: u64,
    /// Master solves that ran cold.
    pub cold_rounds: u64,
    /// Dual-simplex repair pivots across all warm solves.
    pub dual_pivots: u64,
    /// Warm answers that failed the KKT gate and were redone cold.
    pub cert_fallbacks: u64,
    /// Full master rebuilds triggered by the dead-column threshold.
    pub compactions: u64,
}

/// Registry handles for the incremental warm-start metric family.
struct WarmMetrics {
    rounds: Arc<Counter>,
    cold_rounds: Arc<Counter>,
    cert_fallbacks: Arc<Counter>,
    dual_pivots: Arc<Counter>,
    deltas: Arc<Counter>,
    compactions: Arc<Counter>,
    resolve_ms: Arc<Histogram>,
    cert_check_ns: Arc<Histogram>,
}

fn warm_metrics() -> &'static WarmMetrics {
    static M: OnceLock<WarmMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = Registry::global();
        WarmMetrics {
            rounds: r.counter("bate_warm_rounds_total"),
            cold_rounds: r.counter("bate_warm_cold_rounds_total"),
            cert_fallbacks: r.counter("bate_warm_cert_fallbacks_total"),
            dual_pivots: r.counter("bate_warm_dual_pivots_total"),
            deltas: r.counter("bate_warm_deltas_total"),
            compactions: r.counter("bate_warm_compactions_total"),
            resolve_ms: r.histogram("bate_warm_resolve_ms"),
            cert_check_ns: r.histogram("bate_solve_phase_cert_check_ns"),
        }
    })
}

/// Force-register the incremental warm-start metric family so it renders
/// (at zero) before the first delta round — the controller calls this at
/// startup alongside the solver/admission families.
pub fn register_metrics() {
    let _ = warm_metrics();
}

/// Master-problem bookkeeping for one demand, live or retired.
#[derive(Debug)]
struct Slot {
    demand: BaDemand,
    profile: MaskedProfile,
    /// The demand's columns, and the qualification rows the master holds.
    cols: DemandCols,
    /// Eq. 1 coverage rows, one per pair.
    eq1_rows: Vec<usize>,
    /// Eq. 4 availability row.
    avail_row: usize,
    alive: bool,
    /// Touched by a delta since the last clean separation pass.
    dirty: bool,
}

/// A row-generation scheduling master that survives demand churn. It
/// keeps one [`WarmState`], and with it the tableau's pages, across
/// compactions; only a warm answer the KKT gate refuses drops them
/// ([`WarmState::rebuild_cold`]).
///
/// All methods take the same [`TeContext`] the scheduler was created
/// with; the context is borrowed per call because it borrows the
/// topology/tunnels/scenarios (handing in a different context is a logic
/// error and yields unspecified allocations).
#[derive(Debug)]
pub struct IncrementalScheduler {
    warm: WarmState,
    slots: Vec<Slot>,
    capacities: Vec<f64>,
    /// Row index of each link's capacity constraint (None: link unused
    /// by any demand seen so far).
    capacity_row: Vec<Option<usize>>,
    /// Seed scenarios (most probable singles), fixed at construction.
    tracked: Vec<usize>,
    /// Columns retired by Remove/Resize, pending compaction.
    dead_cols: usize,
    stats: IncrementalStats,
    last_solution: Option<Solution>,
    force_cert_failure: bool,
}

impl IncrementalScheduler {
    /// Empty scheduler over the full link capacities.
    pub fn new(ctx: &TeContext) -> Self {
        let capacities = ctx.link_capacities();
        let tracked = model::seed_scenarios(ctx).to_vec();
        let capacity_row = vec![None; ctx.topo.num_links()];
        IncrementalScheduler {
            warm: WarmState::new(bate_lp::Problem::new(Sense::Minimize)),
            slots: Vec::new(),
            capacities,
            capacity_row,
            tracked,
            dead_cols: 0,
            stats: IncrementalStats::default(),
            last_solution: None,
            force_cert_failure: false,
        }
    }

    /// Lifetime counters (survive compactions).
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The live demands, in admission order.
    pub fn demands(&self) -> Vec<&BaDemand> {
        self.slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| &s.demand)
            .collect()
    }

    /// Whether the live demands are exactly `pool`, in any order.
    fn live_ids_are(&self, pool: &[BaDemand]) -> bool {
        let ids: HashSet<DemandId> = pool.iter().map(|d| d.id).collect();
        let mut alive = self.slots.iter().filter(|s| s.alive);
        ids.len() == pool.len()
            && alive.clone().count() == pool.len()
            && alive.all(|s| ids.contains(&s.demand.id))
    }

    /// The current master problem — what the exact rational oracle
    /// certifies the warm optimum against.
    pub fn problem(&self) -> &bate_lp::Problem {
        self.warm.problem()
    }

    /// The most recent accepted master optimum.
    pub fn last_solution(&self) -> Option<&Solution> {
        self.last_solution.as_ref()
    }

    /// Make the next warm-accepted answer fail its KKT gate, forcing the
    /// cold-fallback path. Test hook for the fallback regression suite.
    #[doc(hidden)]
    pub fn force_cert_failure_once(&mut self) {
        self.force_cert_failure = true;
    }

    /// Apply a batch of churn deltas and re-solve. Returns the new
    /// schedule for the live demand set; the master, basis, and
    /// separation state persist for the next call.
    pub fn apply(
        &mut self,
        ctx: &TeContext,
        deltas: &[DemandDelta],
    ) -> Result<ScheduleResult, SolveError> {
        let m = warm_metrics();
        let t0 = Instant::now();
        self.stats.deltas += deltas.len() as u64;
        m.deltas.add(deltas.len() as u64);
        for delta in deltas {
            match delta {
                DemandDelta::Add(d) => self.add_demand(ctx, d.clone(), None)?,
                DemandDelta::Remove(id) => self.remove_demand(*id),
                DemandDelta::Resize { id, factor } => self.resize_demand(ctx, *id, *factor)?,
            }
        }
        if self.should_compact() {
            self.compact(ctx)?;
        }
        let result = self.resolve();
        m.resolve_ms.observe_ms(t0.elapsed());
        result
    }

    // --- delta application -------------------------------------------

    /// `carry` is the previous incarnation's profile and qualification
    /// bitmap (resize and compaction): the profile is not collapsed again,
    /// and rows the separation oracle already paid to discover are
    /// regenerated up front instead of being re-discovered one master
    /// solve at a time. The collapse depends only on the demand's pairs and
    /// the tracked set — both unchanged across a resize/compaction — so
    /// both are what a fresh collapse would give.
    fn add_demand(
        &mut self,
        ctx: &TeContext,
        demand: BaDemand,
        carry: Option<(MaskedProfile, Vec<bool>)>,
    ) -> Result<(), SolveError> {
        assert!(
            !self
                .slots
                .iter()
                .any(|s| s.alive && s.demand.id == demand.id),
            "demand {:?} is already admitted",
            demand.id
        );
        let (profile, carry) = match carry {
            Some((profile, added)) => (profile, Some(added)),
            None => (MaskedProfile::collapse(ctx, &demand, &self.tracked), None),
        };
        let p = self.warm.problem_mut();

        // Flow columns at objective 1.0 (minimize total bandwidth), Eq. 1,
        // the delivered-fraction columns, then the qualification rows of
        // the seed states and of whatever `carry` already discovered.
        let f = model::flow_columns(p, ctx, &demand, 1.0)?;
        let eq1_rows = model::coverage_rows(p, &demand, &f);
        let mut cols = DemandCols::new(p, Form::Scheduling, &profile, f);
        cols.add_rows(p, &demand, &profile, true, carry.as_deref());
        let avail_row =
            p.add_constraint(&cols.availability_terms(&profile), Relation::Ge, demand.beta);

        // Splice the new flow columns into the capacity rows (Eq. 6);
        // links no admitted demand has used yet get a fresh row.
        let per_link = model::capacity_terms(ctx, [(&demand, &cols)]);
        for (li, terms) in per_link.iter().enumerate() {
            if terms.is_empty() {
                continue;
            }
            match self.capacity_row[li] {
                Some(row) => p.extend_constraint(row, terms),
                None => {
                    self.capacity_row[li] =
                        Some(p.add_constraint(terms, Relation::Le, self.capacities[li]));
                }
            }
        }

        self.slots.push(Slot {
            demand,
            profile,
            cols,
            eq1_rows,
            avail_row,
            alive: true,
            dirty: true,
        });
        Ok(())
    }

    fn remove_demand(&mut self, id: DemandId) {
        let Some(slot) = self.slots.iter_mut().find(|s| s.alive && s.demand.id == id) else {
            return; // removing an unknown demand is a no-op
        };
        let p = self.warm.problem_mut();
        let mut retired = 0usize;
        for &v in slot.cols.f.iter().flatten().chain(&slot.cols.ind) {
            p.set_var_upper(v, 0.0);
            retired += 1;
        }
        // The `≥` rows must release (Σf ≥ 0 and Σ p·B ≥ 0 are vacuous);
        // the `≤` qualification rows hold trivially at zero and stay.
        for &row in &slot.eq1_rows {
            p.set_rhs(row, 0.0);
        }
        p.set_rhs(slot.avail_row, 0.0);
        slot.alive = false;
        slot.dirty = false;
        self.dead_cols += retired;
    }

    fn resize_demand(
        &mut self,
        ctx: &TeContext,
        id: DemandId,
        factor: f64,
    ) -> Result<(), SolveError> {
        assert!(factor > 0.0, "resize factor must be positive");
        let Some(slot) = self.slots.iter().find(|s| s.alive && s.demand.id == id) else {
            return Ok(()); // resizing an unknown demand is a no-op
        };
        // `b` is a coefficient of every qualification row, so a resize is
        // remove + re-add under the same id (the in-place contract only
        // covers rhs and bound edits). The qualification rows already
        // generated for the old incarnation carry over — which rows bind
        // depends on the availability patterns, not the magnitude of `b`.
        let mut demand = slot.demand.clone();
        let carried = (slot.profile.clone(), slot.cols.added.clone());
        for (_, b) in &mut demand.bandwidth {
            *b *= factor;
        }
        demand.price *= factor;
        self.remove_demand(id);
        self.add_demand(ctx, demand, Some(carried))
    }

    // --- compaction ---------------------------------------------------

    fn should_compact(&self) -> bool {
        let total = self.warm.problem().num_vars();
        self.dead_cols >= COMPACT_DEAD_FLOOR
            && total > 0
            && (self.dead_cols as f64) > COMPACT_DEAD_FRACTION * (total as f64)
    }

    /// Rebuild the master from the live demands only, in place. Each live
    /// demand keeps its profile and its discovered cut pool; every retired
    /// column and row is shed. The basis is lost — the master is replaced
    /// wholesale, so the next solve is a cold `build` — but not the
    /// workspace, whose pages are already faulted in.
    fn compact(&mut self, ctx: &TeContext) -> Result<(), SolveError> {
        let slots = std::mem::take(&mut self.slots);
        self.warm.replace_problem(bate_lp::Problem::new(Sense::Minimize));
        self.capacity_row.fill(None);
        self.dead_cols = 0;
        self.last_solution = None;
        for s in slots.into_iter().filter(|s| s.alive) {
            // Cannot fail: each demand was added once already.
            self.add_demand(ctx, s.demand, Some((s.profile, s.cols.added)))?;
        }
        self.stats.compactions += 1;
        warm_metrics().compactions.inc();
        Ok(())
    }

    // --- the warm solve loop ------------------------------------------

    /// Gate a warm answer behind the float KKT certificate; fall back to
    /// a cold re-solve when it fails (or when the test hook forces it).
    fn certify(&mut self, sol: Solution) -> Result<Solution, SolveError> {
        if !sol.stats.warm_start {
            return Ok(sol);
        }
        let forced = std::mem::take(&mut self.force_cert_failure);
        let t_cert = Instant::now();
        let pass = !forced && quick_check(self.warm.problem(), &sol, CERT_TOL);
        warm_metrics()
            .cert_check_ns
            .observe(t_cert.elapsed().as_nanos() as f64);
        if pass {
            return Ok(sol);
        }
        self.stats.cert_fallbacks += 1;
        warm_metrics().cert_fallbacks.inc();
        // A cert-gate cold fallback is a flight-recorder trigger: dump the
        // causal slice of the trace whose solve tripped the gate (trace 0 —
        // untraced callers — dumps the whole ring in canonical order).
        let cur = bate_obs::context::current();
        if cur.is_some() {
            bate_obs::warn!("warm.cert_fallback", forced = forced);
        }
        bate_obs::flight::trigger("cert_cold_fallback", cur.trace_id);
        self.warm.rebuild_cold();
        self.warm.solve()
    }

    /// Separation sweep. `dirty_only` restricts the sweep to the slots a
    /// delta touched (the fast path); the certifying pass that ends every
    /// round always covers the full live set.
    fn separate(&self, sol: &Solution, dirty_only: bool) -> Vec<(usize, Vec<(usize, usize)>)> {
        (self.slots.iter().enumerate())
            .filter(|(_, s)| s.alive && (!dirty_only || s.dirty))
            .map(|(i, s)| (i, s.cols.violated(&s.demand, &s.profile, sol)))
            .filter(|(_, v)| !v.is_empty())
            .collect()
    }

    fn append_cuts(&mut self, violated: &[(usize, Vec<(usize, usize)>)]) -> u64 {
        let mut fresh = 0u64;
        for &(i, ref rows) in violated {
            let slot = &mut self.slots[i];
            for cut in slot.cols.cuts(&slot.demand, &slot.profile, rows) {
                let p = self.warm.problem_mut();
                p.add_constraint(&cut.terms, cut.relation, cut.rhs);
                fresh += 1;
            }
        }
        fresh
    }

    /// The warm row-generation loop: solve, gate, separate (delta-touched
    /// slots first, then the certifying full pass), cut, repeat.
    fn resolve(&mut self) -> Result<ScheduleResult, SolveError> {
        let m = warm_metrics();
        let mut rg = RowGenStats::default();
        let fallbacks_before = self.stats.cert_fallbacks;
        let sol = loop {
            // An `Err` here is already the verdict of a cold solve:
            // `WarmState::solve` redoes every live error from a fresh build.
            let sol = match self.warm.solve().and_then(|s| self.certify(s)) {
                Ok(sol) => sol,
                Err(e) => {
                    // A dirty master must not poison the next round: the
                    // workspace already dropped its basis on the error
                    // path, so the next apply() starts cold.
                    self.last_solution = None;
                    return Err(e);
                }
            };
            rg.rounds += 1;
            if sol.stats.warm_start {
                self.stats.warm_rounds += 1;
                rg.warm_rounds += 1;
                m.rounds.inc();
            } else {
                self.stats.cold_rounds += 1;
                m.rounds.inc();
                m.cold_rounds.inc();
            }
            self.stats.dual_pivots += sol.stats.dual_pivots;
            rg.dual_repair_pivots += sol.stats.dual_pivots;
            m.dual_pivots.add(sol.stats.dual_pivots);

            let t_sep = Instant::now();
            let mut violated = self.separate(&sol, true);
            if violated.is_empty() {
                violated = self.separate(&sol, false);
            }
            rg.separation_ns += t_sep.elapsed().as_nanos() as u64;
            let fresh = self.append_cuts(&violated);
            rg.rows_per_round.push(fresh as u32);
            if fresh == 0 {
                break sol;
            }
            rg.rows_added += fresh;
        };
        for slot in &mut self.slots {
            slot.dirty = false;
        }
        rg.cert_fallbacks = (self.stats.cert_fallbacks - fallbacks_before) as u32;
        rg.master_rows = self.warm.problem().num_constraints() as u32;
        rg.full_rows = self.full_formulation_rows() as u32;

        let result = self.extract(&sol, rg);
        self.last_solution = Some(sol);
        Ok(result)
    }

    /// Rows the batch full formulation would carry for the live set.
    fn full_formulation_rows(&self) -> usize {
        let qual: usize = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.profile.len() * s.demand.bandwidth.len() + s.eq1_rows.len() + 1)
            .sum();
        qual + self.capacity_row.iter().filter(|r| r.is_some()).count()
    }

    fn extract(&self, sol: &Solution, rg: RowGenStats) -> ScheduleResult {
        let live = self.slots.iter().filter(|s| s.alive);
        let members = live.map(|s| (&s.demand, &s.cols));
        schedule_result(members, &self.capacity_row, sol, Some(rg))
    }
}

/// How a [`SchedulingSession`] answered a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPath {
    /// Nothing changed since the held optimum: no LP solve.
    Reused,
    /// The pending deltas went through one warm [`IncrementalScheduler::apply`].
    Warm,
    /// No usable history: a cold [`schedule_hardened`] over the pool.
    Cold,
}

impl SessionPath {
    pub fn as_str(self) -> &'static str {
        match self {
            SessionPath::Reused => "reused",
            SessionPath::Warm => "warm",
            SessionPath::Cold => "cold",
        }
    }
}

/// Lifetime counters of a [`SchedulingSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    pub reused_rounds: u64,
    pub warm_rounds: u64,
    pub cold_rounds: u64,
    /// Deltas the most recent master solve was fed (a rebuild is fed the
    /// live pool).
    pub last_apply_deltas: usize,
    /// Demands the most recent hardening scan checked; the others reused
    /// the verdict the scan before gave their unmoved LP flows (a cold
    /// round checks the whole pool).
    pub last_scan_checks: usize,
}

/// A hardened optimum for the live pool, and how the session got it.
#[derive(Debug, Clone)]
pub struct SessionRound {
    pub path: SessionPath,
    /// Deltas that were pending when the round was asked for.
    pub pending: usize,
    pub result: ScheduleResult,
}

/// What a session remembers between requests. It exists only from a
/// successful master solve on, so a session without a master holds no
/// deltas at all.
#[derive(Debug)]
struct History {
    master: IncrementalScheduler,
    /// Deltas since `lp`, `Add`/`Remove` pairs of one id cancelled.
    pending: Vec<DemandDelta>,
    /// The master's last LP optimum.
    lp: ScheduleResult,
    /// `lp` after hardening with the violations left, computed at most
    /// once per `lp`.
    hardened: Option<(ScheduleResult, usize)>,
    /// The hardening pass, with its memo of the last violation scan: a
    /// round re-checks only the demands whose LP flows the warm solve
    /// moved.
    hardener: Hardener,
}

impl History {
    /// `lp` hardened for `live`, with the violations left: the memo, or
    /// one hardening pass that fills it and records its checks in `stats`.
    fn hardened(
        &mut self,
        ctx: &TeContext,
        live: &[BaDemand],
        stats: &mut SessionStats,
    ) -> &(ScheduleResult, usize) {
        let (lp, hardener) = (&self.lp, &mut self.hardener);
        self.hardened.get_or_insert_with(|| {
            let mut result = lp.clone();
            let violations = hardener.run(ctx, live, &mut result);
            stats.last_scan_checks = hardener.last_checks();
            (result, violations)
        })
    }
}

/// One warm scheduling session over a churning demand pool.
///
/// The caller reports every pool edit ([`note_add`](Self::note_add),
/// [`note_remove`](Self::note_remove)) and asks for the pool's hardened
/// optimum with the pool itself in hand: for a multi-submit batch
/// ([`batch_optimum`](Self::batch_optimum), which is also what builds
/// the master), and for a TE round
/// ([`hardened_round`](Self::hardened_round)), which is also what a
/// repair asks for and the only request booked as a round. A request
/// costs what changed: nothing pending reuses the held optimum, pending
/// deltas take one warm `apply`, and hardening the new optimum re-checks
/// only the demands whose LP flows it moved (`scheduling::Hardener`), so
/// a round right after a batch is a pure reuse. The history, and that
/// memo with it, is dropped — and a round solved by the cold
/// [`schedule_hardened`] — when it is *stale* (more pending deltas than
/// live demands: replaying them would cost more than starting over), when
/// a master solve fails, or when the master's live ids are not the pool's,
/// so correctness never rests on the caller's reports.
#[derive(Debug, Default)]
pub struct SchedulingSession {
    history: Option<History>,
    /// Pool size at the last failed master solve. While the live pool is
    /// at least this big no master is rebuilt: a pool that just blew the
    /// simplex iteration budget will blow it again, and re-burning the
    /// full budget every batch is a death spiral. Clears once
    /// withdrawals shrink the pool.
    poisoned_at: Option<usize>,
    stats: SessionStats,
}

impl SchedulingSession {
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The warm master, while the session has a history (what the exact
    /// oracle certifies the session's LP optimum against).
    pub fn master(&self) -> Option<&IncrementalScheduler> {
        self.history.as_ref().map(|h| &h.master)
    }

    /// Deltas held since the last optimum.
    pub fn pending(&self) -> usize {
        self.history.as_ref().map_or(0, |h| h.pending.len())
    }

    /// `demand` entered the pool.
    pub fn note_add(&mut self, demand: &BaDemand) {
        if let Some(h) = &mut self.history {
            h.pending.push(DemandDelta::Add(demand.clone()));
        }
    }

    /// Demand `id` left the pool. Cancels a pending `Add` of the same id,
    /// so a demand that came and went never reaches the master.
    pub fn note_remove(&mut self, id: DemandId) {
        let Some(h) = &mut self.history else { return };
        let added = h
            .pending
            .iter()
            .rposition(|d| matches!(d, DemandDelta::Add(a) if a.id == id));
        match added {
            Some(i) => {
                h.pending.remove(i);
            }
            None => h.pending.push(DemandDelta::Remove(id)),
        }
    }

    /// The hardened optimum for `live`, building or rebuilding the master
    /// from `live` when there is no usable history. It is the result the
    /// next [`hardened_round`](Self::hardened_round) reuses, but it books
    /// no round. `None`: the master solve failed, or the poison guard is
    /// holding rebuilds off; the caller keeps the allocation it has.
    pub fn batch_optimum(&mut self, ctx: &TeContext, live: &[BaDemand]) -> Option<&ScheduleResult> {
        if self.advance(ctx, live).is_none() && !self.rebuild(ctx, live) {
            return None;
        }
        let h = self.history.as_mut()?;
        Some(&h.hardened(ctx, live, &mut self.stats).0)
    }

    /// The hardened optimum for `live`, booked as one scheduling round
    /// ([`count_round`]) on every path.
    pub fn hardened_round(
        &mut self,
        ctx: &TeContext,
        live: &[BaDemand],
    ) -> Result<SessionRound, SolveError> {
        let t0 = Instant::now();
        let pending = self.pending();
        let Some(path) = self.advance(ctx, live) else {
            return self.cold(ctx, live, pending);
        };
        let h = self.history.as_mut().expect("advance kept the history");
        let (held, violations) = h.hardened(ctx, live, &mut self.stats);
        count_round(live.len(), *violations, held, t0);
        match path {
            SessionPath::Warm => self.stats.warm_rounds += 1,
            _ => self.stats.reused_rounds += 1,
        }
        Ok(SessionRound {
            path,
            pending,
            result: held.clone(),
        })
    }

    fn cold(
        &mut self,
        ctx: &TeContext,
        live: &[BaDemand],
        pending: usize,
    ) -> Result<SessionRound, SolveError> {
        let result = schedule_hardened(ctx, live)?;
        self.stats.cold_rounds += 1;
        self.stats.last_scan_checks = live.len();
        Ok(SessionRound {
            path: SessionPath::Cold,
            pending,
            result,
        })
    }

    /// Bring the history up to date with `live`: `Reused` when nothing
    /// was pending, `Warm` after one `apply`. `None` leaves no history.
    fn advance(&mut self, ctx: &TeContext, live: &[BaDemand]) -> Option<SessionPath> {
        let h = self.history.as_mut()?;
        if h.pending.len() > live.len() {
            self.history = None;
            return None;
        }
        let mut path = SessionPath::Reused;
        if !h.pending.is_empty() {
            let deltas = std::mem::take(&mut h.pending);
            self.stats.last_apply_deltas = deltas.len();
            match h.master.apply(ctx, &deltas) {
                Ok(lp) => {
                    h.lp = lp;
                    h.hardened = None;
                    path = SessionPath::Warm;
                }
                Err(e) => {
                    self.poison(live.len(), &e);
                    return None;
                }
            }
        }
        // The optimum is for the master's live set; trust it only if
        // that is the pool the caller holds.
        if !h.master.live_ids_are(live) {
            self.history = None;
            return None;
        }
        Some(path)
    }

    /// A fresh master over `live`, unless the poison guard holds it off.
    fn rebuild(&mut self, ctx: &TeContext, live: &[BaDemand]) -> bool {
        if let Some(at) = self.poisoned_at {
            if live.len() >= at {
                return false;
            }
            self.poisoned_at = None;
        }
        let deltas: Vec<DemandDelta> = live.iter().cloned().map(DemandDelta::Add).collect();
        self.stats.last_apply_deltas = deltas.len();
        let mut master = IncrementalScheduler::new(ctx);
        match master.apply(ctx, &deltas) {
            Ok(lp) => {
                self.history = Some(History {
                    master,
                    pending: Vec::new(),
                    lp,
                    hardened: None,
                    hardener: Hardener::default(),
                });
                true
            }
            Err(e) => {
                self.poison(live.len(), &e);
                false
            }
        }
    }

    fn poison(&mut self, pool: usize, error: &SolveError) {
        bate_obs::warn!(
            "sched.session_poisoned",
            deltas = self.stats.last_apply_deltas,
            pool = pool,
            error = format!("{error}"),
        );
        self.history = None;
        self.poisoned_at = Some(pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduling::{harden, schedule_with_capacities_mode, SolveMode};
    use bate_net::{topologies, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_parts() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::toy4();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::Ksp(2));
        let scenarios = ScenarioSet::enumerate(&topo, 3);
        (topo, tunnels, scenarios)
    }

    fn cold_objective(ctx: &TeContext, demands: &[BaDemand]) -> f64 {
        schedule_with_capacities_mode(ctx, demands, &ctx.link_capacities(), SolveMode::Full)
            .unwrap()
            .total_bandwidth
    }

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "{a} != {b}");
    }

    #[test]
    fn incremental_add_matches_batch_cold() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d1 = BaDemand::single(1, pair, 4000.0, 0.99);
        let d2 = BaDemand::single(2, pair, 6000.0, 0.9);

        let mut inc = IncrementalScheduler::new(&ctx);
        let r1 = inc
            .apply(&ctx, &[DemandDelta::Add(d1.clone())])
            .unwrap();
        approx(r1.total_bandwidth, cold_objective(&ctx, std::slice::from_ref(&d1)));

        let r2 = inc
            .apply(&ctx, &[DemandDelta::Add(d2.clone())])
            .unwrap();
        approx(r2.total_bandwidth, cold_objective(&ctx, &[d1, d2]));
        // The second round rides the saved basis.
        let rg = r2.rowgen.unwrap();
        assert!(rg.warm_rounds > 0, "second round should warm-start: {rg:?}");
        assert!(inc.stats().warm_rounds > 0);
    }

    #[test]
    fn remove_releases_capacity_and_matches_cold() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d1 = BaDemand::single(1, pair, 4000.0, 0.99);
        let d2 = BaDemand::single(2, pair, 6000.0, 0.9);

        let mut inc = IncrementalScheduler::new(&ctx);
        inc.apply(
            &ctx,
            &[DemandDelta::Add(d1.clone()), DemandDelta::Add(d2.clone())],
        )
        .unwrap();
        let r = inc
            .apply(&ctx, &[DemandDelta::Remove(d1.id)])
            .unwrap();
        approx(r.total_bandwidth, cold_objective(&ctx, std::slice::from_ref(&d2)));
        assert_eq!(inc.demands().len(), 1);
        // The retired demand carries no flow.
        assert_eq!(r.allocation.flows_of(d1.id).count(), 0);
    }

    #[test]
    fn resize_matches_cold_at_new_rate() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 4000.0, 0.99);

        let mut inc = IncrementalScheduler::new(&ctx);
        inc.apply(&ctx, &[DemandDelta::Add(d.clone())]).unwrap();
        let r = inc
            .apply(&ctx, &[DemandDelta::Resize { id: d.id, factor: 1.5 }])
            .unwrap();
        let resized = BaDemand::single(1, pair, 6000.0, 0.99);
        approx(r.total_bandwidth, cold_objective(&ctx, &[resized]));
    }

    #[test]
    fn forced_cert_failure_falls_back_cold_and_stays_correct() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d = BaDemand::single(1, pair, 4000.0, 0.99);

        let mut inc = IncrementalScheduler::new(&ctx);
        inc.apply(&ctx, &[DemandDelta::Add(d.clone())]).unwrap();
        inc.force_cert_failure_once();
        // An empty delta round re-solves warm; the forced gate failure
        // must reroute it through the cold path without changing the
        // answer.
        let r = inc.apply(&ctx, &[]).unwrap();
        assert_eq!(inc.stats().cert_fallbacks, 1);
        assert!(!r.solve_stats.warm_start, "fallback answer must be cold");
        approx(r.total_bandwidth, cold_objective(&ctx, std::slice::from_ref(&d)));
        // The failure dropped the live tableau (the cold answer above came
        // from a fresh build); the cold solve left a new one, so the round
        // after resumes on it.
        let d2 = BaDemand::single(2, pair, 3000.0, 0.9);
        let r = inc.apply(&ctx, &[DemandDelta::Add(d2.clone())]).unwrap();
        assert_eq!(inc.stats().cert_fallbacks, 1);
        assert!(r.solve_stats.warm_start, "the round after must be warm again");
        approx(r.total_bandwidth, cold_objective(&ctx, &[d, d2]));
    }

    #[test]
    fn churned_master_compacts_past_dead_threshold() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();

        let mut inc = IncrementalScheduler::new(&ctx);
        let keeper = BaDemand::single(0, pair, 1000.0, 0.9);
        let partner = BaDemand::single(100, pair, 2000.0, 0.95);
        inc.apply(&ctx, &[DemandDelta::Add(keeper.clone())]).unwrap();
        inc.apply(&ctx, &[DemandDelta::Add(partner.clone())]).unwrap();
        let both = cold_objective(&ctx, &[keeper, partner]);
        // Churn enough transient demands through to cross the dead-column
        // threshold and trigger compactions.
        let mut compacted = 0;
        for i in 1..=40u64 {
            let d = BaDemand::single(i, pair, 500.0, 0.9);
            inc.apply(&ctx, &[DemandDelta::Add(d)]).unwrap();
            let before = inc.stats();
            let r = inc
                .apply(&ctx, &[DemandDelta::Remove(DemandId(i))])
                .unwrap();
            approx(r.total_bandwidth, both);
            if inc.stats().compactions == before.compactions {
                continue;
            }
            // Compacted in place: only the live demands are left, their
            // profiles are what a fresh collapse gives, and the apply's one
            // cold solve — its first, on the replaced problem — landed on
            // the cold optimum above.
            compacted += 1;
            assert_eq!(inc.slots.len(), 2);
            for s in &inc.slots {
                let fresh = MaskedProfile::collapse(&ctx, &s.demand, &inc.tracked);
                assert_eq!(format!("{:?}", s.profile), format!("{fresh:?}"));
            }
            let rg = r.rowgen.unwrap();
            assert_eq!(inc.stats().cold_rounds, before.cold_rounds + 1);
            assert_eq!(rg.warm_rounds + 1, rg.rounds, "{rg:?}");
        }
        assert!(compacted > 1, "{:?}", inc.stats());
        let r = inc.apply(&ctx, &[]).unwrap();
        assert!(r.solve_stats.warm_start, "live again after the cold solve");
        approx(r.total_bandwidth, both);
    }

    #[test]
    fn warm_optimum_passes_exact_certificate() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut inc = IncrementalScheduler::new(&ctx);
        inc.apply(&ctx, &[DemandDelta::Add(BaDemand::single(1, pair, 4000.0, 0.99))])
            .unwrap();
        inc.apply(&ctx, &[DemandDelta::Add(BaDemand::single(2, pair, 3000.0, 0.9))])
            .unwrap();
        assert!(inc.stats().warm_rounds > 0);
        let sol = inc.last_solution().unwrap();
        bate_reference::verify_certificate(inc.problem(), sol).unwrap();
    }

    /// A session over toy4 with a master built from `pool`.
    fn session_over(ctx: &TeContext, pool: &[BaDemand]) -> SchedulingSession {
        let mut session = SchedulingSession::default();
        let lp = session.batch_optimum(ctx, pool).expect("master builds");
        approx(lp.total_bandwidth, cold_objective(ctx, pool));
        session
    }

    #[test]
    fn session_answers_reused_warm_and_cold() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut pool = vec![
            BaDemand::single(1, pair, 4000.0, 0.99),
            BaDemand::single(2, pair, 3000.0, 0.9),
        ];

        // No history: today's cold round, and nothing is remembered.
        let mut session = SchedulingSession::default();
        session.note_add(&pool[0]);
        assert_eq!(session.pending(), 0, "no master, no deltas");
        let cold = session.hardened_round(&ctx, &pool).unwrap();
        assert_eq!(cold.path, SessionPath::Cold);
        assert!(session.master().is_none());

        // Nothing pending: the held optimum, hardened once, no solve.
        let mut session = session_over(&ctx, &pool);
        let solves = session.master().unwrap().stats();
        let first = session.hardened_round(&ctx, &pool).unwrap();
        let again = session.hardened_round(&ctx, &pool).unwrap();
        assert_eq!(
            (first.path, again.path),
            (SessionPath::Reused, SessionPath::Reused)
        );
        assert_eq!(
            session.master().unwrap().stats(),
            solves,
            "reuse must not solve"
        );
        approx(first.result.total_bandwidth, cold.result.total_bandwidth);
        assert_eq!(
            first.result.allocation.total_allocated(),
            again.result.allocation.total_allocated()
        );
        for d in &pool {
            assert!(first.result.allocation.meets_target(&ctx, d));
        }

        // A little churn: one warm apply, then hardened.
        let d3 = BaDemand::single(3, pair, 1000.0, 0.9);
        session.note_add(&d3);
        pool.push(d3);
        let warm = session.hardened_round(&ctx, &pool).unwrap();
        assert_eq!((warm.path, warm.pending), (SessionPath::Warm, 1));
        let fresh = schedule_hardened(&ctx, &pool).unwrap();
        approx(warm.result.total_bandwidth, fresh.total_bandwidth);
        for d in &pool {
            assert!(warm.result.allocation.meets_target(&ctx, d));
        }
        let sol = session.master().unwrap().last_solution().unwrap();
        bate_reference::verify_certificate(session.master().unwrap().problem(), sol).unwrap();

        // More pending deltas than live demands: stale, dropped, cold.
        for d in &pool {
            session.note_remove(d.id);
        }
        let keeper = vec![BaDemand::single(9, pair, 500.0, 0.9)];
        session.note_add(&keeper[0]);
        assert_eq!(session.pending(), 4);
        let stale = session.hardened_round(&ctx, &keeper).unwrap();
        assert_eq!((stale.path, stale.pending), (SessionPath::Cold, 4));
        assert!(session.master().is_none() && session.pending() == 0);
        let stats = session.stats();
        assert_eq!(
            (stats.reused_rounds, stats.warm_rounds, stats.cold_rounds),
            (2, 1, 1)
        );
    }

    #[test]
    fn session_pending_stays_bounded_under_submit_withdraw_cycles() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let pool = vec![BaDemand::single(1, pair, 4000.0, 0.99)];
        let visitor = BaDemand::single(2, pair, 1000.0, 0.9);

        // Without a master nothing is held at all...
        let mut idle = SchedulingSession::default();
        // ...and with one, a demand that came and went cancels out.
        let mut session = session_over(&ctx, &pool);
        for _ in 0..10_000 {
            for s in [&mut idle, &mut session] {
                s.note_add(&visitor);
                assert!(s.pending() <= pool.len() + 1);
                s.note_remove(visitor.id);
                assert!(s.pending() <= pool.len());
            }
        }
        assert_eq!((idle.pending(), session.pending()), (0, 0));
        // The master never saw the visitor.
        let round = session.hardened_round(&ctx, &pool).unwrap();
        assert_eq!(round.path, SessionPath::Reused);
        assert_eq!(session.stats().last_apply_deltas, pool.len());
    }

    #[test]
    fn session_drops_history_when_the_pool_changed_behind_its_back() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d1 = BaDemand::single(1, pair, 4000.0, 0.99);
        let d2 = BaDemand::single(2, pair, 3000.0, 0.9);
        let d3 = BaDemand::single(3, pair, 1000.0, 0.9);

        // Same size, different ids, reported by nobody: reuse is refused.
        let mut session = session_over(&ctx, &[d1.clone(), d2.clone()]);
        let swapped = vec![d1.clone(), d3.clone()];
        let round = session.hardened_round(&ctx, &swapped).unwrap();
        assert_eq!(round.path, SessionPath::Cold);
        assert!(session.master().is_none());
        approx(
            round.result.total_bandwidth,
            schedule_hardened(&ctx, &swapped).unwrap().total_bandwidth,
        );
        assert_eq!(round.result.allocation.flows_of(d2.id).count(), 0);

        // A warm answer is checked the same way: the reported delta is
        // applied, but the pool also lost a demand nobody reported.
        let mut session = session_over(&ctx, &[d1.clone(), d2.clone()]);
        session.note_add(&d3);
        let round = session
            .hardened_round(&ctx, &[d2.clone(), d3.clone()])
            .unwrap();
        assert_eq!(round.path, SessionPath::Cold);
        assert_eq!(round.result.allocation.flows_of(d1.id).count(), 0);

        // Order does not matter.
        let mut session = session_over(&ctx, &[d1.clone(), d2.clone()]);
        let round = session.hardened_round(&ctx, &[d2, d1]).unwrap();
        assert_eq!(round.path, SessionPath::Reused);
    }

    /// A churned session's round, held to [`harden`] over a clone of the
    /// same LP optimum with an empty memo: per-demand flow bits, the total's
    /// bits and the violation count. Returns the demands the LP optimum
    /// left short of their hard target (what the re-placement worked on).
    fn round_is_the_full_scan(
        session: &mut SchedulingSession,
        ctx: &TeContext,
        pool: &[BaDemand],
        tag: &str,
    ) -> usize {
        let round = session.hardened_round(ctx, pool).unwrap();
        let h = session.history.as_ref().expect("a warm session round");
        let mut full = h.lp.clone();
        let violations = harden(ctx, pool, &mut full);
        assert_eq!(h.hardened.as_ref().unwrap().1, violations, "{tag}: violations");
        assert_eq!(
            round.result.total_bandwidth.to_bits(),
            full.total_bandwidth.to_bits(),
            "{tag}: total"
        );
        let bits = |r: &ScheduleResult, d: &BaDemand| -> Vec<(bate_routing::TunnelId, u64)> {
            r.allocation.flows_of(d.id).map(|(t, f)| (t, f.to_bits())).collect()
        };
        for d in pool {
            assert_eq!(bits(&round.result, d), bits(&full, d), "{tag}: flows of {:?}", d.id);
        }
        assert!(round.result.allocation.demands().eq(full.allocation.demands()), "{tag}");
        pool.iter().filter(|d| !h.lp.allocation.meets_target(ctx, d)).count()
    }

    /// `n` single-pair demands from id `first` on, over the pairs with at
    /// least two tunnels, bandwidth uniform in `mbps`, β cycling `betas`.
    fn draw_demands(
        tunnels: &TunnelSet,
        first: u64,
        n: usize,
        mbps: (f64, f64),
        betas: &[f64],
        seed: u64,
    ) -> Vec<BaDemand> {
        use rand::{Rng, SeedableRng};
        let pairs: Vec<usize> = (0..tunnels.num_pairs())
            .filter(|&p| tunnels.tunnels(p).len() >= 2)
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let pair = pairs[rng.gen_range(0..pairs.len())];
                let b = rng.gen_range(mbps.0..=mbps.1);
                BaDemand::single(first + i, pair, b, betas[i as usize % betas.len()])
            })
            .collect()
    }

    /// Churn `cycles` times: withdraw the `step` oldest demands of `pool`,
    /// admit `step` from `stream`, and hold every round to the full scan.
    /// Returns `(last_scan_checks, LP violators)` per round.
    fn churn_rounds(
        session: &mut SchedulingSession,
        ctx: &TeContext,
        pool: &mut Vec<BaDemand>,
        stream: &mut impl Iterator<Item = BaDemand>,
        cycles: usize,
        step: usize,
    ) -> Vec<(usize, usize)> {
        (0..cycles)
            .map(|cycle| {
                for d in pool.drain(..step) {
                    session.note_remove(d.id);
                }
                for d in stream.by_ref().take(step) {
                    session.note_add(&d);
                    pool.push(d);
                }
                let tag = format!("cycle {cycle}");
                let short = round_is_the_full_scan(session, ctx, pool, &tag);
                (session.stats().last_scan_checks, short)
            })
            .collect()
    }

    #[test]
    fn memoised_rounds_are_the_full_scan_on_a_churned_att_pool() {
        let topo = topologies::att();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let cycles = 12;
        let all = draw_demands(&tunnels, 1, 250 + 8 * cycles, (10.0, 50.0), &[0.9, 0.95, 0.99], 35);
        let mut pool = all[..250].to_vec();
        let mut stream = all[250..].iter().cloned();

        let mut session = SchedulingSession::default();
        session.batch_optimum(&ctx, &pool).expect("master builds");
        round_is_the_full_scan(&mut session, &ctx, &pool, "first");
        assert_eq!(session.stats().last_scan_checks, 250, "an empty memo checks all");
        let rounds = churn_rounds(&mut session, &ctx, &mut pool, &mut stream, cycles, 8);
        for (cycle, &(checks, _)) in rounds.iter().enumerate() {
            assert!(checks >= 8, "cycle {cycle}: the admitted demands are new to the memo");
            assert!(5 * checks < pool.len(), "cycle {cycle}: {checks} of {} checked", pool.len());
        }

        // Withdrawn and re-added under the same id at another rate: the
        // demand is re-checked and the round is still the full scan.
        let back = BaDemand { bandwidth: vec![(pool[0].bandwidth[0].0, 20.0)], ..pool[0].clone() };
        session.note_remove(back.id);
        session.note_add(&back);
        pool[0] = back;
        round_is_the_full_scan(&mut session, &ctx, &pool, "re-added");
        assert!(session.stats().last_scan_checks >= 1);
    }

    #[test]
    fn memoised_rounds_are_the_full_scan_while_testbed6_leaves_violators() {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 2);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let cycles = 12;
        let all = draw_demands(&tunnels, 1, 20 + 4 * cycles, (100.0, 250.0), &[0.999, 0.99], 36);
        let mut pool = all[..20].to_vec();
        let mut stream = all[20..].iter().cloned();

        let mut session = SchedulingSession::default();
        session.batch_optimum(&ctx, &pool).expect("master builds");
        round_is_the_full_scan(&mut session, &ctx, &pool, "first");
        let rounds = churn_rounds(&mut session, &ctx, &mut pool, &mut stream, cycles, 4);
        // Non-vacuity: the re-placement ran in most rounds, and in some of
        // them the memo answered for part of the pool.
        let short = rounds.iter().filter(|&&(_, short)| short > 0).count();
        assert!(2 * short > cycles, "(checks, LP violators) per round: {rounds:?}");
        let reused = rounds.iter().any(|&(checks, short)| short > 0 && checks < pool.len());
        assert!(reused, "(checks, LP violators) per round: {rounds:?}");
    }

    #[test]
    fn session_poison_guard_holds_rebuilds_off_until_the_pool_shrinks() {
        let (topo, tunnels, scenarios) = ctx_parts();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let d1 = BaDemand::single(1, pair, 4000.0, 0.9);
        // 30 Gbps through a 20 Gbps cut: the master solve fails.
        let hog = BaDemand::single(2, pair, 30_000.0, 0.5);
        let broken = vec![d1.clone(), hog.clone()];

        let mut session = session_over(&ctx, std::slice::from_ref(&d1));
        session.note_add(&hog);
        assert!(session.batch_optimum(&ctx, &broken).is_none());
        assert!(session.master().is_none());
        // Same pool size: no rebuild is even attempted.
        let mut same_size = broken.clone();
        same_size[1] = BaDemand::single(3, pair, 1000.0, 0.9);
        assert!(session.batch_optimum(&ctx, &same_size).is_none());
        assert_eq!(
            session.stats().last_apply_deltas,
            1,
            "the failed warm apply was the last"
        );
        // A smaller pool clears the guard.
        let lp = session
            .batch_optimum(&ctx, std::slice::from_ref(&d1))
            .unwrap();
        approx(lp.total_bandwidth, cold_objective(&ctx, &[d1]));
    }
}
