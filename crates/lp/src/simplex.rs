//! Two-phase **sparse-aware** primal simplex with bounded variables.
//!
//! The solver works on the bounded standard form
//!
//! ```text
//! minimize c'y   s.t.  Ay = b,  0 <= y <= w   (w_j may be +inf)
//! ```
//!
//! produced from a [`Problem`] by (1) shifting each variable by its lower
//! bound and (2) adding slack/surplus variables for `<=` / `>=` rows and
//! artificial variables for `>=` / `==` rows. Upper bounds are handled
//! *natively*: a nonbasic variable may rest at its lower **or** upper
//! bound, the ratio test considers bound flips and basics hitting their own
//! upper bounds, and no extra constraint rows are materialized. For BATE's
//! scheduling LPs — hundreds of `B ∈ [0,1]` availability variables — this
//! halves the row count compared to the textbook formulation.
//!
//! Phase 1 minimizes the sum of artificials to find a basic feasible
//! solution; phase 2 optimizes the real objective.
//!
//! ## What is different from the original dense kernel
//!
//! The original kernel (preserved in [`crate::dense_reference`]) paid
//! `O(rows × cols)` per pivot and allocated fresh scratch vectors every
//! iteration. This kernel keeps the same tableau semantics (`B⁻¹A` with
//! folded basic values in the last column) but:
//!
//! * **Sparse pivots** — the nonzero columns of the pivot row are gathered
//!   into a reusable scratch buffer once per pivot, and row/objective
//!   eliminations touch only those columns. BATE's scheduling and
//!   admission LPs are very sparse (each `B ≤ f/b` row touches a handful
//!   of variables), so most pivots update a small fraction of the matrix.
//!   The arithmetic on touched columns is identical to the dense kernel:
//!   untouched columns would only ever have received `x -= f · 0`.
//! * **Candidate-list partial pricing** — Dantzig pricing scanned every
//!   column every iteration. Here a bounded candidate list of attractive
//!   columns is priced instead, with a periodic (and on-exhaustion)
//!   full-scan refresh. Optimality is only ever declared by a full scan,
//!   and Bland's anti-cycling fallback always scans fully, so termination
//!   guarantees are unchanged. All tie-breaks are index-ordered, keeping
//!   pivot sequences deterministic.
//! * **No per-iteration allocation** — the basic-column marker (previously
//!   a fresh `Vec<bool>` per iteration plus a `HashSet` in phase 2) is
//!   tableau state maintained across pivots; pricing and pivot scratch
//!   buffers live in the tableau and are reused.
//! * **Buffer reuse** — a [`Workspace`] caches the prepared sparse rows and
//!   every tableau buffer across solves (branch-and-bound keeps one per
//!   worker; [`solve_relaxation`] keeps one per thread). Its matrix is
//!   all-zero whenever no solve is using it, restored by zeroing only the
//!   cells the row files name, so a cold solve costs its nonzeros and not
//!   a matrix of zero pages. It carries no basis: every [`solve_with`] is
//!   `build` → phase 1 → phase 2 from the slack basis. The one warm start
//!   is a [`crate::WarmState`], which keeps the final tableau itself and
//!   edits it in place between solves (the `live` submodule).

use crate::error::SolveError;
use crate::problem::{Problem, Relation, Sense};
use crate::solution::Solution;
use crate::stats::SolveStats;
use crate::EPS;
use std::sync::{Arc, OnceLock};

mod live;

pub(crate) use live::solve_live;

/// Registry handles for the solver phase-attribution family
/// (`bate_solve_phase_*`): where each solve's wall-clock went. The
/// histograms are observed once per solve — negligible against even the
/// smallest branch-and-bound node relaxation.
struct PhaseMetrics {
    phase1: Arc<bate_obs::Histogram>,
    phase2: Arc<bate_obs::Histogram>,
    pricing: Arc<bate_obs::Histogram>,
    pivot: Arc<bate_obs::Histogram>,
    dual_repair: Arc<bate_obs::Histogram>,
    warm_fallbacks: Arc<bate_obs::Counter>,
}

fn phase_metrics() -> &'static PhaseMetrics {
    static M: OnceLock<PhaseMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        r.describe(
            "bate_solve_phase_phase1_ns",
            "Wall-clock ns per solve spent in simplex phase 1 (feasibility)",
        );
        r.describe(
            "bate_solve_phase_phase2_ns",
            "Wall-clock ns per solve spent in simplex phase 2 (optimization)",
        );
        r.describe(
            "bate_solve_phase_pricing_ns",
            "Wall-clock ns per solve spent pricing entering columns (sampled)",
        );
        r.describe(
            "bate_solve_phase_pivot_ns",
            "Wall-clock ns per solve spent in ratio tests and pivots (sampled)",
        );
        r.describe(
            "bate_solve_phase_dual_repair_ns",
            "Wall-clock ns per solve spent in dual-simplex warm-start repair",
        );
        r.describe(
            "bate_solve_warm_fallbacks_total",
            "Warm-started solves that fell back to a cold start (repair failure or residual backstop)",
        );
        PhaseMetrics {
            phase1: r.histogram("bate_solve_phase_phase1_ns"),
            phase2: r.histogram("bate_solve_phase_phase2_ns"),
            pricing: r.histogram("bate_solve_phase_pricing_ns"),
            pivot: r.histogram("bate_solve_phase_pivot_ns"),
            dual_repair: r.histogram("bate_solve_phase_dual_repair_ns"),
            warm_fallbacks: r.counter("bate_solve_warm_fallbacks_total"),
        }
    })
}

/// Pre-register the `bate_solve_phase_*` family (plus the two members
/// observed from `bate-core`: separation and certificate checking) so
/// exposition renders them at zero before the first solve.
pub fn register_phase_metrics() {
    let _ = phase_metrics();
    let r = bate_obs::Registry::global();
    r.describe(
        "bate_solve_phase_separation_ns",
        "Wall-clock ns per row-generation separation round (observed by the scheduler)",
    );
    r.describe(
        "bate_solve_phase_cert_check_ns",
        "Wall-clock ns per warm-solution certificate check (observed by the cert gate)",
    );
    let _ = r.histogram("bate_solve_phase_separation_ns");
    let _ = r.histogram("bate_solve_phase_cert_check_ns");
}

/// Feasibility tolerance for phase-1 termination.
const PHASE1_TOL: f64 = 1e-7;
/// Number of non-improving iterations tolerated before switching to Bland's
/// rule.
const STALL_LIMIT: usize = 64;
/// Pivots between full pricing scans; between refreshes only the candidate
/// list is priced.
const PRICE_REFRESH: usize = 48;

/// Tableaus at or below this column count price with a full Dantzig scan
/// every iteration (see `Tableau::partial`).
const PARTIAL_PRICING_MIN_COLS: usize = 256;

/// Tableaus with at most this many columns skip per-column row files
/// (see [`Tableau::track_cols`]).
const COL_FILE_MIN_COLS: usize = 256;

/// Phase-attribution sampling stride: one pivot-loop iteration in this
/// many is wall-clock timed (pricing vs pivot split) and the sampled
/// totals are scaled back up. Keeps the two `Instant::now()` reads off
/// the other iterations — tiny branch-and-bound node solves would
/// otherwise pay a measurable tax for informational timings.
const TIME_SAMPLE: usize = 8;

/// Per-variable bound override used by branch-and-bound: `(var index,
/// lower, upper)`.
pub type BoundOverride = (usize, f64, f64);

/// Reusable solver state: prepared sparse problem rows and tableau buffers.
///
/// A workspace amortizes, across repeated solves of the *same* problem
/// with different bound overrides (the branch-and-bound access pattern):
///
/// * the sparse row preparation (constraint terms are cloned out of the
///   [`Problem`] once, not per solve), and
/// * every tableau allocation (the dense matrix, pricing buffers, pivot
///   scratch — all reused).
///
/// It carries nothing of one solve's *answer* into the next [`solve_with`],
/// so a result never depends on what the workspace solved before — the
/// parallel branch-and-bound hands workspaces to worker threads on that
/// footing. The prepared rows are reused only for a problem whose rows
/// equal them bit for bit, and the matrix starts every solve all-zero:
/// whoever dirtied it sweeps the cells it may have written (`O(nnz)`, not
/// a matrix-sized memset) — [`solve_relaxation`] on its way out, an owner
/// that calls [`solve_with`] again at the start of the next `build`.
#[derive(Debug, Default)]
pub struct Workspace {
    tab: Tableau,
    prepared: Option<Prepared>,
    /// Set while `tab` still holds the optimum of the last
    /// [`solve_live`]: the problem as the tableau has absorbed it.
    live: Option<live::Live>,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// Problem structure shared by every solve in a workspace: sparse rows
/// plus the (override-independent) column layout.
///
/// The layout assigns every row its slack/surplus column (non-`Eq` rows)
/// and an artificial column (every row, used or not depending on the
/// per-solve rhs normalization), so column indices stay valid when only
/// bounds change between solves.
#[derive(Debug)]
struct Prepared {
    num_vars: usize,
    terms: Vec<Vec<(usize, f64)>>,
    relations: Vec<Relation>,
    rhs: Vec<f64>,
    /// Slack/surplus column per row (`usize::MAX` for `Eq` rows).
    slack_col: Vec<usize>,
    /// Artificial column per row (always allocated; unused ones stay
    /// all-zero and blocked).
    art_col: Vec<usize>,
    cols: usize,
    first_artificial: usize,
}

impl Prepared {
    fn build(problem: &Problem) -> Prepared {
        let n = problem.num_vars();
        let m = problem.constraints.len();
        let mut terms = Vec::with_capacity(m);
        let mut relations = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        for c in &problem.constraints {
            terms.push(c.terms.clone());
            relations.push(c.relation);
            rhs.push(c.rhs);
        }
        let mut slack_col = vec![usize::MAX; m];
        let mut next = n;
        for i in 0..m {
            if !matches!(relations[i], Relation::Eq) {
                slack_col[i] = next;
                next += 1;
            }
        }
        let first_artificial = next;
        let art_col: Vec<usize> = (0..m).map(|i| first_artificial + i).collect();
        Prepared {
            num_vars: n,
            terms,
            relations,
            rhs,
            slack_col,
            art_col,
            cols: first_artificial + m,
            first_artificial,
        }
    }

    /// Whether these are `problem`'s rows, compared by content (bit for
    /// bit; `O(nnz)`): a shape can be shared by a neighbour or survive a
    /// `set_rhs`, and a workspace must never solve stale rows.
    fn matches(&self, problem: &Problem) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let is_row = |(i, c): (usize, &crate::problem::Constraint)| {
            let mine = self.terms[i].iter();
            c.relation == self.relations[i]
                && same(c.rhs, self.rhs[i])
                && c.terms.len() == mine.len()
                && c.terms
                    .iter()
                    .zip(mine)
                    .all(|(a, b)| a.0 == b.0 && same(a.1, b.1))
        };
        self.num_vars == problem.num_vars()
            && self.terms.len() == problem.constraints.len()
            && problem.constraints.iter().enumerate().all(is_row)
    }
}

thread_local! {
    /// The calling thread's scratch [`Workspace`] for [`solve_relaxation`]:
    /// buffers only, swept back to all-zero before the call returns.
    static SCRATCH: std::cell::RefCell<Workspace> = std::cell::RefCell::default();
}

/// Solve the LP relaxation of `problem` with additional bound overrides.
///
/// `overrides` tightens variable bounds (used by branch-and-bound); the
/// effective bounds are the intersection of the problem's own bounds and all
/// overrides for that variable.
///
/// The cold entry for callers without a [`Workspace`] of their own. It
/// solves on a scratch workspace the calling thread keeps and sweeps it on
/// the way out, `Ok` or `Err`, so a solve pays for the nonzeros it touches
/// and not for mapping, faulting in and unmapping a zeroed matrix. What the
/// thread keeps is one tableau of the largest `rows × stride` it has solved
/// (touched pages only), and never an answer: the result is that of
/// [`solve_with`] on a fresh workspace. A nested call on one thread gets a
/// fresh workspace.
pub fn solve_relaxation(
    problem: &Problem,
    overrides: &[BoundOverride],
) -> Result<Solution, SolveError> {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut ws) => {
            let out = solve_with(problem, overrides, &mut ws);
            ws.tab.sweep();
            out
        }
        Err(_) => solve_with(problem, overrides, &mut Workspace::new()),
    })
}

/// Solve the LP relaxation reusing the buffers of `ws`.
///
/// Identical results to [`solve_relaxation`] on a fresh workspace: buffer
/// reuse changes no arithmetic, and every solve starts from the slack
/// basis.
pub fn solve_with(
    problem: &Problem,
    overrides: &[BoundOverride],
    ws: &mut Workspace,
) -> Result<Solution, SolveError> {
    let n = problem.num_vars();
    ws.live = None; // `build` below overwrites the tableau

    // Effective bounds per variable.
    let mut lo = vec![0.0f64; n];
    let mut hi: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();
    for &(j, l, h) in overrides {
        lo[j] = lo[j].max(l);
        hi[j] = hi[j].min(h);
    }
    for j in 0..n {
        if lo[j] > hi[j] + EPS {
            return Err(SolveError::Infeasible);
        }
        // Guard against a tiny negative width from rounding.
        if hi[j] < lo[j] {
            hi[j] = lo[j];
        }
    }

    // (Re)prepare the sparse rows if this workspace saw a different
    // problem.
    if !ws.prepared.as_ref().is_some_and(|p| p.matches(problem)) {
        ws.prepared = Some(Prepared::build(problem));
    }
    let prepared = ws.prepared.as_ref().expect("prepared above");

    // Shift x = lo + y. Constraint rhs absorbs the shift.
    ws.tab.build(prepared, &lo, &hi);
    ws.tab.stats = fresh_stats(&ws.tab, false);
    let solve_span = open_span(&ws.tab);
    ws.tab.phase1()?;
    ws.tab.phase2(problem)?;
    let values = ws.tab.values(&lo, &hi);
    Ok(finish(problem, &ws.tab, values, solve_span))
}

/// Book a warm solve that is about to be redone cold.
fn note_fallback(traced: bool, reason: &'static str) {
    phase_metrics().warm_fallbacks.inc();
    if traced {
        // The event's ctx stamp carries the triggering trace id.
        bate_obs::warn!("lp.warm_fallback", reason = reason);
    }
}

/// Zeroed counters for a solve that starts on `tab`.
fn fresh_stats(tab: &Tableau, warm_start: bool) -> SolveStats {
    SolveStats {
        rows: tab.rows as u32,
        cols: tab.cols as u32,
        warm_start,
        ..SolveStats::default()
    }
}

/// Open the `lp.solve` span for a solve about to run on `tab`. Only
/// solves inside an active trace get one: the parallel hardening sweep
/// calls in here from `par_map` workers with no context, and emitting from
/// those threads would interleave nondeterministically (see the
/// determinism contract in `bate_obs`).
fn open_span(tab: &Tableau) -> Option<bate_obs::trace::SpanGuard> {
    bate_obs::context::current().is_some().then(|| {
        bate_obs::span!(
            "lp.solve",
            rows = tab.rows as u64,
            cols = tab.cols as u64,
            warm_start = tab.stats.warm_start,
        )
    })
}

/// Book a completed solve — one phase-attribution observation, the span's
/// closing fields — and package the answer.
fn finish(
    problem: &Problem,
    tab: &Tableau,
    values: Vec<f64>,
    mut span: Option<bate_obs::trace::SpanGuard>,
) -> Solution {
    let s = &tab.stats;
    let pm = phase_metrics();
    pm.phase1.observe(s.phase1_secs * 1e9);
    pm.phase2.observe(s.phase2_secs * 1e9);
    pm.pricing.observe(s.pricing_secs * 1e9);
    pm.pivot.observe(s.pivot_secs * 1e9);
    if s.dual_repair_secs > 0.0 {
        pm.dual_repair.observe(s.dual_repair_secs * 1e9);
    }
    if let Some(sp) = span.as_mut() {
        sp.record("iterations", s.iterations());
        sp.record("pivots", s.pivots);
        sp.record("dual_pivots", s.dual_pivots);
    }
    drop(span);
    Solution {
        objective: problem.objective_value(&values),
        values,
        duals: Some(tab.duals(problem.sense)),
        stats: s.clone(),
    }
}

/// Largest relative row residual of `values` over the problem's own
/// constraints (0.0 when every row holds). Bound-override feasibility is
/// the caller's concern — extracted values are already clamped into the
/// effective box.
fn primal_violation(problem: &Problem, values: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for c in &problem.constraints {
        let lhs: f64 = c.terms.iter().map(|&(j, coef)| coef * values[j]).sum();
        let scale = 1.0 + c.rhs.abs();
        let v = match c.relation {
            Relation::Le => (lhs - c.rhs) / scale,
            Relation::Ge => (c.rhs - lhs) / scale,
            Relation::Eq => (lhs - c.rhs).abs() / scale,
        };
        worst = worst.max(v);
    }
    worst
}

/// Bounded-variable simplex tableau with sparse pivot application.
///
/// The matrix part holds `B^{-1} A`; the last column holds the *current
/// values of the basic variables* (with nonbasic-at-upper contributions
/// folded in), which is what the ratio test needs directly. Storage is
/// dense row-major, but pivots only touch the nonzero columns of the pivot
/// row (gathered once per pivot into `scratch`).
#[derive(Debug, Default)]
struct Tableau {
    /// Row-major, `rows x stride` with `stride >= cols`; cells past `cols`
    /// are zero, so an appended column (see [`live`]) is already in place.
    /// The buffer keeps the largest length it has had; a solve uses the
    /// `rows x stride` prefix and everything past it stays zero.
    a: Vec<f64>,
    stride: usize,
    /// A solve has written to `a` since the last [`Tableau::sweep`].
    dirty: bool,
    /// Leave half again of head-room in `stride` at the next `build`: set
    /// for tableaus that will be kept live and grown. A matrix that has
    /// to be allocated is taken as zero pages, so the head-room costs
    /// address space only. (The incremental scheduler rebuilds its master
    /// before retired columns pass 30 % of it, that is before it has
    /// grown by 43 %.)
    roomy: bool,
    /// Current value of each row's basic variable.
    xb: Vec<f64>,
    rows: usize,
    cols: usize,
    /// What each column stands for. `build` lays columns out as
    /// `[structural | slack | artificial]`; live appends go on the end, so
    /// nothing may infer a column's role from its position.
    kind: Vec<Col>,
    /// Basis variable of each row.
    basis: Vec<usize>,
    /// `is_basic[c]` ⇔ some row has `basis[r] == c`. Maintained across
    /// pivots (the dense kernel rebuilt this every iteration).
    is_basic: Vec<bool>,
    /// Reduced-cost row, length `cols` (no rhs cell — the objective value
    /// is tracked separately in `objval`).
    obj: Vec<f64>,
    /// Current objective value of the internal minimization.
    objval: f64,
    /// Upper bound (width after shifting) per column; `INFINITY` when
    /// unbounded above.
    ub: Vec<f64>,
    /// For nonbasic columns: is the variable sitting at its upper bound?
    at_upper: Vec<bool>,
    /// Columns that may enter the basis (artificials are blocked in
    /// phase 2; zero-width columns are always blocked).
    allowed: Vec<bool>,
    /// Number of structural (shifted user) variables.
    n_struct: usize,
    /// Per original constraint: the marker column (slack/surplus/
    /// artificial) and the sign mapping its reduced cost to the row's dual
    /// value, used by [`Tableau::duals`].
    row_meta: Vec<(usize, f64)>,
    /// Per original constraint: its artificial column.
    row_art: Vec<usize>,
    /// Phase-2 reduced costs carried through a phase 1 that starts from a
    /// live tableau (empty otherwise): every pivot eliminates this row
    /// too, so phase 2 resumes without pricing out from scratch.
    parked: Vec<f64>,
    /// Pivot scratch: nonzero column indices of the current pivot row,
    /// with the (scaled) values gathered into `scratch_val` so the
    /// elimination inner loop reads them contiguously.
    scratch: Vec<usize>,
    scratch_val: Vec<f64>,
    /// Per-column row *files*: `col_rows[c]` is a superset of the rows
    /// where column `c` is nonzero (entries may be stale-zero or
    /// duplicated; they are sorted + deduped lazily when the column is
    /// priced in). The tableau is row-major, so reading one column
    /// strides across the whole matrix — one TLB/cache miss per row —
    /// and on block-sparse scheduling LPs only a handful of rows per
    /// column are actually nonzero. The lists confine the per-iteration
    /// entering-column gather, ratio test, and elimination to those rows.
    /// Maintained incrementally: a pivot creates nonzeros only at
    /// (eliminated row, pivot-row-nonzero column) pairs, which
    /// [`Tableau::note_fill_in`] records.
    col_rows: Vec<Vec<u32>>,
    /// Columns whose row list outgrew `rows / 2`: not worth tracking,
    /// fall back to a full column scan for these.
    col_dense: Vec<bool>,
    /// Whether row files are maintained at all. Small tableaus skip them
    /// (every column dense-flagged): the full column scan is cheap at
    /// that size and the bookkeeping would only add overhead — the same
    /// reasoning as the `partial` pricing gate.
    track_cols: bool,
    /// The current entering column, gathered sparsely: ascending rows
    /// with their (nonzero) coefficients in parallel. The ratio test,
    /// folded-rhs update, and elimination factors all read this.
    ecol_rows: Vec<u32>,
    ecol_vals: Vec<f64>,
    /// Partial-pricing candidate columns and their last full-scan
    /// violations (parallel vectors).
    candidates: Vec<usize>,
    cand_v: Vec<f64>,
    /// Pivots remaining before the next forced full pricing scan.
    refresh_in: usize,
    /// Candidate-list capacity.
    price_cap: usize,
    /// Whether partial pricing is active. Small tableaus full-scan every
    /// iteration instead: the scan is cheap at that size, and it keeps the
    /// entering rule identical to classic Dantzig pricing, so small LPs
    /// land on the same optimal vertex the original dense kernel chose
    /// (degenerate optima are common in the scheduling LPs, and callers
    /// observe which vertex they get through the extracted allocation).
    partial: bool,
    /// Kernel counters for the solve in progress (reset per solve,
    /// attached to the returned [`Solution`]).
    stats: SolveStats,
}

/// What a tableau column stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// The user variable with this index.
    Var(usize),
    /// Slack or surplus of a row.
    Slack,
    /// Artificial of a row.
    Artificial,
}

/// Hint the CPU to start loading the cache line holding `p`. The
/// entering-column gather reads the row-major tableau at a
/// `stride * 8`-byte stride — beyond the page-bounded reach of
/// hardware stride prefetchers — so without an explicit hint each row
/// read serialises on a full memory-latency miss. Prefetching a fixed
/// distance ahead overlaps those misses. `wrapping_add` keeps the
/// address computation defined even past the end of the buffer; a
/// prefetch of an unmapped address is architecturally a no-op.
#[inline(always)]
fn prefetch_read(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions never fault; any address is allowed.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm pldl1keep` never faults; any address is allowed.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// How many rows ahead the column gather prefetches. Large enough to
/// cover DRAM latency at one tableau row per loop step, small enough
/// not to thrash L1.
const GATHER_PREFETCH_DIST: usize = 8;

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.stride + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.stride + c] = v;
    }

    #[inline]
    fn is_artificial(&self, c: usize) -> bool {
        self.kind[c] == Col::Artificial
    }

    /// Fill the tableau from `prepared` with variables shifted by `lo`;
    /// `hi` are the (pre-shift) upper bounds. Reuses every buffer.
    fn build(&mut self, prepared: &Prepared, lo: &[f64], hi: &[f64]) {
        let n = lo.len();
        let m = prepared.relations.len();
        let cols = prepared.cols;

        // The matrix is all-zero at rest and a solve uses a prefix of it,
        // so only a buffer that is too small is replaced — by fresh zero
        // pages: cells that are never written are never faulted in.
        self.sweep();
        self.dirty = true;
        self.stride = if self.roomy { cols + cols / 2 } else { cols };
        if self.a.len() < m * self.stride {
            self.a = vec![0.0; m * self.stride];
        }
        self.xb.clear();
        self.xb.resize(m, 0.0);

        self.rows = m;
        self.cols = cols;
        self.n_struct = n;
        self.objval = 0.0;
        self.kind.clear();
        self.kind.extend((0..n).map(Col::Var));
        self.kind.resize(prepared.first_artificial, Col::Slack);
        self.kind.resize(cols, Col::Artificial);
        self.row_art.clone_from(&prepared.art_col);
        self.parked.clear();
        self.track_cols = cols > COL_FILE_MIN_COLS;

        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.is_basic.clear();
        self.is_basic.resize(cols, false);
        self.obj.clear();
        self.obj.resize(cols, 0.0);
        self.ub.clear();
        self.ub.resize(cols, f64::INFINITY);
        self.at_upper.clear();
        self.at_upper.resize(cols, false);
        self.allowed.clear();
        self.allowed.resize(cols, true);
        self.row_meta.clear();
        if self.col_rows.len() < cols {
            self.col_rows.resize_with(cols, Vec::new);
        }
        self.col_dense.clear();
        self.col_dense.resize(cols, !self.track_cols);
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        self.candidates.clear();
        self.cand_v.clear();
        self.refresh_in = 0;
        self.price_cap = (cols / 8).clamp(16, 256);
        self.partial = cols > PARTIAL_PRICING_MIN_COLS;

        for j in 0..n {
            self.ub[j] = hi[j] - lo[j];
            if self.ub[j] < EPS {
                self.allowed[j] = false; // fixed variable, can never move
            }
        }

        // The rows, and with them the phase-1 reduced-cost row (cost 1 on
        // every artificial, minus each row whose artificial is basic) and
        // objective: rows ascending, so every `obj` cell sees the
        // subtractions `phase1_costs` would make, in its order.
        let track = self.track_cols;
        for i in 0..m {
            // Shifted rhs; a negative one flips the whole row so phase 1
            // starts from rhs >= 0 (flipped rows report sign-flipped duals).
            let shift: f64 = prepared.terms[i]
                .iter()
                .map(|&(j, coef)| coef * lo[j])
                .sum();
            let rhs = prepared.rhs[i] - shift;
            let (sign, flip) = if rhs < 0.0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            let relation = match prepared.relations[i] {
                Relation::Le if sign < 0.0 => Relation::Ge,
                Relation::Ge if sign < 0.0 => Relation::Le,
                relation => relation,
            };
            for &(j, coef) in &prepared.terms[i] {
                self.set(i, j, sign * coef);
                if track {
                    self.col_rows[j].push(i as u32);
                }
                if relation != Relation::Le && coef != 0.0 {
                    self.obj[j] -= sign * coef;
                }
            }
            self.xb[i] = sign * rhs;
            let slack = prepared.slack_col[i];
            let art = prepared.art_col[i];
            match relation {
                Relation::Le => {
                    self.set(i, slack, 1.0);
                    if track {
                        self.col_rows[slack].push(i as u32);
                    }
                    self.basis[i] = slack;
                    // d_slack = -y_i  →  y_i = -d_slack.
                    self.row_meta.push((slack, -flip));
                    // This row's artificial column stays all-zero.
                    self.allowed[art] = false;
                    self.obj[art] = 1.0;
                }
                Relation::Ge => {
                    self.set(i, slack, -1.0);
                    if track {
                        self.col_rows[slack].push(i as u32);
                    }
                    self.obj[slack] = 1.0;
                    // d_surplus = +y_i.
                    self.row_meta.push((slack, flip));
                    self.set(i, art, 1.0);
                    if track {
                        self.col_rows[art].push(i as u32);
                    }
                    self.basis[i] = art;
                }
                Relation::Eq => {
                    self.set(i, art, 1.0);
                    if track {
                        self.col_rows[art].push(i as u32);
                    }
                    self.basis[i] = art;
                    // d_artificial = c_art - y_i = -y_i in phase 2.
                    self.row_meta.push((art, -flip));
                }
            }
            if relation != Relation::Le {
                self.objval += self.xb[i];
            }
            self.is_basic[self.basis[i]] = true;
        }
    }

    /// Put the matrix back to all-zero, the state every `Workspace` rests
    /// in: the cells the row files name, every row of a dense-flagged
    /// column, or the whole `rows × stride` prefix of a tableau too small
    /// to track files. The one routine that zeroes tableau cells in bulk.
    fn sweep(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let (rows, stride) = (self.rows, self.stride);
        if !self.track_cols {
            self.a[..rows * stride].fill(0.0);
        } else {
            for c in 0..self.cols {
                if self.col_dense[c] {
                    for r in 0..rows {
                        self.a[r * stride + c] = 0.0;
                    }
                }
                // Drained, not dropped: the files keep their allocations.
                for r in self.col_rows[c].drain(..) {
                    self.a[r as usize * stride + c] = 0.0;
                }
            }
        }
        // The prefix this solve used (the rest was clean before it), and a
        // fixed-size sample of the rest: a check that costs what the solve
        // did, not what the largest tableau ever seen would.
        let (used, rest) = self.a.split_at(rows * stride);
        let mut checked = used.iter().chain(rest.iter().step_by(rest.len() / 64 + 1));
        debug_assert!(checked.all(|v| v.to_bits() == 0), "sweep left a cell");
    }

    /// Phase 1: minimize the sum of artificial variables, from the
    /// reduced-cost row in `obj` (`build` wrote it; a live tableau's
    /// `resume` has `phase1_costs` scan for it).
    fn phase1(&mut self) -> Result<(), SolveError> {
        if !self.basis.iter().any(|&b| self.is_artificial(b)) {
            return Ok(()); // slack basis is already feasible
        }

        self.reset_pricing();
        let t0 = std::time::Instant::now();
        let run = self.iterate();
        self.stats.phase1_secs += t0.elapsed().as_secs_f64();
        self.stats.phase1_iterations += run?;

        if self.objval > PHASE1_TOL {
            return Err(SolveError::Infeasible);
        }

        // Drive any artificial still in the basis out (it sits at zero, so
        // this is a degenerate pivot).
        for r in 0..self.rows {
            if self.is_artificial(self.basis[r]) {
                let col = (0..self.cols)
                    .find(|&c| !self.is_artificial(c) && self.at(r, c).abs() > 1e-8);
                if let Some(c) = col {
                    self.degenerate_swap(r, c);
                }
                // No pivot column: the row is redundant; the artificial
                // stays basic at zero and its column is blocked in phase 2.
            }
        }
        Ok(())
    }

    /// The phase-1 reduced-cost row and objective by a scan of the matrix
    /// as it stands: what a live tableau, which `build` did not lay out,
    /// needs (cost 1 on every artificial; basics must have zero reduced
    /// cost, so subtract each artificial-basic row).
    fn phase1_costs(&mut self) {
        for c in 0..self.cols {
            self.obj[c] = if self.is_artificial(c) { 1.0 } else { 0.0 };
        }
        self.objval = 0.0;
        for i in 0..self.rows {
            if self.is_artificial(self.basis[i]) {
                for c in 0..self.cols {
                    let v = self.at(i, c);
                    if v != 0.0 {
                        self.obj[c] -= v;
                    }
                }
                self.objval += self.xb[i];
            }
        }
    }

    /// Phase 2: optimize the real (internally minimized) objective from a
    /// basis whose reduced costs are not known yet.
    fn phase2(&mut self, problem: &Problem) -> Result<(), SolveError> {
        self.price_out(problem);
        self.optimize(false)
    }

    /// Cost of column `c` in the internal minimization.
    #[inline]
    fn cost(&self, problem: &Problem, c: usize) -> f64 {
        match (self.kind[c], problem.sense) {
            (Col::Var(v), Sense::Minimize) => problem.objective[v],
            (Col::Var(v), Sense::Maximize) => -problem.objective[v],
            _ => 0.0,
        }
    }

    /// Rebuild the reduced costs `d_j = c_j - c_B' (B^{-1} A_j)` and the
    /// objective value from the tableau, and block the artificials.
    fn price_out(&mut self, problem: &Problem) {
        for c in 0..self.cols {
            if self.is_artificial(c) {
                self.allowed[c] = false;
            }
            self.obj[c] = self.cost(problem, c);
        }
        for i in 0..self.rows {
            let cb = self.cost(problem, self.basis[i]);
            if cb != 0.0 {
                for c in 0..self.cols {
                    let v = self.at(i, c);
                    if v != 0.0 {
                        self.obj[c] -= cb * v;
                    }
                }
            }
        }
        self.objval = self.basis_objective(problem);
    }

    /// Objective value of the current point:
    /// `c_B' x_B + Σ_{nonbasic at upper} c_j w_j`.
    fn basis_objective(&self, problem: &Problem) -> f64 {
        let mut val = 0.0;
        for i in 0..self.rows {
            if let Col::Var(_) = self.kind[self.basis[i]] {
                val += self.cost(problem, self.basis[i]) * self.xb[i];
            }
        }
        for j in 0..self.cols {
            if let Col::Var(_) = self.kind[j] {
                if !self.is_basic[j] && self.at_upper[j] {
                    val += self.cost(problem, j) * self.ub[j];
                }
            }
        }
        val
    }

    /// The pivot loops of phase 2, from valid reduced costs. With
    /// `dual_repair` set (basics sit outside their box after a bound or
    /// rhs edit), a dual-simplex pass restores primal feasibility first —
    /// its ratio test reads the reduced costs — and the primal loop then
    /// polishes to optimality.
    fn optimize(&mut self, dual_repair: bool) -> Result<(), SolveError> {
        if dual_repair {
            let t0 = std::time::Instant::now();
            let run = self.dual_iterate();
            let secs = t0.elapsed().as_secs_f64();
            self.stats.phase1_secs += secs;
            self.stats.dual_repair_secs += secs;
            self.stats.phase1_iterations += run?;
        }

        self.reset_pricing();
        let t0 = std::time::Instant::now();
        let run = self.iterate();
        self.stats.phase2_secs += t0.elapsed().as_secs_f64();
        self.stats.phase2_iterations += run?;
        Ok(())
    }

    /// Dual-simplex repair loop: while some basic variable sits outside
    /// its box (below zero or above its upper bound), pivot it out to the
    /// violated bound and bring in the nonbasic column with the smallest
    /// dual ratio `|d_c / α_rc|` among those that move in a
    /// feasibility-restoring direction — the classic dual ratio test,
    /// which keeps the reduced costs (near-)optimal so the primal polish
    /// afterwards converges in a handful of pivots.
    ///
    /// The folded-rhs invariant (`xb(r)` = current value of row `r`'s
    /// basic) makes the pivot mechanics identical to the primal loop's:
    /// the entering variable moves by `step = (v - target) / α_re` from
    /// its rest, every other gathered row's value shifts by `-α · step`,
    /// and the leaving variable lands exactly on the violated bound (its
    /// at-upper rest is recorded before the pivot). The entering step is
    /// always kept inside the entering column's own box: a candidate whose
    /// box is too narrow to absorb the full repair is **bound-flipped**
    /// across it instead (shrinking the violation by `|α|·width`) and the
    /// scan repeats — the bounded-variable dual ratio test. An unclamped
    /// overshoot would leave the entering basic far outside its box, and
    /// chasing that new worst violation diverges (observed on
    /// branch-and-bound chains before flips were introduced).
    ///
    /// Candidates also need `|α| > 1e-7` — a repair pivot on a tiny
    /// element scales the tableau by `1/α` and wrecks it numerically;
    /// abandoning the repair instead is safe because the caller retries
    /// the whole solve cold on any dual-repair error.
    ///
    /// Tie-breaks (most-infeasible row, first column at the minimum
    /// ratio) are index-ordered, keeping pivot sequences deterministic.
    fn dual_iterate(&mut self) -> Result<u64, SolveError> {
        /// Minimum pivot-element magnitude; below this the repair is
        /// abandoned rather than risk a `1/α` blow-up.
        const DUAL_PIVOT_TOL: f64 = 1e-7;
        let max_iters = 50 * self.rows + 1_000;
        let stride = self.stride;
        let mut iters = 0u64;
        'outer: loop {
            if iters as usize >= max_iters {
                return Err(SolveError::IterationLimit);
            }
            // Leaving row: the most infeasible basic; strict comparisons
            // keep ties on the smallest row index.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, target, to_upper)
            let mut worst = PHASE1_TOL;
            for r in 0..self.rows {
                let v = self.xb[r];
                let b = self.basis[r];
                if v < -worst {
                    worst = -v;
                    leave = Some((r, 0.0, false));
                } else if self.ub[b].is_finite() && v - self.ub[b] > worst {
                    worst = v - self.ub[b];
                    leave = Some((r, self.ub[b], true));
                }
            }
            let Some((r, target, to_upper)) = leave else {
                return Ok(iters); // every basic back inside its box
            };
            let base = r * stride;
            // Inner loop: flip too-narrow candidates until one can absorb
            // the remaining violation, then pivot it in. Each flip strictly
            // shrinks `diff` and reverses the flipped column's admissible
            // direction, so the scan cannot revisit it for this row.
            loop {
                if iters as usize >= max_iters {
                    return Err(SolveError::IterationLimit);
                }
                let diff = self.xb[r] - target;
                if diff.abs() <= PHASE1_TOL {
                    // Flips alone repaired the row.
                    continue 'outer;
                }
                // Entering column: admissible direction (the entering
                // variable can only rise from its lower rest / fall from
                // its upper rest, and must push the leaving basic toward
                // `target`), minimum dual ratio.
                let mut best: Option<(usize, f64)> = None; // (col, alpha)
                let mut best_ratio = f64::INFINITY;
                for c in 0..self.cols {
                    if self.is_basic[c] || !self.allowed[c] {
                        continue;
                    }
                    let alpha = self.a[base + c];
                    if alpha.abs() <= DUAL_PIVOT_TOL {
                        continue;
                    }
                    // step = diff / alpha; at-lower columns need step > 0,
                    // at-upper columns step < 0.
                    let admissible = if self.at_upper[c] {
                        diff * alpha < 0.0
                    } else {
                        diff * alpha > 0.0
                    };
                    if !admissible {
                        continue;
                    }
                    let ratio = (self.obj[c] / alpha).abs();
                    if ratio < best_ratio - EPS {
                        best_ratio = ratio;
                        best = Some((c, alpha));
                    }
                }
                let Some((e, alpha)) = best else {
                    // No column can restore this row: the box constraints
                    // are inconsistent with the row system (or only
                    // numerically-unsafe pivots remain — the caller's cold
                    // retry settles which).
                    return Err(SolveError::Infeasible);
                };

                let step = diff / alpha;
                let width = self.ub[e];
                if width.is_finite() && step.abs() > width + EPS {
                    // Too narrow: move `e` across its whole box. `diff`
                    // shrinks by `|α|·width` and keeps its sign (the full
                    // pivot would have needed more than the width).
                    let delta = if self.at_upper[e] { -width } else { width };
                    self.gather_entering(e);
                    for k in 0..self.ecol_rows.len() {
                        let i = self.ecol_rows[k] as usize;
                        let nv = self.xb[i] - self.ecol_vals[k] * delta;
                        self.xb[i] = nv;
                    }
                    self.objval += self.obj[e] * delta;
                    self.at_upper[e] = !self.at_upper[e];
                    self.stats.bound_flips += 1;
                    iters += 1;
                    continue;
                }

                self.gather_entering(e);
                let pk = self
                    .ecol_rows
                    .iter()
                    .position(|&g| g as usize == r)
                    .expect("pivot row missing from entering-column gather");
                let rest = if self.at_upper[e] { self.ub[e] } else { 0.0 };
                self.objval += self.obj[e] * step;
                let old_basic = self.basis[r];
                self.at_upper[old_basic] = to_upper;
                self.pivot_with_rhs_update(r, e, step, pk);
                self.at_upper[e] = false;
                self.is_basic[old_basic] = false;
                self.is_basic[e] = true;
                self.basis[r] = e;
                // In-box by the width test above; clamp the epsilon slack.
                let nv = (rest + step).clamp(0.0, if width.is_finite() { width } else { f64::MAX });
                self.xb[r] = if nv.abs() < EPS { 0.0 } else { nv };
                self.stats.pivots += 1;
                self.stats.dual_pivots += 1;
                iters += 1;
                continue 'outer;
            }
        }
    }

    /// Main pivot loop. Returns the number of iterations performed (the
    /// caller attributes them to its phase). Wraps [`Self::iterate_inner`]
    /// to fold the sampled pricing/pivot timings into the stats exactly
    /// once per call, whatever exit path the loop takes.
    fn iterate(&mut self) -> Result<u64, SolveError> {
        let mut pricing_ns = 0u64;
        let mut pivot_ns = 0u64;
        let out = self.iterate_inner(&mut pricing_ns, &mut pivot_ns);
        self.stats.pricing_secs += (pricing_ns * TIME_SAMPLE as u64) as f64 * 1e-9;
        self.stats.pivot_secs += (pivot_ns * TIME_SAMPLE as u64) as f64 * 1e-9;
        out
    }

    fn iterate_inner(
        &mut self,
        pricing_ns: &mut u64,
        pivot_ns: &mut u64,
    ) -> Result<u64, SolveError> {
        let max_iters = 400 * (self.rows + self.cols) + 20_000;
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        // Wall-clock guard: healthy solves of the model sizes BATE builds
        // finish in well under a second; a solve running for tens of
        // seconds is degenerate-cycling under Bland's slow-but-safe rule
        // and will not produce a better answer. The cap keeps online
        // components responsive (callers treat IterationLimit like
        // Infeasible: reject / fall back).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);

        for it in 0..max_iters {
            if it % 256 == 0 && std::time::Instant::now() > deadline {
                return Err(SolveError::IterationLimit);
            }
            // A phase 1 confined to the new violations of a live tableau
            // (the one that carries `parked`) is done the moment they are
            // gone. Its cost row is minus the few rows that measured them,
            // so from there on pricing would only find what cancellation
            // left in those rows, and pivot on it.
            if !self.parked.is_empty() && self.objval <= PHASE1_TOL {
                return Ok(it as u64);
            }
            // Phase-attribution sampling: every TIME_SAMPLE-th iteration is
            // timed (pricing vs pivot work) and the caller scales up.
            let t_iter = (it % TIME_SAMPLE == 0).then(std::time::Instant::now);
            let entering = self.choose_entering(bland);
            let t_pivot = t_iter.map(|t| {
                *pricing_ns += t.elapsed().as_nanos() as u64;
                std::time::Instant::now()
            });
            let Some(e) = entering else {
                return Ok(it as u64); // optimal (verified by a full pricing scan)
            };
            if bland {
                self.stats.bland_iterations += 1;
            }
            // Direction: +1 if entering rises from its lower bound, -1 if
            // it falls from its upper bound.
            let delta = if self.at_upper[e] { -1.0 } else { 1.0 };

            // Gather the entering column sparsely (ascending rows with
            // nonzero coefficients); the ratio test, rhs update, and
            // elimination below all iterate this instead of every row.
            self.gather_entering(e);

            // Ratio test: the entering step is limited by the entering
            // variable's own bound width (flip) and by every basic variable
            // hitting one of its bounds. Ties between rows break toward the
            // smallest basis index (Bland-compatible); a row beats a
            // same-sized bound flip. Rows absent from the gather have a
            // zero coefficient, i.e. never limit the step — visiting only
            // the gathered rows (in ascending order, like the full scan
            // this replaces) is exact.
            let mut t = self.ub[e]; // bound-flip limit (may be inf)
            let mut leave: Option<(usize, bool)> = None; // (gather index, leaves_at_upper)
            for k in 0..self.ecol_rows.len() {
                let i = self.ecol_rows[k] as usize;
                let alpha = self.ecol_vals[k];
                let rate = delta * alpha; // basic i changes at -rate per unit
                let candidate = if rate > EPS {
                    // Basic decreases toward 0.
                    Some((self.xb[i] / rate, false))
                } else if rate < -EPS && self.ub[self.basis[i]].is_finite() {
                    // Basic increases toward its own upper bound.
                    Some(((self.ub[self.basis[i]] - self.xb[i]) / (-rate), true))
                } else {
                    None
                };
                let Some((ti, at_up)) = candidate else { continue };
                let ti = ti.max(0.0);
                let take = match leave {
                    _ if ti < t - EPS => true,
                    None if ti <= t + EPS => true, // row beats a tied flip
                    Some((pk, _)) if ti <= t + EPS => {
                        self.basis[i] < self.basis[self.ecol_rows[pk] as usize]
                    }
                    _ => false,
                };
                if take {
                    t = t.min(ti);
                    leave = Some((k, at_up));
                }
            }

            if t.is_infinite() {
                return Err(SolveError::Unbounded);
            }

            // Objective improvement bookkeeping (d_e · Δx_e, Δx_e = δ·t).
            self.objval += self.obj[e] * delta * t;

            match leave {
                None => {
                    // Bound flip: entering moves across its whole range.
                    for k in 0..self.ecol_rows.len() {
                        let i = self.ecol_rows[k] as usize;
                        let nv = self.xb[i] - delta * self.ecol_vals[k] * t;
                        self.xb[i] = nv;
                    }
                    self.at_upper[e] = !self.at_upper[e];
                    self.stats.bound_flips += 1;
                }
                Some((pk, leaves_at_upper)) => {
                    let r = self.ecol_rows[pk] as usize;
                    let new_value = if self.at_upper[e] {
                        self.ub[e] - t
                    } else {
                        t
                    };
                    let old_basic = self.basis[r];
                    self.at_upper[old_basic] = leaves_at_upper;
                    self.pivot_with_rhs_update(r, e, delta * t, pk);
                    self.at_upper[e] = false;
                    self.is_basic[old_basic] = false;
                    self.is_basic[e] = true;
                    self.basis[r] = e;
                    self.xb[r] = new_value.max(0.0);
                    self.stats.pivots += 1;
                }
            }

            if let Some(t) = t_pivot {
                *pivot_ns += t.elapsed().as_nanos() as u64;
            }

            if self.objval < last_obj - 1e-12 {
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    bland = true;
                }
            }
            last_obj = self.objval;
        }
        Err(SolveError::IterationLimit)
    }

    /// Pricing violation of column `c`: how strongly its reduced cost
    /// invites it into the basis (0.0 = not eligible).
    #[inline]
    fn violation(&self, c: usize) -> f64 {
        if self.is_basic[c] || !self.allowed[c] {
            return 0.0;
        }
        let d = self.obj[c];
        if self.at_upper[c] {
            if d > EPS {
                d
            } else {
                0.0
            }
        } else if d < -EPS {
            -d
        } else {
            0.0
        }
    }

    /// Forget the candidate list (phase transitions change the cost row
    /// wholesale, invalidating cached attractiveness).
    fn reset_pricing(&mut self) {
        self.candidates.clear();
        self.cand_v.clear();
        self.refresh_in = 0;
    }

    /// Entering column: nonbasic at lower with `d < 0`, or nonbasic at
    /// upper with `d > 0`.
    ///
    /// Partial pricing: between full scans only the candidate list is
    /// priced (stale entries are dropped in place). A full scan — which is
    /// the only way `None` (optimality) is returned — refills the list with
    /// the `price_cap` most attractive columns. Bland mode always scans
    /// fully and takes the first eligible index.
    fn choose_entering(&mut self, bland: bool) -> Option<usize> {
        if bland {
            return (0..self.cols).find(|&c| self.violation(c) > 0.0);
        }
        if self.partial && self.refresh_in > 0 && !self.candidates.is_empty() {
            self.refresh_in -= 1;
            let mut best: Option<usize> = None;
            let mut best_v = 0.0;
            let mut w = 0usize;
            for k in 0..self.candidates.len() {
                let c = self.candidates[k];
                let v = self.violation(c);
                if v > 0.0 {
                    self.candidates[w] = c;
                    self.cand_v[w] = v;
                    w += 1;
                    if v > best_v {
                        best_v = v;
                        best = Some(c);
                    }
                }
            }
            self.candidates.truncate(w);
            self.cand_v.truncate(w);
            if best.is_some() {
                self.stats.candidate_hits += 1;
                return best;
            }
        }
        self.full_price()
    }

    /// Full Dantzig scan; rebuilds the candidate list as a side effect.
    fn full_price(&mut self) -> Option<usize> {
        self.stats.full_price_scans += 1;
        self.refresh_in = PRICE_REFRESH;
        self.candidates.clear();
        self.cand_v.clear();
        let cap = self.price_cap;
        let mut best: Option<usize> = None;
        let mut best_v = 0.0;
        for c in 0..self.cols {
            let v = self.violation(c);
            if v <= 0.0 {
                continue;
            }
            if v > best_v {
                best_v = v;
                best = Some(c);
            }
            if !self.partial {
                continue; // pure Dantzig: no candidate list to maintain
            }
            if self.candidates.len() < cap {
                self.candidates.push(c);
                self.cand_v.push(v);
            } else {
                // Replace the weakest cached candidate (first-min on ties,
                // so the outcome is index-deterministic).
                let mut mi = 0usize;
                for k in 1..cap {
                    if self.cand_v[k] < self.cand_v[mi] {
                        mi = k;
                    }
                }
                if v > self.cand_v[mi] {
                    self.candidates[mi] = c;
                    self.cand_v[mi] = v;
                }
            }
        }
        best
    }

    /// Gather the entering column `e` into `ecol_rows` / `ecol_vals`:
    /// ascending rows, nonzero coefficients only. Uses the column's row
    /// file when one is tracked (sorting + deduping it in place, and
    /// compacting out entries that have gone stale-zero — safe because
    /// any pivot that re-creates a nonzero re-records the row); falls
    /// back to a full strided scan for dense-flagged columns.
    fn gather_entering(&mut self, e: usize) {
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        let stride = self.stride;
        if !self.col_dense[e] {
            let mut list = std::mem::take(&mut self.col_rows[e]);
            list.sort_unstable();
            list.dedup();
            if list.len() <= self.rows / 2 {
                for idx in 0..list.len() {
                    if let Some(&r) = list.get(idx + GATHER_PREFETCH_DIST) {
                        prefetch_read(self.a.as_ptr().wrapping_add(r as usize * stride + e));
                    }
                    let r = list[idx];
                    let v = self.a[r as usize * stride + e];
                    if v != 0.0 {
                        self.ecol_rows.push(r);
                        self.ecol_vals.push(v);
                    }
                }
                list.clear();
                list.extend_from_slice(&self.ecol_rows);
                self.col_rows[e] = list;
                return;
            }
            // Outgrew the tracking threshold: a full scan is no slower
            // than walking the list, so stop maintaining it.
            self.col_dense[e] = true;
        }
        for r in 0..self.rows {
            prefetch_read(
                self.a
                    .as_ptr()
                    .wrapping_add((r + GATHER_PREFETCH_DIST) * stride + e),
            );
            let v = self.a[r * stride + e];
            if v != 0.0 {
                self.ecol_rows.push(r as u32);
                self.ecol_vals.push(v);
            }
        }
    }

    /// Record the fill-in of a pivot at (`row`, `col`) in the per-column
    /// row files. The elimination wrote to (eliminated row, pivot-row
    /// nonzero column) pairs — the eliminated rows are exactly the
    /// gathered `ecol_rows` minus the pivot row, and the pivot-row
    /// nonzeros are `scratch` — and collapsed the entering column to a
    /// unit vector. Raw lists that outgrow `rows` entries are deduped in
    /// place and dense-flagged if still oversized, bounding both memory
    /// and the sort cost at the next gather.
    fn note_fill_in(&mut self, row: usize, col: usize) {
        if !self.track_cols {
            return;
        }
        for idx in 0..self.scratch.len() {
            let c = self.scratch[idx];
            if c == col || self.col_dense[c] {
                continue;
            }
            for k in 0..self.ecol_rows.len() {
                let r = self.ecol_rows[k];
                if r as usize != row {
                    self.col_rows[c].push(r);
                }
            }
            if self.col_rows[c].len() > self.rows {
                let list = &mut self.col_rows[c];
                list.sort_unstable();
                list.dedup();
                if list.len() > self.rows / 2 {
                    self.col_dense[c] = true;
                    *list = Vec::new();
                }
            }
        }
        // Column `col` is now exactly the unit vector for `row`.
        self.col_dense[col] = false;
        self.col_rows[col].clear();
        self.col_rows[col].push(row as u32);
    }

    /// The main-loop pivot: Gauss-Jordan on the nonzero pivot-row columns,
    /// with the folded-rhs update (`xb -= α · step`) fused into the same
    /// row pass. Requires the entering column `col` to be gathered in
    /// `ecol_rows` / `ecol_vals` (with `pk` indexing the pivot row), which
    /// lets rows with a zero elimination factor be skipped without
    /// touching the matrix at all — on block-sparse scheduling LPs that is
    /// most of them. Arithmetic on touched cells is identical to
    /// `pivot_matrix` plus a caller-side rhs loop.
    fn pivot_with_rhs_update(&mut self, row: usize, col: usize, step: f64, pk: usize) {
        let stride = self.stride;
        let base = row * stride;
        let p = self.ecol_vals[pk];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / p;
        self.scratch.clear();
        self.scratch_val.clear();
        for c in 0..self.cols {
            let v = self.a[base + c];
            if v != 0.0 {
                let sv = if c == col { 1.0 } else { v * inv };
                self.a[base + c] = sv;
                self.scratch.push(c);
                self.scratch_val.push(sv);
            }
        }
        self.a[base + col] = 1.0;

        for k in 0..self.ecol_rows.len() {
            if k == pk {
                continue;
            }
            let r = self.ecol_rows[k] as usize;
            let f = self.ecol_vals[k];
            let rbase = r * stride;
            self.xb[r] -= f * step;
            for k2 in 0..self.scratch.len() {
                self.a[rbase + self.scratch[k2]] -= f * self.scratch_val[k2];
            }
            self.a[rbase + col] = 0.0;
        }
        self.eliminate_costs(col);
        self.note_fill_in(row, col);
    }

    /// Eliminate the entering column `col` from the reduced-cost row (and
    /// from the parked phase-2 row, when one is carried), given the scaled
    /// pivot row in `scratch` / `scratch_val`.
    fn eliminate_costs(&mut self, col: usize) {
        let rows = [&mut self.obj, &mut self.parked];
        for cost in rows {
            let f = cost.get(col).copied().unwrap_or(0.0);
            if f != 0.0 {
                for k in 0..self.scratch.len() {
                    cost[self.scratch[k]] -= f * self.scratch_val[k];
                }
                cost[col] = 0.0;
            }
        }
    }

    /// Gauss-Jordan pivot restricted to the nonzero columns of the pivot
    /// row; the basic values are the caller's to maintain. Reads the
    /// entering column with a strided scan — it only runs for the
    /// artificial drive-out, never in the main pivot loop.
    fn pivot_matrix(&mut self, row: usize, col: usize) {
        let stride = self.stride;
        let base = row * stride;
        let p = self.a[base + col];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / p;
        // Gather the pivot row's nonzero columns once; scaling and all row
        // eliminations below touch only these. Untouched columns would
        // only ever receive `x -= f * 0`, so skipping them is exact.
        self.scratch.clear();
        self.scratch_val.clear();
        for c in 0..self.cols {
            let v = self.a[base + c];
            if v != 0.0 {
                let sv = v * inv;
                self.a[base + c] = sv;
                self.scratch.push(c);
                self.scratch_val.push(sv);
            }
        }
        self.a[base + col] = 1.0;

        // Track which rows get eliminated so the per-column row files can
        // record the fill-in afterwards.
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let f = self.a[r * stride + col];
            if f != 0.0 {
                self.ecol_rows.push(r as u32);
                let rbase = r * stride;
                for k in 0..self.scratch.len() {
                    self.a[rbase + self.scratch[k]] -= f * self.scratch_val[k];
                }
                self.a[rbase + col] = 0.0;
            }
        }
        self.eliminate_costs(col);
        self.note_fill_in(row, col);
    }

    /// Swap a zero-valued basic (artificial) out for column `c` without
    /// changing any variable values.
    fn degenerate_swap(&mut self, row: usize, col: usize) {
        let entering_value = if self.at_upper[col] { self.ub[col] } else { 0.0 };
        // The leaving artificial sits at 0 and goes to its lower bound.
        let old = self.basis[row];
        self.at_upper[old] = false;
        self.pivot_matrix(row, col);
        self.at_upper[col] = false;
        self.is_basic[old] = false;
        self.is_basic[col] = true;
        self.basis[row] = col;
        self.xb[row] = entering_value;
        // Other basic values are unchanged (t = 0 step) — but the entering
        // column may have had a nonzero value at its upper bound, which was
        // already folded into every row's rhs, and remains correct because
        // the variable's value did not change.
    }

    /// Dual value (shadow price) of every original constraint, in the
    /// problem's own optimization sense: the marginal change of the
    /// optimal objective per unit of constraint rhs.
    fn duals(&self, sense: Sense) -> Vec<f64> {
        let sense_factor = match sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.row_meta
            .iter()
            .map(|&(col, sign)| sense_factor * sign * self.obj[col])
            .collect()
    }

    /// The user variables' values at the final tableau, shifted back by
    /// `lo` and with solver noise clamped into the `[lo, hi]` box.
    fn values(&self, lo: &[f64], hi: &[f64]) -> Vec<f64> {
        let mut values = self.extract();
        for (j, v) in values.iter_mut().enumerate() {
            *v = (lo[j] + *v).clamp(lo[j], hi[j]);
        }
        values
    }

    /// Read the structural-variable values out of the final tableau.
    fn extract(&self) -> Vec<f64> {
        let mut y = vec![0.0f64; self.n_struct];
        for c in 0..self.cols {
            if let Col::Var(v) = self.kind[c] {
                if !self.is_basic[c] && self.at_upper[c] {
                    y[v] = self.ub[c];
                }
            }
        }
        for i in 0..self.rows {
            if let Col::Var(v) = self.kind[self.basis[i]] {
                y[v] = self.xb[i].max(0.0);
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use crate::{Problem, Relation, Sense, SolveError};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn solve_emits_phase_span_only_inside_a_trace() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);

        let ring = bate_obs::trace::RingBufferSubscriber::new(64);
        bate_obs::trace::install(ring.clone(), bate_obs::SimClock::shared());
        // Untraced solve: no context on this thread, so the solver stays
        // silent (the par_map determinism contract).
        p.solve().unwrap();
        assert!(ring.events().is_empty());
        // Traced solve: one lp.solve close-event, parented on the root
        // span and carrying the attribution counters.
        {
            let root = bate_obs::context::root("test", 7);
            p.solve().unwrap();
            let events = ring.events();
            let solve: Vec<_> = events.iter().filter(|e| e.name == "lp.solve").collect();
            assert_eq!(solve.len(), 1);
            assert_eq!(solve[0].ctx.trace_id, root.ctx.trace_id);
            assert_eq!(solve[0].ctx.parent_span_id, root.ctx.span_id);
            let keys: Vec<&str> = solve[0].fields.iter().map(|(k, _)| *k).collect();
            for key in ["rows", "cols", "warm_start", "iterations", "pivots", "dur_ns"] {
                assert!(keys.contains(&key), "missing {key} in {keys:?}");
            }
        }
        bate_obs::trace::uninstall();
    }

    #[test]
    fn textbook_maximize() {
        // max 3x+2y, x+y<=4, x+3y<=6 -> x=4, y=0, obj=12.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let s = p.solve().unwrap();
        approx(s.objective, 12.0);
        approx(s[x], 4.0);
        approx(s[y], 0.0);
    }

    #[test]
    fn minimize_with_ge_rows_needs_phase1() {
        // min 2x+3y, x+y>=10, x>=2, y>=3 -> x=7,y=3 obj=23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(&[(y, 1.0)], Relation::Ge, 3.0);
        let s = p.solve().unwrap();
        approx(s.objective, 23.0);
        approx(s[x], 7.0);
        approx(s[y], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x+y, x+2y=4, x-y=1 -> x=2, y=1, obj=3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        approx(s[x], 2.0);
        approx(s[y], 1.0);
        approx(s.objective, 3.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 2.5);
        p.set_objective(x, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 2.5);
    }

    #[test]
    fn bounded_vars_without_any_rows() {
        // Pure box problem: max x + 2y with x<=3, y<=4 and no constraints.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 3.0);
        let y = p.add_bounded_var("y", 4.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 11.0);
        approx(s[x], 3.0);
        approx(s[y], 4.0);
    }

    #[test]
    fn bound_flip_interacts_with_rows() {
        // max x + y, x <= 1 (bound), y <= 1 (bound), x + y <= 1.5.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 1.0);
        let y = p.add_bounded_var("y", 1.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let s = p.solve().unwrap();
        approx(s.objective, 1.5);
    }

    #[test]
    fn basic_variable_hits_its_upper_bound() {
        // min -x  s.t.  x - y <= 0, y <= 2 (bound), x <= 5 (bound).
        // Optimal: y = 2, x = 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var("x", 5.0);
        let y = p.add_bounded_var("y", 2.0);
        p.set_objective(x, -1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 0.0);
        let s = p.solve().unwrap();
        approx(s[x], 2.0);
        approx(s.objective, -2.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -1 with min x+y means y >= x+1; optimum x=0, y=1.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 1.0);
        approx(s[y], 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (Beale-like); require termination and the
        // correct optimum.
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var("x1");
        let x2 = p.add_var("x2");
        let x3 = p.add_var("x3");
        let x4 = p.add_var("x4");
        p.set_objective(x1, -0.75);
        p.set_objective(x2, 150.0);
        p.set_objective(x3, -0.02);
        p.set_objective(x4, 6.0);
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 6.0);
        let s = p.solve().unwrap();
        approx(s.objective, 3.0);
        approx(s[x], 3.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve().unwrap();
        approx(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn fixed_variable_via_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 0.0); // fixed to 0
        let y = p.add_bounded_var("y", 1.0);
        p.set_objective(x, 100.0);
        p.set_objective(y, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 1.0);
        approx(s[x], 0.0);
    }

    #[test]
    fn bounded_vars_in_ge_rows() {
        // min u (bounded [0,1]) s.t. u >= 0.6 — phase 1 must place a
        // bounded variable correctly.
        let mut p = Problem::new(Sense::Minimize);
        let u = p.add_bounded_var("u", 1.0);
        p.set_objective(u, 1.0);
        p.add_constraint(&[(u, 1.0)], Relation::Ge, 0.6);
        let s = p.solve().unwrap();
        approx(s[u], 0.6);
    }

    #[test]
    fn infeasible_due_to_upper_bounds() {
        // x <= 1 (bound) but x >= 2 (row): phase 1 must fail.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var("x", 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn many_bounded_availability_vars() {
        // A miniature of BATE's scheduling structure: f variables plus
        // bounded B variables tied by B <= f/b rows and an availability
        // row Σ p B >= β.
        let mut p = Problem::new(Sense::Minimize);
        let f1 = p.add_var("f1");
        let f2 = p.add_var("f2");
        p.set_objective(f1, 1.0);
        p.set_objective(f2, 1.0);
        let b = 10.0;
        p.add_constraint(&[(f1, 1.0), (f2, 1.0)], Relation::Ge, b);
        let states = [(0.9f64, true, true), (0.06, false, true), (0.03, true, false)];
        let mut avail = Vec::new();
        for (i, &(prob, v1, v2)) in states.iter().enumerate() {
            let bv = p.add_bounded_var(&format!("B{i}"), 1.0);
            let mut terms = vec![(bv, b)];
            if v1 {
                terms.push((f1, -1.0));
            }
            if v2 {
                terms.push((f2, -1.0));
            }
            p.add_constraint(&terms, Relation::Le, 0.0);
            avail.push((bv, prob));
        }
        p.add_constraint(&avail, Relation::Ge, 0.95);
        let s = p.solve().unwrap();
        // Needs full delivery in state 0 plus one of the partial states.
        assert!(s.objective >= b - 1e-6);
        assert!(p.is_feasible(&s.values, 1e-6));
    }
}

#[cfg(test)]
mod workspace_tests {
    use super::{solve_relaxation, solve_with, Workspace};
    use crate::{Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// A small scheduling-shaped LP with `>=` rows (so a solve needs
    /// phase 1).
    fn demo_problem() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_bounded_var("z", 2.0);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.set_objective(z, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
        p
    }

    /// What a workspace solved before does not reach the next answer:
    /// branch-and-bound-style tightenings through one workspace give the
    /// vertex and the pivot counts of a fresh solve, bit for bit.
    #[test]
    fn reused_workspace_matches_fresh_bit_for_bit() {
        let p = demo_problem();
        let mut ws = Workspace::new();
        let tighten: &[&[super::BoundOverride]] = &[
            &[],
            &[],
            &[(0, 0.0, 3.0)],
            &[(1, 2.0, f64::INFINITY)],
            &[(0, 1.0, 6.0), (2, 0.0, 1.0)],
        ];
        for bounds in tighten {
            let reused = solve_with(&p, bounds, &mut ws).unwrap();
            let fresh = solve_relaxation(&p, bounds).unwrap();
            assert!(!reused.stats.warm_start);
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            for (a, b) in reused.values.iter().zip(&fresh.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "{bounds:?}");
            }
            assert_eq!(
                (reused.stats.iterations(), reused.stats.pivots),
                (fresh.stats.iterations(), fresh.stats.pivots),
                "{bounds:?}"
            );
        }
    }

    #[test]
    fn workspace_survives_infeasible_overrides() {
        let p = demo_problem();
        let mut ws = Workspace::new();
        solve_with(&p, &[], &mut ws).unwrap();
        // Force x to a range that contradicts row 2 (x - y <= 4 is fine;
        // make lower > upper instead for a straight bounds conflict).
        assert!(solve_with(&p, &[(0, 5.0, 2.0)], &mut ws).is_err());
        // Workspace remains usable afterwards.
        let again = solve_with(&p, &[], &mut ws).unwrap();
        let fresh = solve_relaxation(&p, &[]).unwrap();
        approx(again.objective, fresh.objective);
    }

    #[test]
    fn workspace_reused_across_different_problems_detects_mismatch() {
        let p1 = demo_problem();
        let mut ws = Workspace::new();
        let a = solve_with(&p1, &[], &mut ws).unwrap();
        approx(a.objective, solve_relaxation(&p1, &[]).unwrap().objective);

        // A different problem through the same workspace must re-prepare.
        let mut p2 = Problem::new(Sense::Maximize);
        let x = p2.add_var("x");
        let y = p2.add_var("y");
        p2.set_objective(x, 3.0);
        p2.set_objective(y, 2.0);
        p2.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p2.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let b = solve_with(&p2, &[], &mut ws).unwrap();
        approx(b.objective, 12.0);
    }

    /// `min x + y` over `x + c·y >= rhs`: same variables, rows and term
    /// count whatever `c` and `rhs` are.
    fn same_shape(c: f64, rhs: f64) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, c)], Relation::Ge, rhs);
        p
    }

    /// Two problems of one shape, and one problem before and after a
    /// `set_rhs`, back to back: each solve answers its own rows, through
    /// one `Workspace` and through the thread's scratch alike.
    #[test]
    fn same_shaped_problems_get_their_own_optimum() {
        let mut ws = Workspace::new();
        let mut reused = |p: &Problem| solve_with(p, &[], &mut ws).unwrap().objective;
        let mut scratch = |p: &Problem| solve_relaxation(p, &[]).unwrap().objective;
        let through: [&mut dyn FnMut(&Problem) -> f64; 2] = [&mut scratch, &mut reused];
        for solve in through {
            approx(solve(&same_shape(2.0, 8.0)), 4.0); // y = 4
            approx(solve(&same_shape(4.0, 8.0)), 2.0); // y = 2
            let mut p = same_shape(2.0, 8.0);
            approx(solve(&p), 4.0);
            p.set_rhs(0, 3.0);
            approx(solve(&p), 1.5);
            p.set_rhs(0, 8.0);
            approx(solve(&p), 4.0);
        }
    }

    /// `build` hands phase 1 the reduced-cost row and objective the scan
    /// of the matrix would compute, bit for bit: negative right-hand
    /// sides (flipped rows), `Eq` rows, a shifted variable, a coefficient
    /// that merged to zero.
    #[test]
    fn built_phase1_row_is_the_scanned_one() {
        let mut p = demo_problem();
        let (x, y, z) = (crate::VarId(0), crate::VarId(1), crate::VarId(2));
        p.add_constraint(&[(x, 0.3), (y, -0.7)], Relation::Le, -0.1);
        p.add_constraint(&[(x, 0.1), (z, 0.2), (x, -0.1)], Relation::Ge, -5.0);
        p.add_constraint(&[(y, 1.7), (z, -0.9)], Relation::Eq, -0.4);
        p.add_constraint(&[(x, 1.1), (y, 1.3), (z, 0.7)], Relation::Eq, 6.5);
        let lo = [0.0, 1.25, 0.0];
        let hi = [f64::INFINITY, f64::INFINITY, 2.0];
        let mut tab = super::Tableau::default();
        tab.build(&super::Prepared::build(&p), &lo, &hi);
        let (built, built_val) = (tab.obj.clone(), tab.objval);
        tab.phase1_costs();
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&built), bits(&tab.obj));
        assert_eq!(built_val.to_bits(), tab.objval.to_bits());
        assert!(built.iter().any(|&d| d < 0.0), "phase 1 has work to do");
    }

    /// The scratch is swept on the way out of a failed solve too: after
    /// `build` has written the rows and phase 1 has pivoted on them, an
    /// `Infeasible` leaves not one cell behind.
    #[test]
    fn failed_solve_leaves_the_scratch_clean() {
        let mut p = demo_problem();
        let (x, y) = (crate::VarId(0), crate::VarId(1));
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        assert!(solve_relaxation(&p, &[]).is_err());
        super::SCRATCH.with(|scratch| {
            let tab = &scratch.borrow().tab;
            assert!(!tab.dirty && tab.a.len() >= tab.rows * tab.stride && tab.rows == 4);
            assert!(tab.a.iter().all(|v| v.to_bits() == 0));
            assert!(tab.col_rows.iter().all(Vec::is_empty));
        });
    }

    /// A solve that starts while the thread's scratch is in use — none
    /// does today — gets a workspace of its own instead of a panic.
    #[test]
    fn nested_solve_falls_back_to_a_fresh_workspace() {
        let p = demo_problem();
        let outer = solve_relaxation(&p, &[]).unwrap();
        let nested = super::SCRATCH.with(|scratch| {
            let _held = scratch.borrow_mut();
            solve_relaxation(&p, &[]).unwrap()
        });
        assert_eq!(nested.objective.to_bits(), outer.objective.to_bits());
    }
}

#[cfg(test)]
mod dual_tests {
    use crate::{Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn duals_of_binding_le_rows() {
        // max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum x=4 (row 0 binds,
        // row 1 slack). Dual of row 0 = 3 (relaxing the cut admits more x),
        // dual of row 1 = 0.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        approx(duals[0], 3.0);
        approx(duals[1], 0.0);
    }

    #[test]
    fn duals_match_finite_difference() {
        // Generic check: perturb each rhs by ε and compare objective delta
        // against the reported dual.
        let base = |r0: f64, r1: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 2.0);
            p.set_objective(y, 3.0);
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, r0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, r1);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let d0 = (base(10.0 + eps, 2.0) - base(10.0, 2.0)) / eps;
        let d1 = (base(10.0, 2.0 + eps) - base(10.0, 2.0)) / eps;
        assert!((duals[0] - d0).abs() < 1e-3, "{} vs {}", duals[0], d0);
        assert!((duals[1] - d1).abs() < 1e-3, "{} vs {}", duals[1], d1);
    }

    #[test]
    fn equality_duals() {
        // min x + y, x + 2y = 4, x - y = 1: duals via finite differences.
        let base = |r0: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 1.0);
            p.set_objective(y, 1.0);
            p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, r0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let fd = (base(4.0 + eps) - base(4.0)) / eps;
        assert!((duals[0] - fd).abs() < 1e-3, "{} vs {fd}", duals[0]);
    }

    #[test]
    fn negative_rhs_rows_report_correct_dual_sign() {
        // min x + y with x - y <= -1 (row gets normalized internally).
        let base = |r: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 1.0);
            p.set_objective(y, 1.0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, r);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let fd = (base(-1.0 + eps) - base(-1.0)) / eps;
        assert!((duals[0] - fd).abs() < 1e-3, "{} vs {fd}", duals[0]);
    }
}
