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
//! ## What the kernel does
//!
//! The tableau is `B⁻¹A`, dense and row-major, with the current values of
//! the basic variables folded into a last column. A pivot costs the
//! nonzeros it touches, not `rows × cols`:
//!
//! * **Sparse pivots** — the nonzero columns of the pivot row are gathered
//!   into a reusable scratch buffer once per pivot, and row/objective
//!   eliminations touch only those columns. BATE's scheduling and
//!   admission LPs are very sparse (each `B ≤ f/b` row touches a handful
//!   of variables), so most pivots update a small fraction of the matrix.
//!   Untouched columns would only ever have received `x -= f · 0`, so
//!   skipping them is exact. Two indexes keep the *finding* of those
//!   nonzeros off the matrix as well, both supersets that are compacted
//!   when read: per-column *row files* confine the entering-column
//!   gather, the ratio test and the elimination to the rows where the
//!   column is nonzero, and per-row *occupancy bits* (one bit per cell,
//!   fill-in OR-ed in by the elimination that causes it) let the one row
//!   reader, `Tableau::gather_row`, visit a row's nonzeros in ascending
//!   column order — the order of a scan of the row, so the arithmetic is
//!   that of the scan — for the pivot row, `price_out` and every other
//!   row scan.
//! * **Candidate-list partial pricing** — a bounded candidate list of
//!   attractive columns is priced instead of every column, with a
//!   periodic (and on-exhaustion) full-scan refresh, which looks for the
//!   list's weakest slot again only after it has replaced it. Optimality
//!   is only ever declared by a full scan, and Bland's anti-cycling
//!   fallback always scans fully, so termination guarantees are those of
//!   Dantzig pricing. All tie-breaks are index-ordered, keeping pivot
//!   sequences deterministic.
//! * **One small-tableau rule** — at or below
//!   `SMALL_TABLEAU_MAX_COLS` columns a full scan beats every kind of
//!   bookkeeping, so a small tableau keeps no row files and no occupancy
//!   bits, and prices with a full Dantzig scan every iteration
//!   (`Tableau::small`).
//! * **No per-iteration allocation** — the basic-column marker is tableau
//!   state maintained across pivots; pricing and pivot scratch buffers
//!   live in the tableau and are reused.
//! * **Buffer reuse** — a [`Workspace`] keeps every tableau buffer across
//!   solves (branch-and-bound keeps one per worker; [`solve_relaxation`]
//!   keeps one per thread) and no rows: each solve reads them from its
//!   [`Problem`]. Its matrix and occupancy bits are all-zero whenever no
//!   solve is using it, restored by zeroing only the cells the row files
//!   name, so a cold solve costs its nonzeros and not a matrix of zero
//!   pages. It carries
//!   no basis: every [`solve_with`] is `build` → phase 1 → phase 2 from the
//!   slack basis. The one warm start is a [`crate::WarmState`], which
//!   keeps the final tableau itself and edits it in place between solves.
//!
//! ## Where things are
//!
//! This file holds the types ([`Workspace`], `Tableau`, `Col`), the
//! constants, the phase metrics and the entry points ([`solve_relaxation`],
//! [`solve_with`]). The steps of a solve are `impl Tableau` blocks in child
//! modules, which see the tableau's private fields:
//!
//! * `build` — `build` (problem → tableau) and `sweep` (back to all-zero).
//! * `phases` — phase 1 and its cost row, `price_out`, `optimize`, and
//!   reading values and duals off the final tableau.
//! * `primal` — the primal pivot loop: ratio test, stall detection, the
//!   one wall-clock guard; ROADMAP item 2 (Harris ratio test,
//!   deterministic budget) edits it.
//! * `dual` — the dual-simplex repair loop live tableaus use.
//! * `pricing` — entering-column choice: candidate list, full Dantzig
//!   scan, Bland.
//! * `pivot` — entering-column gather, the row reader, fused Gauss-Jordan
//!   pivot, fill-in bookkeeping of the row files and the occupancy bits.
//! * `live` — the warm start: edits applied to a tableau that stays
//!   live between solves, and `solve_live` behind [`crate::WarmState`].

use crate::error::SolveError;
use crate::problem::{Problem, Relation};
use crate::solution::Solution;
use crate::stats::SolveStats;
use crate::EPS;
use std::sync::{Arc, OnceLock};

mod build;
mod dual;
mod live;
mod phases;
mod pivot;
mod pricing;
mod primal;

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

/// Tableaus with at most this many columns are [`Tableau::small`]: a full
/// scan beats the bookkeeping that avoids one.
const SMALL_TABLEAU_MAX_COLS: usize = 256;

/// Phase-attribution sampling stride: one pivot-loop iteration in this
/// many is wall-clock timed (pricing vs pivot split) and the sampled
/// totals are scaled back up. Keeps the two `Instant::now()` reads off
/// the other iterations — tiny branch-and-bound node solves would
/// otherwise pay a measurable tax for informational timings.
const TIME_SAMPLE: usize = 8;

/// Per-variable bound override used by branch-and-bound: `(var index,
/// lower, upper)`.
pub type BoundOverride = (usize, f64, f64);

/// Reusable solver state: the tableau buffers and, for a
/// [`crate::WarmState`], the record of what its live tableau holds.
///
/// A workspace amortizes every tableau allocation (the dense matrix,
/// pricing buffers, pivot scratch) across repeated solves — the
/// branch-and-bound access pattern. It holds no rows: every solve reads
/// them from the [`Problem`] it is given.
///
/// It carries nothing of one solve's *answer* into the next [`solve_with`],
/// so a result never depends on what the workspace solved before — the
/// parallel branch-and-bound hands workspaces to worker threads on that
/// footing. The matrix starts every solve all-zero: whoever dirtied it
/// sweeps the cells it may have written (`O(nnz)`, not a matrix-sized
/// memset) — [`solve_relaxation`] on its way out, an owner that calls
/// [`solve_with`] again at the start of the next `build`.
#[derive(Debug, Default)]
pub struct Workspace {
    tab: Tableau,
    /// Set while `tab` still holds the optimum of the last
    /// [`solve_live`]: the problem as the tableau has absorbed it.
    live: Option<live::Live>,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Forget the live tableau and keep the buffers: the next
    /// [`solve_live`] is a cold `build` on them.
    pub(crate) fn forget_live(&mut self) {
        self.live = None;
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

    // Shift x = lo + y. Constraint rhs absorbs the shift.
    ws.tab.build(problem, &lo, &hi);
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
/// row (gathered once per pivot into `scratch`, through `row_bits`).
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
    /// pivots.
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
    /// Row scratch, filled by [`Tableau::gather_row`]: nonzero column
    /// indices of the row last read — during a pivot, the pivot row — with
    /// the (scaled) values gathered into `scratch_val` so the elimination
    /// inner loop reads them contiguously.
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
    /// Per-row occupancy bits, `stride.div_ceil(64)` words per row: bit
    /// `(r, c)` is set wherever cell `(r, c)` may be nonzero (a superset,
    /// like `col_rows`; [`Tableau::gather_row`] reads a row through them
    /// and drops the stale ones). All-zero at rest like `a`, and swept from
    /// the same column files: a set bit `(r, c)` always has `r` in
    /// `col_rows[c]` or `c` dense-flagged. A `small` tableau keeps none.
    row_bits: Vec<u64>,
    /// The pivot row's occupancy minus the entering column, as `(word
    /// index, bits)` of its nonzero words: what a pivot ORs into every
    /// eliminated row, the fill-in.
    fill_mask: Vec<(usize, u64)>,
    /// At most [`SMALL_TABLEAU_MAX_COLS`] columns when `build` laid it
    /// out: a full scan is cheap at that size and the bookkeeping that
    /// avoids one would only add overhead. A small tableau maintains no
    /// row files (every column dense-flagged, read with a column scan) and
    /// prices with a full Dantzig scan every iteration (no candidate
    /// list) — which is also the classic entering rule, so small LPs land
    /// on the optimal vertex a textbook simplex chooses (degenerate optima
    /// are common in the scheduling LPs, and callers observe which vertex
    /// they get through the extracted allocation).
    small: bool,
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

    /// Words of `row_bits` per row.
    #[inline]
    fn words(&self) -> usize {
        self.stride.div_ceil(64)
    }

    /// Cell `(r, c)` may be nonzero from here on.
    #[inline]
    fn set_bit(&mut self, r: usize, c: usize) {
        if !self.small {
            let w = r * self.words() + c / 64;
            self.row_bits[w] |= 1 << (c % 64);
        }
    }

    /// Cell `(r, c)` is zero and is leaving `col_rows[c]`. Tests first, so
    /// that a column scan does not dirty the bit pages of rows it only
    /// passes.
    #[inline]
    fn clear_bit(&mut self, r: usize, c: usize) {
        if !self.small {
            let w = r * self.words() + c / 64;
            if self.row_bits[w] & (1 << (c % 64)) != 0 {
                self.row_bits[w] &= !(1 << (c % 64));
            }
        }
    }
}

// Kept last, and `tests.rs` opens with a `#[cfg(test)]` line:
// `scripts/dupcheck.sh` counts what precedes a file's first such line as
// product code.
#[cfg(test)]
mod tests;
