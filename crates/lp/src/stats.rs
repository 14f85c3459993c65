//! Per-solve instrumentation: kernel counters the simplex and
//! branch-and-bound solvers fill in as they run.
//!
//! [`SolveStats`] rides on every [`Solution`](crate::Solution) — the
//! counters (iterations, pivots, pricing activity) are exact and
//! deterministic for a given problem, so golden tests pin them to make
//! pivot-behavior changes explicit; the phase timings are wall-clock and
//! informational only (excluded from equality and goldens).

/// Counters and timings from one simplex solve.
///
/// All counts are deterministic for a given `(problem, overrides)`
/// input (for a live solve: the edit history since the last cold one); `phase1_secs` / `phase2_secs` are wall-clock and
/// vary run to run. [`Solution`](crate::Solution) equality deliberately
/// ignores this struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Constraint rows of the tableau.
    pub rows: u32,
    /// Columns (structural + slack/surplus + artificial).
    pub cols: u32,
    /// Pivot-loop iterations spent driving artificials out (0 when the
    /// slack basis or the live point was already feasible).
    pub phase1_iterations: u64,
    /// Pivot-loop iterations optimizing the real objective.
    pub phase2_iterations: u64,
    /// Basis-change pivots (a row left the basis).
    pub pivots: u64,
    /// Bound flips (the entering variable crossed its box without a basis
    /// change).
    pub bound_flips: u64,
    /// Iterations taken under Bland's anti-cycling rule.
    pub bland_iterations: u64,
    /// Full Dantzig pricing scans (candidate-list refills).
    pub full_price_scans: u64,
    /// Iterations served from the partial-pricing candidate list without
    /// a full scan.
    pub candidate_hits: u64,
    /// Whether the solve resumed on the live tableau of an earlier one
    /// (only [`WarmState`](crate::WarmState) solves can).
    pub warm_start: bool,
    /// Dual-simplex repair pivots (a live point left primal-infeasible by
    /// a rhs/bound edit is repaired row-first instead of re-solved cold).
    pub dual_pivots: u64,
    /// Wall-clock seconds in phase 1 (informational; nondeterministic).
    pub phase1_secs: f64,
    /// Wall-clock seconds in phase 2 (informational; nondeterministic).
    pub phase2_secs: f64,
    /// Wall-clock seconds spent pricing (entering-column selection),
    /// across both phases. Estimated by deterministic 1-in-8 iteration
    /// sampling and scaled up, so per-iteration timer reads stay off the
    /// hot path (informational; nondeterministic).
    pub pricing_secs: f64,
    /// Wall-clock seconds spent in the ratio test + pivot/elimination
    /// work, across both phases. Sampled like `pricing_secs`
    /// (informational; nondeterministic).
    pub pivot_secs: f64,
    /// Wall-clock seconds in the dual-simplex warm-start repair loop
    /// (also included in `phase1_secs`, which it historically fed;
    /// informational; nondeterministic).
    pub dual_repair_secs: f64,
}

impl SolveStats {
    /// Total pivot-loop iterations across both phases.
    pub fn iterations(&self) -> u64 {
        self.phase1_iterations + self.phase2_iterations
    }

    /// Total wall-clock seconds across both phases (informational).
    pub fn total_secs(&self) -> f64 {
        self.phase1_secs + self.phase2_secs
    }
}

/// One incumbent improvement during branch-and-bound.
#[derive(Debug, Clone, PartialEq)]
pub struct IncumbentPoint {
    /// Nodes processed when the incumbent was found (1-based: the node
    /// that produced it counts).
    pub node: u64,
    /// The incumbent's objective, in the problem's own sense.
    pub objective: f64,
}

/// Search statistics from one branch-and-bound solve.
///
/// Node accounting happens in the sequential batch-processing loop, so
/// every field is byte-identical across thread counts (the same property
/// the solver itself guarantees for its solutions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MilpStats {
    /// LP relaxations processed (includes pruned and infeasible nodes).
    pub nodes: u64,
    /// Deepest node processed (bound overrides stacked = tree depth).
    pub max_depth: u32,
    /// Σ simplex iterations over all node relaxations.
    pub lp_iterations: u64,
    /// Σ basis-change pivots over all node relaxations.
    pub lp_pivots: u64,
    /// Every incumbent improvement, in discovery order — the trajectory
    /// from first feasible point to the returned optimum.
    pub incumbents: Vec<IncumbentPoint>,
    /// Lazy-constraint rows appended by the separation oracle (always 0
    /// for plain [`solve_traced`](crate::milp::solve_traced); see
    /// [`solve_traced_lazy`](crate::milp::solve_traced_lazy)).
    pub lazy_rows_added: u64,
    /// Separation-oracle invocations during lazy branch-and-cut.
    pub separation_calls: u64,
}
