//! # bate-lp — linear and mixed-integer programming for BATE
//!
//! A self-contained LP/MILP solver used by every optimization model in the
//! BATE traffic-engineering framework (admission control, traffic scheduling,
//! failure recovery, and the baseline TE algorithms).
//!
//! The paper solves its models with Gurobi; the Rust ecosystem has no
//! comparable offline solver, so this crate implements:
//!
//! * one float simplex: a **sparse-aware two-phase primal simplex** with
//!   candidate-list partial pricing and a Bland's-rule fallback for
//!   anti-cycling ([`simplex`]),
//! * one **warm start** on top of it: a [`WarmState`] keeps its master's
//!   final tableau live and edits it in place between solves ([`warm`]);
//!   every other solve — each branch-and-bound node, each round of the
//!   cutting-plane loop — runs cold, and a cold answer is the reference a
//!   warm one must pass its gate against or be redone as, and
//! * a **branch-and-bound** MILP solver ([`milp`]): one tree search,
//!   supporting binary and general integer variables, run on its caller's
//!   thread in a fixed batch order, beside the LP cutting-plane loop
//!   ([`solve_lp_lazy`]) that row generation runs.
//!
//! Both are exact methods, so optimization results match what the paper's
//! solver would produce (up to numerical tolerance); only absolute solve
//! times differ. This crate holds only what the controller runs: the
//! reference every float answer is checked against — the rational simplex
//! and KKT certificate layer — lives in `bate-reference`, which tests,
//! the `lp` bench and the fuzz campaign link.
//!
//! ## Example
//!
//! ```
//! use bate_lp::{Problem, Sense, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var();
//! let y = p.add_var();
//! p.set_objective(x, 3.0);
//! p.set_objective(y, 2.0);
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-6);
//! assert!((sol[x] - 4.0).abs() < 1e-6);
//! ```

pub mod error;
pub mod milp;
pub mod problem;
pub mod simplex;
pub mod solution;
pub mod stats;
pub mod warm;

pub use error::SolveError;
pub use problem::{Problem, Relation, Sense, VarId, VarKind};
pub use milp::{solve_lp_lazy, LazyLpLog, LazyRow};
pub use simplex::{register_phase_metrics, Workspace};
pub use solution::Solution;
pub use stats::{IncumbentPoint, MilpStats, SolveStats};
pub use warm::{quick_check, WarmState, WarmStats};

/// Default numerical tolerance used across the solver for feasibility and
/// optimality tests.
pub const EPS: f64 = 1e-9;

/// Tolerance used when deciding whether a relaxation value is integral.
pub const INT_EPS: f64 = 1e-6;
