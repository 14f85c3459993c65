//! # bate-reference — the references the shipped crates are checked against
//!
//! Nothing the controller or the benchmark runs links this crate; tests,
//! the `lp` bench and the differential fuzz campaign do (a shipped crate
//! may name it only under `[dev-dependencies]`). It holds the slow,
//! obviously-correct definitions that stand in for the paper's Gurobi and
//! for its testbed's dice rolls (DESIGN.md §5d):
//!
//! * [`rational`] — exact fractions: `i128` fast path, overflow-checked
//!   promotion to an in-crate big integer (no external dependencies).
//! * [`simplex`] / [`milp`] — an exact two-phase bounded-variable simplex
//!   with Bland's rule, plus deterministic branch-and-bound over it.
//!   These *re-solve* harness-sized instances to give ground truth.
//! * [`certificate`] — KKT certificates evaluated exactly on float
//!   solver output, so instances too big to re-solve exactly still get
//!   their answers *certified* against documented tolerances.
//! * [`lp_text`] — the CPLEX LP text format: a writer and a parser that
//!   never panics, for debugging a model, handing it to an external
//!   solver, and the goldens that pin a formulation byte for byte.
//! * [`walk`] — the scenario-by-scenario definitions of the profile
//!   collapse and the achieved availability that `bate-core` answers from
//!   bitset algebra.
//! * [`montecarlo`] — raw-state sampling that cross-validates the
//!   analytic availability calculus.

pub mod certificate;
pub mod lp_text;
pub mod milp;
pub mod montecarlo;
pub mod rational;
pub mod simplex;
pub mod walk;

pub use certificate::{
    verify_certificate, verify_certificate_with, verify_exact, verify_milp_certificate,
    verify_milp_certificate_with, verify_parts, CertTolerances, CertificateError,
};
pub use lp_text::{from_lp_format, to_lp_format, LpParseError};
pub use milp::{solve_exact_milp, ExactMilpSolution};
pub use rational::Rational;
pub use simplex::{solve_exact, solve_exact_with, ExactSolution};
pub use walk::{achieved_availability_walk, collapse_walk};
