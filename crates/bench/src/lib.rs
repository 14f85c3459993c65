//! # bate-bench — regenerating every table and figure of the paper
//!
//! Each module under [`experiments`] reproduces one group of evaluation
//! artifacts (§5 + Appendix E). The `figures` binary prints the same
//! rows/series the paper plots, including the series behind its
//! performance claims (`fig12`, `fig16 fig17`, `fig19 fig21`).
//! `benches/lp.rs` times the LP kernel and writes `BENCH_lp.json`.
//!
//! Scale note: the paper runs 100-day simulations on a server fleet with
//! Gurobi. The reproduction keeps every *workload generator and parameter
//! sweep* but shrinks horizons/repeats so the full harness finishes in
//! minutes on a laptop; EXPERIMENTS.md records the shape comparison
//! (who wins, by roughly what factor) for every artifact.

pub mod experiments;
pub mod fuzz;

pub use experiments::common;
