//! The BATE benchmark: four socket-level workloads against an in-process
//! controller, end-to-end metrics measured at the sockets, and per-layer
//! metrics from an outside-in trace. See `README.md`.

pub mod gen;
pub mod harness;
pub mod json;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;
