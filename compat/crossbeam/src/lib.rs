//! Offline shim for `crossbeam 0.8` — see `compat/README.md`.
//!
//! Scoped threads have been in `std` since Rust 1.63, so the only piece of
//! crossbeam this workspace's manifests reference is re-exported from the
//! standard library. The one parallel fan-out inside the workspace, the
//! figure sweeps of `bate-bench`, uses `std::thread::scope` directly.

pub mod thread {
    pub use std::thread::{scope, Scope, ScopedJoinHandle};
}
