//! Deterministic fork-join parallelism for solver fan-out.
//!
//! [`par_map`] / [`par_map_with`] evaluate a pure function over a slice on
//! scoped worker threads and return results **in input order**. Items are
//! split into contiguous chunks, each worker fills its own disjoint region
//! of the output, and the merge is positional — no channels, no
//! completion-order dependence. Because each result depends only on its
//! input (never on scheduling), output is byte-identical for any thread
//! count, which is what lets branch-and-bound node batches and the
//! experiment sweeps parallelize without giving up reproducibility. Each
//! item there is a whole solve or a whole run; the serving path's
//! microsecond steps (hardening, separation sweeps) run on their caller's
//! thread instead.
//!
//! The worker count comes from the `BATE_THREADS` environment variable
//! when set (a value of `1` disables threading entirely), otherwise from
//! [`std::thread::available_parallelism`]; either is read once per
//! process.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread override installed by [`with_thread_count`]; takes
    /// precedence over `BATE_THREADS`.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads fan-out points should use.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    // `available_parallelism` reads the cgroup files (~20 µs a call).
    static PROCESS: OnceLock<usize> = OnceLock::new();
    *PROCESS.get_or_init(|| {
        let env = std::env::var("BATE_THREADS").ok();
        match env.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// Run `f` with [`thread_count`] pinned to `n` on the current thread.
///
/// Exists so determinism tests can execute the same computation at
/// different thread counts within one process and compare results bit for
/// bit; also handy for temporarily serializing a fan-out in a debugger.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n)));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Map `f` over `items` in parallel, returning results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// Like [`par_map`] but with per-worker state: each worker thread builds
/// one `S` via `init` and threads it through every item of its chunk.
///
/// Used to give each worker a private solver [`crate::simplex::Workspace`]
/// so buffer reuse carries across that worker's items. Determinism caveat
/// for callers: `f` must produce the same `R` for an item regardless of
/// the state's history (reusing *allocations* is fine; leaking warm-start
/// *decisions* between items is not — set or clear warm state explicitly
/// per item).
pub fn par_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    let workers = thread_count().min(n);
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let (init, f) = (&init, &f);
    std::thread::scope(|scope| {
        for (islice, oslice) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut state = init();
                for (item, slot) in islice.iter().zip(oslice.iter_mut()) {
                    *slot = Some(f(&mut state, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // Each worker counts its own items; totals must cover all items
        // exactly once.
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_with(
            &items,
            || 0usize,
            |seen, &x| {
                *seen += 1;
                x
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn matches_sequential_for_any_chunking() {
        // The same computation through the sequential path (empty slice
        // forces workers=0 -> sequential) and the parallel path.
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let seq: Vec<f64> = items.iter().map(|x| x.sqrt()).collect();
        let par = par_map(&items, |x| x.sqrt());
        assert_eq!(seq, par); // byte-identical, not just approximately
    }
}
