//! Deterministic fork-join for the figure sweeps, the workspace's one
//! parallel fan-out. Each item of a sweep is a whole seeded run, so its
//! result depends only on its input; the slice is cut into one contiguous
//! chunk per worker and the chunks' results are joined in chunk order, so
//! the output is byte-identical for any worker count. The library crates
//! run on their caller's thread: a worker's solves carry no trace context.

use std::sync::OnceLock;

/// Map `f` over `items` on [`workers`] threads, results in input order.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_on(workers(), items, f)
}

/// `BATE_THREADS` when set (`1` runs every sweep on the caller's thread),
/// else the available parallelism. Read once per process.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let env = std::env::var("BATE_THREADS").ok();
        match env.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

fn map_on<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let chunks: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        chunks
            .into_iter()
            .flat_map(|chunk| chunk.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::map_on;
    use std::sync::Mutex;

    const WORKERS: [usize; 3] = [1, 2, 3];

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let want: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for workers in WORKERS {
            assert_eq!(map_on(workers, &items, |&x| x * 2), want, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single() {
        for workers in WORKERS {
            assert!(map_on(workers, &[] as &[u32], |&x| x).is_empty());
            assert_eq!(map_on(workers, &[7u32], |&x| x + 1), vec![8]);
        }
    }

    #[test]
    fn each_item_runs_once_on_one_of_the_workers() {
        // 257 items: chunks of 257, 129 + 128 and 86 + 86 + 85.
        let items: Vec<usize> = (0..257).collect();
        for workers in WORKERS {
            let seen = Mutex::new(Vec::new());
            let out = map_on(workers, &items, |&x| {
                seen.lock().unwrap().push((x, std::thread::current().id()));
                x
            });
            assert_eq!(out, items);
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|&(x, _)| x);
            assert!(seen.iter().map(|&(x, _)| x).eq(0..257), "{workers} workers");
            let mut threads: Vec<_> = seen.iter().map(|&(_, t)| t).collect();
            threads.dedup();
            assert_eq!(threads.len(), workers, "one run of threads per chunk");
        }
    }

    #[test]
    fn matches_sequential_for_any_chunking() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let seq: Vec<f64> = items.iter().map(|x| x.sqrt()).collect();
        for workers in WORKERS {
            // Byte-identical, not just approximately.
            assert_eq!(map_on(workers, &items, |x| x.sqrt()), seq, "{workers} workers");
        }
    }
}
