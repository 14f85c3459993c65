//! Registry integration tests (ISSUE 3 satellite): concurrent updates
//! land exactly, histogram quantiles track a sorted-vector oracle, and
//! exposition output is stable-ordered.

use bate_obs::metrics::{MetricKind, Registry};
use std::sync::Arc;

/// Deterministic xorshift64* — bate-obs is dependency-free, so the test
/// brings its own generator instead of pulling in `rand`.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn concurrent_updates_from_eight_threads_land_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;

    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                // Half the threads re-look-up each metric by name, half
                // cache the handle — both paths must be exact.
                if t % 2 == 0 {
                    let c = registry.counter("bate_test_hits_total");
                    let h = registry.histogram("bate_test_lat_ms");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe((i % 97 + 1) as f64);
                    }
                } else {
                    for i in 0..PER_THREAD {
                        registry.counter("bate_test_hits_total").inc();
                        registry
                            .histogram("bate_test_lat_ms")
                            .observe((i % 97 + 1) as f64);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(registry.counter("bate_test_hits_total").get(), expected);
    let h = registry.histogram("bate_test_lat_ms");
    assert_eq!(h.count(), expected);
    // Σ of (i % 97 + 1) over 100k per thread, exact in f64 (integers
    // well below 2^53).
    let per_thread_sum: f64 = (0..PER_THREAD).map(|i| (i % 97 + 1) as f64).sum();
    assert_eq!(h.sum(), per_thread_sum * THREADS as f64);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 97.0);
}

#[test]
fn histogram_quantiles_match_sorted_vector_oracle() {
    let mut rng = XorShift(0x5eed_0b5e_1234_5678);
    // Three shapes: uniform, heavy-tailed (x^4 spread over decades), and
    // a bimodal mix — exercising narrow and wide octave coverage.
    type Shape = Box<dyn Fn(&mut XorShift) -> f64>;
    let shapes: Vec<(&str, Shape)> = vec![
        ("uniform", Box::new(|r: &mut XorShift| 1.0 + 99.0 * r.next_f64())),
        (
            "heavy_tail",
            Box::new(|r: &mut XorShift| {
                let u = r.next_f64();
                0.001 + 1e6 * u * u * u * u
            }),
        ),
        (
            "bimodal",
            Box::new(|r: &mut XorShift| {
                if r.next_u64().is_multiple_of(4) {
                    500.0 + 50.0 * r.next_f64()
                } else {
                    2.0 + r.next_f64()
                }
            }),
        ),
    ];

    let registry = Registry::new();
    for (name, gen) in &shapes {
        let h = registry.histogram(name);
        let mut samples: Vec<f64> = (0..20_000).map(|_| gen(&mut rng)).collect();
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());

        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let oracle = samples[rank - 1];
            let est = h.quantile(q);
            // Log-linear buckets with 8 sub-buckets per octave bound the
            // relative error by 1/8 = 12.5%; the estimate reports the
            // bucket's upper bound, so it can only overshoot.
            assert!(
                est >= oracle * (1.0 - 1e-12),
                "{name} q={q}: est {est} < oracle {oracle}"
            );
            assert!(
                est <= oracle * 1.125 + 1e-9,
                "{name} q={q}: est {est} overshoots oracle {oracle} by more than 12.5%"
            );
        }
    }
}

#[test]
fn exposition_is_stable_ordered_regardless_of_registration_order() {
    // Register the same metric set in two different orders; both
    // renderings must be byte-identical and name-sorted.
    let names = [
        "bate_z_last_total",
        "bate_a_first_total",
        "bate_m_middle_total",
        "bate_wire_frames_total",
        "bate_solver_pivots_total",
    ];
    let forward = Registry::new();
    for n in &names {
        forward.counter(n).add(7);
    }
    let reverse = Registry::new();
    for n in names.iter().rev() {
        reverse.counter(n).add(7);
    }

    let a = forward.render_prometheus();
    let b = reverse.render_prometheus();
    assert_eq!(a, b, "exposition must not depend on registration order");

    let metric_lines: Vec<&str> = a
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let mut sorted = metric_lines.clone();
    sorted.sort();
    assert_eq!(metric_lines, sorted, "metric lines must be name-sorted");

    // Same stability holds for the JSONL snapshot, including filtering.
    let ja = forward.snapshot_jsonl_filtered(|_, _| true);
    let jb = reverse.snapshot_jsonl_filtered(|_, _| true);
    assert_eq!(ja, jb);
    let filtered = forward.snapshot_jsonl_filtered(|name, kind| {
        kind == MetricKind::Counter && name.contains("wire")
    });
    assert_eq!(
        filtered,
        "{\"metric\":\"bate_wire_frames_total\",\"type\":\"counter\",\"value\":7}\n"
    );
}
