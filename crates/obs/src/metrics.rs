//! Lock-sharded metrics registry: counters, gauges, and log-linear
//! histograms with Prometheus text exposition and deterministic JSONL
//! snapshots.
//!
//! ## Design
//!
//! Registration (name → handle lookup) takes a per-shard mutex; the hot
//! path — incrementing a counter, observing a histogram sample — touches
//! only atomics on an `Arc`-shared handle. Callers on hot paths should
//! register once and cache the handle (e.g. in a `OnceLock`); casual
//! callers can re-look-up by name, which costs one FNV hash and one
//! uncontended shard lock.
//!
//! ## Histograms
//!
//! Buckets are log-linear: each power-of-two octave is split into
//! [`SUBS`] equal-width sub-buckets, giving a worst-case relative
//! quantile error of `1/SUBS` (12.5%) over the full tracked range
//! [2⁻²⁰, 2⁴¹) with a fixed 4 KB footprint and O(1) `observe`. Exact
//! min/max are tracked separately so extreme quantiles degrade to the
//! true extremes rather than a bucket boundary.
//!
//! ## Determinism
//!
//! Counter and gauge state is exactly reproducible whenever the observed
//! program is (atomic adds commute). Histogram *sums* accumulate f64 in
//! arrival order and wall-clock *timing* histograms are inherently
//! nondeterministic; deterministic snapshots therefore go through
//! [`Registry::snapshot_jsonl_filtered`] with a predicate that selects
//! the reproducible families (see `scripts/obscheck.sh`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sub-buckets per power-of-two octave (must be a power of two).
pub const SUBS: usize = 8;
const SUB_BITS: u32 = 3;
/// Lowest tracked octave: values below 2^MIN_EXP land in the underflow
/// bucket. 2⁻²⁰ ≈ 1 µs when observing seconds.
const MIN_EXP: i64 = -20;
/// Highest tracked octave: values at or above 2^(MAX_EXP+1) land in the
/// overflow bucket. 2⁴¹ ≈ 2.2e12.
const MAX_EXP: i64 = 40;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// underflow + log-linear grid + overflow
const BUCKETS: usize = OCTAVES * SUBS + 2;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins f64 gauge (stored as bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Lock-free log-linear histogram (see module docs for the bucket layout).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    /// Σ samples, accumulated via CAS on the f64 bit pattern.
    sum_bits: AtomicU64,
    /// Exact extremes, CAS-min/max on f64 bits (positive values only, so
    /// the IEEE-754 total order matches the numeric order on the raw bits).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        // Safety of the array init: AtomicU64::new(0) is not Copy, so build
        // through a Vec and convert.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = v.into_boxed_slice().try_into().unwrap();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Bucket index for a sample. Non-positive / non-finite values clamp to
/// the underflow bucket (0); values ≥ 2^(MAX_EXP+1) go to the overflow
/// bucket (BUCKETS-1).
fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v < f64::from_bits(((MIN_EXP + 1023) as u64) << 52) {
        // Below the lowest octave (covers v <= 0, NaN, subnormals).
        return if v.is_finite() && v >= 0.0 {
            0
        } else if v.is_infinite() && v > 0.0 {
            BUCKETS - 1
        } else {
            0
        };
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// Inclusive upper bound of bucket `i` (the `le` label in exposition).
fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        return f64::from_bits(((MIN_EXP + 1023) as u64) << 52); // 2^MIN_EXP
    }
    if i >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let g = i - 1;
    let exp = MIN_EXP + (g / SUBS) as i64;
    let sub = (g % SUBS) as f64;
    let base = f64::from_bits(((exp + 1023) as u64) << 52);
    base * (1.0 + (sub + 1.0) / SUBS as f64)
}

impl Histogram {
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Σ via CAS on bits.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if v.is_finite() && v >= 0.0 {
            // min/max on raw bits: valid because non-negative f64 bits
            // order the same as the values.
            let vb = v.to_bits();
            let mut cur = self.min_bits.load(Ordering::Relaxed);
            while vb < cur || f64::from_bits(cur).is_infinite() {
                match self.min_bits.compare_exchange_weak(
                    cur,
                    vb,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            let mut cur = self.max_bits.load(Ordering::Relaxed);
            while vb > cur {
                match self.max_bits.compare_exchange_weak(
                    cur,
                    vb,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Observe a duration in milliseconds (the workspace's timing unit).
    pub fn observe_ms(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64() * 1e3);
    }

    /// Observe a duration in nanoseconds. Sub-millisecond work (the
    /// row-generation separation sweeps) would collapse into the lowest
    /// buckets at ms resolution; ns keeps the log-linear layout useful.
    pub fn observe_ns(&self, d: std::time::Duration) {
        self.observe(d.as_nanos() as f64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            0.0
        } else {
            v
        }
    }

    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Estimated value at quantile `q` ∈ [0, 1]: the upper bound of the
    /// bucket holding the rank-⌈q·n⌉ sample (≤ 1/SUBS relative error),
    /// clamped to the exact observed [min, max].
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Standard cumulative `(le, count)` series over a **fixed** grid:
    /// one `le` per octave boundary (the underflow bound first), the
    /// same 1 + [`OCTAVES`](self) points for every histogram regardless
    /// of where samples landed — the shape Prometheus scrapers expect,
    /// where only counts vary between states. Overflow samples appear
    /// only in the `+Inf` bucket the renderer appends.
    fn cumulative_octave_points(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(OCTAVES + 1);
        // Underflow bucket: everything at or below 2^MIN_EXP.
        let mut cum = self.buckets[0].load(Ordering::Relaxed);
        out.push((bucket_upper(0), cum));
        for o in 0..OCTAVES {
            for s in 0..SUBS {
                cum += self.buckets[1 + o * SUBS + s].load(Ordering::Relaxed);
            }
            // Upper bound of the octave's last sub-bucket: 2^(MIN_EXP+o+1).
            out.push((bucket_upper(o * SUBS + SUBS), cum));
        }
        out
    }
}

/// The kinds a registered metric can have (used by snapshot filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

const SHARDS: usize = 16;

/// Lock-sharded name → metric map. Cheap to clone handles out of; the
/// shard mutexes are only held during registration/lookup and rendering.
pub struct Registry {
    shards: [Mutex<HashMap<String, Metric>>; SHARDS],
    /// name → `# HELP` text (see [`Registry::describe`]).
    help: Mutex<HashMap<String, String>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            help: Mutex::new(HashMap::new()),
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry (what instrumented crates record into).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        &self.shards[(fnv1a(name) % SHARDS as u64) as usize]
    }

    /// Get or register a counter. Panics if `name` is already registered
    /// as a different kind (a programming error, not a runtime condition).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut shard = self.shard(name).lock().unwrap();
        let m = shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match m {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Get or register a gauge (same kind-collision rules as [`counter`]).
    ///
    /// [`counter`]: Registry::counter
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut shard = self.shard(name).lock().unwrap();
        let m = shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match m {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Get or register a histogram (same kind-collision rules as
    /// [`counter`]).
    ///
    /// [`counter`]: Registry::counter
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut shard = self.shard(name).lock().unwrap();
        let m = shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match m {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Attach `# HELP` text to a metric name (idempotent; last write
    /// wins). Undescribed metrics render with a generic pointer to
    /// METRICS.md, the workspace's metric inventory.
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .lock()
            .unwrap()
            .insert(name.to_string(), help.replace('\n', " "));
    }

    fn help_for(&self, name: &str) -> String {
        self.help
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .unwrap_or_else(|| "BATE workspace metric (see METRICS.md)".to_string())
    }

    /// All metrics, sorted by name (the stable exposition order).
    fn sorted(&self) -> Vec<(String, Metric)> {
        let mut all: Vec<(String, Metric)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            all.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Prometheus text-format exposition (sorted by metric name, so the
    /// output is stable for a given registry state): standard
    /// `# HELP`/`# TYPE` preamble per family, and histograms as the
    /// standard cumulative `_bucket{le="…"}` series over a fixed octave
    /// grid (identical bucket boundaries for every histogram and every
    /// scrape — only the counts vary).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.sorted() {
            out.push_str(&format!("# HELP {name} {}\n", self.help_for(&name)));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "# TYPE {name} gauge\n{name} {}\n",
                        fmt_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (ub, cum) in h.cumulative_octave_points() {
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cum}\n",
                            fmt_f64(ub)
                        ));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum())));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// Deterministic JSONL snapshot of the metrics where `keep(name, kind)`:
    /// one JSON object per metric, sorted by name. See the module docs for
    /// which families are reproducible; the obscheck gate keeps
    /// counters/gauges and drops wall-clock timing histograms.
    pub fn snapshot_jsonl_filtered(&self, keep: impl Fn(&str, MetricKind) -> bool) -> String {
        let mut out = String::new();
        for (name, metric) in self.sorted() {
            if !keep(&name, metric.kind()) {
                continue;
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"counter\",\"value\":{}}}\n",
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"gauge\",\"value\":{}}}\n",
                        json_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}\n",
                        h.count(),
                        json_f64(h.sum()),
                        json_f64(h.min()),
                        json_f64(h.max()),
                        json_f64(h.p50()),
                        json_f64(h.p95()),
                        json_f64(h.p99()),
                    ));
                }
            }
        }
        out
    }
}

/// Shortest-roundtrip f64 formatting (Rust's `{}` is deterministic for a
/// given bit pattern, which is all the stable-output guarantee needs).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// f64 as a JSON value: non-finite becomes `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(r.counter("c_total").get(), 5);
        let g = r.gauge("g");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every tracked value lands in a bucket whose bounds contain it.
        let mut v = 1.1e-6;
        while v < 1e12 {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i) * (1.0 + 1e-12), "v={v} i={i}");
            if i > 1 {
                assert!(v > bucket_upper(i - 1) * (1.0 - 1e-12), "v={v} i={i}");
            }
            v *= 1.37;
        }
        // Degenerate inputs clamp instead of panicking.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_exact_extremes() {
        let h = Histogram::default();
        for v in [3.0, 0.25, 100.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 110.25).abs() < 1e-9);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 100.0);
        // Quantiles clamp to the exact extremes.
        assert_eq!(h.quantile(0.0), 0.25);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_standard_cumulative_buckets() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        r.describe("a_total", "Things that\nhappened.");
        let h = r.histogram("lat_ms");
        h.observe(1.0);
        h.observe(2.0);
        h.observe(1000.0);
        let text = r.render_prometheus();
        // HELP precedes TYPE for every family; newlines are flattened.
        assert!(text.contains("# HELP a_total Things that happened.\n# TYPE a_total counter\na_total 3\n"));
        assert!(text.contains("# HELP lat_ms BATE workspace metric (see METRICS.md)\n# TYPE lat_ms histogram\n"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ms_count 3\n"));
        let cum: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_ms_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        // Standard shape: the full fixed grid is present (underflow bound
        // plus one boundary per octave), counts are cumulative
        // (non-decreasing), and the last finite bucket holds all samples.
        assert_eq!(cum.len(), OCTAVES + 1, "fixed grid regardless of data");
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "cumulative: {cum:?}");
        assert_eq!(*cum.last().unwrap(), 3);
        // An empty histogram renders the same grid with zero counts.
        let r2 = Registry::new();
        r2.histogram("lat_ms");
        let grid = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("lat_ms_bucket") && !l.contains("+Inf"))
                .map(|l| l.split(' ').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            grid(&r2.render_prometheus()),
            grid(&text),
            "le grid must not depend on samples"
        );
    }
}
