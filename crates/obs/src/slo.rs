//! Declarative SLOs over registry snapshots with multi-window burn-rate
//! alerting.
//!
//! A [`SloSpec`] names an objective over already-registered metrics —
//! a histogram quantile bound (admission p99) or a bad/total counter
//! ratio budget (cold-resolve fraction, hard-violation fraction). An
//! [`SloEngine`] is fed one sample per scheduling round
//! ([`SloEngine::record_sample`]) and evaluates each spec over two
//! trailing windows (short and long, in samples): the **burn rate** is
//! the fraction of error budget consumed per unit budget in that window
//! (1.0 = consuming exactly the budget), and an alert fires only when
//! *both* windows burn above the alert factor — the classic
//! multi-window guard against paging on a single noisy round while
//! still catching sustained burn fast.
//!
//! Reports ([`SloEngine::render_report`]) are deterministic text for a
//! given sample history, which is what lets `scripts/obscheck.sh` diff
//! them across same-seed runs (quantile specs over wall-clock
//! histograms are the exception; deterministic harnesses restrict
//! themselves to counter-ratio specs).

use crate::metrics::Registry;
use std::sync::Mutex;

/// What a spec constrains.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// `quantile(q)` of `metric` must stay at or below `bound`;
    /// `allowed` is the tolerated fraction of breaching samples (the
    /// error budget).
    QuantileBelow {
        metric: String,
        q: f64,
        bound: f64,
        allowed: f64,
    },
    /// `bad / total` (both counters) must stay at or below `budget`.
    BadRatioBelow {
        bad: String,
        total: String,
        budget: f64,
    },
}

/// A named service-level objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    pub name: &'static str,
    pub kind: SloKind,
}

/// The standard BATE objectives: admission p99 latency (50 ms, read from
/// the controller's per-demand histogram in microseconds), warm-hit rate,
/// and the BA-guarantee rate (scheduling rounds without a hard
/// placement violation).
pub fn standard_specs() -> Vec<SloSpec> {
    let mut specs = vec![SloSpec {
        name: "admission_p99_ms",
        kind: SloKind::QuantileBelow {
            metric: "bate_admission_latency_us".into(),
            q: 0.99,
            bound: 50_000.0,
            allowed: 0.05,
        },
    }];
    specs.extend(deterministic_specs());
    specs
}

/// The counter-ratio subset of [`standard_specs`] — reproducible across
/// same-seed runs, so deterministic harnesses report only these.
pub fn deterministic_specs() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "warm_hit_rate",
            kind: SloKind::BadRatioBelow {
                bad: "bate_warm_cold_rounds_total".into(),
                total: "bate_warm_rounds_total".into(),
                budget: 0.35,
            },
        },
        SloSpec {
            name: "ba_guarantee_rate",
            kind: SloKind::BadRatioBelow {
                bad: "bate_sched_hard_violations_total".into(),
                total: "bate_sched_rounds_total".into(),
                budget: 0.01,
            },
        },
    ]
}

/// One spec's reading at one sample instant.
#[derive(Debug, Clone, Copy)]
struct SloPoint {
    /// Cumulative bad / total counter values (ratio specs).
    bad: f64,
    total: f64,
    /// Quantile estimate and breach flag (quantile specs).
    value: f64,
    breach: bool,
}

/// Evaluates specs over a growing sample history.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    short_window: usize,
    long_window: usize,
    alert_factor: f64,
    /// `history[sample][spec]`.
    history: Mutex<Vec<Vec<SloPoint>>>,
}

/// One spec's evaluation (see [`SloEngine::evaluate`]).
#[derive(Debug, Clone)]
pub struct SloStatus {
    pub name: &'static str,
    /// Current level: quantile value, or bad/total ratio.
    pub current: f64,
    pub burn_short: f64,
    pub burn_long: f64,
    pub alert: bool,
}

impl SloEngine {
    /// Engine with default windows: short = 5 samples, long = 25,
    /// alert when both burn at ≥ 2x budget.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine::with_windows(specs, 5, 25, 2.0)
    }

    pub fn with_windows(
        specs: Vec<SloSpec>,
        short_window: usize,
        long_window: usize,
        alert_factor: f64,
    ) -> SloEngine {
        SloEngine {
            specs,
            short_window: short_window.max(1),
            long_window: long_window.max(1),
            alert_factor,
            history: Mutex::new(Vec::new()),
        }
    }

    /// The process-global engine over [`standard_specs`] (what the
    /// controller samples each scheduling round and `batectl slo`
    /// reports).
    pub fn global() -> &'static SloEngine {
        static G: std::sync::OnceLock<SloEngine> = std::sync::OnceLock::new();
        G.get_or_init(|| SloEngine::new(standard_specs()))
    }

    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> usize {
        self.history.lock().unwrap().len()
    }

    /// Read every spec's inputs from `registry` and append one sample.
    pub fn record_sample(&self, registry: &Registry) {
        let points: Vec<SloPoint> = self
            .specs
            .iter()
            .map(|spec| match &spec.kind {
                SloKind::QuantileBelow {
                    metric, q, bound, ..
                } => {
                    let h = registry.histogram(metric);
                    let value = h.quantile(*q);
                    SloPoint {
                        bad: 0.0,
                        total: h.count() as f64,
                        value,
                        breach: h.count() > 0 && value > *bound,
                    }
                }
                SloKind::BadRatioBelow { bad, total, .. } => SloPoint {
                    bad: registry.counter(bad).get() as f64,
                    total: registry.counter(total).get() as f64,
                    value: 0.0,
                    breach: false,
                },
            })
            .collect();
        self.history.lock().unwrap().push(points);
    }

    /// Burn rate of spec `si` over the trailing `window` samples.
    fn burn(&self, history: &[Vec<SloPoint>], si: usize, window: usize) -> f64 {
        if history.is_empty() {
            return 0.0;
        }
        let last = history.len() - 1;
        let first = last.saturating_sub(window.saturating_sub(1));
        match &self.specs[si].kind {
            SloKind::QuantileBelow { allowed, .. } => {
                let n = last - first + 1;
                let breaches = history[first..=last]
                    .iter()
                    .filter(|p| p[si].breach)
                    .count();
                let frac = breaches as f64 / n as f64;
                if *allowed > 0.0 {
                    frac / allowed
                } else if frac > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
            SloKind::BadRatioBelow { budget, .. } => {
                // Counter deltas across the window; the window's first
                // sample is the baseline (cumulative counters).
                let base = if first == 0 {
                    SloPoint {
                        bad: 0.0,
                        total: 0.0,
                        value: 0.0,
                        breach: false,
                    }
                } else {
                    history[first - 1][si]
                };
                let dbad = (history[last][si].bad - base.bad).max(0.0);
                let dtotal = (history[last][si].total - base.total).max(0.0);
                if dtotal <= 0.0 {
                    return 0.0;
                }
                let frac = dbad / dtotal;
                if *budget > 0.0 {
                    frac / budget
                } else if frac > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        }
    }

    /// Evaluate every spec over the recorded history.
    pub fn evaluate(&self) -> Vec<SloStatus> {
        let history = self.history.lock().unwrap();
        self.specs
            .iter()
            .enumerate()
            .map(|(si, spec)| {
                let current = match (&spec.kind, history.last()) {
                    (SloKind::QuantileBelow { .. }, Some(points)) => points[si].value,
                    (SloKind::BadRatioBelow { .. }, Some(points)) => {
                        let p = points[si];
                        if p.total > 0.0 {
                            p.bad / p.total
                        } else {
                            0.0
                        }
                    }
                    (_, None) => 0.0,
                };
                let burn_short = self.burn(&history, si, self.short_window);
                let burn_long = self.burn(&history, si, self.long_window);
                SloStatus {
                    name: spec.name,
                    current,
                    burn_short,
                    burn_long,
                    alert: burn_short >= self.alert_factor && burn_long >= self.alert_factor,
                }
            })
            .collect()
    }

    /// Deterministic text report (one line per spec plus a header).
    pub fn render_report(&self) -> String {
        let statuses = self.evaluate();
        let mut out = format!(
            "slo report: {} specs, {} samples, windows {}/{}, alert at {}x\n",
            self.specs.len(),
            self.samples(),
            self.short_window,
            self.long_window,
            fmt(self.alert_factor),
        );
        for s in statuses {
            out.push_str(&format!(
                "slo {}: current={} burn_short={} burn_long={} alert={}\n",
                s.name,
                fmt(s.current),
                fmt(s.burn_short),
                fmt(s.burn_long),
                if s.alert { "FIRING" } else { "ok" }
            ));
        }
        out
    }
}

/// Fixed-precision, locale-free float formatting for reports.
fn fmt(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio_engine(budget: f64) -> SloEngine {
        SloEngine::with_windows(
            vec![SloSpec {
                name: "test_ratio",
                kind: SloKind::BadRatioBelow {
                    bad: "t_bad_total".into(),
                    total: "t_all_total".into(),
                    budget,
                },
            }],
            2,
            4,
            2.0,
        )
    }

    #[test]
    fn burn_rate_tracks_window_deltas_and_alerts_on_both_windows() {
        let r = Registry::new();
        let bad = r.counter("t_bad_total");
        let all = r.counter("t_all_total");
        let engine = ratio_engine(0.1);

        // 4 clean rounds: 10 ops each, no bad.
        for _ in 0..4 {
            all.add(10);
            engine.record_sample(&r);
        }
        let s = &engine.evaluate()[0];
        assert_eq!(s.burn_short, 0.0);
        assert!(!s.alert);

        // Two rounds burning at 50% bad = 5x the 10% budget: short
        // window fires immediately, long window needs the sustained run.
        all.add(10);
        bad.add(5);
        engine.record_sample(&r);
        let s = &engine.evaluate()[0];
        assert!(s.burn_short > 2.0, "short burn {}", s.burn_short);
        assert!(!s.alert, "one bad round must not page (long window clean)");

        all.add(10);
        bad.add(5);
        engine.record_sample(&r);
        let s = &engine.evaluate()[0];
        assert!(s.burn_short >= 2.0 && s.burn_long >= 2.0);
        assert!(s.alert, "sustained burn must page");
    }

    #[test]
    fn quantile_spec_breach_fraction_drives_burn() {
        let r = Registry::new();
        let h = r.histogram("t_lat_ms");
        let engine = SloEngine::with_windows(
            vec![SloSpec {
                name: "p99",
                kind: SloKind::QuantileBelow {
                    metric: "t_lat_ms".into(),
                    q: 0.99,
                    bound: 100.0,
                    allowed: 0.5,
                },
            }],
            2,
            2,
            1.0,
        );
        h.observe(10.0);
        engine.record_sample(&r); // p99=10 <= 100: clean
        for _ in 0..200 {
            h.observe(500.0);
        }
        engine.record_sample(&r); // p99 now ~500: breach
        let s = &engine.evaluate()[0];
        assert!(s.current > 100.0);
        // 1 of 2 samples breached, allowed 0.5 -> burn exactly 1.0.
        assert!((s.burn_short - 1.0).abs() < 1e-12, "burn {}", s.burn_short);
        assert!(s.alert);
    }

    #[test]
    fn report_is_deterministic_text() {
        let r = Registry::new();
        r.counter("t_all_total").add(4);
        let engine = ratio_engine(0.25);
        engine.record_sample(&r);
        let a = engine.render_report();
        let b = engine.render_report();
        assert_eq!(a, b);
        assert!(a.starts_with("slo report: 1 specs, 1 samples"));
        assert!(a.contains("slo test_ratio: current=0.0000"));
    }

    #[test]
    fn empty_history_reports_cleanly() {
        let engine = ratio_engine(0.1);
        let s = &engine.evaluate()[0];
        assert_eq!(s.current, 0.0);
        assert!(!s.alert);
    }
}
