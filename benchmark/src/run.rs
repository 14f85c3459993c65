//! One run of one workload in this process: set-up, warm-up, the measured
//! window, the checks, and — in a traced run — the replay.

use crate::gen::Inputs;
use crate::harness::{peak_rss_mb, Harness, Samples, Timed};
use crate::json::{obj, Value};
use crate::replay::{replay, Metrics};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::write_jsonl;
use crate::workloads::script_for;
use bate_obs::Registry;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the untraced measured window.
    pub seconds: f64,
    pub traced: bool,
}

/// One reported number and how many samples stand behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// End-to-end metrics: the same statistic over the samples as the clock
    /// read them, before scaling to reference speed.
    pub clock: Option<f64>,
    pub samples: usize,
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Share of the window's verdicts that were rejections.
    pub rejected_share: f64,
    /// The speed probe's readings in the window: `[p10, p50, p90]`, µs.
    pub probe_us: [f64; 3],
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads.
    pub fn to_json(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    let v = obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]);
                    (m.name, v)
                })),
            ),
        ])
    }
}

/// The directory results and traces are written to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Warm-up before a window of `seconds`: 3 s, less for short windows.
fn warmup_for(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.15).clamp(1.0, 3.0))
}

/// Set-up is repeated until this much time has gone into it (and at least
/// three times), so that `setup_s` is a median even where one set-up takes
/// milliseconds.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
const SETUP_MAX_REPS: usize = 101;

/// Above this generator lateness an open-loop run measures the generator.
const LATE_P99_LIMIT_MS: f64 = 5.0;

/// The controller's own exports the benchmark reads, as a snapshot.
struct CtrlExports {
    batches: f64,
    batch_sum: f64,
    warm_solves: f64,
}

impl CtrlExports {
    fn read() -> CtrlExports {
        let r = Registry::global();
        let sizes = r.histogram("bate_admission_batch_size");
        CtrlExports {
            batches: sizes.count() as f64,
            batch_sum: sizes.sum(),
            warm_solves: r.counter("bate_ctrl_batch_warm_solves_total").get() as f64,
        }
    }

    fn since(&self, earlier: &CtrlExports) -> CtrlExports {
        CtrlExports {
            batches: self.batches - earlier.batches,
            batch_sum: self.batch_sum - earlier.batch_sum,
            warm_solves: self.warm_solves - earlier.warm_solves,
        }
    }

    fn batch_mean(&self) -> f64 {
        self.batch_sum / self.batches.max(1.0)
    }
}

/// What one socket phase leaves behind.
struct Phase {
    harness: Harness,
    /// `[at reference speed, by the clock]` of every set-up.
    setup_s: Vec<[f64; 2]>,
    exports: CtrlExports,
}

/// Set up (repeatedly when `time_setup`), warm up, and measure for `seconds`.
fn socket_phase(
    cfg: &RunConfig,
    seconds: f64,
    traced: bool,
    time_setup: bool,
) -> io::Result<Phase> {
    let spec = cfg.workload.spec();
    // Every phase of a run warms up alike, so that phases compare.
    let warmup = warmup_for(cfg.seconds);
    let topo = (spec.topology)();
    let horizon = warmup.as_secs_f64() + seconds + 10.0;
    let mut inputs = Inputs::new(cfg.workload, &topo, cfg.seed, horizon);

    let mut setup_s = Vec::new();
    let spent = Instant::now();
    let mut h = loop {
        let (h, took_s) = Harness::start(cfg.workload, &inputs.prefill, traced)?;
        setup_s.push(took_s);
        let enough = setup_s.len() >= 3 && spent.elapsed() >= SETUP_BUDGET;
        if !time_setup || enough || setup_s.len() >= SETUP_MAX_REPS {
            break h;
        }
    };

    let mut script = script_for(cfg.workload, &mut h);
    let mut run_for = |h: &mut Harness, d: Duration| -> io::Result<()> {
        let end = Instant::now() + d;
        while Instant::now() < end {
            script.step(h, &mut inputs)?;
        }
        h.wait_idle()
    };
    run_for(&mut h, warmup)?;
    let before = CtrlExports::read();
    h.begin_window()?;
    run_for(&mut h, Duration::from_secs_f64(seconds))?;
    h.end_window()?;
    let exports = CtrlExports::read().since(&before);
    Ok(Phase {
        harness: h,
        setup_s,
        exports,
    })
}

/// The end-to-end metrics of one window, every time at reference speed
/// and, beside it, by the clock. A closed loop's throughput is scaled too:
/// its window is as many seconds long as the machine would have taken at
/// reference speed. An open loop's rate is the schedule's, whatever the
/// machine does.
fn end_to_end(workload: Workload, s: &Samples, setup_s: &[[f64; 2]]) -> Vec<Metric> {
    let window_s = if workload.spec().closed_loop {
        s.ref_seconds
    } else {
        s.seconds
    };
    let timed = |set: Timed, q: f64| {
        let (at_ref, clock) = (s.ms(set), s.clock_ms(set));
        (quantile(at_ref, q), quantile(clock, q), clock.len())
    };
    let of = |name: &'static str| -> (f64, f64, usize) {
        match name {
            "setup_s" => {
                let [at_ref, clock] =
                    [0, 1].map(|i| setup_s.iter().map(|t| t[i]).collect::<Vec<_>>());
                (median(&at_ref), median(&clock), setup_s.len())
            }
            "verdict_p50_ms" => timed(Timed::Verdict, 0.5),
            "verdict_p90_ms" => timed(Timed::Verdict, 0.9),
            "install_p50_ms" => timed(Timed::Install, 0.5),
            "submit_throughput_per_s" => {
                let n = s.verdicts as f64;
                (n / window_s, n / s.seconds, s.verdicts as usize)
            }
            "round_p50_ms" => timed(Timed::Round, 0.5),
            "round_p90_ms" => timed(Timed::Round, 0.9),
            "churn_p50_ms" => timed(Timed::Churn, 0.5),
            "recovery_p50_ms" => timed(Timed::Recovery, 0.5),
            "repair_p50_ms" => timed(Timed::Repair, 0.5),
            other => unreachable!("no definition for end-to-end metric {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, clock, samples) = of(name);
            Metric {
                name,
                unit,
                value,
                clock: Some(clock),
                samples,
            }
        })
        .collect()
}

/// Check a finished window against what the workload declared.
fn check_expectations(workload: Workload, s: &Samples, exports: &CtrlExports) -> Vec<String> {
    let spec = workload.spec();
    let mut broken = Vec::new();
    let rejected = s.rejected_share();
    let (lo, hi) = spec.rejected_share;
    if rejected < lo || rejected > hi {
        broken.push(format!("rejected share {rejected:.4} outside [{lo}, {hi}]"));
    }
    let batch = exports.batch_mean();
    if batch < spec.min_batch_mean {
        broken.push(format!(
            "mean admission batch {batch:.2} below {}",
            spec.min_batch_mean
        ));
    }
    for (name, set) in [
        ("verdict", Timed::Verdict),
        ("install", Timed::Install),
        ("round", Timed::Round),
        ("churn", Timed::Churn),
        ("recovery", Timed::Recovery),
        ("repair", Timed::Repair),
    ] {
        if s.ms(set).is_empty() {
            broken.push(format!("no {name} sample in the window"));
        }
    }
    broken
}

pub fn run(cfg: &RunConfig) -> io::Result<RunResult> {
    if cfg.traced {
        return run_traced(cfg);
    }
    let phase = socket_phase(cfg, cfg.seconds, false, true)?;
    let s = &phase.harness.samples;
    let mut notes = s.notes.clone();
    let broken = check_expectations(cfg.workload, s, &phase.exports);
    let failed = s.failed + broken.len() as u64;
    notes.extend(broken);
    Ok(RunResult {
        metrics: end_to_end(cfg.workload, s, &phase.setup_s),
        attempted: s.attempted,
        failed,
        rejected_share: s.rejected_share(),
        probe_us: probe_deciles(s),
        notes,
    })
}

fn probe_deciles(s: &Samples) -> [f64; 3] {
    [0.1, 0.5, 0.9].map(|q| quantile(&s.probe_us, q))
}

/// The traced run: half the window with spans and logs on and the replay,
/// between two untraced quarter windows for the overhead comparison (one
/// before and one after, so that a drift of the machine cancels). The
/// windows are shorter than the untraced run's so that the whole stays
/// inside the driver's time cap.
fn run_traced(cfg: &RunConfig) -> io::Result<RunResult> {
    let spec = cfg.workload.spec();
    let headline = |phase: &Phase| {
        end_to_end(cfg.workload, &phase.harness.samples, &phase.setup_s)
            .iter()
            .find(|x| x.name == spec.headline)
            .map_or(0.0, |x| x.value)
    };
    let untraced_before = headline(&socket_phase(cfg, cfg.seconds / 4.0, false, false)?);
    // Read before tracing adds its logs and spans to the process.
    let untraced_rss_mb = peak_rss_mb();
    let mut phase = socket_phase(cfg, cfg.seconds / 2.0, true, false)?;
    // The controller's exports, before the replay adds to the same
    // process-wide registry.
    let admit_p50_us = Registry::global()
        .histogram("bate_admission_latency_us")
        .p50();
    let h = &mut phase.harness;
    let mut rec = h.rec.take().expect("traced harness records");
    let replayed = replay(
        cfg.workload,
        &mut rec,
        &h.verdicts,
        &h.samples,
        [&h.client, &h.probe],
    );
    let s = &h.samples;

    let mut m: Metrics = replayed.metrics;
    m.insert("peak_rss_mb", untraced_rss_mb);
    m.insert("sim.loadgen.offered_per_s", s.submits as f64 / s.seconds);
    m.insert("sim.loadgen.late_p99_ms", quantile(&s.late_ms, 0.99));
    m.insert("sim.loadgen.outstanding_max", s.outstanding_max as f64);
    m.insert("bench.speed_probe_p50_us", median(&s.probe_us));
    m.insert(
        "bench.speed_probe_p90_p10_ratio",
        quantile(&s.probe_us, 0.9) / quantile(&s.probe_us, 0.1),
    );
    m.insert("system.client.send_us", median(&s.send_us));
    m.insert("system.client.wait_us", median(&s.wait_us));
    m.insert(
        "system.client.verdict_p99_ms",
        quantile(s.ms(Timed::Verdict), 0.99),
    );
    m.insert("system.controller.batches", phase.exports.batches);
    m.insert(
        "system.controller.batch_size_mean",
        phase.exports.batch_mean(),
    );
    m.insert("system.controller.warm_solves", phase.exports.warm_solves);
    m.insert("system.controller.admit_latency_p50_us", admit_p50_us);
    m.insert(
        "system.controller.installs_per_admit",
        s.installs as f64 / s.admitted.max(1) as f64,
    );

    let mut notes = s.notes.clone();
    notes.extend(replayed.notes);
    let broken = check_expectations(cfg.workload, s, &phase.exports);
    let late = m["sim.loadgen.late_p99_ms"];
    if late > LATE_P99_LIMIT_MS {
        // Not a failed operation: one 100 ms hiccup of the machine in a
        // 10 s window is enough to cross the limit.
        eprintln!(
            "warning: generator lateness p99 {late:.2} ms above {LATE_P99_LIMIT_MS} ms; \
             this run's open-loop latencies include the generator's own delay"
        );
    }
    let failed = s.failed + replayed.failed + broken.len() as u64;
    let (attempted, rejected_share) = (s.attempted, s.rejected_share());
    let probe_us = probe_deciles(s);
    notes.extend(broken);
    write_jsonl(
        &out_dir().join(format!("{}.trace.jsonl", spec.name)),
        &rec.spans,
    )?;
    // Same workload and seed with tracing off: the difference in the
    // workload's headline metric is what tracing cost.
    let traced = headline(&phase);
    drop(phase);
    let untraced_after = headline(&socket_phase(cfg, cfg.seconds / 4.0, false, false)?);
    let untraced = (untraced_before + untraced_after) / 2.0;
    m.insert(
        "obs.trace_overhead_pct",
        (traced - untraced) / untraced.max(1e-12) * 100.0,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: *m
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} not computed")),
            clock: None,
            samples: 0,
        })
        .collect();
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        rejected_share,
        probe_us,
        notes,
    })
}
