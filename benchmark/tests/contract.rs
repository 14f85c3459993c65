//! The benchmark's contract with its driver: what one invocation prints,
//! and that the generated inputs are a function of the seed alone.

use bate_benchmark::gen::schedule_hash;
use bate_benchmark::json::{self, Value};
use bate_benchmark::report::load_benchmark_json;
use bate_benchmark::spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// The quick runs take turns: side by side on two cores they would push
/// each other's open-loop generator past its lateness limit.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark as the driver does, with a 5 s window.
fn invoke(workload: Workload, traced: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bate-benchmark"))
        .args([
            "--workload",
            workload.spec().name,
            "--seed",
            "7",
            "--seconds",
            "5",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} exited with {}:\n{stdout}\n{}",
        workload.spec().name,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn check_result(result: &Value, expected: &BTreeMap<String, String>) {
    let keys: Vec<&String> = result.as_obj().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("a number")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let names: Vec<&String> = metrics.keys().collect();
    assert_eq!(names, expected.keys().collect::<Vec<_>>());
    for (name, m) in metrics {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(expected[name].as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
}

fn quick_run(workload: Workload) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let bench = load_benchmark_json().expect("BENCHMARK.json parses");
    let e2e = declared(&bench, "end_to_end");
    let untraced = invoke(workload, false);
    check_result(&untraced, &e2e);
    for (name, m) in untraced
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
    {
        let value = m.get("value").and_then(Value::as_f64).expect("checked");
        assert!(
            value > 0.0,
            "end-to-end metric {name} must never be 0, got {value}"
        );
    }
    check_result(&invoke(workload, true), &declared(&bench, "per_layer"));
}

#[test]
fn open_light_quick_run_emits_every_metric() {
    quick_run(Workload::OpenLight);
}

#[test]
fn burst_batched_quick_run_emits_every_metric() {
    quick_run(Workload::BurstBatched);
}

#[test]
fn contended_mix_quick_run_emits_every_metric() {
    quick_run(Workload::ContendedMix);
}

#[test]
fn wan_cycle_quick_run_emits_every_metric() {
    quick_run(Workload::WanCycle);
}

#[test]
fn benchmark_json_lists_what_the_harness_emits() {
    let bench = load_benchmark_json().expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| -> BTreeMap<String, String> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), table(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), table(&PER_LAYER));
    let names: Vec<&str> = bench
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.spec().name));
    assert_eq!(
        bench.get("paths").map(Value::as_arr).unwrap_or_default(),
        [Value::Str("benchmark".into())]
    );
}

#[test]
fn frame_schedule_is_a_function_of_the_seed() {
    for w in WORKLOADS {
        assert_eq!(
            schedule_hash(w, 42),
            schedule_hash(w, 42),
            "{}",
            w.spec().name
        );
        assert_ne!(
            schedule_hash(w, 42),
            schedule_hash(w, 43),
            "{}",
            w.spec().name
        );
    }
}
