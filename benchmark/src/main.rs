//! `bate-benchmark`: see `README.md`.
//!
//! ```text
//! bate-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! bate-benchmark run [--seed N] [--repeat K] [--quick] [--workload W]
//! bate-benchmark compare <a.json> <b.json>
//! ```

use bate_benchmark::json::Value;
use bate_benchmark::report::{cmd_compare, cmd_run, load_benchmark_json, RunOpts};
use bate_benchmark::run::{run, RunConfig};
use bate_benchmark::spec::{Workload, WORKLOADS};
use bate_benchmark::speed::{pin_to_one_cpu, PROBE_REF_US};
use std::path::Path;
use std::process::ExitCode;

/// Window length of `run --quick`, seconds.
const QUICK_SECONDS: u64 = 5;

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{key} needs a value")),
            },
        }
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)?
            .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {key}")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.value("--workload")?
            .map(|name| Workload::from_name(name).ok_or(format!("unknown workload {name:?}")))
            .transpose()
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let io = |e: std::io::Error| e.to_string();
    match args.0.first().map(String::as_str) {
        Some("run") => {
            let seconds = if args.0.iter().any(|a| a == "--quick") {
                QUICK_SECONDS
            } else {
                load_benchmark_json()
                    .map_err(io)?
                    .get("run_seconds")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json has no run_seconds")? as u64
            };
            let opts = RunOpts {
                seed: args.number("--seed")?.unwrap_or(1),
                repeat: args.number("--repeat")?.unwrap_or(1),
                seconds,
                workloads: args.workload()?.map_or(WORKLOADS.to_vec(), |w| vec![w]),
            };
            cmd_run(&opts).map_err(io)
        }
        Some("compare") => match &args.0[1..] {
            [a, b] => cmd_compare(Path::new(a), Path::new(b)).map_err(io),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        _ => {
            // Before any thread starts, so that every thread inherits it.
            match pin_to_one_cpu() {
                Some(cpu) => println!("pinned to cpu {cpu}"),
                None => eprintln!("bate-benchmark: cannot set CPU affinity, running unpinned"),
            }
            let cfg = RunConfig {
                workload: args.workload()?.ok_or("--workload is required")?,
                seed: args.number("--seed")?.ok_or("--seed is required")?,
                seconds: args.number("--seconds")?.ok_or("--seconds is required")?,
                traced: args.number::<u8>("--trace")?.ok_or("--trace is required")? != 0,
            };
            let result = run(&cfg).map_err(io)?;
            for m in &result.metrics {
                print!("{:<44} {:>16.6} {:<6}", m.name, m.value, m.unit);
                if m.samples > 0 {
                    print!(" n={}", m.samples);
                }
                if let Some(clock) = m.clock {
                    print!(" (by the clock: {clock:.6})");
                }
                println!();
            }
            println!(
                "attempted {}, failed {}, rejected share {:.4}",
                result.attempted, result.failed, result.rejected_share
            );
            let [p10, p50, p90] = result.probe_us;
            println!(
                "speed probe {p50:.1} us (p10 {p10:.1}, p90 {p90:.1}); times are at reference speed, \
                 probe = {PROBE_REF_US} us"
            );
            for note in &result.notes {
                println!("broken expectation: {note}");
            }
            println!("{}", result.to_json().render());
            Ok(result.correct())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bate-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
