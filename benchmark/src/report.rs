//! The `run` and `compare` subcommands: repeated runs in child processes,
//! their medians and quartiles, the result file, the history line, and the
//! spread-aware comparison of two result files.

use crate::json::{self, obj, Value};
use crate::run::out_dir;
use crate::spec::{Workload, END_TO_END};
use crate::stats::Spread;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, one level above the package.
pub fn load_benchmark_json() -> io::Result<Value> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)?;
    json::parse(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

pub struct RunOpts {
    pub seed: u64,
    pub repeat: usize,
    /// Window length in seconds.
    pub seconds: u64,
    pub workloads: Vec<Workload>,
}

/// Run one workload in a child process, so that its peak memory is its own,
/// and return the parsed result line.
fn child_run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> io::Result<Value> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.spec().name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("broken expectation"))
    {
        println!("{} seed {seed}: {line}", workload.spec().name);
    }
    let last = stdout.lines().last().unwrap_or_default();
    let value = json::parse(last).map_err(|e| {
        io::Error::other(format!(
            "{} (seed {seed}) printed no result ({}): {e}",
            workload.spec().name,
            out.status
        ))
    })?;
    Ok(value)
}

fn metric_values(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(name, v)| {
                    let value = v.get("value")?.as_f64()?;
                    let unit = v.get("unit")?.as_str()?.to_string();
                    Some((name.clone(), (value, unit)))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(manifest_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `run`: every workload `repeat` times untraced (seeds `seed`, `seed+1`,
/// …) and once traced; prints every metric, writes the result file, appends
/// the history line. Returns whether every run was correct.
pub fn cmd_run(opts: &RunOpts) -> io::Result<bool> {
    let mut all_correct = true;
    let mut workloads_json = BTreeMap::new();
    let mut medians_json = BTreeMap::new();
    for &workload in &opts.workloads {
        let spec = workload.spec();
        println!("## {}\nexpected: {}", spec.name, spec.expected);
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for k in 0..opts.repeat {
            let r = child_run(workload, opts.seed + k as u64, opts.seconds, false)?;
            all_correct &= r.get("correct").and_then(Value::as_bool) == Some(true);
            attempted += r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            for (name, (v, _)) in metric_values(&r) {
                values.entry(name).or_default().push(v);
            }
        }
        let mut e2e = BTreeMap::new();
        let mut medians = BTreeMap::new();
        println!(
            "{:<28} {:>6} {:>13} {:>13} {:>13} {:>8} {:>3}",
            "end-to-end", "unit", "median", "q1", "q3", "spread", "n"
        );
        for (name, unit) in END_TO_END {
            let v = values.get(name).map(Vec::as_slice).unwrap_or_default();
            let s = Spread::of(v);
            println!(
                "{:<28} {:>6} {:>13.4} {:>13.4} {:>13.4} {:>7.1}% {:>3}",
                name,
                unit,
                s.median,
                s.q1,
                s.q3,
                s.relative() * 100.0,
                s.n
            );
            medians.insert(name.to_string(), Value::Num(s.median));
            e2e.insert(
                name.to_string(),
                obj([
                    ("unit", Value::Str(unit.into())),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("n", Value::Num(s.n as f64)),
                    (
                        "values",
                        Value::Arr(v.iter().copied().map(Value::Num).collect()),
                    ),
                ]),
            );
        }
        println!(
            "failed_share {failed}/{attempted} = {:.6}",
            failed / f64::max(attempted, 1.0)
        );

        let traced = child_run(workload, opts.seed, opts.seconds, true)?;
        all_correct &= traced.get("correct").and_then(Value::as_bool) == Some(true);
        println!(
            "{:<44} {:>6} {:>16}",
            "per-layer (traced run)", "unit", "value"
        );
        let layer = metric_values(&traced);
        for (name, (v, unit)) in &layer {
            println!("{name:<44} {unit:>6} {v:>16.4}");
        }
        workloads_json.insert(
            spec.name.to_string(),
            obj([
                ("end_to_end", Value::Obj(e2e)),
                (
                    "per_layer",
                    obj(layer.into_iter().map(|(name, (v, unit))| {
                        (
                            name,
                            obj([("value", Value::Num(v)), ("unit", Value::Str(unit))]),
                        )
                    })),
                ),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
            ]),
        );
        medians_json.insert(spec.name.to_string(), Value::Obj(medians));
    }

    let head = |rest: Vec<(&str, Value)>| {
        let mut pairs = vec![
            ("commit", Value::Str(git_commit())),
            ("seed", Value::Num(opts.seed as f64)),
            ("seconds", Value::Num(opts.seconds as f64)),
            ("repeat", Value::Num(opts.repeat as f64)),
        ];
        pairs.extend(rest);
        obj(pairs)
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("result-seed{}.json", opts.seed));
    std::fs::write(
        &path,
        head(vec![("workloads", Value::Obj(workloads_json))]).render() + "\n",
    )?;
    println!("result written to {}", path.display());
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(manifest_dir().join("history.jsonl"))?;
    writeln!(
        history,
        "{}",
        head(vec![("medians", Value::Obj(medians_json))]).render()
    )?;
    Ok(all_correct)
}

/// `compare a.json b.json`: apply the bounds recorded in `BENCHMARK.json`
/// to every end-to-end metric of every workload. A metric whose quartile
/// spread on either side exceeds its bound is `unresolved`, never
/// `unchanged`. Returns whether nothing regressed.
pub fn cmd_compare(a: &Path, b: &Path) -> io::Result<bool> {
    let load = |p: &Path| -> io::Result<Value> {
        json::parse(&std::fs::read_to_string(p)?)
            .map_err(|e| io::Error::other(format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a)?, load(b)?);
    let bench = load_benchmark_json()?;
    let mut ok = true;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for spec in bench
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
    {
        let name = spec.get("name").and_then(Value::as_str).unwrap_or_default();
        let bound = spec.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let lower_is_better = spec.get("better").and_then(Value::as_str) != Some("higher");
        let Some(workloads) = a.get("workloads").and_then(Value::as_obj) else {
            continue;
        };
        for (workload, wa) in workloads {
            let side = |w: &Value| -> Option<(f64, f64)> {
                let m = w.get("end_to_end")?.get(name)?;
                let spread = Spread {
                    n: m.get("n")?.as_f64()? as usize,
                    median: m.get("median")?.as_f64()?,
                    q1: m.get("q1")?.as_f64()?,
                    q3: m.get("q3")?.as_f64()?,
                };
                Some((spread.median, spread.relative()))
            };
            let wb = b.get("workloads").and_then(|w| w.get(workload));
            let (Some((ma, sa)), Some((mb, sb))) = (side(wa), wb.and_then(side)) else {
                println!("{workload:<14} {name:<26} missing on one side");
                ok = false;
                continue;
            };
            // Positive: b is worse than a, as a share of a's median.
            let delta = if lower_is_better { mb - ma } else { ma - mb };
            let worse = delta / ma.abs().max(1e-300);
            let spread = sa.max(sb);
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{workload:<14} {name:<26} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {verdict}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}
