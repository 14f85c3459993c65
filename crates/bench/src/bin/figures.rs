//! Regenerate the paper's tables and figures as text series.
//!
//! ```text
//! figures [quick|full] [artifact ...]
//! ```
//!
//! Artifacts: `fig2 table3 fig7a fig7b fig7cd fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 storm`, or `all`
//! (default). `quick` (default) uses shortened horizons/fewer seeds; `full`
//! approaches the paper's sweep sizes and runs for tens of minutes.

use bate_bench::experiments::{
    ablations, admission_exp, failures_exp, motivating, profit, pruning_exp, satisfaction,
    storm_exp,
};
use bate_sim::metrics::ecdf;

struct Effort {
    seeds: Vec<u64>,
    horizon_min: f64,
    max_rate: usize,
    pruning_depth: usize,
    fig10_runs: usize,
    fig11_runs: usize,
}

impl Effort {
    fn quick() -> Effort {
        Effort {
            seeds: vec![1, 2],
            horizon_min: 10.0,
            max_rate: 4,
            pruning_depth: 3,
            fig10_runs: 10,
            fig11_runs: 8,
        }
    }

    fn full() -> Effort {
        Effort {
            seeds: vec![1, 2, 3, 4, 5],
            horizon_min: 100.0,
            max_rate: 6,
            pruning_depth: 4,
            fig10_runs: 100,
            fig11_runs: 30,
        }
    }
}

fn header(name: &str, caption: &str) {
    println!("\n=== {name}: {caption} ===");
}

fn case_studies(cases: &[motivating::CaseStudy]) {
    for case in cases {
        println!("--- {} ---", case.algorithm);
        for (id, path, rate) in &case.rows {
            println!("  demand-{id}  {path:<40} {rate:>9.1} Mbps");
        }
        for (id, target, achieved) in &case.availability {
            let ok = if achieved >= target { "✓" } else { "✗" };
            println!(
                "  demand-{id}  target {:>8.4}%  achieved {:>9.5}%  {ok}",
                target * 100.0,
                achieved * 100.0
            );
        }
    }
}

/// A row's note of the OPT checks a limit decided (booked as rejections),
/// when there are any.
fn undecided(count: usize) -> String {
    match count {
        0 => String::new(),
        n => format!("  (OPT undecided: {n})"),
    }
}

fn print_cdf(name: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("  {name:<8}  (no samples)");
        return;
    }
    let points = ecdf(samples);
    print!("  {name:<8}");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let idx = ((points.len() as f64 * q).ceil() as usize).clamp(1, points.len()) - 1;
        print!("  p{:<3.0}={:.4}", q * 100.0, points[idx].0);
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::quick();
    let mut artifacts: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "quick" => effort = Effort::quick(),
            "full" => effort = Effort::full(),
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() || artifacts.iter().any(|a| a == "all") {
        artifacts = [
            "fig2", "table3", "fig7a", "fig7b", "fig7cd", "fig8", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig18", "fig19", "fig20", "storm", "ablations",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    for artifact in &artifacts {
        match artifact.as_str() {
            "fig2" => {
                header("Fig. 2", "motivating example allocations (toy 4-DC)");
                case_studies(&motivating::fig2());
            }
            "table3" | "fig9" => {
                header("Table 3 / Fig. 9", "three parallel demands on the testbed");
                case_studies(&motivating::table3());
            }
            "fig7a" => {
                header("Fig. 7(a)", "rejection ratio vs demand size");
                println!(
                    "  {:>6}  {:>8}  {:>8}  {:>8}",
                    "Mbps", "Fixed", "BATE", "OPT"
                );
                for r in admission_exp::fig7a(effort.horizon_min, &effort.seeds) {
                    println!(
                        "  {:>6.0}  {:>7.1}%  {:>7.1}%  {:>7.1}%{}",
                        r.demand_mbps,
                        r.fixed * 100.0,
                        r.bate * 100.0,
                        r.optimal * 100.0,
                        undecided(r.opt_undecided)
                    );
                }
            }
            "fig7b" => {
                header("Fig. 7(b)", "satisfaction by availability target");
                println!(
                    "  {:>8}  {:>8}  {:>14}  {:>11}",
                    "target", "BATE", "TEAVAR-Fixed", "FFC-Fixed"
                );
                for r in satisfaction::fig7b(effort.horizon_min, &effort.seeds) {
                    println!(
                        "  {:>7.2}%  {:>7.1}%  {:>13.1}%  {:>10.1}%",
                        r.target * 100.0,
                        r.bate * 100.0,
                        r.teavar_fixed * 100.0,
                        r.ffc_fixed * 100.0
                    );
                }
            }
            "fig7cd" => {
                header("Fig. 7(c)/(d)", "profit loss / overall profit gain");
                println!(
                    "  {:>8} {:>8}  {:>10}  {:>10}",
                    "admit", "TE", "loss", "gain"
                );
                for c in profit::fig7cd(effort.horizon_min, &effort.seeds) {
                    println!(
                        "  {:>8} {:>8}  {:>9.2}%  {:>9.1}%{}",
                        c.admission,
                        c.te,
                        c.profit_loss * 100.0,
                        c.profit_gain * 100.0,
                        undecided(c.opt_undecided)
                    );
                }
            }
            "fig8" => {
                header("Fig. 8", "delivered/demanded bandwidth ratio CDF");
                for (name, samples) in satisfaction::fig8(effort.horizon_min, effort.seeds[0]) {
                    print_cdf(name, &samples);
                }
            }
            "fig10" => {
                header("Fig. 10", "link failure counts");
                for (link, count) in failures_exp::fig10(effort.fig10_runs, 100.0) {
                    println!("  {link:<4} {count:>6}");
                }
            }
            "fig11" => {
                header("Fig. 11", "data loss ratio CDF");
                for (name, losses) in failures_exp::fig11(effort.fig11_runs, 5.0) {
                    print_cdf(name, &losses);
                }
            }
            "fig12" => {
                header("Fig. 12", "admission control in simulation (B4)");
                println!(
                    "  {:>4}  {:>21}  {:>21}  {:>26}  {:>13}",
                    "rate",
                    "rejection F/B/O",
                    "utilization F/B/O",
                    "delay ms F/B/O",
                    "conj.err F/B"
                );
                for r in admission_exp::fig12(effort.max_rate.min(4), effort.horizon_min, 1) {
                    println!(
                        "  {:>4.0}  {:>6.1}%/{:>5.1}%/{:>5.1}%  {:>6.1}%/{:>5.1}%/{:>5.1}%  {:>8.2}/{:>7.2}/{:>7.2}  {:>5.1}%/{:>5.1}%{}",
                        r.arrivals_per_min,
                        r.rejection[0] * 100.0,
                        r.rejection[1] * 100.0,
                        r.rejection[2] * 100.0,
                        r.utilization[0] * 100.0,
                        r.utilization[1] * 100.0,
                        r.utilization[2] * 100.0,
                        r.delay_ms[0],
                        r.delay_ms[1],
                        r.delay_ms[2],
                        r.conjecture_error[0] * 100.0,
                        r.conjecture_error[1] * 100.0,
                        undecided(r.opt_undecided),
                    );
                }
            }
            "fig13" | "fig14" => {
                let fixed = artifact == "fig14";
                header(
                    if fixed { "Fig. 14" } else { "Fig. 13" },
                    if fixed {
                        "satisfaction vs arrival rate (fixed admission)"
                    } else {
                        "satisfaction vs arrival rate"
                    },
                );
                let series = if fixed {
                    satisfaction::fig14(effort.max_rate, &effort.seeds)
                } else {
                    satisfaction::fig13(effort.max_rate, &effort.seeds)
                };
                print!("  {:<6}", "rate");
                for s in &series {
                    print!("{:>9}", s.algorithm);
                }
                println!();
                for i in 0..series[0].points.len() {
                    print!("  {:<6.0}", series[0].points[i].0);
                    for s in &series {
                        print!("{:>8.1}%", s.points[i].1 * 100.0);
                    }
                    println!();
                }
            }
            "fig15" => {
                header("Fig. 15", "profit gain after failures");
                let rows = profit::fig15(&[1, 3, 5], &effort.seeds);
                print!("  {:<6}", "rate");
                for (name, _) in &rows[0].gains {
                    print!("{:>9}", name);
                }
                println!();
                for r in &rows {
                    print!("  {:<6.0}", r.arrivals_per_min);
                    for (_, g) in &r.gains {
                        print!("{:>8.1}%", g * 100.0);
                    }
                    println!();
                }
            }
            "fig16" | "fig17" => {
                header("Fig. 16/17", "pruning: bandwidth loss and scheduling time");
                println!(
                    "  {:>6} {:>3}  {:>12}  {:>10}  {:>9}",
                    "topo", "y", "total bw", "loss", "time"
                );
                for c in pruning_exp::fig16_17(effort.pruning_depth, 17) {
                    println!(
                        "  {:>6} {:>3}  {:>12.1}  {:>9.2}%  {:>8.3}s",
                        c.topology,
                        c.max_failures,
                        c.total_bandwidth,
                        c.bandwidth_loss * 100.0,
                        c.solve_secs
                    );
                }
            }
            "fig18" => {
                header("Fig. 18", "routing-scheme robustness (B4)");
                for s in satisfaction::fig18(effort.max_rate.min(4), &effort.seeds) {
                    print!("  {:<14}", s.algorithm);
                    for (rate, v) in &s.points {
                        print!("  r{rate:.0}={:.1}%", v * 100.0);
                    }
                    println!();
                }
            }
            "fig19" | "fig21" => {
                header(
                    "Fig. 19/21",
                    "greedy recovery: approximation ratio & speedup",
                );
                println!("  {:>4}  {:>12}  {:>10}", "rate", "OPT/greedy", "speedup");
                for r in profit::fig19_21(&[1, 2, 3, 4], &effort.seeds) {
                    println!(
                        "  {:>4.0}  {:>12.3}  {:>9.1}x",
                        r.arrivals_per_min, r.approx_ratio, r.speedup
                    );
                }
            }
            "fig20" => {
                header("Fig. 20", "satisfaction vs link repair time");
                println!(
                    "  {:>6}  {:>8}  {:>8}  {:>8}",
                    "secs", "BATE", "TEAVAR", "FFC"
                );
                for r in failures_exp::fig20(
                    &[0.5, 1.0, 2.0, 3.0, 4.0],
                    effort.horizon_min,
                    &effort.seeds,
                ) {
                    println!(
                        "  {:>6.1}  {:>7.1}%  {:>7.1}%  {:>7.1}%",
                        r.failure_secs,
                        r.bate * 100.0,
                        r.teavar * 100.0,
                        r.ffc * 100.0
                    );
                }
            }
            "storm" => {
                header("Storm", "recovery-storm BA/profit/latency deltas (§6x)");
                println!(
                    "  {:>8} {:>6}  {:>11} {:>11}  {:>9} {:>9}  {:>9} {:>9}",
                    "topo", "groups", "P(joint)", "P(indep)", "retained", "milp gap", "greedy ms", "milp ms"
                );
                for d in storm_exp::storm_deltas(&effort.seeds) {
                    println!(
                        "  {:>8} {:>6}  {:>11.3e} {:>11.3e}  {:>8.1}% {:>8.2}%  {:>9.3} {:>9.3}",
                        d.topology,
                        d.srlg_groups,
                        d.scenario_probability,
                        d.independent_probability,
                        d.greedy_retention * 100.0,
                        d.milp_gap * 100.0,
                        d.greedy_ms,
                        d.milp_ms
                    );
                }
            }
            "ablations" => {
                header("Ablations", "reproduction design choices");
                let ab = ablations::collapse_ablation(2, 17);
                println!(
                    "  scenario collapsing on {}: {} scenarios -> {} states; \
                     {:.3}s vs naive {:.3}s ({} naive vars); objective gap {:.2e}",
                    ab.topology,
                    ab.scenarios,
                    ab.collapsed_states,
                    ab.collapsed_secs,
                    ab.naive_secs,
                    ab.naive_vars,
                    ab.objective_gap
                );
                let h = ablations::harden_ablation(&effort.seeds);
                println!(
                    "  hardening: {} demands, hard violations {} -> {}",
                    h.demands, h.violations_before, h.violations_after
                );
                println!("  congested links by shadow price:");
                for (link, price) in ablations::shadow_prices(17, 5) {
                    println!("    {link:<12} {price:.4}");
                }
            }
            other => eprintln!("unknown artifact: {other}"),
        }
    }
}
