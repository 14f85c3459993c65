//! Golden traces for the shaped workloads and the recovery storm
//! (solve_stats_golden.rs style): seeded runs are pinned bit-for-bit, so
//! any drift in the RNG streams, the diurnal/flash shaping, the SRLG event
//! model, or the storm timeline shows up as a diff, not a flake. All
//! latencies are pinned to zero (`measure_time = false`), which makes
//! every pinned string a pure function of the seed.
//!
//! To regenerate after an intentional change:
//! `cargo test -p bate-sim --test golden_traces -- --ignored --nocapture`

use bate_core::TeContext;
use bate_net::{topologies, GroupId, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use bate_sim::storm::{self, StormConfig, StormReport};
use bate_sim::workload::{self, RateShape, WorkloadConfig};
use std::fmt::Write as _;

/// First arrivals of the seeded diurnal/flash workload, one line per
/// demand: `t=<s> pair=<p> bw=<Mbps> beta=<target> dur=<s>`.
fn demand_trace(topo: &Topology, seed: u64, minutes: usize, take: usize) -> String {
    let tunnels = TunnelSet::compute(topo, RoutingScheme::Ksp(2));
    let cfg = WorkloadConfig {
        shape: RateShape::exp2(),
        ..WorkloadConfig::testbed(vec![0, 1, 2], seed)
    };
    let arrivals = workload::generate(&cfg, &tunnels, minutes as f64 * 60.0);
    let mut out = String::new();
    let _ = writeln!(out, "arrivals={}", arrivals.len());
    for a in arrivals.iter().take(take) {
        let (pair, bw) = a.demand.bandwidth[0];
        let _ = writeln!(
            out,
            "t={:.3} pair={} bw={:.3} beta={} dur={:.3}",
            a.arrival_time, pair, bw, a.demand.beta, a.duration
        );
    }
    out
}

fn storm_timeline(topo: &Topology, y: usize, groups: Vec<GroupId>, seed: u64) -> String {
    let tunnels = TunnelSet::compute(topo, RoutingScheme::Ksp(2));
    let scenarios = ScenarioSet::enumerate(topo, y);
    let ctx = TeContext::new(topo, &tunnels, &scenarios);
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| !tunnels.tunnels(p).is_empty())
        .take(4)
        .collect();
    let cfg = StormConfig::regional(pairs, 6, groups, seed);
    let report = storm::run(&ctx, &cfg).unwrap();
    timeline_csv(&report)
}

/// The storm timeline as CSV (`round,phase,deltas,live,warm,objective,`
/// `baseline_profit,greedy_satisfied,greedy_profit,greedy_ms,`
/// `milp_satisfied,milp_profit,milp_ms`).
fn timeline_csv(report: &StormReport) -> String {
    let mut out = String::from(
        "round,phase,deltas,live,warm,objective,baseline_profit,\
         greedy_satisfied,greedy_profit,greedy_ms,milp_satisfied,milp_profit,milp_ms\n",
    );
    for r in &report.rounds {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.3},{},{:.3},{:.3},{},{},{:.3}",
            r.round,
            format!("{:?}", r.phase).to_lowercase(),
            r.deltas,
            r.live,
            r.warm,
            r.objective,
            r.baseline_profit,
            r.greedy_satisfied,
            r.greedy_profit,
            r.greedy_ms,
            r.milp_satisfied
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            r.milp_profit
                .map_or_else(|| "-".to_string(), |v| format!("{v:.3}")),
            r.milp_ms
        );
    }
    out
}

const TOY4_DEMAND_TRACE: &str = "arrivals=161\n\
t=37.206 pair=1 bw=37.479 beta=0.999 dur=260.249\n\
t=104.409 pair=1 bw=20.217 beta=0.9995 dur=90.487\n\
t=127.602 pair=2 bw=16.029 beta=0.9999 dur=249.207\n\
t=134.545 pair=1 bw=22.963 beta=0.9995 dur=180.195\n\
t=136.891 pair=2 bw=44.453 beta=0.9995 dur=219.095\n\
t=181.879 pair=0 bw=18.701 beta=0.99 dur=339.370\n\
t=182.657 pair=2 bw=43.212 beta=0.999 dur=244.068\n\
t=192.941 pair=0 bw=10.250 beta=0.95 dur=590.439\n\
t=197.719 pair=2 bw=25.033 beta=0.99 dur=358.421\n\
t=199.798 pair=1 bw=40.491 beta=0.9995 dur=247.630\n";
const TESTBED6_DEMAND_TRACE: &str = "arrivals=269\n\
t=20.651 pair=1 bw=44.729 beta=0.95 dur=124.623\n\
t=89.579 pair=2 bw=30.801 beta=0.99 dur=32.802\n\
t=161.337 pair=0 bw=12.922 beta=0.95 dur=23.116\n\
t=183.781 pair=2 bw=40.448 beta=0.9999 dur=51.969\n\
t=196.384 pair=1 bw=36.732 beta=0.95 dur=46.121\n\
t=210.292 pair=2 bw=24.727 beta=0.9995 dur=115.766\n\
t=227.394 pair=1 bw=35.884 beta=0.9995 dur=143.422\n\
t=300.848 pair=0 bw=19.912 beta=0.95 dur=68.497\n\
t=302.573 pair=1 bw=40.569 beta=0.9995 dur=59.469\n\
t=307.812 pair=0 bw=21.156 beta=0.95 dur=145.307\n";
const TOY4_STORM_TIMELINE: &str = "round,phase,deltas,live,warm,objective,baseline_profit,greedy_satisfied,greedy_profit,greedy_ms,milp_satisfied,milp_profit,milp_ms\n\
0,pre,0,6,false,205.895,205.895,0,205.895,0.000,-,-,0.000\n\
1,pre,1,6,true,220.983,220.983,0,220.983,0.000,-,-,0.000\n\
2,pre,1,7,true,257.179,257.179,0,257.179,0.000,-,-,0.000\n\
3,pre,1,8,true,306.656,282.714,0,282.714,0.000,-,-,0.000\n\
4,storm,1,8,true,309.041,285.099,2,230.724,0.000,5,261.203,0.000\n\
5,storm,1,9,true,355.974,331.983,2,265.887,0.000,5,296.366,0.000\n\
6,storm,1,8,true,309.041,285.099,2,230.724,0.000,5,261.203,0.000\n\
7,storm,1,9,true,319.407,295.465,2,238.499,0.000,6,271.569,0.000\n\
8,post,1,8,true,280.826,256.884,0,256.884,0.000,-,-,0.000\n\
9,post,1,7,true,248.749,224.807,0,224.807,0.000,-,-,0.000\n";
const TESTBED6_STORM_TIMELINE: &str = "round,phase,deltas,live,warm,objective,baseline_profit,greedy_satisfied,greedy_profit,greedy_ms,milp_satisfied,milp_profit,milp_ms\n\
0,pre,0,6,false,169.737,169.737,0,169.737,0.000,-,-,0.000\n\
1,pre,1,7,true,219.435,219.435,0,219.435,0.000,-,-,0.000\n\
2,pre,1,8,true,243.873,243.873,0,243.873,0.000,-,-,0.000\n\
3,pre,1,9,true,277.269,277.269,0,277.269,0.000,-,-,0.000\n\
4,storm,1,9,true,285.535,285.535,0,214.151,0.000,0,214.151,0.000\n\
5,storm,1,9,true,296.400,296.400,0,222.300,0.000,0,222.300,0.000\n\
6,storm,1,9,true,301.686,301.686,0,226.264,0.000,0,226.264,0.000\n\
7,storm,1,10,true,341.408,341.408,0,256.056,0.000,0,256.056,0.000\n\
8,post,1,10,true,338.728,338.728,0,338.728,0.000,-,-,0.000\n\
9,post,1,11,true,381.281,381.281,0,381.281,0.000,-,-,0.000\n";

#[test]
fn diurnal_flash_trace_toy4_pinned() {
    let got = demand_trace(&topologies::toy4(), 41, 60, 10);
    assert_eq!(got, TOY4_DEMAND_TRACE, "got:\n{got}");
}

#[test]
fn diurnal_flash_trace_testbed6_pinned() {
    let got = demand_trace(&topologies::testbed6(), 42, 60, 10);
    assert_eq!(got, TESTBED6_DEMAND_TRACE, "got:\n{got}");
}

#[test]
fn storm_timeline_toy4_pinned() {
    let got = storm_timeline(&topologies::toy4(), 2, vec![GroupId(1), GroupId(3)], 11);
    assert_eq!(got, TOY4_STORM_TIMELINE, "got:\n{got}");
}

#[test]
fn storm_timeline_testbed6_pinned() {
    let got = storm_timeline(&topologies::testbed6(), 1, vec![GroupId(0), GroupId(5), GroupId(7)], 12);
    assert_eq!(got, TESTBED6_STORM_TIMELINE, "got:\n{got}");
}

/// Prints the current golden strings for manual re-pinning.
#[test]
#[ignore]
fn regenerate_golden_traces() {
    println!(
        "TOY4_DEMAND_TRACE:\n{}",
        demand_trace(&topologies::toy4(), 41, 60, 10)
    );
    println!(
        "TESTBED6_DEMAND_TRACE:\n{}",
        demand_trace(&topologies::testbed6(), 42, 60, 10)
    );
    println!(
        "TOY4_STORM_TIMELINE:\n{}",
        storm_timeline(&topologies::toy4(), 2, vec![GroupId(1), GroupId(3)], 11)
    );
    println!(
        "TESTBED6_STORM_TIMELINE:\n{}",
        storm_timeline(&topologies::testbed6(), 1, vec![GroupId(0), GroupId(5), GroupId(7)], 12)
    );
}
