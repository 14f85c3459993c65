//! Row-generation equivalence goldens (ISSUE 4 satellite).
//!
//! The cutting-plane solve path (`SolveMode::RowGen`) must be *exactly*
//! equivalent to building the full formulation: same optimal objective,
//! same feasible/infeasible verdict, same admission decisions, same
//! hardening behavior. These tests sweep the pinned instances — toy4 at
//! pruning depths 2 and 4, testbed6 at 1 and 2, B4 at 2 — across five
//! gravity-model traffic seeds and compare the two paths end to end.
//!
//! The rowgen path is additionally required to be byte-identical across
//! thread counts (the separation fan-out is a deterministic fork-join, so
//! worker scheduling must never leak into results).

use bate_core::admission::optimal::{maximize_admissions_mode, optimal_feasible_mode};
use bate_core::scheduling::{self, SolveMode};
use bate_core::{BaDemand, TeContext};
use bate_lp::SolveError;
use bate_net::{topologies, traffic, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};

const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

fn rowgen_mode() -> SolveMode {
    SolveMode::RowGen
}

/// Relative-tolerance equality for objectives.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Top-`n` gravity-matrix entries as single-pair BA demands, betas cycling
/// through the availability classes. Deterministic in `seed`.
fn gravity_demands(
    topo: &Topology,
    tunnels: &TunnelSet,
    n: usize,
    mean_total: f64,
    seed: u64,
) -> Vec<BaDemand> {
    let matrix = &traffic::generate_matrices(topo, 1, mean_total, seed)[0];
    let mut entries: Vec<(usize, f64)> = matrix
        .entries()
        .filter_map(|(s, d, v)| tunnels.pair_index(s, d).map(|pair| (pair, v)))
        .filter(|&(pair, _)| !tunnels.tunnels(pair).is_empty())
        .collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries.truncate(n);
    let betas = [0.9, 0.99, 0.95, 0.999];
    entries
        .iter()
        .enumerate()
        .map(|(i, &(pair, v))| BaDemand::single(i as u64 + 1, pair, v, betas[i % betas.len()]))
        .collect()
}

/// The five pinned instances: (topology, ksp, pruning depth, #demands,
/// gravity mean total).
fn instances() -> Vec<(Topology, RoutingScheme, usize, usize, f64)> {
    vec![
        (topologies::toy4(), RoutingScheme::Ksp(2), 2, 6, 12_000.0),
        (topologies::toy4(), RoutingScheme::Ksp(2), 4, 6, 12_000.0),
        (
            topologies::testbed6(),
            RoutingScheme::default_ksp4(),
            1,
            6,
            2000.0,
        ),
        (
            topologies::testbed6(),
            RoutingScheme::default_ksp4(),
            2,
            6,
            2000.0,
        ),
        (topologies::b4(), RoutingScheme::default_ksp4(), 2, 6, 4000.0),
    ]
}

#[test]
fn rowgen_matches_full_objective_and_hardening() {
    for (topo, routing, y, n, total) in instances() {
        let tunnels = TunnelSet::compute(&topo, routing);
        let scenarios = ScenarioSet::enumerate(&topo, y);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        for seed in SEEDS {
            let demands = gravity_demands(&topo, &tunnels, n, total, seed);
            let tag = format!("{} y={y} seed={seed}", topo.name());

            let caps = ctx.link_capacities();
            let full =
                scheduling::schedule_with_capacities_mode(&ctx, &demands, &caps, SolveMode::Full);
            let lazy =
                scheduling::schedule_with_capacities_mode(&ctx, &demands, &caps, rowgen_mode());
            match (full, lazy) {
                (Ok(mut f), Ok(mut l)) => {
                    assert!(
                        close(f.total_bandwidth, l.total_bandwidth),
                        "{tag}: objective {} (full) vs {} (rowgen)",
                        f.total_bandwidth,
                        l.total_bandwidth
                    );
                    assert!(f.rowgen.is_none(), "{tag}: full path reported rowgen stats");
                    let rg = l.rowgen.as_ref().unwrap_or_else(|| {
                        panic!("{tag}: rowgen path did not report rowgen stats")
                    });
                    assert!(rg.rounds >= 1, "{tag}");
                    assert_eq!(
                        *rg.rows_per_round.last().unwrap(),
                        0,
                        "{tag}: final round must be a clean separation pass"
                    );
                    assert!(rg.master_rows <= rg.full_rows, "{tag}");
                    // Every appended row is accounted for.
                    let appended: u32 = rg.rows_per_round.iter().sum();
                    assert_eq!(appended as u64, rg.rows_added, "{tag}");

                    // Hardening must behave identically on both vertices.
                    let vf = scheduling::harden(&ctx, &demands, &mut f);
                    let vl = scheduling::harden(&ctx, &demands, &mut l);
                    assert_eq!(vf, vl, "{tag}: hardening violation counts differ");
                    assert!(
                        close(f.total_bandwidth, l.total_bandwidth),
                        "{tag}: post-hardening totals differ: {} vs {}",
                        f.total_bandwidth,
                        l.total_bandwidth
                    );
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (f, l) => panic!(
                    "{tag}: paths disagree: full={:?} rowgen={:?}",
                    f.map(|r| r.total_bandwidth),
                    l.map(|r| r.total_bandwidth)
                ),
            }
        }
    }
}

#[test]
fn rowgen_matches_full_admission_verdicts() {
    // MILP instances kept small (4 demands) so branch-and-bound stays far
    // from the node budget on both paths — a NodeLimit hit on one path
    // only would be a budget artifact, not an equivalence failure.
    for (topo, routing, y, _, total) in instances() {
        let tunnels = TunnelSet::compute(&topo, routing);
        let scenarios = ScenarioSet::enumerate(&topo, y);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        for seed in SEEDS {
            let demands = gravity_demands(&topo, &tunnels, 4, total, seed);
            let tag = format!("{} y={y} seed={seed}", topo.name());

            let vf = optimal_feasible_mode(&ctx, &demands, SolveMode::Full).unwrap();
            let vl = optimal_feasible_mode(&ctx, &demands, rowgen_mode()).unwrap();
            assert_eq!(vf, vl, "{tag}: optimal_feasible verdicts differ");

            let mf = maximize_admissions_mode(&ctx, &demands, SolveMode::Full).unwrap();
            let ml = maximize_admissions_mode(&ctx, &demands, rowgen_mode()).unwrap();
            let cf = mf.accepted.iter().filter(|&&a| a).count();
            let cl = ml.accepted.iter().filter(|&&a| a).count();
            assert_eq!(cf, cl, "{tag}: maximize_admissions counts differ");
        }
    }
}

/// The pinned instances' scheduling LPs, re-derived through the public
/// model builder and run through the exact certificate layer: every
/// float optimum must carry a valid KKT certificate, and on the small
/// instances the exact rational oracle must reproduce the objective.
#[test]
fn scheduling_lps_certify_and_match_exact_oracle() {
    use bate_lp::exact::{solve_exact, verify_certificate};
    for (topo, routing, y, _, total) in instances() {
        let tunnels = TunnelSet::compute(&topo, routing);
        let scenarios = ScenarioSet::enumerate(&topo, y);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
        // Exact re-solve only where the rational tableau stays small;
        // certificates are cheap and run everywhere.
        let resolve_exactly =
            (topo.name() == "toy4" && y == 2) || (topo.name() == "testbed6" && y == 1);
        for seed in SEEDS {
            let demands = gravity_demands(&topo, &tunnels, 4, total, seed);
            let tag = format!("{} y={y} seed={seed}", topo.name());
            let p = scheduling::scheduling_lp(&ctx, &demands, &caps).unwrap();
            match p.solve() {
                Ok(sol) => {
                    verify_certificate(&p, &sol)
                        .unwrap_or_else(|e| panic!("{tag}: certificate rejected: {e}"));
                    if resolve_exactly {
                        let ex = solve_exact(&p)
                            .unwrap_or_else(|e| panic!("{tag}: exact oracle failed: {e:?}"));
                        assert!(
                            close(ex.objective.to_f64(), sol.objective),
                            "{tag}: exact {} vs float {}",
                            ex.objective.to_f64(),
                            sol.objective
                        );
                    }
                }
                Err(SolveError::Infeasible) => {
                    if resolve_exactly {
                        assert!(
                            matches!(solve_exact(&p), Err(SolveError::Infeasible)),
                            "{tag}: float says infeasible, exact oracle disagrees"
                        );
                    }
                }
                Err(e) => panic!("{tag}: solve failed: {e:?}"),
            }
        }
    }
}

/// Admission MILP incumbents certified against an exact relaxation
/// bound: integrality, exact feasibility, objective consistency, and a
/// branch-and-bound optimality proof `incumbent ≤ exact root bound`.
#[test]
fn admission_milps_certify_against_exact_relaxation_bounds() {
    use bate_core::admission::optimal::admission_milp;
    use bate_lp::exact::{solve_exact, verify_milp_certificate};
    for (topo, routing, y, _, total) in instances() {
        let small = (topo.name() == "toy4" && y == 2) || (topo.name() == "testbed6" && y == 1);
        if !small {
            continue; // exact relaxation solves stay debug-build fast
        }
        let tunnels = TunnelSet::compute(&topo, routing);
        let scenarios = ScenarioSet::enumerate(&topo, y);
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        for seed in SEEDS {
            let demands = gravity_demands(&topo, &tunnels, 4, total, seed);
            let tag = format!("{} y={y} seed={seed}", topo.name());
            let p = admission_milp(&ctx, &demands, false).unwrap();
            let sol = match p.solve() {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(e) => panic!("{tag}: admission MILP failed: {e:?}"),
            };
            let root = solve_exact(&p)
                .unwrap_or_else(|e| panic!("{tag}: exact relaxation failed: {e:?}"));
            verify_milp_certificate(&p, &sol, Some(root.objective.to_f64()))
                .unwrap_or_else(|e| panic!("{tag}: MILP certificate rejected: {e}"));
        }
    }
}

#[test]
fn rowgen_path_is_deterministic_across_thread_counts() {
    // B4 at y=2 with enough demands to force several separation rounds;
    // every deterministic field of the result must be byte-identical for
    // any worker count.
    let topo = topologies::b4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let demands = gravity_demands(&topo, &tunnels, 8, 4000.0, 7);

    #[derive(PartialEq, Debug)]
    struct Fingerprint {
        objective: u64,
        flows: Vec<(u64, usize, usize, u64)>,
        prices: Vec<u64>,
        rounds: u32,
        rows_added: u64,
        rows_per_round: Vec<u32>,
        master_rows: u32,
        full_rows: u32,
    }

    let run = |threads: usize| -> Fingerprint {
        bate_lp::par::with_thread_count(threads, || {
            let caps = ctx.link_capacities();
            let res = scheduling::schedule_with_capacities_mode(&ctx, &demands, &caps, rowgen_mode())
                .unwrap();
            let mut flows: Vec<(u64, usize, usize, u64)> = Vec::new();
            for d in &demands {
                for (tid, f) in res.allocation.flows_of(d.id) {
                    flows.push((d.id.0, tid.pair, tid.tunnel, f.to_bits()));
                }
            }
            flows.sort();
            let rg = res.rowgen.unwrap();
            Fingerprint {
                objective: res.total_bandwidth.to_bits(),
                flows,
                prices: res.link_prices.iter().map(|p| p.to_bits()).collect(),
                rounds: rg.rounds,
                rows_added: rg.rows_added,
                rows_per_round: rg.rows_per_round,
                master_rows: rg.master_rows,
                full_rows: rg.full_rows,
            }
        })
    };

    let baseline = run(1);
    assert!(baseline.rounds >= 1);
    for threads in [2, 3, 8] {
        let got = run(threads);
        assert_eq!(
            got, baseline,
            "rowgen schedule diverged at {threads} threads"
        );
    }
}
