//! Golden tests for failure recovery: the exact MILP (Eq. 8–12) vs the
//! greedy 2-approximation (Algorithm 2), pinned per enumerated failure
//! scenario on the paper's two small topologies — toy4 (Fig. 2) under
//! ≤ 2 concurrent fate-group failures and testbed6 (Fig. 6) under ≤ 1.
//!
//! Each golden line fixes, for one scenario: the failed groups, which
//! demands the optimal solver satisfies and its profit, and the same for
//! greedy. Any change to tunnel selection, solver pivoting, density
//! ordering, or profit accounting shows up as a diff here with the exact
//! scenario that moved.

use bate_core::demand::BaDemand;
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::recovery::milp::optimal_recovery;
use bate_core::recovery::RecoveryOutcome;
use bate_core::TeContext;
use bate_net::{topologies, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};

/// One line per scenario: `z=[failed] opt=[ids]@profit grd=[ids]@profit`.
fn recovery_table(topo: &Topology, demands: &[BaDemand], max_failures: usize) -> Vec<String> {
    let tunnels = TunnelSet::compute(topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(topo, max_failures);
    let ctx = TeContext::new(topo, &tunnels, &scenarios);

    let mut lines = Vec::new();
    for sc in scenarios.iter() {
        let failed: Vec<usize> = topo
            .groups()
            .map(|(g, _)| g)
            .filter(|&g| !sc.group_up(g))
            .map(|g| g.0)
            .collect();

        let opt = optimal_recovery(&ctx, demands, sc).expect("MILP must solve");
        let grd = greedy_recovery(&ctx, demands, sc);

        // Structural invariants that hold on every scenario, golden aside.
        assert!(
            grd.profit <= opt.profit + 1e-6,
            "greedy beat the optimum on z={failed:?}"
        );
        let baseline = RecoveryOutcome::baseline_profit(demands);
        assert!(opt.profit <= baseline + 1e-9);
        assert!(opt.allocation.respects_capacity(&ctx, 1e-6));
        assert!(grd.allocation.respects_capacity(&ctx, 1e-6));
        for out in [&opt, &grd] {
            let loads = out.allocation.link_loads(&ctx);
            for (l, _) in topo.links() {
                if !sc.link_up(topo, l) {
                    assert_eq!(loads[l.index()], 0.0, "flow on failed link, z={failed:?}");
                }
            }
        }

        let ids = |o: &RecoveryOutcome| {
            let mut v: Vec<u64> = o.satisfied.iter().map(|d| d.0).collect();
            v.sort_unstable();
            v.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        lines.push(format!(
            "z=[{}] opt=[{}]@{:.2} grd=[{}]@{:.2}",
            failed
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(","),
            ids(&opt),
            opt.profit,
            ids(&grd),
            grd.profit,
        ));
    }
    lines
}

/// Single-pair demands at β = 0.9 from `(id, pair, bandwidth, price,
/// refund ratio)` rows.
fn priced(rows: &[(u64, usize, f64, f64, f64)]) -> Vec<BaDemand> {
    let row = |&(id, pair, bw, price, refund_ratio): &(u64, usize, f64, f64, f64)| BaDemand {
        price,
        refund_ratio,
        ..BaDemand::single(id, pair, bw, 0.9)
    };
    rows.iter().map(row).collect()
}

fn assert_golden(actual: &[String], golden: &[&str], what: &str) {
    assert_eq!(
        actual,
        golden,
        "{what} recovery table diverged from golden.\nActual:\n{}",
        actual.join("\n")
    );
}

/// toy4 (Fig. 2): 10 Gbps links, two DC1→DC4 demands contending for the
/// two disjoint paths plus a DC2→DC4 demand. Under any single failure on
/// the DC1 side one of the big demands must take its refund; the golden
/// pins which one each solver sacrifices.
#[test]
fn toy4_golden_under_two_failures() {
    let topo = topologies::toy4();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let n = |s: &str| topo.find_node(s).unwrap();
    let p14 = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
    let p24 = tunnels.pair_index(n("DC2"), n("DC4")).unwrap();
    let demands = priced(&[
        (1, p14, 8000.0, 800.0, 0.5),
        (2, p14, 8000.0, 400.0, 0.5),
        (3, p24, 3000.0, 600.0, 0.25),
    ]);

    let actual = recovery_table(&topo, &demands, 2);
    // Notable pins: under z=[0,1] (DC1-DC2 and DC2-DC4 both down, DC2
    // isolated) the published Algorithm 2 stops at the first unservable
    // demand — the densest demand 3 — and forfeits everything (1050 =
    // pure refund floor), while the MILP still saves demand 1 via DC3
    // (1450). That gap is the Fig. 19 optimal-vs-greedy story in
    // miniature, pinned.
    let golden = [
        "z=[] opt=[1,2,3]@1800.00 grd=[1,2,3]@1800.00",
        "z=[0] opt=[1,3]@1600.00 grd=[1,3]@1600.00",
        "z=[0,1] opt=[1]@1450.00 grd=[]@1050.00",
        "z=[0,2] opt=[3]@1200.00 grd=[3]@1200.00",
        "z=[0,3] opt=[3]@1200.00 grd=[3]@1200.00",
        "z=[1] opt=[1]@1450.00 grd=[1]@1450.00",
        "z=[1,2] opt=[]@1050.00 grd=[]@1050.00",
        "z=[1,3] opt=[]@1050.00 grd=[]@1050.00",
        "z=[2] opt=[1]@1450.00 grd=[1]@1450.00",
        "z=[2,3] opt=[1]@1450.00 grd=[1]@1450.00",
        "z=[3] opt=[1]@1450.00 grd=[1]@1450.00",
    ];
    assert_golden(&actual, &golden, "toy4");
}

/// testbed6 (Fig. 6): 1 Gbps links, four demands spread over the pairs
/// the evaluation keys on; y = 1 enumerates the all-up scenario plus each
/// single fate-group failure (L1..L8).
#[test]
fn testbed6_golden_under_single_failures() {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let n = |s: &str| topo.find_node(s).unwrap();
    let pair = |a: &str, b: &str| tunnels.pair_index(n(a), n(b)).unwrap();
    let demands = priced(&[
        (1, pair("DC1", "DC3"), 800.0, 400.0, 0.5),
        (2, pair("DC1", "DC4"), 900.0, 350.0, 0.4),
        (3, pair("DC2", "DC6"), 700.0, 500.0, 0.2),
        (4, pair("DC4", "DC5"), 900.0, 300.0, 1.0),
    ]);

    let actual = recovery_table(&topo, &demands, 1);
    let golden = [
        "z=[] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[0] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[1] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[2] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[3] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[4] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[5] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        "z=[6] opt=[1,2,3,4]@1550.00 grd=[1,2,3,4]@1550.00",
        // L8 (DC1-DC4) down: the optimum reroutes everything, but greedy
        // commits dense demands first, starves demand 2's detour, stops at
        // the break demand, and drops 2 and 4 — the Fig. 19 gap pinned on
        // the testbed.
        "z=[7] opt=[1,2,3,4]@1550.00 grd=[1,3]@1110.00",
    ];
    assert_golden(&actual, &golden, "testbed6");
}
