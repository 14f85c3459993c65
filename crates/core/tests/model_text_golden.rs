//! Model-text goldens: every `Problem` the BATE formulation is built into,
//! pinned as a hash of its LP-format text (variable names, row order,
//! coefficients and bounds, all exact — `to_lp_format` prints shortest
//! round-trip floats).
//!
//! The scheduling LP (Eq. 1–7), its row-generation master, the Appendix-A
//! admission MILP with its branch-and-cut master, and the incremental
//! scheduler's churned master all share one constraint family. These
//! hashes were taken before that family was moved behind
//! `bate_core::model`; a refactor of the builders must leave every one of
//! them unchanged, because a moved row or a reordered term changes pivots,
//! and every other golden in the tree with them.

use bate_core::admission::optimal::{admission_lazy_master, admission_milp};
use bate_core::scheduling::{rowgen_master, scheduling_lp};
use bate_core::{BaDemand, DemandDelta, DemandId, IncrementalScheduler, TeContext};
use bate_lp::Problem;
use bate_net::{topologies, traffic, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};

/// FNV-1a over the model text.
fn text_hash(p: &Problem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in p.to_lp_format().as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Top-`n` gravity-matrix entries as single-pair BA demands (the
/// generator `rowgen_golden.rs` uses, same seeds).
fn gravity_demands(topo: &Topology, tunnels: &TunnelSet, n: usize, total: f64) -> Vec<BaDemand> {
    let matrix = &traffic::generate_matrices(topo, 1, total, 11)[0];
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

/// What one instance pins. The loads are picked so the cut paths are in
/// the text: B4's scheduling master ends 5 cuts past its seed rows, and
/// every lazy admission master carries pooled cuts (3, 28 and 5 rows).
#[derive(Debug, PartialEq)]
struct Pinned {
    scheduling_lp: u64,
    /// Hash and row count: the count shows the cuts are in the text.
    rowgen_master: (u64, usize),
    admission_milp: u64,
    admission_lazy_master: (u64, usize),
    /// After add-all / remove / resize / churn-to-compaction.
    incremental: [u64; 4],
}

fn check(topo: Topology, routing: RoutingScheme, total: f64, want: Pinned) {
    let tunnels = TunnelSet::compute(&topo, routing);
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
    let demands = gravity_demands(&topo, &tunnels, 6, total);

    let lp = scheduling_lp(&ctx, &demands, &caps).unwrap();
    let master = rowgen_master(&ctx, &demands, &caps).unwrap();
    assert!(
        master.num_constraints() <= lp.num_constraints(),
        "the master is a row subset of the full LP"
    );

    // Four demands keep branch-and-cut far from its node budget.
    let milp = admission_milp(&ctx, &demands[..4], false).unwrap();
    let lazy = admission_lazy_master(&ctx, &demands[..4]).unwrap();
    assert!(lazy.num_constraints() <= milp.num_constraints());

    let mut inc = IncrementalScheduler::new(&ctx);
    let adds: Vec<DemandDelta> = demands.iter().cloned().map(DemandDelta::Add).collect();
    inc.apply(&ctx, &adds).unwrap();
    let added = text_hash(inc.problem());
    inc.apply(&ctx, &[DemandDelta::Remove(demands[1].id)]).unwrap();
    let removed = text_hash(inc.problem());
    let resize = DemandDelta::Resize {
        id: demands[2].id,
        factor: 0.5,
    };
    inc.apply(&ctx, &[resize]).unwrap();
    let resized = text_hash(inc.problem());
    // A visitor comes and goes until its retired columns trip a
    // compaction, which rebuilds the master with the cut pool carried.
    let mut visitor = demands[1].clone();
    for round in 0..64u64 {
        visitor.id = DemandId(100 + round);
        inc.apply(&ctx, &[DemandDelta::Add(visitor.clone())]).unwrap();
        inc.apply(&ctx, &[DemandDelta::Remove(visitor.id)]).unwrap();
        if inc.stats().compactions > 0 {
            break;
        }
    }
    assert_eq!(inc.stats().compactions, 1, "churn must compact once");

    let got = Pinned {
        scheduling_lp: text_hash(&lp),
        rowgen_master: (text_hash(&master), master.num_constraints()),
        admission_milp: text_hash(&milp),
        admission_lazy_master: (text_hash(&lazy), lazy.num_constraints()),
        incremental: [added, removed, resized, text_hash(inc.problem())],
    };
    assert_eq!(got, want, "{}", topo.name());
}

#[test]
fn toy4_y2_model_text() {
    check(
        topologies::toy4(),
        RoutingScheme::Ksp(2),
        36_000.0,
        Pinned {
            scheduling_lp: 15776744854534240207,
            rowgen_master: (548108008021554017, 38),
            admission_milp: 17125809754507725122,
            admission_lazy_master: (4932341412795369665, 27),
            incremental: [
                14558441326485246625,
                8054800645706023154,
                212977518229081621,
                10045873547287234167,
            ],
        },
    );
}

#[test]
fn testbed6_y2_model_text() {
    check(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        6000.0,
        Pinned {
            scheduling_lp: 7302706256890999225,
            rowgen_master: (14719930464134257596, 58),
            admission_milp: 16098257093313090320,
            admission_lazy_master: (14638055802980421524, 68),
            incremental: [
                2235734547151631776,
                3172368957351503262,
                15822524981876975404,
                16699433775085884166,
            ],
        },
    );
}

#[test]
fn b4_y2_model_text() {
    check(
        topologies::b4(),
        RoutingScheme::default_ksp4(),
        4000.0,
        Pinned {
            scheduling_lp: 6978818451373422584,
            rowgen_master: (12380373526841041331, 61),
            admission_milp: 11232186016144911259,
            admission_lazy_master: (1859557446731078537, 35),
            incremental: [
                14660920470040137620,
                10432826486303014966,
                14873143932100360147,
                1229390718059978295,
            ],
        },
    );
}
