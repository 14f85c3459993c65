//! Model-text goldens: every `Problem` the BATE formulation is built into,
//! pinned as a hash of its LP-format text (column order, row order,
//! coefficients and bounds, all exact — `bate_reference::to_lp_format`
//! names column `j` as `x{j}` and prints shortest round-trip floats). Each
//! pinned text also reparses, with `bate_reference::from_lp_format`, into
//! a problem that writes the same text.
//!
//! The scheduling LP (Eq. 1–7), its row-generation master, the Appendix-A
//! admission MILP, and the incremental
//! scheduler's churned master all share one constraint family
//! (`bate_core::model`). A refactor of the builders must leave every hash
//! unchanged, because a moved row or a reordered term changes pivots, and
//! every other golden in the tree with them.

use bate_core::admission::optimal::admission_milp;
use bate_core::scheduling::{rowgen_master, scheduling_lp};
use bate_core::{BaDemand, DemandDelta, DemandId, IncrementalScheduler, TeContext};
use bate_lp::Problem;
use bate_net::{topologies, traffic, ScenarioSet, Topology};
use bate_reference::{from_lp_format, to_lp_format};
use bate_routing::{RoutingScheme, TunnelSet};

/// FNV-1a over the model text, once the text is shown to reparse into a
/// problem that writes it again byte for byte.
fn text_hash(p: &Problem) -> u64 {
    let text = to_lp_format(p);
    let again = from_lp_format(&text).unwrap_or_else(|e| panic!("reparse failed: {e}"));
    assert!(
        to_lp_format(&again) == text,
        "export→parse→export moved the text"
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
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
/// the text: B4's scheduling master ends 5 cuts past its seed rows.
#[derive(Debug, PartialEq)]
struct Pinned {
    scheduling_lp: u64,
    /// Hash and row count: the count shows the cuts are in the text.
    rowgen_master: (u64, usize),
    admission_milp: u64,
    /// After add-all / remove / resize / churn-to-compaction. A resize
    /// retires the demand's columns (zero upper bound) and appends new
    /// ones, so that text holds both.
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

    let milp = admission_milp(&ctx, &demands[..4], false).unwrap();

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
            scheduling_lp: 14729983652670550275,
            rowgen_master: (2660226331500831460, 38),
            admission_milp: 11894495049032072422,
            incremental: [
                6915620148730186049,
                6915134840069970820,
                3696658531582715134,
                5000478906163465144,
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
            scheduling_lp: 6833472578489609144,
            rowgen_master: (7954922028421240801, 58),
            admission_milp: 15346797876929823223,
            incremental: [
                6043577007447656894,
                16428853281155250740,
                904338283737205027,
                12224036634664382506,
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
            scheduling_lp: 9729938067181552336,
            rowgen_master: (2978713823195762704, 61),
            admission_milp: 18109699532015529013,
            incremental: [
                12766084293749117930,
                7166133102460026774,
                14515047782456033247,
                17165698177890447831,
            ],
        },
    );
}
