//! Round-trip and mutation-fuzz tests for the LP-format writer and parser
//! (`crates/reference/src/lp_text.rs`).
//!
//! Two campaigns, after a fixed ATT scheduling LP of 3,598 columns
//! round-trips byte for byte:
//!
//! * **Round trip** — random `Problem`s are exported, reparsed, and
//!   re-exported; the re-export must reproduce the original text byte
//!   for byte (which pins sense, variable order, kinds, bounds,
//!   objective and every row), and the reparse must solve to the same
//!   objective.
//! * **One-byte mutations** — a single byte of valid LP text is
//!   replaced, inserted, or deleted; the parser must return `Ok` or a
//!   typed [`bate_reference::LpParseError`], never panic.
//!
//! Both honor the `FUZZ_BUDGET` environment variable (cases per
//! campaign; small default keeps tier-1 fast, nightly runs set it
//! high — see DESIGN.md §7). The shim `proptest` has no regression-file
//! persistence, so seeds that ever failed are checked in below in
//! `REGRESSION_SEEDS` and replayed first, deterministically.

use bate_core::scheduling::scheduling_lp;
use bate_core::{BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense};
use bate_reference::{from_lp_format, to_lp_format};
use bate_routing::{RoutingScheme, TunnelSet};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Seeds that exposed bugs in the past (none yet). Policy: when a
/// campaign fails, append the printed seed here so the case replays
/// forever, then fix the bug. This substitutes for upstream proptest's
/// `proptest-regressions` files, which the offline shim does not read.
const REGRESSION_SEEDS: &[u64] = &[];

fn fuzz_budget(default_cases: usize) -> usize {
    std::env::var("FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default_cases)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// A coefficient mix that exercises every exporter formatting path:
/// integers (unit coefficients get omitted), exact decimals, non-dyadic
/// decimals (`0.1` prints as a 55-digit-free shortest form), and
/// full-precision floats (~17 significant digits).
fn coeff(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => rng.gen_range(-5i32..6) as f64,
        1 => 0.0,
        2 => round2(rng.gen_range(-4.0..4.0)),
        3 => rng.gen_range(-3i32..4) as f64 * 0.1,
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// Deterministic random model: every variable kind, empty and dense rows,
/// all three relations, negative and fractional rhs.
fn random_problem(seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let sense = if rng.gen_bool(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut p = Problem::new(sense);
    let n = rng.gen_range(1usize..=8);
    let mut vars = Vec::with_capacity(n);
    for _ in 0..n {
        let v = match rng.gen_range(0u32..4) {
            0 => p.add_var(),
            1 => p.add_bounded_var(round2(rng.gen_range(0.0..20.0))),
            2 => p.add_binary_var(),
            _ => p.add_integer_var(rng.gen_range(0u32..9) as f64),
        };
        vars.push(v);
    }
    for &v in &vars {
        if rng.gen_bool(0.7) {
            p.set_objective(v, coeff(&mut rng));
        }
    }
    for _ in 0..rng.gen_range(0usize..=6) {
        let k = rng.gen_range(1usize..=n);
        let terms: Vec<_> = (0..k)
            .map(|_| (vars[rng.gen_range(0usize..n)], coeff(&mut rng)))
            .collect();
        let rel = match rng.gen_range(0u32..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        p.add_constraint(&terms, rel, coeff(&mut rng));
    }
    p
}

/// The round-trip property for one seed; shared by the regression
/// replay and the random campaign.
fn check_roundtrip(seed: u64) -> Result<(), String> {
    let p = random_problem(seed);
    let text = to_lp_format(&p);
    let q =
        from_lp_format(&text).map_err(|e| format!("seed {seed}: reparse failed: {e}\n{text}"))?;
    let again = to_lp_format(&q);
    if again != text {
        return Err(format!(
            "seed {seed}: export→parse→export not a fixed point\n--- first ---\n{text}\n--- second ---\n{again}"
        ));
    }
    if q.num_vars() != p.num_vars() || q.num_constraints() != p.num_constraints() {
        return Err(format!("seed {seed}: shape changed on round trip"));
    }
    // Semantics survive, not just syntax: both models optimize alike.
    match (p.solve(), q.solve()) {
        (Ok(a), Ok(b)) => {
            if (a.objective - b.objective).abs() > 1e-9 * (1.0 + a.objective.abs()) {
                return Err(format!(
                    "seed {seed}: objectives diverged {} vs {}",
                    a.objective, b.objective
                ));
            }
        }
        (Err(a), Err(b)) => {
            if a != b {
                return Err(format!("seed {seed}: solve errors diverged {a:?} vs {b:?}"));
            }
        }
        (a, b) => {
            return Err(format!(
                "seed {seed}: one model solved, the other did not: {a:?} vs {b:?}"
            ))
        }
    }
    Ok(())
}

/// An ATT scheduling LP (k = 4 tunnels, y = 2) over 202 seeded
/// single-pair demands: 3,598 columns, the scale of a paper-topology model.
fn att_scheduling_lp() -> Problem {
    let topo = bate_net::topologies::att();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = bate_net::ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| tunnels.tunnels(p).len() >= 2)
        .collect();
    let mut rng = StdRng::seed_from_u64(41);
    let demands: Vec<BaDemand> = (0..202u64)
        .map(|i| {
            let pair = pairs[rng.gen_range(0..pairs.len())];
            let beta = [0.9, 0.95, 0.99][i as usize % 3];
            BaDemand::single(i, pair, rng.gen_range(10.0..=50.0), beta)
        })
        .collect();
    scheduling_lp(&ctx, &demands, &ctx.link_capacities()).expect("ATT model builds")
}

/// Fixed inputs, checked on every run: the regression seeds' round-trip
/// property, and export → parse → export of a paper-scale model.
#[test]
fn regression_seeds_round_trip() {
    for &seed in REGRESSION_SEEDS {
        if let Err(msg) = check_roundtrip(seed) {
            panic!("{msg}");
        }
    }
    let att = att_scheduling_lp();
    assert!(att.num_vars() >= 3_000, "{} columns", att.num_vars());
    let text = to_lp_format(&att);
    let again = from_lp_format(&text).unwrap_or_else(|e| panic!("ATT reparse failed: {e}"));
    assert!(
        to_lp_format(&again) == text,
        "ATT export→parse→export moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_budget(128) as u32))]

    #[test]
    fn export_parse_export_is_identity(seed in any::<u64>()) {
        if let Err(msg) = check_roundtrip(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn one_byte_mutations_yield_typed_errors_not_panics() {
    let budget = fuzz_budget(300);
    let mut rng = StdRng::seed_from_u64(0xBA7E_F022);
    for case in 0..budget {
        let p = random_problem(0x5EED ^ (case as u64).wrapping_mul(0x9E37_79B9));
        let text = to_lp_format(&p);
        let mut bytes = text.clone().into_bytes();
        let pos = rng.gen_range(0usize..bytes.len());
        match case % 3 {
            0 => bytes[pos] = rng.gen_range(0u8..=255),
            1 => bytes.insert(pos, rng.gen_range(0u8..=255)),
            _ => {
                bytes.remove(pos);
            }
        }
        // Mutations can break UTF-8; the parser takes &str, so only
        // valid strings reach it (the CLI path would fail at read).
        if let Ok(s) = std::str::from_utf8(&bytes) {
            // Returning Ok (benign mutation, e.g. whitespace) or any
            // typed LpParseError is fine; a panic fails the test.
            let _ = from_lp_format(s);
        }
    }
}
