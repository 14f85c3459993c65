//! Round-trip and mutation-fuzz tests for the LP-format writer and parser
//! (`crates/reference/src/lp_text.rs`).
//!
//! Two campaigns:
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

use bate_lp::{Problem, Relation, Sense};
use bate_reference::{from_lp_format, to_lp_format};
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

/// Deterministic random model: every variable kind, sanitizer-hostile
/// names (brackets, digit-leading), empty and dense rows, all three
/// relations, negative and fractional rhs.
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
    for i in 0..n {
        let name = match rng.gen_range(0u32..4) {
            0 => format!("v{i}"),
            1 => format!("f[{i}][{}]", i + 1),
            2 => format!("{i}lead"),
            _ => format!("q_{i}"),
        };
        let v = match rng.gen_range(0u32..4) {
            0 => p.add_var(&name),
            1 => p.add_bounded_var(&name, round2(rng.gen_range(0.0..20.0))),
            2 => p.add_binary_var(&name),
            _ => p.add_integer_var(&name, rng.gen_range(0u32..9) as f64),
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
    check_problem(&random_problem(seed), &format!("seed {seed}"))
}

/// The round-trip property for one problem, `seed` naming it in failures.
fn check_problem(p: &Problem, seed: &str) -> Result<(), String> {
    let text = to_lp_format(p);
    let q = from_lp_format(&text).map_err(|e| format!("{seed}: reparse failed: {e}\n{text}"))?;
    let again = to_lp_format(&q);
    if again != text {
        return Err(format!(
            "{seed}: export→parse→export not a fixed point\n--- first ---\n{text}\n--- second ---\n{again}"
        ));
    }
    if q.num_vars() != p.num_vars() || q.num_constraints() != p.num_constraints() {
        return Err(format!("{seed}: shape changed on round trip"));
    }
    // Semantics survive, not just syntax: both models optimize alike.
    match (p.solve(), q.solve()) {
        (Ok(a), Ok(b)) => {
            if (a.objective - b.objective).abs() > 1e-9 * (1.0 + a.objective.abs()) {
                return Err(format!(
                    "{seed}: objectives diverged {} vs {}",
                    a.objective, b.objective
                ));
            }
        }
        (Err(a), Err(b)) => {
            if a != b {
                return Err(format!("{seed}: solve errors diverged {a:?} vs {b:?}"));
            }
        }
        (a, b) => {
            return Err(format!(
                "{seed}: one model solved, the other did not: {a:?} vs {b:?}"
            ))
        }
    }
    Ok(())
}

#[test]
fn regression_seeds_round_trip() {
    for &seed in REGRESSION_SEEDS {
        if let Err(msg) = check_roundtrip(seed) {
            panic!("{msg}");
        }
    }
}

/// Names that sanitize alike (`"a b"` and `"a_b"` both to `a_b`, and a
/// leading digit's `x{index}_` prefix landing on a name already taken)
/// are still written as distinct columns, so the text reparses.
#[test]
fn names_that_sanitize_alike_round_trip() {
    let mut p = Problem::new(Sense::Maximize);
    let a = p.add_bounded_var("a b", 1.0);
    let b = p.add_bounded_var("a_b", 2.0);
    let c = p.add_bounded_var("x3_1c", 4.0);
    let d = p.add_bounded_var("1c", 8.0);
    for (i, v) in [a, b, c, d].into_iter().enumerate() {
        p.set_objective(v, (i + 1) as f64);
    }
    p.add_constraint(
        &[(a, 1.0), (b, 1.0), (c, 1.0), (d, 1.0)],
        Relation::Le,
        10.0,
    );
    if let Err(msg) = check_problem(&p, "colliding names") {
        panic!("{msg}");
    }
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
