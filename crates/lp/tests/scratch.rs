//! [`solve_relaxation`] solves on a scratch workspace its thread keeps and
//! sweeps back to all-zero. Nothing of that may show: whatever went
//! through a thread's scratch before, every answer — and every error — is
//! the one [`solve_with`] gives on a fresh [`Workspace`], bit for bit,
//! counters included. (That a sweep leaves the cells its solve used zero is
//! a debug assertion inside `Tableau::sweep`; these tests run with it on.)

use bate_lp::simplex::{solve_relaxation, solve_with, BoundOverride, Workspace};
use bate_lp::{Problem, Relation, Sense, Solution, SolveError, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows over `vars` that a hidden point satisfies, so the LP is feasible;
/// positive costs, so it is bounded. `hub` adds a variable with a
/// coefficient in every row and the most attractive cost: it enters first
/// and its row file outgrows `rows / 2`, which dense-flags the column
/// (where files are kept at all: past 256 columns).
///
/// Returns the problem, its variables and the sign that makes a cost
/// attractive in the problem's sense.
fn feasible(rng: &mut StdRng, vars: usize, rows: usize, hub: bool) -> (Problem, Vec<VarId>, f64) {
    let sense = if rng.gen_bool(0.5) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let sign = if sense == Sense::Minimize { 1.0 } else { -1.0 };
    let mut p = Problem::new(sense);
    let mut at = Vec::new();
    let ids: Vec<VarId> = (0..vars)
        .map(|j| {
            let bounded = rng.gen_bool(0.4);
            let width = rng.gen_range(0.5..4.0);
            at.push(if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..width)
            });
            let v = if bounded {
                p.add_bounded_var(&format!("x{j}"), width)
            } else {
                p.add_var(&format!("x{j}"))
            };
            p.set_objective(v, sign * rng.gen_range(0.1..3.0));
            v
        })
        .collect();
    if hub {
        p.set_objective(ids[0], sign * -50.0);
        p.set_var_upper(ids[0], 4.0);
    }
    for _ in 0..rows {
        let mut terms: Vec<(VarId, f64)> = (0..rng.gen_range(1..6))
            .map(|_| (ids[rng.gen_range(0..vars)], rng.gen_range(-2.0..3.0)))
            .collect();
        if hub {
            terms.push((ids[0], rng.gen_range(0.5..2.0)));
        }
        let lhs: f64 = terms.iter().map(|&(v, c)| c * at[v.index()]).sum();
        let slack = if rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen_range(0.0..2.0)
        };
        match rng.gen_range(0..if hub { 1 } else { 5 }) {
            0 | 1 => p.add_constraint(&terms, Relation::Le, lhs + slack),
            2 | 3 => p.add_constraint(&terms, Relation::Ge, lhs - slack),
            _ => p.add_constraint(&terms, Relation::Eq, lhs),
        };
    }
    (p, ids, -sign)
}

/// The `i`-th solve of the interleaving: a problem and its bound
/// overrides. Sizes grow and shrink from one solve to the next; small
/// tableaus (no row files, full pricing) alternate with ones past 256
/// columns (row files, partial pricing).
fn instance(seed: u64, i: usize) -> (Problem, Vec<BoundOverride>) {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut overrides = Vec::new();
    let p = match i % 8 {
        0 | 5 => feasible(&mut rng, 3 + i % 23, 2 + i % 17, false).0,
        1 | 6 => {
            let p = feasible(&mut rng, 150 + i % 200, 40 + i % 45, false).0;
            // Branch-and-bound's access pattern: tightened boxes.
            for _ in 0..rng.gen_range(0..4) {
                let lo = rng.gen_range(0.0..1.0);
                overrides.push((
                    rng.gen_range(0..p.num_vars()),
                    lo,
                    lo + rng.gen_range(0.0..2.0),
                ));
            }
            p
        }
        2 => feasible(&mut rng, 200 + i % 90, 30 + i % 50, true).0,
        3 => {
            // Infeasible in phase 1, after `build` has written the rows.
            let (mut p, ids, _) = feasible(&mut rng, 120 + i % 150, 60, false);
            let terms: Vec<(VarId, f64)> = ids[..3].iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Relation::Le, 1.0);
            p.add_constraint(&terms, Relation::Ge, 2.0);
            p
        }
        4 => {
            // Unbounded in phase 2.
            let (mut p, _, attractive) = feasible(&mut rng, 10 + i % 300, 5 + i % 30, false);
            let free = p.add_var("free");
            p.set_objective(free, attractive);
            p
        }
        _ => {
            // An empty box: refused before `build` runs.
            let p = feasible(&mut rng, 5 + i % 280, 4 + i % 40, false).0;
            overrides.push((rng.gen_range(0..p.num_vars()), 5.0, 2.0));
            p
        }
    };
    (p, overrides)
}

/// Everything of an outcome except the wall-clock fields of its stats:
/// objective, values and duals as bits, then the counters.
type Digest = Result<(Vec<u64>, Vec<u64>), SolveError>;

fn digest(out: &Result<Solution, SolveError>) -> Digest {
    let sol = out.as_ref().map_err(Clone::clone)?;
    let s = &sol.stats;
    let counters = vec![
        s.rows as u64,
        s.cols as u64,
        s.phase1_iterations,
        s.phase2_iterations,
        s.pivots,
        s.bound_flips,
        s.bland_iterations,
        s.full_price_scans,
        s.candidate_hits,
        s.warm_start as u64,
        s.dual_pivots,
    ];
    let duals = sol.duals.as_ref().expect("an LP solve reports duals");
    let floats = std::iter::once(&sol.objective)
        .chain(&sol.values)
        .chain(duals)
        .map(|v| v.to_bits())
        .collect();
    Ok((floats, counters))
}

/// Solves `from, from + step, ..` below `count` through the calling
/// thread's scratch, each checked against a fresh workspace.
fn run(seed: u64, from: usize, step: usize, count: usize) -> Vec<(usize, Digest)> {
    (from..count)
        .step_by(step)
        .map(|i| {
            let (p, overrides) = instance(seed, i);
            let scratch = digest(&solve_relaxation(&p, &overrides));
            let fresh = digest(&solve_with(&p, &overrides, &mut Workspace::new()));
            assert_eq!(scratch, fresh, "solve {i} of seed {seed}");
            (i, scratch)
        })
        .collect()
}

#[test]
fn scratch_solves_equal_fresh_workspace_solves() {
    let outcomes = run(18, 0, 1, 2_048);
    // The interleaving is what it claims to be.
    let errs = |e: SolveError| {
        outcomes
            .iter()
            .filter(|(_, d)| d.as_ref().err() == Some(&e))
            .count()
    };
    assert!(
        errs(SolveError::Infeasible) >= 512,
        "{}",
        errs(SolveError::Infeasible)
    );
    assert!(
        errs(SolveError::Unbounded) >= 200,
        "{}",
        errs(SolveError::Unbounded)
    );
    let cols = |(_, d): &(usize, Digest)| d.as_ref().ok().map(|(_, counters)| counters[1]);
    assert!(
        outcomes
            .iter()
            .filter_map(cols)
            .filter(|&c| c > 256)
            .count()
            >= 500
    );
    assert!(
        outcomes
            .iter()
            .filter_map(cols)
            .filter(|&c| c <= 256)
            .count()
            >= 300
    );
}

#[test]
fn outcomes_do_not_depend_on_the_thread_count() {
    let count = 512;
    let one = run(31, 0, 1, count);
    for threads in [2, 4] {
        let mut many: Vec<(usize, Digest)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || run(31, t, threads, count)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        many.sort_by_key(|&(i, _)| i);
        assert_eq!(many, one, "{threads} threads");
    }
}
