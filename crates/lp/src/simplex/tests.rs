#[cfg(test)]
use super::{solve_relaxation, solve_with, BoundOverride, Tableau, Workspace, SCRATCH};

#[cfg(test)]
mod solve_tests {
    use crate::{Problem, Relation, Sense, SolveError};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn solve_emits_phase_span_only_inside_a_trace() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);

        let ring = bate_obs::trace::RingBufferSubscriber::new(64);
        bate_obs::trace::install(ring.clone(), bate_obs::SimClock::shared());
        // Untraced solve: no context on this thread, so the solver stays
        // silent (the par_map determinism contract).
        p.solve().unwrap();
        assert!(ring.events().is_empty());
        // Traced solve: one lp.solve close-event, parented on the root
        // span and carrying the attribution counters.
        {
            let root = bate_obs::context::root("test", 7);
            p.solve().unwrap();
            let events = ring.events();
            let solve: Vec<_> = events.iter().filter(|e| e.name == "lp.solve").collect();
            assert_eq!(solve.len(), 1);
            assert_eq!(solve[0].ctx.trace_id, root.ctx.trace_id);
            assert_eq!(solve[0].ctx.parent_span_id, root.ctx.span_id);
            let keys: Vec<&str> = solve[0].fields.iter().map(|(k, _)| *k).collect();
            for key in ["rows", "cols", "warm_start", "iterations", "pivots", "dur_ns"] {
                assert!(keys.contains(&key), "missing {key} in {keys:?}");
            }
        }
        bate_obs::trace::uninstall();
    }

    #[test]
    fn textbook_maximize() {
        // max 3x+2y, x+y<=4, x+3y<=6 -> x=4, y=0, obj=12.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let s = p.solve().unwrap();
        approx(s.objective, 12.0);
        approx(s[x], 4.0);
        approx(s[y], 0.0);
    }

    #[test]
    fn minimize_with_ge_rows_needs_phase1() {
        // min 2x+3y, x+y>=10, x>=2, y>=3 -> x=7,y=3 obj=23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(&[(y, 1.0)], Relation::Ge, 3.0);
        let s = p.solve().unwrap();
        approx(s.objective, 23.0);
        approx(s[x], 7.0);
        approx(s[y], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x+y, x+2y=4, x-y=1 -> x=2, y=1, obj=3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        approx(s[x], 2.0);
        approx(s[y], 1.0);
        approx(s.objective, 3.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        p.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        p.set_objective(x, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 2.5);
        p.set_objective(x, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 2.5);
    }

    #[test]
    fn bounded_vars_without_any_rows() {
        // Pure box problem: max x + 2y with x<=3, y<=4 and no constraints.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 3.0);
        let y = p.add_bounded_var("y", 4.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 11.0);
        approx(s[x], 3.0);
        approx(s[y], 4.0);
    }

    #[test]
    fn bound_flip_interacts_with_rows() {
        // max x + y, x <= 1 (bound), y <= 1 (bound), x + y <= 1.5.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 1.0);
        let y = p.add_bounded_var("y", 1.0);
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.5);
        let s = p.solve().unwrap();
        approx(s.objective, 1.5);
    }

    #[test]
    fn basic_variable_hits_its_upper_bound() {
        // min -x  s.t.  x - y <= 0, y <= 2 (bound), x <= 5 (bound).
        // Optimal: y = 2, x = 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var("x", 5.0);
        let y = p.add_bounded_var("y", 2.0);
        p.set_objective(x, -1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 0.0);
        let s = p.solve().unwrap();
        approx(s[x], 2.0);
        approx(s.objective, -2.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -1 with min x+y means y >= x+1; optimum x=0, y=1.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 1.0);
        approx(s[y], 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (Beale-like); require termination and the
        // correct optimum.
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var("x1");
        let x2 = p.add_var("x2");
        let x3 = p.add_var("x3");
        let x4 = p.add_var("x4");
        p.set_objective(x1, -0.75);
        p.set_objective(x2, 150.0);
        p.set_objective(x3, -0.02);
        p.set_objective(x4, 6.0);
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 6.0);
        let s = p.solve().unwrap();
        approx(s.objective, 3.0);
        approx(s[x], 3.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve().unwrap();
        approx(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn fixed_variable_via_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_bounded_var("x", 0.0); // fixed to 0
        let y = p.add_bounded_var("y", 1.0);
        p.set_objective(x, 100.0);
        p.set_objective(y, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 1.0);
        approx(s[x], 0.0);
    }

    #[test]
    fn bounded_vars_in_ge_rows() {
        // min u (bounded [0,1]) s.t. u >= 0.6 — phase 1 must place a
        // bounded variable correctly.
        let mut p = Problem::new(Sense::Minimize);
        let u = p.add_bounded_var("u", 1.0);
        p.set_objective(u, 1.0);
        p.add_constraint(&[(u, 1.0)], Relation::Ge, 0.6);
        let s = p.solve().unwrap();
        approx(s[u], 0.6);
    }

    #[test]
    fn infeasible_due_to_upper_bounds() {
        // x <= 1 (bound) but x >= 2 (row): phase 1 must fail.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_bounded_var("x", 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn many_bounded_availability_vars() {
        // A miniature of BATE's scheduling structure: f variables plus
        // bounded B variables tied by B <= f/b rows and an availability
        // row Σ p B >= β.
        let mut p = Problem::new(Sense::Minimize);
        let f1 = p.add_var("f1");
        let f2 = p.add_var("f2");
        p.set_objective(f1, 1.0);
        p.set_objective(f2, 1.0);
        let b = 10.0;
        p.add_constraint(&[(f1, 1.0), (f2, 1.0)], Relation::Ge, b);
        let states = [(0.9f64, true, true), (0.06, false, true), (0.03, true, false)];
        let mut avail = Vec::new();
        for (i, &(prob, v1, v2)) in states.iter().enumerate() {
            let bv = p.add_bounded_var(&format!("B{i}"), 1.0);
            let mut terms = vec![(bv, b)];
            if v1 {
                terms.push((f1, -1.0));
            }
            if v2 {
                terms.push((f2, -1.0));
            }
            p.add_constraint(&terms, Relation::Le, 0.0);
            avail.push((bv, prob));
        }
        p.add_constraint(&avail, Relation::Ge, 0.95);
        let s = p.solve().unwrap();
        // Needs full delivery in state 0 plus one of the partial states.
        assert!(s.objective >= b - 1e-6);
        assert!(p.is_feasible(&s.values, 1e-6));
    }
}

#[cfg(test)]
mod workspace_tests {
    use super::{solve_relaxation, solve_with, Workspace};
    use crate::{Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// A small scheduling-shaped LP with `>=` rows (so a solve needs
    /// phase 1).
    fn demo_problem() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        let z = p.add_bounded_var("z", 2.0);
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.set_objective(z, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
        p
    }

    /// What a workspace solved before does not reach the next answer:
    /// branch-and-bound-style tightenings through one workspace give the
    /// vertex and the pivot counts of a fresh solve, bit for bit.
    #[test]
    fn reused_workspace_matches_fresh_bit_for_bit() {
        let p = demo_problem();
        let mut ws = Workspace::new();
        let tighten: &[&[super::BoundOverride]] = &[
            &[],
            &[],
            &[(0, 0.0, 3.0)],
            &[(1, 2.0, f64::INFINITY)],
            &[(0, 1.0, 6.0), (2, 0.0, 1.0)],
        ];
        for bounds in tighten {
            let reused = solve_with(&p, bounds, &mut ws).unwrap();
            let fresh = solve_relaxation(&p, bounds).unwrap();
            assert!(!reused.stats.warm_start);
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            for (a, b) in reused.values.iter().zip(&fresh.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "{bounds:?}");
            }
            assert_eq!(
                (reused.stats.iterations(), reused.stats.pivots),
                (fresh.stats.iterations(), fresh.stats.pivots),
                "{bounds:?}"
            );
        }
    }

    #[test]
    fn workspace_survives_infeasible_overrides() {
        let p = demo_problem();
        let mut ws = Workspace::new();
        solve_with(&p, &[], &mut ws).unwrap();
        // Force x to a range that contradicts row 2 (x - y <= 4 is fine;
        // make lower > upper instead for a straight bounds conflict).
        assert!(solve_with(&p, &[(0, 5.0, 2.0)], &mut ws).is_err());
        // Workspace remains usable afterwards.
        let again = solve_with(&p, &[], &mut ws).unwrap();
        let fresh = solve_relaxation(&p, &[]).unwrap();
        approx(again.objective, fresh.objective);
    }

    #[test]
    fn workspace_reused_across_different_problems_detects_mismatch() {
        let p1 = demo_problem();
        let mut ws = Workspace::new();
        let a = solve_with(&p1, &[], &mut ws).unwrap();
        approx(a.objective, solve_relaxation(&p1, &[]).unwrap().objective);

        // A different problem through the same workspace is solved on its
        // own rows.
        let mut p2 = Problem::new(Sense::Maximize);
        let x = p2.add_var("x");
        let y = p2.add_var("y");
        p2.set_objective(x, 3.0);
        p2.set_objective(y, 2.0);
        p2.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p2.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let b = solve_with(&p2, &[], &mut ws).unwrap();
        approx(b.objective, 12.0);
    }

    /// `min x + y` over `x + c·y >= rhs`: same variables, rows and term
    /// count whatever `c` and `rhs` are.
    fn same_shape(c: f64, rhs: f64) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, c)], Relation::Ge, rhs);
        p
    }

    /// Two problems of one shape, and one problem before and after a
    /// `set_rhs`, back to back: each solve answers its own rows, through
    /// one `Workspace` and through the thread's scratch alike.
    #[test]
    fn same_shaped_problems_get_their_own_optimum() {
        let mut ws = Workspace::new();
        let mut reused = |p: &Problem| solve_with(p, &[], &mut ws).unwrap().objective;
        let mut scratch = |p: &Problem| solve_relaxation(p, &[]).unwrap().objective;
        let through: [&mut dyn FnMut(&Problem) -> f64; 2] = [&mut scratch, &mut reused];
        for solve in through {
            approx(solve(&same_shape(2.0, 8.0)), 4.0); // y = 4
            approx(solve(&same_shape(4.0, 8.0)), 2.0); // y = 2
            let mut p = same_shape(2.0, 8.0);
            approx(solve(&p), 4.0);
            p.set_rhs(0, 3.0);
            approx(solve(&p), 1.5);
            p.set_rhs(0, 8.0);
            approx(solve(&p), 4.0);
        }
    }

    /// `build` hands phase 1 the reduced-cost row and objective the scan
    /// of the matrix would compute, bit for bit: negative right-hand
    /// sides (flipped rows), `Eq` rows, a shifted variable, a coefficient
    /// that merged to zero.
    #[test]
    fn built_phase1_row_is_the_scanned_one() {
        let mut p = demo_problem();
        let (x, y, z) = (crate::VarId(0), crate::VarId(1), crate::VarId(2));
        p.add_constraint(&[(x, 0.3), (y, -0.7)], Relation::Le, -0.1);
        p.add_constraint(&[(x, 0.1), (z, 0.2), (x, -0.1)], Relation::Ge, -5.0);
        p.add_constraint(&[(y, 1.7), (z, -0.9)], Relation::Eq, -0.4);
        p.add_constraint(&[(x, 1.1), (y, 1.3), (z, 0.7)], Relation::Eq, 6.5);
        let lo = [0.0, 1.25, 0.0];
        let hi = [f64::INFINITY, f64::INFINITY, 2.0];
        let mut tab = super::Tableau::default();
        tab.build(&p, &lo, &hi);
        let (built, built_val) = (tab.obj.clone(), tab.objval);
        tab.phase1_costs();
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&built), bits(&tab.obj));
        assert_eq!(built_val.to_bits(), tab.objval.to_bits());
        assert!(built.iter().any(|&d| d < 0.0), "phase 1 has work to do");
    }

    /// The scratch is swept on the way out of a failed solve too: after
    /// `build` has written the rows and phase 1 has pivoted on them, an
    /// `Infeasible` leaves not one cell behind.
    #[test]
    fn failed_solve_leaves_the_scratch_clean() {
        let mut p = demo_problem();
        let (x, y) = (crate::VarId(0), crate::VarId(1));
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        assert!(solve_relaxation(&p, &[]).is_err());
        super::SCRATCH.with(|scratch| {
            let tab = &scratch.borrow().tab;
            assert!(!tab.dirty && tab.a.len() >= tab.rows * tab.stride && tab.rows == 4);
            assert!(tab.a.iter().all(|v| v.to_bits() == 0));
            assert!(tab.col_rows.iter().all(Vec::is_empty));
        });
    }

    /// A solve that starts while the thread's scratch is in use — none
    /// does today — gets a workspace of its own instead of a panic.
    #[test]
    fn nested_solve_falls_back_to_a_fresh_workspace() {
        let p = demo_problem();
        let outer = solve_relaxation(&p, &[]).unwrap();
        let nested = super::SCRATCH.with(|scratch| {
            let _held = scratch.borrow_mut();
            solve_relaxation(&p, &[]).unwrap()
        });
        assert_eq!(nested.objective.to_bits(), outer.objective.to_bits());
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::{solve_with, Tableau, Workspace};
    use crate::{Problem, Relation, Sense};

    /// A non-small LP (419 columns) whose first two entering columns both
    /// have row files longer than `rows / 2`, so the gather of each
    /// dense-flags it, and both carry merged-to-zero coefficients (a bit
    /// and a file entry over a zero cell from `build` on). Phase 1 pivots
    /// `x` in through the main loop (row 0), bound-flips `z` to its upper
    /// rest, pivots `v` in on the tie of rows 1 and 2 — which leaves row
    /// 2's artificial basic at zero over `z - u`, with nothing to price —
    /// and drives it out with `degenerate_swap(2, z)`.
    fn dense_columns_lp() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let z = p.add_bounded_var("z", 0.5);
        let v = p.add_var("v");
        let u = p.add_var("u");
        p.set_objective(u, 1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(&[(x, 1.0), (z, 1.0), (v, 1.0)], Relation::Eq, 3.0);
        p.add_constraint(&[(x, 1.0), (z, 2.0), (v, 1.0), (u, -1.0)], Relation::Eq, 3.5);
        for k in 0..104 {
            let pad = p.add_var(&format!("p{k}"));
            p.set_objective(pad, 0.1);
            let mut terms = vec![(x, 1.0), (z, 1.0), (pad, 1.0)];
            if k % 8 == 0 {
                terms.extend([(x, -1.0), (z, -1.0)]); // both merge to 0.0
            }
            p.add_constraint(&terms, Relation::Le, 10.0);
        }
        p
    }

    fn assert_at_rest(tab: &Tableau) {
        assert!(!tab.dirty);
        assert!(tab.a.iter().all(|v| v.to_bits() == 0), "sweep left a cell");
        assert!(tab.row_bits.iter().all(|&w| w == 0), "sweep left a bit");
        assert!(tab.col_rows.iter().all(Vec::is_empty));
    }

    /// A dense-flagged column that is pivoted in loses its flag and gets
    /// the pivot row as its whole file, so `sweep` no longer visits its
    /// other rows: every bit it had there must be gone by then. Both ways
    /// in: the main loop's fused pivot and phase 1's `degenerate_swap`.
    #[test]
    fn dense_flagged_columns_pivoted_in_leave_no_bit() {
        let p = dense_columns_lp();
        let (x, z) = (0, 1);
        let lo = vec![0.0; p.num_vars()];
        let hi: Vec<f64> = p.vars.iter().map(|v| v.upper).collect();
        let mut tab = Tableau::default();
        tab.build(&p, &lo, &hi);
        assert!(!tab.small);
        for c in [x, z] {
            // The rule by which the first gather of `c` dense-flags it.
            assert!(tab.col_rows[c].len() > tab.rows / 2);
        }
        tab.gather_entering(x); // as the first iteration is about to
        assert!(tab.col_dense[x]);
        tab.phase1().unwrap();
        assert_eq!((tab.basis[0], tab.basis[2]), (x, z));
        assert_eq!(tab.stats.bound_flips, 1, "z was gathered, so flagged, for its flip");
        for (c, row) in [(x, 0), (z, 2)] {
            assert!(!tab.col_dense[c]);
            assert_eq!(tab.col_rows[c], [row]);
        }
        tab.sweep();
        assert_at_rest(&tab);
    }

    /// Whole solves of the same LP through one `Workspace`: at rest after
    /// each, and the second bit-equal to a solve on a fresh workspace.
    #[test]
    fn swept_workspace_solves_bit_equal_to_fresh() {
        let p = dense_columns_lp();
        let mut ws = Workspace::new();
        let fresh = solve_with(&p, &[], &mut Workspace::new()).unwrap();
        assert!((fresh.objective - 0.0).abs() < 1e-9 && (fresh.values[1] - 0.5).abs() < 1e-9);
        for _ in 0..2 {
            let sol = solve_with(&p, &[], &mut ws).unwrap();
            ws.tab.sweep();
            assert_at_rest(&ws.tab);
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sol.values), bits(&fresh.values));
            assert_eq!(bits(sol.duals.as_ref().unwrap()), bits(fresh.duals.as_ref().unwrap()));
            assert_eq!(sol.objective.to_bits(), fresh.objective.to_bits());
            assert_eq!(
                (sol.stats.iterations(), sol.stats.pivots, sol.stats.full_price_scans),
                (fresh.stats.iterations(), fresh.stats.pivots, fresh.stats.full_price_scans)
            );
        }
    }

    /// `full_price` as it was before it remembered its weakest slot: the
    /// whole list is rescanned for the first minimum at every eligible
    /// column past the cap. Kept here as the reference.
    fn full_price_reference(viol: &[f64], cap: usize) -> (Option<usize>, Vec<usize>, Vec<f64>) {
        let (mut candidates, mut cand_v) = (Vec::new(), Vec::new());
        let (mut best, mut best_v) = (None, 0.0);
        for (c, &v) in viol.iter().enumerate() {
            if v <= 0.0 {
                continue;
            }
            if v > best_v {
                best_v = v;
                best = Some(c);
            }
            if candidates.len() < cap {
                candidates.push(c);
                cand_v.push(v);
            } else {
                let mut mi = 0usize;
                for k in 1..cap {
                    if cand_v[k] < cand_v[mi] {
                        mi = k;
                    }
                }
                if v > cand_v[mi] {
                    candidates[mi] = c;
                    cand_v[mi] = v;
                }
            }
        }
        (best, candidates, cand_v)
    }

    /// 200 seeded reduced-cost rows over 2,000 columns, half with
    /// violations drawn from {1, 2, 3} (heavy ties, where only the
    /// first-min rule decides the victim) and half from a continuous
    /// range: the candidate list comes out element for element as the
    /// reference's, and so does the entering column.
    #[test]
    fn full_price_fills_the_candidate_list_as_the_rescanning_loop_did() {
        let cols = 2_000;
        let mut state = 0x5eed_u64;
        let mut next = || {
            // splitmix64: deterministic, dependency-free.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut tab = Tableau {
            cols,
            price_cap: 256,
            is_basic: vec![false; cols],
            allowed: vec![true; cols],
            at_upper: vec![false; cols],
            ..Tableau::default()
        };
        for row in 0..200 {
            // A third of the columns are not eligible (reduced cost >= 0).
            let viol: Vec<f64> = (0..cols)
                .map(|_| match (next() % 3, row % 2) {
                    (0, _) => 0.0,
                    (_, 0) => (1 + next() % 3) as f64,
                    _ => (next() % 1_000_000) as f64 / 1e3 + 1.0,
                })
                .collect();
            tab.obj = viol.iter().map(|v| -v).collect();
            tab.reset_pricing();
            let best = tab.choose_entering(false);
            let (ref_best, ref_candidates, ref_v) = full_price_reference(&viol, tab.price_cap);
            assert_eq!(best, ref_best, "row {row}");
            assert_eq!(tab.candidates, ref_candidates, "row {row}");
            assert_eq!(tab.cand_v, ref_v, "row {row}");
            assert_eq!(tab.candidates.len(), tab.price_cap);
        }
    }
}

#[cfg(test)]
mod dual_tests {
    use crate::{Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn duals_of_binding_le_rows() {
        // max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum x=4 (row 0 binds,
        // row 1 slack). Dual of row 0 = 3 (relaxing the cut admits more x),
        // dual of row 1 = 0.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        approx(duals[0], 3.0);
        approx(duals[1], 0.0);
    }

    #[test]
    fn duals_match_finite_difference() {
        // Generic check: perturb each rhs by ε and compare objective delta
        // against the reported dual.
        let base = |r0: f64, r1: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 2.0);
            p.set_objective(y, 3.0);
            p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, r0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, r1);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 2.0);
        p.set_objective(y, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let d0 = (base(10.0 + eps, 2.0) - base(10.0, 2.0)) / eps;
        let d1 = (base(10.0, 2.0 + eps) - base(10.0, 2.0)) / eps;
        assert!((duals[0] - d0).abs() < 1e-3, "{} vs {}", duals[0], d0);
        assert!((duals[1] - d1).abs() < 1e-3, "{} vs {}", duals[1], d1);
    }

    #[test]
    fn equality_duals() {
        // min x + y, x + 2y = 4, x - y = 1: duals via finite differences.
        let base = |r0: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 1.0);
            p.set_objective(y, 1.0);
            p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, r0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let fd = (base(4.0 + eps) - base(4.0)) / eps;
        assert!((duals[0] - fd).abs() < 1e-3, "{} vs {fd}", duals[0]);
    }

    #[test]
    fn negative_rhs_rows_report_correct_dual_sign() {
        // min x + y with x - y <= -1 (row gets normalized internally).
        let base = |r: f64| -> f64 {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var("x");
            let y = p.add_var("y");
            p.set_objective(x, 1.0);
            p.set_objective(y, 1.0);
            p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, r);
            p.solve().unwrap().objective
        };
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective(x, 1.0);
        p.set_objective(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        let s = p.solve().unwrap();
        let duals = s.duals.as_ref().unwrap();
        let eps = 1e-4;
        let fd = (base(-1.0 + eps) - base(-1.0)) / eps;
        assert!((duals[0] - fd).abs() < 1e-3, "{} vs {fd}", duals[0]);
    }
}
