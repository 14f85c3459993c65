//! Golden corpus for the simplex kernel: objectives and duals pinned to
//! recorded values at 1e-6, every answer certified exactly.
//!
//! The corpus is BATE-shaped: scheduling LPs (flow variables per tunnel,
//! bounded availability variables per failure scenario, delivery and
//! availability rows — the structure of the paper's Eq. 1–7) and
//! admission-shaped LPs (fractional multi-knapsacks over candidate
//! demands). Coefficients are randomized per instance so optimal bases —
//! and therefore duals — are generically unique, which is what makes
//! pinning the duals meaningful.
//!
//! The pinned values were recorded from an independent dense two-phase
//! tableau implementation (since retired; the exact oracle is the one
//! reference kept in the tree). Every solution is additionally run through
//! the exact certificate layer (`verify_certificate`, rational KKT
//! re-evaluation) and, where the instance is small enough for rational
//! pivots, differenced against the exact oracle's objective, so the corpus
//! guards the *answers*, not just agreement with a recording.

use bate_lp::simplex::solve_relaxation;
use bate_lp::{Problem, Relation, Sense, VarId};
use bate_reference::{solve_exact, verify_certificate};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Build a scheduling-shaped LP: minimize provisioned tunnel bandwidth
/// subject to demand delivery, per-scenario delivered-fraction coupling,
/// and a bandwidth-availability floor.
fn scheduling_instance(seed: u64, tunnels: usize, scenarios: usize) -> Problem {
    scheduling_instance_and_flows(seed, tunnels, scenarios).0
}

/// [`scheduling_instance`] and its tunnel-flow variables.
fn scheduling_instance_and_flows(
    seed: u64,
    tunnels: usize,
    scenarios: usize,
) -> (Problem, Vec<VarId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::new(Sense::Minimize);
    let demand = rng.gen_range(5.0..20.0);

    let f: Vec<_> = (0..tunnels)
        .map(|_| {
            let v = p.add_var();
            // Distinct random costs keep the optimum unique.
            p.set_objective(v, rng.gen_range(1.0..3.0));
            v
        })
        .collect();
    // Slightly jittered delivery coefficients keep constraint rows in
    // general position: two simplex implementations may reach different
    // optimal bases, and only generically-unique duals make the 1e-6 dual
    // comparison meaningful.
    p.add_constraint(
        &f.iter()
            .map(|&v| (v, rng.gen_range(0.9..1.1)))
            .collect::<Vec<_>>(),
        Relation::Ge,
        demand,
    );

    let mut avail_terms = Vec::with_capacity(scenarios);
    let mut prob_left = 1.0f64;
    for s in 0..scenarios {
        let b = p.add_bounded_var(1.0);
        // Scenario survival sets: each tunnel independently alive, with
        // jittered per-tunnel delivery efficiency (general position again).
        let mut terms = vec![(b, demand)];
        let mut any = false;
        for &fv in &f {
            if rng.gen_bool(0.7) {
                let eff: f64 = rng.gen_range(0.8..1.2);
                terms.push((fv, -eff));
                any = true;
            }
        }
        if !any {
            terms.push((f[0], -1.0));
        }
        p.add_constraint(&terms, Relation::Le, 0.0);
        let ps = if s + 1 == scenarios {
            prob_left
        } else {
            let ps = prob_left * rng.gen_range(0.3..0.7);
            prob_left -= ps;
            ps
        };
        avail_terms.push((b, ps));
    }
    p.add_constraint(&avail_terms, Relation::Ge, rng.gen_range(0.6..0.9));
    (p, f)
}

/// Build an admission-shaped LP: maximize weighted admitted (fractional)
/// demands subject to a handful of shared capacity rows.
fn admission_instance(seed: u64, demands: usize, links: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::new(Sense::Maximize);
    let x: Vec<_> = (0..demands)
        .map(|_| {
            let v = p.add_bounded_var(1.0);
            p.set_objective(v, rng.gen_range(0.5..5.0));
            v
        })
        .collect();
    for l in 0..links {
        let mut terms = Vec::new();
        for &xv in &x {
            if rng.gen_bool(0.5) {
                terms.push((xv, rng.gen_range(0.5..4.0)));
            }
        }
        if terms.is_empty() {
            terms.push((x[l % demands], 1.0));
        }
        let cap = rng.gen_range(2.0..8.0);
        p.add_constraint(&terms, Relation::Le, cap);
    }
    p
}

/// Recorded optimum of one corpus instance: objective and the dual of
/// every row.
type Pinned = (f64, &'static [f64]);

#[rustfmt::skip]
const SCHEDULING: [Pinned; 8] = [
    (30.524000196905483, &[0.0, -1.5030493255470008, -1.294157521127649, -0.4689323788129651, -0.0, 80.5818545881778]),
    (33.10724265221328, &[0.10769177031648615, -0.8098400791116337, -0.824046542833504, -0.1987850920919057, -0.13891540329675456, -0.0346993722372677, -0.04461980995071369, 36.706959899415935]),
    (13.250421272801281, &[0.5794271400349076, -0.7993351475074117, -0.35426514475317533, -0.19050326402606987, -0.137593631799297, -0.09500321588463118, -0.029220405891540333, -0.006375438735003768, -0.0, 13.030348416008973]),
    (23.521295679086073, &[0.0, -1.5721882262454883, -0.4201184886904008, -0.10417242199845217, -0.14635789236167654, -0.05899827490053042, -0.011424590570069193, -0.0, -0.007290420422819755, -0.0, -0.0, 27.798799028496287]),
    (28.46696166177415, &[1.6700177758359644, 7.598558442399466e-16, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0]),
    (7.7560214900872175, &[1.280461645387217, -0.08754419378790892, -0.0, -0.01837705327843039, -0.0067145249972408805, -0.002365390932615796, -0.0008496384606217524, -0.00043783383801690066, -0.0, -0.0003415723643437034, -7.01511910907382e-5, -4.6157703169794105e-5, -0.0, -7.007288735945205e-6, -0.0, -1.1211509284950641e-6, -2.5370670582637554e-6, 0.836378948664043]),
    (16.185454309011707, &[0.8438204531129837, -0.31375498951290465, -0.0, -0.1059328619878264, -0.0, -0.02047799985065549, -0.009454312628392003, -0.010665189896463171, -0.0, -0.001755887912973621, -0.0012499180029262864, -0.0002484487427413505, -0.00010433471990291046, -0.00011721412181611346, -0.0, -8.115821651456123e-6, -1.0498666638911643e-5, -1.5166304644863544e-6, -2.1698297754533258e-6, -0.0, -7.104624869490733e-7, 11.348992552771163]),
    (19.796277956640427, &[0.9908907193356519, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0]),
];

#[rustfmt::skip]
const ADMISSION: [Pinned; 6] = [
    (13.71488641310573, &[0.0, 0.0, 0.7487463843526817]),
    (23.42579669275905, &[0.0, 0.31822796578233964, 0.43855870508432204, 1.6319206057350837]),
    (27.621117071899487, &[0.0, 3.1544666372403904, 0.0, 0.8358532593753069, 0.0]),
    (24.238027683358577, &[0.7573632194914056, 0.0, 1.6402352553084443, 0.08658273661178982, 0.8353358757518099, 0.8889486145177584]),
    (24.589351316857034, &[0.8074921209328491, 0.0, 1.4110861068180987, 1.2324151385103326, 0.0, 0.1963752977387551, 1.3595523958778555, 0.6457565657109671]),
    (22.96029037124473, &[1.1764182833625672, 0.5390275324307799, 0.18520616533426704, 0.0, 0.4499434036885469, 0.42103605073364786, 0.34030993617611166, 0.5175801105946796, 0.472263070836518, 0.0]),
];

/// Objective of `scheduling_instance(0xB0B0_5EED, 6, 8)` with variable `j`
/// capped at 2.0, for `j` in 0..3.
const OVERRIDDEN: [f64; 3] = [12.34649902228123, 11.898064996619715, 13.620061660879983];

/// Exact *re-solves* cost rational pivots, so only instances with at most
/// this many variables plus rows get ground-truth differencing.
const EXACT_BUDGET: usize = 30;

/// Assert that `objective` is the exact oracle's optimum of `p`, to 1e-6
/// relative.
fn assert_exact_objective(p: &Problem, objective: f64, label: &str) {
    assert!(p.num_vars() + p.num_constraints() <= EXACT_BUDGET, "{label}: over the exact budget");
    let exact = solve_exact(p).unwrap_or_else(|e| panic!("{label}: exact solve failed: {e:?}"));
    let eo = exact.objective.to_f64();
    assert!(
        (objective - eo).abs() <= 1e-6 * (1.0 + eo.abs()),
        "{label}: objective {objective} vs exact {eo}"
    );
}

fn assert_matches_pinned(p: &Problem, (objective, duals): Pinned, label: &str) {
    let sol = solve_relaxation(p, &[]).unwrap_or_else(|e| {
        panic!("{label}: solve failed: {e:?}");
    });
    assert!(
        (objective - sol.objective).abs() < 1e-6,
        "{label}: objective mismatch: pinned {objective} vs solved {}",
        sol.objective
    );
    let sd = sol.duals.as_ref().expect("duals");
    assert_eq!(duals.len(), sd.len(), "{label}: dual count mismatch");
    for (i, (a, b)) in duals.iter().zip(sd).enumerate() {
        assert!(
            (a - b).abs() < 1e-6,
            "{label}: dual {i} mismatch: pinned {a} vs solved {b}"
        );
    }
    // The solution must satisfy the problem it claims to solve.
    assert!(p.is_feasible(&sol.values, 1e-6), "{label}: infeasible");
    // Exact KKT certification — cheap (one rational pass over the
    // nonzeros), so it runs on every instance and pins optimality of the
    // ones too large for an exact re-solve via the duality gap.
    verify_certificate(p, &sol).unwrap_or_else(|e| panic!("{label}: certificate rejected: {e}"));
    if p.num_vars() + p.num_constraints() <= EXACT_BUDGET {
        assert_exact_objective(p, sol.objective, label);
    }
}

#[test]
fn golden_scheduling_instances() {
    // 8 scheduling-shaped instances across sizes.
    let shapes = [(3, 4), (4, 6), (5, 8), (6, 10), (8, 12), (10, 16), (12, 20), (6, 24)];
    for (k, (&(tunnels, scenarios), pinned)) in shapes.iter().zip(SCHEDULING).enumerate() {
        let p = scheduling_instance(0x5EED_0000 + k as u64, tunnels, scenarios);
        assert_matches_pinned(&p, pinned, &format!("scheduling[{k}] t={tunnels} s={scenarios}"));
    }
}

#[test]
fn golden_admission_instances() {
    // 6 admission-shaped instances across sizes.
    let shapes = [(6, 3), (10, 4), (14, 5), (20, 6), (28, 8), (40, 10)];
    for (k, (&(demands, links), pinned)) in shapes.iter().zip(ADMISSION).enumerate() {
        let p = admission_instance(0xADA1_0000 + k as u64, demands, links);
        assert_matches_pinned(&p, pinned, &format!("admission[{k}] d={demands} l={links}"));
    }
}

#[test]
fn golden_under_bound_overrides() {
    // Branch-and-bound style tightened re-solves: the override path gives
    // the pinned optimum, which is also the exact optimum of the problem
    // with that bound written into it.
    let (p, flows) = scheduling_instance_and_flows(0xB0B0_5EED, 6, 8);
    for (j, pinned) in OVERRIDDEN.into_iter().enumerate() {
        assert_eq!(flows[j].index(), j);
        let label = format!("override {j}");
        let sol = solve_relaxation(&p, &[(j, 0.0, 2.0)])
            .unwrap_or_else(|e| panic!("{label}: solve failed: {e:?}"));
        assert!(
            (pinned - sol.objective).abs() < 1e-6,
            "{label}: pinned {pinned} vs solved {}",
            sol.objective
        );
        let mut capped = p.clone();
        capped.set_var_upper(flows[j], 2.0);
        assert!(capped.is_feasible(&sol.values, 1e-6), "{label}: infeasible");
        assert_exact_objective(&capped, sol.objective, &label);
    }
}
