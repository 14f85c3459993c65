//! Differential tests of [`WarmState`]'s live tableau: whatever sequence
//! of contract edits goes through one state, every answer must be the
//! answer a fresh cold solve of the same problem gives.
//!
//! Seeded and dependency-free; `FUZZ_BUDGET=n` rescales the number of
//! sequences (`scripts/fuzzcheck.sh` runs this file with the campaign's
//! budget). A failure prints `live_edits:<family>:<seed> step <k>`.

use bate_lp::{quick_check, Problem, Relation, Sense, SolveError, VarId, WarmState};
use bate_reference::verify_certificate;

/// splitmix64: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

fn budget(default: usize) -> usize {
    std::env::var("FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// A master under random contract edits, with a hidden point `at` that
/// most edits keep feasible (so sequences are not one long string of
/// `Infeasible` verdicts) and some deliberately do not.
struct Master {
    warm: WarmState,
    /// `-1.0` under `Sense::Maximize`: costs are drawn for a minimization
    /// and mirrored.
    cost_sign: f64,
    /// Most terms a drawn row has.
    max_terms: usize,
    ids: Vec<VarId>,
    /// Hidden reference point, one entry per variable.
    at: Vec<f64>,
    /// The width each variable was created with (`set_var_upper` toggles
    /// between 0, this, and fractions of it).
    width: Vec<f64>,
    /// Mirror of every row's terms (by variable position) and relation.
    rows: Vec<(Vec<(usize, f64)>, Relation)>,
}

impl Master {
    /// A handful of variables and rows, or — `wide` — a master whose
    /// tableau starts past 256 columns, where the simplex keeps per-column
    /// row files and every live edit has to keep them current.
    fn new(rng: &mut Rng, sense: Sense, wide: bool) -> Master {
        let mut m = Master {
            warm: WarmState::new(Problem::new(sense)),
            cost_sign: match sense {
                Sense::Minimize => 1.0,
                Sense::Maximize => -1.0,
            },
            max_terms: if wide { 12 } else { 4 },
            ids: Vec::new(),
            at: Vec::new(),
            width: Vec::new(),
            rows: Vec::new(),
        };
        for _ in 0..if wide { 300 } else { 3 + rng.below(5) } {
            m.add_var(rng);
        }
        for _ in 0..if wide { 40 } else { 2 + rng.below(4) } {
            m.add_row(rng);
        }
        m
    }

    fn vars(&self) -> usize {
        self.at.len()
    }

    /// Costs that pull a variable up only on boxed variables: never
    /// unbounded.
    fn add_var(&mut self, rng: &mut Rng) -> usize {
        let boxed = rng.unit() < 0.6;
        let width = if boxed {
            rng.range(0.5, 4.0)
        } else {
            f64::INFINITY
        };
        let p = self.warm.problem_mut();
        let v = p.add_bounded_var(width);
        let cost = if boxed {
            rng.range(-1.0, 3.0)
        } else {
            rng.range(0.1, 3.0)
        };
        p.set_objective(v, self.cost_sign * cost);
        self.ids.push(v);
        self.at
            .push(rng.range(0.0, if boxed { width } else { 3.0 }));
        self.width.push(width);
        self.ids.len() - 1
    }

    fn random_terms(&mut self, rng: &mut Rng) -> Vec<(usize, f64)> {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for _ in 0..1 + rng.below(self.max_terms) {
            let j = rng.below(self.vars());
            if !terms.iter().any(|&(w, _)| w == j) {
                terms.push((j, rng.range(-2.0, 2.0)));
            }
        }
        terms
    }

    fn activity(&self, row: usize) -> f64 {
        self.rows[row].0.iter().map(|&(j, a)| a * self.at[j]).sum()
    }

    /// A rhs the hidden point satisfies with some room — which for rows
    /// with negative activity is a negative rhs.
    fn rhs_for(&self, rng: &mut Rng, relation: Relation, activity: f64) -> f64 {
        match relation {
            Relation::Le => activity + rng.range(0.0, 2.0),
            Relation::Ge => activity - rng.range(0.0, 2.0),
            Relation::Eq => activity,
        }
    }

    fn add_row(&mut self, rng: &mut Rng) {
        let terms = self.random_terms(rng);
        let relation = [Relation::Le, Relation::Ge, Relation::Eq][rng.below(3)];
        self.rows.push((terms, relation));
        let rhs = self.rhs_for(rng, relation, self.activity(self.rows.len() - 1));
        let terms: Vec<_> = self.rows[self.rows.len() - 1]
            .0
            .iter()
            .map(|&(j, a)| (self.ids[j], a))
            .collect();
        self.warm
            .problem_mut()
            .add_constraint(&terms, relation, rhs);
    }

    /// One random edit from the contract.
    fn edit(&mut self, rng: &mut Rng) {
        let rows = self.rows.len();
        match rng.below(10) {
            // Append variables and splice them into existing rows, moving
            // each row's rhs along so the hidden point stays on its side.
            0..=2 => {
                for _ in 0..1 + rng.below(3) {
                    let j = self.add_var(rng);
                    for _ in 0..1 + rng.below(2) {
                        let row = rng.below(rows);
                        if self.rows[row].0.iter().any(|&(w, _)| w == j) {
                            continue;
                        }
                        let coef = rng.range(-2.0, 2.0);
                        self.rows[row].0.push((j, coef));
                        self.warm
                            .problem_mut()
                            .extend_constraint(row, &[(self.ids[j], coef)]);
                        let rhs = self.warm.problem().rhs(row) + coef * self.at[j];
                        self.warm.problem_mut().set_rhs(row, rhs);
                    }
                }
            }
            3..=4 => self.add_row(rng),
            // Move a rhs: usually to something the hidden point satisfies,
            // now and then anywhere.
            5..=6 => {
                let row = rng.below(rows);
                let relation = self.rows[row].1;
                let rhs = if rng.unit() < 0.85 {
                    self.rhs_for(rng, relation, self.activity(row))
                } else {
                    rng.range(-3.0, 6.0)
                };
                self.warm.problem_mut().set_rhs(row, rhs);
            }
            // Retire a variable to a zero box, re-open it, or resize it;
            // the hidden point follows where it can.
            _ => {
                let j = rng.below(self.vars());
                let v = self.ids[j];
                let now = self.warm.problem().vars()[v.index()].upper;
                let next = if now == 0.0 {
                    self.width[j]
                } else if rng.unit() < 0.5 {
                    0.0
                } else if self.width[j].is_finite() {
                    self.width[j] * rng.range(0.3, 1.0)
                } else {
                    rng.range(0.5, 4.0)
                };
                self.warm.problem_mut().set_var_upper(v, next);
                self.at[j] = self.at[j].min(next);
            }
        }
    }
}

/// Random sequences of contract edits — appended variables spliced into
/// existing rows, appended rows of all three relations (negative rhs
/// included), rhs edits, bounds dropped to zero and raised again — through
/// one `WarmState`, every answer compared with a fresh cold solve:
/// verdict, objective to 1e-6 relative, the float KKT gate, and the exact
/// rational certificate while the instance is small.
fn edits_match_cold_at_every_step(family: &str, sense: Sense, wide: bool, sequences: usize) {
    let mut live_solves = 0u64;
    let mut solves = 0u64;
    for seed in 0..sequences as u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x11ee);
        let mut m = Master::new(&mut rng, sense, wide);
        let _ = m.warm.solve();
        for step in 0..44 {
            for _ in 0..1 + rng.below(3) {
                m.edit(&mut rng);
            }
            let tag = format!("live_edits:{family}:{seed} step {step}");
            let warm = m.warm.solve();
            let cold = m.warm.problem().clone().solve();
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    assert!(
                        close(w.objective, c.objective),
                        "{tag}: live objective {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    assert!(
                        quick_check(m.warm.problem(), &w, 1e-6),
                        "{tag}: KKT gate refused"
                    );
                    if m.vars() <= 14 {
                        verify_certificate(m.warm.problem(), &w)
                            .unwrap_or_else(|e| panic!("{tag}: certificate rejected: {e}"));
                    }
                    solves += 1;
                    if w.stats.warm_start {
                        live_solves += 1;
                    }
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (w, c) => panic!(
                    "{tag}: verdict mismatch: live {:?} vs cold {:?}",
                    w.map(|s| s.objective),
                    c.map(|s| s.objective)
                ),
            }
        }
    }
    // The sequences must actually exercise the live path, not fall back
    // cold every time.
    assert!(
        live_solves * 2 > solves,
        "{family}: only {live_solves} of {solves} solves ran on the live tableau"
    );
}

#[test]
fn random_contract_edits_match_cold_at_every_step() {
    edits_match_cold_at_every_step("min", Sense::Minimize, false, budget(60));
}

/// The same under `Sense::Maximize`: the tableau minimizes internally, so
/// appended columns' costs and the reported duals go through a sign.
#[test]
fn random_contract_edits_match_cold_when_maximizing() {
    edits_match_cold_at_every_step("max", Sense::Maximize, false, budget(60));
}

/// The same on masters of 300 variables: past 256 columns the tableau
/// keeps a row file per column, which spliced terms, appended rows and
/// columns, and rows converted for phase 1 all have to keep current. A
/// quarter of the sequences, each step costing a wider cold solve.
#[test]
fn random_contract_edits_match_cold_on_wide_masters() {
    edits_match_cold_at_every_step("wide", Sense::Minimize, true, budget(60).div_ceil(4));
}

/// Compaction's pattern: a wide master grows live — to twice its rows,
/// the matrix grown by `append_row`, and twice its columns, through
/// `push_col`'s re-stride — and then has its problem replaced wholesale
/// by a smaller one. The replacement solves cold on the grown, swept
/// buffers, and bit for bit as a fresh `WarmState` solves it: values,
/// duals, pivots; so does a live row append after it. (In debug builds
/// `sweep` checks the grown tableau it clears.) A replacement is cold
/// whatever its shape, even the problem the tableau already holds.
#[test]
fn grown_master_replaced_wholesale_solves_as_a_fresh_one() {
    let mut rng = Rng(0xc0_4ac7);
    let mut m = Master::new(&mut rng, Sense::Minimize, true);
    // Tableau columns: variables, a slack per non-`Eq` row, an artificial
    // per row.
    let width = |m: &Master| {
        let slacks = m.rows.iter().filter(|(_, rel)| *rel != Relation::Eq);
        m.vars() + slacks.count() + m.rows.len()
    };
    let (rows0, cols0) = (m.rows.len(), width(&m));
    m.warm.solve().unwrap();
    while m.rows.len() <= rows0 * 2 || width(&m) <= cols0 * 2 {
        for _ in 0..4 {
            m.add_var(&mut rng);
        }
        m.add_row(&mut rng);
        m.add_row(&mut rng);
        m.warm.solve().unwrap();
    }
    assert_eq!(m.warm.stats().cold_solves, 1, "the growth stayed live");
    let same = m.warm.problem().clone();
    m.warm.replace_problem(same);
    assert!(!m.warm.solve().unwrap().stats.warm_start);

    let twin = Master::new(&mut Rng(0x5eed), Sense::Minimize, true);
    let mut fresh = WarmState::new(twin.warm.problem().clone());
    m.warm.replace_problem(twin.warm.problem().clone());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for round in 0..2 {
        let (a, b) = (m.warm.solve().unwrap(), fresh.solve().unwrap());
        assert_eq!(a.stats.warm_start, round == 1, "round {round}");
        assert_eq!(a.stats.pivots, b.stats.pivots, "round {round}");
        assert_eq!(bits(&a.values), bits(&b.values), "round {round}");
        assert_eq!(
            bits(a.duals.as_deref().unwrap()),
            bits(b.duals.as_deref().unwrap()),
            "round {round}"
        );
        // A row the hidden point keeps feasible.
        let cap = [(twin.ids[0], 1.0)];
        for warm in [&mut m.warm, &mut fresh] {
            warm.problem_mut().add_constraint(&cap, Relation::Le, twin.at[0]);
        }
    }
}

/// Round-off drift: 600 churn rounds on ONE tableau. The master has a
/// fixed structure (demand slots are retired and re-admitted in place at
/// a new size: bounds to zero and back, rhs to zero and back), so nothing
/// ever forces a rebuild and every round pivots the same matrix a little
/// further. No guard may trip: every round after the first resumes live,
/// and every answer matches a cold solve.
#[test]
fn six_hundred_in_place_churn_rounds_stay_live_and_correct() {
    const SLOTS: usize = 24;
    const TUNNELS: usize = 3;
    const LINKS: usize = 8;
    let mut rng = Rng(0xd81f7);
    let mut p = Problem::new(Sense::Minimize);
    let mut link_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); LINKS];
    // Per slot: flow columns, the delivered-fraction column, the demand row
    // and the availability row.
    let mut slots: Vec<(Vec<VarId>, VarId, usize, usize)> = Vec::new();
    for _ in 0..SLOTS {
        let f: Vec<VarId> = (0..TUNNELS)
            .map(|_| {
                let v = p.add_var();
                p.set_objective(v, rng.range(1.0, 2.0));
                for _ in 0..2 {
                    link_terms[rng.below(LINKS)].push((v, 1.0));
                }
                v
            })
            .collect();
        let b = p.add_bounded_var(1.0);
        let demand = rng.range(5.0, 20.0);
        let cover: Vec<_> = f.iter().map(|&v| (v, 1.0)).collect();
        let demand_row = p.add_constraint(&cover, Relation::Ge, demand);
        // Delivered fraction under the failure of tunnel 0.
        let mut qual = vec![(b, demand)];
        qual.extend(f[1..].iter().map(|&v| (v, -1.0)));
        p.add_constraint(&qual, Relation::Le, 0.0);
        let avail_row = p.add_constraint(&[(b, 1.0)], Relation::Ge, 0.5);
        slots.push((f, b, demand_row, avail_row));
    }
    for terms in link_terms.iter().filter(|t| !t.is_empty()) {
        p.add_constraint(terms, Relation::Le, 400.0);
    }

    let mut warm = WarmState::new(p);
    warm.solve().unwrap();
    let mut retired = [false; SLOTS];
    for round in 0..600 {
        for _ in 0..1 + rng.below(2) {
            let s = rng.below(SLOTS);
            let (f, b, demand_row, avail_row) = &slots[s];
            retired[s] = !retired[s];
            let p = warm.problem_mut();
            let (width, b_width, demand, avail) = if retired[s] {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                (
                    f64::INFINITY,
                    1.0,
                    rng.range(5.0, 20.0),
                    rng.range(0.3, 0.9),
                )
            };
            for &v in f {
                p.set_var_upper(v, width);
            }
            p.set_var_upper(*b, b_width);
            p.set_rhs(*demand_row, demand);
            p.set_rhs(*avail_row, avail);
        }
        let sol = warm
            .solve()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(sol.stats.warm_start, "round {round}: fell back cold");
        assert!(
            quick_check(warm.problem(), &sol, 1e-6),
            "round {round}: KKT gate refused"
        );
        let cold = warm.problem().clone().solve().unwrap();
        assert!(
            close(sol.objective, cold.objective),
            "round {round}: live objective {} vs cold {}",
            sol.objective,
            cold.objective
        );
    }
    assert_eq!(warm.stats().cold_solves, 1, "{:?}", warm.stats());
}

/// The float gate and the exact certificate agree on a maximize optimum
/// (the certificate's duals are in the problem's own sense).
#[test]
fn quick_check_matches_exact_certificate_on_maximize() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var();
    let y = p.add_var();
    p.set_objective(x, 3.0);
    p.set_objective(y, 2.0);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
    let sol = p.solve().unwrap();
    assert!(quick_check(&p, &sol, 1e-6));
    verify_certificate(&p, &sol).unwrap();
}
