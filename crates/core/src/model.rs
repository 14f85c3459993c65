//! The BATE formulation, written once.
//!
//! The scheduling LP (Eq. 1–7), the incremental master that survives demand
//! churn, and the Appendix-A admission MILP are three models over the same
//! columns and the same constraint family:
//!
//! ```text
//! f_d^t >= 0                         one flow column per tunnel
//! Σ_t f_d^t            >= b_d^k      coverage            (Eq. 1)
//! b_d^k·B_d^s − Σ_{t up in s} f_d^t <= 0   qualification (Eq. 2–3)
//! Σ_{t up in s} f_d^t − b_d^k·q_d^s >= 0   qualification (Eq. 14)
//! Σ_s p_s·B_d^s        >= β_d        availability        (Eq. 4 / 15)
//! Σ_{t ∋ l} f_d^t      <= c_l        capacity            (Eq. 6 / 18)
//! ```
//!
//! `s` ranges over the demand's collapsed states ([`crate::profile`]), so
//! a qualification row is read off one state mask. This module owns every
//! piece of that — the columns, each row's terms, the seed set and the
//! held-rows bitmap of row generation, the separation sweep, and the
//! read-out of an optimum — and the three builders
//! ([`crate::scheduling`], [`crate::incremental`],
//! [`crate::admission::optimal`]) only decide the *order* in which the
//! pieces enter their `Problem`. That order is pinned by
//! `tests/model_text_golden.rs`: it fixes every pivot downstream.

use crate::allocation::Allocation;
use crate::demand::BaDemand;
use crate::profile::MaskedProfile;
use crate::TeContext;
use bate_lp::{LazyRow, Problem, Relation, Solution, SolveError, VarId};
use bate_routing::TunnelId;

/// How many of the most probable single-failure scenarios seed a
/// row-generation master, next to the all-up state.
pub const ROWGEN_SEED_SINGLES: usize = 4;

/// The scenario indices whose collapsed states seed a lazy master.
pub(crate) fn seed_scenarios(ctx: &TeContext) -> Vec<usize> {
    ctx.scenarios.most_probable_singles(ROWGEN_SEED_SINGLES)
}

/// Every demand's collapsed profile (microseconds each: not worth a fan-out).
pub(crate) fn collapse_all(ctx: &TeContext, demands: &[BaDemand]) -> Vec<MaskedProfile> {
    let tracked = seed_scenarios(ctx);
    let collapse = |d| MaskedProfile::collapse(ctx, d, &tracked);
    demands.iter().map(collapse).collect()
}

/// Qualification rows of the full formulation, over all `demands`.
pub(crate) fn full_qualification_rows(demands: &[BaDemand], profiles: &[MaskedProfile]) -> usize {
    profiles
        .iter()
        .zip(demands)
        .map(|(pr, d)| pr.len() * d.bandwidth.len())
        .sum()
}

/// Which of the two formulations a demand's indicators and qualification
/// rows are written in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Form {
    /// Eq. 2–3: delivered fractions `B ∈ [0, 1]`, rows `b·B − Σ f ≤ 0`.
    Scheduling,
    /// Eq. 14's lower linkage: binaries `q`, rows `Σ f − b·q ≥ 0`.
    Admission,
}

/// A demand's flow columns `f[id][pair][t]`, one per tunnel of each
/// requested pair, at objective coefficient `cost`.
pub(crate) fn flow_columns(
    p: &mut Problem,
    ctx: &TeContext,
    demand: &BaDemand,
    cost: f64,
) -> Result<Vec<Vec<VarId>>, SolveError> {
    let mut f = Vec::with_capacity(demand.bandwidth.len());
    for &(pair, _) in &demand.bandwidth {
        let tunnels = ctx.tunnels.tunnels(pair).len();
        if tunnels == 0 {
            return Err(SolveError::BadModel(format!(
                "demand {} requests a pair with no tunnels",
                demand.id.0
            )));
        }
        let vars: Vec<VarId> = (0..tunnels)
            .map(|t| {
                let v = p.add_var(&format!("f[{}][{pair}][{t}]", demand.id.0));
                p.set_objective(v, cost);
                v
            })
            .collect();
        f.push(vars);
    }
    Ok(f)
}

/// Eq. 1: one coverage row per requested pair. Returns the row indices.
pub(crate) fn coverage_rows(p: &mut Problem, demand: &BaDemand, f: &[Vec<VarId>]) -> Vec<usize> {
    demand
        .bandwidth
        .iter()
        .zip(f)
        .map(|(&(_, b), vars)| {
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Relation::Ge, b)
        })
        .collect()
}

/// The states whose qualification rows a lazy master starts with: the
/// all-up state (scenario 0 is always state 0) plus wherever the tracked
/// most-likely single-failure scenarios collapsed to.
fn seed_states(profile: &MaskedProfile) -> Vec<bool> {
    let mut flags = vec![false; profile.len()];
    if !flags.is_empty() {
        flags[0] = true;
    }
    for &si in &profile.tracked_states {
        flags[si] = true;
    }
    flags
}

/// One demand's columns in a model, and which of its qualification rows
/// the model holds.
#[derive(Debug)]
pub(crate) struct DemandCols {
    form: Form,
    /// `f[local pair][tunnel]`.
    pub f: Vec<Vec<VarId>>,
    /// One indicator per collapsed state: `B` or `q`, by `form`.
    pub ind: Vec<VarId>,
    /// Qualification rows in the model, `[si * pairs + ki]`. A held row is
    /// never generated again, which is also what makes a cutting-plane
    /// loop terminate.
    pub added: Vec<bool>,
}

impl DemandCols {
    /// Append the demand's indicator columns to `p`, after its flow
    /// columns `f`. Every indicator exists up front whatever rows the
    /// model starts with (rows can be appended later, columns cannot).
    pub(crate) fn new(
        p: &mut Problem,
        form: Form,
        demand: &BaDemand,
        profile: &MaskedProfile,
        f: Vec<Vec<VarId>>,
    ) -> DemandCols {
        let id = demand.id.0;
        let ind: Vec<VarId> = (0..profile.len())
            .map(|s| match form {
                Form::Scheduling => p.add_bounded_var(&format!("B[{id}][{s}]"), 1.0),
                Form::Admission => p.add_binary_var(&format!("q[{id}][{s}]")),
            })
            .collect();
        DemandCols {
            form,
            added: vec![false; profile.len() * f.len()],
            f,
            ind,
        }
    }

    /// The qualification row of state `si` and pair `ki`, from now on
    /// held by the model: the indicator against the flows of the tunnels
    /// that are up in `si`, in tunnel order.
    fn row(&mut self, demand: &BaDemand, profile: &MaskedProfile, si: usize, ki: usize) -> LazyRow {
        let b = demand.bandwidth[ki].1;
        let (on_indicator, on_flow, relation) = match self.form {
            Form::Scheduling => (b, -1.0, Relation::Le),
            Form::Admission => (-b, 1.0, Relation::Ge),
        };
        let mut terms = vec![(self.ind[si], on_indicator)];
        for (ti, &fv) in self.f[ki].iter().enumerate() {
            if profile.avail(si, ki, ti) {
                terms.push((fv, on_flow));
            }
        }
        self.added[si * self.f.len() + ki] = true;
        LazyRow {
            terms,
            relation,
            rhs: 0.0,
        }
    }

    /// Append the qualification rows a model starts with, state-major:
    /// every one, or under `lazy` those of the seed states plus whatever
    /// `carry` — a held-rows bitmap of an earlier incarnation of this
    /// demand, ignored unless its shape still fits — already discovered.
    pub(crate) fn add_rows(
        &mut self,
        p: &mut Problem,
        demand: &BaDemand,
        profile: &MaskedProfile,
        lazy: bool,
        carry: Option<&[bool]>,
    ) {
        let pairs = self.f.len();
        let seeds = seed_states(profile);
        let carry = carry.filter(|c| c.len() == self.added.len());
        for si in 0..profile.len() {
            for ki in 0..pairs {
                if !lazy || seeds[si] || carry.is_some_and(|c| c[si * pairs + ki]) {
                    let row = self.row(demand, profile, si, ki);
                    p.add_constraint(&row.terms, row.relation, row.rhs);
                }
            }
        }
    }

    /// The `(state, pair)` rows the model does not hold and `sol`
    /// violates ([`separate_demand`]).
    pub(crate) fn violated(
        &self,
        demand: &BaDemand,
        profile: &MaskedProfile,
        sol: &Solution,
    ) -> Vec<(usize, usize)> {
        let f_vals: Vec<Vec<f64>> = self
            .f
            .iter()
            .map(|per_pair| per_pair.iter().map(|&v| sol[v]).collect())
            .collect();
        let ind_vals: Vec<f64> = self.ind.iter().map(|&v| sol[v]).collect();
        separate_demand(demand, profile, &f_vals, &ind_vals, &self.added)
    }

    /// `rows` as cuts, marked held.
    pub(crate) fn cuts(
        &mut self,
        demand: &BaDemand,
        profile: &MaskedProfile,
        rows: &[(usize, usize)],
    ) -> Vec<LazyRow> {
        rows.iter()
            .map(|&(si, ki)| self.row(demand, profile, si, ki))
            .collect()
    }

    /// The left side of Eq. 4 / Eq. 15: `Σ_s p_s · indicator_s`.
    pub(crate) fn availability_terms(&self, profile: &MaskedProfile) -> Vec<(VarId, f64)> {
        self.ind
            .iter()
            .zip(&profile.states)
            .map(|(&v, s)| (v, s.probability))
            .collect()
    }
}

/// Sum the flow values of the tunnels whose mask bit is set — the
/// bitset sweep at the heart of the separation oracle. Bits are consumed
/// lowest-first, so the summation order matches the full formulation's
/// tunnel-index walk exactly (bit-identical accumulation).
fn masked_flow_sum(mut mask: u64, f: &[f64]) -> f64 {
    let mut sum = 0.0;
    while mask != 0 {
        sum += f[mask.trailing_zeros() as usize];
        mask &= mask - 1;
    }
    sum
}

/// Separation oracle for one demand: evaluate every not-yet-added
/// qualification row `b·B_s − Σ_{t up} f_t ≤ 0` of Eq. 2–3 at the
/// candidate point and return the `(state, pair)` indices violated beyond
/// `1e-9 · (1 + b)` — the same relative scale the golden equivalence
/// bound uses, so a clean pass certifies full-formulation optimality.
/// Eq. 14's `Σ f − b·q ≥ 0` is the same row negated, and IEEE subtraction
/// negates exactly, so the admission MILP separates through here too.
///
/// `f_vals[ki][ti]` are the demand's tunnel flows, `b_vals[si]` its
/// delivered-fraction variables, and `added[si * pairs + ki]` flags rows
/// already in the master (skipped — the LP enforces them already, and
/// skipping guarantees the cutting-plane loop terminates).
pub fn separate_demand(
    demand: &BaDemand,
    profile: &MaskedProfile,
    f_vals: &[Vec<f64>],
    b_vals: &[f64],
    added: &[bool],
) -> Vec<(usize, usize)> {
    let pairs = demand.bandwidth.len();
    let mut out = Vec::new();
    for (si, state) in profile.states.iter().enumerate() {
        for (ki, &(_, b)) in demand.bandwidth.iter().enumerate() {
            if added[si * pairs + ki] {
                continue;
            }
            let lhs = b * b_vals[si] - masked_flow_sum(state.masks[ki], &f_vals[ki]);
            if lhs > 1e-9 * (1.0 + b.abs()) {
                out.push((si, ki));
            }
        }
    }
    out
}

/// One separation sweep over a whole model, fanned out per demand.
pub(crate) fn sweep(
    demands: &[BaDemand],
    profiles: &[MaskedProfile],
    cols: &[DemandCols],
    sol: &Solution,
) -> Vec<Vec<(usize, usize)>> {
    let order: Vec<usize> = (0..demands.len()).collect();
    bate_lp::par_map(&order, |&di| {
        cols[di].violated(&demands[di], &profiles[di], sol)
    })
}

/// What [`sweep`] found, as cuts in demand order, marked held.
pub(crate) fn cuts(
    demands: &[BaDemand],
    profiles: &[MaskedProfile],
    cols: &mut [DemandCols],
    violated: &[Vec<(usize, usize)>],
) -> Vec<LazyRow> {
    let mut out = Vec::new();
    for (di, rows) in violated.iter().enumerate() {
        out.extend(cols[di].cuts(&demands[di], &profiles[di], rows));
    }
    out
}

/// The left sides of Eq. 6 / Eq. 18, per link: every flow column of
/// `members` on each link its tunnel crosses.
pub(crate) fn capacity_terms<'a>(
    ctx: &TeContext,
    members: impl IntoIterator<Item = (&'a BaDemand, &'a DemandCols)>,
) -> Vec<Vec<(VarId, f64)>> {
    let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ctx.topo.num_links()];
    for (demand, cols) in members {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, &fv) in cols.f[ki].iter().enumerate() {
                for &l in &ctx.tunnels.path(TunnelId { pair, tunnel: ti }).links {
                    per_link[l.index()].push((fv, 1.0));
                }
            }
        }
    }
    per_link
}

/// One capacity row per link some member uses, in link order. Returns
/// each link's row index (`None`: link unused).
pub(crate) fn add_capacity_rows<'a>(
    p: &mut Problem,
    ctx: &TeContext,
    members: impl IntoIterator<Item = (&'a BaDemand, &'a DemandCols)>,
    capacities: &[f64],
) -> Vec<Option<usize>> {
    capacity_terms(ctx, members)
        .iter()
        .zip(capacities)
        .map(|(terms, &cap)| {
            (!terms.is_empty()).then(|| p.add_constraint(terms, Relation::Le, cap))
        })
        .collect()
}

/// The sparse tunnel allocation `sol` gives `members`.
pub(crate) fn read_allocation<'a>(
    members: impl IntoIterator<Item = (&'a BaDemand, &'a DemandCols)>,
    sol: &Solution,
) -> Allocation {
    let mut allocation = Allocation::new();
    for (demand, cols) in members {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, &fv) in cols.f[ki].iter().enumerate() {
                let f = sol[fv];
                if f > 1e-9 {
                    allocation.set(demand.id, TunnelId { pair, tunnel: ti }, f);
                }
            }
        }
    }
    allocation
}

/// Link shadow prices from the LP duals. For this minimization the dual
/// of a Le capacity row is ≤ 0 (more capacity can only reduce the total
/// bandwidth needed); report the magnitude as the link's price.
pub(crate) fn link_prices(sol: &Solution, capacity_row: &[Option<usize>]) -> Vec<f64> {
    capacity_row
        .iter()
        .map(|row| match (&sol.duals, row) {
            (Some(duals), Some(r)) => duals[*r].abs(),
            _ => 0.0,
        })
        .collect()
}
