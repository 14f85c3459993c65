//! Ablations of the reproduction's own design choices (DESIGN.md calls
//! these out):
//!
//! * **Scenario collapsing** — the per-demand state collapse of
//!   `bate_core::profile` vs the naive one-`B`-per-scenario formulation
//!   the paper writes down literally. Same optimum, very different LP
//!   sizes.
//! * **Hardening** — how often the Eq. 4 relaxation leaves hard targets
//!   unmet, and how many the post-LP repair pass fixes.
//! * **Shadow prices** — which links the scheduling LP actually prices
//!   (dual values), the hook for Pretium-style congestion pricing.

use super::common::{demand_snapshot, Env};
use bate_core::profile::MaskedProfile;
use bate_core::scheduling::{harden, schedule};
use bate_core::{AvailabilityClass, BaDemand, TeContext};
use bate_lp::{Problem, Relation, Sense, SolveError, VarId};
use bate_routing::TunnelId;
use std::time::Instant;

/// Naive scheduling LP: one `B` variable per (demand, raw scenario), as
/// Eq. 7 is literally written. Identical feasible set and optimum to
/// `bate_core::scheduling::schedule` — only the model size differs.
pub fn schedule_naive(
    ctx: &TeContext,
    demands: &[BaDemand],
) -> Result<(f64, usize, usize), SolveError> {
    let mut p = Problem::new(Sense::Minimize);
    let mut f_vars: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(demands.len());
    for demand in demands {
        let mut per = Vec::new();
        for &(pair, _) in &demand.bandwidth {
            let vars: Vec<VarId> = (0..ctx.tunnels.tunnels(pair).len())
                .map(|_| {
                    let v = p.add_var();
                    p.set_objective(v, 1.0);
                    v
                })
                .collect();
            per.push(vars);
        }
        f_vars.push(per);
    }

    for (di, demand) in demands.iter().enumerate() {
        for (ki, &(_, b)) in demand.bandwidth.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = f_vars[di][ki].iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Relation::Ge, b);
        }
        // One B per raw scenario — no collapsing.
        let mut avail_terms = Vec::new();
        for z in ctx.scenarios.iter() {
            let bv = p.add_bounded_var(1.0);
            for (ki, &(pair, b)) in demand.bandwidth.iter().enumerate() {
                let mut terms: Vec<(VarId, f64)> = vec![(bv, b)];
                for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                    let path = ctx.tunnels.path(TunnelId { pair, tunnel: ti });
                    if path.available_under(ctx.topo, z) {
                        terms.push((fv, -1.0));
                    }
                }
                p.add_constraint(&terms, Relation::Le, 0.0);
            }
            avail_terms.push((bv, z.probability));
        }
        p.add_constraint(&avail_terms, Relation::Ge, demand.beta);
    }

    let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ctx.topo.num_links()];
    for (di, demand) in demands.iter().enumerate() {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, &fv) in f_vars[di][ki].iter().enumerate() {
                for &l in &ctx.tunnels.path(TunnelId { pair, tunnel: ti }).links {
                    per_link[l.index()].push((fv, 1.0));
                }
            }
        }
    }
    for (li, terms) in per_link.iter().enumerate() {
        if !terms.is_empty() {
            let cap = ctx.topo.link(bate_net::LinkId(li)).capacity;
            p.add_constraint(terms, Relation::Le, cap);
        }
    }

    let vars = p.num_vars();
    let rows = p.num_constraints();
    let sol = p.solve()?;
    Ok((sol.objective, vars, rows))
}

/// Collapsing ablation result for one topology.
pub struct CollapseAblation {
    pub topology: String,
    pub scenarios: usize,
    /// Total collapsed states across demands.
    pub collapsed_states: usize,
    pub collapsed_secs: f64,
    pub naive_secs: f64,
    pub naive_vars: usize,
    /// |collapsed objective - naive objective| (must be ~0: the collapse
    /// is exact).
    pub objective_gap: f64,
}

/// Run the collapsing ablation on the testbed at a given pruning depth.
pub fn collapse_ablation(max_failures: usize, seed: u64) -> CollapseAblation {
    let env = Env::new(
        bate_net::topologies::testbed6(),
        bate_routing::RoutingScheme::default_ksp4(),
        max_failures,
    );
    let ctx = env.ctx();
    let targets = AvailabilityClass::testbed_targets();
    let demands = demand_snapshot(&env, 8, (50.0, 200.0), &targets, seed);

    let t0 = Instant::now();
    let collapsed = schedule(&ctx, &demands);
    let collapsed_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let naive = schedule_naive(&ctx, &demands);
    let naive_secs = t1.elapsed().as_secs_f64();

    let collapsed_states: usize = demands
        .iter()
        .map(|d| MaskedProfile::collapse(&ctx, d, &[]).len())
        .sum();

    let (objective_gap, naive_vars) = match (&collapsed, &naive) {
        (Ok(c), Ok((obj, vars, _))) => ((c.total_bandwidth - obj).abs(), *vars),
        _ => (0.0, 0),
    };
    CollapseAblation {
        topology: env.topo.name().to_string(),
        scenarios: ctx.scenarios.len(),
        collapsed_states,
        collapsed_secs,
        naive_secs,
        naive_vars,
        objective_gap,
    }
}

/// Hardening ablation: violations before/after the repair pass.
pub struct HardenAblation {
    pub demands: usize,
    pub violations_before: usize,
    pub violations_after: usize,
}

pub fn harden_ablation(seeds: &[u64]) -> HardenAblation {
    let env = Env::testbed();
    let ctx = env.ctx();
    let targets = AvailabilityClass::testbed_targets();
    // Per-seed rounds (a schedule plus a hardening pass each) fan out;
    // the sums below are order-independent integer counts.
    let per_seed: Vec<(usize, usize, usize)> = crate::par::par_map(seeds, |&seed| {
        let demands = demand_snapshot(&env, 10, (100.0, 400.0), &targets, seed);
        match schedule(&ctx, &demands) {
            Ok(mut res) => {
                let before = demands
                    .iter()
                    .filter(|d| !res.allocation.meets_target(&ctx, d))
                    .count();
                let after = harden(&ctx, &demands, &mut res);
                (demands.len(), before, after)
            }
            Err(_) => (0, 0, 0),
        }
    });
    let mut total = 0;
    let mut before = 0;
    let mut after = 0;
    for (t, b, a) in per_seed {
        total += t;
        before += b;
        after += a;
    }
    HardenAblation {
        demands: total,
        violations_before: before,
        violations_after: after,
    }
}

/// Top-k priced links of a scheduling round (shadow prices).
pub fn shadow_prices(seed: u64, k: usize) -> Vec<(String, f64)> {
    let env = Env::testbed();
    let ctx = env.ctx();
    let targets = AvailabilityClass::testbed_targets();
    let demands = demand_snapshot(&env, 10, (100.0, 400.0), &targets, seed);
    let Ok(res) = schedule(&ctx, &demands) else {
        return Vec::new();
    };
    let mut priced: Vec<(String, f64)> = env
        .topo
        .links()
        .map(|(l, def)| {
            (
                format!(
                    "{}→{}",
                    env.topo.node_name(def.src),
                    env.topo.node_name(def.dst)
                ),
                res.link_prices[l.index()],
            )
        })
        .filter(|(_, p)| *p > 1e-9)
        .collect();
    priced.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    priced.truncate(k);
    priced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapsing_is_exact_and_smaller() {
        let ab = collapse_ablation(2, 5);
        assert!(
            ab.objective_gap < 1e-5,
            "collapse changed the optimum by {}",
            ab.objective_gap
        );
        assert!(
            ab.collapsed_states < ab.scenarios * 8,
            "collapse should shrink the state space: {} states vs {} scenarios",
            ab.collapsed_states,
            ab.scenarios
        );
    }

    #[test]
    fn hardening_never_increases_violations() {
        let ab = harden_ablation(&[1, 2, 3]);
        assert!(ab.violations_after <= ab.violations_before);
        assert!(ab.demands > 0);
    }
}
