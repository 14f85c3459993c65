//! The exact failure-recovery MILP (Eq. 8–12).
//!
//! Under a concrete failure scenario `z`, recompute `{f_d^t}` to maximize
//! total profit after refunds:
//!
//! ```text
//! maximize  Σ_d g_d (y_d + (1-μ_d)(1-y_d))  =  const + Σ_d g_d μ_d y_d
//! s.t.      R_dk = Σ_t f v_t^z / b_d^k,  R_dk ≥ y_d          (Eq. 8–9)
//!           Σ f u_t^e ≤ c_e w_e^z                            (Eq. 10–11)
//! ```
//!
//! The Eq. 9 big-M *upper* linkage (`R < M y + 1 - y`) only matters when
//! something would push `y_d` up illegitimately; maximization already wants
//! `y_d = 1`, and `R ≥ y` blocks it whenever the demand isn't fully
//! delivered — so the model drops the big-M row entirely (and with it any
//! numerical M-tuning).

use super::RecoveryOutcome;
use crate::allocation::Allocation;
use crate::demand::BaDemand;
use crate::TeContext;
use bate_lp::{milp, Problem, Relation, Sense, SolveError, VarId};
use bate_net::Scenario;
use bate_routing::TunnelId;

/// The built Eq. 8–12 model plus the variable handles needed to read a
/// solution back out.
struct RecoveryModel {
    p: Problem,
    y_vars: Vec<VarId>,
    f_vars: Vec<Vec<Vec<Option<VarId>>>>,
}

/// Build the Eq. 8–12 recovery MILP for `scenario` without solving it.
/// Exposed so the differential fuzzing campaign can certify storm-round
/// recovery models against the exact rational oracle.
pub fn recovery_milp(ctx: &TeContext, demands: &[BaDemand], scenario: &Scenario) -> Problem {
    build_model(ctx, demands, scenario).p
}

/// Solve the recovery MILP exactly. This is the "optimal" line of Fig. 19
/// and the slow side of the 50× speedup in Fig. 21.
pub fn optimal_recovery(
    ctx: &TeContext,
    demands: &[BaDemand],
    scenario: &Scenario,
) -> Result<RecoveryOutcome, SolveError> {
    let RecoveryModel { p, y_vars, f_vars } = build_model(ctx, demands, scenario);

    let cfg = milp::BnbConfig {
        max_nodes: 100_000,
        gap: 1e-6,
    };
    let sol = milp::solve(&p, cfg)?;

    let mut allocation = Allocation::new();
    let mut satisfied = Vec::new();
    for (di, demand) in demands.iter().enumerate() {
        if sol.int_value(y_vars[di]) == 1 {
            satisfied.push(demand.id);
        }
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, v) in f_vars[di][ki].iter().enumerate() {
                if let Some(v) = v {
                    let f = sol[*v];
                    if f > 1e-9 {
                        allocation.set(demand.id, TunnelId { pair, tunnel: ti }, f);
                    }
                }
            }
        }
    }
    let profit = RecoveryOutcome::compute_profit(demands, &satisfied);
    Ok(RecoveryOutcome {
        allocation,
        satisfied,
        profit,
    })
}

fn build_model(ctx: &TeContext, demands: &[BaDemand], scenario: &Scenario) -> RecoveryModel {
    let mut p = Problem::new(Sense::Maximize);

    let mut f_vars: Vec<Vec<Vec<Option<VarId>>>> = Vec::with_capacity(demands.len());
    let mut y_vars: Vec<VarId> = Vec::with_capacity(demands.len());

    for demand in demands {
        let y = p.add_binary_var();
        // Objective: g_d μ_d y_d (the refund saved by satisfying d).
        p.set_objective(y, demand.price * demand.refund_ratio);
        y_vars.push(y);

        let mut per = Vec::new();
        for &(pair, b) in &demand.bandwidth {
            let tunnels = ctx.tunnels.tunnels(pair);
            // Only surviving tunnels get flow variables (v_t^z = 0 tunnels
            // can't deliver anything).
            let vars: Vec<Option<VarId>> = tunnels
                .iter()
                .map(|path| {
                    if path.available_under(ctx.topo, scenario) {
                        Some(p.add_var())
                    } else {
                        None
                    }
                })
                .collect();
            // R_dk >= y_d  ⇔  Σ f v >= b y.
            let mut terms: Vec<(VarId, f64)> = vec![(y, -b)];
            for v in vars.iter().flatten() {
                terms.push((*v, 1.0));
            }
            p.add_constraint(&terms, Relation::Ge, 0.0);
            per.push(vars);
        }
        f_vars.push(per);
    }

    // Capacity on surviving links; failed links carry no flow variables for
    // surviving tunnels by construction, but shared links still need caps.
    let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ctx.topo.num_links()];
    for (di, demand) in demands.iter().enumerate() {
        for (ki, &(pair, _)) in demand.bandwidth.iter().enumerate() {
            for (ti, v) in f_vars[di][ki].iter().enumerate() {
                if let Some(v) = v {
                    for &l in &ctx.tunnels.path(TunnelId { pair, tunnel: ti }).links {
                        per_link[l.index()].push((*v, 1.0));
                    }
                }
            }
        }
    }
    for (li, terms) in per_link.iter().enumerate() {
        if !terms.is_empty() {
            let l = bate_net::LinkId(li);
            let cap = if scenario.link_up(ctx.topo, l) {
                ctx.topo.link(l).capacity
            } else {
                0.0
            };
            p.add_constraint(terms, Relation::Le, cap);
        }
    }

    RecoveryModel { p, y_vars, f_vars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::greedy::greedy_recovery;
    use bate_net::{topologies, Scenario, ScenarioSet};
    use bate_routing::{RoutingScheme, TunnelSet};

    fn ctx_testbed() -> (bate_net::Topology, TunnelSet, ScenarioSet) {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, 1);
        (topo, tunnels, scenarios)
    }

    #[test]
    fn optimal_satisfies_all_when_capacity_allows() {
        let (topo, tunnels, scenarios) = ctx_testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p13 = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let mut demands = vec![
            BaDemand::single(1, p13, 500.0, 0.9),
            BaDemand::single(2, p13, 600.0, 0.9),
        ];
        demands.iter_mut().for_each(|d| d.refund_ratio = 0.3);
        let out = optimal_recovery(&ctx, &demands, &Scenario::with_failures(&topo, &[])).unwrap();
        assert_eq!(out.satisfied.len(), 2);
        assert!(out.allocation.respects_capacity(&ctx, 1e-6));
    }

    /// Lemma 2's 2-approximation argument is knapsack-style: it assumes
    /// the demands contend for one bottleneck (greedy packs by density and
    /// stops at the break demand). We check it on exactly that instance
    /// class — all demands share one s-d pair.
    #[test]
    fn greedy_is_within_factor_two_on_single_pair_instances() {
        let (topo, tunnels, scenarios) = ctx_testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pair = tunnels.pair_index(n("DC1"), n("DC3")).unwrap();
        let l4 = topo.find_link(n("DC4"), n("DC5")).unwrap();
        let sc = Scenario::with_failures(&topo, &[topo.link(l4).group]);

        let mut x = 12345u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for trial in 0..10u64 {
            let k = 2 + next() % 4;
            let demands: Vec<BaDemand> = (0..k)
                .map(|i| {
                    let mut d = BaDemand::single(
                        trial * 10 + i as u64,
                        pair,
                        200.0 + (next() % 10) as f64 * 150.0,
                        0.9,
                    );
                    d.price = 100.0 + (next() % 9) as f64 * 100.0;
                    // A uniform refund ratio keeps the density order g/b
                    // aligned with the objective gains (Lemma 2 argues in
                    // terms of g_i, i.e. implicitly uniform μ).
                    d.refund_ratio = 0.5;
                    d
                })
                .collect();
            let opt = optimal_recovery(&ctx, &demands, &sc).unwrap();
            let grd = greedy_recovery(&ctx, &demands, &sc);
            // Compare the *recoverable* profit component (Σ g μ y): the
            // constant floor Σ g(1-μ) is shared.
            let floor: f64 = demands
                .iter()
                .map(|d| (1.0 - d.refund_ratio) * d.price)
                .sum();
            let opt_gain = opt.profit - floor;
            let grd_gain = grd.profit - floor;
            assert!(
                grd_gain >= opt_gain / 2.0 - 1e-6,
                "trial {trial}: greedy gain {grd_gain} < half of optimal {opt_gain}"
            );
            assert!(
                grd.profit <= opt.profit + 1e-6,
                "greedy cannot beat optimal"
            );
        }
    }

    /// On general multi-pair instances the published Algorithm 2 stops at
    /// the first unservable demand, so it can fall below OPT/2 (demands on
    /// untouched pairs are forfeited). The invariants that always hold:
    /// greedy never beats the optimum and never drops below the full-refund
    /// floor. Fig. 19 measures the empirical ratio (≤ 1.25 in the paper).
    #[test]
    fn greedy_bounded_by_optimal_on_multi_pair_instances() {
        let (topo, tunnels, scenarios) = ctx_testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let pairs = [
            tunnels.pair_index(n("DC1"), n("DC3")).unwrap(),
            tunnels.pair_index(n("DC1"), n("DC4")).unwrap(),
            tunnels.pair_index(n("DC2"), n("DC5")).unwrap(),
        ];
        let l4 = topo.find_link(n("DC4"), n("DC5")).unwrap();
        let sc = Scenario::with_failures(&topo, &[topo.link(l4).group]);
        let mut x = 999u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for trial in 0..8u64 {
            let k = 2 + next() % 3;
            let demands: Vec<BaDemand> = (0..k)
                .map(|i| {
                    let mut d = BaDemand::single(
                        trial * 10 + i as u64,
                        pairs[next() % pairs.len()],
                        200.0 + (next() % 10) as f64 * 150.0,
                        0.9,
                    );
                    d.price = 100.0 + (next() % 9) as f64 * 100.0;
                    d.refund_ratio = 0.1 + 0.2 * (next() % 4) as f64;
                    d
                })
                .collect();
            let opt = optimal_recovery(&ctx, &demands, &sc).unwrap();
            let grd = greedy_recovery(&ctx, &demands, &sc);
            let floor: f64 = demands
                .iter()
                .map(|d| (1.0 - d.refund_ratio) * d.price)
                .sum();
            assert!(grd.profit <= opt.profit + 1e-6);
            assert!(grd.profit >= floor - 1e-9);
        }
    }

    #[test]
    fn failed_links_carry_no_flow() {
        let (topo, tunnels, scenarios) = ctx_testbed();
        let ctx = TeContext::new(&topo, &tunnels, &scenarios);
        let n = |s: &str| topo.find_node(s).unwrap();
        let p14 = tunnels.pair_index(n("DC1"), n("DC4")).unwrap();
        let mut demands = vec![BaDemand::single(1, p14, 900.0, 0.9)];
        demands[0].refund_ratio = 0.5;
        let l8 = topo.find_link(n("DC1"), n("DC4")).unwrap();
        let sc = Scenario::with_failures(&topo, &[topo.link(l8).group]);
        let out = optimal_recovery(&ctx, &demands, &sc).unwrap();
        let loads = out.allocation.link_loads(&ctx);
        for (l, _) in topo.links() {
            if !sc.link_up(&topo, l) {
                assert_eq!(loads[l.index()], 0.0, "flow on failed link");
            }
        }
        // The demand reroutes and stays satisfied.
        assert_eq!(out.satisfied.len(), 1);
    }
}
