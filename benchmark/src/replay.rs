//! The second half of a traced run: feed the logged operations, in the
//! order the controller saw them, through each layer's public functions,
//! timing every call from outside and parenting one child span per call on
//! the operation that caused it.
//!
//! [`Model`] restates the controller's handling of submits, withdraws,
//! rounds and link reports with the same calls in the same order, so its
//! pool and allocation stay in step with the live controller's and its
//! verdicts must equal the ones read off the wire.

use crate::harness::{Lane, Samples};
use crate::spec::{Workload, MAX_FAILURES};
use crate::stats::{mean, median};
use crate::trace::{OpKind, Recorder, TRACE_FILE_SPANS};
use bate_core::admission::admit_and_apply;
use bate_core::incremental::{DemandDelta, IncrementalScheduler, IncrementalStats};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::scheduling::{harden, schedule, scheduling_lp};
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{LinkSet, Scenario, ScenarioSet};
use bate_obs::Registry;
use bate_routing::{RoutingScheme, TunnelSet};
use bate_system::client::DemandRequest;
use bate_system::proto::Message;
use bate_system::wire::{crc32, decode_payload, encode_frame, FrameAssembler};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// `scheduling_lp` builds the full formulation, which row generation
/// exists to avoid; it is timed only below this many qualification rows
/// (demands × scenarios), and on the first rounds of a run.
const LP_BUILD_MAX_ROWS: usize = 20_000;
const LP_BUILD_ROUNDS: usize = 8;

/// Per-layer numbers, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Replayed {
    pub metrics: Metrics,
    /// Broken replay expectations, for the report.
    pub notes: Vec<String>,
    pub failed: u64,
}

/// Durations and counts collected while replaying measured operations.
#[derive(Default)]
struct Layers {
    admit_us: Vec<f64>,
    reject_us: Vec<f64>,
    fixed: u64,
    conjecture_calls: u64,
    admission_ns: u64,
    apply_ms: Vec<f64>,
    round_ms: Vec<f64>,
    lp_build_ms: Vec<f64>,
    harden_ms: Vec<f64>,
    rowgen_rounds: Vec<f64>,
    rows_added: Vec<f64>,
    master_rows: Vec<f64>,
    hard_violations: u64,
    lp_solve_ms: Vec<f64>,
    lp_rows: Vec<f64>,
    lp_cols: Vec<f64>,
    lp_iterations: Vec<f64>,
    lp_pivots: Vec<f64>,
    lp_bland: Vec<f64>,
    lp_phase1_s: f64,
    lp_total_s: f64,
    greedy_us: Vec<f64>,
    affected: Vec<f64>,
    /// Replayed time inside measured operations, top-level calls only.
    attributed_ns: u64,
}

/// The controller's state machine, restated over the public layer
/// functions (`controller.rs`: `handle_submit_locked`, `Mirror::solve`,
/// `schedule_round`, `handle_link_report`).
struct Model<'a> {
    ctx: TeContext<'a>,
    pool: Vec<BaDemand>,
    alloc: Allocation,
    failed: LinkSet,
    mirror: Option<IncrementalScheduler>,
    pending: Vec<DemandDelta>,
    poisoned_at: Option<usize>,
}

impl Model<'_> {
    fn demand(&self, req: &DemandRequest) -> Option<BaDemand> {
        let s = self.ctx.topo.find_node(&req.src)?;
        let d = self.ctx.topo.find_node(&req.dst)?;
        let pair = self.ctx.tunnels.pair_index(s, d)?;
        Some(BaDemand {
            id: DemandId(req.id),
            bandwidth: vec![(pair, req.bandwidth)],
            beta: req.beta,
            price: req.price,
            refund_ratio: req.refund_ratio.clamp(0.0, 1.0),
        })
    }

    fn withdraw(&mut self, id: u64) {
        let before = self.pool.len();
        self.pool.retain(|d| d.id.0 != id);
        self.alloc.remove_demand(DemandId(id));
        if self.pool.len() != before {
            self.pending.push(DemandDelta::Remove(DemandId(id)));
        }
    }

    fn incremental_stats(&self) -> IncrementalStats {
        self.mirror.as_ref().map(|m| m.stats()).unwrap_or_default()
    }

    /// The warm solve of a multi-submit batch, poison guard included.
    /// `None`: the controller would have kept the fold's allocations.
    fn batch_solve(&mut self) -> Option<bate_core::scheduling::ScheduleResult> {
        if let Some(at) = self.poisoned_at {
            if self.pool.len() >= at {
                return None;
            }
            self.poisoned_at = None;
        }
        if self.mirror.is_none() {
            self.pending = self.pool.iter().cloned().map(DemandDelta::Add).collect();
            self.mirror = Some(IncrementalScheduler::new(&self.ctx));
        }
        let deltas = std::mem::take(&mut self.pending);
        let sched = self.mirror.as_mut().expect("just set");
        match sched.apply(&self.ctx, &deltas) {
            Ok(res) => Some(res),
            Err(_) => {
                self.mirror = None;
                self.poisoned_at = Some(self.pool.len());
                None
            }
        }
    }
}

/// Lays replayed spans end to end inside the span that caused them.
#[derive(Clone, Copy)]
struct Cursor {
    op: u32,
    at: u64,
}

impl Cursor {
    fn child(
        &mut self,
        rec: &mut Recorder,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        ns: u64,
    ) -> u32 {
        let id = rec.span(self.op, parent, layer, name, self.at, self.at + ns);
        self.at += ns;
        id
    }
}

pub fn replay(
    workload: Workload,
    rec: &mut Recorder,
    verdicts: &HashMap<u64, bool>,
    samples: &Samples,
    lanes: [&Lane; 2],
) -> Replayed {
    let spec = workload.spec();
    let topo = (spec.topology)();
    let t = Instant::now();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let tunnel_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let scenarios = ScenarioSet::enumerate(&topo, MAX_FAILURES);
    let scenario_ms = t.elapsed().as_secs_f64() * 1e3;
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();

    let mut model = Model {
        ctx,
        pool: Vec::new(),
        alloc: Allocation::new(),
        failed: LinkSet::new(topo.num_groups()),
        mirror: None,
        pending: Vec::new(),
        poisoned_at: None,
    };
    // Read around each replayed admission to learn whether step 1 (the
    // fixed check) decided it or Algorithm 1 had to run.
    let via_fixed = Registry::global().counter("bate_admission_via_fixed_total");
    let mut l = Layers::default();
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut fail = |note: String| {
        failed += 1;
        if notes.len() < 8 {
            notes.push(note);
        }
    };
    let mut lp_builds = 0usize;
    let mut measured_ops = 0u64;
    let mut measured_op_ns = 0u64;
    // The incremental scheduler's lifetime counters as the window opened:
    // set-up and warm-up solves are not the window's.
    let mut inc_before = IncrementalStats::default();

    // The log is consumed: nothing reads it after the replay.
    for (i, op) in std::mem::take(&mut rec.ops).into_iter().enumerate() {
        if op.work == 0 {
            continue; // never completed; the run has already failed
        }
        // Replayed spans start where the span starts during which the
        // controller did the work.
        let mut cursor = Cursor {
            op: i as u32 + 1,
            at: rec.spans[op.work as usize - 1].start_ns,
        };
        if op.measured {
            if measured_ops == 0 {
                inc_before = model.incremental_stats();
            }
            measured_ops += 1;
            measured_op_ns += rec.spans[op.root as usize - 1].ns();
        }
        match &op.kind {
            OpKind::Wave { withdraws, submits } => {
                for &id in withdraws {
                    model.withdraw(id);
                }
                let mut fresh = 0usize;
                for req in submits {
                    let Some(demand) = model.demand(req) else {
                        fail(format!("demand {} names an unknown pair", req.id));
                        continue;
                    };
                    let fixed_before = via_fixed.get();
                    let t = Instant::now();
                    let admitted =
                        admit_and_apply(&model.ctx, &mut model.pool, &mut model.alloc, &demand);
                    let ns = t.elapsed().as_nanos() as u64;
                    cursor.child(rec, op.work, "core.admission", "admit_and_apply", ns);
                    if admitted {
                        model.pending.push(DemandDelta::Add(demand));
                        fresh += 1;
                    }
                    if verdicts.get(&req.id) != Some(&admitted) {
                        fail(format!(
                            "demand {}: wire verdict {:?}, reference fold {admitted}",
                            req.id,
                            verdicts.get(&req.id)
                        ));
                    }
                    if op.measured {
                        l.attributed_ns += ns;
                        l.admission_ns += ns;
                        let us = ns as f64 / 1e3;
                        if admitted {
                            l.admit_us.push(us);
                        } else {
                            l.reject_us.push(us);
                        }
                        if via_fixed.get() > fixed_before {
                            l.fixed += 1;
                        } else {
                            // Step 1 failed, so Algorithm 1 ran.
                            l.conjecture_calls += 1;
                        }
                    }
                }
                if submits.len() > 1 && fresh > 0 && model.failed.is_empty() {
                    let t = Instant::now();
                    let res = model.batch_solve();
                    let ns = t.elapsed().as_nanos() as u64;
                    cursor.child(rec, op.work, "core.incremental", "apply", ns);
                    if op.measured {
                        l.attributed_ns += ns;
                        l.apply_ms.push(ns as f64 / 1e6);
                    }
                    if let Some(res) = res {
                        model.alloc = res.allocation;
                    }
                }
            }
            OpKind::Round => {
                if model.pool.is_empty() || !model.failed.is_empty() {
                    continue;
                }
                let rows = model.pool.len() * scenarios.len();
                if op.measured && rows <= LP_BUILD_MAX_ROWS && lp_builds < LP_BUILD_ROUNDS {
                    lp_builds += 1;
                    let t = Instant::now();
                    black_box(scheduling_lp(&model.ctx, &model.pool, &caps).ok());
                    l.lp_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                let t0 = Instant::now();
                let solved = schedule(&model.ctx, &model.pool);
                let t1 = Instant::now();
                let Ok(mut res) = solved else {
                    // The controller keeps its allocation and pushes nothing.
                    if spec.exact_installs {
                        fail(format!(
                            "round over {} demands did not solve",
                            model.pool.len()
                        ));
                    }
                    continue;
                };
                let stats = res.solve_stats.clone();
                let violations = harden(&model.ctx, &model.pool, &mut res);
                let t2 = Instant::now();
                let round_ns = (t2 - t0).as_nanos() as u64;
                let lp_ns = (t1 - t0).as_nanos() as u64;
                let mut inner = cursor;
                let round = cursor.child(
                    rec,
                    op.work,
                    "core.scheduling",
                    "schedule_hardened",
                    round_ns,
                );
                // The final master solve as the solver timed it, at the end
                // of the LP half of the round; then the hardening sweep.
                let solve_ns = ((stats.total_secs() * 1e9) as u64).min(lp_ns);
                inner.at += lp_ns - solve_ns;
                inner.child(rec, round, "lp", "solve", solve_ns);
                inner.child(rec, round, "core.scheduling", "harden", round_ns - lp_ns);
                model.alloc = res.allocation;
                if workload == Workload::WanCycle {
                    let short = model
                        .pool
                        .iter()
                        .filter(|d| !model.alloc.meets_target(&model.ctx, d))
                        .count();
                    if short > 0 {
                        fail(format!("round left {short} demands short of their target"));
                    }
                    if !model.alloc.respects_capacity(&model.ctx, 1e-6) {
                        fail("round allocation exceeds a link capacity".into());
                    }
                }
                if op.measured {
                    l.attributed_ns += round_ns;
                    l.round_ms.push(round_ns as f64 / 1e6);
                    l.harden_ms.push((t2 - t1).as_secs_f64() * 1e3);
                    l.hard_violations += violations as u64;
                    if let Some(rg) = &res.rowgen {
                        l.rowgen_rounds.push(rg.rounds as f64);
                        l.rows_added.push(rg.rows_added as f64);
                        l.master_rows.push(rg.master_rows as f64);
                    }
                    l.lp_solve_ms.push(stats.total_secs() * 1e3);
                    l.lp_rows.push(stats.rows as f64);
                    l.lp_cols.push(stats.cols as f64);
                    l.lp_iterations.push(stats.iterations() as f64);
                    l.lp_pivots.push(stats.pivots as f64);
                    l.lp_bland.push(stats.bland_iterations as f64);
                    l.lp_phase1_s += stats.phase1_secs;
                    l.lp_total_s += stats.total_secs();
                }
            }
            OpKind::Link { group, up } => {
                let group = *group as usize;
                if *up {
                    model.failed.remove(group);
                } else {
                    model.failed.insert(group);
                }
                if model.pool.is_empty() {
                    continue;
                }
                if model.failed.is_empty() {
                    let t = Instant::now();
                    let solved = schedule(&model.ctx, &model.pool);
                    let ns = t.elapsed().as_nanos() as u64;
                    cursor.child(rec, op.work, "core.scheduling", "schedule", ns);
                    if op.measured {
                        l.attributed_ns += ns;
                    }
                    if let Ok(res) = solved {
                        model.alloc = res.allocation;
                    }
                } else {
                    let scenario = Scenario {
                        failed: model.failed.clone(),
                        probability: 0.0,
                    };
                    let affected = model
                        .pool
                        .iter()
                        .filter(|d| {
                            model.alloc.flows_of(d.id).any(|(t, f)| {
                                f > 0.0 && !tunnels.path(t).available_under(&topo, &scenario)
                            })
                        })
                        .count();
                    let t = Instant::now();
                    let out = greedy_recovery(&model.ctx, &model.pool, &scenario);
                    let ns = t.elapsed().as_nanos() as u64;
                    cursor.child(rec, op.work, "core.recovery", "greedy_recovery", ns);
                    model.alloc = out.allocation;
                    if op.measured {
                        l.attributed_ns += ns;
                        l.greedy_us.push(ns as f64 / 1e3);
                        l.affected.push(affected as f64);
                    }
                }
            }
        }
    }

    let wire = replay_wire(rec, lanes);
    // The share of the logged frames that crossed inside the window.
    let window_share = samples.frames as f64 / wire.frames.max(1) as f64;
    let wire_ns = wire.program_ns as f64 * window_share;
    let attributed = l.attributed_ns as f64 + wire_ns;
    let inc = model.incremental_stats();
    let since = |now: u64, before: u64| now.saturating_sub(before) as f64;
    let warm_rounds = since(inc.warm_rounds, inc_before.warm_rounds);
    let cold_rounds = since(inc.cold_rounds, inc_before.cold_rounds);
    let submits = samples.submits.max(1) as f64;

    let mut m = Metrics::new();
    m.insert("system.wire.encode_submit_ns", wire.encode_submit_ns);
    m.insert("system.wire.encode_install_ns", wire.encode_install_ns);
    m.insert("system.wire.decode_ns", wire.decode_ns);
    m.insert("system.wire.crc_ns_per_kib", wire.crc_ns_per_kib);
    m.insert(
        "system.wire.bytes_per_submit",
        samples.bytes as f64 / submits,
    );
    m.insert(
        "system.wire.frames_per_submit",
        samples.frames as f64 / submits,
    );
    m.insert(
        "system.controller.self_us_per_op",
        (measured_op_ns as f64 - attributed) / 1e3 / measured_ops.max(1) as f64,
    );
    m.insert(
        "system.controller.attributed_share",
        attributed / measured_op_ns.max(1) as f64,
    );
    m.insert("core.admission.admit_us", mean(&l.admit_us));
    m.insert("core.admission.reject_us", mean(&l.reject_us));
    let decided = (l.admit_us.len() + l.reject_us.len()).max(1) as f64;
    m.insert("core.admission.fixed_share", l.fixed as f64 / decided);
    m.insert("core.admission.conjecture_calls", l.conjecture_calls as f64);
    m.insert(
        "core.admission.busy_share",
        l.admission_ns as f64 / 1e9 / samples.seconds.max(1e-9),
    );
    m.insert("core.incremental.apply_p50_ms", median(&l.apply_ms));
    m.insert("core.incremental.warm_rounds", warm_rounds);
    m.insert("core.incremental.cold_rounds", cold_rounds);
    m.insert(
        "core.incremental.warm_share",
        warm_rounds / (warm_rounds + cold_rounds).max(1.0),
    );
    m.insert(
        "core.incremental.cert_fallbacks",
        since(inc.cert_fallbacks, inc_before.cert_fallbacks),
    );
    m.insert(
        "core.incremental.dual_pivots",
        since(inc.dual_pivots, inc_before.dual_pivots),
    );
    m.insert("core.scheduling.round_p50_ms", median(&l.round_ms));
    m.insert("core.scheduling.lp_build_p50_ms", median(&l.lp_build_ms));
    m.insert("core.scheduling.harden_p50_ms", median(&l.harden_ms));
    m.insert("core.scheduling.rowgen_rounds", mean(&l.rowgen_rounds));
    m.insert("core.scheduling.rows_added", mean(&l.rows_added));
    m.insert("core.scheduling.master_rows", mean(&l.master_rows));
    m.insert("core.scheduling.hard_violations", l.hard_violations as f64);
    m.insert("lp.solve_p50_ms", median(&l.lp_solve_ms));
    m.insert("lp.rows", mean(&l.lp_rows));
    m.insert("lp.cols", mean(&l.lp_cols));
    m.insert("lp.iterations", mean(&l.lp_iterations));
    m.insert("lp.pivots", mean(&l.lp_pivots));
    m.insert("lp.bland_iterations", mean(&l.lp_bland));
    m.insert("lp.phase1_share", l.lp_phase1_s / l.lp_total_s.max(1e-12));
    m.insert("core.recovery.greedy_p50_us", median(&l.greedy_us));
    m.insert("core.recovery.affected_demands", mean(&l.affected));
    m.insert("net.scenario_enumerate_ms", scenario_ms);
    m.insert("net.scenarios", scenarios.len() as f64);
    m.insert("routing.tunnel_compute_ms", tunnel_ms);
    m.insert("routing.tunnels", tunnels.total_tunnels() as f64);
    m.insert("obs.spans", rec.spans.len() as f64);
    Replayed {
        metrics: m,
        notes,
        failed,
    }
}

struct Wire {
    frames: u64,
    /// What the program itself spent: decoding what it received plus
    /// encoding what it sent.
    program_ns: u64,
    encode_submit_ns: f64,
    encode_install_ns: f64,
    decode_ns: f64,
    crc_ns_per_kib: f64,
}

/// Run every logged byte back through the codec. Wire spans hang off one
/// synthetic operation (op 0): the byte logs do not say which operation a
/// frame belonged to.
fn replay_wire(rec: &mut Recorder, lanes: [&Lane; 2]) -> Wire {
    let mut frames = 0u64;
    let mut decode_ns = 0u64;
    let mut program_ns = 0u64;
    let mut crc_ns = 0u64;
    let mut bytes = 0usize;
    let mut submit_ns = Vec::new();
    let mut install_ns = Vec::new();
    let root = rec.span(0, 0, "bench", "replay.wire", 0, 0);
    let mut cursor = 0u64;
    for lane in lanes {
        let Some((rx, tx)) = &lane.log else { continue };
        for (log, program_decodes) in [(tx, true), (rx, false)] {
            let t = Instant::now();
            black_box(crc32(black_box(log)));
            crc_ns += t.elapsed().as_nanos() as u64;
            bytes += log.len();

            let mut asm = FrameAssembler::new();
            for chunk in log.chunks(1 << 16) {
                asm.push(chunk);
                loop {
                    let t = Instant::now();
                    let Ok(Some((_, payload))) = asm.next_frame() else {
                        break;
                    };
                    let Ok(msg) = decode_payload::<Message>(payload) else {
                        break;
                    };
                    let d_ns = t.elapsed().as_nanos() as u64;
                    let t = Instant::now();
                    black_box(encode_frame(black_box(&msg)).ok());
                    let e_ns = t.elapsed().as_nanos() as u64;
                    frames += 1;
                    decode_ns += d_ns;
                    program_ns += if program_decodes { d_ns } else { e_ns };
                    // Spans past the trace file's cap would never be read.
                    if rec.spans.len() < TRACE_FILE_SPANS {
                        rec.span(0, root, "system.wire", "decode", cursor, cursor + d_ns);
                        rec.span(
                            0,
                            root,
                            "system.wire",
                            "encode_frame",
                            cursor + d_ns,
                            cursor + d_ns + e_ns,
                        );
                    }
                    cursor += d_ns + e_ns;
                    match msg {
                        Message::SubmitDemand { .. } => submit_ns.push(e_ns as f64),
                        Message::InstallAllocation { .. } => install_ns.push(e_ns as f64),
                        _ => {}
                    }
                }
            }
        }
    }
    rec.spans[root as usize - 1].end_ns = cursor;
    Wire {
        frames,
        program_ns,
        encode_submit_ns: mean(&submit_ns),
        encode_install_ns: mean(&install_ns),
        decode_ns: decode_ns as f64 / frames.max(1) as f64,
        crc_ns_per_kib: crc_ns as f64 / (bytes as f64 / 1024.0).max(1e-9),
    }
}
