//! Batched-admission equivalence: a pipelined batch of N submissions
//! through the event-driven controller must produce *exactly* the same
//! verdicts as submitting the same demands one at a time against a cold
//! controller — and the post-batch allocation (the one warm solve
//! amortized across the batch) must achieve the certified exact-LP
//! objective for the admitted set.
//!
//! This is the system-level pin of the controller's batch fold, one
//! `bate_core::admission::admit_and_apply` step per entry: batching
//! changes *when* the pool is re-optimized, never *what* is admitted.

use bate_core::incremental::{SessionPath, SessionStats};
use bate_core::scheduling::{schedule, schedule_hardened};
use bate_core::{Allocation, BaDemand, DemandId, SchedulingSession, TeContext};
use bate_net::{topologies, NodeId, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelId, TunnelSet};
use bate_system::client::DemandRequest;
use bate_system::proto::Message;
use bate_system::wire::{read_frame, write_frame};
use bate_system::{Client, Controller, ControllerConfig, PipelinedClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

fn start_controller() -> Controller {
    Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start")
}

/// A seeded workload over testbed6: mixed pairs, sizes, and targets,
/// with a few oversized entries that must reject, so the verdict vector
/// is non-trivial in both directions.
fn seeded_demands(seed: u64, n: usize, id_base: u64) -> Vec<DemandRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dcs = ["DC1", "DC2", "DC3", "DC4", "DC5", "DC6"];
    (0..n)
        .map(|i| {
            let src = dcs[rng.gen_range(0..dcs.len())];
            let mut dst = dcs[rng.gen_range(0..dcs.len())];
            while dst == src {
                dst = dcs[rng.gen_range(0..dcs.len())];
            }
            // Every 5th demand is far beyond any cut capacity: a
            // guaranteed reject mixed into the batch.
            let bandwidth = if i % 5 == 4 {
                20_000.0
            } else {
                rng.gen_range(30.0..250.0)
            };
            let beta = [0.9, 0.95, 0.99][rng.gen_range(0..3usize)];
            DemandRequest::new(id_base + i as u64, src, dst, bandwidth, beta)
        })
        .collect()
}

#[test]
fn batched_equals_sequential_with_certified_objective() {
    let n = 12;
    // Distinct id ranges so the two controllers' trace roots (derived
    // from demand ids) never collide in the shared flight ring.
    let batch_reqs = seeded_demands(0xBA7E, n, 1000);
    let seq_reqs: Vec<DemandRequest> = batch_reqs
        .iter()
        .map(|r| DemandRequest {
            id: r.id + 1000,
            ..r.clone()
        })
        .collect();

    // Batched path: all N frames queued locally and flushed in one
    // write, so they land in one controller wakeup → one admission
    // batch → one warm solve.
    let ctrl_batch = start_controller();
    let mut pipelined = PipelinedClient::connect(ctrl_batch.addr()).unwrap();
    for req in &batch_reqs {
        pipelined.queue_submit(req).unwrap();
    }
    pipelined.flush().unwrap();
    let mut batch_verdicts = Vec::with_capacity(n);
    for req in &batch_reqs {
        let (id, admitted) = pipelined.recv_verdict().unwrap();
        assert_eq!(id, req.id, "replies must arrive in submission order");
        batch_verdicts.push(admitted);
    }

    // Sequential path: a cold controller, one round-trip per demand.
    let ctrl_seq = start_controller();
    let mut client = Client::connect(ctrl_seq.addr()).unwrap();
    let seq_verdicts: Vec<bool> = seq_reqs
        .iter()
        .map(|req| client.submit(req).unwrap())
        .collect();

    assert_eq!(
        batch_verdicts, seq_verdicts,
        "batched admission diverged from the sequential pipeline"
    );
    let admitted: Vec<&DemandRequest> = batch_reqs
        .iter()
        .zip(&batch_verdicts)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r)
        .collect();
    assert!(
        admitted.len() > 1 && admitted.len() < n,
        "seeded workload must mix admits and rejects (got {}/{n})",
        admitted.len()
    );
    assert_eq!(ctrl_batch.admitted_count(), admitted.len());
    assert_eq!(ctrl_seq.admitted_count(), admitted.len());

    // Exact oracle: the certified LP objective over the admitted set.
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let pool: Vec<BaDemand> = admitted
        .iter()
        .map(|r| {
            let s = topo.find_node(&r.src).unwrap();
            let d = topo.find_node(&r.dst).unwrap();
            let pair = tunnels.pair_index(s, d).unwrap();
            BaDemand::single(r.id, pair, r.bandwidth, r.beta)
        })
        .collect();
    let oracle = schedule(&ctx, &pool).expect("oracle solve");

    // The batch controller's post-batch allocation is its warm solve's;
    // its total must match the certified objective (the warm path is
    // KKT-certified against the exact LP, falling back cold otherwise).
    let batch_total: f64 = admitted.iter().map(|r| ctrl_batch.allocated_rate(r.id)).sum();
    assert!(
        (batch_total - oracle.total_bandwidth).abs() < 1e-6 * oracle.total_bandwidth.max(1.0),
        "batched allocation total {batch_total} != certified oracle objective {}",
        oracle.total_bandwidth
    );

    // After one scheduling round, the sequential controller lands on the
    // same certified objective — batching and sequencing converge.
    ctrl_seq.run_schedule_round();
    let seq_total: f64 = admitted
        .iter()
        .map(|r| ctrl_seq.allocated_rate(r.id + 1000))
        .sum();
    assert!(
        (seq_total - oracle.total_bandwidth).abs() < 1e-6 * oracle.total_bandwidth.max(1.0),
        "sequential round total {seq_total} != certified oracle objective {}",
        oracle.total_bandwidth
    );

    // The batch path really ran: the in-process batch-size histogram saw
    // the multi-submit batch (sequential submits only ever record 1s).
    let max_batch = bate_obs::Registry::global()
        .histogram("bate_admission_batch_size")
        .max();
    assert!(
        max_batch >= 2.0,
        "expected a multi-submit batch to be recorded, max batch size {max_batch}"
    );
}

/// Duplicated frames *inside* one batch replay the verdict their sibling
/// earned moments earlier — idempotency holds within a wakeup, not just
/// across round-trips.
#[test]
fn duplicate_submit_within_a_batch_replays_the_verdict() {
    let ctrl = start_controller();
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let req = DemandRequest::new(7, "DC1", "DC3", 150.0, 0.95);
    pipelined.queue_submit(&req).unwrap();
    pipelined.queue_submit(&req).unwrap(); // the duplicate
    pipelined.queue_submit(&DemandRequest::new(8, "DC2", "DC6", 80.0, 0.9)).unwrap();
    pipelined.flush().unwrap();

    let verdicts: Vec<(u64, bool)> = (0..3).map(|_| pipelined.recv_verdict().unwrap()).collect();
    assert_eq!(verdicts, vec![(7, true), (7, true), (8, true)]);
    assert_eq!(ctrl.admitted_count(), 2, "the duplicate is not double-counted");
}

/// A broker reduced to its socket: registers, then reads what the
/// controller installs. The controller answers in order on one
/// connection, so everything pushed before a `Ping` was handled has
/// been read when its `Pong` arrives.
struct Probe {
    stream: TcpStream,
    pings: u64,
}

impl Probe {
    fn register(ctrl: &Controller) -> Probe {
        let mut stream = TcpStream::connect(ctrl.addr()).unwrap();
        write_frame(&mut stream, &Message::RegisterBroker { dc: "DC1".into() }).unwrap();
        assert!(ctrl.wait_for_brokers(1, Duration::from_secs(2)));
        Probe { stream, pings: 0 }
    }

    fn send(&mut self, msg: &Message) {
        write_frame(&mut self.stream, msg).unwrap();
    }

    /// The allocation installed since the last call, and how many
    /// installs carried it.
    fn installed(&mut self) -> (Allocation, usize) {
        self.pings += 1;
        self.send(&Message::Ping { token: self.pings });
        let (mut alloc, mut installs) = (Allocation::new(), 0);
        loop {
            match read_frame::<Message, _>(&mut self.stream).unwrap() {
                Message::Pong { token } if token == self.pings => return (alloc, installs),
                Message::InstallAllocation { demand, entries } => {
                    installs += 1;
                    alloc.remove_demand(DemandId(demand));
                    for e in entries {
                        let tunnel = TunnelId {
                            pair: e.pair as usize,
                            tunnel: e.tunnel as usize,
                        };
                        alloc.set(DemandId(demand), tunnel, e.rate);
                    }
                }
                _ => {}
            }
        }
    }
}

fn flows(alloc: &Allocation, pool: &[BaDemand]) -> Vec<Vec<(TunnelId, f64)>> {
    pool.iter()
        .map(|d| alloc.flows_of(d.id).collect())
        .collect()
}

fn rounds(s: SessionStats) -> (u64, u64, u64) {
    (s.reused_rounds, s.warm_rounds, s.cold_rounds)
}

/// Submit `reqs` as one pipelined batch; the admitted ones.
fn submit_batch(pipelined: &mut PipelinedClient, reqs: &[DemandRequest]) -> Vec<DemandRequest> {
    for req in reqs {
        pipelined.queue_submit(req).unwrap();
    }
    pipelined.flush().unwrap();
    reqs.iter()
        .filter(|_| pipelined.recv_verdict().unwrap().1)
        .cloned()
        .collect()
}

/// The controller's topology, tunnels and scenarios, for the oracle.
fn testbed6_parts() -> (Topology, TunnelSet, ScenarioSet) {
    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    (topo, tunnels, scenarios)
}

fn pool_of(ctx: &TeContext, reqs: &[DemandRequest]) -> Vec<BaDemand> {
    reqs.iter()
        .map(|r| {
            let s = ctx.topo.find_node(&r.src).unwrap();
            let d = ctx.topo.find_node(&r.dst).unwrap();
            BaDemand::single(r.id, ctx.tunnels.pair_index(s, d).unwrap(), r.bandwidth, r.beta)
        })
        .collect()
}

/// What a cold `schedule_hardened` over `pool` guarantees: its total,
/// every demand at its target, capacity respected.
fn check(ctx: &TeContext, alloc: &Allocation, pool: &[BaDemand]) {
    let oracle = schedule_hardened(ctx, pool)
        .expect("oracle solve")
        .total_bandwidth;
    let total = alloc.total_allocated();
    assert!(
        (total - oracle).abs() <= 1e-6 * oracle,
        "installed total {total} != hardened oracle {oracle}"
    );
    assert!(pool.iter().all(|d| alloc.meets_target(ctx, d)));
    assert!(alloc.respects_capacity(ctx, 1e-6));
}

/// Rounds and repairs ask the session the batch solve left warm: with
/// nothing changed they reinstall its hardened optimum without a solve,
/// after a withdrawal a round takes one warm re-solve. What each installs
/// is what a cold `schedule_hardened` over the same pool guarantees.
#[test]
fn rounds_and_repairs_install_the_sessions_hardened_optimum() {
    let ctrl = start_controller();
    let mut probe = Probe::register(&ctrl);
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let admitted = submit_batch(&mut pipelined, &seeded_demands(0xBA7E, 12, 3000));

    let (topo, tunnels, scenarios) = testbed6_parts();
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let mut pool = pool_of(&ctx, &admitted);
    assert!(pool.len() > 4);
    probe.installed(); // the batch's own push

    // First round: nothing pending, so no solve; harden, install.
    ctrl.run_schedule_round();
    let (round, installs) = probe.installed();
    assert_eq!(installs, pool.len());
    check(&ctx, &round, &pool);
    assert_eq!(rounds(ctrl.session_stats()), (1, 0, 0));

    // Failure, then repair: the recovery allocation is replaced by the
    // held hardened optimum, the round's, without a solve.
    probe.send(&Message::LinkReport {
        group: 0,
        up: false,
    });
    assert_eq!(probe.installed().1, pool.len());
    ctrl.run_schedule_round(); // skipped while the failure is in effect
    assert_eq!(probe.installed().1, 0);
    probe.send(&Message::LinkReport { group: 0, up: true });
    let (repair, installs) = probe.installed();
    assert_eq!(installs, pool.len());
    check(&ctx, &repair, &pool);
    assert_eq!(flows(&repair, &pool), flows(&round, &pool));
    assert_eq!(rounds(ctrl.session_stats()), (2, 0, 0));
    ctrl.run_schedule_round();
    assert_eq!(flows(&probe.installed().0, &pool), flows(&round, &pool));
    assert_eq!(rounds(ctrl.session_stats()), (3, 0, 0));

    // One withdrawal: one delta against the pool, a warm re-solve.
    let gone = pool.remove(1);
    pipelined.queue_withdraw(gone.id.0).unwrap();
    pipelined.flush().unwrap();
    pipelined.recv_withdraw_ack().unwrap();
    ctrl.run_schedule_round();
    let (warm, installs) = probe.installed();
    assert_eq!(installs, pool.len());
    check(&ctx, &warm, &pool);
    assert_eq!(rounds(ctrl.session_stats()), (3, 1, 0));

    // The LP optimum a session holds for this pool is exact.
    let mut session = SchedulingSession::default();
    session.batch_optimum(&ctx, &pool).expect("master builds");
    let master = session.master().unwrap();
    bate_lp::exact::verify_certificate(master.problem(), master.last_solution().unwrap()).unwrap();
}

/// A multi-submit batch admitted while a failure is in effect skips its
/// batch solve, so its deltas stay pending in the session; the repair
/// takes them in one warm re-solve and installs a guaranteed schedule for
/// the whole pool. A session fed the same calls here lands on the same
/// installs, and its master's optimum is exact.
#[test]
fn a_repair_takes_what_was_admitted_during_the_failure_warm() {
    let ctrl = start_controller();
    let mut probe = Probe::register(&ctrl);
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let (topo, tunnels, scenarios) = testbed6_parts();
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let before = pool_of(&ctx, &submit_batch(&mut pipelined, &seeded_demands(0xBA7E, 8, 6000)));
    probe.installed(); // the batch's own push

    probe.send(&Message::LinkReport {
        group: 0,
        up: false,
    });
    probe.installed(); // the recovery allocation
    let during = pool_of(&ctx, &submit_batch(&mut pipelined, &seeded_demands(0xFA11, 8, 7000)));
    assert!(before.len() > 2 && during.len() > 2);
    let (_, installs) = probe.installed();
    assert_eq!(installs, during.len(), "no batch solve, so no pool-wide push");
    assert_eq!(rounds(ctrl.session_stats()), (0, 0, 0));

    probe.send(&Message::LinkReport { group: 0, up: true });
    let (repair, installs) = probe.installed();
    let pool: Vec<BaDemand> = before.iter().chain(&during).cloned().collect();
    assert_eq!(installs, pool.len());
    check(&ctx, &repair, &pool);
    assert_eq!(rounds(ctrl.session_stats()), (0, 1, 0));

    let mut session = SchedulingSession::default();
    session.batch_optimum(&ctx, &before).expect("master builds");
    for d in &during {
        session.note_add(d);
    }
    let round = session.hardened_round(&ctx, &pool).unwrap();
    assert_eq!((round.path, round.pending), (SessionPath::Warm, during.len()));
    assert_eq!(flows(&repair, &pool), flows(&round.result.allocation, &pool));
    let master = session.master().unwrap();
    bate_lp::exact::verify_certificate(master.problem(), master.last_solution().unwrap()).unwrap();
}

/// A multi-submit batch after a long run of batches of one must not feed
/// every edit since the last solve through the warm master: edits that
/// cancel never reach it, and a history with more pending deltas than
/// live demands is dropped and rebuilt from the pool.
#[test]
fn batch_after_many_single_flushes_solves_at_most_the_pool() {
    let ctrl = start_controller();
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let req = |id: u64| DemandRequest::new(id, "DC1", "DC3", 10.0, 0.9);
    let mut submit = |ids: std::ops::Range<u64>| {
        for id in ids.clone() {
            pipelined.queue_submit(&req(id)).unwrap();
        }
        pipelined.flush().unwrap();
        for id in ids {
            assert_eq!(pipelined.recv_verdict().unwrap(), (id, true));
        }
    };
    submit(0..4); // builds the master
    assert_eq!(ctrl.session_stats().last_apply_deltas, 4);
    // 200 single flushes, each followed by the withdrawal of the oldest
    // live demand: the pool stays at 4 and turns over 50 times.
    for id in 4..204 {
        submit(id..id + 1);
        let mut w = PipelinedClient::connect(ctrl.addr()).unwrap();
        w.queue_withdraw(id - 4).unwrap();
        w.flush().unwrap();
        assert_eq!(w.recv_withdraw_ack().unwrap(), id - 4);
    }
    submit(204..208);
    assert_eq!(ctrl.admitted_count(), 8);
    let fed = ctrl.session_stats().last_apply_deltas;
    assert!(fed <= 8, "the master was fed {fed} deltas for a pool of 8");
}

/// A multi-submit batch's verdicts leave at the fold, before its solve and
/// its pool-wide push. The first batch on ATT builds the session's master
/// cold (the first install follows the last verdict by about 25 ms in a
/// release build, 10x that in debug), so when the client holds every
/// verdict the broker's socket is still empty. The
/// installs follow: one per pooled demand, within capacity.
#[test]
fn verdicts_leave_before_the_batch_solve() {
    let topo = topologies::att();
    let ctrl = Controller::start(ControllerConfig::manual(
        topo.clone(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start");
    let mut probe = Probe::register(&ctrl);
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA77);
    let n = topo.num_nodes();
    let reqs: Vec<DemandRequest> = (0..250u64)
        .map(|i| {
            let s = rng.gen_range(0..n);
            let d = (s + rng.gen_range(1..n)) % n;
            let beta = [0.9, 0.95, 0.99][rng.gen_range(0..3usize)];
            let (src, dst) = (topo.node_name(NodeId(s)), topo.node_name(NodeId(d)));
            DemandRequest::new(9000 + i, src, dst, rng.gen_range(10.0..50.0), beta)
        })
        .collect();
    let admitted = submit_batch(&mut pipelined, &reqs);

    probe.stream.set_nonblocking(true).unwrap();
    let early = probe.stream.peek(&mut [0u8; 1]);
    probe.stream.set_nonblocking(false).unwrap();
    assert!(
        matches!(&early, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
        "an install reached the broker before the client held every verdict: {early:?}"
    );

    assert!(admitted.len() >= 100, "only {} admitted", admitted.len());
    // Holding the verdicts, the caller sees the solve they did not wait for.
    assert_eq!(ctrl.session_stats().last_apply_deltas, admitted.len());
    let (alloc, installs) = probe.installed();
    assert_eq!(installs, admitted.len());
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    assert!(alloc.respects_capacity(&ctx, 1e-6));
}
