//! The central controller (§4): admission control, scheduling, failure
//! recovery, and broker coordination behind a TCP listener.
//!
//! **Event-driven plane.** One poll loop ([`crate::poller`]) owns every
//! connection as a [`crate::event::Conn`] state machine — no
//! thread-per-connection, no accept polling. Within a poll wakeup, all
//! pending `SubmitDemand` frames form an *admission batch*: verdicts are
//! decided by the same first-come-first-served pipeline fold the threaded
//! plane ran (identical verdicts by construction: each entry is one
//! `bate_core::admission::admit_and_apply` step against the pool its
//! predecessors left), and then ONE warm solve of the
//! loop's [`SchedulingSession`] re-optimizes the whole pool, amortizing
//! the scheduling LP across the batch instead of paying a round per
//! arrival. TE rounds and the repair after a link comes back ask the same
//! session, so they cost what changed since its last optimum (DESIGN.md
//! §6y). Batches of one take the exact legacy
//! path, which is what pins the fault-suite goldens byte-identical across
//! the concurrency-model change. Periodic rounds are a deadline of the
//! same loop, so a running controller is one thread.
//!
//! Hardened against lossy control channels: demand ids double as
//! idempotency keys — including *within* a batch, where a duplicated
//! submit frame replays the verdict its sibling earned moments earlier. A
//! retried `SubmitDemand` (same id, same content) replays the original
//! admission verdict and re-pushes the allocation — it is never
//! double-counted, and never spuriously refused the way the pre-hardening
//! duplicate check refused it. Withdraws are acknowledged and idempotent,
//! and a broker that re-registers after a severed connection is
//! immediately re-synced with every live allocation.
//!
//! Slow peers cannot wedge the plane: a connection stuck mid-frame
//! (stalled or dribbling bytes) is reaped once its frame-assembly
//! deadline ([`ControllerConfig::idle_timeout`]) passes, while every
//! other connection keeps admitting.

use crate::event::Conn;
use crate::poller::{Poller, Waker};
use crate::proto::{FlowEntry, Message};
use crate::wire::{encode_frame, encode_frame_ctx, FrameCtx};
use bate_core::admission;
use bate_core::incremental::{SchedulingSession, SessionRound, SessionStats};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{GroupId, LinkSet, Scenario, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry handles for the controller metric family. These are
/// process-wide counters; the trace events carry per-message detail.
struct CtrlMetrics {
    submits: Arc<bate_obs::Counter>,
    replay_hits: Arc<bate_obs::Counter>,
    withdraws: Arc<bate_obs::Counter>,
    link_reports: Arc<bate_obs::Counter>,
    rounds: Arc<bate_obs::Counter>,
    stats_queries: Arc<bate_obs::Counter>,
    /// Admission batches drained from the poll loop (size distribution in
    /// `bate_admission_batch_size`; a size-1 batch is the legacy path).
    batches: Arc<bate_obs::Counter>,
    batch_size: Arc<bate_obs::Histogram>,
    /// Controller-side admission latency per submit, µs: frame decode to
    /// verdict (and any batch solve) queued for write. One observation
    /// per demand, so quantiles are per-demand, not per-batch.
    admit_latency: Arc<bate_obs::Histogram>,
    /// Warm incremental solves amortized across multi-submit batches.
    batch_solves: Arc<bate_obs::Counter>,
    /// Connections reaped for stalling mid-frame past the idle deadline.
    conns_reaped: Arc<bate_obs::Counter>,
}

fn ctrl_metrics() -> &'static CtrlMetrics {
    static M: OnceLock<CtrlMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        CtrlMetrics {
            submits: r.counter("bate_ctrl_submits_total"),
            replay_hits: r.counter("bate_ctrl_idempotent_replay_hits_total"),
            withdraws: r.counter("bate_ctrl_withdraws_total"),
            link_reports: r.counter("bate_ctrl_link_reports_total"),
            rounds: r.counter("bate_ctrl_schedule_rounds_total"),
            stats_queries: r.counter("bate_ctrl_stats_queries_total"),
            batches: r.counter("bate_ctrl_batches_total"),
            batch_size: r.histogram("bate_admission_batch_size"),
            admit_latency: r.histogram("bate_admission_latency_us"),
            batch_solves: r.counter("bate_ctrl_batch_warm_solves_total"),
            conns_reaped: r.counter("bate_ctrl_conns_reaped_total"),
        }
    })
}

/// Controller parameters.
pub struct ControllerConfig {
    pub topo: Topology,
    pub routing: RoutingScheme,
    /// Scenario pruning depth `y` for the scheduling LP.
    pub max_failures: usize,
    /// Period of the Online Scheduler's automatic rescheduling rounds
    /// (§3.3 suggests minutes in production; `None`: rounds only happen
    /// via [`Controller::run_schedule_round`]).
    pub schedule_interval: Option<Duration>,
    /// How long a connection may sit *mid-frame* before it is reaped
    /// (slow-loris defense). Idle connections between frames are never
    /// reaped. `None` disables reaping.
    pub idle_timeout: Option<Duration>,
}

impl ControllerConfig {
    /// A controller with manual scheduling rounds (what tests and demos
    /// want — deterministic timing).
    pub fn manual(topo: Topology, routing: RoutingScheme, max_failures: usize) -> Self {
        ControllerConfig {
            topo,
            routing,
            max_failures,
            schedule_interval: None,
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Cached verdict for one demand id (the idempotency record).
#[derive(Debug, Clone, Copy)]
struct SubmitRecord {
    /// Hash of the submitted fields: a retry matches, an id collision
    /// (same id, different demand) does not.
    fingerprint: u64,
    admitted: bool,
    withdrawn: bool,
}

/// Work requests delivered to the poll loop from other threads
/// (public-API callers), signaled through the waker.
enum Cmd {
    ScheduleRound(Arc<Gate>),
}

/// A one-shot completion latch for commands that callers wait on.
struct Gate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            done: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> bool {
        let mut done = self.done.lock();
        let deadline = Instant::now() + timeout;
        while !*done {
            if self.cv.wait_until(&mut done, deadline).timed_out() {
                return *done;
            }
        }
        true
    }
}

/// Per-connection progress snapshot, published by the poll loop after
/// every wakeup (what the slow-loris tests assert against).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnProgress {
    pub bytes_in: u64,
    pub frames_in: u64,
    /// Whether the peer is currently mid-frame.
    pub mid_frame: bool,
}

struct Shared {
    topo: Topology,
    tunnels: TunnelSet,
    scenarios: ScenarioSet,
    state: Mutex<CtrlState>,
    /// Notified on broker (de)registration; pairs with `state`.
    broker_cv: Condvar,
    shutdown: AtomicBool,
    commands: Mutex<Vec<Cmd>>,
    waker: Waker,
    progress: Mutex<HashMap<u64, ConnProgress>>,
    /// This controller's share of `bate_ctrl_conns_reaped_total`.
    reaped: AtomicU64,
    /// The loop's scheduling-session counters, published after each use.
    session_stats: Mutex<SessionStats>,
    idle_timeout: Option<Duration>,
}

struct CtrlState {
    demands: Vec<BaDemand>,
    allocation: Allocation,
    failed: LinkSet,
    /// Registered brokers, by DC name, mapped to the poll-loop token of
    /// their connection (writes go through that connection's buffer).
    brokers: HashMap<String, u64>,
    outcomes: HashMap<u64, SubmitRecord>,
}

impl Shared {
    fn ctx(&self) -> TeContext<'_> {
        TeContext::new(&self.topo, &self.tunnels, &self.scenarios)
    }

    fn enqueue(&self, cmd: Cmd) {
        self.commands.lock().push(cmd);
        self.waker.wake();
    }
}

/// A running controller. Shuts down when dropped.
pub struct Controller {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_thread: Option<JoinHandle<()>>,
}

impl Controller {
    /// Bind to an ephemeral localhost port and start serving.
    pub fn start(config: ControllerConfig) -> io::Result<Controller> {
        // Pre-register the scheduler's metric families (including the
        // rowgen counters) so `stats` renders them at zero before the
        // first solve instead of omitting them.
        bate_core::scheduling::register_metrics();
        // Same for the incremental warm-start scheduler's `bate_warm_*`
        // families (DESIGN.md §5e): controllers that never churn still
        // export the counters at zero.
        bate_core::incremental::register_metrics();
        // And the recovery-storm family (`bate_storm_*`, DESIGN.md §6x):
        // storms are driven by the sim workload, but the controller owns
        // the exposition surface, so the family must render at zero here.
        bate_core::recovery::register_storm_metrics();
        let tunnels = TunnelSet::compute(&config.topo, config.routing);
        let scenarios = ScenarioSet::enumerate(&config.topo, config.max_failures);
        let failed = LinkSet::new(config.topo.num_groups());
        let shared = Arc::new(Shared {
            topo: config.topo,
            tunnels,
            scenarios,
            state: Mutex::new(CtrlState {
                demands: Vec::new(),
                allocation: Allocation::new(),
                failed,
                brokers: HashMap::new(),
                outcomes: HashMap::new(),
            }),
            broker_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            commands: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            progress: Mutex::new(HashMap::new()),
            reaped: AtomicU64::new(0),
            session_stats: Mutex::new(SessionStats::default()),
            idle_timeout: config.idle_timeout,
        });

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOK_LISTENER, true, false)?;
        poller.add(shared.waker.fd(), TOK_WAKER, true, false)?;

        let loop_shared = Arc::clone(&shared);
        let interval = config.schedule_interval;
        let loop_thread = std::thread::spawn(move || {
            EventLoop::new(loop_shared, listener, poller, interval).run();
        });

        Ok(Controller {
            addr,
            shared,
            loop_thread: Some(loop_thread),
        })
    }

    /// Address clients and brokers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently admitted demands.
    pub fn admitted_count(&self) -> usize {
        self.shared.state.lock().demands.len()
    }

    /// Number of registered brokers.
    pub fn broker_count(&self) -> usize {
        self.shared.state.lock().brokers.len()
    }

    /// Block until at least `n` brokers are registered. Condvar-notified
    /// by the poll loop on registration — no polling loop, no blind
    /// sleeps. Returns false on timeout.
    pub fn wait_for_brokers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        while state.brokers.len() < n {
            if self
                .shared
                .broker_cv
                .wait_until(&mut state, deadline)
                .timed_out()
            {
                return state.brokers.len() >= n;
            }
        }
        true
    }

    /// Total rate currently allocated to a demand.
    pub fn allocated_rate(&self, id: u64) -> f64 {
        let state = self.shared.state.lock();
        state
            .allocation
            .flows_of(DemandId(id))
            .map(|(_, f)| f)
            .sum()
    }

    /// Whether a demand id was admitted, per the idempotency record
    /// (`None` if the id was never decided).
    pub fn admission_verdict(&self, id: u64) -> Option<bool> {
        self.shared
            .state
            .lock()
            .outcomes
            .get(&id)
            .map(|r| r.admitted && !r.withdrawn)
    }

    /// Run a scheduling round now (the poll loop also does this
    /// periodically when `schedule_interval` is set). Executes on the
    /// poll loop and blocks until the round (and its broker pushes) are
    /// queued.
    pub fn run_schedule_round(&self) {
        let gate = Gate::new();
        self.shared.enqueue(Cmd::ScheduleRound(Arc::clone(&gate)));
        gate.wait(Duration::from_secs(10));
    }

    /// Snapshot of per-connection progress `(token, progress)` as of the
    /// last poll wakeup. Tokens are stable for a connection's lifetime;
    /// entries disappear when the connection closes or is reaped.
    pub fn connection_progress(&self) -> Vec<(u64, ConnProgress)> {
        let mut v: Vec<(u64, ConnProgress)> = self
            .shared
            .progress
            .lock()
            .iter()
            .map(|(&t, &p)| (t, p))
            .collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v
    }

    /// Connections this controller reaped for stalling mid-frame.
    pub fn reaped(&self) -> u64 {
        self.shared.reaped.load(Ordering::Relaxed)
    }

    /// How this controller's rounds and repairs were answered (reused,
    /// warm, cold), as of the last one; a repair counts as a round.
    pub fn session_stats(&self) -> SessionStats {
        *self.shared.session_stats.lock()
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            t.join().ok();
        }
    }
}

/// Stable fingerprint of a submission's content, so a retried id can be
/// told apart from an id collision (FNV-1a over the encoded fields).
fn submit_fingerprint(src: &str, dst: &str, bandwidth: f64, beta: f64, price: f64, refund: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(src.as_bytes());
    eat(&[0xFF]);
    eat(dst.as_bytes());
    eat(&bandwidth.to_bits().to_be_bytes());
    eat(&beta.to_bits().to_be_bytes());
    eat(&price.to_bits().to_be_bytes());
    eat(&refund.to_bits().to_be_bytes());
    h
}

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_FIRST_CONN: u64 = 2;

/// A `SubmitDemand` frame drained from a connection, pending its batch.
struct PendingSubmit {
    token: u64,
    rctx: Option<FrameCtx>,
    id: u64,
    src: String,
    dst: String,
    bandwidth: f64,
    beta: f64,
    price: f64,
    refund_ratio: f64,
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// The warm optimum of the live pool (DESIGN.md §6y): fed every pool
    /// edit, asked by multi-submit batches, rounds and repairs.
    session: SchedulingSession,
    /// The Online Scheduler (§4): period of the automatic rounds and when
    /// the next one is due.
    round_timer: Option<(Duration, Instant)>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        poller: Poller,
        schedule_interval: Option<Duration>,
    ) -> EventLoop {
        EventLoop {
            shared,
            listener,
            poller,
            conns: HashMap::new(),
            next_token: TOK_FIRST_CONN,
            session: SchedulingSession::default(),
            round_timer: schedule_interval.map(|period| (period, Instant::now() + period)),
        }
    }

    fn run(mut self) {
        let mut events = Vec::with_capacity(128);
        let mut inbox: Vec<(u64, Option<FrameCtx>, Message)> = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            inbox.clear();
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.shared.waker.drain(),
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable || ev.hangup {
                                let mut msgs = Vec::new();
                                conn.read_ready(self.shared.idle_timeout, &mut msgs);
                                inbox.extend(msgs.into_iter().map(|(c, m)| (token, c, m)));
                            }
                            if ev.writable {
                                conn.flush();
                            }
                        }
                    }
                }
            }
            self.process_inbox(&mut inbox);
            self.drain_commands(false);
            self.run_due_round();
            self.reap_overdue();
            self.flush_and_sweep();
            self.publish_progress();
        }
        // Unblock any caller still waiting on a command.
        self.drain_commands(true);
    }

    /// The poll timeout: short enough to honor the earliest deadline — a
    /// mid-frame reap or the next periodic round — long enough not to
    /// spin (commands and shutdown arrive through the waker, not the
    /// timeout).
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.frame_deadline())
            .chain(self.round_timer.map(|(_, due)| due))
            .min()
            .map(|d| d.saturating_duration_since(now).max(Duration::from_millis(1)))
            .or(Some(Duration::from_millis(200)))
    }

    /// Run the periodic round once its deadline has passed. The next one
    /// is due a full period after this one finished, so rounds cannot
    /// pile up faster than the loop executes them.
    fn run_due_round(&mut self) {
        let Some((period, due)) = self.round_timer else {
            return;
        };
        if Instant::now() >= due {
            schedule_round(&self.shared, &mut self.conns, &mut self.session);
            self.round_timer = Some((period, Instant::now() + period));
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_ok()
                    {
                        self.conns.insert(token, Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Handle this wakeup's messages in arrival order. Maximal runs of
    /// consecutive `SubmitDemand` frames form one admission batch; any
    /// other message type is a batch boundary (so a submit→withdraw
    /// pipeline from one client keeps its order).
    fn process_inbox(&mut self, inbox: &mut Vec<(u64, Option<FrameCtx>, Message)>) {
        let mut batch: Vec<PendingSubmit> = Vec::new();
        for (token, rctx, msg) in inbox.drain(..) {
            match msg {
                Message::SubmitDemand {
                    id,
                    src,
                    dst,
                    bandwidth,
                    beta,
                    price,
                    refund_ratio,
                } => batch.push(PendingSubmit {
                    token,
                    rctx,
                    id,
                    src,
                    dst,
                    bandwidth,
                    beta,
                    price,
                    refund_ratio,
                }),
                other => {
                    self.flush_submit_batch(&mut batch);
                    self.handle_message(token, rctx, other);
                }
            }
        }
        self.flush_submit_batch(&mut batch);
    }

    /// Decide one admission batch: FCFS pipeline fold for the verdicts
    /// (identical to sequential handling by construction), then — for
    /// multi-submit batches — one warm incremental solve re-optimizing
    /// the pool, and a single allocation push per live demand.
    fn flush_submit_batch(&mut self, batch: &mut Vec<PendingSubmit>) {
        if batch.is_empty() {
            return;
        }
        let batch: Vec<PendingSubmit> = std::mem::take(batch);
        let t0 = Instant::now();
        let m = ctrl_metrics();
        m.batches.inc();
        m.batch_size.observe(batch.len() as f64);
        let shared = Arc::clone(&self.shared);
        let ctx = shared.ctx();
        let conns = &mut self.conns;
        let session = &mut self.session;
        // A batch of one is the legacy path: verdict, per-demand push,
        // reply, all inside the adopted span — byte-identical wire
        // behavior to the threaded plane (the fault-suite goldens).
        let defer_push = batch.len() > 1;
        let mut state = shared.state.lock();
        let mut push_ids: Vec<DemandId> = Vec::new();
        let mut fresh_admits = 0usize;
        for sub in &batch {
            // Adopt the client's span so the admission pipeline (and the
            // LP solve under it) parents on the submit that caused it —
            // this is what links client → controller → solver phases
            // under one trace_id.
            let _adopted = sub
                .rctx
                .map(|c| bate_obs::context::adopt("ctrl.submit", c.trace_id, c.span_id));
            let admitted = handle_submit_locked(
                &shared,
                &ctx,
                &mut state,
                conns,
                sub,
                defer_push,
                &mut push_ids,
                session,
                &mut fresh_admits,
            );
            let reply = Message::AdmissionReply {
                id: sub.id,
                admitted,
            };
            if let Ok(frame) = encode_frame_ctx(&reply, FrameCtx::current()) {
                if let Some(conn) = conns.get_mut(&sub.token) {
                    conn.queue_frame(&frame);
                }
            }
        }
        if defer_push {
            let mut pushed_all = false;
            // One warm solve for the whole batch. Skipped while a failure
            // is in effect (the recovery allocation stays authoritative
            // until repair, same as scheduling rounds).
            if fresh_admits > 0 && state.failed.is_empty() {
                if let Some(res) = session.batch_optimum(&ctx, &state.demands) {
                    m.batch_solves.inc();
                    bate_obs::info!(
                        "ctrl.batch_solve",
                        batch = batch.len(),
                        admitted = fresh_admits,
                        pool = state.demands.len(),
                    );
                    state.allocation = res.allocation.clone();
                    push_all_allocations(&mut state, conns);
                    pushed_all = true;
                }
                *shared.session_stats.lock() = session.stats();
            }
            if !pushed_all {
                // No solve (pure-replay batch, active failure, or a
                // poisoned session): push the fold's per-demand
                // allocations, once per distinct id.
                push_ids.sort_unstable_by_key(|d| d.0);
                push_ids.dedup();
                for id in push_ids {
                    push_demand_allocation(&mut state, conns, id);
                }
            }
        }
        // Every demand in the batch waited for the whole batch decision,
        // so each inherits the batch's wall-clock latency.
        let us = t0.elapsed().as_secs_f64() * 1e6;
        for _ in 0..batch.len() {
            m.admit_latency.observe(us);
        }
    }

    fn handle_message(&mut self, token: u64, rctx: Option<FrameCtx>, msg: Message) {
        let shared = Arc::clone(&self.shared);
        let conns = &mut self.conns;
        match msg {
            Message::WithdrawDemand { id } => {
                let _adopted = rctx
                    .map(|c| bate_obs::context::adopt("ctrl.withdraw", c.trace_id, c.span_id));
                {
                    ctrl_metrics().withdraws.inc();
                    let mut state = shared.state.lock();
                    let was_present = state.demands.iter().any(|d| d.id.0 == id);
                    state.demands.retain(|d| d.id.0 != id);
                    state.allocation.remove_demand(DemandId(id));
                    // Tombstone the id: a stale submit retry arriving after
                    // the withdraw must not re-admit it.
                    state
                        .outcomes
                        .entry(id)
                        .and_modify(|r| r.withdrawn = true)
                        .or_insert(SubmitRecord {
                            fingerprint: 0,
                            admitted: false,
                            withdrawn: true,
                        });
                    if was_present {
                        self.session.note_remove(DemandId(id));
                        broadcast(&mut state, conns, &Message::RemoveAllocation { demand: id });
                    }
                }
                queue_to(conns, token, &Message::WithdrawAck { id }, FrameCtx::current());
            }
            Message::RegisterBroker { dc } => {
                let mut state = shared.state.lock();
                state.brokers.insert(dc.clone(), token);
                if let Some(conn) = conns.get_mut(&token) {
                    conn.broker_dc = Some(dc);
                    // Re-sync: a broker (re)connecting after a severed
                    // link must converge to the live allocation set.
                    let ids: Vec<DemandId> = state.demands.iter().map(|d| d.id).collect();
                    for id in ids {
                        let msg = install_message(&state, id);
                        if let Ok(frame) = encode_frame(&msg) {
                            conn.queue_frame(&frame);
                        }
                    }
                }
                shared.broker_cv.notify_all();
            }
            Message::LinkReport { group, up } => {
                ctrl_metrics().link_reports.inc();
                bate_obs::warn!("ctrl.link_report", group = group, up = up);
                handle_link_report(&shared, conns, &mut self.session, group as usize, up);
            }
            Message::Ping { token: t } => {
                queue_to(conns, token, &Message::Pong { token: t }, None);
            }
            Message::StatsQuery => {
                ctrl_metrics().stats_queries.inc();
                let text = bate_obs::Registry::global().render_prometheus();
                queue_to(conns, token, &Message::StatsText { text }, None);
            }
            Message::StatsJsonQuery { prefix } => {
                ctrl_metrics().stats_queries.inc();
                let text = bate_obs::Registry::global()
                    .snapshot_jsonl_filtered(|name, _| name.starts_with(prefix.as_str()));
                queue_to(conns, token, &Message::StatsText { text }, None);
            }
            Message::TraceQuery { trace_id } => {
                ctrl_metrics().stats_queries.inc();
                let events = bate_obs::flight::ring_events();
                let text = bate_obs::flight::render_tree(&events, trace_id);
                queue_to(conns, token, &Message::StatsText { text }, None);
            }
            Message::SloQuery => {
                ctrl_metrics().stats_queries.inc();
                let text = bate_obs::SloEngine::global().render_report();
                queue_to(conns, token, &Message::StatsText { text }, None);
            }
            // Stats are accepted and currently only acknowledged by
            // silence; a production controller would aggregate them.
            Message::StatsReport { .. } => {}
            // Messages a controller never receives.
            Message::SubmitDemand { .. }
            | Message::AdmissionReply { .. }
            | Message::WithdrawAck { .. }
            | Message::InstallAllocation { .. }
            | Message::RemoveAllocation { .. }
            | Message::StatsText { .. }
            | Message::Pong { .. } => {}
        }
    }

    fn drain_commands(&mut self, shutting_down: bool) {
        let cmds: Vec<Cmd> = std::mem::take(&mut *self.shared.commands.lock());
        for cmd in cmds {
            match cmd {
                Cmd::ScheduleRound(gate) => {
                    if !shutting_down {
                        schedule_round(&self.shared, &mut self.conns, &mut self.session);
                    }
                    gate.open();
                }
            }
        }
    }

    fn reap_overdue(&mut self) {
        if self.shared.idle_timeout.is_none() {
            return;
        }
        let now = Instant::now();
        let overdue: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.overdue(now))
            .map(|(&t, _)| t)
            .collect();
        for token in overdue {
            ctrl_metrics().conns_reaped.inc();
            self.shared.reaped.fetch_add(1, Ordering::Relaxed);
            bate_obs::warn!("ctrl.conn_reaped", token = token);
            self.close_conn(token);
        }
    }

    /// Flush pending writes, retire dead/EOF connections, and reconcile
    /// `EPOLLOUT` interest with actual buffered bytes.
    fn flush_and_sweep(&mut self) {
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if !conn.dead && conn.wants_write() {
                conn.flush();
            }
            // EOF peers: everything they sent was processed this wakeup
            // and replies were flushed above; the socket is done.
            if conn.dead || conn.eof {
                dead.push(token);
            }
        }
        for token in dead {
            self.close_conn(token);
        }
        for (&token, conn) in self.conns.iter_mut() {
            let want = conn.wants_write();
            if want != conn.writable_interest {
                conn.writable_interest = want;
                self.poller
                    .modify(conn.stream.as_raw_fd(), token, true, want)
                    .ok();
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.delete(conn.stream.as_raw_fd()).ok();
            if let Some(dc) = &conn.broker_dc {
                let mut state = self.shared.state.lock();
                if state.brokers.get(dc) == Some(&token) {
                    state.brokers.remove(dc);
                    self.shared.broker_cv.notify_all();
                }
            }
            self.shared.progress.lock().remove(&token);
        }
    }

    fn publish_progress(&self) {
        let mut progress = self.shared.progress.lock();
        progress.clear();
        for (&token, conn) in &self.conns {
            progress.insert(
                token,
                ConnProgress {
                    bytes_in: conn.bytes_in,
                    frames_in: conn.frames_in,
                    mid_frame: conn.mid_frame(),
                },
            );
        }
    }
}

/// The submit fold step, identical in decision logic to the threaded
/// plane's `handle_submit`. With `defer_push` (multi-submit batches) the
/// allocation pushes are collected into `push_ids` instead of being sent
/// per demand, so the batch can push once after its warm solve.
#[allow(clippy::too_many_arguments)]
fn handle_submit_locked(
    shared: &Shared,
    ctx: &TeContext,
    state: &mut CtrlState,
    conns: &mut HashMap<u64, Conn>,
    sub: &PendingSubmit,
    defer_push: bool,
    push_ids: &mut Vec<DemandId>,
    session: &mut SchedulingSession,
    fresh_admits: &mut usize,
) -> bool {
    let fingerprint = submit_fingerprint(
        &sub.src,
        &sub.dst,
        sub.bandwidth,
        sub.beta,
        sub.price,
        sub.refund_ratio,
    );
    ctrl_metrics().submits.inc();

    let (Some(s), Some(d)) = (
        shared.topo.find_node(&sub.src),
        shared.topo.find_node(&sub.dst),
    ) else {
        return false;
    };
    let Some(pair) = shared.tunnels.pair_index(s, d) else {
        return false;
    };
    if sub.bandwidth <= 0.0 || !(0.0..=1.0).contains(&sub.beta) {
        return false;
    }
    let demand = BaDemand {
        id: DemandId(sub.id),
        bandwidth: vec![(pair, sub.bandwidth)],
        beta: sub.beta,
        price: sub.price,
        refund_ratio: sub.refund_ratio.clamp(0.0, 1.0),
    };

    if let Some(rec) = state.outcomes.get(&sub.id).copied() {
        if rec.withdrawn {
            return false; // stale resubmit of a withdrawn demand
        }
        if rec.fingerprint != fingerprint {
            return false; // id collision: same id, different demand
        }
        // Idempotent replay: same verdict, and re-push the allocation in
        // case the broker installs were lost alongside the reply.
        ctrl_metrics().replay_hits.inc();
        bate_obs::info!("ctrl.submit_replay", demand = sub.id, admitted = rec.admitted);
        if rec.admitted {
            if defer_push {
                push_ids.push(DemandId(sub.id));
            } else {
                push_demand_allocation(state, conns, DemandId(sub.id));
            }
        }
        return rec.admitted;
    }

    // Split-borrow the pool and allocation for the fold step.
    let CtrlState {
        demands,
        allocation,
        ..
    } = state;
    if admission::admit_and_apply(ctx, demands, allocation, &demand) {
        session.note_add(&demand);
        *fresh_admits += 1;
        if defer_push {
            push_ids.push(demand.id);
        } else {
            push_demand_allocation(state, conns, demand.id);
        }
        state.outcomes.insert(
            sub.id,
            SubmitRecord {
                fingerprint,
                admitted: true,
                withdrawn: false,
            },
        );
        true
    } else {
        // Rejections are NOT recorded: admitting nothing has no side
        // effect to protect, and the same id may legitimately be retried
        // later once capacity frees up.
        false
    }
}

/// The session's hardened optimum for the live pool, installed in
/// `state` and reported as the event a round or a repair emits. A repair
/// is a round like any other: it reinstalls the held optimum, or takes
/// one warm re-solve for the deltas admitted while the failure was in
/// effect (DESIGN.md §6y).
fn install_optimum(
    shared: &Shared,
    state: &mut CtrlState,
    session: &mut SchedulingSession,
    repair: bool,
) -> bool {
    let event = if repair { "ctrl.repair" } else { "ctrl.schedule_round" };
    let round = session.hardened_round(&shared.ctx(), &state.demands);
    *shared.session_stats.lock() = session.stats();
    let Ok(SessionRound {
        path,
        pending,
        result,
    }) = round
    else {
        return false;
    };
    bate_obs::info!(
        event,
        demands = state.demands.len(),
        lp_iterations = result.solve_stats.iterations(),
        lp_pivots = result.solve_stats.pivots,
        path = path.as_str(),
        pending = pending,
    );
    state.allocation = result.allocation;
    true
}

/// One Online Scheduler round: re-optimize every admitted demand and push
/// the fresh allocations to the brokers. Skipped while a failure is in
/// effect (the recovery allocation stays authoritative until repair).
fn schedule_round(
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    session: &mut SchedulingSession,
) {
    let mut state = shared.state.lock();
    if state.demands.is_empty() || !state.failed.is_empty() {
        return;
    }
    if install_optimum(shared, &mut state, session, false) {
        ctrl_metrics().rounds.inc();
        push_all_allocations(&mut state, conns);
    }
    // One SLO sample per scheduling round: burn rates evolve at round
    // granularity, matching the paper's per-round BA-guarantee framing.
    bate_obs::SloEngine::global().record_sample(bate_obs::Registry::global());
}

fn handle_link_report(
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    session: &mut SchedulingSession,
    group: usize,
    up: bool,
) {
    let mut state = shared.state.lock();
    if group >= shared.topo.num_groups() {
        return;
    }
    if up {
        state.failed.remove(group);
    } else {
        state.failed.insert(group);
    }
    if state.demands.is_empty() {
        return;
    }
    if state.failed.is_empty() {
        // Everything healthy again: go back to a guaranteed schedule.
        install_optimum(shared, &mut state, session, true);
    } else {
        // Failure in effect: reroute with Algorithm 2.
        let scenario = Scenario {
            failed: state.failed.clone(),
            probability: 0.0,
        };
        let out = greedy_recovery(&shared.ctx(), &state.demands, &scenario);
        state.allocation = out.allocation;
    }
    push_all_allocations(&mut state, conns);
}

/// The InstallAllocation message carrying a demand's current entries.
fn install_message(state: &CtrlState, id: DemandId) -> Message {
    let entries: Vec<FlowEntry> = state
        .allocation
        .flows_of(id)
        .map(|(t, f)| FlowEntry {
            pair: t.pair as u32,
            tunnel: t.tunnel as u32,
            rate: f,
        })
        .collect();
    Message::InstallAllocation {
        demand: id.0,
        entries,
    }
}

/// Send one demand's current allocation to every broker.
fn push_demand_allocation(state: &mut CtrlState, conns: &mut HashMap<u64, Conn>, id: DemandId) {
    let msg = install_message(state, id);
    broadcast(state, conns, &msg);
}

fn push_all_allocations(state: &mut CtrlState, conns: &mut HashMap<u64, Conn>) {
    let ids: Vec<DemandId> = state.demands.iter().map(|d| d.id).collect();
    for id in ids {
        push_demand_allocation(state, conns, id);
    }
}

fn broadcast(state: &mut CtrlState, conns: &mut HashMap<u64, Conn>, msg: &Message) {
    // Broker pushes inherit the causing span (a submit, withdraw, or
    // link report being handled on the loop), extending the trace
    // through to enforcement. Outside any trace the frames are legacy.
    let ctx = FrameCtx::current();
    let Ok(frame) = encode_frame_ctx(msg, ctx) else {
        return;
    };
    // A broker whose connection died is dropped here; write failures on
    // a live fd surface at flush time and retire it through the sweep.
    state.brokers.retain(|_, token| match conns.get_mut(token) {
        Some(conn) if !conn.dead => {
            conn.queue_frame(&frame);
            true
        }
        _ => false,
    });
}

/// Queue an encoded reply frame on one connection (no-op if it died
/// earlier in the wakeup).
fn queue_to(conns: &mut HashMap<u64, Conn>, token: u64, msg: &Message, ctx: Option<FrameCtx>) {
    if let Ok(frame) = encode_frame_ctx(msg, ctx) {
        if let Some(conn) = conns.get_mut(&token) {
            conn.queue_frame(&frame);
        }
    }
}

/// Convenience: the failed fate groups a scenario encodes (used by demos).
pub fn failed_groups_of(scenario: &Scenario) -> Vec<GroupId> {
    scenario.failed.iter().map(GroupId).collect()
}
