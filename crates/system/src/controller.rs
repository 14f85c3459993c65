//! The central controller (§4): admission control, scheduling, failure
//! recovery, and broker coordination behind a TCP listener.
//!
//! **Event-driven plane.** One poll loop ([`crate::poller`]) owns every
//! connection as a [`crate::event::Conn`] state machine — no
//! thread-per-connection, no accept polling. Within a poll wakeup, all
//! pending `SubmitDemand` frames form an *admission batch*, and every
//! batch, one submit or many, takes the same four steps: verdicts are
//! decided by a first-come-first-served pipeline fold (each entry is one
//! `bate_core::admission::PoolLoads::admit_and_apply` step against the
//! pool its predecessors left, so a batch decides what the same submits
//! would decide one at a time); the verdicts are flushed to their
//! connections; a multi-submit batch that admitted a demand takes ONE warm
//! solve of the [`SchedulingSession`], re-optimizing the whole pool and
//! amortizing the scheduling LP across the batch instead of paying a round
//! per arrival; then the installs are pushed — the whole pool, hardened,
//! after a solve, else each admitted or replayed demand's own allocation,
//! and the next round re-optimizes the pool. TE rounds and the repair after a link
//! comes back ask the same session, so they cost what changed since its
//! last optimum (DESIGN.md §6y). Periodic rounds are a deadline of the
//! same loop, so a running controller is one thread.
//!
//! The poll loop owns the serving state — pool, allocation, failed links,
//! idempotency records and the session — beside its connections and the
//! broker map. The state's methods decide (the fold step, a round, a
//! withdrawal, a link report) and return what to install; only the loop
//! writes to a connection. A [`Controller`] shares no state with the loop:
//! it sends commands, which the loop runs after each wakeup's messages.
//!
//! Hardened against lossy control channels: demand ids double as
//! idempotency keys — including *within* a batch, where a duplicated
//! submit frame replays the verdict its sibling earned moments earlier. A
//! retried `SubmitDemand` (same id, same content) replays the original
//! admission verdict and re-pushes the allocation — it is never
//! double-counted, and never spuriously refused the way the pre-hardening
//! duplicate check refused it. Withdraws are acknowledged and idempotent,
//! a link report that leaves the failed set as it was changes nothing,
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
use bate_core::admission::PoolLoads;
use bate_core::incremental::{SchedulingSession, SessionRound, SessionStats};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{LinkSet, Scenario, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
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
    /// `bate_admission_batch_size`; only a multi-submit batch takes the
    /// warm solve).
    batches: Arc<bate_obs::Counter>,
    batch_size: Arc<bate_obs::Histogram>,
    /// Controller-side admission latency per submit, µs: batch start to
    /// verdicts flushed, for every batch size; the batch solve is not in
    /// it. One observation per demand, so quantiles are per-demand, not
    /// per-batch.
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
    /// reaped.
    pub idle_timeout: Duration,
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
            idle_timeout: Duration::from_secs(30),
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

/// One connection's read progress (the slow-loris tests assert on it).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnProgress {
    pub bytes_in: u64,
    pub frames_in: u64,
    /// Whether the peer is currently mid-frame.
    pub mid_frame: bool,
}

/// What every decision reads and none changes, computed at start.
struct Net {
    topo: Topology,
    tunnels: TunnelSet,
    scenarios: ScenarioSet,
}

impl Net {
    fn ctx(&self) -> TeContext<'_> {
        TeContext::new(&self.topo, &self.tunnels, &self.scenarios)
    }
}

/// What a decision installs at the brokers: each listed demand's current
/// allocation, in order, under the trace context of what caused it.
type Installs = Vec<(DemandId, Option<FrameCtx>)>;

/// How the fold decided one submit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Rejected,
    /// A retried id: its recorded admission, replayed.
    Replayed,
    /// A new demand, admitted into the pool.
    Admitted,
}

/// The controller's serving state, a field of the poll loop.
struct CtrlState {
    demands: Vec<BaDemand>,
    allocation: Allocation,
    failed: LinkSet,
    outcomes: HashMap<u64, SubmitRecord>,
    /// The warm optimum of the live pool (DESIGN.md §6y): fed every pool
    /// edit, asked by multi-submit batches, rounds and repairs.
    session: SchedulingSession,
}

impl CtrlState {
    /// One step of the submit fold: validate the submit, replay the verdict
    /// of a retried id, or decide it with `admit_and_apply` against the
    /// pool the batch's earlier entries left, on the batch's carried link
    /// `loads`. A submit whose bandwidth, price or refund ratio is not
    /// finite is rejected before it reaches the fold.
    fn submit(&mut self, ctx: &TeContext, sub: &PendingSubmit, loads: &mut PoolLoads) -> Verdict {
        let fingerprint = sub.fingerprint();
        ctrl_metrics().submits.inc();

        let (Some(s), Some(d)) = (ctx.topo.find_node(&sub.src), ctx.topo.find_node(&sub.dst))
        else {
            return Verdict::Rejected;
        };
        let Some(pair) = ctx.tunnels.pair_index(s, d) else {
            return Verdict::Rejected;
        };
        let finite = [sub.bandwidth, sub.price, sub.refund_ratio]
            .iter()
            .all(|v| v.is_finite());
        if !finite || sub.bandwidth <= 0.0 || !(0.0..=1.0).contains(&sub.beta) {
            return Verdict::Rejected;
        }
        let demand = BaDemand {
            id: DemandId(sub.id),
            bandwidth: vec![(pair, sub.bandwidth)],
            beta: sub.beta,
            price: sub.price,
            refund_ratio: sub.refund_ratio.clamp(0.0, 1.0),
        };

        if let Some(rec) = self.outcomes.get(&sub.id).copied() {
            if rec.withdrawn || rec.fingerprint != fingerprint {
                // A stale resubmit of a withdrawn demand, or an id
                // collision: same id, different demand.
                return Verdict::Rejected;
            }
            // Idempotent replay: same verdict, and the allocation pushed
            // again in case the broker installs were lost alongside the
            // reply.
            ctrl_metrics().replay_hits.inc();
            bate_obs::info!("ctrl.submit_replay", demand = sub.id, admitted = rec.admitted);
            return if rec.admitted {
                Verdict::Replayed
            } else {
                Verdict::Rejected
            };
        }

        if !loads.admit_and_apply(ctx, &mut self.demands, &mut self.allocation, &demand) {
            // Rejections are NOT recorded: admitting nothing has no side
            // effect to protect, and the same id may legitimately be
            // retried later once capacity frees up.
            return Verdict::Rejected;
        }
        self.session.note_add(&demand);
        self.outcomes.insert(
            sub.id,
            SubmitRecord {
                fingerprint,
                admitted: true,
                withdrawn: false,
            },
        );
        Verdict::Admitted
    }

    /// What a folded batch installs. A batch of more than one submit that
    /// admitted a new demand while no failure is in effect takes one warm
    /// solve and installs the session's hardened optimum for the whole
    /// pool, which the next round reuses; otherwise (one submit, a
    /// pure-replay batch, an active failure — the recovery allocation stays
    /// authoritative until repair — or a poisoned session) each demand the
    /// fold admitted or replayed is installed once, in id order.
    fn settle(&mut self, ctx: &TeContext, size: usize, fresh: usize, mut fold: Installs) -> Installs {
        if size > 1 && fresh > 0 && self.failed.is_empty() {
            // The batch's verdicts were flushed at the fold. Offer the CPU
            // to the thread that reads them before the warm solve: when it
            // shares this CPU, the kernel's wakeup preemption otherwise
            // decides, by how much CPU this loop used lately, whether the
            // verdicts are read now or after the solve (DESIGN.md §6y).
            std::thread::yield_now();
            if let Some(res) = self.session.batch_optimum(ctx, &self.demands) {
                ctrl_metrics().batch_solves.inc();
                bate_obs::info!(
                    "ctrl.batch_solve",
                    batch = size,
                    admitted = fresh,
                    pool = self.demands.len(),
                );
                self.allocation = res.allocation.clone();
                return self.pool();
            }
        }
        fold.sort_by_key(|&(id, _)| id.0);
        fold.dedup_by_key(|&mut (id, _)| id.0);
        fold
    }

    /// Withdraw a demand and tombstone its id, so a stale submit retry
    /// arriving after the withdraw cannot re-admit it. Whether the demand
    /// was live (then the brokers must remove it).
    fn withdraw(&mut self, id: u64) -> bool {
        ctrl_metrics().withdraws.inc();
        let was_present = self.demands.iter().any(|d| d.id.0 == id);
        self.demands.retain(|d| d.id.0 != id);
        self.allocation.remove_demand(DemandId(id));
        self.outcomes
            .entry(id)
            .and_modify(|r| r.withdrawn = true)
            .or_insert(SubmitRecord {
                fingerprint: 0,
                admitted: false,
                withdrawn: true,
            });
        if was_present {
            self.session.note_remove(DemandId(id));
        }
        was_present
    }

    /// One Online Scheduler round: re-optimize every admitted demand and
    /// install the pool. Skipped while a failure is in effect (the
    /// recovery allocation stays authoritative until repair).
    fn round(&mut self, ctx: &TeContext) -> Installs {
        if self.demands.is_empty() || !self.failed.is_empty() {
            return Installs::new();
        }
        if self.install_optimum(ctx, false) {
            ctrl_metrics().rounds.inc();
            self.pool()
        } else {
            Installs::new()
        }
    }

    /// A broker's link report. A report that changes the failed set
    /// reroutes the pool with Algorithm 2 while a failure is in effect,
    /// and repairs it to a guaranteed schedule once every link is up; one
    /// that leaves the failed set as it was changes nothing.
    fn link_report(&mut self, ctx: &TeContext, group: usize, up: bool) -> Installs {
        if group >= ctx.topo.num_groups() || self.failed.contains(group) != up {
            return Installs::new();
        }
        if up {
            self.failed.remove(group);
        } else {
            self.failed.insert(group);
        }
        if self.demands.is_empty() {
            return Installs::new();
        }
        if self.failed.is_empty() {
            self.install_optimum(ctx, true);
        } else {
            let scenario = Scenario {
                failed: self.failed.clone(),
                probability: 0.0,
            };
            self.allocation = greedy_recovery(ctx, &self.demands, &scenario).allocation;
        }
        self.pool()
    }

    /// The session's hardened optimum for the live pool, installed in the
    /// allocation and reported as the event a round or a repair emits. A
    /// repair is a round like any other: it reinstalls the held optimum,
    /// or takes one warm re-solve for the deltas admitted while the
    /// failure was in effect (DESIGN.md §6y).
    fn install_optimum(&mut self, ctx: &TeContext, repair: bool) -> bool {
        let event = if repair { "ctrl.repair" } else { "ctrl.schedule_round" };
        let Ok(SessionRound {
            path,
            pending,
            result,
        }) = self.session.hardened_round(ctx, &self.demands)
        else {
            return false;
        };
        bate_obs::info!(
            event,
            demands = self.demands.len(),
            lp_iterations = result.solve_stats.iterations(),
            lp_pivots = result.solve_stats.pivots,
            path = path.as_str(),
            pending = pending,
        );
        self.allocation = result.allocation;
        true
    }

    /// Every live demand, under the trace context of what is being handled.
    fn pool(&self) -> Installs {
        let cause = FrameCtx::current();
        self.demands.iter().map(|d| (d.id, cause)).collect()
    }

    /// The InstallAllocation message carrying a demand's current entries.
    fn install_message(&self, id: DemandId) -> Message {
        let entries: Vec<FlowEntry> = self
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
}

/// A command for the poll loop, run after a wakeup's messages.
type Command = Box<dyn FnOnce(&mut EventLoop) + Send>;

/// A running controller. Shuts down when dropped.
pub struct Controller {
    addr: SocketAddr,
    waker: Arc<Waker>,
    /// The command sender and the loop's thread; the loop serves until
    /// the sender is dropped.
    serving: Option<(Sender<Command>, JoinHandle<()>)>,
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
        let state = CtrlState {
            demands: Vec::new(),
            allocation: Allocation::new(),
            failed: LinkSet::new(config.topo.num_groups()),
            outcomes: HashMap::new(),
            session: SchedulingSession::default(),
        };
        let tunnels = TunnelSet::compute(&config.topo, config.routing);
        let scenarios = ScenarioSet::enumerate(&config.topo, config.max_failures);

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let waker = Arc::new(Waker::new()?);
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOK_LISTENER, true, false)?;
        poller.add(waker.fd(), TOK_WAKER, true, false)?;

        let (commands, received) = mpsc::channel();
        let event_loop = EventLoop {
            net: Arc::new(Net {
                topo: config.topo,
                tunnels,
                scenarios,
            }),
            state,
            commands: received,
            waker: Arc::clone(&waker),
            listener,
            poller,
            conns: HashMap::new(),
            brokers: HashMap::new(),
            broker_waiters: Vec::new(),
            next_token: TOK_FIRST_CONN,
            round_timer: config.schedule_interval.map(|period| (period, Instant::now() + period)),
            idle_timeout: config.idle_timeout,
            reaped: 0,
        };
        let loop_thread = std::thread::spawn(move || event_loop.run());

        Ok(Controller {
            addr,
            waker,
            serving: Some((commands, loop_thread)),
        })
    }

    /// Queue `f` for the poll loop with the sender of its answer. If the
    /// loop exits before it runs `f`, `f` drops the sender unanswered.
    fn command<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut EventLoop, SyncSender<T>) + Send + 'static,
    ) -> Receiver<T> {
        let (answer, answered) = mpsc::sync_channel(1);
        let command: Command = Box::new(move |el| f(el, answer));
        if self.serving.as_ref().is_some_and(|(c, _)| c.send(command).is_ok()) {
            self.waker.wake();
        }
        answered
    }

    /// `f`'s answer from the live state, or the empty value once the loop
    /// has exited.
    fn query<T: Default + Send + 'static>(
        &self,
        f: impl FnOnce(&mut EventLoop) -> T + Send + 'static,
    ) -> T {
        self.command(|el, answer| drop(answer.send(f(el)))).recv().unwrap_or_default()
    }

    /// Address clients and brokers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently admitted demands.
    pub fn admitted_count(&self) -> usize {
        self.query(|el| el.state.demands.len())
    }

    /// Number of registered brokers.
    pub fn broker_count(&self) -> usize {
        self.query(|el| el.brokers.len())
    }

    /// Block until at least `n` brokers are registered. The loop answers
    /// at once if they are, else on the registration that brings the
    /// count to `n` — no polling loop, no blind sleeps. Returns false on
    /// timeout.
    pub fn wait_for_brokers(&self, n: usize, timeout: Duration) -> bool {
        let ready = self.command(move |el, ready| {
            if el.brokers.len() >= n {
                ready.send(()).ok();
            } else {
                el.broker_waiters.push((n, ready));
            }
        });
        ready.recv_timeout(timeout).is_ok()
    }

    /// Total rate currently allocated to a demand.
    pub fn allocated_rate(&self, id: u64) -> f64 {
        self.query(move |el| el.state.allocation.flows_of(DemandId(id)).map(|(_, f)| f).sum())
    }

    /// Whether a demand id was admitted, per the idempotency record
    /// (`None` if the id was never decided).
    pub fn admission_verdict(&self, id: u64) -> Option<bool> {
        self.query(move |el| el.state.outcomes.get(&id).map(|r| r.admitted && !r.withdrawn))
    }

    /// Run a scheduling round now (the poll loop also does this
    /// periodically when `schedule_interval` is set). Executes on the
    /// poll loop and blocks until the round (and its broker pushes) are
    /// queued.
    pub fn run_schedule_round(&self) {
        let done = self.command(|el, done| {
            el.schedule_round();
            done.send(()).ok();
        });
        done.recv_timeout(Duration::from_secs(10)).ok();
    }

    /// Progress `(token, progress)` of every connection the poll loop
    /// holds when it answers. Tokens are stable for a connection's
    /// lifetime; a connection that closes or is reaped leaves the list in
    /// the sweep that ends the wakeup retiring it.
    pub fn connection_progress(&self) -> Vec<(u64, ConnProgress)> {
        self.query(|el| {
            let progress = |c: &Conn| ConnProgress {
                bytes_in: c.bytes_in,
                frames_in: c.frames_in,
                mid_frame: c.mid_frame(),
            };
            let mut v: Vec<_> = el.conns.iter().map(|(&t, c)| (t, progress(c))).collect();
            v.sort_unstable_by_key(|&(t, _)| t);
            v
        })
    }

    /// Connections this controller reaped for stalling mid-frame.
    pub fn reaped(&self) -> u64 {
        self.query(|el| el.reaped)
    }

    /// How this controller's rounds and repairs were answered (reused,
    /// warm, cold), as of the last one; a repair counts as a round. It
    /// observes every batch whose verdict the caller has read: a batch
    /// flushes its verdicts before its solve, and the loop runs commands
    /// after the wakeup's batches are settled.
    pub fn session_stats(&self) -> SessionStats {
        self.query(|el| el.state.session.stats())
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        if let Some((commands, loop_thread)) = self.serving.take() {
            drop(commands);
            self.waker.wake();
            loop_thread.join().ok();
        }
    }
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

impl PendingSubmit {
    /// Stable fingerprint of the submitted fields, so a retried id can be
    /// told apart from an id collision (FNV-1a over the encoded fields).
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.src.as_bytes());
        eat(&[0xFF]);
        eat(self.dst.as_bytes());
        for v in [self.bandwidth, self.beta, self.price, self.refund_ratio] {
            eat(&v.to_bits().to_be_bytes());
        }
        h
    }
}

struct EventLoop {
    net: Arc<Net>,
    state: CtrlState,
    commands: Receiver<Command>,
    waker: Arc<Waker>,
    listener: TcpListener,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Registered brokers, by DC name, mapped to the token of their
    /// connection (writes go through that connection's buffer).
    brokers: HashMap<String, u64>,
    /// [`Controller::wait_for_brokers`] callers: the broker count each
    /// waits for, answered by the registration that reaches it.
    broker_waiters: Vec<(usize, SyncSender<()>)>,
    next_token: u64,
    /// The Online Scheduler (§4): period of the automatic rounds and when
    /// the next one is due.
    round_timer: Option<(Duration, Instant)>,
    idle_timeout: Duration,
    /// This controller's share of `bate_ctrl_conns_reaped_total`.
    reaped: u64,
}

impl EventLoop {
    /// Serve until the [`Controller`] is dropped: the wakeup that finds the
    /// command channel disconnected is the last, and still flushes. The
    /// waiters' senders drop with the loop, which answers them at once.
    fn run(mut self) {
        let mut events = Vec::with_capacity(128);
        let mut inbox: Vec<(u64, Option<FrameCtx>, Message)> = Vec::new();
        let mut serving = true;
        while serving {
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.waker.drain(),
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.readable || ev.hangup {
                                let mut msgs = Vec::new();
                                conn.read_ready(self.idle_timeout, &mut msgs);
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
            serving = self.run_commands();
            self.run_due_round();
            self.reap_and_sweep();
        }
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

    /// Run the queued commands in order: after the wakeup's messages, so
    /// they read what those decided, and before its flush, so a requested
    /// round's installs leave in this wakeup. False once the
    /// [`Controller`] is gone.
    fn run_commands(&mut self) -> bool {
        loop {
            match self.commands.try_recv() {
                Ok(command) => command(self),
                Err(e) => return e == TryRecvError::Empty,
            }
        }
    }

    /// Run the periodic round once its deadline has passed. The next one
    /// is due a full period after this one finished, so rounds cannot
    /// pile up faster than the loop executes them.
    fn run_due_round(&mut self) {
        let Some((period, due)) = self.round_timer else {
            return;
        };
        if Instant::now() >= due {
            self.schedule_round();
            self.round_timer = Some((period, Instant::now() + period));
        }
    }

    fn schedule_round(&mut self) {
        let installs = self.state.round(&self.net.ctx());
        self.push(&installs);
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
                    self.flush_submit_batch(std::mem::take(&mut batch));
                    self.handle_message(token, rctx, other);
                }
            }
        }
        self.flush_submit_batch(batch);
    }

    /// Decide one admission batch of any size: the FCFS pipeline fold
    /// (identical to sequential handling by construction), the verdicts
    /// flushed, the batch settled ([`CtrlState::settle`]), its installs
    /// pushed.
    fn flush_submit_batch(&mut self, batch: Vec<PendingSubmit>) {
        if batch.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let m = ctrl_metrics();
        m.batches.inc();
        m.batch_size.observe(batch.len() as f64);
        let net = Arc::clone(&self.net);
        let ctx = net.ctx();
        let mut fold = Installs::new();
        let mut fresh_admits = 0usize;
        // Only the fold edits the pool until `settle`: its loads carry.
        let mut loads = PoolLoads::default();
        for sub in &batch {
            // Adopt the client's span so the admission pipeline (and the
            // LP solve under it) parents on the submit that caused it —
            // this is what links client → controller → solver phases
            // under one trace_id. The reply and the demand's install
            // carry it on.
            let _adopted = sub
                .rctx
                .map(|c| bate_obs::context::adopt("ctrl.submit", c.trace_id, c.span_id));
            let cause = FrameCtx::current();
            let verdict = self.state.submit(&ctx, sub, &mut loads);
            let admitted = verdict != Verdict::Rejected;
            if admitted {
                fold.push((DemandId(sub.id), cause));
            }
            fresh_admits += usize::from(verdict == Verdict::Admitted);
            let reply = Message::AdmissionReply { id: sub.id, admitted };
            self.queue_to(sub.token, &reply, cause);
        }
        // The verdicts are final at the fold (a fixed admit is
        // hard-checked, a conjecture admit backed by Theorem 1), so they
        // leave before the solve and the push: one flush per submitting
        // connection. What a socket does not take stays queued for
        // `flush_and_sweep`, which also retires a connection whose write
        // failed.
        let mut tokens: Vec<u64> = batch.iter().map(|s| s.token).collect();
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.dead) {
                conn.flush();
            }
        }
        // Each demand waited from batch start until its verdict left. The
        // batch solve is timed by `bate_warm_*`.
        let us = t0.elapsed().as_secs_f64() * 1e6;
        for _ in 0..batch.len() {
            m.admit_latency.observe(us);
        }
        let installs = self.state.settle(&ctx, batch.len(), fresh_admits, fold);
        self.push(&installs);
    }

    fn handle_message(&mut self, token: u64, rctx: Option<FrameCtx>, msg: Message) {
        match msg {
            Message::WithdrawDemand { id } => {
                let _adopted = rctx
                    .map(|c| bate_obs::context::adopt("ctrl.withdraw", c.trace_id, c.span_id));
                if self.state.withdraw(id) {
                    let removal = Message::RemoveAllocation { demand: id };
                    self.broadcast(&removal, FrameCtx::current());
                }
                self.queue_to(token, &Message::WithdrawAck { id }, FrameCtx::current());
            }
            Message::RegisterBroker { dc } => {
                self.brokers.insert(dc.clone(), token);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.broker_dc = Some(dc);
                    // Re-sync: a broker (re)connecting after a severed
                    // link must converge to the live allocation set.
                    for d in &self.state.demands {
                        if let Ok(frame) = encode_frame(&self.state.install_message(d.id)) {
                            conn.queue_frame(&frame);
                        }
                    }
                }
                let count = self.brokers.len();
                for (_, ready) in self.broker_waiters.extract_if(.., |(n, _)| *n <= count) {
                    ready.send(()).ok();
                }
            }
            Message::LinkReport { group, up } => {
                ctrl_metrics().link_reports.inc();
                bate_obs::warn!("ctrl.link_report", group = group, up = up);
                let installs = self.state.link_report(&self.net.ctx(), group as usize, up);
                self.push(&installs);
            }
            Message::Ping { token: t } => {
                self.queue_to(token, &Message::Pong { token: t }, None);
            }
            Message::StatsQuery => {
                ctrl_metrics().stats_queries.inc();
                let text = bate_obs::Registry::global().render_prometheus();
                self.queue_to(token, &Message::StatsText { text }, None);
            }
            Message::StatsJsonQuery { prefix } => {
                ctrl_metrics().stats_queries.inc();
                let text = bate_obs::Registry::global()
                    .snapshot_jsonl_filtered(|name, _| name.starts_with(prefix.as_str()));
                self.queue_to(token, &Message::StatsText { text }, None);
            }
            Message::TraceQuery { trace_id } => {
                ctrl_metrics().stats_queries.inc();
                let events = bate_obs::flight::ring_events();
                let text = bate_obs::flight::render_tree(&events, trace_id);
                self.queue_to(token, &Message::StatsText { text }, None);
            }
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

    /// Send each listed demand's current allocation to every broker.
    fn push(&mut self, installs: &[(DemandId, Option<FrameCtx>)]) {
        for &(id, cause) in installs {
            let msg = self.state.install_message(id);
            self.broadcast(&msg, cause);
        }
    }

    /// Queue one frame on every broker's connection. Broker pushes carry
    /// the causing span (a submit, withdraw, or link report being handled
    /// on the loop), extending the trace through to enforcement; outside
    /// any trace the frames are legacy.
    fn broadcast(&mut self, msg: &Message, cause: Option<FrameCtx>) {
        let Ok(frame) = encode_frame_ctx(msg, cause) else {
            return;
        };
        // A broker whose connection died is dropped here; write failures
        // on a live fd surface at flush time and retire it through the
        // sweep.
        let conns = &mut self.conns;
        self.brokers.retain(|_, token| match conns.get_mut(token) {
            Some(conn) if !conn.dead => {
                conn.queue_frame(&frame);
                true
            }
            _ => false,
        });
    }

    /// Queue an encoded reply frame on one connection (no-op if it died
    /// earlier in the wakeup).
    fn queue_to(&mut self, token: u64, msg: &Message, ctx: Option<FrameCtx>) {
        if let Ok(frame) = encode_frame_ctx(msg, ctx) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queue_frame(&frame);
            }
        }
    }

    /// Reap connections overdue mid-frame, flush pending writes, retire
    /// dead/EOF connections, and reconcile `EPOLLOUT` interest with actual
    /// buffered bytes.
    fn reap_and_sweep(&mut self) {
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let overdue = conn.overdue(now);
            if overdue {
                ctrl_metrics().conns_reaped.inc();
                self.reaped += 1;
                bate_obs::warn!("ctrl.conn_reaped", token = token);
            } else if !conn.dead && conn.wants_write() {
                conn.flush();
            }
            // EOF peers: everything they sent was processed this wakeup
            // and replies were flushed above; the socket is done.
            if overdue || conn.dead || conn.eof {
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
            if let Some(dc) = conn.broker_dc.filter(|dc| self.brokers.get(dc) == Some(&token)) {
                self.brokers.remove(&dc);
            }
        }
    }
}
