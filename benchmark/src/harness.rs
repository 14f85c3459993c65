//! The socket phase: one generator thread, one in-process controller, two
//! loopback connections — a pipelined client lane and a probe broker that
//! registers as a DC, reads what the controller installs, and reports
//! link state. The generator waits on both sockets with the system
//! crate's own poller.

use crate::gen::submit_message;
use crate::spec::{Workload, MAX_FAILURES};
use crate::speed::{factor_between, Probe, SpeedLog};
use crate::trace::{OpKind, Recorder};
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::poller::{Event, Poller};
use bate_system::proto::Message;
use bate_system::wire::{decode_payload, encode_frame, encode_frame_ctx, FrameAssembler, FrameCtx};
use bate_system::{Controller, ControllerConfig};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const CLIENT: u64 = 0;
const PROBE: u64 = 1;

/// An operation that takes longer than this has failed. The limit sits
/// above the solver's own 10 s wall-clock guard and the cold retry behind
/// it: about one warm re-solve in 100,000 waits the guard out and then
/// completes correctly (README, regimes left out). That shows as one slow
/// sample and a dent in the run's throughput, not as a failed run.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up solves the whole prefill in one batch; it gets longer.
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);
/// The speed probe is read at the first operation boundary this long after
/// its last reading: 0.3 ms in every 10, and the machine's speed levels
/// last from tens of milliseconds to minutes.
const PROBE_EVERY: Duration = Duration::from_millis(10);

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// One connection to the controller. The socket stays blocking: writes
/// complete, and a read is issued only after the poller reports the socket
/// readable, so it returns what has arrived without waiting.
pub struct Lane {
    stream: TcpStream,
    asm: FrameAssembler,
    pub frames_in: u64,
    pub frames_out: u64,
    /// Every byte `(received, sent)`, kept only in a traced run.
    pub log: Option<(Vec<u8>, Vec<u8>)>,
}

impl Lane {
    fn connect(addr: SocketAddr, logging: bool) -> io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Lane {
            stream,
            asm: FrameAssembler::new(),
            frames_in: 0,
            frames_out: 0,
            log: logging.then(|| (Vec::new(), Vec::new())),
        })
    }

    fn send(&mut self, bytes: &[u8], frames: u64) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.frames_out += frames;
        if let Some((_, tx)) = &mut self.log {
            tx.extend_from_slice(bytes);
        }
        Ok(())
    }

    /// One read after a readiness event; complete frames go to `out`.
    fn read(&mut self, buf: &mut [u8], out: &mut Vec<Message>) -> io::Result<()> {
        let n = self.stream.read(buf)?;
        if n == 0 {
            return Err(other("controller closed the connection".into()));
        }
        if let Some((rx, _)) = &mut self.log {
            rx.extend_from_slice(&buf[..n]);
        }
        self.asm.push(&buf[..n]);
        while let Some((_, payload)) = self.asm.next_frame().map_err(io::Error::other)? {
            out.push(decode_payload(payload).map_err(io::Error::other)?);
            self.frames_in += 1;
        }
        Ok(())
    }
}

/// A submitted demand whose verdict or first install is still to come.
/// The two arrive on different sockets, in either order.
struct Pending {
    wave: u32,
    verdict_seen: bool,
    install_seen: bool,
}

/// One flush on the client lane, until everything it caused has been read.
struct Wave {
    /// Submits not yet resolved (verdict read, and first install if admitted).
    open: usize,
    churn: bool,
    measured: bool,
    start: Instant,
    sent: Instant,
    last_verdict: Instant,
    last_install: Instant,
    installs_at_send: u64,
    op: u32,
}

/// The operations that end at a barrier on the probe lane.
#[derive(Clone, Copy)]
enum Step {
    Round,
    Recovery,
    Repair,
}

impl Step {
    fn name(self) -> &'static str {
        match self {
            Step::Round => "round",
            Step::Recovery => "recovery",
            Step::Repair => "repair",
        }
    }
}

/// The six end-to-end sample sets. While the window is open a sample waits
/// in the harness as `(seconds at the operation's midpoint, measured ms)`;
/// closing the window scales each by the probe's factor at that time.
#[derive(Clone, Copy)]
pub enum Timed {
    Verdict,
    Install,
    Churn,
    Round,
    Recovery,
    Repair,
}

/// Everything one run measures at the sockets.
#[derive(Default)]
pub struct Samples {
    /// Milliseconds at reference speed (`speed.rs`), by [`Timed`].
    ref_ms: [Vec<f64>; 6],
    /// The same samples as the clock read them.
    clock_ms: [Vec<f64>; 6],
    /// Open loop: how long after its due time a submit was written.
    pub late_ms: Vec<f64>,
    pub send_us: Vec<f64>,
    pub wait_us: Vec<f64>,
    pub submits: u64,
    pub verdicts: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub installs: u64,
    pub frames: u64,
    pub bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub outstanding_max: usize,
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// The same seconds at reference speed, the probe's own time left out.
    pub ref_seconds: f64,
    /// The probe's readings inside the window, microseconds.
    pub probe_us: Vec<f64>,
    /// Why operations failed, for the report.
    pub notes: Vec<String>,
}

impl Samples {
    pub fn ms(&self, set: Timed) -> &[f64] {
        &self.ref_ms[set as usize]
    }

    pub fn clock_ms(&self, set: Timed) -> &[f64] {
        &self.clock_ms[set as usize]
    }

    pub fn rejected_share(&self) -> f64 {
        self.rejected as f64 / self.verdicts.max(1) as f64
    }
}

pub struct Harness {
    ctl: Controller,
    pub client: Lane,
    pub probe: Lane,
    poller: Poller,
    events: Vec<Event>,
    buf: Vec<u8>,
    inbox: Vec<Message>,
    pending: HashMap<u64, Pending>,
    waves: HashMap<u32, Wave>,
    next_wave: u32,
    /// Demands admitted and not yet withdrawn, as the generator knows it.
    pub pool: usize,
    installs_seen: u64,
    /// Installs read between the flush of the last completed wave and its end.
    pub last_wave_installs: u64,
    pong: Option<u64>,
    next_ping: u64,
    /// Admissions since the last [`Harness::take_admitted`].
    admitted: Vec<(u64, Instant)>,
    measuring: bool,
    window_start: Instant,
    /// Times in `speed` and `staged` count from here.
    epoch: Instant,
    speed_probe: Probe,
    speed: SpeedLog,
    last_probe: Instant,
    /// Seconds at reference speed since `begin_window`, up to `last_probe`.
    ref_seconds: f64,
    staged: [Vec<(f64, f64)>; 6],
    exact_installs: bool,
    pub samples: Samples,
    /// Present in a traced run only.
    pub rec: Option<Recorder>,
    /// Every verdict by demand id, kept only in a traced run.
    pub verdicts: HashMap<u64, bool>,
}

impl Harness {
    /// Start a controller for `workload`, connect both lanes, register the
    /// probe broker, and admit `prefill`. Returns the harness and how many
    /// seconds all of that took: at reference speed, and by the clock.
    pub fn start(
        workload: Workload,
        prefill: &[DemandRequest],
        traced: bool,
    ) -> io::Result<(Harness, [f64; 2])> {
        let mut speed_probe = Probe::new()?;
        let us_before = speed_probe.read_us()?;
        let mut speed = SpeedLog::default();
        speed.push(0.0, us_before);
        let t0 = Instant::now();
        let topo = (workload.spec().topology)();
        let ctl = Controller::start(ControllerConfig::manual(
            topo,
            RoutingScheme::default_ksp4(),
            MAX_FAILURES,
        ))?;
        let client = Lane::connect(ctl.addr(), traced)?;
        let mut probe = Lane::connect(ctl.addr(), traced)?;
        let register = encode_frame(&Message::RegisterBroker { dc: "probe".into() })
            .map_err(io::Error::other)?;
        probe.send(&register, 1)?;
        if !ctl.wait_for_brokers(1, OP_TIMEOUT) {
            return Err(other("probe broker did not register".into()));
        }
        let poller = Poller::new()?;
        poller.add(client.stream.as_raw_fd(), CLIENT, true, false)?;
        poller.add(probe.stream.as_raw_fd(), PROBE, true, false)?;
        let mut h = Harness {
            ctl,
            client,
            probe,
            poller,
            events: Vec::new(),
            buf: vec![0; 1 << 16],
            inbox: Vec::new(),
            pending: HashMap::new(),
            waves: HashMap::new(),
            next_wave: 1,
            pool: 0,
            installs_seen: 0,
            last_wave_installs: 0,
            pong: None,
            next_ping: 1,
            admitted: Vec::new(),
            measuring: false,
            window_start: t0,
            epoch: t0,
            speed_probe,
            speed,
            last_probe: t0,
            ref_seconds: 0.0,
            staged: Default::default(),
            exact_installs: workload.spec().exact_installs,
            samples: Samples::default(),
            rec: traced.then(Recorder::default),
            verdicts: HashMap::new(),
        };
        if !prefill.is_empty() {
            let wave = h.send_wave(&[], prefill, None)?;
            h.pump_until(SETUP_TIMEOUT, |h| !h.waves.contains_key(&wave))?;
            if h.pool != prefill.len() {
                return Err(other(format!(
                    "prefill admitted {} of {} demands",
                    h.pool,
                    prefill.len()
                )));
            }
        }
        let took = t0.elapsed().as_secs_f64();
        let us_after = h.read_speed()?;
        Ok((h, [took * factor_between(us_before, us_after), took]))
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Read the speed probe now. The time since the last reading counts
    /// into the window's seconds at the mean speed of the two.
    fn read_speed(&mut self) -> io::Result<f64> {
        let start = Instant::now();
        let us = self.speed_probe.read_us()?;
        if let Some(prev) = self.speed.last_us() {
            self.ref_seconds += (start - self.last_probe).as_secs_f64() * factor_between(prev, us);
        }
        self.speed.push(self.secs(start), us);
        self.last_probe = Instant::now();
        Ok(us)
    }

    /// Read the speed probe if its last reading is stale. Called where
    /// the controller is idle: at the start of closed-loop operations, and
    /// by the open-loop script between due times.
    pub fn maybe_probe(&mut self) -> io::Result<()> {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.read_speed()?;
        }
        Ok(())
    }

    /// Keep one end-to-end sample until the window closes.
    fn stage(&mut self, set: Timed, start: Instant, end: Instant) {
        let took = end.saturating_duration_since(start);
        self.staged[set as usize].push((self.secs(start + took / 2), took.as_secs_f64() * 1e3));
    }

    /// Open the measured window: samples are kept from here on. The frame
    /// and byte counts hold the lanes' totals until [`Harness::end_window`]
    /// turns them into the window's own.
    pub fn begin_window(&mut self) -> io::Result<()> {
        self.read_speed()?;
        self.ref_seconds = 0.0;
        self.measuring = true;
        self.window_start = Instant::now();
        self.samples = Samples::default();
        self.staged = Default::default();
        self.samples.frames = self.frames();
        self.samples.bytes = self.bytes();
        Ok(())
    }

    pub fn end_window(&mut self) -> io::Result<()> {
        self.measuring = false;
        self.samples.seconds = self.window_start.elapsed().as_secs_f64();
        self.read_speed()?;
        self.samples.ref_seconds = self.ref_seconds;
        self.samples.probe_us = self.speed.since(self.secs(self.window_start)).to_vec();
        self.samples.frames = self.frames() - self.samples.frames;
        self.samples.bytes = self.bytes() - self.samples.bytes;
        for (i, set) in std::mem::take(&mut self.staged).iter().enumerate() {
            self.samples.clock_ms[i] = set.iter().map(|&(_, ms)| ms).collect();
            self.samples.ref_ms[i] = set
                .iter()
                .map(|&(at_s, ms)| ms * self.speed.factor_at(at_s))
                .collect();
        }
        Ok(())
    }

    fn frames(&self) -> u64 {
        self.client.frames_in
            + self.client.frames_out
            + self.probe.frames_in
            + self.probe.frames_out
    }

    /// Bytes moved on both lanes, both directions (traced runs only).
    fn bytes(&self) -> u64 {
        [&self.client, &self.probe]
            .iter()
            .filter_map(|l| l.log.as_ref())
            .map(|(rx, tx)| (rx.len() + tx.len()) as u64)
            .sum()
    }

    /// Ids admitted since the last call, with the time each verdict was read.
    pub fn take_admitted(&mut self) -> Vec<(u64, Instant)> {
        std::mem::take(&mut self.admitted)
    }

    /// Submits whose verdict or install is still outstanding.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Record a broken expectation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.measuring {
            self.samples.failed += 1;
            if self.samples.notes.len() < 8 {
                self.samples.notes.push(what());
            }
        }
    }

    /// Write `withdraws` then `submits` to the client lane in one flush.
    /// Latencies count from `due` when given (open loop), otherwise from the
    /// flush. Frames carry a trace context, as `PipelinedClient` stamps them.
    pub fn send_wave(
        &mut self,
        withdraws: &[u64],
        submits: &[DemandRequest],
        due: Option<Instant>,
    ) -> io::Result<u32> {
        if due.is_none() {
            self.maybe_probe()?;
        }
        let t0 = Instant::now();
        let mut bytes = Vec::new();
        for &id in withdraws {
            let _root = bate_obs::context::root("withdraw", id);
            let frame = encode_frame_ctx(&Message::WithdrawDemand { id }, FrameCtx::current())
                .map_err(io::Error::other)?;
            bytes.extend_from_slice(&frame);
        }
        for req in submits {
            let _root = bate_obs::context::root("submit", req.id);
            let frame = encode_frame_ctx(&submit_message(req), FrameCtx::current())
                .map_err(io::Error::other)?;
            bytes.extend_from_slice(&frame);
        }
        self.client
            .send(&bytes, (withdraws.len() + submits.len()) as u64)?;
        let sent = Instant::now();

        let id = self.next_wave;
        self.next_wave += 1;
        self.pool -= withdraws.len();
        for req in submits {
            self.pending.insert(
                req.id,
                Pending {
                    wave: id,
                    verdict_seen: false,
                    install_seen: false,
                },
            );
        }
        let op = match &mut self.rec {
            Some(rec) => rec.begin_op(
                OpKind::Wave {
                    withdraws: withdraws.to_vec(),
                    submits: submits.to_vec(),
                },
                self.measuring,
            ),
            None => 0,
        };
        if self.measuring {
            let s = &mut self.samples;
            s.submits += submits.len() as u64;
            s.attempted += submits.len() as u64;
            s.outstanding_max = s.outstanding_max.max(self.pending.len());
            if !submits.is_empty() {
                s.send_us.push((sent - t0).as_secs_f64() * 1e6);
            }
            if let Some(due) = due {
                s.late_ms
                    .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
        let wave = Wave {
            open: submits.len(),
            churn: !withdraws.is_empty() && !submits.is_empty(),
            measured: self.measuring,
            start: due.unwrap_or(t0),
            sent,
            last_verdict: sent,
            last_install: sent,
            installs_at_send: self.installs_seen,
            op,
        };
        if wave.open == 0 {
            self.finish_wave(wave);
        } else {
            self.waves.insert(id, wave);
        }
        Ok(id)
    }

    /// Block until everything wave `id` caused has been read.
    pub fn wait_wave(&mut self, id: u32) -> io::Result<()> {
        self.pump_until(OP_TIMEOUT, |h| !h.waves.contains_key(&id))
            .map_err(|e| other(format!("wave {id} (pool {}): {e}", self.pool)))
    }

    /// Block until no submit is outstanding.
    pub fn wait_idle(&mut self) -> io::Result<()> {
        self.pump_until(OP_TIMEOUT, |h| h.waves.is_empty())
    }

    /// One TE round: `run_schedule_round()` until the probe has read the
    /// round's installs (a `Ping` written after the call returns comes back
    /// behind them).
    pub fn round(&mut self) -> io::Result<()> {
        self.maybe_probe()?;
        let op = self.begin_op(OpKind::Round);
        let seen = self.installs_seen;
        let t0 = Instant::now();
        self.ctl.run_schedule_round();
        let t1 = Instant::now();
        self.barrier(&[])?;
        self.finish_step(op, Step::Round, seen, (t0, t1, Instant::now()));
        Ok(())
    }

    /// Report a fate group down (`up == false`) or up again, until the
    /// probe has read the installs the report caused.
    pub fn link(&mut self, group: u32, up: bool) -> io::Result<()> {
        self.maybe_probe()?;
        let op = self.begin_op(OpKind::Link { group, up });
        let seen = self.installs_seen;
        let report = encode_frame(&Message::LinkReport { group, up }).map_err(io::Error::other)?;
        let t0 = Instant::now();
        // The barrier writes the report and its ping in one write.
        let t1 = self.barrier(&report)?;
        let step = if up { Step::Repair } else { Step::Recovery };
        self.finish_step(op, step, seen, (t0, t1, Instant::now()));
        Ok(())
    }

    fn begin_op(&mut self, kind: OpKind) -> u32 {
        let measuring = self.measuring;
        self.rec.as_mut().map_or(0, |r| r.begin_op(kind, measuring))
    }

    /// Write `prefix` and a `Ping` on the probe lane and read until the
    /// `Pong`: the controller answers in order on one connection, so every
    /// frame the prefix caused has been read by then. Returns when the
    /// write completed.
    fn barrier(&mut self, prefix: &[u8]) -> io::Result<Instant> {
        let token = self.next_ping;
        self.next_ping += 1;
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&encode_frame(&Message::Ping { token }).map_err(io::Error::other)?);
        let frames = if prefix.is_empty() { 1 } else { 2 };
        self.probe.send(&bytes, frames)?;
        let written = Instant::now();
        self.pump_until(OP_TIMEOUT, |h| h.pong == Some(token))
            .map_err(|e| other(format!("barrier {token} (pool {}): {e}", self.pool)))?;
        Ok(written)
    }

    /// Book a finished round or link step: its spans, its sample, and its
    /// install count against the pool. `times` are the start, the end of
    /// the harness's own call (`run_schedule_round()` or the write), and
    /// the end of reading.
    fn finish_step(
        &mut self,
        op: u32,
        step: Step,
        installs_before: u64,
        (t0, t1, t2): (Instant, Instant, Instant),
    ) {
        let installs = self.installs_seen - installs_before;
        if let Some(rec) = &mut self.rec {
            let root = rec.span_at(op, 0, "bench", step.name(), t0, t2);
            // The controller runs a round inside the call and a link
            // report after the write.
            let (call, in_call) = match step {
                Step::Round => ("controller.round_call", true),
                Step::Recovery | Step::Repair => ("probe.send", false),
            };
            let first = rec.span_at(op, root, "bench", call, t0, t1);
            let second = rec.span_at(op, root, "bench", "probe.read", t1, t2);
            rec.close_op(op, root, if in_call { first } else { second });
        }
        if !self.measuring {
            return;
        }
        self.samples.attempted += 1;
        let set = match step {
            Step::Round => Timed::Round,
            Step::Recovery => Timed::Recovery,
            Step::Repair => Timed::Repair,
        };
        self.stage(set, t0, t2);
        let pool = self.pool as u64;
        self.expect(installs == pool || !self.exact_installs, || {
            format!(
                "{} pushed {installs} installs for a pool of {pool}",
                step.name()
            )
        });
    }

    fn finish_wave(&mut self, w: Wave) {
        let end = w.last_verdict.max(w.last_install);
        self.last_wave_installs = self.installs_seen - w.installs_at_send;
        if let Some(rec) = &mut self.rec {
            let root = rec.span_at(w.op, 0, "bench", "wave", w.start, end);
            rec.span_at(w.op, root, "bench", "client.send", w.start, w.sent);
            let wait = rec.span_at(w.op, root, "bench", "client.wait", w.sent, w.last_verdict);
            rec.span_at(w.op, root, "bench", "probe.read", w.sent, w.last_install);
            rec.close_op(w.op, root, wait);
        }
        if w.measured && w.churn {
            self.stage(Timed::Churn, w.start, end);
        }
    }

    /// Wait on both sockets until `deadline` at the latest and handle what
    /// arrives. The poller's timeout is whole milliseconds; the last
    /// fraction of one is spent polling without blocking, so an open-loop
    /// send is not late by the rounding.
    pub fn pump_deadline(&mut self, deadline: Instant) -> io::Result<()> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            let whole_ms = Duration::from_millis(left.as_millis() as u64);
            self.poller.wait(&mut self.events, Some(whole_ms))?;
            if !self.events.is_empty() {
                return self.read_ready();
            }
            if whole_ms.is_zero() {
                std::hint::spin_loop();
            }
        }
    }

    fn pump_until(&mut self, timeout: Duration, done: impl Fn(&Harness) -> bool) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        while !done(self) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(other(format!("no reply within {timeout:?}")));
            }
            self.poller.wait(&mut self.events, Some(left))?;
            self.read_ready()?;
        }
        Ok(())
    }

    fn read_ready(&mut self) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        let mut inbox = std::mem::take(&mut self.inbox);
        for i in 0..self.events.len() {
            let lane = match self.events[i].token {
                CLIENT => &mut self.client,
                _ => &mut self.probe,
            };
            lane.read(&mut buf, &mut inbox)?;
        }
        let now = Instant::now();
        for msg in inbox.drain(..) {
            self.on_message(msg, now);
        }
        self.buf = buf;
        self.inbox = inbox;
        Ok(())
    }

    fn on_message(&mut self, msg: Message, now: Instant) {
        match msg {
            Message::AdmissionReply { id, admitted } => {
                if self.rec.is_some() {
                    self.verdicts.insert(id, admitted);
                }
                let Some(p) = self.pending.get_mut(&id) else {
                    return;
                };
                p.verdict_seen = true;
                let (wave_id, resolved) = (p.wave, !admitted || p.install_seen);
                if admitted {
                    self.pool += 1;
                    self.admitted.push((id, now));
                }
                let w = self
                    .waves
                    .get_mut(&wave_id)
                    .expect("pending submit has a wave");
                w.last_verdict = now;
                let (measured, start, sent) = (w.measured, w.start, w.sent);
                if measured {
                    let s = &mut self.samples;
                    s.verdicts += 1;
                    if admitted {
                        s.admitted += 1;
                    } else {
                        s.rejected += 1;
                    }
                    s.wait_us.push((now - sent).as_secs_f64() * 1e6);
                    self.stage(Timed::Verdict, start, now);
                }
                if resolved {
                    self.resolve(id, wave_id);
                }
            }
            Message::InstallAllocation { demand, .. } => {
                self.installs_seen += 1;
                if self.measuring {
                    self.samples.installs += 1;
                }
                let Some(p) = self.pending.get_mut(&demand) else {
                    return;
                };
                if p.install_seen {
                    return;
                }
                p.install_seen = true;
                let (wave_id, resolved) = (p.wave, p.verdict_seen);
                let w = self
                    .waves
                    .get_mut(&wave_id)
                    .expect("pending submit has a wave");
                w.last_install = now;
                let (measured, start) = (w.measured, w.start);
                if measured {
                    self.stage(Timed::Install, start, now);
                }
                if resolved {
                    self.resolve(demand, wave_id);
                }
            }
            Message::Pong { token } => self.pong = Some(token),
            // Withdraw acks and allocation removals are read and counted
            // as frames; nothing waits for them.
            _ => {}
        }
    }

    /// A submit has its verdict and, if admitted, its first install.
    fn resolve(&mut self, id: u64, wave_id: u32) {
        self.pending.remove(&id);
        let w = self
            .waves
            .get_mut(&wave_id)
            .expect("pending submit has a wave");
        w.open -= 1;
        if w.open == 0 {
            let w = self.waves.remove(&wave_id).expect("just seen");
            self.finish_wave(w);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
