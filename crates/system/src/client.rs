//! The user-facing client: submit and withdraw BA demands.
//!
//! Hardened for lossy control channels: every request/response exchange
//! runs under a bounded [`RetryPolicy`] — per-attempt read deadlines,
//! reconnect on transport errors, exponential backoff with deterministic
//! seeded jitter between attempts. Retries are safe because the controller
//! treats demand ids as idempotency keys: a retried `SubmitDemand` replays
//! the original admission verdict instead of double-counting (or, as the
//! pre-hardening code did, refusing) the demand, and a retried
//! `WithdrawDemand` re-acks without side effects.

use crate::proto::Message;
use crate::wire::{read_frame, write_frame_ctx, FrameCtx, Transport};
use bate_core::clock::{Clock, SystemClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Registry handles for the client retry family.
struct ClientMetrics {
    retries: Arc<bate_obs::Counter>,
    exhausted: Arc<bate_obs::Counter>,
    backoff_ms: Arc<bate_obs::Histogram>,
}

fn client_metrics() -> &'static ClientMetrics {
    static M: OnceLock<ClientMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        ClientMetrics {
            retries: r.counter("bate_client_retries_total"),
            exhausted: r.counter("bate_client_retries_exhausted_total"),
            backoff_ms: r.histogram("bate_client_backoff_ms"),
        }
    })
}

/// How a client retries a request whose reply did not arrive.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base_delay * 2^(k-1)` (plus jitter),
    /// capped at `max_delay`.
    pub base_delay: Duration,
    pub max_delay: Duration,
    /// Per-attempt reply deadline (socket read timeout).
    pub request_timeout: Duration,
    /// Seed for the deterministic jitter stream (up to +50% of the
    /// backoff step), so two clients retrying in lockstep de-synchronize
    /// without making tests non-reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            request_timeout: Duration::from_secs(1),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// No retries, no read deadline — the pre-hardening behavior, kept so
    /// regression tests can demonstrate the bugs the policy fixes.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            request_timeout: Duration::from_secs(3600),
            jitter_seed: 0,
        }
    }
}

/// Produces fresh transports to the controller; called on connect and on
/// every reconnect after a transport-level failure.
pub type Dialer = Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>;

/// A blocking client connection to the controller.
pub struct Client {
    dial: Dialer,
    stream: Option<Box<dyn Transport>>,
    clock: Arc<dyn Clock>,
    policy: RetryPolicy,
    jitter: StdRng,
    next_token: u64,
}

/// A demand submission.
#[derive(Debug, Clone)]
pub struct DemandRequest {
    pub id: u64,
    pub src: String,
    pub dst: String,
    /// Mbps.
    pub bandwidth: f64,
    /// Availability target in [0, 1].
    pub beta: f64,
    pub price: f64,
    pub refund_ratio: f64,
}

impl DemandRequest {
    /// A demand priced at one unit per Mbps with no refund clause.
    pub fn new(id: u64, src: &str, dst: &str, bandwidth: f64, beta: f64) -> DemandRequest {
        DemandRequest {
            id,
            src: src.to_string(),
            dst: dst.to_string(),
            bandwidth,
            beta,
            price: bandwidth,
            refund_ratio: 0.0,
        }
    }
}

impl Client {
    /// Connect over TCP with the default retry policy and system clock.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with(
            Box::new(move || {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream) as Box<dyn Transport>)
            }),
            SystemClock::shared(),
            RetryPolicy::default(),
        )
    }

    /// Full-control constructor: custom transport factory (fault proxies,
    /// in-process streams), clock, and retry policy. Dials eagerly so
    /// connection refusal surfaces here, like [`Client::connect`].
    pub fn connect_with(
        mut dial: Dialer,
        clock: Arc<dyn Clock>,
        policy: RetryPolicy,
    ) -> io::Result<Client> {
        let stream = dial()?;
        let jitter = StdRng::seed_from_u64(policy.jitter_seed);
        Ok(Client {
            dial,
            stream: Some(stream),
            clock,
            policy,
            jitter,
            next_token: 0,
        })
    }

    fn stream(&mut self) -> io::Result<&mut Box<dyn Transport>> {
        if self.stream.is_none() {
            self.stream = Some((self.dial)()?);
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// Sleep the backoff for retry number `attempt` (1-based) on the
    /// injected clock: exponential, capped, plus up to +50% jitter.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let step = exp.min(self.policy.max_delay);
        let jitter_frac: f64 = self.jitter.gen_range(0.0..0.5);
        let total = step + step.mul_f64(jitter_frac);
        client_metrics().backoff_ms.observe_ms(total);
        if !total.is_zero() {
            self.clock.sleep(total);
        }
    }

    /// One request/reply exchange under the retry policy. `matches` picks
    /// the reply out of the stream (stale replies to earlier attempts of
    /// other operations are skipped, not treated as protocol errors).
    fn request(
        &mut self,
        msg: &Message,
        mut matches: impl FnMut(&Message) -> bool,
    ) -> io::Result<Message> {
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                client_metrics().retries.inc();
                bate_obs::warn!("client.retry", attempt = attempt);
                self.backoff(attempt);
            }
            match self.try_once(msg, &mut matches) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Tear the transport down; the next attempt redials.
                    if let Some(s) = self.stream.take() {
                        s.shutdown_both().ok();
                    }
                    last_err = Some(e);
                }
            }
        }
        client_metrics().exhausted.inc();
        bate_obs::error!("client.retries_exhausted", attempts = self.policy.max_attempts);
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "retries exhausted")
        }))
    }

    fn try_once(
        &mut self,
        msg: &Message,
        matches: &mut impl FnMut(&Message) -> bool,
    ) -> io::Result<Message> {
        let timeout = self.policy.request_timeout;
        let stream = self.stream()?;
        stream.set_read_timeout(Some(timeout))?;
        // Outgoing frames carry the calling thread's span (submit and
        // withdraw open one per operation) so the controller can adopt
        // it; outside a trace this is a legacy frame.
        write_frame_ctx(&mut **stream, msg, FrameCtx::current())
            .map_err(|e| io::Error::other(e.to_string()))?;
        // Bounded skip of stale frames: replies to previous attempts that
        // arrived after we gave up on them.
        for _ in 0..16 {
            match read_frame::<Message, _>(&mut **stream) {
                Ok(reply) if matches(&reply) => return Ok(reply),
                Ok(_stale) => continue,
                Err(e) if e.is_timeout() => {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, e.to_string()))
                }
                Err(e) => return Err(io::Error::other(e.to_string())),
            }
        }
        Err(io::Error::other("no matching reply in 16 frames"))
    }

    /// Submit a demand; returns whether it was admitted. Retries safely:
    /// the controller replays the original verdict for a repeated id.
    pub fn submit(&mut self, req: &DemandRequest) -> io::Result<bool> {
        // Each submission is the root of a causal trace whose id is
        // derived from the demand id — deterministic, so a seeded run
        // produces byte-identical trace ids end to end.
        let _root = bate_obs::context::root("submit", req.id);
        let mut sp = bate_obs::span!("client.submit", demand = req.id);
        let msg = Message::SubmitDemand {
            id: req.id,
            src: req.src.clone(),
            dst: req.dst.clone(),
            bandwidth: req.bandwidth,
            beta: req.beta,
            price: req.price,
            refund_ratio: req.refund_ratio,
        };
        let id = req.id;
        match self.request(&msg, |m| matches!(m, Message::AdmissionReply { id: i, .. } if *i == id))? {
            Message::AdmissionReply { admitted, .. } => {
                sp.record("admitted", admitted);
                Ok(admitted)
            }
            other => Err(io::Error::other(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Withdraw a demand. Acknowledged and idempotent: a lost ack is
    /// retried without tearing down someone else's reservation.
    pub fn withdraw(&mut self, id: u64) -> io::Result<()> {
        let _root = bate_obs::context::root("withdraw", id);
        let _sp = bate_obs::span!("client.withdraw", demand = id);
        let msg = Message::WithdrawDemand { id };
        self.request(&msg, |m| matches!(m, Message::WithdrawAck { id: i } if *i == id))?;
        Ok(())
    }

    /// Fetch the controller's metrics registry as Prometheus text-format
    /// exposition (what `batectl stats` prints).
    pub fn stats(&mut self) -> io::Result<String> {
        match self.request(&Message::StatsQuery, |m| matches!(m, Message::StatsText { .. }))? {
            Message::StatsText { text } => Ok(text),
            other => Err(io::Error::other(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Fetch a deterministic JSONL snapshot of the controller's metrics
    /// whose names start with `prefix` (empty = everything).
    pub fn stats_json(&mut self, prefix: &str) -> io::Result<String> {
        let msg = Message::StatsJsonQuery {
            prefix: prefix.to_string(),
        };
        match self.request(&msg, |m| matches!(m, Message::StatsText { .. }))? {
            Message::StatsText { text } => Ok(text),
            other => Err(io::Error::other(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Fetch the rendered causal span tree for one trace id from the
    /// controller's flight-recorder ring (what `batectl trace` prints).
    pub fn trace_tree(&mut self, trace_id: u64) -> io::Result<String> {
        let msg = Message::TraceQuery { trace_id };
        match self.request(&msg, |m| matches!(m, Message::StatsText { .. }))? {
            Message::StatsText { text } => Ok(text),
            other => Err(io::Error::other(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Round-trip liveness probe; returns the measured RTT (on the
    /// injected clock).
    pub fn ping(&mut self) -> io::Result<Duration> {
        self.next_token += 1;
        let token = self.next_token;
        let start = self.clock.now();
        self.request(
            &Message::Ping { token },
            |m| matches!(m, Message::Pong { token: t } if *t == token),
        )?;
        Ok(self.clock.now().saturating_sub(start))
    }
}
