//! Controller replication: master election by single-decree Paxos (§4).
//!
//! "Controller failures can be remedied by using multiple replications,
//! where the master controller is elected by the Paxos algorithm [37]."
//! This module implements exactly that slice of Paxos: a set of controller
//! replicas agree on *one* value — the id of the master — with the classic
//! prepare/promise, accept/accepted exchange over the same length-prefixed
//! TCP framing the rest of the system uses.
//!
//! Properties (the single-decree Paxos guarantees):
//! * **Safety** — once a value is chosen by a majority of acceptors, every
//!   later successful election returns the same value, even with competing
//!   proposers.
//! * **Liveness under quorum** — a proposer that can reach a majority of
//!   acceptors and picks a high enough ballot succeeds; without a quorum
//!   the election fails with [`ElectError::NoQuorum`] rather than hanging.
//!
//! Hardening: connect/read deadlines and the inter-attempt backoff are
//! configurable ([`ReplicaConfig`]) and paced by an injected [`Clock`], so
//! fault-injection tests can run elections under partitions without
//! wall-clock flakiness. Ballot races back off exponentially with seeded
//! jitter instead of retrying immediately, and a replica's knowledge of
//! the master carries a **lease**: after `lease` elapses on the replica's
//! clock without renewal, [`Replica::master`] returns `None` and callers
//! must re-query or re-elect rather than act on stale state.

use crate::wire::{read_frame, write_frame, Decode, Encode, WireError};
use bate_core::clock::{Clock, SystemClock};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Registry handles for the election metric family.
struct ElectionMetrics {
    attempts: Arc<bate_obs::Counter>,
    won: Arc<bate_obs::Counter>,
    ballot_races: Arc<bate_obs::Counter>,
    no_quorum: Arc<bate_obs::Counter>,
    exhausted: Arc<bate_obs::Counter>,
}

fn election_metrics() -> &'static ElectionMetrics {
    static M: OnceLock<ElectionMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = bate_obs::Registry::global();
        ElectionMetrics {
            attempts: r.counter("bate_election_attempts_total"),
            won: r.counter("bate_election_won_total"),
            ballot_races: r.counter("bate_election_ballot_races_total"),
            no_quorum: r.counter("bate_election_no_quorum_total"),
            exhausted: r.counter("bate_election_retries_exhausted_total"),
        }
    })
}

/// Paxos wire messages.
#[derive(Debug, Clone, PartialEq)]
enum PaxosMsg {
    /// Proposer → acceptor, phase 1.
    Prepare { ballot: u64 },
    /// Acceptor → proposer: promise not to accept ballots below `ballot`.
    /// Carries the highest previously accepted (ballot, value), if any.
    Promise {
        ok: bool,
        /// The acceptor's current promise (for proposer back-off).
        promised: u64,
        accepted: Option<(u64, u64)>,
    },
    /// Proposer → acceptor, phase 2.
    Accept { ballot: u64, value: u64 },
    /// Acceptor → proposer.
    Accepted { ok: bool, promised: u64 },
    /// Anyone → acceptor: what do you believe is chosen?
    Query,
    /// Acceptor → anyone: the answer to `Query` and to `Chosen`.
    ChosenReply { value: Option<u64> },
    /// Proposer → acceptor after a successful round (learner broadcast).
    Chosen { value: u64 },
}

const T_PREPARE: u8 = 1;
const T_PROMISE: u8 = 2;
const T_ACCEPT: u8 = 3;
const T_ACCEPTED: u8 = 4;
const T_QUERY: u8 = 5;
const T_CHOSEN_REPLY: u8 = 6;
const T_CHOSEN: u8 = 7;

impl Encode for PaxosMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            PaxosMsg::Prepare { ballot } => {
                T_PREPARE.encode(buf);
                ballot.encode(buf);
            }
            PaxosMsg::Promise {
                ok,
                promised,
                accepted,
            } => {
                T_PROMISE.encode(buf);
                ok.encode(buf);
                promised.encode(buf);
                match accepted {
                    Some((b, v)) => {
                        true.encode(buf);
                        b.encode(buf);
                        v.encode(buf);
                    }
                    None => false.encode(buf),
                }
            }
            PaxosMsg::Accept { ballot, value } => {
                T_ACCEPT.encode(buf);
                ballot.encode(buf);
                value.encode(buf);
            }
            PaxosMsg::Accepted { ok, promised } => {
                T_ACCEPTED.encode(buf);
                ok.encode(buf);
                promised.encode(buf);
            }
            PaxosMsg::Query => T_QUERY.encode(buf),
            PaxosMsg::ChosenReply { value } => {
                T_CHOSEN_REPLY.encode(buf);
                match value {
                    Some(v) => {
                        true.encode(buf);
                        v.encode(buf);
                    }
                    None => false.encode(buf),
                }
            }
            PaxosMsg::Chosen { value } => {
                T_CHOSEN.encode(buf);
                value.encode(buf);
            }
        }
    }
}

impl Decode for PaxosMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            T_PREPARE => PaxosMsg::Prepare {
                ballot: u64::decode(buf)?,
            },
            T_PROMISE => {
                let ok = bool::decode(buf)?;
                let promised = u64::decode(buf)?;
                let accepted = if bool::decode(buf)? {
                    Some((u64::decode(buf)?, u64::decode(buf)?))
                } else {
                    None
                };
                PaxosMsg::Promise {
                    ok,
                    promised,
                    accepted,
                }
            }
            T_ACCEPT => PaxosMsg::Accept {
                ballot: u64::decode(buf)?,
                value: u64::decode(buf)?,
            },
            T_ACCEPTED => PaxosMsg::Accepted {
                ok: bool::decode(buf)?,
                promised: u64::decode(buf)?,
            },
            T_QUERY => PaxosMsg::Query,
            T_CHOSEN_REPLY => {
                let value = if bool::decode(buf)? {
                    Some(u64::decode(buf)?)
                } else {
                    None
                };
                PaxosMsg::ChosenReply { value }
            }
            T_CHOSEN => PaxosMsg::Chosen {
                value: u64::decode(buf)?,
            },
            other => return Err(WireError::Malformed(format!("paxos tag {other}"))),
        })
    }
}

/// Acceptor state (single decree).
#[derive(Debug, Default)]
struct AcceptorState {
    promised: u64,
    accepted: Option<(u64, u64)>,
    chosen: Option<u64>,
    /// When the local lease on `chosen` expires (on the replica's clock).
    lease_expiry: Duration,
}

/// Election failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ElectError {
    /// Fewer than a majority of acceptors answered.
    NoQuorum,
    /// Retries exhausted (persistent ballot races).
    RetriesExhausted,
}

impl std::fmt::Display for ElectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectError::NoQuorum => write!(f, "no acceptor quorum reachable"),
            ElectError::RetriesExhausted => write!(f, "election retries exhausted"),
        }
    }
}

impl std::error::Error for ElectError {}

/// Deadlines and retry pacing for a replica's RPC and elections.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// TCP connect deadline per acceptor call.
    pub connect_timeout: Duration,
    /// Reply deadline per acceptor call.
    pub read_timeout: Duration,
    /// Backoff before election retry `k` is `retry_base * 2^(k-1)` plus
    /// jitter, capped at `retry_max`.
    pub retry_base: Duration,
    pub retry_max: Duration,
    /// Election attempts before [`ElectError::RetriesExhausted`].
    pub max_attempts: u32,
    /// How long locally learned master knowledge stays trustworthy.
    pub lease: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(500),
            retry_base: Duration::from_millis(5),
            retry_max: Duration::from_millis(100),
            max_attempts: 16,
            lease: Duration::from_secs(10),
        }
    }
}

/// One controller replica: an always-on Paxos acceptor plus a proposer
/// API for running elections.
pub struct Replica {
    id: u64,
    addr: SocketAddr,
    state: Arc<Mutex<AcceptorState>>,
    shutdown: Arc<AtomicBool>,
    ballot_counter: AtomicU64,
    config: ReplicaConfig,
    clock: Arc<dyn Clock>,
    jitter: Mutex<StdRng>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Replica {
    /// Start an acceptor on an ephemeral localhost port with default
    /// deadlines and the system clock.
    pub fn start(id: u64) -> io::Result<Replica> {
        Replica::start_with(id, ReplicaConfig::default(), SystemClock::shared())
    }

    /// Full-control constructor: deadlines, retry pacing, lease length,
    /// and the clock that paces backoff and lease expiry.
    pub fn start_with(id: u64, config: ReplicaConfig, clock: Arc<dyn Clock>) -> io::Result<Replica> {
        assert!(id < (1 << 16), "replica ids must fit 16 bits (ballot scheme)");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(Mutex::new(AcceptorState::default()));
        let shutdown = Arc::new(AtomicBool::new(false));

        let st = Arc::clone(&state);
        let sd = Arc::clone(&shutdown);
        let lease = config.lease;
        let acceptor_clock = Arc::clone(&clock);
        let accept_thread = std::thread::spawn(move || {
            while !sd.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        let st = Arc::clone(&st);
                        let clock = Arc::clone(&acceptor_clock);
                        std::thread::spawn(move || acceptor_loop(st, stream, clock, lease));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(Replica {
            id,
            addr,
            state,
            shutdown,
            ballot_counter: AtomicU64::new(0),
            jitter: Mutex::new(StdRng::seed_from_u64(0xBA70_0000 | id)),
            config,
            clock,
            accept_thread: Some(accept_thread),
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What this replica believes was chosen (learned locally, ignoring
    /// the lease — see [`Replica::master`] for the safe accessor).
    pub fn chosen(&self) -> Option<u64> {
        self.state.lock().chosen
    }

    /// The master this replica may act on: the locally learned choice,
    /// but only while its lease is unexpired. `None` means the knowledge
    /// is stale — re-query a quorum or run an election before acting.
    pub fn master(&self) -> Option<u64> {
        let st = self.state.lock();
        match st.chosen {
            Some(v) if self.clock.now() < st.lease_expiry => Some(v),
            _ => None,
        }
    }

    /// Globally unique, monotonically increasing ballot: counter ‖ id.
    fn next_ballot(&self, at_least: u64) -> u64 {
        let min_counter = (at_least >> 16) + 1;
        let counter = self
            .ballot_counter
            .fetch_max(min_counter, Ordering::Relaxed)
            .max(min_counter);
        self.ballot_counter.store(counter + 1, Ordering::Relaxed);
        (counter << 16) | self.id
    }

    /// Sleep the backoff for election retry `attempt` (1-based):
    /// exponential, capped, plus up to +50% seeded jitter so competing
    /// proposers de-synchronize deterministically.
    fn backoff(&self, attempt: u32) {
        let exp = self
            .config
            .retry_base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let step = exp.min(self.config.retry_max);
        let frac: f64 = self.jitter.lock().gen_range(0.0..0.5);
        let total = step + step.mul_f64(frac);
        if !total.is_zero() {
            self.clock.sleep(total);
        }
    }

    /// Run an election proposing `candidate` (usually `self.id`) as
    /// master, against the given acceptors (normally all replicas'
    /// addresses including our own). Returns the *chosen* master — which,
    /// per Paxos, may be an earlier winner rather than `candidate`.
    pub fn propose_master(
        &self,
        acceptors: &[SocketAddr],
        candidate: u64,
    ) -> Result<u64, ElectError> {
        let majority = acceptors.len() / 2 + 1;
        let mut floor = 0u64;
        let mut starved = false;
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                election_metrics().ballot_races.inc();
                self.backoff(attempt);
            }
            election_metrics().attempts.inc();
            starved = false;
            let ballot = self.next_ballot(floor);

            // Phase 1: prepare.
            let mut promises = 0usize;
            let mut best_accepted: Option<(u64, u64)> = None;
            let mut highest_seen = ballot;
            for &addr in acceptors {
                match self.call(addr, &PaxosMsg::Prepare { ballot }) {
                    Some(PaxosMsg::Promise {
                        ok,
                        promised,
                        accepted,
                    }) => {
                        highest_seen = highest_seen.max(promised);
                        if ok {
                            promises += 1;
                            if let Some((b, v)) = accepted {
                                if best_accepted.is_none_or(|(bb, _)| b > bb) {
                                    best_accepted = Some((b, v));
                                }
                            }
                        }
                    }
                    _ => continue,
                }
            }
            if promises < majority {
                if highest_seen == ballot {
                    // Nobody promised a higher ballot: this is a
                    // connectivity shortfall, not a competing proposer.
                    // Retry — transient loss heals across attempts; a
                    // real partition exhausts them and reports NoQuorum.
                    starved = true;
                    continue;
                }
                floor = highest_seen;
                continue;
            }

            // Phase 2: accept — a previously accepted value wins over ours.
            let value = best_accepted.map(|(_, v)| v).unwrap_or(candidate);
            let mut accepts = 0usize;
            for &addr in acceptors {
                if let Some(PaxosMsg::Accepted { ok, promised }) =
                    self.call(addr, &PaxosMsg::Accept { ballot, value })
                {
                    highest_seen = highest_seen.max(promised);
                    if ok {
                        accepts += 1;
                    }
                }
            }
            if accepts >= majority {
                // Learner broadcast (best effort: a lost acknowledgement
                // costs `read_timeout` and is ignored).
                for &addr in acceptors {
                    self.call(addr, &PaxosMsg::Chosen { value });
                }
                let mut st = self.state.lock();
                st.chosen = Some(value);
                st.lease_expiry = self.clock.now() + self.config.lease;
                election_metrics().won.inc();
                bate_obs::info!(
                    "election.won",
                    replica = self.id,
                    master = value,
                    ballot = ballot,
                );
                return Ok(value);
            }
            floor = highest_seen;
        }
        let err = if starved {
            election_metrics().no_quorum.inc();
            ElectError::NoQuorum
        } else {
            election_metrics().exhausted.inc();
            ElectError::RetriesExhausted
        };
        bate_obs::warn!(
            "election.failed",
            replica = self.id,
            candidate = candidate,
            no_quorum = (err == ElectError::NoQuorum),
        );
        // Losing an election is a flight-recorder trigger: dump whatever
        // the ring buffered leading up to the loss so the sequence of
        // ballots/races that starved this replica is reconstructable.
        bate_obs::flight::trigger(
            "election_loss",
            bate_obs::context::current().trace_id,
        );
        Err(err)
    }

    /// Ask an acceptor what it has learned (default deadlines).
    pub fn query(addr: SocketAddr) -> Option<u64> {
        let config = ReplicaConfig::default();
        match call_with(addr, &PaxosMsg::Query, &config) {
            Some(PaxosMsg::ChosenReply { value }) => value,
            _ => None,
        }
    }

    /// One request/response exchange with an acceptor under this
    /// replica's deadlines.
    fn call(&self, addr: SocketAddr, msg: &PaxosMsg) -> Option<PaxosMsg> {
        call_with(addr, msg, &self.config)
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

/// One request/response exchange with an acceptor (short-lived
/// connection; elections are rare).
fn call_with(addr: SocketAddr, msg: &PaxosMsg, config: &ReplicaConfig) -> Option<PaxosMsg> {
    let mut stream = TcpStream::connect_timeout(&addr, config.connect_timeout).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(config.read_timeout)).ok();
    write_frame(&mut stream, msg).ok()?;
    read_frame(&mut stream).ok()
}

/// Acceptor protocol handler: one connection, sequential requests.
fn acceptor_loop(
    state: Arc<Mutex<AcceptorState>>,
    mut stream: TcpStream,
    clock: Arc<dyn Clock>,
    lease: Duration,
) {
    loop {
        let msg: PaxosMsg = match read_frame(&mut stream) {
            Ok(m) => m,
            Err(_) => return,
        };
        let reply = {
            let mut st = state.lock();
            match msg {
                PaxosMsg::Prepare { ballot } => {
                    if ballot > st.promised {
                        st.promised = ballot;
                        Some(PaxosMsg::Promise {
                            ok: true,
                            promised: st.promised,
                            accepted: st.accepted,
                        })
                    } else {
                        Some(PaxosMsg::Promise {
                            ok: false,
                            promised: st.promised,
                            accepted: st.accepted,
                        })
                    }
                }
                PaxosMsg::Accept { ballot, value } => {
                    if ballot >= st.promised {
                        st.promised = ballot;
                        st.accepted = Some((ballot, value));
                        Some(PaxosMsg::Accepted {
                            ok: true,
                            promised: st.promised,
                        })
                    } else {
                        Some(PaxosMsg::Accepted {
                            ok: false,
                            promised: st.promised,
                        })
                    }
                }
                PaxosMsg::Query => Some(PaxosMsg::ChosenReply { value: st.chosen }),
                // Acknowledged like every other request: once the sender
                // has the reply the value is stored, so a `Query` on any
                // other connection cannot overtake it.
                PaxosMsg::Chosen { value } => {
                    st.chosen = Some(value);
                    st.lease_expiry = clock.now() + lease;
                    Some(PaxosMsg::ChosenReply { value: st.chosen })
                }
                // Replies are never received by an acceptor.
                _ => None,
            }
        };
        if let Some(reply) = reply {
            if write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bate_core::clock::SimClock;

    fn cluster(n: usize) -> (Vec<Replica>, Vec<SocketAddr>) {
        let replicas: Vec<Replica> = (0..n as u64).map(|i| Replica::start(i).unwrap()).collect();
        let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
        (replicas, addrs)
    }

    #[test]
    fn single_proposer_elects_itself() {
        let (replicas, addrs) = cluster(3);
        let master = replicas[1].propose_master(&addrs, 1).unwrap();
        assert_eq!(master, 1);
        // Every acceptor learned the choice.
        for addr in &addrs {
            assert_eq!(Replica::query(*addr), Some(1));
        }
    }

    /// A learner broadcast is stored by the time it is acknowledged: a
    /// query on a fresh connection right after the ack reads the value.
    #[test]
    fn acknowledged_chosen_is_visible_to_the_next_connection() {
        let acceptor = Replica::start(0).unwrap();
        let config = ReplicaConfig::default();
        for value in 0..200u64 {
            let ack = call_with(acceptor.addr(), &PaxosMsg::Chosen { value }, &config);
            assert_eq!(ack, Some(PaxosMsg::ChosenReply { value: Some(value) }));
            assert_eq!(Replica::query(acceptor.addr()), Some(value));
        }
    }

    #[test]
    fn second_election_returns_first_winner() {
        let (replicas, addrs) = cluster(3);
        let first = replicas[0].propose_master(&addrs, 0).unwrap();
        assert_eq!(first, 0);
        // Replica 2 campaigns later — Paxos forces it to adopt the chosen
        // value.
        let second = replicas[2].propose_master(&addrs, 2).unwrap();
        assert_eq!(second, 0, "an already-chosen master must stick");
    }

    #[test]
    fn concurrent_proposers_agree() {
        let (replicas, addrs) = cluster(5);
        let replicas = Arc::new(replicas);
        let addrs = Arc::new(addrs);
        let mut handles = Vec::new();
        let results = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3usize {
            let addrs = Arc::clone(&addrs);
            let results = Arc::clone(&results);
            let replicas = Arc::clone(&replicas);
            handles.push(std::thread::spawn(move || {
                if let Ok(v) = replicas[i].propose_master(&addrs, i as u64) {
                    results.lock().push(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let results = results.lock();
        assert!(!results.is_empty(), "at least one proposer must win");
        let first = results[0];
        assert!(
            results.iter().all(|&v| v == first),
            "diverging masters: {results:?}"
        );
    }

    #[test]
    fn no_quorum_fails_cleanly() {
        let (replicas, mut addrs) = cluster(3);
        // Two of three acceptors unreachable (closed ports).
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        addrs[1] = dead_addr;
        addrs[2] = dead_addr;
        assert_eq!(
            replicas[0].propose_master(&addrs, 0),
            Err(ElectError::NoQuorum)
        );
    }

    #[test]
    fn minority_acceptors_still_elect_with_quorum() {
        let (replicas, mut addrs) = cluster(5);
        // One acceptor down out of five: quorum (3) still reachable.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);
        addrs[4] = dead_addr;
        let master = replicas[0].propose_master(&addrs, 0).unwrap();
        assert_eq!(master, 0);
    }

    #[test]
    fn master_lease_expires_on_the_injected_clock() {
        let clock = SimClock::shared();
        let config = ReplicaConfig {
            lease: Duration::from_secs(5),
            ..ReplicaConfig::default()
        };
        let replicas: Vec<Replica> = (0..3u64)
            .map(|i| {
                Replica::start_with(i, config.clone(), clock.clone() as Arc<dyn Clock>).unwrap()
            })
            .collect();
        let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();

        replicas[0].propose_master(&addrs, 0).unwrap();
        assert_eq!(replicas[0].master(), Some(0), "fresh lease is valid");

        // Advance virtual time past the lease: local knowledge goes stale.
        clock.advance(Duration::from_secs(6));
        assert_eq!(replicas[0].master(), None, "expired lease must not serve");
        assert_eq!(
            replicas[0].chosen(),
            Some(0),
            "raw chosen value survives lease expiry"
        );

        // Re-election renews the lease and (single decree) keeps the value.
        let again = replicas[0].propose_master(&addrs, 0).unwrap();
        assert_eq!(again, 0);
        assert_eq!(replicas[0].master(), Some(0));
    }
}
