//! The per-DC broker (§4): receives allocations, programs the bandwidth
//! enforcer, reports link events to the controller.
//!
//! Hardened for lossy control channels: the broker holds a [`Dialer`]
//! rather than a bare socket, so when the controller connection is severed
//! the reader thread redials with bounded exponential backoff and
//! re-registers — the controller then re-pushes every live allocation and
//! the broker converges without operator intervention. Test waits
//! (`wait_for_demand`, `wait_for_rate`) are condvar-notified instead of
//! polling wall-clock sleeps.

use crate::client::Dialer;
use crate::enforcer::Enforcer;
use crate::proto::{FlowEntry, Message};
use crate::wire::{read_frame_ctx, write_frame, FrameCtx, Transport};
use bate_core::clock::{Clock, SystemClock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Installed flow entries plus a condvar so waiters are woken on every
/// change instead of polling.
struct InstalledMap {
    map: StdMutex<HashMap<u64, Vec<FlowEntry>>>,
    changed: Condvar,
}

impl InstalledMap {
    fn new() -> Self {
        InstalledMap {
            map: StdMutex::new(HashMap::new()),
            changed: Condvar::new(),
        }
    }

    fn set(&self, demand: u64, entries: Vec<FlowEntry>) {
        self.map.lock().unwrap().insert(demand, entries);
        self.changed.notify_all();
    }

    fn remove(&self, demand: u64) {
        self.map.lock().unwrap().remove(&demand);
        self.changed.notify_all();
    }

    /// Block until `pred` holds on the map, waking on every install/remove.
    fn wait(&self, timeout: Duration, pred: impl Fn(&HashMap<u64, Vec<FlowEntry>>) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.map.lock().unwrap();
        loop {
            if pred(&guard) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self.changed.wait_timeout(guard, deadline - now).unwrap();
            guard = g;
        }
    }
}

/// Reconnect schedule for a severed controller connection.
const RECONNECT_ATTEMPTS: u32 = 20;
const RECONNECT_BASE: Duration = Duration::from_millis(5);
const RECONNECT_MAX: Duration = Duration::from_millis(200);

/// A connected broker. Disconnects when dropped.
pub struct Broker {
    writer: Arc<Mutex<Box<dyn Transport>>>,
    enforcer: Arc<Enforcer>,
    installed: Arc<InstalledMap>,
    reader: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    reconnects: Arc<AtomicU64>,
}

impl Broker {
    /// Connect to the controller over TCP and register as the broker for
    /// `dc`.
    pub fn connect(addr: SocketAddr, dc: &str) -> io::Result<Broker> {
        Broker::connect_via(
            Box::new(move || {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream) as Box<dyn Transport>)
            }),
            dc,
            SystemClock::shared(),
        )
    }

    /// Connect through an arbitrary transport factory (fault proxies). The
    /// dialer is also what reconnection uses after a severed link.
    pub fn connect_via(mut dial: Dialer, dc: &str, clock: Arc<dyn Clock>) -> io::Result<Broker> {
        let stream = dial()?;
        let mut reg = stream.try_clone_box()?;
        write_frame(&mut *reg, &Message::RegisterBroker { dc: dc.to_string() })
            .map_err(|e| io::Error::other(e.to_string()))?;

        let enforcer = Arc::new(Enforcer::new());
        let installed = Arc::new(InstalledMap::new());
        let writer: Arc<Mutex<Box<dyn Transport>>> = Arc::new(Mutex::new(stream.try_clone_box()?));
        let shutdown = Arc::new(AtomicBool::new(false));
        let reconnects = Arc::new(AtomicU64::new(0));

        let e2 = Arc::clone(&enforcer);
        let i2 = Arc::clone(&installed);
        let w2 = Arc::clone(&writer);
        let sd = Arc::clone(&shutdown);
        let rc = Arc::clone(&reconnects);
        let dc_name = dc.to_string();
        let mut read_stream = stream;
        let reader = std::thread::spawn(move || loop {
            if sd.load(Ordering::Relaxed) {
                return;
            }
            let (rctx, msg): (Option<FrameCtx>, Message) = match read_frame_ctx(&mut *read_stream)
            {
                Ok(m) => m,
                Err(_) if sd.load(Ordering::Relaxed) => return,
                // Clean close or mid-frame severance: either way the
                // connection is gone — redial, re-register, resume.
                Err(_) => {
                    match reconnect(&mut dial, &dc_name, &sd, &clock) {
                        Some(stream) => {
                            if let Ok(clone) = stream.try_clone_box() {
                                *w2.lock() = clone;
                            }
                            read_stream = stream;
                            rc.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        None => return,
                    }
                }
            };
            match msg {
                Message::InstallAllocation { demand, entries } => {
                    // Adopt the push's context: the enforcement install
                    // becomes the terminal span of the trace that started
                    // at the client's submit.
                    let _adopted =
                        rctx.map(|c| bate_obs::context::adopt("broker.install", c.trace_id, c.span_id));
                    // Span only when a context arrived: untraced installs
                    // must stay silent (reader thread ⇒ nondeterministic
                    // interleaving otherwise).
                    let _sp = _adopted
                        .is_some()
                        .then(|| bate_obs::span!("broker.install", demand = demand, entries = entries.len()));
                    // Replace the demand's enforcement entries wholesale:
                    // the controller always sends the complete set.
                    e2.remove_demand(demand);
                    for entry in &entries {
                        e2.install(demand, entry.pair, entry.tunnel, entry.rate);
                    }
                    drop((_sp, _adopted)); // in the flight ring before a waiter can wake
                    i2.set(demand, entries);
                }
                Message::RemoveAllocation { demand } => {
                    let _adopted =
                        rctx.map(|c| bate_obs::context::adopt("broker.remove", c.trace_id, c.span_id));
                    let _sp = _adopted
                        .is_some()
                        .then(|| bate_obs::span!("broker.remove", demand = demand));
                    e2.remove_demand(demand);
                    drop((_sp, _adopted));
                    i2.remove(demand);
                }
                Message::Ping { token } => {
                    let mut w = w2.lock();
                    if write_frame(&mut **w, &Message::Pong { token }).is_err() {
                        // Leave teardown to the next read error.
                        drop(w);
                    }
                }
                _ => {}
            }
        });

        Ok(Broker {
            writer,
            enforcer,
            installed,
            reader: Some(reader),
            shutdown,
            reconnects,
        })
    }

    /// Report a fate-group state change to the controller (the Network
    /// Agent "tracks the network topology, reports any change or failure").
    pub fn report_link(&self, group: u32, up: bool) -> io::Result<()> {
        let mut w = self.writer.lock();
        write_frame(&mut **w, &Message::LinkReport { group, up })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// The local bandwidth enforcer.
    pub fn enforcer(&self) -> &Enforcer {
        &self.enforcer
    }

    /// How many times the controller connection has been re-established.
    pub fn reconnect_count(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Total installed rate for a demand (0 until an install arrives).
    pub fn installed_rate(&self, demand: u64) -> f64 {
        self.installed
            .map
            .lock()
            .unwrap()
            .get(&demand)
            .map(|es| es.iter().map(|e| e.rate).sum())
            .unwrap_or(0.0)
    }

    /// The installed flow entries for a demand.
    pub fn entries(&self, demand: u64) -> Vec<FlowEntry> {
        self.installed
            .map
            .lock()
            .unwrap()
            .get(&demand)
            .cloned()
            .unwrap_or_default()
    }

    /// Block until an allocation for `demand` arrives (condvar-notified —
    /// no polling).
    pub fn wait_for_demand(&self, demand: u64, timeout: Duration) -> bool {
        self.installed.wait(timeout, |m| m.contains_key(&demand))
    }

    /// Block until the installed entries of `demand` satisfy `pred`
    /// (absent demand ⇒ empty slice).
    pub fn wait_for_entries(
        &self,
        demand: u64,
        timeout: Duration,
        pred: impl Fn(&[FlowEntry]) -> bool,
    ) -> bool {
        self.installed
            .wait(timeout, |m| pred(m.get(&demand).map_or(&[], |es| es)))
    }

    /// Block until the installed rate of `demand` satisfies `pred`.
    pub fn wait_for_rate(
        &self,
        demand: u64,
        timeout: Duration,
        pred: impl Fn(f64) -> bool,
    ) -> bool {
        self.installed.wait(timeout, |m| {
            pred(m
                .get(&demand)
                .map(|es| es.iter().map(|e| e.rate).sum())
                .unwrap_or(0.0))
        })
    }
}

/// Redial the controller with bounded exponential backoff and re-register.
/// Returns the fresh transport, or `None` when attempts are exhausted or
/// shutdown was requested.
fn reconnect(
    dial: &mut Dialer,
    dc: &str,
    shutdown: &AtomicBool,
    clock: &Arc<dyn Clock>,
) -> Option<Box<dyn Transport>> {
    for attempt in 0..RECONNECT_ATTEMPTS {
        if shutdown.load(Ordering::Relaxed) {
            return None;
        }
        if attempt > 0 {
            let exp = RECONNECT_BASE.saturating_mul(1u32 << (attempt - 1).min(16));
            clock.sleep(exp.min(RECONNECT_MAX));
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
        }
        let Ok(mut stream) = dial() else { continue };
        if write_frame(&mut *stream, &Message::RegisterBroker { dc: dc.to_string() }).is_ok() {
            return Some(stream);
        }
    }
    None
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Closing both halves unblocks the reader thread.
        self.writer.lock().shutdown_both().ok();
        if let Some(r) = self.reader.take() {
            r.join().ok();
        }
    }
}
