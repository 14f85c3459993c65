//! The four traffic scripts. A script is stepped until the phase's time
//! is up; its state carries over from warm-up into the measured window.

use crate::gen::Inputs;
use crate::harness::Harness;
use crate::spec::Workload;
use bate_system::client::DemandRequest;
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

pub trait Script {
    /// Run one iteration against the live controller.
    fn step(&mut self, h: &mut Harness, inputs: &mut Inputs) -> io::Result<()>;
}

/// The script of `workload`, taking over the demands set-up pre-filled.
pub fn script_for(workload: Workload, h: &mut Harness) -> Box<dyn Script> {
    let prefilled: Vec<u64> = h.take_admitted().into_iter().map(|(id, _)| id).collect();
    match workload {
        Workload::OpenLight => Box::new(OpenLight::new(&prefilled)),
        Workload::BurstBatched => Box::new(BurstBatched {
            history: prefilled.chunks(WAVE).map(<[u64]>::to_vec).collect(),
            waves: 0,
        }),
        Workload::ContendedMix => Box::new(ContendedMix::default()),
        Workload::WanCycle => Box::new(WanCycle {
            live: prefilled.into(),
        }),
    }
}

/// Fail a seeded fate group, then repair it.
fn fail_and_repair(h: &mut Harness, inputs: &mut Inputs) -> io::Result<()> {
    let group = inputs.next_group();
    h.link(group, false)?;
    h.link(group, true)
}

/// Open loop: submits go out when the seeded schedule says so, whatever
/// the controller is doing, and are timed from their due time.
struct OpenLight {
    epoch: Instant,
    next: usize,
    /// `(due, id)`: admitted demands, withdrawn with the first flush
    /// `LIFETIME` after their verdict.
    withdrawals: VecDeque<(Instant, u64)>,
    control_due: Instant,
}

const LIFETIME: Duration = Duration::from_millis(50);
const CONTROL_EVERY: Duration = Duration::from_millis(150);
/// Twice the steady pool. After a stall the backlog goes out at the
/// controller's full speed, twenty times faster than lifetimes expire;
/// uncapped, the pool grows past the 40 demands above which the seed's
/// cold rounds are no longer safe (README, regimes left out), and one run
/// in ten never recovered.
const LIVE_CAP: usize = 32;
/// A probe reading takes 0.3 ms, 0.6 ms while the machine is slow.
const PROBE_ROOM: Duration = Duration::from_millis(1);

impl OpenLight {
    /// The pre-filled demands leave one lifetime from now, like tenants'.
    fn new(prefilled: &[u64]) -> OpenLight {
        let now = Instant::now();
        OpenLight {
            epoch: now,
            next: 0,
            withdrawals: prefilled.iter().map(|&id| (now + LIFETIME, id)).collect(),
            control_due: now + CONTROL_EVERY,
        }
    }

    fn absorb(&mut self, h: &mut Harness) {
        for (id, at) in h.take_admitted() {
            self.withdrawals.push_back((at + LIFETIME, id));
        }
    }
}

impl Script for OpenLight {
    fn step(&mut self, h: &mut Harness, inputs: &mut Inputs) -> io::Result<()> {
        self.absorb(h);
        let now = Instant::now();
        if now >= self.control_due {
            // The control steps run back to back, after the lane has
            // drained so that the pool is known exactly. Between events
            // this workload's threads sleep, and the first step after a
            // sleep pays the wake-up: the 1.5 ms round absorbs it, the
            // sub-millisecond steps behind it repeat within a few percent.
            self.control_due = now + CONTROL_EVERY;
            h.wait_idle()?;
            h.round()?;
            return fail_and_repair(h, inputs);
        }
        let Some(ev) = inputs.open_schedule.get(self.next) else {
            return Err(io::Error::other("open-loop schedule exhausted"));
        };
        let due = self.epoch + Duration::from_secs_f64(ev.offset_s);
        if due > now {
            // The lane is idle until the next due time: where the gap is
            // long enough not to delay it, read the speed probe.
            if due - now > PROBE_ROOM {
                h.maybe_probe()?;
            }
            return h.pump_deadline(due.min(self.control_due));
        }
        // A due submit goes out only once the one before it is resolved:
        // the schedule's gaps are several times the verdict latency, so
        // this binds only while catching up after a stall, where it keeps
        // every wakeup a batch of one. The wait counts: latency runs from
        // the due time.
        if h.outstanding() > 0 {
            return h.wait_idle();
        }
        // Expired demands leave with this flush, as a pipelined client
        // piggybacks its withdrawals: one controller wakeup per tenant
        // event, not two that collide at random.
        let mut expired = Vec::new();
        while self.withdrawals.len() >= LIVE_CAP
            || self.withdrawals.front().is_some_and(|&(at, _)| at <= now)
        {
            expired.push(self.withdrawals.pop_front().expect("checked").1);
        }
        let req = DemandRequest::new(ev.id, &ev.src, &ev.dst, ev.bandwidth, ev.beta);
        h.send_wave(&expired, &[req], Some(due))?;
        self.next += 1;
        Ok(())
    }
}

/// Closed loop, window 16: the batched admission path.
struct BurstBatched {
    /// Admitted ids of the last waves, oldest first.
    history: VecDeque<Vec<u64>>,
    waves: u64,
}

const WAVE: usize = 16;
const BURST_CONTROL_EVERY: u64 = 16;

impl Script for BurstBatched {
    fn step(&mut self, h: &mut Harness, inputs: &mut Inputs) -> io::Result<()> {
        // The wave admitted two waves ago leaves with this flush, so the
        // pool swings between two and three waves.
        let old = if self.history.len() >= 3 {
            self.history.pop_front().expect("checked")
        } else {
            Vec::new()
        };
        let wave = h.send_wave(&old, &inputs.stream.take(WAVE), None)?;
        h.wait_wave(wave)?;
        self.history
            .push_back(h.take_admitted().into_iter().map(|(id, _)| id).collect());
        self.waves += 1;
        if self.waves.is_multiple_of(BURST_CONTROL_EVERY) {
            // The control steps solve cold, and on testbed6 a cold solve
            // over more than some 40 demands now and then runs into the
            // solver's 10 s wall-clock guard (README, regimes left out); over
            // two waves it takes 2 ms every time. So the oldest wave leaves
            // early.
            if self.history.len() >= 3 {
                let oldest = self.history.pop_front().expect("checked");
                h.send_wave(&oldest, &[], None)?;
            }
            h.round()?;
            fail_and_repair(h, inputs)?;
        }
        Ok(())
    }
}

/// Closed loop, window 1, near capacity: the reject path and cold rounds.
#[derive(Default)]
struct ContendedMix {
    /// `(submission count at which it leaves, id)`, oldest first.
    live: VecDeque<(u64, u64)>,
    submissions: u64,
}

const CONTENDED_LIFETIME: u64 = 128;
const CONTENDED_ROUND_EVERY: u64 = 64;
const CONTENDED_FAIL_EVERY: u64 = 512;

impl Script for ContendedMix {
    fn step(&mut self, h: &mut Harness, inputs: &mut Inputs) -> io::Result<()> {
        self.submissions += 1;
        let mut old = Vec::new();
        while self
            .live
            .front()
            .is_some_and(|&(at, _)| at <= self.submissions)
        {
            old.push(self.live.pop_front().expect("checked").1);
        }
        let wave = h.send_wave(&old, &[inputs.stream.next_request()], None)?;
        h.wait_wave(wave)?;
        for (id, _) in h.take_admitted() {
            self.live
                .push_back((self.submissions + CONTENDED_LIFETIME, id));
        }
        if self.submissions.is_multiple_of(CONTENDED_ROUND_EVERY) {
            h.round()?;
        }
        if self.submissions.is_multiple_of(CONTENDED_FAIL_EVERY) {
            fail_and_repair(h, inputs)?;
        }
        Ok(())
    }
}

/// Paper-scale cycle: churn, TE round, failure, repair on one controller.
struct WanCycle {
    live: VecDeque<u64>,
}

const WAN_CHURN: usize = 8;

impl Script for WanCycle {
    fn step(&mut self, h: &mut Harness, inputs: &mut Inputs) -> io::Result<()> {
        let old: Vec<u64> = self.live.drain(..WAN_CHURN.min(self.live.len())).collect();
        let wave = h.send_wave(&old, &inputs.stream.take(WAN_CHURN), None)?;
        h.wait_wave(wave)?;
        self.live
            .extend(h.take_admitted().into_iter().map(|(id, _)| id));
        let (installs, pool) = (h.last_wave_installs, h.pool as u64);
        h.expect(installs == pool, || {
            format!("churn pushed {installs} installs for a pool of {pool}")
        });
        h.round()?;
        fail_and_repair(h, inputs)
    }
}
