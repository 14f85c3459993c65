//! The machine-speed probe, and pinning to one CPU.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! between levels up to 2x apart, for seconds to minutes at a time
//! (README, "The machine"). A fixed kernel, timed by the generator thread
//! between operations on the CPU the controller runs on, tracks that: over
//! eight runs of one seed, the ratio of a second's median verdict or TE
//! round time to the kernel's time moves by 5 % where the times themselves
//! move by 20 and 14 %. Every end-to-end time is therefore reported *at
//! reference speed*: multiplied by [`PROBE_REF_US`] over the probe's
//! reading at the time of the operation.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The probe kernel's time on a machine at reference speed, microseconds.
/// A time reported as `x` ms is `x` ms on a machine where the kernel takes
/// this long.
pub const PROBE_REF_US: f64 = 60.0;

/// Elements per array: two arrays of 128 KiB, resident in the L2 cache.
const PROBE_LEN: usize = 16 * 1024;
const PROBE_PASSES: usize = 8;
/// Loopback messages per kernel: as long as the passes take, in this
/// machine's usual state.
const PROBE_MESSAGES: usize = 12;
const PROBE_MESSAGE_BYTES: usize = 64;

/// The kernel does a little of both things the benchmark's operations are
/// made of, half its time each:
///
/// * `a = a * c + b` over two `f64` arrays, eight passes. Like the solver's
///   pivots it streams through cache-resident rows, so it slows with the
///   clock and with a neighbour's pressure on the shared caches. Alone it
///   tracks TE rounds (5 %) and under-corrects message latencies (10 %).
/// * twelve 64-byte messages written to and read from a loopback TCP
///   connection of the probe's own, in this thread. Alone it tracks
///   message latencies (6 %) and over-corrects rounds (11 %).
///
/// Timed as one, the two track verdicts, installs and rounds alike
/// (5-6 %). The probe calls nothing of the program under test.
pub struct Probe {
    a: Vec<f64>,
    b: Vec<f64>,
    tx: TcpStream,
    rx: TcpStream,
}

impl Probe {
    pub fn new() -> io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        tx.set_nodelay(true)?;
        let (rx, _) = listener.accept()?;
        Ok(Probe {
            a: vec![1.0; PROBE_LEN],
            b: vec![1e-12; PROBE_LEN],
            tx,
            rx,
        })
    }

    fn pass(&mut self, c: f64) {
        for (a, b) in self.a.iter_mut().zip(&self.b) {
            *a = *a * c + *b;
        }
        std::hint::black_box(&mut self.a);
    }

    fn kernel(&mut self) -> io::Result<()> {
        for pass in 0..PROBE_PASSES {
            self.pass(1.0 - 1e-12 * pass as f64);
        }
        let mut message = [0u8; PROBE_MESSAGE_BYTES];
        for _ in 0..PROBE_MESSAGES {
            self.tx.write_all(&message)?;
            self.rx.read_exact(&mut message)?;
        }
        Ok(())
    }

    /// One reading: an untimed kernel to load its data and code, then the
    /// median of three timed ones, in microseconds. About 0.3 ms.
    pub fn read_us(&mut self) -> io::Result<f64> {
        self.kernel()?;
        let mut us = [0.0; 3];
        for slot in &mut us {
            let t = Instant::now();
            self.kernel()?;
            *slot = t.elapsed().as_secs_f64() * 1e6;
        }
        us.sort_unstable_by(f64::total_cmp);
        Ok(us[1])
    }
}

/// The probe's readings over one harness's life: `(seconds, microseconds)`,
/// in time order.
#[derive(Default)]
pub struct SpeedLog {
    at_s: Vec<f64>,
    us: Vec<f64>,
}

impl SpeedLog {
    pub fn push(&mut self, at_s: f64, us: f64) {
        self.at_s.push(at_s);
        self.us.push(us);
    }

    pub fn last_us(&self) -> Option<f64> {
        self.us.last().copied()
    }

    /// Readings taken at or after `from_s`.
    pub fn since(&self, from_s: f64) -> &[f64] {
        &self.us[self.at_s.partition_point(|&t| t < from_s)..]
    }

    /// The probe's time at `at_s`, interpolated between the readings
    /// either side of it.
    fn us_at(&self, at_s: f64) -> f64 {
        let j = self.at_s.partition_point(|&t| t <= at_s);
        match (j.checked_sub(1), self.at_s.get(j)) {
            (Some(i), Some(&t1)) => {
                let (t0, u0, u1) = (self.at_s[i], self.us[i], self.us[j]);
                u0 + (u1 - u0) * (at_s - t0) / (t1 - t0).max(1e-9)
            }
            (Some(i), None) => self.us[i],
            (None, Some(_)) => self.us[0],
            (None, None) => PROBE_REF_US,
        }
    }

    /// What a time measured around `at_s` is multiplied by to read at
    /// reference speed.
    pub fn factor_at(&self, at_s: f64) -> f64 {
        PROBE_REF_US / self.us_at(at_s)
    }
}

/// The factor for an interval that lies between two readings.
pub fn factor_between(us0: f64, us1: f64) -> f64 {
    PROBE_REF_US / ((us0 + us1) / 2.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts from here on, to the
/// highest-numbered CPU it may run on. The generator and the controller
/// then take turns on one CPU: a hand-off is a context switch, never the
/// wake-up of a halted virtual CPU (whose cost is the host's, and put
/// `contended_mix`'s latencies 2x apart between two sets of runs), and the
/// probe reads the CPU the controller runs on. Returns the CPU, or `None`
/// where the kernel refuses; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread. std links the platform libc, which has both symbols.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: as above, read-only.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_interpolates_between_readings() {
        let mut log = SpeedLog::default();
        assert_eq!(log.factor_at(1.0), 1.0);
        log.push(1.0, PROBE_REF_US);
        log.push(2.0, 2.0 * PROBE_REF_US);
        assert_eq!(log.factor_at(0.0), 1.0);
        assert_eq!(log.factor_at(1.5), 1.0 / 1.5);
        assert_eq!(log.factor_at(3.0), 0.5);
        assert_eq!(log.since(1.5), [2.0 * PROBE_REF_US]);
        assert_eq!(factor_between(PROBE_REF_US, 3.0 * PROBE_REF_US), 0.5);
    }

    #[test]
    fn probe_reads_a_positive_time() {
        let mut probe = Probe::new().expect("loopback is there");
        assert!(probe.read_us().expect("loopback carries 64 bytes") > 0.0);
    }
}
