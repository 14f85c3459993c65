//! Seeded load-generator schedules for controller fan-in testing.
//!
//! Where [`crate::workload`] models the *paper's* demand process (Poisson
//! arrivals, exponential lifetimes, §5.1/§5.2 pools) for the simulator,
//! this module generates mgen-style *submission schedules* for driving the
//! real control plane over sockets: a deterministic list of
//! `(offset, demand)` pairs that a driver paces out against a wall clock
//! (or replays instantly for a throughput test). The one pattern is
//! mgen's `PERIODIC`: arrivals at a fixed mean rate, each gap jittered by
//! a seeded ±50% factor (mean 1) so submissions don't phase-lock with the
//! controller's poll wakeups.
//!
//! The schedule is a pure function of the profile (seed included): no
//! wall clock, no global RNG — the same profile always yields the same
//! byte-for-byte schedule, which is what lets the benchmark's `open_light`
//! workload replay a known arrival process on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A load profile: the arrival rate plus the demand-field pools.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Mean arrival rate, submissions per minute.
    pub per_min: f64,
    /// `(src, dst)` DC-name pairs to draw from, uniformly.
    pub pairs: Vec<(String, String)>,
    /// Uniform bandwidth range in Mbps (testbed: 10–50).
    pub bandwidth: (f64, f64),
    /// Availability targets to draw from, uniformly.
    pub betas: Vec<f64>,
    pub seed: u64,
}

impl LoadProfile {
    /// Steady fan-in over the given pairs: §5.1 testbed sizes (10–50
    /// Mbps) with the mid-tier simulation availability targets. The
    /// fan-in workload deliberately avoids the 0.999+ testbed targets:
    /// at the pool sizes a throughput test accumulates, those make the
    /// scheduling LP the bottleneck, and this workload exists to load
    /// the wire/admission path. Override `betas` to stress the solver.
    pub fn steady(per_min: f64, pairs: Vec<(String, String)>, seed: u64) -> LoadProfile {
        LoadProfile {
            per_min,
            pairs,
            bandwidth: (10.0, 50.0),
            betas: vec![0.9, 0.95, 0.99],
            seed,
        }
    }

    /// All ordered DC pairs of a topology, by node name.
    pub fn all_pairs(topo: &bate_net::Topology) -> Vec<(String, String)> {
        let names: Vec<String> = (0..topo.num_nodes())
            .map(|i| topo.node_name(bate_net::NodeId(i)).to_string())
            .collect();
        let mut pairs = Vec::new();
        for s in &names {
            for d in &names {
                if s != d {
                    pairs.push((s.clone(), d.clone()));
                }
            }
        }
        pairs
    }
}

/// One scheduled submission: submit at `offset_s` from test start.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEvent {
    pub offset_s: f64,
    pub id: u64,
    pub src: String,
    pub dst: String,
    pub bandwidth: f64,
    pub beta: f64,
}

/// Generate the full submission schedule over `[0, horizon_s)`, sorted by
/// offset, ids `id_base..`. Deterministic in the profile.
pub fn schedule(profile: &LoadProfile, horizon_s: f64, id_base: u64) -> Vec<LoadEvent> {
    assert!(!profile.pairs.is_empty(), "load profile needs at least one pair");
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let rate = (profile.per_min / 60.0).max(1e-9);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = id_base;
    loop {
        // Jittered gap with mean 1/rate: ±50% keeps arrivals from
        // phase-locking while leaving the mean rate exact.
        t += rng.gen_range(0.5..1.5) / rate;
        if t >= horizon_s {
            break;
        }
        let (src, dst) = profile.pairs[rng.gen_range(0..profile.pairs.len())].clone();
        let (lo, hi) = profile.bandwidth;
        let bandwidth = rng.gen_range(lo..=hi);
        let beta = profile.betas[rng.gen_range(0..profile.betas.len())];
        out.push(LoadEvent {
            offset_s: t,
            id,
            src,
            dst,
            bandwidth,
            beta,
        });
        id += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs() -> Vec<(String, String)> {
        LoadProfile::all_pairs(&bate_net::topologies::testbed6())
    }

    #[test]
    fn steady_schedule_hits_the_target_rate() {
        let profile = LoadProfile::steady(1200.0, pairs(), 7);
        let events = schedule(&profile, 60.0, 1);
        let per_min = events.len() as f64;
        assert!(
            (per_min - 1200.0).abs() < 120.0,
            "steady 1200/min produced {per_min}/min"
        );
        for w in events.windows(2) {
            assert!(w[0].offset_s <= w[1].offset_s, "schedule must be sorted");
        }
        assert!(events.iter().all(|e| e.offset_s < 60.0));
        assert!(events.iter().all(|e| e.src != e.dst));
        assert!(events
            .iter()
            .all(|e| (10.0..=50.0).contains(&e.bandwidth)));
    }

    /// The arrival process `open_light` replays, pinned bit for bit: an
    /// FNV-1a hash over every field of every event of a 300/s testbed6
    /// schedule. A changed value means the benchmark's arrivals moved.
    #[test]
    fn steady_schedule_is_pinned() {
        let events = schedule(&LoadProfile::steady(18_000.0, pairs(), 7), 10.0, 1);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for e in &events {
            eat(&e.offset_s.to_bits().to_le_bytes());
            eat(&e.id.to_le_bytes());
            eat(e.src.as_bytes());
            eat(e.dst.as_bytes());
            eat(&e.bandwidth.to_bits().to_le_bytes());
            eat(&e.beta.to_bits().to_le_bytes());
        }
        assert_eq!((events.len(), h), (2991, 6_803_740_210_886_457_822));
    }
}
