//! Seeded load-generator schedules for controller fan-in testing.
//!
//! Where [`crate::workload`] models the *paper's* demand process (Poisson
//! arrivals, exponential lifetimes, §5.1/§5.2 pools) for the simulator,
//! this module generates mgen-style *submission schedules* for driving the
//! real control plane over sockets: a deterministic list of
//! `(offset, demand)` pairs that a driver paces out against a wall clock
//! (or replays instantly for a throughput test). Two patterns, after
//! mgen's `PERIODIC` and burst modes:
//!
//! * [`ArrivalPattern::Steady`] — arrivals at a fixed mean rate, each gap
//!   jittered by a seeded ±50% factor (mean 1) so submissions don't
//!   phase-lock with the controller's poll wakeups.
//! * [`ArrivalPattern::Bursty`] — a steady base rate with periodic burst
//!   windows at a rate multiplier: the flash-crowd fan-in that batched
//!   admission exists to absorb.
//!
//! The schedule is a pure function of the profile (seed included): no
//! wall clock, no global RNG — the same profile always yields the same
//! byte-for-byte schedule, which is what lets the benchmark's `open_light`
//! workload replay a known arrival process on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When submissions arrive, mgen-style.
#[derive(Debug, Clone)]
pub enum ArrivalPattern {
    /// Fixed mean rate (submissions per minute), jittered gaps.
    Steady { per_min: f64 },
    /// `base_per_min` background with a `multiplier`× burst window of
    /// `len_s` seconds opening every `every_s` seconds.
    Bursty {
        base_per_min: f64,
        multiplier: f64,
        every_s: f64,
        len_s: f64,
    },
}

impl ArrivalPattern {
    /// Instantaneous rate in submissions per second at offset `t`.
    fn rate_at(&self, t: f64) -> f64 {
        match self {
            ArrivalPattern::Steady { per_min } => per_min / 60.0,
            ArrivalPattern::Bursty {
                base_per_min,
                multiplier,
                every_s,
                len_s,
            } => {
                let phase = t % every_s;
                let m = if phase < *len_s { *multiplier } else { 1.0 };
                base_per_min / 60.0 * m
            }
        }
    }

    /// Mean rate in submissions per minute over one pattern period.
    pub fn mean_per_min(&self) -> f64 {
        match self {
            ArrivalPattern::Steady { per_min } => *per_min,
            ArrivalPattern::Bursty {
                base_per_min,
                multiplier,
                every_s,
                len_s,
            } => {
                let frac = (len_s / every_s).min(1.0);
                base_per_min * (frac * multiplier + (1.0 - frac))
            }
        }
    }
}

/// A load profile: arrival pattern plus the demand-field pools.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    pub pattern: ArrivalPattern,
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
            pattern: ArrivalPattern::Steady { per_min },
            pairs,
            bandwidth: (10.0, 50.0),
            betas: vec![0.9, 0.95, 0.99],
            seed,
        }
    }

    /// Bursty fan-in: `base_per_min` background with 6× bursts of 2 s
    /// opening every 15 s — the exp2 cross-traffic profile compressed
    /// from minutes to seconds for socket-scale tests.
    pub fn bursty(base_per_min: f64, pairs: Vec<(String, String)>, seed: u64) -> LoadProfile {
        LoadProfile {
            pattern: ArrivalPattern::Bursty {
                base_per_min,
                multiplier: 6.0,
                every_s: 15.0,
                len_s: 2.0,
            },
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
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = id_base;
    loop {
        let rate = profile.pattern.rate_at(t).max(1e-9);
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

    #[test]
    fn bursty_schedule_clusters_and_mean_rate_matches() {
        let profile = LoadProfile::bursty(600.0, pairs(), 11);
        let horizon = 60.0;
        let events = schedule(&profile, horizon, 1);
        let expected = profile.pattern.mean_per_min();
        let got = events.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.2,
            "bursty mean {expected}/min produced {got}/min"
        );
        // Per-second counts: burst seconds run ~6× base, so the busiest
        // second must clearly exceed the base 10/s.
        let mut per_sec = vec![0usize; horizon as usize];
        for e in &events {
            per_sec[e.offset_s as usize] += 1;
        }
        let max = per_sec.iter().max().copied().unwrap();
        assert!(max >= 20, "busiest second only {max} arrivals (base 10/s)");
    }

    #[test]
    fn schedule_is_deterministic_and_ids_are_unique() {
        let profile = LoadProfile::bursty(900.0, pairs(), 42);
        let a = schedule(&profile, 30.0, 100);
        let b = schedule(&profile, 30.0, 100);
        assert_eq!(a, b, "same profile must yield the same schedule");
        let mut ids: Vec<u64> = a.iter().map(|e| e.id).collect();
        assert_eq!(ids.first(), Some(&100));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
    }
}
