//! Seeded input generation. Everything the controller receives is a
//! frame built here; the same `(workload, seed)` gives the same frames.

use crate::spec::{Workload, BETAS};
use bate_net::Topology;
use bate_sim::loadgen::{self, LoadEvent, LoadProfile};
use bate_system::client::DemandRequest;
use bate_system::proto::Message;
use bate_system::wire::encode_frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Open-loop submission rate of `open_light`, per second.
pub const OPEN_RATE_PER_S: f64 = 300.0;

/// Id ranges, so that no two sources of demands in one run collide.
const PREFILL_ID_BASE: u64 = 1;
const STREAM_ID_BASE: u64 = 1_000_000;
const OPEN_ID_BASE: u64 = 1_000_000_000;

/// An endless seeded sequence of single-pair demands over all ordered DC
/// pairs of a topology.
pub struct DemandStream {
    rng: StdRng,
    pairs: Vec<(String, String)>,
    bandwidth: (f64, f64),
    next_id: u64,
}

impl DemandStream {
    fn new(topo: &Topology, bandwidth: (f64, f64), seed: u64, id_base: u64) -> DemandStream {
        DemandStream {
            rng: StdRng::seed_from_u64(seed),
            pairs: LoadProfile::all_pairs(topo),
            bandwidth,
            next_id: id_base,
        }
    }

    pub fn next_request(&mut self) -> DemandRequest {
        let (src, dst) = &self.pairs[self.rng.gen_range(0..self.pairs.len())];
        let bandwidth = self.rng.gen_range(self.bandwidth.0..=self.bandwidth.1);
        let beta = BETAS[self.rng.gen_range(0..BETAS.len())];
        let id = self.next_id;
        self.next_id += 1;
        DemandRequest::new(id, src, dst, bandwidth, beta)
    }

    pub fn take(&mut self, n: usize) -> Vec<DemandRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// All seeded inputs of one run.
pub struct Inputs {
    /// Demands admitted during set-up.
    pub prefill: Vec<DemandRequest>,
    /// The workload's submissions, in order.
    pub stream: DemandStream,
    /// `open_light` only: the timed submissions over the whole run.
    pub open_schedule: Vec<LoadEvent>,
    links: StdRng,
    groups: usize,
}

impl Inputs {
    /// `horizon_s` bounds the open-loop schedule; closed-loop workloads
    /// draw from `stream` for as long as they run.
    pub fn new(workload: Workload, topo: &Topology, seed: u64, horizon_s: f64) -> Inputs {
        let spec = workload.spec();
        // Decorrelate the streams of one seed (SplitMix64 seeds are
        // independent for distinct values).
        let sub = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
        let prefill =
            DemandStream::new(topo, spec.bandwidth, sub(1), PREFILL_ID_BASE).take(spec.prefill);
        let open_schedule = if workload == Workload::OpenLight {
            let mut profile =
                LoadProfile::steady(OPEN_RATE_PER_S * 60.0, LoadProfile::all_pairs(topo), sub(2));
            profile.bandwidth = spec.bandwidth;
            profile.betas = BETAS.to_vec();
            loadgen::schedule(&profile, horizon_s, OPEN_ID_BASE)
        } else {
            Vec::new()
        };
        Inputs {
            prefill,
            stream: DemandStream::new(topo, spec.bandwidth, sub(3), STREAM_ID_BASE),
            open_schedule,
            links: StdRng::seed_from_u64(sub(4)),
            groups: topo.num_groups(),
        }
    }

    /// The next fate group to fail.
    pub fn next_group(&mut self) -> u32 {
        self.links.gen_range(0..self.groups) as u32
    }
}

pub fn submit_message(req: &DemandRequest) -> Message {
    Message::SubmitDemand {
        id: req.id,
        src: req.src.clone(),
        dst: req.dst.clone(),
        bandwidth: req.bandwidth,
        beta: req.beta,
        price: req.price,
        refund_ratio: req.refund_ratio,
    }
}

/// FNV-1a hash over the head of a run's generated frame schedule: the
/// prefill, the first 512 stream submissions, the open-loop schedule with
/// its due times, and the first 64 failed groups.
pub fn schedule_hash(workload: Workload, seed: u64) -> u64 {
    let topo = (workload.spec().topology)();
    let mut inputs = Inputs::new(workload, &topo, seed, 5.0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let frame = |req: &DemandRequest| encode_frame(&submit_message(req)).expect("small frame");
    for req in &inputs.prefill {
        eat(&frame(req));
    }
    for req in inputs.stream.take(512) {
        eat(&frame(&req));
    }
    for ev in &inputs.open_schedule {
        eat(&ev.offset_s.to_bits().to_be_bytes());
        eat(&frame(&DemandRequest::new(
            ev.id,
            &ev.src,
            &ev.dst,
            ev.bandwidth,
            ev.beta,
        )));
    }
    for _ in 0..64 {
        let group = inputs.next_group();
        eat(&encode_frame(&Message::LinkReport { group, up: false }).expect("small frame"));
    }
    h
}
