//! Controller fan-in under a seeded load-generator schedule: a steady +
//! bursty submission mix (bate_sim::loadgen, mgen-style) driven through
//! real sockets against the event-driven controller plane, with batched
//! admission amortizing warm solves across each poll wakeup's arrivals.
//!
//! Custom harness (no criterion): the driver needs machine-readable
//! output, so `--emit-json` writes `BENCH_load.json` at the repository
//! root with sustained throughput and the controller-side admission
//! latency quantiles read from the `bate_admission_*` histograms.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p bate-bench --bench loadgen -- --emit-json
//! ```
//!
//! Scaled-down deterministic runs (scripts/loadcheck.sh) override the
//! schedule: `-- --per-min 30000 --secs 2 --floor 20000`.

use bate_net::topologies;
use bate_obs::Registry;
use bate_routing::RoutingScheme;
use bate_sim::loadgen::{schedule, LoadEvent, LoadProfile};
use bate_system::client::DemandRequest;
use bate_system::{Controller, ControllerConfig, PipelinedClient};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Parse `--key value` numeric overrides from the bench argument list.
fn arg(args: &[String], key: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {key} value {v:?}")))
        .unwrap_or(default)
}

/// One pipelined connection plus its reply bookkeeping: how many verdicts
/// are outstanding on the socket and which admitted ids are live (FIFO)
/// so old demands can be withdrawn to bound the controller's pool.
struct Lane {
    client: PipelinedClient,
    queued: usize,
    outstanding: usize,
    live: VecDeque<u64>,
    admitted: u64,
    rejected: u64,
}

impl Lane {
    /// Receive up to `n` verdicts, withdrawing the oldest live demand
    /// whenever more than `cap` of this lane's admissions are live.
    fn drain(&mut self, n: usize, cap: usize) {
        for _ in 0..n.min(self.outstanding) {
            let (id, admitted) = self.client.recv_verdict().expect("verdict");
            self.outstanding -= 1;
            if admitted {
                self.admitted += 1;
                self.live.push_back(id);
            } else {
                self.rejected += 1;
            }
            // Withdraw the oldest live demand once this lane exceeds its
            // cap: mgen-style short-lived flows, keeping the controller's
            // pool (and per-demand conjecture cost) bounded. The
            // withdrawal piggybacks on the next flush; the reply reader
            // skips its WithdrawAck.
            while self.live.len() > cap {
                let old = self.live.pop_front().unwrap();
                self.client.queue_withdraw(old).expect("queue withdraw");
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let emit_json = args.iter().any(|a| a == "--emit-json");
    let per_min = arg(&args, "--per-min", 120_000.0);
    let secs = arg(&args, "--secs", 5.0);
    let seed = arg(&args, "--seed", 7.0) as u64;
    let floor = arg(&args, "--floor", 100_000.0);
    // Live demands per lane before the oldest is withdrawn: keeps the
    // admission pool (and so per-demand conjecture cost) bounded, the way
    // short-lived mgen flows would.
    let cap = arg(&args, "--live-cap", 12.0) as usize;
    let lanes_n = arg(&args, "--lanes", 4.0) as usize;
    // Max submits a lane puts in flight per wave. Without a window, a
    // burst that momentarily outpaces the verdict RTT queues every due
    // event into one giant batch; the admission fold then grows the pool
    // mid-batch until the network saturates, and each rejection pays the
    // conjecture pass over that bloated pool. Bounding the wave keeps
    // the bench measuring sustained throughput instead of collapse.
    let window = arg(&args, "--window", 32.0) as usize;
    // Submits released to a lane together: a group waits until its last
    // member is due and goes out in one write, so the controller reads it
    // in one wakeup. At the full rate arrivals outpace the verdict RTT and
    // batches form on their own, so the schedule is left as it is; below
    // it (the scaled gate offers one arrival per ~2 ms, slower than a
    // verdict comes back) submits go out in pairs, so that the batched
    // path is exercised by construction instead of by four lanes' luck.
    let wave_min: usize = if per_min < 100_000.0 { 2 } else { 1 };

    let topo = topologies::testbed6();
    let pairs = LoadProfile::all_pairs(&topo);

    // The steady + bursty mix: 60% of the target rate as a constant
    // stream, 40% as a bursty stream (6x flash windows), merged into one
    // schedule. Disjoint id ranges keep the merge collision-free.
    let steady = LoadProfile::steady(per_min * 0.6, pairs.clone(), seed);
    let bursty_mean = per_min * 0.4;
    let bursty_base = bursty_mean
        / LoadProfile::bursty(1.0, pairs.clone(), seed)
            .pattern
            .mean_per_min();
    let bursty = LoadProfile::bursty(bursty_base, pairs, seed ^ 0xB0B5);
    let mut events = schedule(&steady, secs, 1);
    events.extend(schedule(&bursty, secs, 10_000_000));
    events.sort_by(|a, b| a.offset_s.partial_cmp(&b.offset_s).unwrap());
    let total = events.len();
    assert!(total > 0, "empty schedule: raise --per-min or --secs");

    // LOADGEN_DEBUG=1 turns on the controller's structured trace stream
    // plus periodic pacing progress lines — the first thing to reach for
    // when a run stalls or misses its floor.
    let debug = std::env::var("LOADGEN_DEBUG").is_ok();
    if debug {
        bate_obs::trace::install(
            bate_obs::StderrSubscriber::new(bate_obs::Level::Debug),
            bate_obs::SystemClock::shared(),
        );
    }
    let controller = Controller::start(ControllerConfig {
        topo: topologies::testbed6(),
        routing: RoutingScheme::default_ksp4(),
        max_failures: 2,
        schedule_interval: None,
        idle_timeout: Some(Duration::from_secs(30)),
    })
    .expect("controller start");

    let mut lanes: Vec<Lane> = (0..lanes_n.max(1))
        .map(|_| Lane {
            client: PipelinedClient::connect(controller.addr()).expect("connect"),
            queued: 0,
            outstanding: 0,
            live: VecDeque::new(),
            admitted: 0,
            rejected: 0,
        })
        .collect();

    // Pace the schedule out against the wall clock: every tick, queue all
    // due submissions round-robin across lanes, flush each dirty lane in
    // one write (so a burst lands as one controller wakeup per lane), and
    // drain enough verdicts to keep socket buffers bounded.
    let start = Instant::now();
    let mut next = 0usize;
    let mut last_dbg = Instant::now();
    while next < total {
        if debug && last_dbg.elapsed() > Duration::from_millis(300) {
            last_dbg = Instant::now();
            eprintln!(
                "dbg t={:.2}s next={next}/{total} outstanding={:?}",
                start.elapsed().as_secs_f64(),
                lanes.iter().map(|l| l.outstanding).collect::<Vec<_>>()
            );
        }
        let elapsed = start.elapsed().as_secs_f64();
        let mut any = false;
        while next < total && events[(next + wave_min).min(total) - 1].offset_s <= elapsed {
            let lane_idx = (next / wave_min) % lanes.len();
            let lane = &mut lanes[lane_idx];
            if lane.queued >= window {
                // Wave full: drain verdicts before taking more of the
                // backlog (events stay due; the wall clock keeps counting
                // against the achieved rate).
                break;
            }
            let group: &[LoadEvent] = &events[next..(next + wave_min).min(total)];
            for e in group {
                lane.client
                    .queue_submit(&DemandRequest::new(
                        e.id, &e.src, &e.dst, e.bandwidth, e.beta,
                    ))
                    .expect("queue submit");
            }
            lane.queued += group.len();
            next += group.len();
            any = true;
        }
        for lane in &mut lanes {
            if lane.queued > 0 {
                lane.client.flush().expect("flush");
                lane.outstanding += lane.queued;
                lane.queued = 0;
            }
            // Collect the whole wave's verdicts before the next wave, and
            // push the withdrawals they trigger out immediately. Leaving
            // verdicts outstanding leaves their withdraws unissued, and
            // an open loop against a pool-superlinear warm solve
            // diverges: pool grows -> solve slows -> verdict RTT grows ->
            // pool grows. Closing the loop per wave bounds the pool at
            // ~lanes x (cap + one wave).
            lane.drain(usize::MAX, cap);
            lane.client.flush().expect("flush withdraws");
        }
        if !any && next < total {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    for lane in &mut lanes {
        if lane.queued > 0 {
            lane.client.flush().expect("flush");
            lane.outstanding += lane.queued;
            lane.queued = 0;
        }
        lane.drain(usize::MAX, cap);
    }
    let wall = start.elapsed().as_secs_f64();

    let admitted: u64 = lanes.iter().map(|l| l.admitted).sum();
    let rejected: u64 = lanes.iter().map(|l| l.rejected).sum();
    assert_eq!(admitted + rejected, total as u64);
    let achieved_per_min = total as f64 / wall * 60.0;

    // Controller-side admission latency (frame decode -> verdict queued),
    // one observation per demand, and the batch-size distribution proving
    // the amortization actually engaged.
    let r = Registry::global();
    let lat = r.histogram("bate_admission_latency_us");
    let batch = r.histogram("bate_admission_batch_size");
    let p50_us = lat.quantile(0.50);
    let p99_us = lat.quantile(0.99);
    let batches = r.counter("bate_ctrl_batches_total").get();
    let solves = r.counter("bate_ctrl_batch_warm_solves_total").get();
    let batch_mean = batch.sum() / batch.count().max(1) as f64;

    println!(
        "loadgen  {total} submissions in {wall:.3} s  ({achieved_per_min:.0}/min, target {per_min:.0}/min)  \
         admitted {admitted} rejected {rejected}"
    );
    println!(
        "loadgen  admission latency p50 {p50_us:.0} us  p99 {p99_us:.0} us  \
         batches {batches} (mean size {batch_mean:.1}, max {:.0})  warm solves {solves}",
        batch.max(),
    );

    assert_eq!(
        lat.count(),
        total as u64,
        "every submission must land one admission-latency observation"
    );
    // Multi-submit batches form on their own when arrivals outpace the
    // verdict RTT (the full-scale run) and by construction below it
    // (`wave_min`), so every run with two submissions has one.
    if total >= 2 {
        assert!(
            batch.max() >= 2.0,
            "batched admission never engaged (max batch size {})",
            batch.max()
        );
    }
    assert!(
        achieved_per_min >= floor,
        "sustained {achieved_per_min:.0} submissions/min is below the {floor:.0}/min floor"
    );

    if emit_json {
        let json = format!(
            "{{\n  \"loadgen\": {{\"submissions\": {total}, \"wall_secs\": {wall:.6}, \
             \"per_min\": {achieved_per_min:.1}, \"target_per_min\": {per_min:.1}, \
             \"admitted\": {admitted}, \"rejected\": {rejected}, \
             \"p50_us\": {p50_us:.3}, \"p99_us\": {p99_us:.3}, \
             \"batches\": {batches}, \"batch_mean\": {batch_mean:.3}, \"batch_max\": {:.1}, \
             \"warm_solves\": {solves}, \"lanes\": {lanes_n}, \"live_cap\": {cap}, \
             \"seed\": {seed}}}\n}}\n",
            batch.max(),
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_load.json");
        std::fs::write(path, json).expect("write BENCH_load.json");
        println!("wrote {path}");
    }
}
