//! Trace-driven WAN simulation (the §5.2 methodology, scaled down): Poisson
//! demand arrivals on the B4 topology, probabilistic link failures, BATE
//! admission + scheduling + backup-based recovery.
//!
//! ```text
//! cargo run --release --example wan_simulation [minutes] [rate/min]
//! ```

use bate::baselines::traits::Bate;
use bate::core::TeContext;
use bate::net::{topologies, ScenarioSet};
use bate::routing::{RoutingScheme, TunnelSet};
use bate::sim::workload::{generate, WorkloadConfig};
use bate::sim::{AdmissionStrategy, RecoveryPolicy, SimConfig, Simulation};

fn main() {
    let mut args = std::env::args().skip(1);
    let minutes: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20.0);
    let rate: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3.0);

    let topo = topologies::b4();
    println!("simulating {minutes} min on {topo}, {rate} arrivals/min");
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);

    // Demands between six hot DC pairs (gravity-model style subset).
    let pairs: Vec<usize> = (0..tunnels.num_pairs())
        .filter(|&p| tunnels.tunnels(p).len() >= 3)
        .step_by(7)
        .take(6)
        .collect();
    let wl = WorkloadConfig::simulation(pairs, rate, 42);
    let horizon = minutes * 60.0;
    let workload = generate(&wl, &tunnels, horizon);
    println!("workload: {} demand arrivals", workload.len());

    let mut cfg = SimConfig::testbed(horizon, 42);
    cfg.admission = AdmissionStrategy::Bate;
    cfg.recovery = RecoveryPolicy::Backup;
    cfg.schedule_interval_secs = 60.0;

    let te = Bate;
    let report = Simulation {
        ctx,
        te: &te,
        config: cfg,
        workload: &workload,
    }
    .run();

    println!("\n--- results ---");
    println!("arrived:            {}", report.arrived);
    println!("admitted:           {}", report.admitted);
    println!(
        "rejection ratio:    {:.1}%",
        report.rejection_ratio() * 100.0
    );
    println!(
        "admission latency:  {:.2} ms median",
        report.median_admission_delay_ms()
    );
    println!(
        "satisfaction:       {:.1}% of admitted demands met their BA target",
        report.satisfaction_fraction() * 100.0
    );
    println!(
        "link utilization:   {:.1}% mean",
        report.mean_link_utilization * 100.0
    );
    println!("data loss ratio:    {:.4}%", report.data_loss_ratio * 100.0);
    let failures: usize = report.failure_counts.iter().sum();
    println!("link failures:      {failures}");
    let pool = bate::core::pricing::azure_services();
    println!(
        "profit after SLA:   {:.1}% of the no-violation baseline",
        report.profit_gain(&pool) * 100.0
    );
}
