//! `batectl` — command-line front end for the BATE controller.
//!
//! ```text
//! batectl serve <topology> [--port P] [--interval SECS] [--prune Y]
//! batectl submit <addr> --id N --src DC1 --dst DC3 --mbps 400 --beta 0.999
//! batectl withdraw <addr> --id N
//! batectl ping <addr>
//! batectl stats <addr> [--json [--prefix NAME_PREFIX]]
//! batectl trace <addr> <trace-id>
//! batectl slo <addr>
//! ```
//!
//! `<topology>` is a builtin name (`toy4`, `testbed6`, `b4`, `ibm`, `att`,
//! `fiti`) or a path to a topology file (`bate_net::fileio` format).
//!
//! Diagnostics go through the tracing facade with a stderr subscriber
//! rather than ad-hoc `eprintln!`, so every error carries a structured
//! event (level + name + fields) while printing the same `error: <msg>`
//! text and keeping the same exit codes as before.

use bate_net::{fileio, topologies, Topology};
use bate_obs::{Level, StderrSubscriber, SystemClock};
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::{Client, Controller, ControllerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  batectl serve <topology> [--interval SECS] [--prune Y]\n  \
         batectl submit <addr> --id N --src A --dst B --mbps F --beta F [--price F] [--refund F]\n  \
         batectl withdraw <addr> --id N\n  batectl ping <addr>\n  \
         batectl stats <addr> [--json [--prefix P]]\n  \
         batectl trace <addr> <trace-id>\n  batectl slo <addr>"
    );
    std::process::exit(2)
}

fn load_topology(spec: &str) -> Topology {
    match spec {
        "toy4" => topologies::toy4(),
        "testbed6" => topologies::testbed6(),
        "b4" => topologies::b4(),
        "ibm" => topologies::ibm(),
        "att" => topologies::att(),
        "fiti" => topologies::fiti(),
        path => fileio::load_topology(std::path::Path::new(path)).unwrap_or_else(|e| {
            bate_obs::error!(
                "batectl.topology_error",
                msg = format!("cannot load topology {path}: {e}"),
            );
            std::process::exit(1)
        }),
    }
}

/// Pull `--key value` flags out of an argument list.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let Some(v) = it.next() else { usage() };
                out.push((key.to_string(), v.clone()));
            } else {
                usage();
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> T {
        match self.num(key) {
            Some(v) => v,
            None => {
                bate_obs::error!(
                    "batectl.flag_error",
                    msg = format!("missing or invalid --{key}"),
                );
                usage()
            }
        }
    }
}

fn main() {
    // Structured diagnostics to stderr: `error: <msg> (...)` lines, same
    // text the pre-telemetry eprintln! calls produced.
    bate_obs::trace::install(StderrSubscriber::new(Level::Warn), SystemClock::shared());

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    match cmd.as_str() {
        "serve" => {
            let Some(spec) = args.get(1) else { usage() };
            let flags = Flags::parse(&args[2..]);
            let interval = flags.num::<f64>("interval").unwrap_or(60.0);
            let prune = flags.num::<usize>("prune").unwrap_or(2);
            let topo = load_topology(spec);
            // The flight ring backs `batectl trace <addr> <id>` and the
            // standing dump trigger (cert fallback);
            // without it TraceQuery always answers an empty ring.
            bate_obs::flight::enable(65_536);
            println!("starting controller for {topo}");
            let controller = Controller::start(ControllerConfig {
                topo,
                routing: RoutingScheme::default_ksp4(),
                max_failures: prune,
                schedule_interval: Some(Duration::from_secs_f64(interval)),
                idle_timeout: Some(Duration::from_secs(30)),
            })
            .expect("controller start");
            println!("listening on {}", controller.addr());
            println!("(press ctrl-c to stop)");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        "submit" => {
            let Some(addr) = args.get(1) else { usage() };
            let flags = Flags::parse(&args[2..]);
            let req = DemandRequest {
                id: flags.required("id"),
                src: flags.get("src").unwrap_or_else(|| usage()).to_string(),
                dst: flags.get("dst").unwrap_or_else(|| usage()).to_string(),
                bandwidth: flags.required("mbps"),
                beta: flags.required("beta"),
                price: flags
                    .num("price")
                    .unwrap_or_else(|| flags.required::<f64>("mbps")),
                refund_ratio: flags.num("refund").unwrap_or(0.0),
            };
            let mut client = connect(addr);
            match client.submit(&req) {
                Ok(true) => println!("demand {} ADMITTED", req.id),
                Ok(false) => {
                    println!("demand {} rejected", req.id);
                    std::process::exit(1)
                }
                Err(e) => fail(&e.to_string()),
            }
        }
        "withdraw" => {
            let Some(addr) = args.get(1) else { usage() };
            let flags = Flags::parse(&args[2..]);
            let id: u64 = flags.required("id");
            let mut client = connect(addr);
            match client.withdraw(id) {
                Ok(()) => println!("demand {id} withdrawn"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "ping" => {
            let Some(addr) = args.get(1) else { usage() };
            let mut client = connect(addr);
            match client.ping() {
                Ok(rtt) => println!("pong in {rtt:?}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "stats" => {
            let Some(addr) = args.get(1) else { usage() };
            // `--json` is a bare flag (no value), so peel it off before the
            // `--key value` parser sees the rest.
            let rest: Vec<String> = args[2..].to_vec();
            let json = rest.first().map(String::as_str) == Some("--json");
            let mut client = connect(addr);
            let result = if json {
                let flags = Flags::parse(&rest[1..]);
                let prefix = flags.get("prefix").unwrap_or("").to_string();
                client.stats_json(&prefix)
            } else {
                if !rest.is_empty() {
                    usage();
                }
                client.stats()
            };
            match result {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "trace" => {
            let Some(addr) = args.get(1) else { usage() };
            let Some(id) = args.get(2) else { usage() };
            let Some(trace_id) = bate_obs::context::parse_id(id) else {
                fail(&format!("bad trace id {id} (hex or decimal)"))
            };
            let mut client = connect(addr);
            match client.trace_tree(trace_id) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        "slo" => {
            let Some(addr) = args.get(1) else { usage() };
            let mut client = connect(addr);
            match client.slo_report() {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e.to_string()),
            }
        }
        _ => usage(),
    }
}

fn connect(addr: &str) -> Client {
    let sock = addr.parse().unwrap_or_else(|_| {
        bate_obs::error!(
            "batectl.address_error",
            msg = format!("bad address {addr}"),
        );
        std::process::exit(2)
    });
    Client::connect(sock).unwrap_or_else(|e| fail(&e.to_string()))
}

/// Structured fatal error: emits a `batectl.error` event whose stderr
/// rendering is exactly the pre-telemetry `error: <msg>` line, then exits
/// with the same code as before.
fn fail(msg: &str) -> ! {
    bate_obs::error!("batectl.error", msg = msg);
    std::process::exit(1)
}
