//! General-purpose simulation driver: one run, any protocol, chosen
//! parameters, metrics on stdout.
//!
//! ```text
//! cargo run --release -p agr-bench --bin simulate -- \
//!     --protocol agfw --nodes 80 --duration 300 --seed 7 \
//!     --flows 30 --senders 20 --speed 20 --counters
//! ```
//!
//! Protocols: `gpsr` (greedy), `agfw` (NL-ACK), `agfw-noack`,
//! `agfw-hardened`.
//!
//! The run is delegated to the shared runner (`run_point`), so a point
//! simulated here is byte-for-byte the same point a sweep binary would
//! run.
//!
//! Telemetry exports (both observation-only — the printed stats are
//! byte-identical with or without them):
//!
//! * `--viz-json <path>` — JSONL event stream (tx/rx/pseudonym-change
//!   with positions) replayable in `viz/replay.html`.
//! * `--metrics-json <path>` — telemetry registry snapshot, stamped with
//!   `bin` / `git_sha` / `generated_at`.

use agr_bench::runner::{run_point, ProtocolKind, SweepParams};
use agr_bench::stamp;
use agr_bench::viz::run_point_observed;
use agr_sim::{AdversaryMix, FaultPlan, SimTime};
use agr_telemetry::export::snapshot_to_json;

#[derive(Debug)]
struct Args {
    protocol: String,
    nodes: usize,
    duration_s: u64,
    seed: u64,
    flows: usize,
    senders: usize,
    interval_ms: u64,
    payload: u32,
    speed: f64,
    pause_s: u64,
    loss: f64,
    burst: Option<(f64, f64)>,
    blackhole: f64,
    counters: bool,
    viz_json: Option<String>,
    metrics_json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocol: "agfw".into(),
            nodes: 50,
            duration_s: 900,
            seed: 1,
            flows: 30,
            senders: 20,
            interval_ms: 1000,
            payload: 64,
            speed: 20.0,
            pause_s: 60,
            loss: 0.0,
            burst: None,
            blackhole: 0.0,
            counters: false,
            viz_json: None,
            metrics_json: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--protocol gpsr|agfw|agfw-noack|agfw-hardened]\n\
         \x20               [--nodes N] [--duration SECONDS] [--seed N]\n\
         \x20               [--flows N] [--senders N] [--interval MS] [--payload BYTES]\n\
         \x20               [--speed M_PER_S] [--pause SECONDS] [--counters]\n\
         \x20               [--loss P] [--burst P_G2B,P_B2G] [--blackhole FRAC]\n\
         \x20               [--viz-json PATH] [--metrics-json PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--protocol" => args.protocol = value("--protocol"),
            "--nodes" => args.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--duration" => {
                args.duration_s = value("--duration").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--flows" => args.flows = value("--flows").parse().unwrap_or_else(|_| usage()),
            "--senders" => args.senders = value("--senders").parse().unwrap_or_else(|_| usage()),
            "--interval" => {
                args.interval_ms = value("--interval").parse().unwrap_or_else(|_| usage());
            }
            "--payload" => args.payload = value("--payload").parse().unwrap_or_else(|_| usage()),
            "--speed" => args.speed = value("--speed").parse().unwrap_or_else(|_| usage()),
            "--pause" => args.pause_s = value("--pause").parse().unwrap_or_else(|_| usage()),
            "--loss" => args.loss = value("--loss").parse().unwrap_or_else(|_| usage()),
            "--blackhole" => {
                args.blackhole = value("--blackhole").parse().unwrap_or_else(|_| usage());
            }
            "--burst" => {
                let spec = value("--burst");
                let mut parts = spec.split(',').map(str::trim);
                let (Some(p), Some(q), None) = (parts.next(), parts.next(), parts.next()) else {
                    usage()
                };
                args.burst = Some((
                    p.parse().unwrap_or_else(|_| usage()),
                    q.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--counters" => args.counters = true,
            "--viz-json" => args.viz_json = Some(value("--viz-json")),
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let kind = ProtocolKind::from_name(&args.protocol).unwrap_or_else(|| {
        eprintln!("unknown protocol {}", args.protocol);
        usage()
    });
    let senders = args
        .senders
        .min(args.flows)
        .min(args.nodes.saturating_sub(1))
        .max(1);
    let fault = match args.burst {
        Some((p, q)) => FaultPlan::burst_loss(p, q),
        None if args.loss > 0.0 => FaultPlan::uniform_loss(args.loss),
        None => FaultPlan::none(),
    };
    let params = SweepParams {
        duration: SimTime::from_secs(args.duration_s),
        flows: args.flows,
        senders,
        interval: SimTime::from_millis(args.interval_ms),
        payload: args.payload,
        seeds: 1,
        max_speed: args.speed,
        pause: SimTime::from_secs(args.pause_s),
        fault,
        adversary: (args.blackhole > 0.0).then(|| AdversaryMix::blackholes(args.blackhole)),
    };
    // Attach observers only when an export was asked for: the observed
    // run is deterministic either way, but the bare path stays the
    // byte-for-byte twin of the sweep binaries.
    let observed = (args.viz_json.is_some() || args.metrics_json.is_some())
        .then(|| run_point_observed(&kind, args.nodes, args.seed, &params));
    let stats = match &observed {
        Some(run) => run.stats.clone(),
        None => run_point(&kind, args.nodes, args.seed, &params),
    };
    println!(
        "protocol={} nodes={} duration={}s seed={}",
        args.protocol, args.nodes, args.duration_s, args.seed
    );
    println!(
        "sent={} delivered={} delivery_fraction={:.4}",
        stats.data_sent,
        stats.data_delivered,
        stats.delivery_fraction()
    );
    println!(
        "latency: mean={:.2}ms median={:.2}ms p95={:.2}ms",
        stats.mean_latency().as_millis_f64(),
        stats.latency_quantile(0.5).as_millis_f64(),
        stats.latency_quantile(0.95).as_millis_f64()
    );
    println!("worst_flow_delivery={:.4}", stats.worst_flow_delivery());
    if args.counters {
        for (name, value) in stats.counters() {
            println!("counter {name} = {value}");
        }
    }
    if let Some(run) = &observed {
        if let Some(path) = &args.viz_json {
            std::fs::write(path, run.events_jsonl()).expect("write viz json");
            println!("viz_json={path} events={}", run.events.len());
        }
        if let Some(path) = &args.metrics_json {
            let meta = stamp::snapshot_meta("simulate");
            let meta: Vec<(&str, &str)> =
                meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            let json = snapshot_to_json(&run.registry.snapshot(), &meta);
            std::fs::write(path, json).expect("write metrics json");
            println!("metrics_json={path}");
        }
    }
}
