//! Shared experiment driver: builds paper-configured worlds, runs them
//! over several seeds, and aggregates the two §5 metrics.
//!
//! Sweeps fan their (protocol × node count × seed) points over a scoped
//! thread pool ([`run_matrix`]); every point is an independent
//! deterministic simulation, and results are aggregated in task order,
//! so the output is bit-identical whatever the worker count (`AGR_JOBS`,
//! default: available parallelism).

use agr_core::agfw::{Agfw, AgfwConfig};
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_sim::{AdversaryMix, FaultPlan, SimConfig, SimTime, Stats, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::str::FromStr;

/// Which protocol a sweep point runs.
// Boxing the AgfwConfig would cost `Copy`, which sweep matrices rely on;
// the enum is built a handful of times per run, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolKind {
    /// GPSR with greedy forwarding only (the paper's baseline).
    GpsrGreedy,
    /// AGFW with the given configuration.
    Agfw(AgfwConfig),
}

impl ProtocolKind {
    /// Short label used in tables and CSV headers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::GpsrGreedy => "GPSR-Greedy",
            ProtocolKind::Agfw(c) if c.defense => "AGFW-Hardened",
            ProtocolKind::Agfw(c) if !c.nl_ack => "AGFW-noACK",
            ProtocolKind::Agfw(_) => "AGFW-ACK",
        }
    }

    /// Parses the `simulate`-style protocol names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "gpsr" => ProtocolKind::GpsrGreedy,
            "agfw" => ProtocolKind::Agfw(AgfwConfig::default()),
            "agfw-noack" => ProtocolKind::Agfw(AgfwConfig::without_ack()),
            "agfw-hardened" => ProtocolKind::Agfw(AgfwConfig::hardened()),
            _ => return None,
        })
    }
}

/// Parameters of one sweep (the paper's §5.1 scenario by default).
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Simulated duration (paper: 900 s; override with `AGR_DURATION_S`).
    pub duration: SimTime,
    /// Number of CBR flows (paper: 30).
    pub flows: usize,
    /// Number of sending nodes (paper: 20).
    pub senders: usize,
    /// CBR packet interval.
    pub interval: SimTime,
    /// CBR payload bytes.
    pub payload: u32,
    /// Seeds to average over.
    pub seeds: u64,
    /// Random-waypoint maximum speed in m/s (paper: 20).
    pub max_speed: f64,
    /// Random-waypoint pause at each waypoint (paper: 60 s).
    pub pause: SimTime,
    /// Fault schedule applied to every point of the sweep (default:
    /// none). The plan is part of the point's configuration, so a sweep
    /// with faults is just as seed-deterministic as one without.
    pub fault: FaultPlan,
    /// Adversary population applied to every point of the sweep
    /// (default: none). The mix is resolved into a concrete
    /// [`agr_sim::AdversaryPlan`] per `(nodes, seed)` point, so
    /// adversarial sweeps stay bit-identical at any `AGR_JOBS`.
    pub adversary: Option<AdversaryMix>,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            duration: SimTime::from_secs(900),
            flows: 30,
            senders: 20,
            interval: SimTime::from_secs(1),
            payload: 64,
            seeds: 5,
            max_speed: 20.0,
            pause: SimTime::from_secs(60),
            fault: FaultPlan::none(),
            adversary: None,
        }
    }
}

impl SweepParams {
    /// Applies the `AGR_SEEDS` / `AGR_DURATION_S` environment overrides.
    #[must_use]
    pub fn from_env() -> Self {
        SweepParams::from_env_with_duration(SweepParams::default().duration)
    }

    /// [`SweepParams::from_env`] for a binary whose duration, when
    /// `AGR_DURATION_S` is unset, is `default_duration` rather than the
    /// paper's 900 s.
    #[must_use]
    pub fn from_env_with_duration(default_duration: SimTime) -> Self {
        let mut p = SweepParams::default();
        if let Some(s) = env_u64("AGR_SEEDS") {
            p.seeds = s.max(1);
        }
        p.duration =
            env_u64("AGR_DURATION_S").map_or(default_duration, |d| SimTime::from_secs(d.max(60)));
        p
    }
}

/// Reports a set-but-unusable environment variable and exits 2: a typo
/// in a sweep knob must not silently run a different experiment.
fn exit_malformed(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Reads a `u64` environment variable. Unset means `None`; a value that
/// is set but not a `u64` exits 2 naming the variable.
#[must_use]
pub fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    Some(raw.trim().parse().unwrap_or_else(|_| {
        exit_malformed(&format!("{name}: '{}' is not a whole number", raw.trim()))
    }))
}

/// Parses a comma-separated list, rejecting the whole value on the first
/// entry that does not parse or fails `valid`.
fn parse_list<T: FromStr>(
    name: &str,
    raw: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|entry| {
            let entry = entry.trim();
            entry.parse().ok().filter(|x| valid(x)).ok_or_else(|| {
                format!("{name}: entry '{entry}' of '{raw}' is malformed or out of range")
            })
        })
        .collect()
}

/// Reads a comma-separated list from the environment variable `name`.
/// Unset means `default`; a set value must parse entry for entry and
/// pass `valid`, else the process exits 2 naming the variable and the
/// offending entry.
#[must_use]
pub fn env_list<T: FromStr + Clone>(
    name: &str,
    default: &[T],
    valid: impl Fn(&T) -> bool,
) -> Vec<T> {
    match std::env::var(name) {
        Ok(raw) => parse_list(name, &raw, valid).unwrap_or_else(|e| exit_malformed(&e)),
        Err(_) => default.to_vec(),
    }
}

/// Node counts for the density sweep: the paper's x-axis runs from the
/// 50-node baseline to a high-density regime past the 112-node point it
/// singles out. Override with `AGR_NODES=50,75,...`.
#[must_use]
pub fn node_counts() -> Vec<usize> {
    env_list("AGR_NODES", &[50, 75, 100, 112, 125, 150], |&n| n > 0)
}

/// Aggregated result of one sweep point (one protocol × one node count).
///
/// Derives `PartialEq` so the determinism tests can assert that serial
/// and multi-worker sweeps produce bit-identical aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Protocol label.
    pub protocol: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Mean delivery fraction across seeds.
    pub delivery_fraction: f64,
    /// Mean end-to-end latency (ms) across seeds.
    pub latency_ms: f64,
    /// Per-seed delivery fractions (for dispersion reporting).
    pub per_seed_delivery: Vec<f64>,
    /// Per-seed mean latencies in ms.
    pub per_seed_latency_ms: Vec<f64>,
    /// Summed named counters across seeds.
    pub stats: Vec<Stats>,
}

impl PointResult {
    /// Sample standard deviation of the per-seed delivery fractions.
    #[must_use]
    pub fn delivery_stddev(&self) -> f64 {
        stddev(&self.per_seed_delivery)
    }

    /// Sample standard deviation of the per-seed latencies (ms).
    #[must_use]
    pub fn latency_stddev(&self) -> f64 {
        stddev(&self.per_seed_latency_ms)
    }

    /// Sum of the named counter across the per-seed stats.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.stats.iter().map(|s| s.counter(name)).sum()
    }

    /// Mean AGFW retransmissions per data packet across the seeds.
    #[must_use]
    pub fn retx_per_pkt(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.counter("agfw.retransmit") as f64 / s.data_sent.max(1) as f64)
            .sum::<f64>()
            / self.stats.len() as f64
    }
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Builds the paper's §5.1 simulation config for `nodes` nodes and `seed`.
#[must_use]
pub fn paper_config(nodes: usize, seed: u64, params: &SweepParams) -> SimConfig {
    let mut traffic_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut config = SimConfig::default();
    config.num_nodes = nodes;
    config.duration = params.duration;
    config.seed = seed;
    config.mobility.max_speed = params.max_speed.max(0.2);
    config.mobility.min_speed = (params.max_speed / 20.0).clamp(0.1, 1.0);
    config.mobility.pause = params.pause;
    config.fault = params.fault.clone();
    if let Some(mix) = &params.adversary {
        config.adversary = mix.resolve(nodes, seed);
    }
    config.with_cbr_traffic(
        params.flows,
        params.senders,
        params.interval,
        params.payload,
        &mut traffic_rng,
    )
}

/// Runs one protocol at one density for one seed.
#[must_use]
pub fn run_point(kind: &ProtocolKind, nodes: usize, seed: u64, params: &SweepParams) -> Stats {
    let config = paper_config(nodes, seed, params);
    match kind {
        ProtocolKind::GpsrGreedy => {
            let mut world = World::new(config, |_, _, rng| {
                Gpsr::new(GpsrConfig::greedy_only(), rng)
            });
            world.run()
        }
        ProtocolKind::Agfw(agfw_config) => {
            let agfw_config = *agfw_config;
            let mut world = World::new(config, move |id, cfg, rng| {
                Agfw::new(id, agfw_config, cfg, rng)
            });
            world.run()
        }
    }
}

// The scoped worker pool lives in `agr-sim::par` so non-bench consumers
// (the ALS service engine) can share it; re-exported here so every sweep
// bin and test keeps its `runner::par_map` spelling.
pub use agr_sim::par::par_map;

/// Resolves an `AGR_JOBS` value: unset means the machine's available
/// parallelism; a set value must be a whole number ≥ 1.
fn parse_jobs(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    };
    match raw.trim().parse::<usize>() {
        Ok(jobs) if jobs >= 1 => Ok(jobs),
        _ => Err(format!(
            "AGR_JOBS: '{}' is not a whole number >= 1",
            raw.trim()
        )),
    }
}

/// Worker count for parallel sweeps: `AGR_JOBS` if set, else the
/// machine's available parallelism. A set value that is not a whole
/// number ≥ 1 exits 2 naming the variable.
#[must_use]
pub fn jobs() -> usize {
    parse_jobs(std::env::var("AGR_JOBS").ok().as_deref()).unwrap_or_else(|e| exit_malformed(&e))
}

/// Runs every (protocol × node count × seed) point of the matrix on a
/// worker pool of [`jobs`] threads and aggregates per (protocol, nodes).
///
/// The outer result vector parallels `kinds`; each inner vector parallels
/// `nodes_list`. Aggregation happens in flattened task order, so tables
/// and CSVs built from the result are bit-identical to a serial run.
#[must_use]
pub fn run_matrix(
    kinds: &[ProtocolKind],
    nodes_list: &[usize],
    params: &SweepParams,
) -> Vec<Vec<PointResult>> {
    run_matrix_jobs(kinds, nodes_list, params, jobs())
}

/// [`run_matrix`] with an explicit worker count (used by the determinism
/// regression tests; prefer [`run_matrix`], which honours `AGR_JOBS`).
#[must_use]
pub fn run_matrix_jobs(
    kinds: &[ProtocolKind],
    nodes_list: &[usize],
    params: &SweepParams,
    jobs: usize,
) -> Vec<Vec<PointResult>> {
    let tasks: Vec<(ProtocolKind, usize, u64)> = kinds
        .iter()
        .flat_map(|&kind| {
            nodes_list
                .iter()
                .flat_map(move |&nodes| (1..=params.seeds).map(move |seed| (kind, nodes, seed)))
        })
        .collect();
    let mut runs = par_map(&tasks, jobs, |&(kind, nodes, seed)| {
        run_point(&kind, nodes, seed, params)
    })
    .into_iter();
    kinds
        .iter()
        .map(|kind| {
            nodes_list
                .iter()
                .map(|&nodes| {
                    let mut per_seed_delivery = Vec::new();
                    let mut per_seed_latency = Vec::new();
                    let mut stats = Vec::new();
                    for _ in 1..=params.seeds {
                        let s = runs.next().expect("one run per task");
                        per_seed_delivery.push(s.delivery_fraction());
                        per_seed_latency.push(s.mean_latency().as_millis_f64());
                        stats.push(s);
                    }
                    let delivery_fraction =
                        per_seed_delivery.iter().sum::<f64>() / per_seed_delivery.len() as f64;
                    let latency_ms =
                        per_seed_latency.iter().sum::<f64>() / per_seed_latency.len() as f64;
                    PointResult {
                        protocol: kind.label(),
                        nodes,
                        delivery_fraction,
                        latency_ms,
                        per_seed_delivery,
                        per_seed_latency_ms: per_seed_latency,
                        stats,
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::GpsrGreedy.label(), "GPSR-Greedy");
        assert_eq!(
            ProtocolKind::Agfw(AgfwConfig::default()).label(),
            "AGFW-ACK"
        );
        assert_eq!(
            ProtocolKind::Agfw(AgfwConfig::without_ack()).label(),
            "AGFW-noACK"
        );
        assert_eq!(
            ProtocolKind::Agfw(AgfwConfig::hardened()).label(),
            "AGFW-Hardened"
        );
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[0.5, 0.5, 0.5]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn paper_config_respects_params() {
        let params = SweepParams {
            duration: SimTime::from_secs(120),
            seeds: 1,
            ..SweepParams::default()
        };
        let cfg = paper_config(75, 3, &params);
        assert_eq!(cfg.num_nodes, 75);
        assert_eq!(cfg.duration, SimTime::from_secs(120));
        assert_eq!(cfg.flows.len(), 30);
        assert_eq!(cfg.seed, 3);
    }

    #[test]
    fn short_sweep_produces_points() {
        let params = SweepParams {
            duration: SimTime::from_secs(60),
            seeds: 1,
            ..SweepParams::default()
        };
        let points = run_matrix(&[ProtocolKind::GpsrGreedy], &[50], &params);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].len(), 1);
        assert!(points[0][0].delivery_fraction > 0.0);
        assert_eq!(points[0][0].per_seed_delivery.len(), 1);
    }

    #[test]
    fn from_name_roundtrips_simulate_protocols() {
        assert_eq!(
            ProtocolKind::from_name("gpsr"),
            Some(ProtocolKind::GpsrGreedy)
        );
        assert_eq!(
            ProtocolKind::from_name("agfw-noack").map(|k| k.label()),
            Some("AGFW-noACK")
        );
        assert_eq!(
            ProtocolKind::from_name("agfw-hardened").map(|k| k.label()),
            Some("AGFW-Hardened")
        );
        for gone in ["dsr", "gpsr-perimeter", "agfw-recovery", "agfw-predictive"] {
            assert_eq!(ProtocolKind::from_name(gone), None, "{gone}");
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1usize, 2, 4, 7] {
            let out = par_map(&items, jobs, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    /// The acceptance property of the parallel runner: a sweep point
    /// computed serially and the same point computed on a 4-worker pool
    /// yield bit-identical aggregates (and therefore bit-identical CSVs).
    #[test]
    fn matrix_results_identical_serial_vs_four_jobs() {
        let params = SweepParams {
            duration: SimTime::from_secs(60),
            flows: 10,
            senders: 5,
            seeds: 2,
            ..SweepParams::default()
        };
        let kinds = [ProtocolKind::GpsrGreedy];
        let serial = run_matrix_jobs(&kinds, &[50], &params, 1);
        let parallel = run_matrix_jobs(&kinds, &[50], &params, 4);
        assert_eq!(serial, parallel);
    }

    /// ISSUE-2 determinism regression: the serial-vs-parallel property
    /// must survive fault injection. Same seed + same `FaultPlan` ⇒
    /// bit-identical stats whatever the worker count, with both fault
    /// classes (burst loss, churn) active at once.
    #[test]
    fn faulty_matrix_identical_serial_vs_four_jobs() {
        let fault = FaultPlan::burst_loss(0.05, 0.4).with_churn(
            agr_sim::NodeId(7),
            SimTime::from_secs(20),
            SimTime::from_secs(40),
        );
        let params = SweepParams {
            duration: SimTime::from_secs(60),
            flows: 10,
            senders: 5,
            seeds: 2,
            fault,
            ..SweepParams::default()
        };
        let kinds = [
            ProtocolKind::Agfw(AgfwConfig::default()),
            ProtocolKind::GpsrGreedy,
        ];
        let serial = run_matrix_jobs(&kinds, &[50], &params, 1);
        let parallel = run_matrix_jobs(&kinds, &[50], &params, 4);
        assert_eq!(serial, parallel);
        // The plan actually bit: every run recorded burst-loss drops.
        for point in serial.iter().flatten() {
            for stats in &point.stats {
                assert!(
                    stats.counter("fault.drop.burst") > 0,
                    "{}: burst loss never fired",
                    point.protocol
                );
                assert_eq!(stats.counter("fault.churn_down"), 1);
                assert_eq!(stats.counter("fault.churn_up"), 1);
            }
        }
    }

    /// ISSUE-2 acceptance: at 10% uniform per-link loss the network-layer
    /// ACK scheme keeps AGFW's delivery ≥ 0.9 and strictly above the
    /// no-ACK ablation — the paper's §3.2 reliability claim as a number.
    #[test]
    fn ack_ablation_at_ten_percent_loss() {
        let params = SweepParams {
            duration: SimTime::from_secs(120),
            flows: 10,
            senders: 5,
            seeds: 2,
            fault: FaultPlan::uniform_loss(0.10),
            ..SweepParams::default()
        };
        let kinds = [
            ProtocolKind::Agfw(AgfwConfig::default()),
            ProtocolKind::Agfw(AgfwConfig::without_ack()),
        ];
        let results = run_matrix_jobs(&kinds, &[50], &params, 4);
        let ack = &results[0][0];
        let noack = &results[1][0];
        assert!(
            ack.delivery_fraction >= 0.9,
            "AGFW-ACK at 10% loss delivered only {:.3}",
            ack.delivery_fraction
        );
        assert!(
            ack.delivery_fraction > noack.delivery_fraction,
            "ACK ({:.3}) must beat noACK ({:.3}) under loss",
            ack.delivery_fraction,
            noack.delivery_fraction
        );
        // Retransmission did the work: recoveries were recorded.
        let recovered = ack.counter_sum("agfw.ack_recovered");
        assert!(recovered > 0, "no hop ever needed a retransmission");
    }

    #[test]
    fn parse_list_accepts_only_fully_valid_lists() {
        let unit = |p: &f64| (0.0..=1.0).contains(p);
        assert_eq!(
            parse_list("AGR_NODES", "50, 75", |&n: &usize| n > 0),
            Ok(vec![50, 75])
        );
        assert_eq!(parse_list("AGR_LOSS", "0,0.1", unit), Ok(vec![0.0, 0.1]));
        // Empty value, empty entry, typo, out of range: each names the
        // variable and the entry instead of falling back to a default.
        for (raw, entry) in [("", "''"), ("0.1,,0.2", "''"), ("0.1,O.2", "'O.2'")] {
            let err = parse_list("AGR_LOSS", raw, unit).unwrap_err();
            assert!(err.contains("AGR_LOSS") && err.contains(entry), "{err}");
        }
        let err = parse_list("AGR_LOSS", "10", unit).unwrap_err();
        assert!(err.contains("'10'"), "{err}");
        let err = parse_list("AGR_NODES", "5O,75", |&n: &usize| n > 0).unwrap_err();
        assert!(err.contains("AGR_NODES") && err.contains("'5O'"), "{err}");
        assert!(parse_list("AGR_NODES", "0", |&n: &usize| n > 0).is_err());
    }

    #[test]
    fn parse_jobs_accepts_only_whole_numbers_from_one() {
        assert!(parse_jobs(None).unwrap() >= 1);
        assert_eq!(parse_jobs(Some("3")), Ok(3));
        assert_eq!(parse_jobs(Some(" 3 ")), Ok(3));
        for raw in ["0", "1O", ""] {
            let err = parse_jobs(Some(raw)).unwrap_err();
            assert!(
                err.contains("AGR_JOBS") && err.contains(&format!("'{raw}'")),
                "{err}"
            );
        }
    }
}
