//! Socket smokes for the replicated ALS cluster: real loopback UDP
//! rings, asserted invariants, no timing. Exactly one mode per run:
//!
//! - `--smoke [--chaos-seed <u64>]`: one 3-node ring under seeded packet
//!   chaos (drop/duplicate/reorder on every client and sync path) with
//!   one seeded kill/restart cycle under uniformly keyed load. Asserts
//!   that anti-entropy re-converges the restarted node, that chaos
//!   degrades at least one write, and that queries over fully-acked keys
//!   stay ≥ 99 % available overall and inside the fault window. The
//!   chaos seed defaults to a fixed value; CI runs more.
//! - `--scrape-smoke`: a clean 1-node ring, a few dozen ops, and a UDP
//!   stats scrape that must render ≥ 20 Prometheus metric families.
//!
//! Any other argument list prints usage and exits 2. Both smokes exit
//! non-zero on any violated invariant.

use agr_als_service::chaos_net::ChaosNetConfig;
use agr_als_service::cluster::{
    ChaosAction, ChaosPlan, ClientConfig, Cluster, ClusterClient, ClusterConfig, SplitMix64,
};
use agr_als_service::pipeline::EngineConfig;
use agr_als_service::ring::NodeHealth;
use agr_als_service::store::StoreConfig;
use agr_core::packet::AlsPair;
use agr_geom::CellId;
use agr_telemetry::export::prometheus_family_count;
use std::collections::HashSet;
use std::time::Duration;

/// Cells per side of the key grid.
const CELLS: u32 = 8;
/// Keys the smoke draws from: one index per cell, so queries keep
/// revisiting keys that already hold an acknowledged write.
const KEYS: u64 = (CELLS * CELLS) as u64;
const SMOKE_NODES: usize = 3;
const SMOKE_OPS: u64 = 500;
const DEFAULT_CHAOS_SEED: u64 = 0xC1A0_5EED;
/// The availability bar for queries over fully-acked keys, overall and
/// inside the fault window.
const AVAILABILITY_FLOOR: f64 = 0.99;
/// Prometheus families a live node's stats scrape must render.
const MIN_FAMILIES: usize = 20;

const USAGE: &str = "usage: cluster_harness --smoke [--chaos-seed <u64>] | --scrape-smoke";

#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Smoke { chaos_seed: u64 },
    ScrapeSmoke,
}

/// Parses the argument list (program name excluded): exactly one mode,
/// and `--chaos-seed <u64>` only with `--smoke`.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut smoke = false;
    let mut scrape = false;
    let mut chaos_seed = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" if !smoke => smoke = true,
            "--scrape-smoke" if !scrape => scrape = true,
            "--chaos-seed" if chaos_seed.is_none() => {
                let raw = it.next().ok_or("--chaos-seed needs a value")?;
                let seed = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--chaos-seed: '{raw}' is not a u64"))?;
                chaos_seed = Some(seed);
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    match (smoke, scrape, chaos_seed) {
        (true, false, seed) => Ok(Mode::Smoke {
            chaos_seed: seed.unwrap_or(DEFAULT_CHAOS_SEED),
        }),
        (false, true, None) => Ok(Mode::ScrapeSmoke),
        (false, true, Some(_)) => Err("--chaos-seed applies only to --smoke".into()),
        _ => Err("pick exactly one of --smoke and --scrape-smoke".into()),
    }
}

fn cell_of(key: u64) -> CellId {
    CellId {
        col: key as u32 % CELLS,
        row: (key as u32 / CELLS) % CELLS,
    }
}

fn index_of(key: u64) -> Vec<u8> {
    let mut index = vec![0u8; 16];
    index[..8].copy_from_slice(&key.to_be_bytes());
    index[8..].copy_from_slice(&(!key).wrapping_mul(0x9E37_79B9).to_be_bytes());
    index
}

fn all_cells() -> Vec<CellId> {
    (0..CELLS)
        .flat_map(|col| (0..CELLS).map(move |row| CellId { col, row }))
        .collect()
}

fn update(client: &mut ClusterClient, key: u64) -> bool {
    let pair = AlsPair {
        index: index_of(key),
        payload: vec![0xC5; 48],
    };
    client.update(cell_of(key), vec![pair]).fully_acked()
}

/// A ring of `nodes`, 2-way replicated, with seeded packet chaos on the
/// sync paths when `sync_chaos` is set.
fn config(nodes: usize, sync_chaos: Option<u64>) -> ClusterConfig {
    ClusterConfig {
        nodes,
        replication: 2.min(nodes),
        engine: EngineConfig {
            store: StoreConfig {
                shards: 4,
                ttl: None,
                capacity_per_shard: None,
            },
            workers: 2,
            queue_depth: 1024,
            batch_max: 64,
            compact_every: None,
            shed_watermark: None,
        },
        logical_clock: false,
        journal_dir: None,
        sync_chaos: sync_chaos.map(|seed| ChaosNetConfig::standard(seed ^ 0x0000_5EED)),
        ..ClusterConfig::default()
    }
}

/// Query availability counts: queries whose key held a fully-acked
/// write when asked, and how many of those answered with a record.
#[derive(Default)]
struct Availability {
    eligible: u64,
    served: u64,
}

impl Availability {
    fn record(&mut self, served: bool) {
        self.eligible += 1;
        self.served += u64::from(served);
    }

    fn check(&self, what: &str) {
        assert!(self.eligible > 0, "{what}: no query over a fully-acked key");
        let ratio = self.served as f64 / self.eligible as f64;
        assert!(
            ratio >= AVAILABILITY_FLOOR,
            "{what} availability {ratio:.4} below {AVAILABILITY_FLOOR} \
             ({}/{} eligible queries served)",
            self.served,
            self.eligible
        );
    }
}

/// The `scripts/check.sh` cluster gate: one 3-node ring under packet
/// chaos with one seeded kill/restart cycle.
fn run_smoke(chaos_seed: u64) {
    eprintln!(
        "cluster_harness --smoke: {SMOKE_NODES}-node ring, {SMOKE_OPS} ops over {KEYS} keys, \
         packet chaos (seed {chaos_seed}), 1 kill/restart cycle"
    );
    let mut cluster = Cluster::launch(config(SMOKE_NODES, Some(chaos_seed))).expect("cluster boot");
    // Localhost answers in microseconds, so a timeout means the frame is
    // gone: a short per-attempt wait lets the retry rounds that hide
    // packet loss fit inside the op deadline. Heartbeats run from the
    // loop below instead of per op count.
    let mut client = cluster
        .client_with(ClientConfig {
            ack_timeout: Duration::from_millis(120),
            op_deadline: Duration::from_millis(900),
            retry_base: Duration::from_millis(5),
            retry_cap: Duration::from_millis(40),
            ping_every: 0,
            ping_timeout: Duration::from_millis(120),
            chaos: Some(ChaosNetConfig::standard(chaos_seed ^ 0x00C1_1E57)),
            ..ClientConfig::default()
        })
        .expect("client connect");
    let plan = ChaosPlan::seeded(chaos_seed ^ SMOKE_NODES as u64, SMOKE_NODES, SMOKE_OPS, 1);
    let universe = all_cells();
    let mut rng = SplitMix64::new(chaos_seed ^ 0xBEEF);
    let mut fired = 0usize;
    let mut acked: HashSet<u64> = HashSet::new();
    let (mut writes, mut fully_acked, mut restarts) = (0u64, 0u64, 0usize);
    let mut overall = Availability::default();
    let mut fault_window = Availability::default();
    let mut in_fault_window = false;
    for op in 0..SMOKE_OPS {
        for &event in plan.due(op, &mut fired) {
            match event.action {
                ChaosAction::Kill => {
                    // Replication catches up first, so the victim holds
                    // nothing its co-owner lacks.
                    cluster
                        .quiesce(&universe, 64)
                        .expect("sync transport")
                        .expect("pre-kill quiesce must converge");
                    assert!(cluster.kill(event.node), "chaos victim was already down");
                    in_fault_window = true;
                    eprintln!("  kill n{} @ op {op}", event.node);
                }
                ChaosAction::Restart => {
                    assert!(
                        cluster.restart(event.node).expect("rebind"),
                        "chaos victim was already up"
                    );
                    let rounds = cluster
                        .quiesce(&universe, 64)
                        .expect("sync transport")
                        .expect("anti-entropy must re-converge after a restart");
                    // The fault window closes when the node is
                    // read-eligible again, not merely restarted.
                    let mut beats = 0u32;
                    while client.health(event.node) != NodeHealth::Alive {
                        client.heartbeat();
                        beats += 1;
                        assert!(beats <= 32, "readmission must converge");
                    }
                    in_fault_window = false;
                    restarts += 1;
                    eprintln!(
                        "  restart n{} @ op {op}: converged in {rounds} round(s), \
                         readmitted after {beats} heartbeat(s)",
                        event.node
                    );
                }
            }
        }
        // Walks back any node the lossy network convicted by coincidence.
        if op > 0 && op % 32 == 0 {
            client.heartbeat();
        }
        let key = rng.below(KEYS);
        if rng.below(100) < 70 {
            writes += 1;
            if update(&mut client, key) {
                fully_acked += 1;
                acked.insert(key);
            }
        } else {
            let served = client.query(cell_of(key), &index_of(key)).payload.is_some();
            if acked.contains(&key) {
                overall.record(served);
                if in_fault_window {
                    fault_window.record(served);
                }
            }
        }
    }
    cluster
        .quiesce(&universe, 64)
        .expect("sync transport")
        .expect("terminal anti-entropy must quiesce");
    assert!(
        cluster.digests_agree(&universe),
        "owners must agree after terminal quiesce"
    );
    let families = client
        .scrape_stats(0)
        .as_deref()
        .map_or(0, prometheus_family_count);
    cluster.shutdown();
    eprintln!(
        "  {writes} writes ({fully_acked} fully acked), {}/{} eligible queries served \
         ({}/{} in the fault window), scrape {families} families",
        overall.served, overall.eligible, fault_window.served, fault_window.eligible
    );
    assert_eq!(restarts, 1, "one restart, one quiesce");
    assert!(fully_acked > 0, "smoke must see fully-acked writes");
    assert!(
        fully_acked < writes,
        "smoke chaos must degrade at least one write"
    );
    overall.check("overall");
    fault_window.check("fault-window");
    assert!(
        families >= MIN_FAMILIES,
        "live node answered the UDP stats scrape with only {families} metric \
         families (want ≥ {MIN_FAMILIES})"
    );
    eprintln!("cluster smoke OK");
}

/// The `scripts/check.sh` telemetry gate: a clean 1-node ring answers a
/// UDP stats scrape with a valid Prometheus exposition.
fn run_scrape_smoke() {
    let cluster = Cluster::launch(config(1, None)).expect("cluster boot");
    let mut client = cluster
        .client_with(ClientConfig {
            ack_timeout: Duration::from_millis(400),
            op_deadline: Duration::from_secs(2),
            ping_every: 0,
            ..ClientConfig::default()
        })
        .expect("client connect");
    for key in 0..32 {
        update(&mut client, key);
        let _ = client.query(cell_of(key), &index_of(key));
    }
    let text = client
        .scrape_stats(0)
        .expect("live node must answer the stats scrape");
    assert!(
        text.starts_with("# "),
        "scrape must render Prometheus text exposition, got {:?}…",
        &text[..text.len().min(40)]
    );
    let families = prometheus_family_count(&text);
    assert!(
        families >= MIN_FAMILIES,
        "scrape rendered only {families} metric families (want ≥ {MIN_FAMILIES})"
    );
    cluster.shutdown();
    eprintln!("scrape smoke OK: {families} metric families over UDP");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Smoke { chaos_seed }) => run_smoke(chaos_seed),
        Ok(Mode::ScrapeSmoke) => run_scrape_smoke(),
        Err(message) => {
            eprintln!("cluster_harness: {message}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn parse_args_accepts_one_mode_and_an_optional_seed() {
        assert_eq!(
            parse(&["--smoke"]),
            Ok(Mode::Smoke {
                chaos_seed: DEFAULT_CHAOS_SEED
            })
        );
        assert_eq!(
            parse(&["--chaos-seed", "23", "--smoke"]),
            Ok(Mode::Smoke { chaos_seed: 23 })
        );
        assert_eq!(parse(&["--scrape-smoke"]), Ok(Mode::ScrapeSmoke));
    }

    #[test]
    fn parse_args_rejects_everything_else() {
        let rejected: [&[&str]; 11] = [
            &[],
            &["--smok"],
            &["--quick"],
            &["--smoke", "--out", "x.json"],
            &["--smoke", "--scrape-smoke"],
            &["--smoke", "--smoke"],
            &["--smoke", "--chaos-seed"],
            &["--smoke", "--chaos-seed", "-1"],
            &["--smoke", "--chaos-seed", "1", "--chaos-seed", "2"],
            &["--scrape-smoke", "--chaos-seed", "11"],
            &["--chaos-seed", "11"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
