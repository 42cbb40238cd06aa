//! Chaos-driven load harness for the replicated ALS cluster.
//!
//! Two regimes share one runner. The **baseline rings** (1, 3, and 5
//! UDP nodes, clean network) drive zipfian-keyed replicated updates and
//! ring queries through a `ClusterClient` while a seeded kill/restart
//! schedule fires mid-load — the ops/s numbers comparable across
//! revisions. The **chaos runs** then put the 5-node ring under seeded
//! packet chaos (drop/duplicate/reorder on every client and sync path)
//! plus one kill/restart cycle and measure what self-healing costs and
//! buys, one knob at a time: query availability for fully-acked keys
//! (overall and inside the fault window), hit-path latency with hedging
//! off vs on (a hedge can only rescue a `Reply` — resolving a *miss*
//! still needs every owner to answer, so miss-path tails are identical
//! by construction and would drown the signal), and restart recovery
//! with an anti-entropy refill vs a crash journal replay (hedging held
//! fixed, because hedged queries advance the seeded chaos frame
//! counters and would change which writes replicate).
//! Results land in `results/BENCH_cluster.json`, git-SHA- and
//! timestamp-stamped.
//!
//! Flags / environment:
//! - `--quick`: smaller op counts (CI).
//! - `--smoke`: one 3-node packet-chaos ring with a kill/restart cycle
//!   and hard assertions on convergence and fault-window availability —
//!   the check.sh gate (exits non-zero on any violated invariant).
//! - `--scrape-smoke`: boot a clean 1-node ring, drive a few dozen ops,
//!   and assert a UDP stats scrape renders ≥ 20 Prometheus metric
//!   families — the check.sh telemetry gate (seconds, no chaos).
//! - `--chaos-seed <n>`: override the chaos seed (the CI chaos matrix).
//! - `--out <path>`: output path (default `results/BENCH_cluster.json`).
//! - `AGR_CLUSTER_OPS`: explicit per-ring op count override.

use agr_als_service::chaos_net::ChaosNetConfig;
use agr_als_service::cluster::{
    ChaosAction, ChaosPlan, ClientConfig, ClientStats, Cluster, ClusterConfig,
};
use agr_als_service::pipeline::EngineConfig;
use agr_als_service::ring::NodeHealth;
use agr_als_service::store::StoreConfig;
use agr_bench::runner::env_u64;
use agr_bench::stamp::{git_sha, iso_timestamp};
use agr_bench::zipf::Zipf;
use agr_core::packet::AlsPair;
use agr_geom::CellId;
use agr_telemetry::export::prometheus_family_count;
use agr_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Distinct sealed indices the zipfian sampler draws from.
const KEY_SPACE: usize = 4_096;
/// Zipf exponent of the key popularity law.
const ZIPF_S: f64 = 0.99;
/// Cells the keys spread over.
const CELLS: u32 = 8;
const DEFAULT_CHAOS_SEED: u64 = 0xC1A0_5EED;
/// The availability bar the smoke gate holds fault-window queries to.
const SMOKE_AVAILABILITY_FLOOR: f64 = 0.99;

fn cell_of(rank: usize) -> CellId {
    CellId {
        col: (rank as u32) % CELLS,
        row: ((rank as u32) / CELLS) % CELLS,
    }
}

fn index_of(rank: usize) -> Vec<u8> {
    let mut index = vec![0u8; 16];
    index[..8].copy_from_slice(&(rank as u64).to_be_bytes());
    index[8..].copy_from_slice(&(!(rank as u64)).wrapping_mul(0x9E37_79B9).to_be_bytes());
    index
}

fn all_cells() -> Vec<CellId> {
    (0..CELLS)
        .flat_map(|col| (0..CELLS).map(move |row| CellId { col, row }))
        .collect()
}

/// One harness run: a ring size, an op budget, a fault schedule, and
/// the self-healing knobs under measurement.
#[derive(Clone, Copy)]
struct RunSpec {
    label: &'static str,
    nodes: usize,
    ops: u64,
    cycles: usize,
    /// Seeded packet chaos on every client and sync transport.
    packet_chaos: Option<u64>,
    /// Hedge reads after the p99-derived delay.
    hedge: bool,
    /// Crash-recovery journals under every node.
    journal: bool,
}

impl RunSpec {
    fn baseline(nodes: usize, ops: u64, cycles: usize) -> RunSpec {
        RunSpec {
            label: "baseline",
            nodes,
            ops,
            cycles,
            packet_chaos: None,
            hedge: false,
            journal: false,
        }
    }
}

fn config(spec: &RunSpec, journal_dir: Option<PathBuf>) -> ClusterConfig {
    ClusterConfig {
        nodes: spec.nodes,
        replication: 2.min(spec.nodes),
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
        journal_dir,
        sync_chaos: spec
            .packet_chaos
            .map(|seed| ChaosNetConfig::standard(seed ^ 0x0000_5EED)),
        ..ClusterConfig::default()
    }
}

/// Client tuning per regime. The clean baseline keeps the historical
/// 400 ms ack wait; chaos runs shorten the per-attempt wait (localhost
/// answers in microseconds — a timeout means the frame is gone) so the
/// retry rounds that hide packet loss fit inside a tight op deadline.
fn client_config(spec: &RunSpec) -> ClientConfig {
    match spec.packet_chaos {
        None => ClientConfig {
            ack_timeout: Duration::from_millis(400),
            op_deadline: Duration::from_secs(2),
            ping_every: 0,
            ..ClientConfig::default()
        },
        Some(seed) => ClientConfig {
            ack_timeout: Duration::from_millis(120),
            op_deadline: Duration::from_millis(900),
            retry_base: Duration::from_millis(5),
            retry_cap: Duration::from_millis(40),
            // Heartbeats are driven explicitly by the run loop, outside
            // the timed query region: a dropped pong costs a full ping
            // timeout, which would otherwise swamp the query p99 the
            // hedging A/B is trying to expose.
            ping_every: 0,
            ping_timeout: Duration::from_millis(120),
            hedge: spec.hedge,
            chaos: Some(ChaosNetConfig::standard(seed ^ 0x00C1_1E57)),
            ..ClientConfig::default()
        },
    }
}

struct RunResult {
    spec: RunSpec,
    replication: usize,
    ops: u64,
    writes: u64,
    fully_acked: u64,
    queries: u64,
    hits: u64,
    wall_s: f64,
    /// Wall-clock cost of each post-restart quiesce, milliseconds.
    convergence_ms: Vec<f64>,
    /// Rounds each post-restart quiesce needed.
    convergence_rounds: Vec<usize>,
    /// Records anti-entropy shipped to re-converge each restart (a
    /// digest mismatch pushes the source's whole cell, so this counts
    /// redundant echoes too — e.g. a journaled node pushing replayed
    /// records back at peers that already hold them).
    recovery_pushed: Vec<u64>,
    /// Records that actually *changed* a receiving replica per restart —
    /// the useful repair work, and the cost journal replay cuts: an
    /// unjournaled victim must re-land every pre-kill record over the
    /// wire, a journaled one only the down-window delta. (Wall ms under
    /// chaotic sync is mostly retry timeouts; counts are the signal.)
    recovery_changed: Vec<u64>,
    /// Terminal quiesce cost (all nodes up), milliseconds.
    final_convergence_ms: f64,
    final_convergence_rounds: usize,
    /// Queries whose key held a fully-acked write when asked / answered.
    eligible: u64,
    served: u64,
    /// The same pair restricted to the fault window (kill → readmit).
    fault_eligible: u64,
    fault_served: u64,
    /// Ring-query latency percentiles, microseconds (log2-bucketed via
    /// the shared telemetry histogram; values are bucket upper bounds).
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    /// The same percentiles over *hit* queries only — the population
    /// hedging can improve (see the module docs).
    hit_p50_us: u64,
    hit_p95_us: u64,
    hit_p99_us: u64,
    /// Prometheus metric families a live node answered over UDP at the
    /// end of the run (0 if the scrape failed).
    telemetry_families: usize,
    /// Journal records replayed across every restart.
    replayed: u64,
    client: ClientStats,
    /// Requests the engines answered `Busy` (admission shed).
    shed: u64,
    server_send_errors: u64,
}

impl RunResult {
    fn ops_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn availability(&self) -> f64 {
        self.served as f64 / self.eligible.max(1) as f64
    }

    /// Vacuously 1.0 when no eligible query fell inside a fault window
    /// (the JSON carries the raw counts alongside).
    fn fault_availability(&self) -> f64 {
        if self.fault_eligible == 0 {
            1.0
        } else {
            self.fault_served as f64 / self.fault_eligible as f64
        }
    }

    /// Mean post-restart recovery cost, ms (0 when nothing restarted).
    fn recovery_ms(&self) -> f64 {
        if self.convergence_ms.is_empty() {
            0.0
        } else {
            self.convergence_ms.iter().sum::<f64>() / self.convergence_ms.len() as f64
        }
    }
}

fn percentile(latencies: &Histogram, q: f64) -> u64 {
    latencies.quantile(q)
}

/// Runs one ring end to end. `cycles` > 0 schedules seeded kill/restart
/// chaos (multi-node rings only — a 1-node ring has nowhere to fail
/// over to).
fn run_ring(spec: RunSpec, chaos_seed: u64) -> RunResult {
    let journal_dir = spec.journal.then(|| {
        std::env::temp_dir().join(format!(
            "agr-cluster-harness-{}-{}n-{}",
            std::process::id(),
            spec.nodes,
            spec.label
        ))
    });
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let cluster_config = config(&spec, journal_dir.clone());
    let mut cluster = Cluster::launch(cluster_config).expect("cluster boot");
    let replication = cluster.replication();
    let mut client = cluster
        .client_with(client_config(&spec))
        .expect("client connect");
    let plan = if spec.cycles > 0 {
        ChaosPlan::seeded(
            chaos_seed ^ spec.nodes as u64,
            spec.nodes,
            spec.ops,
            spec.cycles,
        )
    } else {
        ChaosPlan::default()
    };
    let universe = all_cells();
    let zipf = Zipf::new(KEY_SPACE, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ spec.nodes as u64);
    let mut fired = 0usize;
    let mut acked_ranks: HashSet<usize> = HashSet::new();
    let latencies = Histogram::new();
    let hit_latencies = Histogram::new();
    let mut in_fault_window = false;
    let mut result = RunResult {
        spec,
        replication,
        ops: 0,
        writes: 0,
        fully_acked: 0,
        queries: 0,
        hits: 0,
        wall_s: 0.0,
        convergence_ms: Vec::new(),
        convergence_rounds: Vec::new(),
        recovery_pushed: Vec::new(),
        recovery_changed: Vec::new(),
        final_convergence_ms: 0.0,
        final_convergence_rounds: 0,
        eligible: 0,
        served: 0,
        fault_eligible: 0,
        fault_served: 0,
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        hit_p50_us: 0,
        hit_p95_us: 0,
        hit_p99_us: 0,
        telemetry_families: 0,
        replayed: 0,
        client: ClientStats::default(),
        shed: 0,
        server_send_errors: 0,
    };
    let tag = spec.label;
    let t0 = Instant::now();
    for op in 0..spec.ops {
        for &event in plan.due(op, &mut fired) {
            match event.action {
                ChaosAction::Kill => {
                    // Chaos arms quiesce before the kill so the
                    // journal-vs-refill record counts are interpretable:
                    // with replication caught up, a refill must re-land
                    // the victim's whole pre-kill store while replay
                    // needs only the down-window delta. Killing over
                    // un-replicated debt instead mixes in records only
                    // the victim held — the journal resurrects those
                    // (the refill arm loses them for good), which is a
                    // durability win but drowns the wire-cost signal.
                    // Baselines skip this to keep ops/s comparable.
                    if spec.packet_chaos.is_some() {
                        cluster
                            .quiesce(&universe, 64)
                            .expect("sync transport")
                            .expect("pre-kill quiesce must converge");
                    }
                    assert!(cluster.kill(event.node), "chaos victim was already down");
                    in_fault_window = true;
                    eprintln!(
                        "  [{tag} {}-node] kill n{} @ op {op}",
                        spec.nodes, event.node
                    );
                }
                ChaosAction::Restart => {
                    assert!(
                        cluster.restart(event.node).expect("rebind"),
                        "chaos victim was already up"
                    );
                    result.replayed += cluster.replayed(event.node);
                    // Re-converge by explicit sync rounds so the repair
                    // record counts — `changed` is the cost journal
                    // replay cuts — are measured, not just the
                    // (retry-dominated) wall clock.
                    let c0 = Instant::now();
                    let mut pushed = 0u64;
                    let mut changed = 0u64;
                    let mut rounds = 0usize;
                    loop {
                        let stats = cluster.sync_round(&universe).expect("sync transport");
                        pushed += stats.pushed as u64;
                        changed += stats.changed as u64;
                        rounds += 1;
                        if stats.changed == 0 {
                            break;
                        }
                        assert!(
                            rounds <= 64,
                            "anti-entropy must re-converge after a restart"
                        );
                    }
                    let ms = c0.elapsed().as_secs_f64() * 1e3;
                    result.recovery_pushed.push(pushed);
                    result.recovery_changed.push(changed);
                    // Walk the detector back before traffic resumes: the
                    // fault window closes when the node is read-eligible
                    // again, not merely restarted.
                    let mut beats = 0u32;
                    while client.health(event.node) != NodeHealth::Alive {
                        client.heartbeat();
                        beats += 1;
                        assert!(beats <= 32, "readmission must converge");
                    }
                    in_fault_window = false;
                    eprintln!(
                        "  [{tag} {}-node] restart n{} @ op {op}: converged in {rounds} \
                         round(s), {ms:.1} ms, {pushed} pushed ({changed} changed), \
                         {} replayed, {beats} \
                         heartbeat(s)",
                        spec.nodes,
                        event.node,
                        cluster.replayed(event.node),
                    );
                    result.convergence_ms.push(ms);
                    result.convergence_rounds.push(rounds);
                }
            }
        }
        // Periodic detector maintenance, outside the timed region (see
        // `client_config`): walks back any node the lossy network
        // convicted by coincidence.
        if spec.packet_chaos.is_some() && op > 0 && op % 32 == 0 {
            client.heartbeat();
        }
        let rank = zipf.sample(&mut rng);
        let cell = cell_of(rank);
        let index = index_of(rank);
        if rng.random_range(0u32..100) < 70 {
            let outcome = client.update(
                cell,
                vec![AlsPair {
                    index,
                    payload: vec![0xC5; 48],
                }],
            );
            result.writes += 1;
            if outcome.fully_acked() {
                result.fully_acked += 1;
                acked_ranks.insert(rank);
            }
        } else {
            let eligible = acked_ranks.contains(&rank);
            let q0 = Instant::now();
            let served = client.query(cell, &index).payload.is_some();
            let elapsed_us = q0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            latencies.record(elapsed_us);
            result.queries += 1;
            if served {
                result.hits += 1;
                hit_latencies.record(elapsed_us);
            }
            if eligible {
                result.eligible += 1;
                result.served += u64::from(served);
                if in_fault_window {
                    result.fault_eligible += 1;
                    result.fault_served += u64::from(served);
                }
            }
        }
        result.ops += 1;
    }
    result.wall_s = t0.elapsed().as_secs_f64();
    // Terminal convergence: every node is up again; the live owners must
    // agree on every cell.
    let c0 = Instant::now();
    let rounds = cluster
        .quiesce(&universe, 64)
        .expect("sync transport")
        .expect("terminal anti-entropy must quiesce");
    result.final_convergence_ms = c0.elapsed().as_secs_f64() * 1e3;
    result.final_convergence_rounds = rounds;
    assert!(
        cluster.digests_agree(&universe),
        "owners must agree after terminal quiesce"
    );
    result.p50_us = percentile(&latencies, 0.50);
    result.p95_us = percentile(&latencies, 0.95);
    result.p99_us = percentile(&latencies, 0.99);
    result.hit_p50_us = percentile(&hit_latencies, 0.50);
    result.hit_p95_us = percentile(&hit_latencies, 0.95);
    result.hit_p99_us = percentile(&hit_latencies, 0.99);
    // Telemetry scrape over the same UDP path traffic rode: every node
    // is up again, so node 0 must answer a StatsDump with a valid
    // Prometheus exposition.
    result.telemetry_families = client
        .scrape_stats(0)
        .as_deref()
        .map_or(0, prometheus_family_count);
    result.client = client.stats();
    for stats in cluster.shutdown() {
        result.shed += stats.shed;
        result.server_send_errors += stats.send_errors;
    }
    if let Some(dir) = journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    eprintln!(
        "{tag} {:>2}-node ring (R={}): {:>7} ops in {:>6.2}s  {:>8.0} ops/s  \
         fully-acked {:.3}  hit rate {:.3}  avail {:.4} (fault {:.4})  \
         q p50/p95/p99 {}/{}/{} µs (hit {}/{}/{})  recovery {:.1} ms \
         ({} pushed, {} changed)  \
         final quiesce {} round(s)  scrape {} families",
        spec.nodes,
        result.replication,
        result.ops,
        result.wall_s,
        result.ops_per_sec(),
        result.fully_acked as f64 / result.writes.max(1) as f64,
        result.hits as f64 / result.queries.max(1) as f64,
        result.availability(),
        result.fault_availability(),
        result.p50_us,
        result.p95_us,
        result.p99_us,
        result.hit_p50_us,
        result.hit_p95_us,
        result.hit_p99_us,
        result.recovery_ms(),
        result.recovery_pushed.iter().sum::<u64>(),
        result.recovery_changed.iter().sum::<u64>(),
        result.final_convergence_rounds,
        result.telemetry_families,
    );
    result
}

fn json_f64_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_usize_list(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_u64_list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn render_run(out: &mut String, r: &RunResult, comma: &str) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": \"{}\",", r.spec.label);
    let _ = writeln!(out, "      \"nodes\": {},", r.spec.nodes);
    let _ = writeln!(out, "      \"replication\": {},", r.replication);
    let _ = writeln!(
        out,
        "      \"packet_chaos\": {},",
        r.spec.packet_chaos.is_some()
    );
    let _ = writeln!(out, "      \"hedge\": {},", r.spec.hedge);
    let _ = writeln!(out, "      \"journal\": {},", r.spec.journal);
    let _ = writeln!(out, "      \"ops\": {},", r.ops);
    let _ = writeln!(out, "      \"wall_s\": {:.6},", r.wall_s);
    let _ = writeln!(out, "      \"ops_per_sec\": {:.1},", r.ops_per_sec());
    let _ = writeln!(out, "      \"writes\": {},", r.writes);
    let _ = writeln!(out, "      \"fully_acked\": {},", r.fully_acked);
    let _ = writeln!(out, "      \"queries\": {},", r.queries);
    let _ = writeln!(out, "      \"hits\": {},", r.hits);
    let _ = writeln!(out, "      \"eligible_queries\": {},", r.eligible);
    let _ = writeln!(out, "      \"served_queries\": {},", r.served);
    let _ = writeln!(out, "      \"availability\": {:.6},", r.availability());
    let _ = writeln!(
        out,
        "      \"fault_window_eligible\": {},",
        r.fault_eligible
    );
    let _ = writeln!(out, "      \"fault_window_served\": {},", r.fault_served);
    let _ = writeln!(
        out,
        "      \"fault_window_availability\": {:.6},",
        r.fault_availability()
    );
    let _ = writeln!(out, "      \"query_p50_us\": {},", r.p50_us);
    let _ = writeln!(out, "      \"query_p95_us\": {},", r.p95_us);
    let _ = writeln!(out, "      \"query_p99_us\": {},", r.p99_us);
    let _ = writeln!(out, "      \"query_hit_p50_us\": {},", r.hit_p50_us);
    let _ = writeln!(out, "      \"query_hit_p95_us\": {},", r.hit_p95_us);
    let _ = writeln!(out, "      \"query_hit_p99_us\": {},", r.hit_p99_us);
    let _ = writeln!(
        out,
        "      \"telemetry_families\": {},",
        r.telemetry_families
    );
    let _ = writeln!(out, "      \"chaos_cycles\": {},", r.spec.cycles);
    let _ = writeln!(
        out,
        "      \"convergence_ms\": {},",
        json_f64_list(&r.convergence_ms)
    );
    let _ = writeln!(
        out,
        "      \"convergence_rounds\": {},",
        json_usize_list(&r.convergence_rounds)
    );
    let _ = writeln!(out, "      \"recovery_ms\": {:.2},", r.recovery_ms());
    let _ = writeln!(
        out,
        "      \"recovery_pushed\": {},",
        json_u64_list(&r.recovery_pushed)
    );
    let _ = writeln!(
        out,
        "      \"recovery_changed\": {},",
        json_u64_list(&r.recovery_changed)
    );
    let _ = writeln!(out, "      \"journal_replayed\": {},", r.replayed);
    let _ = writeln!(
        out,
        "      \"final_convergence_ms\": {:.2},",
        r.final_convergence_ms
    );
    let _ = writeln!(
        out,
        "      \"final_convergence_rounds\": {},",
        r.final_convergence_rounds
    );
    let _ = writeln!(out, "      \"client_retries\": {},", r.client.retries);
    let _ = writeln!(out, "      \"client_hedged\": {},", r.client.hedged);
    let _ = writeln!(out, "      \"client_hedge_wins\": {},", r.client.hedge_wins);
    let _ = writeln!(out, "      \"client_busy\": {},", r.client.busy);
    let _ = writeln!(
        out,
        "      \"client_deadline_misses\": {},",
        r.client.deadline_misses
    );
    let _ = writeln!(out, "      \"server_shed\": {},", r.shed);
    let _ = writeln!(
        out,
        "      \"server_send_errors\": {}",
        r.server_send_errors
    );
    let _ = writeln!(out, "    }}{comma}");
}

fn render(baselines: &[RunResult], chaos_runs: &[RunResult], chaos_seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bin\": \"cluster_harness\",");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", git_sha());
    let _ = writeln!(out, "  \"generated_at\": \"{}\",", iso_timestamp());
    let _ = writeln!(out, "  \"key_space\": {KEY_SPACE},");
    let _ = writeln!(out, "  \"zipf_s\": {ZIPF_S},");
    let _ = writeln!(out, "  \"chaos_seed\": {chaos_seed},");
    let _ = writeln!(out, "  \"rings\": [");
    for (i, r) in baselines.iter().enumerate() {
        let comma = if i + 1 < baselines.len() { "," } else { "" };
        render_run(&mut out, r, comma);
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"chaos_runs\": [");
    for (i, r) in chaos_runs.iter().enumerate() {
        let comma = if i + 1 < chaos_runs.len() { "," } else { "" };
        render_run(&mut out, r, comma);
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Output path: the `--out` flag, else `results/BENCH_cluster.json`.
fn out_path() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            if let Some(p) = args.next() {
                return PathBuf::from(p);
            }
        }
    }
    PathBuf::from("results/BENCH_cluster.json")
}

/// `--chaos-seed <n>` override (the CI chaos matrix), else the default.
fn chaos_seed_arg() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--chaos-seed" {
            if let Some(raw) = args.next() {
                return raw.parse().expect("--chaos-seed must be a u64");
            }
        }
    }
    DEFAULT_CHAOS_SEED
}

fn write_out(baselines: &[RunResult], chaos_runs: &[RunResult], chaos_seed: u64) {
    let path = out_path();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, render(baselines, chaos_runs, chaos_seed)).expect("write bench json");
    eprintln!("bench json: {}", path.display());
}

/// The check.sh telemetry gate: a clean 1-node ring answers a UDP stats
/// scrape with a valid Prometheus exposition of ≥ 20 metric families.
fn run_scrape_smoke() {
    let spec = RunSpec::baseline(1, 0, 0);
    let cluster = Cluster::launch(config(&spec, None)).expect("cluster boot");
    let mut client = cluster
        .client_with(client_config(&spec))
        .expect("client connect");
    for rank in 0..32 {
        let _ = client.update(
            cell_of(rank),
            vec![AlsPair {
                index: index_of(rank),
                payload: vec![0xC5; 48],
            }],
        );
        let _ = client.query(cell_of(rank), &index_of(rank));
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
        families >= 20,
        "scrape rendered only {families} metric families (want ≥ 20)"
    );
    cluster.shutdown();
    eprintln!("scrape smoke OK: {families} metric families over UDP");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos_seed = chaos_seed_arg();
    if std::env::args().any(|a| a == "--scrape-smoke") {
        run_scrape_smoke();
        return;
    }
    if smoke {
        // The check.sh gate: one 3-node ring under packet chaos, one
        // seeded kill/restart cycle, hard assertions on convergence,
        // durability degradation, and fault-window availability.
        let ops = env_u64("AGR_CLUSTER_OPS").unwrap_or(500);
        eprintln!(
            "cluster_harness --smoke: 3-node ring, {ops} ops, packet chaos \
             (seed {chaos_seed}), 1 kill/restart cycle"
        );
        let result = run_ring(
            RunSpec {
                label: "smoke",
                nodes: 3,
                ops,
                cycles: 1,
                packet_chaos: Some(chaos_seed),
                hedge: false,
                journal: false,
            },
            chaos_seed,
        );
        assert_eq!(
            result.convergence_rounds.len(),
            1,
            "one restart, one quiesce"
        );
        assert!(result.fully_acked > 0, "smoke must see fully-acked writes");
        assert!(
            result.fully_acked < result.writes,
            "smoke chaos must degrade at least one write"
        );
        assert!(
            result.eligible > 0,
            "smoke must issue queries over fully-acked keys"
        );
        assert!(
            result.fault_eligible > 0,
            "smoke fault window must contain eligible queries"
        );
        assert!(
            result.availability() >= SMOKE_AVAILABILITY_FLOOR,
            "availability {:.4} below the {SMOKE_AVAILABILITY_FLOOR} gate \
             ({}/{} eligible queries served)",
            result.availability(),
            result.served,
            result.eligible
        );
        assert!(
            result.fault_availability() >= SMOKE_AVAILABILITY_FLOOR,
            "fault-window availability {:.4} below the {SMOKE_AVAILABILITY_FLOOR} gate \
             ({}/{} eligible fault-window queries served)",
            result.fault_availability(),
            result.fault_served,
            result.fault_eligible
        );
        assert!(
            result.telemetry_families >= 20,
            "live node answered the UDP stats scrape with only {} metric \
             families (want ≥ 20)",
            result.telemetry_families
        );
        write_out(&[], &[result], chaos_seed);
        eprintln!("cluster smoke OK");
        return;
    }
    let per_ring = env_u64("AGR_CLUSTER_OPS").unwrap_or(if quick { 4_000 } else { 20_000 });
    let chaos_ops = env_u64("AGR_CLUSTER_OPS").unwrap_or(if quick { 600 } else { 1_200 });
    eprintln!(
        "cluster_harness: {per_ring} ops/ring, {KEY_SPACE} keys (zipf s={ZIPF_S}), \
         rings of 1/3/5 nodes + 5-node packet-chaos runs ({chaos_ops} ops, seed {chaos_seed})"
    );
    let baselines = vec![
        run_ring(RunSpec::baseline(1, per_ring, 0), chaos_seed),
        run_ring(RunSpec::baseline(3, per_ring, 2), chaos_seed),
        run_ring(RunSpec::baseline(5, per_ring, 2), chaos_seed),
    ];
    // The self-healing A/Bs, one knob per comparison: hedging is read
    // off the first pair (journal fixed off), journal replay off the
    // second pair (hedging fixed on — a hedged client sends extra
    // frames, so flipping both at once would also reshuffle the seeded
    // chaos and change which writes replicate before the kill).
    let chaos_runs = vec![
        run_ring(
            RunSpec {
                label: "chaos-refill-unhedged",
                nodes: 5,
                ops: chaos_ops,
                cycles: 1,
                packet_chaos: Some(chaos_seed),
                hedge: false,
                journal: false,
            },
            chaos_seed,
        ),
        run_ring(
            RunSpec {
                label: "chaos-refill-hedged",
                nodes: 5,
                ops: chaos_ops,
                cycles: 1,
                packet_chaos: Some(chaos_seed),
                hedge: true,
                journal: false,
            },
            chaos_seed,
        ),
        run_ring(
            RunSpec {
                label: "chaos-journal-hedged",
                nodes: 5,
                ops: chaos_ops,
                cycles: 1,
                packet_chaos: Some(chaos_seed),
                hedge: true,
                journal: true,
            },
            chaos_seed,
        ),
    ];
    write_out(&baselines, &chaos_runs, chaos_seed);
}
