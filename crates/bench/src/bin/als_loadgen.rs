//! Load generator for the standalone ALS service engine and its UDP
//! data plane.
//!
//! Three arms, all driving the same zipfian-keyed 70/29/1
//! update/query/forward mix:
//!
//! * `engine_1shard` / `engine_4shard` — millions of fire-and-forget
//!   operations straight into the request pipeline (bounded queues,
//!   batching workers, sharded store), one `submit` per op. The
//!   historical sharding comparison: the acceptance bar is a ≥2×
//!   ops/sec gain at 4 shards.
//! * `udp_batched` — a real `UdpServer` behind [`serve_batched`],
//!   hammered by child *processes* (re-exec of this binary with
//!   `--udp-client`) pipelining uid-matched request windows over the
//!   socket with `sendmmsg`/`recvmmsg` batch calls on both sides. (The
//!   arm keeps its PR 9 name so the recorded history stays greppable.)
//!
//! Query latency percentiles are measured per arm on the idle engine
//! (engine arms: blocking pipeline calls; UDP arm: single-frame socket
//! round-trips), and everything lands in `results/BENCH_als.json`.
//!
//! Flags / environment:
//! - `--quick`: reduced op counts (CI smoke).
//! - `--out <path>` / `--bench-json <path>` / `AGR_BENCH_JSON`: output
//!   path (default `results/BENCH_als.json`).
//! - `AGR_ALS_OPS`: explicit per-engine-arm op count override.
//! - `AGR_ALS_UDP_OPS`: explicit UDP-arm op count override.
//! - `AGR_ALS_THREADS`: client thread / child process count (default 4
//!   threads for engine arms, 2 processes for the UDP arm).
//! - `AGR_ALS_ARMS`: comma-separated arm names to run (default all) —
//!   handy for iterating on one arm or for a fast CI gate.
//! - `--udp-client <addr> --ops <n> --seed <s>`: internal child-process
//!   mode.

use agr_als_service::pipeline::{Engine, EngineConfig, Request};
use agr_als_service::service::{serve_batched, AlsClient, BatchConfig, ServeStats};
use agr_als_service::store::StoreConfig;
use agr_als_service::transport::{Transport, UdpClient, UdpServer};
use agr_bench::bench_json::{git_sha, iso_timestamp};
use agr_bench::runner::env_u64;
use agr_bench::zipf::Zipf;
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet_into};
use agr_geom::{CellId, Point};
use agr_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct sealed indices the zipfian sampler draws from.
const KEY_SPACE: usize = 50_000;
/// Zipf exponent — the classic "web-like" skew.
const ZIPF_S: f64 = 0.99;
/// Cells the keys spread over (forwards shuffle records between them).
const CELLS: u32 = 16;
/// Frames per pipelined window in the UDP arm — sized to stay well
/// inside default socket buffers.
const UDP_WINDOW: usize = 32;
/// Socket poll granularity of the UDP arm (server and clients).
const UDP_POLL: Duration = Duration::from_millis(20);

/// The sealed index for `rank` — 16 opaque bytes, like a truncated
/// `E_KB(A,B)` block.
fn index_of(rank: usize) -> Vec<u8> {
    let mut index = vec![0u8; 16];
    index[..8].copy_from_slice(&(rank as u64).to_be_bytes());
    index[8..].copy_from_slice(&(!(rank as u64)).wrapping_mul(0x9E37_79B9).to_be_bytes());
    index
}

/// Each rank lives in a deterministic home cell.
fn cell_of(rank: usize) -> CellId {
    CellId {
        col: (rank as u32) % CELLS,
        row: ((rank as u32) / CELLS) % CELLS,
    }
}

/// One operation of the standard mix: 70% updates, 29% queries, 1%
/// forwards, zipfian-keyed.
fn mixed_request(zipf: &Zipf, rng: &mut StdRng) -> Request {
    let rank = zipf.sample(rng);
    let cell = cell_of(rank);
    let index = index_of(rank);
    match rng.random_range(0u32..100) {
        0..=69 => Request::Update {
            cell,
            pairs: vec![AlsPair {
                index,
                payload: vec![0xC5; 48],
            }],
        },
        70..=98 => Request::Query {
            cell,
            index,
            reply_loc: Point::ORIGIN,
        },
        _ => Request::Forward {
            from_cell: cell,
            to_cell: CellId {
                col: rng.random_range(0u32..CELLS),
                row: rng.random_range(0u32..CELLS),
            },
            pairs: vec![AlsPair {
                index,
                payload: vec![0xC5; 48],
            }],
        },
    }
}

/// Runs `ops` mixed fire-and-forget operations against `engine` from
/// one producer thread, one `submit` per op. Queries ride the queues
/// unanswered — the worker still performs every lookup (the store's
/// counters record it), but no reply channel throttles the producer,
/// so the worker pool stays the bottleneck. Returns the op count.
fn produce(engine: &Engine, zipf: &Zipf, seed: u64, ops: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ops {
        engine.submit(mixed_request(zipf, &mut rng));
    }
    ops
}

/// Times `samples` blocking query round-trips on an otherwise idle
/// engine — the uncongested request-pipeline service latency (during
/// the throughput phase a reply would mostly measure queue depth).
/// Returns the nanosecond latencies as a telemetry histogram (shared
/// with every other percentile in the workspace; log2-bucketed, so
/// reported quantiles are bucket upper bounds).
fn measure_latency(engine: &Engine, zipf: &Zipf, seed: u64, samples: u64) -> Histogram {
    let mut rng = StdRng::seed_from_u64(seed);
    let latencies = Histogram::new();
    for _ in 0..samples {
        let rank = zipf.sample(&mut rng);
        let request = Request::Query {
            cell: cell_of(rank),
            index: index_of(rank),
            reply_loc: Point::ORIGIN,
        };
        let t0 = Instant::now();
        let _ = engine.call(request);
        latencies.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    latencies
}

struct ConfigResult {
    arm: &'static str,
    shards: usize,
    ops: u64,
    wall_s: f64,
    hits: u64,
    misses: u64,
    p50_us: f64,
    p99_us: f64,
    records: usize,
    serve: Option<ServeStats>,
}

impl ConfigResult {
    fn ops_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn percentile_us(latencies: &Histogram, p: f64) -> f64 {
    latencies.quantile(p) as f64 / 1_000.0
}

/// Engine knobs per arm. The engine arms keep the historical
/// configuration (deep 4096-slot queues, 128-job worker drains) so
/// their numbers stay comparable across revisions. The UDP data plane
/// runs *bounded* 256-slot queues with 1024-job drains: on a single
/// core, a deep queue lets hundreds of thousands of requests go
/// cache-cold between producer and worker, and the resulting misses
/// cost more than the backpressure saves — the shallow queue keeps the
/// in-flight window cache-resident and is worth ~40% throughput.
fn engine_config(shards: usize, queue_depth: usize, batch_max: usize) -> EngineConfig {
    EngineConfig {
        store: StoreConfig {
            shards,
            ttl: None,
            capacity_per_shard: None,
        },
        workers: 4,
        queue_depth,
        batch_max,
        compact_every: None,
        shed_watermark: None,
    }
}

fn eprint_result(result: &ConfigResult) {
    eprintln!(
        "{:>14}: {:>9} ops in {:>7.2}s  {:>10.0} ops/s  \
         query p50 {:>7.1}us p99 {:>8.1}us  hit rate {:.3}",
        result.arm,
        result.ops,
        result.wall_s,
        result.ops_per_sec(),
        result.p50_us,
        result.p99_us,
        result.hits as f64 / (result.hits + result.misses).max(1) as f64,
    );
}

/// Runs one in-process load against a fresh engine with `shards`
/// shards, one `submit` per op.
fn run_engine_config(
    arm: &'static str,
    shards: usize,
    threads: u64,
    total_ops: u64,
    latency_samples: u64,
) -> ConfigResult {
    let engine = Arc::new(Engine::start(engine_config(shards, 4096, 128)));
    let zipf = Arc::new(Zipf::new(KEY_SPACE, ZIPF_S));
    let per_thread = total_ops / threads;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = engine.clone();
            let zipf = zipf.clone();
            std::thread::spawn(move || produce(&engine, &zipf, 0xA15_0000 + t, per_thread))
        })
        .collect();
    let mut ops = 0;
    for h in handles {
        ops += h.join().expect("producer thread panicked");
    }
    // Producers are done but queues may still hold a backlog; a blocking
    // call per shard (FIFO queues) fences until every worker drained its
    // queue, so the measured window covers all submitted work.
    let mut fenced = vec![false; shards];
    for rank in 0..KEY_SPACE {
        let request = Request::Query {
            cell: cell_of(rank),
            index: index_of(rank),
            reply_loc: Point::ORIGIN,
        };
        let shard = engine.store().shard_of(&request.routing_key());
        if !std::mem::replace(&mut fenced[shard], true) {
            let _ = engine.call(request);
            if fenced.iter().all(|f| *f) {
                break;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let latencies = measure_latency(&engine, &zipf, 0x1A7E_ACE5, latency_samples);
    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("producers have joined; this is the sole handle")
    };
    let store = engine.shutdown();
    let stats = store.stats();
    let result = ConfigResult {
        arm,
        shards,
        ops,
        wall_s,
        hits: stats.hits,
        misses: stats.misses,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        records: store.len(),
        serve: None,
    };
    eprint_result(&result);
    result
}

// ---------------------------------------------------------------------
// Multi-process UDP arm
// ---------------------------------------------------------------------

/// Parsed `--udp-client` child-mode arguments, if present.
struct ChildArgs {
    addr: SocketAddr,
    ops: u64,
    seed: u64,
}

fn child_args() -> Option<ChildArgs> {
    let mut addr = None;
    let mut ops = 0u64;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |label: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{label} needs a value"))
        };
        match arg.as_str() {
            "--udp-client" => addr = Some(take("--udp-client").parse().expect("server address")),
            "--ops" => ops = take("--ops").parse().expect("op count"),
            "--seed" => seed = take("--seed").parse().expect("seed"),
            _ => {}
        }
    }
    Some(ChildArgs {
        addr: addr?,
        ops,
        seed,
    })
}

/// Encodes `request` as a uid-tagged wire frame into `out`.
fn encode_request(uid: u64, request: Request, out: &mut Vec<u8>) {
    let kind = match request {
        Request::Update { cell, pairs } => AlsNetKind::Update { cell, pairs },
        Request::Query {
            cell,
            index,
            reply_loc,
        } => AlsNetKind::Request {
            cell,
            index,
            reply_loc,
        },
        Request::Forward {
            from_cell,
            to_cell,
            pairs,
        } => AlsNetKind::Forward {
            from_cell,
            to_cell,
            pairs,
        },
    };
    encode_packet_into(
        &AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::ORIGIN,
            next: Pseudonym::LAST_ATTEMPT,
            uid,
            ttl: 1,
            kind,
        }),
        out,
    )
    .expect("loadgen frames always encode");
}

/// Child-process body: pipelines `ops` mixed requests to the server in
/// uid-matched windows of [`UDP_WINDOW`] frames — send the window's
/// unanswered frames, drain answers, re-send survivors until the window
/// completes — over the batch calls (`sendmmsg`/`recvmmsg` on Linux).
/// Lost datagrams are re-sent with their original uids, so the server's
/// idempotent-enough mix absorbs retries and the pipeline never wedges.
fn run_udp_child(args: &ChildArgs) {
    let mut client = UdpClient::connect_with(args.addr, UDP_POLL).expect("connect to server");
    let zipf = Zipf::new(KEY_SPACE, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut next_uid = 1u64;
    let mut done = 0u64;
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); UDP_WINDOW];
    while done < args.ops {
        let n = usize::try_from(args.ops - done).map_or(UDP_WINDOW, |left| left.min(UDP_WINDOW));
        let first_uid = next_uid;
        for frame in frames.iter_mut().take(n) {
            encode_request(next_uid, mixed_request(&zipf, &mut rng), frame);
            next_uid += 1;
        }
        let mut answered = vec![false; n];
        let mut pending = n;
        let mut rounds = 0u32;
        while pending > 0 {
            rounds += 1;
            assert!(rounds <= 100, "server stopped answering the window");
            let refs: Vec<&[u8]> = frames
                .iter()
                .take(n)
                .zip(&answered)
                .filter(|(_, done)| !**done)
                .map(|(f, _)| f.as_slice())
                .collect();
            let _ = client.send_batch(&refs);
            // Drain until the window completes or the poll goes idle
            // (timeout => re-send what is still unanswered).
            loop {
                let mut got_uids: Vec<u64> = Vec::new();
                let drained = client.recv_batch_with(UDP_WINDOW, &mut |bytes| {
                    if let Ok(AgfwPacket::Als(m)) = decode_packet(bytes) {
                        got_uids.push(m.uid);
                    }
                });
                for uid in got_uids {
                    let Some(slot) = uid.checked_sub(first_uid).map(|s| s as usize) else {
                        continue;
                    };
                    if slot < n && !std::mem::replace(&mut answered[slot], true) {
                        pending -= 1;
                    }
                }
                match drained {
                    Ok(_) if pending == 0 => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        done += n as u64;
    }
    println!("child_ok ops={done}");
}

/// Runs the UDP arm: a real server socket behind `serve_batched`,
/// hammered by `children` re-execed client processes.
fn run_udp_config(children: u64, total_ops: u64, latency_samples: u64) -> ConfigResult {
    let engine = Arc::new(Engine::start(engine_config(4, 256, 1024)));
    let mut server = UdpServer::bind_with(("127.0.0.1", 0), UDP_POLL).expect("bind server");
    let addr = server.local_addr().expect("server addr");
    let stop = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server, BatchConfig::default(), &stop)
        })
    };

    let exe = std::env::current_exe().expect("own executable path");
    let per_child = total_ops / children.max(1);
    let t0 = Instant::now();
    let spawned: Vec<_> = (0..children)
        .map(|c| {
            Command::new(&exe)
                .arg("--udp-client")
                .arg(addr.to_string())
                .arg("--ops")
                .arg(per_child.to_string())
                .arg("--seed")
                .arg((0xD1A_7000 + c).to_string())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn udp client child")
        })
        .collect();
    let mut ops = 0u64;
    for child in spawned {
        let out = child.wait_with_output().expect("child wait");
        assert!(out.status.success(), "udp client child failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let reported = stdout
            .lines()
            .find_map(|l| l.strip_prefix("child_ok ops=").and_then(|v| v.parse().ok()))
            .unwrap_or(0u64);
        assert_eq!(reported, per_child, "child must finish its share");
        ops += reported;
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Idle single-frame query latency through the same socket path.
    let zipf = Zipf::new(KEY_SPACE, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(0x1A7E_ACE5);
    let mut lat_client =
        AlsClient::new(UdpClient::connect_with(addr, UDP_POLL).expect("connect latency client"));
    let latencies = Histogram::new();
    for _ in 0..latency_samples {
        let rank = zipf.sample(&mut rng);
        let t = Instant::now();
        let _ = lat_client.query(cell_of(rank), index_of(rank));
        latencies.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    stop.store(true, Ordering::Release);
    let serve_stats = serve_thread.join().expect("serve loop must not panic");
    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("serve thread joined; this is the sole handle")
    };
    let store = engine.shutdown();
    let stats = store.stats();
    let result = ConfigResult {
        arm: "udp_batched",
        shards: 4,
        ops,
        wall_s,
        hits: stats.hits,
        misses: stats.misses,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        records: store.len(),
        serve: Some(serve_stats),
    };
    eprint_result(&result);
    result
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// `engine_4shard` ops/sec over `engine_1shard` (0 when either arm was
/// filtered out of the run).
fn shard_speedup(results: &[ConfigResult]) -> f64 {
    let by_arm = |arm: &str| results.iter().find(|r| r.arm == arm);
    match (by_arm("engine_4shard"), by_arm("engine_1shard")) {
        (Some(n), Some(d)) if d.ops_per_sec() > 0.0 => n.ops_per_sec() / d.ops_per_sec(),
        _ => 0.0,
    }
}

fn render(threads: u64, results: &[ConfigResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bin\": \"als_loadgen\",");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", git_sha());
    let _ = writeln!(out, "  \"generated_at\": \"{}\",", iso_timestamp());
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"key_space\": {KEY_SPACE},");
    let _ = writeln!(out, "  \"zipf_s\": {ZIPF_S},");
    let _ = writeln!(out, "  \"udp_window\": {UDP_WINDOW},");
    let total: u64 = results.iter().map(|r| r.ops).sum();
    let _ = writeln!(out, "  \"total_ops\": {total},");
    let _ = writeln!(out, "  \"configs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"arm\": \"{}\",", r.arm);
        let _ = writeln!(out, "      \"shards\": {},", r.shards);
        let _ = writeln!(out, "      \"ops\": {},", r.ops);
        let _ = writeln!(out, "      \"wall_s\": {:.6},", r.wall_s);
        let _ = writeln!(out, "      \"ops_per_sec\": {:.1},", r.ops_per_sec());
        let _ = writeln!(out, "      \"query_p50_us\": {:.2},", r.p50_us);
        let _ = writeln!(out, "      \"query_p99_us\": {:.2},", r.p99_us);
        let _ = writeln!(out, "      \"hits\": {},", r.hits);
        let _ = writeln!(out, "      \"misses\": {},", r.misses);
        if let Some(s) = &r.serve {
            let _ = writeln!(out, "      \"serve_batches\": {},", s.batches);
            let _ = writeln!(
                out,
                "      \"frames_per_batch_p50\": {},",
                s.frames_per_batch_p50
            );
            let _ = writeln!(
                out,
                "      \"frames_per_batch_p99\": {},",
                s.frames_per_batch_p99
            );
            let _ = writeln!(out, "      \"pool_hits\": {},", s.pool_hits);
            let _ = writeln!(out, "      \"pool_misses\": {},", s.pool_misses);
        }
        let _ = writeln!(out, "      \"records\": {}", r.records);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"speedup_4shard_over_1shard\": {:.3},",
        shard_speedup(results)
    );
    let peak = results
        .iter()
        .map(ConfigResult::ops_per_sec)
        .fold(0.0f64, f64::max);
    let _ = writeln!(out, "  \"peak_ops_per_sec\": {peak:.1}");
    let _ = writeln!(out, "}}");
    out
}

/// Output path: `--out`/`--bench-json` flag, `AGR_BENCH_JSON`, else
/// `results/BENCH_als.json`.
fn out_path() -> PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" || arg == "--bench-json" {
            if let Some(p) = args.next() {
                return PathBuf::from(p);
            }
        }
    }
    std::env::var("AGR_BENCH_JSON")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .map_or_else(|| PathBuf::from("results/BENCH_als.json"), PathBuf::from)
}

fn main() {
    if let Some(args) = child_args() {
        run_udp_child(&args);
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let per_config = env_u64("AGR_ALS_OPS").unwrap_or(if quick { 100_000 } else { 1_250_000 });
    let udp_ops = env_u64("AGR_ALS_UDP_OPS").unwrap_or(if quick { 30_000 } else { 240_000 });
    let threads = env_u64("AGR_ALS_THREADS").unwrap_or(4).max(1);
    let children = env_u64("AGR_ALS_THREADS").unwrap_or(2).clamp(1, 8);
    eprintln!(
        "als_loadgen: {per_config} ops/engine arm, {udp_ops} ops/udp arm, \
         {threads} client threads, {KEY_SPACE} keys (zipf s={ZIPF_S})"
    );
    let latency_samples = if quick { 5_000 } else { 25_000 };
    let udp_latency_samples = if quick { 500 } else { 2_000 };
    let arm_filter = std::env::var("AGR_ALS_ARMS").ok();
    let wanted = |arm: &str| {
        arm_filter
            .as_deref()
            .is_none_or(|list| list.split(',').any(|a| a.trim() == arm))
    };
    let mut results = Vec::new();
    for (arm, shards) in [("engine_1shard", 1), ("engine_4shard", 4)] {
        if wanted(arm) {
            results.push(run_engine_config(
                arm,
                shards,
                threads,
                per_config,
                latency_samples,
            ));
        }
    }
    if wanted("udp_batched") {
        results.push(run_udp_config(children, udp_ops, udp_latency_samples));
    }
    eprintln!(
        "4-shard speedup over 1-shard: {:.2}x",
        shard_speedup(&results)
    );
    let path = out_path();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&path, render(threads, &results)).expect("write BENCH_als.json");
    eprintln!("bench json: {}", path.display());
}
