//! The ALS ladder: one seeded operation stream replayed at every rung
//! from the bare store up to the replicated cluster.
//!
//! Each rung adds one module to the one below it, so the drop between
//! two rungs is charged to what was added:
//!
//! | rung | drives | adds |
//! |---|---|---|
//! | `store` | `ShardedStore::apply_batch` / `query` | `store` (+ `core.als`) |
//! | `engine` | `Engine::call` / `call_batch_admitted` | `pipeline` (queues, workers) |
//! | `loopback` | `serve_batched` over `loopback_pair` | `service` + `core.wire` |
//! | `udp` | `serve_batched` over `UdpServer` | `transport` / `mmsg` (syscalls) |
//! | `cluster_r1` | `ClusterClient`, 1 node, R = 1 | `cluster` client (ring, detector) |
//! | `cluster_r2` | `ClusterClient`, 3 nodes, R = 2 | replication fan-out |
//!
//! Two modes per rung: one op in flight (`ns_per_op`, the latency view)
//! and a window of 32 (`ops_per_s_w32`, the throughput view).
//! `ClusterClient` runs one operation at a time and has no pipelined
//! call, so the two cluster rungs have no window-32 mode: that number is
//! not obtainable through the public API and is not reported.

use crate::als::{self, Server, Stream, WINDOW};
use crate::cluster::{self, Driver};
use crate::plan::{self, Mix, Op, OpKind};
use crate::report::Outcome;
use agr_als_service::cluster::{ClientConfig, Cluster};
use agr_als_service::pipeline::{Engine, Request};
use agr_als_service::service::{serve_batched, BatchConfig};
use agr_als_service::store::{cell_key, ShardedStore, StoreConfig, StoreOp};
use agr_als_service::transport::loopback_pair_with;
use agr_sim::SimTime;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The saturation workload's traffic and store, at every rung.
const MIX: Mix = als::SAT_MIX;
const STORE: StoreConfig = als::SAT_STORE;

/// How long each rung runs in each mode.
const RUNG: Duration = Duration::from_millis(350);
const PLAN_OPS: usize = 1 << 18;
const POLL: Duration = Duration::from_millis(20);

/// Operations per second when `run` is handed the stream in groups of
/// `group` (with the first one's sequence number) until [`RUNG`] has
/// passed.
fn rate(plan: &[Op], group: usize, mut run: impl FnMut(&[Op], u64)) -> f64 {
    let started = Instant::now();
    let mut seq = 0u64;
    while started.elapsed() < RUNG {
        let at = (seq % plan.len() as u64) as usize;
        let chunk = &plan[at..(at + group).min(plan.len())];
        run(chunk, seq);
        seq += chunk.len() as u64;
    }
    seq as f64 / started.elapsed().as_secs_f64()
}

/// Applies a group of ops straight to the store, the way an engine
/// worker does: consecutive writes coalesce into one `apply_batch`, a
/// query or a forward's removal cuts the run.
fn store_group(store: &ShardedStore, chunk: &[Op], first_seq: u64, now: SimTime) {
    let mut pending: Vec<StoreOp> = Vec::new();
    let flush = |pending: &mut Vec<StoreOp>| {
        if !pending.is_empty() {
            store.apply_batch(std::mem::take(pending), now, 1);
        }
    };
    for (i, op) in chunk.iter().enumerate() {
        let home = cell_key(MIX.home_cell(op.rank), &plan::index_of(op.rank));
        let payload = plan::payload_of(first_seq + i as u64).to_vec();
        match op.kind {
            OpKind::Update => pending.push((home, payload)),
            OpKind::Query => {
                flush(&mut pending);
                black_box(store.query(&home, now));
            }
            OpKind::Forward => {
                flush(&mut pending);
                black_box(store.remove(&home));
                let to = MIX.cell_from_code(op.to_cell);
                pending.push((cell_key(to, &plan::index_of(op.rank)), payload));
            }
        }
    }
    flush(&mut pending);
}

fn requests(chunk: &[Op], first_seq: u64) -> Vec<Request> {
    chunk
        .iter()
        .enumerate()
        .map(|(i, &op)| MIX.request(op, first_seq + i as u64))
        .collect()
}

/// Both modes of a rung whose client side is a [`als::closed_loop`]
/// transport: `(ops/s with one in flight, ops/s with a window of 32)`.
fn closed_loop_rates<T: agr_als_service::Transport>(
    transport: &mut T,
    plan: &[Op],
    failed: &mut u64,
) -> (f64, f64) {
    let mut stream = Stream {
        mix: &MIX,
        plan,
        next_seq: 0,
        resent: Vec::new(),
    };
    let mut mode = |window: usize| {
        let w = als::closed_loop(transport, &mut stream, window, Instant::now() + RUNG, None);
        *failed += w.failed + w.bad_replies;
        w.ops_per_s()
    };
    (mode(1), mode(WINDOW))
}

/// Runs the six rungs and fills `ladder.*`.
pub fn run(outcome: &mut Outcome, seed: u64) {
    if let Err(e) = run_inner(outcome, seed) {
        outcome.violations.push(format!("ladder: {e}"));
    }
}

fn run_inner(outcome: &mut Outcome, seed: u64) -> io::Result<()> {
    let plan = MIX.plan(seed, PLAN_OPS);
    let mut failed = 0u64;
    let mut rungs: Vec<(&str, f64, Option<f64>)> = Vec::new();

    let now = SimTime::from_secs(1);
    let store = ShardedStore::new(&STORE);
    let one = rate(&plan, 1, |chunk, seq| store_group(&store, chunk, seq, now));
    let w32 = rate(&plan, WINDOW, |chunk, seq| {
        store_group(&store, chunk, seq, now);
    });
    rungs.push(("store", one, Some(w32)));

    let engine = Engine::start(als::engine_config(STORE));
    let one = rate(&plan, 1, |chunk, seq| {
        black_box(engine.call(MIX.request(chunk[0], seq)));
    });
    let w32 = rate(&plan, WINDOW, |chunk, seq| {
        black_box(engine.call_batch_admitted(requests(chunk, seq)));
    });
    drop(engine.shutdown());
    rungs.push(("engine", one, Some(w32)));

    {
        let engine = Arc::new(Engine::start(als::engine_config(STORE)));
        let (mut client, mut server) = loopback_pair_with(256, POLL);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || {
                serve_batched(&engine, &mut server, BatchConfig::default(), &stop)
            })
        };
        let (one, w32) = closed_loop_rates(&mut client, &plan, &mut failed);
        stop.store(true, Ordering::Release);
        drop(client);
        thread.join().expect("serve loop must not panic");
        rungs.push(("loopback", one, Some(w32)));
    }

    {
        let server = Server::start_ready(STORE)?;
        let mut client = agr_als_service::UdpClient::connect_with(server.addr, POLL)?;
        let (one, w32) = closed_loop_rates(&mut client, &plan, &mut failed);
        server.stop();
        rungs.push(("udp", one, Some(w32)));
    }

    for (name, nodes, replication) in [("cluster_r1", 1, 1), ("cluster_r2", 3, 2)] {
        let ring = Cluster::launch(cluster::cluster_config(nodes, replication))?;
        let mut driver = Driver::new(ring.client_with(ClientConfig::default())?, &MIX, &plan);
        let w = driver.run_until(Instant::now() + RUNG, None);
        failed += w.failed;
        drop(driver);
        drop(ring.shutdown());
        rungs.push((name, w.ops_per_s(), None));
    }

    for (name, one, w32) in rungs {
        outcome
            .per_layer
            .set(&format!("ladder.{name}.ns_per_op"), 1e9 / one);
        if let Some(w32) = w32 {
            outcome
                .per_layer
                .set(&format!("ladder.{name}.ops_per_s_w32"), w32);
        }
    }
    outcome.check(failed == 0, || {
        format!("{failed} ladder operations failed or were answered wrongly")
    });
    Ok(())
}
