//! The replicated-cluster workload, `cluster_r2`.
//!
//! `Cluster::launch` with 3 nodes and R = 2 (default batched serve
//! loops, one engine worker per node, no journal, no chaos, no kills),
//! driven by one `ClusterClient` with its default configuration
//! (heartbeat every 64 ops) in a **closed loop with one op in flight**:
//! 70 % replicated updates, 30 % ring queries, 4 096 Zipf keys over 8×8
//! cells. This is the rung where single-node throughput halves:
//! replication fan-out, ring lookup, failure-detector heartbeats and
//! per-peer sockets dominate, so a single-node data-plane gain should
//! move it less than proportionally.

use crate::als::{self, Window};
use crate::plan::{self, Mix, Op, OpKind};
use crate::report::{peak_rss_mb, Outcome, RunArgs};
use crate::spec::Spec;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use agr_als_service::cluster::{ClientConfig, Cluster, ClusterClient, ClusterConfig};
use agr_als_service::pipeline::EngineConfig;
use agr_als_service::service::ServeStats;
use agr_als_service::store::StoreConfig;
use agr_core::als::AlsStoreStats;
use agr_core::packet::AlsPair;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

const MIX: Mix = Mix {
    update_pct: 70,
    query_pct: 30,
    keys: 4_096,
    zipf_s: 0.99,
    side: 8,
};

const WINDOWS: u32 = 5;
const WARMUP: Duration = Duration::from_secs(2);
const PLAN_OPS: usize = 1 << 20;
/// Set-ups (launch + client connect) timed per run.
const SETUPS: usize = 5;
/// Anti-entropy rounds the final quiesce may take.
const QUIESCE_ROUNDS: usize = 8;

/// A ring of `nodes` nodes with `replication` owners per cell; every
/// knob the issue does not fix keeps the cluster's default.
pub fn cluster_config(nodes: usize, replication: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        replication,
        engine: EngineConfig {
            store: StoreConfig {
                shards: 2,
                ttl: None,
                capacity_per_shard: None,
            },
            workers: 1,
            queue_depth: 256,
            batch_max: 1024,
            compact_every: None,
            shed_watermark: None,
        },
        ..ClusterConfig::default()
    }
}

fn describe() -> String {
    format!(
        "cluster_r2 {} nodes=3 replication=2 engine=workers:1/shards:2/queue:256/batch_max:1024 \
         serve=batched(default) journal=off chaos=off client=default(ping_every:64) \
         loop=closed/in_flight:1/clients:1 windows={WINDOWS} warmup_s={} plan_ops={PLAN_OPS}",
        MIX.describe(),
        WARMUP.as_secs()
    )
}

/// Store operations applied so far, summed over every node.
fn store_ops(cluster: &Cluster, nodes: usize) -> u64 {
    (0..nodes)
        .filter_map(|node| cluster.engine(node))
        .map(|engine| als::store_ops(&engine.store().stats()))
        .sum()
}

/// What the single sequential client knows the cluster must hold.
#[derive(Default)]
struct Ledger {
    /// Key rank → sequence number of its last *fully acked* write, or
    /// `None` once a write to it was only partially acked.
    last: HashMap<u32, Option<u64>>,
    wrong_reads: u64,
}

/// One op in flight through a `ClusterClient`: the closed loop of this
/// workload and of the ladder's cluster rungs.
pub struct Driver<'a> {
    pub client: ClusterClient,
    pub mix: &'a Mix,
    pub plan: &'a [Op],
    pub next_seq: u64,
    ledger: Ledger,
}

impl<'a> Driver<'a> {
    pub fn new(client: ClusterClient, mix: &'a Mix, plan: &'a [Op]) -> Driver<'a> {
        Driver {
            client,
            mix,
            plan,
            next_seq: 0,
            ledger: Ledger::default(),
        }
    }

    /// Runs sequential operations until `deadline`. With a tracer, every
    /// call is a span named after its kind, under `window`.
    pub fn run_until(&mut self, deadline: Instant, mut tracer: Option<&mut Tracer>) -> Window {
        let mut out = Window::default();
        let window = tracer.as_deref_mut().map(|t| t.open("window", None, 0));
        let misses0 = self.client.stats().deadline_misses;
        let retries0 = self.client.stats().retries;
        let started = Instant::now();
        while Instant::now() < deadline {
            let seq = self.next_seq;
            self.next_seq += 1;
            let op = self.plan[(seq % self.plan.len() as u64) as usize];
            let cell = self.mix.home_cell(op.rank);
            let index = plan::index_of(op.rank);
            let t0 = Instant::now();
            let ok = match op.kind {
                // `ClusterClient` has no forward call: a forward in the
                // stream is replayed as the update it carries.
                OpKind::Update | OpKind::Forward => {
                    let acked = self
                        .client
                        .update(
                            cell,
                            vec![AlsPair {
                                index: index.to_vec(),
                                payload: plan::payload_of(seq).to_vec(),
                            }],
                        )
                        .fully_acked();
                    self.ledger.last.insert(op.rank, acked.then_some(seq));
                    acked
                }
                OpKind::Query => {
                    let answer = self.client.query(cell, &index);
                    // One client, one op in flight: a query must see the
                    // last fully acked write of its key, exactly.
                    if let Some(&Some(expected)) = self.ledger.last.get(&op.rank) {
                        let got = answer.payload.as_deref().and_then(plan::seq_of);
                        if answer.answered > 0 && got != Some(expected) {
                            self.ledger.wrong_reads += 1;
                        }
                    }
                    answer.answered > 0
                }
            };
            let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let (Some(t), Some(window)) = (tracer.as_deref_mut(), window) {
                let end = t.now_ns();
                let name = if op.kind == OpKind::Query {
                    "cluster.query"
                } else {
                    "cluster.update"
                };
                t.record(
                    name,
                    Some(window),
                    seq + 1,
                    end.saturating_sub(latency_ns),
                    end,
                );
            }
            if ok {
                // A forward was replayed as an update: time it as one.
                let kind = if op.kind == OpKind::Query {
                    OpKind::Query
                } else {
                    OpKind::Update
                };
                out.note(kind, latency_ns);
            } else {
                out.failed += 1;
            }
        }
        out.seconds = started.elapsed().as_secs_f64();
        if let (Some(t), Some(window)) = (tracer, window) {
            t.close(window);
        }
        let stats = self.client.stats();
        out.resends = stats.retries - retries0;
        // A deadline miss on an op that still resolved is a failure too.
        out.failed = out.failed.max(stats.deadline_misses - misses0);
        out
    }
}

pub fn run(args: &RunArgs, spec: &Spec) -> Outcome {
    let mut outcome = Outcome::new("cluster_r2", describe(), spec);
    if let Err(e) = run_inner(args, &mut outcome) {
        outcome.violations.push(format!("cluster error: {e}"));
    }
    outcome
}

fn run_inner(args: &RunArgs, outcome: &mut Outcome) -> io::Result<()> {
    let config = cluster_config(3, 2);
    // A set-up is everything before the first measured operation:
    // generate the stream, launch the ring, connect the client.
    let timed_setup = || -> io::Result<(Vec<Op>, Cluster, ClusterClient, f64)> {
        let t0 = Instant::now();
        let plan = MIX.plan(args.seed, PLAN_OPS);
        let cluster = Cluster::launch(config.clone())?;
        let client = cluster.client_with(ClientConfig::default())?;
        Ok((plan, cluster, client, t0.elapsed().as_secs_f64()))
    };
    let (plan, mut cluster, client, first_setup_s) = timed_setup()?;
    let mut driver = Driver::new(client, &MIX, &plan);
    let mut tracer = Tracer::new();

    let run_window = |driver: &mut Driver<'_>,
                      cluster: &Cluster,
                      length: Duration,
                      tracer: Option<&mut Tracer>| {
        let ops0 = store_ops(cluster, 3);
        let mut window = driver.run_until(Instant::now() + length, tracer);
        window.store_ops = store_ops(cluster, 3) - ops0;
        window
    };
    let warmup = run_window(&mut driver, &cluster, WARMUP, None);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        let length = Duration::from_secs_f64((args.seconds as f64 / 4.0).min(2.0));
        for _ in 0..2 {
            plain.push(run_window(&mut driver, &cluster, length, None));
            traced.push(run_window(&mut driver, &cluster, length, Some(&mut tracer)));
        }
    } else {
        let length = Duration::from_secs_f64(args.seconds as f64 / f64::from(WINDOWS));
        for _ in 0..WINDOWS {
            plain.push(run_window(&mut driver, &cluster, length, None));
        }
    }

    let peak_rss_mb = peak_rss_mb();
    // Convergence: one timed anti-entropy round, then quiesce, then every
    // fully acked key must be readable from each of its owners.
    let cells = MIX.all_cells();
    let t0 = Instant::now();
    cluster.sync_round(&cells)?;
    let sync_round_ms = t0.elapsed().as_secs_f64() * 1e3;
    let quiesced = cluster.quiesce(&cells, QUIESCE_ROUNDS)?;
    outcome.check(quiesced.is_some(), || {
        format!("anti-entropy did not quiesce within {QUIESCE_ROUNDS} rounds")
    });
    outcome.check(cluster.digests_agree(&cells), || {
        "owner digests disagree after quiesce".to_string()
    });
    let ring = cluster.ring();
    let mut unreadable = 0u64;
    let mut acked_keys = 0u64;
    for (&rank, &last) in &driver.ledger.last {
        let Some(seq) = last else { continue };
        acked_keys += 1;
        let cell = MIX.home_cell(rank);
        for node in ring.owners(cell, 2) {
            let got = driver.client.query_node(node, cell, &plan::index_of(rank));
            if got.as_deref().and_then(plan::seq_of) != Some(seq) {
                unreadable += 1;
            }
        }
    }
    outcome.check(unreadable == 0, || {
        format!("{unreadable} (key, owner) pairs did not return the last fully acked write")
    });
    outcome.check(driver.ledger.wrong_reads == 0, || {
        format!(
            "{} queries returned something other than the last fully acked write",
            driver.ledger.wrong_reads
        )
    });
    let client_stats = driver.client.stats();
    // The ring's tallies, folded into one node's worth.
    let mut store_stats = AlsStoreStats::default();
    for engine in (0..3).filter_map(|node| cluster.engine(node)) {
        store_stats.merge(&engine.store().stats());
    }
    let mut serve = ServeStats::default();
    for node in cluster.shutdown() {
        serve.merge(&node);
    }
    let all: Vec<&Window> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let failed: u64 = all.iter().map(|w| w.failed).sum();
    outcome.notes.push(format!(
        "{acked_keys} fully acked keys read back from both owners, {unreadable} wrong; \
         quiesced in {quiesced:?} rounds; {} pings, {} retries",
        client_stats.pings, client_stats.retries
    ));

    if args.trace {
        let completed: u64 = all.iter().map(|w| w.completed).sum();
        outcome.attempted = completed + failed;
        outcome.failed = failed;
        let layers = &mut outcome.per_layer;
        layers.set("als-service.cluster.retries", client_stats.retries as f64);
        layers.set("als-service.cluster.pings", client_stats.pings as f64);
        layers.set(
            "als-service.cluster.deadline_misses",
            client_stats.deadline_misses as f64,
        );
        layers.set("als-service.cluster.sync_round_ms", sync_round_ms);
        als::server_layers(layers, &serve, &store_stats);
        // `ClusterClient` encodes, sends, waits and decodes inside one
        // call, so from outside only the whole call is a span; the four
        // `client.*_ns` phases stay 0 on this workload.
        als::client_layers(layers, &tracer, &traced);
        let median =
            |ws: &[Window]| stats::median(&ws.iter().map(Window::ops_per_s).collect::<Vec<_>>());
        layers.set(
            "trace.overhead_fraction",
            1.0 - median(&traced) / median(&plain),
        );
        crate::write_trace("cluster_r2", &tracer, outcome);
    } else {
        // The other set-ups are timed only now, so that their churn is
        // not in the workload's peak RSS.
        let mut setups = vec![first_setup_s];
        while setups.len() < SETUPS {
            let (_plan, cluster, client, setup_s) = timed_setup()?;
            setups.push(setup_s);
            drop(client);
            drop(cluster.shutdown());
        }
        als::window_metrics(outcome, Summary::of(&setups), &plain, peak_rss_mb);
    }
    Ok(())
}
