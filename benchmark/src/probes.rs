//! Unit-cost probes: one public function of one layer, timed alone.
//!
//! A probe answers "what does this layer charge per operation", so that
//! when an end-to-end number moves the trace can say which layer paid.
//! Each probe runs five timed batches after one warm-up batch and
//! reports the median batch mean; inputs and results pass through
//! `black_box`. Probes are workload-independent and run in every traced
//! run.
//!
//! Two metrics the issue names are *not* here: `sim.phy.start_tx_ns` and
//! `sim.phy.rx_end_ns`. `agr_sim::phy::Phy` is `pub(crate)`, and this
//! benchmark measures layers only through their public functions; they
//! become measurable when a later change puts spans inside `agr-sim`.

use crate::plan::{self, Mix, Op, OpKind};
use crate::spec::MetricSet;
use crate::stats;
use agr_als_service::journal::{Journal, JournalConfig};
use agr_als_service::pipeline::{Engine, EngineConfig};
use agr_als_service::pool::FramePool;
use agr_als_service::ring::Ring;
use agr_als_service::service::ServeStats;
use agr_als_service::store::{cell_key, ShardedStore, StoreConfig};
use agr_core::aant::AantConfig;
use agr_core::als::{AlsServer, AlsStoreConfig};
use agr_core::ant::{AnonymousNeighborTable, SelectionStrategy};
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet_into};
use agr_crypto::ring_sig::{ring_sign, ring_verify};
use agr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use agr_crypto::sha256::Sha256;
use agr_crypto::trapdoor::Trapdoor;
use agr_geom::{CellId, Point, Rect};
use agr_gpsr::Neighbor;
use agr_sim::engine::{Event, EventQueue};
use agr_sim::mobility::MobilityState;
use agr_sim::spatial::NeighborGrid;
use agr_sim::{MobilityParams, NodeId, SimTime};
use agr_telemetry::{Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

const BATCHES: usize = 5;

/// Mean nanoseconds per call of `f`: median over [`BATCHES`] batches of
/// `iters` calls, after one discarded batch.
fn time_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batch = |f: &mut dyn FnMut(usize)| {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    batch(&mut f);
    let means: Vec<f64> = (0..BATCHES).map(|_| batch(&mut f)).collect();
    stats::median(&means)
}

/// Unit costs of the `agr-crypto` operations the AANT workload performs.
#[derive(Debug, Clone, Copy)]
pub struct CryptoCosts {
    pub keygen_ms: f64,
    pub encrypt_us: f64,
    pub decrypt_us: f64,
    pub verify_us: f64,
    pub ring_sign_us: f64,
    pub ring_verify_us: f64,
    pub seal_us: f64,
    pub open_us: f64,
    /// A trapdoor that is *not* ours: decrypts, then fails the padding
    /// check. This is what every overhearing node pays.
    pub open_miss_us: f64,
    pub sha256_mb_per_s: f64,
}

/// Measures the crypto unit costs once per process (the AANT workload
/// needs them for `crypto.est_share` before the other probes run).
pub fn crypto_costs() -> &'static CryptoCosts {
    static COSTS: OnceLock<CryptoCosts> = OnceLock::new();
    COSTS.get_or_init(measure_crypto)
}

fn measure_crypto() -> CryptoCosts {
    let mut rng = StdRng::seed_from_u64(0xC0575);
    let keygen_ms = time_ns(4, |_| {
        black_box(RsaKeyPair::generate(512, &mut rng).expect("keygen"));
    }) / 1e6;
    let ring_size = AantConfig::default().ring_size;
    let keys: Vec<RsaKeyPair> = (0..ring_size)
        .map(|_| RsaKeyPair::generate(512, &mut rng).expect("keygen"))
        .collect();
    let ring: Vec<&RsaPublicKey> = keys.iter().map(RsaKeyPair::public).collect();
    let me = &keys[0];
    let message = [0x5au8; 24];

    let encrypt_us = time_ns(300, |_| {
        black_box(
            me.public()
                .encrypt(black_box(&message), &mut rng)
                .expect("fits"),
        );
    }) / 1e3;
    let ciphertext = me.public().encrypt(&message, &mut rng).expect("fits");
    let decrypt_us = time_ns(100, |_| {
        black_box(me.decrypt(black_box(&ciphertext)).expect("ours"));
    }) / 1e3;
    let signature = me.sign(&message);
    let verify_us = time_ns(300, |_| {
        me.public()
            .verify(black_box(&message), &signature)
            .expect("valid");
    }) / 1e3;

    let ring_sign_us = time_ns(40, |_| {
        black_box(ring_sign(black_box(&message), &ring, 0, me, &mut rng).expect("signs"));
    }) / 1e3;
    let ring_signature = ring_sign(&message, &ring, 0, me, &mut rng).expect("signs");
    let ring_verify_us = time_ns(100, |_| {
        ring_verify(black_box(&message), &ring, &ring_signature).expect("verifies");
    }) / 1e3;

    let loc = Point::new(750.0, 150.0);
    let seal_us = time_ns(300, |_| {
        black_box(Trapdoor::seal(me.public(), 7, loc, &mut rng).expect("seals"));
    }) / 1e3;
    let trapdoor = Trapdoor::seal(me.public(), 7, loc, &mut rng).expect("seals");
    let open_us = time_ns(100, |_| {
        black_box(black_box(&trapdoor).try_open(me).expect("ours"));
    }) / 1e3;
    let other = &keys[1];
    let open_miss_us = time_ns(100, |_| {
        black_box(black_box(&trapdoor).try_open(other));
    }) / 1e3;

    let block = vec![0xabu8; 64 * 1024];
    let sha_ns = time_ns(40, |_| {
        black_box(Sha256::digest(black_box(&block)));
    });
    CryptoCosts {
        keygen_ms,
        encrypt_us,
        decrypt_us,
        verify_us,
        ring_sign_us,
        ring_verify_us,
        seal_us,
        open_us,
        open_miss_us,
        sha256_mb_per_s: block.len() as f64 / 1e6 / (sha_ns / 1e9),
    }
}

/// Runs every probe and fills its per-layer metric. `scratch_dir` is
/// where the journal probe may write (inside the checkout).
pub fn run_all(layers: &mut MetricSet<f64>, scratch_dir: &Path) {
    sim_probes(layers);
    routing_probes(layers);
    wire_and_store_probes(layers);
    let c = crypto_costs();
    layers.set("crypto.rsa.keygen_ms", c.keygen_ms);
    layers.set("crypto.rsa.encrypt_us", c.encrypt_us);
    layers.set("crypto.rsa.decrypt_us", c.decrypt_us);
    layers.set("crypto.rsa.verify_us", c.verify_us);
    layers.set("crypto.ring_sig.sign_us", c.ring_sign_us);
    layers.set("crypto.ring_sig.verify_us", c.ring_verify_us);
    layers.set("crypto.trapdoor.seal_us", c.seal_us);
    layers.set("crypto.trapdoor.open_us", c.open_us);
    layers.set("crypto.sha256.mb_per_s", c.sha256_mb_per_s);
    service_probes(layers, scratch_dir);
    telemetry_probes(layers);
}

/// The dense workloads' field and population.
const NODES: usize = 150;

fn field() -> Rect {
    Rect::with_size(1500.0, 300.0)
}

fn sim_probes(layers: &mut MetricSet<f64>) {
    let mut rng = StdRng::seed_from_u64(0x51B);
    // Hold model at a steady depth: each op pops the earliest event and
    // pushes one a random delay later. 150 nodes keep a few pending
    // events each (MAC wake-up, hello timer, carrier ends), so ~1k.
    const DEPTH: usize = 1024;
    let mut queue = EventQueue::with_capacity(DEPTH);
    for i in 0..DEPTH {
        queue.push(
            SimTime::from_nanos(rng.random_range(0..1_000_000)),
            Event::TxEnd {
                node: NodeId(i as u32),
            },
        );
    }
    let delays: Vec<u64> = (0..4096).map(|_| rng.random_range(1..2_000_000)).collect();
    layers.set(
        "sim.engine.queue_ns_per_op",
        time_ns(200_000, |i| {
            let (t, event) = queue.pop().expect("the queue never drains");
            queue.push(t + SimTime::from_nanos(delays[i % delays.len()]), event);
        }),
    );

    let area = field();
    let positions: Vec<Point> = (0..NODES)
        .map(|_| area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0)))
        .collect();
    // Cell size as the world computes it: carrier-sense range plus the
    // most a node can move between index refreshes.
    let mut grid = NeighborGrid::new(area, 550.0 + 20.0, &positions);
    layers.set(
        "sim.spatial.candidates_ns",
        time_ns(50_000, |i| {
            black_box(grid.candidates(black_box(positions[i % NODES])));
        }),
    );
    let moved: Vec<Point> = positions
        .iter()
        .map(|p| area.clamp(Point::new(p.x + 600.0, p.y)))
        .collect();
    layers.set(
        "sim.spatial.update_ns",
        time_ns(100_000, |i| {
            // Alternate between two snapshots so every other call
            // crosses a cell boundary.
            let snapshot = if (i / NODES).is_multiple_of(2) {
                &moved
            } else {
                &positions
            };
            grid.update(i % NODES, snapshot[i % NODES]);
        }),
    );

    let params = MobilityParams {
        max_speed: 20.0,
        min_speed: 1.0,
        pause: SimTime::from_secs(60),
    };
    let mut nodes: Vec<MobilityState> = positions.iter().map(|&p| MobilityState::new(p)).collect();
    let mut now_ns = 0u64;
    layers.set(
        "sim.mobility.position_ns",
        time_ns(200_000, |i| {
            // Time only moves forward; 1 ms per query keeps most calls
            // inside a leg (pure interpolation), as in a run.
            now_ns += 1_000_000 / NODES as u64;
            let at = SimTime::from_nanos(now_ns);
            black_box(nodes[i % NODES].position_at(at, &params, area, &mut rng));
        }),
    );
}

fn routing_probes(layers: &mut MetricSet<f64>) {
    // A dense neighbourhood: 40 neighbours, 3 pseudonym aliases each.
    let mut ant =
        AnonymousNeighborTable::new(SimTime::from_millis(4500), SimTime::from_millis(2200));
    let at = |i: u64| Point::new((i * 37 % 500) as f64, (i * 13 % 300) as f64);
    for i in 0..40u64 {
        for generation in 0..3u64 {
            ant.observe(
                Pseudonym::derive(generation, i),
                at(i),
                SimTime::from_millis(1000 + generation * 800),
            );
        }
    }
    let now = SimTime::from_millis(3500);
    let here = Point::new(0.0, 0.0);
    let there = Point::new(1500.0, 300.0);
    layers.set(
        "core.ant.next_hop_ns",
        time_ns(50_000, |_| {
            black_box(ant.next_hop(
                black_box(here),
                there,
                now,
                SelectionStrategy::FreshnessAware,
            ));
        }),
    );
    layers.set(
        "core.ant.observe_ns",
        time_ns(100_000, |i| {
            // Re-observing a known pseudonym: the steady-state hello path.
            let i = i as u64;
            ant.observe(Pseudonym::derive(i % 3, i % 40), at(i % 40), now);
        }),
    );
    let neighbors: Vec<Neighbor> = (0..40u64)
        .map(|i| Neighbor {
            id: NodeId(i as u32),
            pos: at(i),
            heard_at: now,
        })
        .collect();
    layers.set(
        "gpsr.greedy.next_hop_ns",
        time_ns(100_000, |_| {
            black_box(agr_gpsr::greedy::next_hop(
                black_box(here),
                there,
                neighbors.iter().copied(),
            ));
        }),
    );
}

const PROBE_MIX: Mix = Mix {
    update_pct: 100,
    query_pct: 0,
    keys: 50_000,
    zipf_s: 0.99,
    side: 16,
};

fn wire_and_store_probes(layers: &mut MetricSet<f64>) {
    // One 48-byte update and its ack: the frames a saturated server
    // decodes and encodes most.
    let update = Op {
        kind: OpKind::Update,
        rank: 4242,
        to_cell: 0,
    };
    let mut request = Vec::new();
    PROBE_MIX.encode(update, 1, 77, &mut request);
    let Ok(AgfwPacket::Als(request_message)) = decode_packet(&request) else {
        unreachable!("the benchmark's own frame decodes");
    };
    let request_packet = AgfwPacket::Als(request_message);
    let ack_packet = AgfwPacket::Als(AlsNetMessage {
        target_loc: Point::ORIGIN,
        next: Pseudonym::LAST_ATTEMPT,
        uid: 77,
        ttl: 1,
        kind: AlsNetKind::Ack { stored: 1 },
    });
    let mut ack = Vec::new();
    encode_packet_into(&ack_packet, &mut ack).expect("encodes");
    let mut out = Vec::new();
    layers.set(
        "core.wire.encode_ns",
        time_ns(100_000, |_| {
            encode_packet_into(black_box(&request_packet), &mut out).expect("encodes");
            encode_packet_into(black_box(&ack_packet), &mut out).expect("encodes");
        }) / 2.0,
    );
    layers.set(
        "core.wire.decode_ns",
        time_ns(100_000, |_| {
            black_box(decode_packet(black_box(&request)).expect("decodes"));
            black_box(decode_packet(black_box(&ack)).expect("decodes"));
        }) / 2.0,
    );

    let plan = PROBE_MIX.plan(0x570, 1 << 16);
    let keys: Vec<Vec<u8>> = plan
        .iter()
        .map(|op| plan::index_of(op.rank).to_vec())
        .collect();
    let payload = plan::payload_of(1).to_vec();
    let now = SimTime::from_secs(1);
    let mut probe_store = |config: AlsStoreConfig, store_name: &str, query_name: &str| {
        let mut server = AlsServer::with_config(config);
        for key in &keys {
            server.store_at(key.clone(), payload.clone(), now);
        }
        layers.set(
            store_name,
            time_ns(keys.len(), |i| {
                server.store_at(keys[i].clone(), payload.clone(), now);
            }),
        );
        layers.set(
            query_name,
            time_ns(keys.len(), |i| {
                black_box(server.query_at(black_box(&keys[i]), now));
            }),
        );
    };
    probe_store(
        AlsStoreConfig::default(),
        "core.als.store_ns",
        "core.als.query_ns",
    );
    // Capacity and TTL on: every store and every hit also moves the
    // key's recency entry. Only the paced workload runs this path.
    probe_store(
        AlsStoreConfig {
            ttl: Some(SimTime::from_secs(30)),
            capacity: Some(20_000),
        },
        "core.als.store_lru_ns",
        "core.als.query_lru_ns",
    );
}

fn service_probes(layers: &mut MetricSet<f64>, scratch_dir: &Path) {
    let store_config = StoreConfig {
        shards: 2,
        ttl: None,
        capacity_per_shard: None,
    };
    let plan = PROBE_MIX.plan(0x5E4, 1 << 15);
    let now = SimTime::from_secs(1);
    let store = ShardedStore::new(&store_config);
    let ops_of = |chunk: &[Op]| -> Vec<(Vec<u8>, Vec<u8>)> {
        chunk
            .iter()
            .map(|op| {
                (
                    cell_key(PROBE_MIX.home_cell(op.rank), &plan::index_of(op.rank)),
                    plan::payload_of(1).to_vec(),
                )
            })
            .collect()
    };
    const BATCH: usize = 64;
    let chunks: Vec<&[Op]> = plan.chunks(BATCH).collect();
    layers.set(
        "als-service.store.apply_batch_ns_per_op",
        time_ns(chunks.len(), |i| {
            black_box(store.apply_batch(ops_of(chunks[i]), now, 1));
        }) / BATCH as f64,
    );

    let engine_config = EngineConfig {
        store: store_config,
        workers: 2,
        queue_depth: 256,
        batch_max: 64,
        compact_every: None,
        shed_watermark: None,
    };
    // Submission cost as the producer sees it (a full queue blocks, so
    // this includes backpressure from the two workers).
    let engine = Engine::start(engine_config);
    layers.set(
        "als-service.pipeline.submit_ns",
        time_ns(plan.len(), |i| {
            engine.submit(PROBE_MIX.request(plan[i], i as u64));
        }),
    );
    layers.set(
        "als-service.pipeline.submit_batch_ns_per_op",
        time_ns(chunks.len(), |i| {
            engine.submit_batch(
                chunks[i]
                    .iter()
                    .map(|&op| PROBE_MIX.request(op, i as u64))
                    .collect(),
            );
        }) / BATCH as f64,
    );

    let serve_stats = ServeStats {
        updates: 1_000,
        queries: 400,
        ..ServeStats::default()
    };
    layers.set(
        "als-service.metrics.scrape_us",
        time_ns(200, |_| {
            black_box(agr_als_service::metrics::scrape_payload(
                &engine,
                &serve_stats,
                None,
                None,
            ));
        }) / 1e3,
    );
    drop(engine.shutdown());

    let pool = FramePool::with_frame_bytes(64, 2048);
    layers.set(
        "als-service.pool.get_ns",
        time_ns(200_000, |_| {
            // Take and return: the steady state of a serve round.
            black_box(pool.get());
        }),
    );

    let ring = Ring::new(5);
    layers.set(
        "als-service.ring.owners_ns",
        time_ns(200_000, |i| {
            let cell = CellId {
                col: (i % 16) as u32,
                row: (i / 16 % 16) as u32,
            };
            black_box(ring.owners(black_box(cell), 2));
        }),
    );

    journal_probe(layers, scratch_dir, &ops_of(&plan[..4096]));
}

/// Appends 4096 records in batches of 64 and reports time per record
/// and bytes on disk per byte of key + payload.
fn journal_probe(layers: &mut MetricSet<f64>, scratch_dir: &Path, ops: &[(Vec<u8>, Vec<u8>)]) {
    let dir = scratch_dir.join(format!("journal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let measured = (|| -> std::io::Result<(f64, f64)> {
        let mut journal = Journal::open(&dir, JournalConfig::default())?;
        let records: Vec<(Vec<u8>, Vec<u8>, SimTime)> = ops
            .iter()
            .map(|(k, v)| (k.clone(), v.clone(), SimTime::from_secs(1)))
            .collect();
        let t0 = Instant::now();
        for batch in records.chunks(64) {
            journal.append_puts(batch)?;
        }
        journal.sync()?;
        let ns_per_record = t0.elapsed().as_nanos() as f64 / records.len() as f64;
        drop(journal);
        let mut disk_bytes = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            disk_bytes += entry?.metadata()?.len();
        }
        let user_bytes: usize = ops.iter().map(|(k, v)| k.len() + v.len()).sum();
        Ok((ns_per_record, disk_bytes as f64 / user_bytes as f64))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    // A read-only checkout leaves both at 0; the traced run notes it.
    if let Ok((ns_per_record, amplification)) = measured {
        layers.set("als-service.journal.append_ns_per_record", ns_per_record);
        layers.set("als-service.journal.bytes_per_user_byte", amplification);
    }
}

fn telemetry_probes(layers: &mut MetricSet<f64>) {
    let registry = Registry::new();
    let counter = registry.counter("probe.counter");
    layers.set(
        "telemetry.registry.counter_add_ns",
        time_ns(2_000_000, |i| counter.add(black_box(i as u64 & 1))),
    );
    let histogram = Histogram::new();
    layers.set(
        "telemetry.hist.record_ns",
        time_ns(2_000_000, |i| histogram.record(black_box(i as u64))),
    );
    black_box((counter.get(), histogram.count()));
}
