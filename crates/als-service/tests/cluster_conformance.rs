//! Model-checked conformance of the replicated ALS cluster under a
//! deterministic kill/restart schedule *and* transport-level packet
//! chaos (seeded drop/duplicate/reorder on every client and sync path).
//!
//! Each seeded run boots a 5-node ring with 2-way replication on
//! lockstep logical clocks, drives a seeded stream of replicated writes
//! and ring queries while a [`ChaosPlan`] kills and restarts one node at
//! fixed operation indices and a [`ChaosNetConfig`] mangles packets,
//! then quiesces anti-entropy and checks the terminal state against a
//! single-map reference ledger:
//!
//! * **Durability** — for every key, let F be the latest *fully
//!   acknowledged* write (every owner acked). If F is still TTL-fresh
//!   when the cluster quiesces, the ring query must return a record:
//!   full acknowledgement under single-failure chaos means at least one
//!   replica held the write through every crash, and anti-entropy must
//!   have spread it back.
//! * **Availability** — while the run is in flight, a ring query whose
//!   key has a TTL-fresh fully-acked write answers with a record at
//!   least 99% of the time, over the whole run and, separately, inside
//!   the fault window (from a kill until the restarted node is
//!   readmitted): the deadline/retry machinery and the failure
//!   detector's walk pruning must hide a dead owner and a lossy
//!   network, not amplify them.
//! * **Explainability** — every payload a query returns (mid-run or
//!   terminal) must be one some client actually wrote to that key, and
//!   a terminal result must be at least as new as F — the cluster may
//!   serve a newer partially-acked write, never resurrect an older one.
//! * **Replica agreement** — after quiescence, every owner of a key
//!   answers a direct (ring-bypassing) query identically.
//! * **Determinism** — re-running the same seed reproduces the same
//!   event/outcome trace byte-for-byte. Seed-determined, and compared:
//!   the kill/restart schedule, every write's ack count, and every
//!   query's answer — logical clocks make TTL expiry, LWW order, and
//!   ack counts pure functions of the operation stream, and every chaos
//!   decision is a pure function of seeded frame counters. *Not*
//!   seed-determined, and therefore asserted (`<= 32`, `digests_agree`)
//!   and printed but kept out of the compared trace: how many
//!   anti-entropy rounds a quiesce needs and how many heartbeats a
//!   readmission takes. A chaos-duplicated update's second copy is
//!   applied whenever the node's serve thread gets to it — the client
//!   already holds the first copy's ack and may have advanced the
//!   logical clock, so that one replica stamps the record with the old
//!   or the next tick depending on thread scheduling. No query can see
//!   the difference (the payloads are equal), but the owners' digests
//!   differ by it, and the next quiesce then needs one more push round
//!   (reproduced by sleeping the serve thread at random: same-seed
//!   traces then differ only in `rounds=`, over one record whose
//!   `stored_at` is exactly one tick apart on its two owners).
//!
//! A separate test pins the crash-recovery contract: a journaled node
//! replays its own log on restart and anti-entropy only tops off the
//! writes it missed while down, strictly cheaper than the full refill
//! an unjournaled node needs.
//!
//! The two tests that boot a ring wait on wall-clock UDP timeouts, so
//! they are `#[ignore]`d and run with `--include-ignored` (in
//! `scripts/check.sh` and CI). Set `CHAOS_SEED=<n>` to run a single seed
//! (the CI chaos matrix).

use agr_als_service::chaos_net::ChaosNetConfig;
use agr_als_service::cluster::{
    ChaosAction, ChaosPlan, ClientConfig, Cluster, ClusterConfig, SplitMix64,
};
use agr_als_service::pipeline::EngineConfig;
use agr_als_service::ring::NodeHealth;
use agr_als_service::store::StoreConfig;
use agr_core::packet::AlsPair;
use agr_geom::CellId;
use agr_sim::SimTime;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const NODES: usize = 5;
const REPLICATION: usize = 2;
const OPS: u64 = 320;
/// One kill/restart cycle per run — the single-failure regime in which
/// every fully-acked write is durable.
const CHAOS_CYCLES: usize = 1;
/// Logical time between operations.
const TICK: SimTime = SimTime::from_millis(100);
/// Record TTL — long enough that recent writes survive to the terminal
/// check, short enough that early writes expire mid-run (both branches
/// of the freshness model get exercised).
const TTL: SimTime = SimTime::from_secs(20);
/// 4x4 cell grid (every node owns several cells on it); keys are
/// (cell, one index byte).
const GRID: u32 = 4;
const INDEXES: u8 = 3;
/// The availability bar for queries whose key holds a fresh fully-acked
/// write, measured across the whole run and inside the fault window.
const AVAILABILITY_FLOOR: f64 = 0.99;

fn config() -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        replication: REPLICATION,
        engine: EngineConfig {
            store: StoreConfig {
                shards: 4,
                ttl: Some(TTL),
                capacity_per_shard: None,
            },
            workers: 2,
            queue_depth: 256,
            batch_max: 32,
            // Wall-clock compaction sweeps would reclaim stale records
            // at nondeterministic moments; lazy expiry alone keeps the
            // store a pure function of the op stream.
            compact_every: None,
            shed_watermark: None,
        },
        logical_clock: true,
        ..ClusterConfig::default()
    }
}

/// Client tuning for chaos runs: the ack timeout is far above a healthy
/// localhost round-trip (so live nodes never feed the detector false
/// misses) but short enough that a dead owner is discovered, downed,
/// and pruned from waits within a few operations; the op deadline
/// leaves room for a retry round or two when chaos eats a frame.
fn chaos_client(seed: u64) -> ClientConfig {
    ClientConfig {
        ack_timeout: Duration::from_millis(400),
        op_deadline: Duration::from_millis(1600),
        retry_base: Duration::from_millis(5),
        retry_cap: Duration::from_millis(40),
        // Heartbeats are driven explicitly at restart points so the
        // detector's evidence stream stays a function of the op stream.
        ping_every: 0,
        ping_timeout: Duration::from_millis(250),
        chaos: Some(ChaosNetConfig::standard(seed ^ 0x00C1_1E57)),
        readmit_cells: cells(),
    }
}

fn cells() -> Vec<CellId> {
    (0..GRID)
        .flat_map(|col| (0..GRID).map(move |row| CellId { col, row }))
        .collect()
}

/// One issued write in the reference ledger.
#[derive(Debug, Clone)]
struct WriteRec {
    time: SimTime,
    payload: Vec<u8>,
    fully_acked: bool,
}

type Key = (CellId, u8);

/// Queries whose key held a TTL-fresh fully-acked write when asked
/// (eligible), and how many of those answered with a record (served).
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

    fn check(&self, seed: u64, what: &str) {
        let ratio = self.served as f64 / self.eligible as f64;
        assert!(
            ratio >= AVAILABILITY_FLOOR,
            "seed {seed}: {what} availability {ratio:.4} below {AVAILABILITY_FLOOR} \
             ({}/{} eligible queries served)",
            self.served,
            self.eligible
        );
    }
}

/// Everything observable from one seeded run.
struct RunOutcome {
    trace: Vec<String>,
    ledger: BTreeMap<Key, Vec<WriteRec>>,
    quiesce_time: SimTime,
    fully_acked_writes: u64,
    partial_writes: u64,
    /// Every query of the run.
    overall: Availability,
    /// Queries issued while a node was down or not yet readmitted.
    fault_window: Availability,
}

fn fresh(stored_at: SimTime, now: SimTime) -> bool {
    now.as_nanos() <= stored_at.as_nanos().saturating_add(TTL.as_nanos())
}

/// Drives one seeded chaos run end to end and checks every invariant
/// that can be checked inside the run; returns the trace and ledger for
/// the cross-run and terminal checks.
fn run(seed: u64) -> RunOutcome {
    let mut cluster_config = config();
    // Anti-entropy itself runs over a lossy network: sync pushes are
    // retried under the same seeded chaos family.
    cluster_config.sync_chaos = Some(ChaosNetConfig::standard(seed ^ 0x0000_5EED));
    let mut cluster = Cluster::launch(cluster_config).expect("cluster boot");
    let mut client = cluster
        .client_with(chaos_client(seed))
        .expect("client connect");
    let plan = ChaosPlan::seeded(seed, NODES, OPS, CHAOS_CYCLES);
    let universe = cells();
    let mut rng = SplitMix64::new(seed);
    let mut trace: Vec<String> = Vec::new();
    let mut ledger: BTreeMap<Key, Vec<WriteRec>> = BTreeMap::new();
    let mut fired = 0usize;
    let mut fully_acked_writes = 0u64;
    let mut partial_writes = 0u64;
    let mut overall = Availability::default();
    let mut fault_window = Availability::default();
    let mut in_fault_window = false;
    let mut now = SimTime::from_secs(1);
    cluster.set_time(now);

    for op in 0..OPS {
        for event in plan.due(op, &mut fired).to_vec() {
            match event.action {
                ChaosAction::Kill => {
                    assert!(cluster.kill(event.node), "victim was up");
                    in_fault_window = true;
                    trace.push(format!("kill n{} @ {}", event.node, op));
                }
                ChaosAction::Restart => {
                    assert!(
                        cluster.restart(event.node).expect("rebind"),
                        "victim was down"
                    );
                    // Refill the empty replica before traffic continues;
                    // the next kill must find every fully-acked write on
                    // both owners again.
                    let rounds = cluster
                        .quiesce(&universe, 32)
                        .expect("sync transport")
                        .expect("anti-entropy must quiesce after a restart");
                    // Heartbeats walk the detector back: the first
                    // answered ping makes the node Rejoining, and the
                    // digest probes over its cells (now converged)
                    // readmit it. Chaos can eat a pong or a probe, so
                    // drive rounds until the detector agrees.
                    let mut beats = 0u32;
                    while client.health(event.node) != NodeHealth::Alive {
                        client.heartbeat();
                        beats += 1;
                        assert!(beats <= 32, "readmission must converge under chaos");
                    }
                    in_fault_window = false;
                    trace.push(format!("restart n{} @ {}", event.node, op));
                    eprintln!(
                        "seed {seed}: restart n{} @ {op} rounds={rounds} hb={beats}",
                        event.node
                    );
                }
            }
        }
        now += TICK;
        cluster.set_time(now);
        let cell = universe[rng.below(universe.len() as u64) as usize];
        let index = rng.below(u64::from(INDEXES)) as u8;
        let key_bytes = vec![index, 0xA7, index ^ 0x3C];
        if rng.below(10) < 6 {
            // Replicated write with a payload unique to this operation.
            let payload = vec![seed as u8, (op >> 8) as u8, op as u8, index];
            let outcome = client.update(
                cell,
                vec![AlsPair {
                    index: key_bytes,
                    payload: payload.clone(),
                }],
            );
            assert_eq!(outcome.owners, REPLICATION as u32, "fan-out width");
            assert!(outcome.acks <= outcome.owners);
            if outcome.fully_acked() {
                fully_acked_writes += 1;
            } else {
                partial_writes += 1;
            }
            ledger.entry((cell, index)).or_default().push(WriteRec {
                time: now,
                payload,
                fully_acked: outcome.fully_acked(),
            });
            trace.push(format!(
                "w {}:{}:{} @ {} acks={}/{}",
                cell.col, cell.row, index, op, outcome.acks, outcome.owners
            ));
        } else {
            let has_fresh_full = ledger
                .get(&(cell, index))
                .and_then(|ws| ws.iter().rev().find(|w| w.fully_acked))
                .is_some_and(|f| fresh(f.time, now));
            let got = client.query(cell, &key_bytes).payload;
            if has_fresh_full {
                overall.record(got.is_some());
                if in_fault_window {
                    fault_window.record(got.is_some());
                }
            }
            // Mid-run explainability: any returned payload must be one
            // actually written to this key.
            if let Some(payload) = &got {
                let known = ledger
                    .get(&(cell, index))
                    .is_some_and(|ws| ws.iter().any(|w| &w.payload == payload));
                assert!(known, "query invented a payload: {payload:?}");
            }
            trace.push(format!(
                "q {}:{}:{} @ {} -> {}",
                cell.col,
                cell.row,
                index,
                op,
                match &got {
                    Some(p) => format!("hit[{:02x}{:02x}{:02x}{:02x}]", p[0], p[1], p[2], p[3]),
                    None => "miss".to_string(),
                }
            ));
        }
    }

    // Terminal convergence: all nodes are up (the plan restarts every
    // kill); anti-entropy must quiesce and every owner pair agree.
    let rounds = cluster
        .quiesce(&universe, 32)
        .expect("sync transport")
        .expect("terminal anti-entropy must quiesce");
    trace.push("quiesce".to_string());
    eprintln!(
        "seed {seed}: terminal quiesce rounds={rounds}, served {}/{} eligible queries \
         ({}/{} in the fault window)",
        overall.served, overall.eligible, fault_window.served, fault_window.eligible
    );
    assert!(cluster.digests_agree(&universe));

    // Durability + terminal explainability against the ledger.
    for (&(cell, index), writes) in &ledger {
        let key_bytes = vec![index, 0xA7, index ^ 0x3C];
        let latest_full = writes.iter().rev().find(|w| w.fully_acked);
        let got = client.query(cell, &key_bytes).payload;
        match &got {
            Some(payload) => {
                let floor = latest_full.map_or(SimTime::ZERO, |f| f.time);
                let explained = writes
                    .iter()
                    .any(|w| &w.payload == payload && w.time >= floor);
                assert!(
                    explained,
                    "terminal result for {cell:?}:{index} is older than the latest \
                     fully-acked write or was never written: {payload:?}"
                );
            }
            None => {
                if let Some(f) = latest_full {
                    assert!(
                        !fresh(f.time, now),
                        "fully-acked fresh write lost for {cell:?}:{index} \
                         (written at {:?}, quiesced at {now:?})",
                        f.time
                    );
                }
            }
        }
        // Replica agreement: every owner answers the direct query
        // identically once quiesced.
        let owners = cluster.ring().owners(cell, REPLICATION);
        let answers: Vec<Option<Vec<u8>>> = owners
            .iter()
            .map(|&node| client.query_node(node, cell, &key_bytes))
            .collect();
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "owners disagree on {cell:?}:{index}: {answers:?}"
        );
    }

    cluster.shutdown();
    RunOutcome {
        trace,
        ledger,
        quiesce_time: now,
        fully_acked_writes,
        partial_writes,
        overall,
        fault_window,
    }
}

/// The seeds the default invocation sweeps; `CHAOS_SEED` narrows the
/// run to one seed so a CI matrix can spread them across jobs.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![11, 23],
    }
}

#[test]
#[ignore = "boots a UDP ring and waits on wall-clock UDP timeouts (~2 min); run with --include-ignored until the virtual-time cluster (ROADMAP item 4) replaces it"]
fn seeded_chaos_runs_uphold_durability_availability_and_replay_identically() {
    for seed in seeds() {
        let first = run(seed);
        // The run must have actually exercised the interesting regimes:
        // writes that were fully acked, writes degraded by a dead owner
        // or the lossy network, and at least one record expired by the
        // terminal check.
        assert!(
            first.fully_acked_writes > 0,
            "seed {seed}: no fully-acked writes"
        );
        assert!(
            first.partial_writes > 0,
            "seed {seed}: chaos never degraded a write — schedule too tame"
        );
        let expired = first.ledger.values().any(|ws| {
            ws.iter()
                .rev()
                .find(|w| w.fully_acked)
                .is_some_and(|f| !fresh(f.time, first.quiesce_time))
        });
        assert!(
            expired,
            "seed {seed}: no fully-acked write expired — TTL branch unexercised"
        );

        // Availability: queries backed by a fresh fully-acked write must
        // be answered ≥ 99% of the time, over the run and inside the
        // fault window on its own.
        assert!(
            first.overall.eligible >= 20,
            "seed {seed}: too few eligible queries ({}) to call availability",
            first.overall.eligible
        );
        assert!(
            first.fault_window.eligible > 0,
            "seed {seed}: no eligible query inside the fault window"
        );
        first.overall.check(seed, "overall");
        first.fault_window.check(seed, "fault-window");

        // Same seed, fresh cluster: byte-identical event/outcome trace —
        // packet chaos included, since every chaos decision is keyed to
        // deterministic frame counters.
        let second = run(seed);
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: same-seed reruns must produce identical traces"
        );
    }
}

#[test]
fn different_seeds_schedule_different_chaos() {
    let a = ChaosPlan::seeded(11, NODES, OPS, CHAOS_CYCLES);
    let b = ChaosPlan::seeded(23, NODES, OPS, CHAOS_CYCLES);
    assert_ne!(a, b);
}

/// Crash-recovery contract: with a journal, a restarted node replays
/// its own log (store repopulated before serving) and anti-entropy only
/// tops off the writes it missed while down — strictly fewer records
/// over the wire than the full refill an unjournaled node needs.
#[test]
#[ignore = "boots a UDP ring and waits on wall-clock UDP timeouts (~2 min); run with --include-ignored until the virtual-time cluster (ROADMAP item 4) replaces it"]
fn journal_replay_recovers_strictly_cheaper_than_refill() {
    let seed = 7u64;
    let universe = cells();
    let mut outcomes: Vec<(u64, u64, usize)> = Vec::new(); // (pushed, replayed, store len)
    for journaled in [false, true] {
        let journal_dir: Option<PathBuf> = journaled.then(|| {
            std::env::temp_dir().join(format!(
                "agr-conformance-journal-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ))
        });
        if let Some(dir) = &journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut cluster_config = config();
        cluster_config.journal_dir = journal_dir.clone();
        let mut cluster = Cluster::launch(cluster_config).expect("cluster boot");
        let mut now = SimTime::from_secs(1);
        cluster.set_time(now);
        let mut client = cluster
            .client_with(ClientConfig {
                ack_timeout: Duration::from_millis(200),
                op_deadline: Duration::from_millis(900),
                ping_every: 0,
                ..ClientConfig::default()
            })
            .expect("client connect");
        // Preload: seeded writes across the grid, all fully acked.
        let mut rng = SplitMix64::new(seed);
        for op in 0..200u64 {
            now += TICK;
            cluster.set_time(now);
            let cell = universe[rng.below(universe.len() as u64) as usize];
            let index = rng.below(u64::from(INDEXES)) as u8;
            let outcome = client.update(
                cell,
                vec![AlsPair {
                    index: vec![index, 0xB3, index ^ 0x77],
                    payload: vec![op as u8, (op >> 8) as u8, index],
                }],
            );
            assert!(outcome.fully_acked(), "healthy cluster must fully ack");
        }
        cluster
            .quiesce(&universe, 32)
            .expect("sync transport")
            .expect("preload must quiesce");

        // Kill the first owner of universe[0], write into that cell
        // while it is down (the top-off delta), then restart it.
        let victim = cluster.ring().owners(universe[0], REPLICATION)[0];
        assert!(cluster.kill(victim));
        for extra in 0..8u8 {
            now += TICK;
            cluster.set_time(now);
            let outcome = client.update(
                universe[0],
                vec![AlsPair {
                    index: vec![0xD0 + extra, 0xB4, extra],
                    payload: vec![0xDE, extra],
                }],
            );
            assert!(
                !outcome.fully_acked(),
                "a write during the outage cannot be fully acked"
            );
        }
        assert!(cluster.restart(victim).expect("rebind"));
        let replayed = cluster.replayed(victim);
        let recovered_len = cluster.engine(victim).expect("victim is up").store().len();
        // Recovery cost: records anti-entropy ships to reconverge.
        let mut pushed = 0u64;
        let mut rounds = 0usize;
        loop {
            let stats = cluster.sync_round(&universe).expect("sync transport");
            pushed += stats.pushed as u64;
            rounds += 1;
            if stats.changed == 0 {
                break;
            }
            assert!(rounds <= 32, "recovery must quiesce");
        }
        assert!(cluster.digests_agree(&universe));
        cluster.shutdown();
        if let Some(dir) = journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        outcomes.push((pushed, replayed, recovered_len));
    }

    let (refill_pushed, refill_replayed, refill_len) = outcomes[0];
    let (journal_pushed, journal_replayed, journal_len) = outcomes[1];
    assert_eq!(refill_replayed, 0, "no journal, nothing to replay");
    assert_eq!(refill_len, 0, "unjournaled restart comes back empty");
    assert!(journal_replayed > 0, "journal must replay history");
    assert!(
        journal_len > 0,
        "journaled restart must repopulate the store before serving"
    );
    assert!(
        refill_pushed > 0,
        "an empty replica must need an anti-entropy refill"
    );
    assert!(
        journal_pushed > 0,
        "the down-window delta must still flow over the wire"
    );
    assert!(
        journal_pushed < refill_pushed,
        "journal replay must make recovery strictly cheaper over the wire: \
         {journal_pushed} pushed with a journal vs {refill_pushed} without"
    );
}
