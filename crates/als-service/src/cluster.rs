//! Multi-node replicated ALS cluster: N UDP server processes behind a
//! cell-ownership [`Ring`], R-way replicated writes, and push-based
//! anti-entropy so replicas converge after crashes and partitions.
//!
//! The moving parts, smallest to largest:
//!
//! * `sync_cell_push` — one node's anti-entropy agent step against one
//!   peer for one cell: probe the peer's digest over a
//!   [`agr_core::packet::AlsNetKind::SyncDigest`] frame; on mismatch,
//!   push the local record set in bounded
//!   [`agr_core::packet::AlsNetKind::SyncDelta`] chunks, merged
//!   last-writer-wins on the receiving side. Pushes only — a responder
//!   never ships data, so no frame in the exchange can outgrow a
//!   datagram. Running the step over every ordered pair of live owners
//!   makes both directions happen, which is what drives the pairwise
//!   union; [`Cluster::sync_round`] does exactly that.
//! * [`ClusterClient`] — ring-aware replicated operations: an update is
//!   fanned out to every owner of its cell and acknowledged per replica,
//!   with jittered-exponential retry rounds under a per-op deadline; a
//!   query walks the read-eligible owners in rendezvous order and takes
//!   the first answer. Health is tracked in-band by a heartbeat-driven
//!   [`FailureDetector`]: answered frames are liveness
//!   acks, awaited-but-absent answers are misses, a recovered node is
//!   `Rejoining` — written to but not read from — until its cells verify
//!   against a healthy replica over digest probes. Every decision is a
//!   function of the op stream, which is what lets the conformance suite
//!   replay a seed to an identical trace.
//! * [`Cluster`] — the in-process fleet manager: boots N engines each
//!   behind its own UDP serve loop, kills and restarts them on demand,
//!   and drives sync rounds to quiescence. Node identity is the ring
//!   index, so ownership never moves on a crash: the surviving replicas
//!   cover the cell until the node returns. With a
//!   [`ClusterConfig::journal_dir`], each node journals applied
//!   mutations and a restart **replays its own journal first** — the
//!   store comes back from local disk and anti-entropy only tops off
//!   what was written while the node was down; without one, a restarted
//!   node comes back empty and anti-entropy refills everything.
//! * [`ChaosPlan`] — a seeded kill/restart schedule keyed by operation
//!   index (not wall time), generated from a [`SplitMix64`] stream that
//!   is deliberately distinct from every simulator RNG family. Windows
//!   are disjoint and each kill precedes its restart, so at most one
//!   node is down at a time — the regime in which R = 2 makes every
//!   fully-acknowledged write durable.
//!
//! Durability contract (pinned by `tests/cluster_conformance.rs`): an
//! update acknowledged by **all** R owners survives any single
//! kill/restart, because the surviving replica holds it and the
//! restarted one pulls it back via anti-entropy before the next fault.
//! Partially-acknowledged writes may or may not survive; either way a
//! query only ever returns a payload some client actually wrote — the
//! single-map reference model can always explain the answer.

use crate::chaos_net::{ChaosNetConfig, ChaosTransport};
use crate::journal::{Journal, JournalConfig, JournalOp};
use crate::pipeline::{Engine, EngineConfig};
use crate::ring::{FailureDetector, HealthConfig, NodeHealth, Ring};
use crate::service::{frame, serve_batched, AlsClient, BatchConfig, ServeStats};
use crate::store::cell_key;
use crate::transport::{Transport, UdpClient, UdpServer, RECV_POLL};
use agr_core::backoff::backoff_delay;
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsPair, AlsSyncPair};
use agr_core::wire::{decode_packet, encode_packet_into};
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Seeded randomness (cluster-local, no sim RNG families)
// ---------------------------------------------------------------------

/// SplitMix64 — the cluster's only randomness source. Self-contained so
/// chaos schedules and load generators never draw from (or reorder) the
/// simulator's per-node RNG families, keeping every sim golden
/// fingerprint byte-identical no matter what the cluster does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` of 0 behaves as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

// ---------------------------------------------------------------------
// Chaos schedule
// ---------------------------------------------------------------------

/// What a [`ChaosEvent`] does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Stop the node's serve loop and drop its store (data loss).
    Kill,
    /// Re-bind the node's port with a fresh, empty engine.
    Restart,
}

/// One scheduled fault, keyed by the operation index it fires before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// The event fires before the op with this index is issued.
    pub(crate) at_op: u64,
    /// Ring index of the victim.
    pub node: usize,
    /// Kill or restart.
    pub action: ChaosAction,
}

/// A seeded kill/restart schedule over an operation-indexed run.
///
/// Events are sorted by `at_op`; the harness replays them by polling
/// [`ChaosPlan::due`] before each operation, which is what makes a run
/// deterministic: the same seed yields the same faults at the same
/// points in the same operation stream, regardless of wall-clock speed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// The schedule, sorted by `at_op`.
    pub(crate) events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Generates `cycles` kill→restart windows over `total_ops`
    /// operations against a ring of `nodes`. Windows are disjoint and
    /// confined to the middle three quarters of the run (so the load has
    /// warmed up before the first fault and every restart gets traffic
    /// afterwards), and each kill strictly precedes its restart — at
    /// most one node is down at any op index.
    #[must_use]
    pub fn seeded(seed: u64, nodes: usize, total_ops: u64, cycles: usize) -> ChaosPlan {
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5EED_F417_BEEF);
        let lo = total_ops / 8;
        let hi = total_ops.saturating_sub(total_ops / 8).max(lo + 1);
        let span = ((hi - lo) / cycles.max(1) as u64).max(2);
        let mut events = Vec::with_capacity(cycles * 2);
        for cycle in 0..cycles as u64 {
            let base = lo + span * cycle;
            let node = rng.below(nodes as u64) as usize;
            // Kill early in the window, restart in its second half: the
            // outage always spans at least a quarter of the window, so
            // every cycle degrades real traffic instead of occasionally
            // collapsing to a one-op blip.
            let kill_at = base + rng.below((span / 4).max(1));
            let restart_at = base + span / 2 + rng.below(span.div_ceil(2) - 1);
            events.push(ChaosEvent {
                at_op: kill_at,
                node,
                action: ChaosAction::Kill,
            });
            events.push(ChaosEvent {
                at_op: restart_at.max(kill_at + 1),
                node,
                action: ChaosAction::Restart,
            });
        }
        events.sort_by_key(|e| e.at_op);
        ChaosPlan { events }
    }

    /// The events firing before op `at_op`, given `fired` events were
    /// already consumed; advances `fired` past them.
    pub fn due<'a>(&'a self, at_op: u64, fired: &mut usize) -> &'a [ChaosEvent] {
        let start = *fired;
        while *fired < self.events.len() && self.events[*fired].at_op <= at_op {
            *fired += 1;
        }
        &self.events[start..*fired]
    }
}

// ---------------------------------------------------------------------
// Anti-entropy agent
// ---------------------------------------------------------------------

/// Byte budget of one [`AlsNetKind::SyncDelta`] push chunk — well under
/// both the 64 KiB transport bound and a single UDP datagram, leaving
/// headroom for framing.
const SYNC_CHUNK_BYTES: usize = 32 * 1024;

/// Overall deadline of one sync-agent request during a sync round —
/// generous enough that a live-but-lossy peer converges, bounded enough
/// that a round against a just-crashed peer ends.
const SYNC_TOTAL_TIMEOUT: Duration = Duration::from_secs(2);

/// Per-attempt re-send window of a sync-agent request under chaos: a
/// dropped digest probe or delta chunk is retried well within the total
/// deadline instead of burning all of it on one lost datagram.
const SYNC_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(250);

/// Outcome of one [`sync_cell_push`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CellSync {
    /// The digests agreed; nothing was shipped.
    pub(crate) matched: bool,
    /// Records pushed to the peer.
    pub(crate) pushed: usize,
    /// Records the peer's last-writer-wins merge actually changed.
    pub(crate) changed: usize,
}

/// One anti-entropy step: probe `peer`'s digest for `cell` and, if it
/// differs from `engine`'s, push the local record set in bounded chunks
/// (cell-relative indices, original `stored_at` preserved so TTL and
/// conflict order survive the transfer).
///
/// Push-only by design: the responder answers digests with digests and
/// never ships data, so every frame stays bounded no matter how large
/// the cell grows. Convergence comes from symmetry — run the step in
/// both directions (see [`Cluster::sync_round`]) and the pair holds the
/// last-writer-wins union afterwards.
///
/// # Errors
///
/// Transport failures talking to the peer (a dead peer surfaces as
/// `TimedOut` or `ConnectionRefused`).
pub(crate) fn sync_cell_push<T: Transport>(
    engine: &Engine,
    peer: &mut AlsClient<T>,
    cell: CellId,
) -> io::Result<CellSync> {
    let local = engine.store().cell_digest(cell);
    let (peer_digest, peer_count) = peer.sync_digest(cell, local.digest, local.count)?;
    if peer_digest == local.digest && peer_count == local.count {
        return Ok(CellSync {
            matched: true,
            pushed: 0,
            changed: 0,
        });
    }
    let prefix_len = cell_key(cell, &[]).len();
    let mut outcome = CellSync::default();
    let mut chunk: Vec<AlsSyncPair> = Vec::new();
    let mut chunk_bytes = 0usize;
    for (key, payload, stored_at) in engine.store().scan_cell(cell) {
        let pair = AlsSyncPair {
            index: key[prefix_len..].to_vec(),
            payload,
            stored_at,
        };
        let cost = pair.index.len() + pair.payload.len() + 12;
        if !chunk.is_empty() && chunk_bytes + cost > SYNC_CHUNK_BYTES {
            outcome.pushed += chunk.len();
            outcome.changed += peer.sync_delta(cell, std::mem::take(&mut chunk))? as usize;
            chunk_bytes = 0;
        }
        chunk_bytes += cost;
        chunk.push(pair);
    }
    if !chunk.is_empty() {
        outcome.pushed += chunk.len();
        outcome.changed += peer.sync_delta(cell, chunk)? as usize;
    }
    Ok(outcome)
}

/// Tally of one [`Cluster::sync_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncRoundStats {
    /// Digest probes whose answer matched (no data shipped).
    pub(crate) matched: usize,
    /// Records pushed across all pairs and cells.
    pub pushed: usize,
    /// Records that actually changed on a receiving replica — 0 means
    /// the round was a no-op and the live owners have converged.
    pub changed: usize,
    /// Owner pairs skipped because one side was down.
    pub(crate) skipped_down: usize,
}

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

/// Sizing and policy of a [`Cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Ring size — how many server nodes to boot.
    pub nodes: usize,
    /// How many replicas own each cell (clamped to the ring size).
    pub replication: usize,
    /// Per-node engine sizing.
    pub engine: EngineConfig,
    /// Drive every node from one harness-advanced logical clock instead
    /// of the wall clock. Logical time makes `stored_at` stamps — and
    /// therefore digests, last-writer-wins outcomes, and TTL expiry —
    /// a pure function of the operation stream, which the conformance
    /// suite needs to replay a seed into an identical trace.
    pub logical_clock: bool,
    /// Root of the per-node crash-recovery journals (`<dir>/node-<i>`).
    /// `None` disables journaling: a restarted node comes back empty
    /// and anti-entropy refills everything.
    pub journal_dir: Option<PathBuf>,
    /// Journal sizing, when `journal_dir` is set.
    pub journal: JournalConfig,
    /// Packet chaos on the anti-entropy paths: each sync round wraps its
    /// peer transports in a `ChaosTransport` seeded per `(round, dst)`
    /// so repair itself runs over the same lossy network the clients do.
    pub sync_chaos: Option<ChaosNetConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            replication: 2,
            engine: EngineConfig::default(),
            logical_clock: false,
            journal_dir: None,
            journal: JournalConfig::default(),
            sync_chaos: None,
        }
    }
}

/// Applies replayed journal mutations straight into `engine`'s store —
/// deliberately *not* through the journaling paths: the records are
/// already on disk, so re-journaling them would double history on every
/// restart. Puts land unconditionally in journal order with their
/// original `stored_at` (replay reproduces history, it does not merge
/// against it); deletes remove. Returns how many ops were applied.
fn apply_replay(engine: &Engine, ops: Vec<JournalOp>) -> u64 {
    let count = ops.len() as u64;
    let store = engine.store();
    for op in ops {
        match op {
            JournalOp::Put {
                key,
                payload,
                stored_at,
            } => store.store(key, payload, stored_at),
            JournalOp::Delete { key } => {
                store.remove(&key);
            }
        }
    }
    count
}

/// One live node: its engine, its serve loop, and the knobs to stop it.
struct NodeHandle {
    engine: Arc<Engine>,
    clock: Option<Arc<AtomicU64>>,
    stop: Arc<AtomicBool>,
    serve: std::thread::JoinHandle<ServeStats>,
}

/// An in-process fleet of UDP ALS nodes behind a fixed-membership
/// [`Ring`], with kill/restart control and harness-driven anti-entropy.
///
/// Crashes make a node unavailable, never removed: its ring index, port,
/// and ownership all survive the outage, and a restart brings it back
/// empty for anti-entropy to refill.
pub struct Cluster {
    config: ClusterConfig,
    ring: Ring,
    addrs: Vec<SocketAddr>,
    nodes: Vec<Option<NodeHandle>>,
    now: SimTime,
    retired: Vec<ServeStats>,
    replayed: Vec<u64>,
    sync_rounds: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.addrs.len())
            .field("replication", &self.config.replication)
            .field("up", &self.nodes.iter().filter(|n| n.is_some()).count())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Boots `config.nodes` engines, each behind its own UDP serve loop
    /// on an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn launch(config: ClusterConfig) -> io::Result<Cluster> {
        let nodes = config.nodes;
        let mut cluster = Cluster {
            ring: Ring::new(nodes),
            addrs: Vec::with_capacity(nodes),
            nodes: Vec::with_capacity(nodes),
            now: SimTime::ZERO,
            retired: vec![ServeStats::default(); nodes],
            replayed: vec![0; nodes],
            sync_rounds: 0,
            config,
        };
        for node in 0..nodes {
            let (handle, addr, replayed) = cluster.boot(node, None)?;
            cluster.addrs.push(addr);
            cluster.nodes.push(Some(handle));
            cluster.replayed[node] = replayed;
        }
        Ok(cluster)
    }

    /// Boots `node`: opens and replays its journal (if journaling is
    /// on) into a fresh engine **before** the serve loop takes a single
    /// frame, then spawns the loop. Returns the handle, the bound
    /// address, and how many mutations the replay applied.
    fn boot(
        &self,
        node: usize,
        addr: Option<SocketAddr>,
    ) -> io::Result<(NodeHandle, SocketAddr, u64)> {
        let mut server = match addr {
            Some(addr) => UdpServer::bind_with(addr, RECV_POLL)?,
            None => UdpServer::bind_with(("127.0.0.1", 0), RECV_POLL)?,
        };
        let bound = server.local_addr()?;
        let journal = match &self.config.journal_dir {
            Some(dir) => {
                let node_dir = dir.join(format!("node-{node}"));
                let ops = Journal::replay(&node_dir)?;
                Some((Journal::open(&node_dir, self.config.journal)?, ops))
            }
            None => None,
        };
        let (engine, clock, replayed) = match (self.config.logical_clock, journal) {
            (true, Some((journal, ops))) => {
                let (engine, clock) =
                    Engine::start_manual_clock_journaled(self.config.engine, journal);
                clock.store(self.now.as_nanos(), Ordering::Release);
                let replayed = apply_replay(&engine, ops);
                (engine, Some(clock), replayed)
            }
            (true, None) => {
                let (engine, clock) = Engine::start_manual_clock(self.config.engine);
                clock.store(self.now.as_nanos(), Ordering::Release);
                (engine, Some(clock), 0)
            }
            (false, Some((journal, ops))) => {
                let engine = Engine::start_journaled(self.config.engine, journal);
                let replayed = apply_replay(&engine, ops);
                (engine, None, replayed)
            }
            (false, None) => (Engine::start(self.config.engine), None, 0),
        };
        let engine = Arc::new(engine);
        let stop = Arc::new(AtomicBool::new(false));
        let serve = {
            let engine = engine.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                serve_batched(&engine, &mut server, BatchConfig::default(), &stop)
            })
        };
        Ok((
            NodeHandle {
                engine,
                clock,
                stop,
                serve,
            },
            bound,
            replayed,
        ))
    }

    /// The cell-ownership ring.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The replication factor (clamped to the ring size by the ring).
    #[must_use]
    pub fn replication(&self) -> usize {
        self.config.replication
    }

    /// Whether `node` is currently serving.
    #[must_use]
    pub(crate) fn is_up(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(Option::is_some)
    }

    /// Direct access to a live node's engine (digest checks, preloads);
    /// `None` while the node is down.
    #[must_use]
    pub fn engine(&self, node: usize) -> Option<&Arc<Engine>> {
        self.nodes.get(node)?.as_ref().map(|h| &h.engine)
    }

    /// Advances the shared logical clock on every live node (no-op per
    /// node under wall clocks). Restarted nodes inherit the latest value.
    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
        for handle in self.nodes.iter().flatten() {
            if let Some(clock) = &handle.clock {
                clock.store(now.as_nanos(), Ordering::Release);
            }
        }
    }

    /// A ring-aware replicated client with explicit deadlines, retry,
    /// heartbeat, and chaos configuration.
    ///
    /// # Errors
    ///
    /// Socket bind/connect failures.
    pub fn client_with(&self, config: ClientConfig) -> io::Result<ClusterClient> {
        ClusterClient::connect_with(&self.addrs, self.config.replication, config)
    }

    /// How many journal mutations `node` replayed at its last boot (0
    /// without journaling) — the recovery-speed observable the
    /// conformance suite compares against anti-entropy refill.
    #[must_use]
    pub fn replayed(&self, node: usize) -> u64 {
        self.replayed.get(node).copied().unwrap_or(0)
    }

    /// Kills `node`: stops its serve loop and drops its engine **and
    /// store** — the in-memory data is gone, exactly like a process
    /// crash (the on-disk journal, when configured, survives the way a
    /// crashed process's files do). Returns false if it was already
    /// down.
    pub fn kill(&mut self, node: usize) -> bool {
        let Some(handle) = self.nodes.get_mut(node).and_then(Option::take) else {
            return false;
        };
        handle.stop.store(true, Ordering::Release);
        if let Ok(stats) = handle.serve.join() {
            self.retired[node].merge(&stats);
        }
        match Arc::try_unwrap(handle.engine) {
            Ok(engine) => drop(engine.shutdown()),
            Err(_) => unreachable!("serve loop joined; cluster holds the sole engine handle"),
        }
        true
    }

    /// Restarts `node` on its original port. With journaling on, the
    /// fresh engine replays the node's own journal before serving and
    /// anti-entropy only tops off the outage window; without, it comes
    /// back empty for anti-entropy to refill. Returns `Ok(false)` if it
    /// was already up.
    ///
    /// # Errors
    ///
    /// Socket re-bind failures.
    pub fn restart(&mut self, node: usize) -> io::Result<bool> {
        if self.is_up(node) {
            return Ok(false);
        }
        let (handle, _, replayed) = self.boot(node, Some(self.addrs[node]))?;
        self.nodes[node] = Some(handle);
        self.replayed[node] = replayed;
        Ok(true)
    }

    /// One full anti-entropy round: for every cell in `cells` and every
    /// *ordered* pair of live owners, runs `sync_cell_push`. Both
    /// directions of each pair run, so afterwards every live owner pair
    /// holds the last-writer-wins union of what the pair held before.
    ///
    /// With [`ClusterConfig::sync_chaos`], every peer transport is
    /// wrapped in a `ChaosTransport` seeded per `(round, destination)`
    /// — repair traffic rides the same lossy network as client traffic,
    /// and the sync clients retry within a bounded window to get the
    /// round through anyway.
    ///
    /// # Errors
    ///
    /// Transport failures against nodes the cluster believes are live.
    pub fn sync_round(&mut self, cells: &[CellId]) -> io::Result<SyncRoundStats> {
        self.sync_rounds += 1;
        let round = self.sync_rounds;
        let mut peers: Vec<Option<AlsClient<ChaosTransport<UdpClient>>>> =
            Vec::with_capacity(self.addrs.len());
        for (node, addr) in self.addrs.iter().enumerate() {
            peers.push(if self.is_up(node) {
                let chaos = match self.config.sync_chaos {
                    Some(base) => {
                        // Decorrelate per round and per destination, off
                        // the round counter — deterministic across
                        // reruns, different across rounds.
                        let mut mix = SplitMix64::new(base.seed ^ (round << 8) ^ node as u64);
                        base.reseeded(mix.next_u64())
                    }
                    None => ChaosNetConfig::OFF,
                };
                let transport =
                    ChaosTransport::new(UdpClient::connect_with(addr, RECV_POLL)?, chaos);
                Some(AlsClient::with_timeouts(
                    transport,
                    SYNC_TOTAL_TIMEOUT,
                    SYNC_ATTEMPT_TIMEOUT,
                ))
            } else {
                None
            });
        }
        let mut stats = SyncRoundStats::default();
        for &cell in cells {
            let owners = self.ring.owners(cell, self.config.replication);
            for &src in &owners {
                for &dst in &owners {
                    if src == dst {
                        continue;
                    }
                    let (Some(engine), Some(peer)) =
                        (self.engine(src), peers[dst].as_mut().map(|p| &mut *p))
                    else {
                        stats.skipped_down += 1;
                        continue;
                    };
                    let sync = sync_cell_push(engine, peer, cell)?;
                    stats.matched += usize::from(sync.matched);
                    stats.pushed += sync.pushed;
                    stats.changed += sync.changed;
                }
            }
        }
        Ok(stats)
    }

    /// Whether every live owner pair agrees on every cell digest — the
    /// cluster-wide convergence predicate.
    #[must_use]
    pub fn digests_agree(&self, cells: &[CellId]) -> bool {
        cells.iter().all(|&cell| {
            let digests: Vec<_> = self
                .ring
                .owners(cell, self.config.replication)
                .into_iter()
                .filter_map(|node| self.engine(node))
                .map(|engine| engine.store().cell_digest(cell))
                .collect();
            digests.windows(2).all(|w| w[0] == w[1])
        })
    }

    /// Runs sync rounds until one changes nothing and every live owner
    /// pair's digests agree, or `max_rounds` is exhausted. Returns the
    /// number of rounds used, or `None` on non-convergence.
    ///
    /// # Errors
    ///
    /// Transport failures during a round.
    pub fn quiesce(&mut self, cells: &[CellId], max_rounds: usize) -> io::Result<Option<usize>> {
        for round in 1..=max_rounds.max(1) {
            let stats = self.sync_round(cells)?;
            if stats.changed == 0 && self.digests_agree(cells) {
                return Ok(Some(round));
            }
        }
        Ok(None)
    }

    /// Stops every node and returns the per-node serve tallies
    /// (accumulated across kills and restarts).
    pub fn shutdown(mut self) -> Vec<ServeStats> {
        for node in 0..self.nodes.len() {
            self.kill(node);
        }
        std::mem::take(&mut self.retired)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for node in 0..self.nodes.len() {
            self.kill(node);
        }
    }
}

// ---------------------------------------------------------------------
// Replicated client
// ---------------------------------------------------------------------

/// Default per-attempt, per-replica answer wait of a [`ClusterClient`]
/// (see [`ClientConfig::ack_timeout`]). Live localhost nodes answer in
/// microseconds; the margin absorbs scheduler hiccups so a healthy node
/// never feeds the failure detector false misses (which would perturb
/// the deterministic trace).
pub(crate) const ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// Receive-poll granularity of a client's peer sockets: how often a
/// blocked wait wakes to re-check its deadline, and the cadence at which
/// chaos reordering flushes held-back frames.
const CLIENT_RECV_POLL: Duration = Duration::from_millis(5);

/// Deadlines, retry, heartbeat, and chaos knobs of a
/// [`ClusterClient`]. Every timing knob is explicit configuration —
/// nothing is monkey-patched after construction — so a client's whole
/// behavior is pinned by `(config, op stream, fault schedule)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-attempt wait for one replica's answer.
    pub ack_timeout: Duration,
    /// Total budget of one replicated operation, spanning all retry
    /// rounds and backoff sleeps. An op never blocks past this.
    pub op_deadline: Duration,
    /// First retry backoff (doubling per round, jittered by uid).
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Heartbeat period in client operations: every `ping_every` ops the
    /// client pings **all** nodes and feeds the detector. 0 disables
    /// heartbeats (the detector then learns only from awaited ops).
    pub ping_every: u64,
    /// Answer wait for heartbeat pings and readmission digest probes.
    pub ping_timeout: Duration,
    /// Seeded packet chaos on every peer transport (`None` = clean
    /// network). Per-peer streams are decorrelated from this seed.
    pub chaos: Option<ChaosNetConfig>,
    /// Cells a `Rejoining` node must digest-match (against a healthy
    /// co-owner, probed in-band) before reads trust it again. Empty
    /// readmits on the first answered heartbeat.
    pub readmit_cells: Vec<CellId>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            ack_timeout: ACK_TIMEOUT,
            op_deadline: Duration::from_secs(4),
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_millis(160),
            ping_every: 64,
            ping_timeout: Duration::from_millis(250),
            chaos: None,
            readmit_cells: Vec::new(),
        }
    }
}

/// Lifetime counters of one [`ClusterClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Retry rounds across all operations.
    pub retries: u64,
    /// `Busy` (admission-shed) answers received.
    pub busy: u64,
    /// Operations that exhausted their deadline unresolved.
    pub deadline_misses: u64,
    /// Heartbeat pings sent.
    pub pings: u64,
    /// Heartbeat pongs received.
    pub(crate) pongs: u64,
    /// Nodes readmitted to read eligibility after rejoining.
    pub readmitted: u64,
    /// Frames that failed to encode or send (counted, never a panic).
    pub(crate) send_errors: u64,
}

/// Outcome of one replicated update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Owners of the cell (the fan-out width, R clamped to the ring).
    pub owners: u32,
    /// Owners that acknowledged.
    pub acks: u32,
}

impl UpdateOutcome {
    /// Every owner acknowledged — the durability bar: such a write
    /// survives any single node crash.
    #[must_use]
    pub fn fully_acked(&self) -> bool {
        self.acks == self.owners
    }
}

/// Outcome of one replicated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The first replica answer carrying a record, if any.
    pub payload: Option<Vec<u8>>,
    /// Owners that answered (hit or miss) before the walk stopped.
    pub answered: u32,
}

/// A ring-aware client running replicated operations against a
/// [`Cluster`] (or any fleet of ALS servers on known addresses).
///
/// Failure handling is a heartbeat-fed [`FailureDetector`]: a peer that
/// stops answering walks `Alive → Suspect → Down` and keeps receiving
/// fire-and-forget writes (so a wrongly declared node still converges)
/// but is no longer awaited; when it answers again it is `Rejoining`
/// and must pass the [`ClientConfig::readmit_cells`] digest check
/// before reads trust it. Every operation runs under
/// [`ClientConfig::op_deadline`] with jittered-exponential retry
/// rounds. All timing decisions are pure functions of `(config, op
/// counter, answer stream)`, so a seeded chaos run reproduces the same
/// detector history every time.
pub struct ClusterClient {
    ring: Ring,
    replication: usize,
    peers: Vec<ChaosTransport<UdpClient>>,
    detector: FailureDetector,
    config: ClientConfig,
    next_uid: u64,
    ops: u64,
    stats: ClientStats,
    /// Reused wire-encode buffer: every outgoing frame is encoded into
    /// this one allocation instead of a fresh `Vec` per send.
    encode_buf: Vec<u8>,
}

/// `deadline - now`, or `None` once the deadline has passed.
fn remaining(deadline: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now < deadline {
        Some(deadline - now)
    } else {
        None
    }
}

impl ClusterClient {
    /// Connects with explicit deadline/retry/chaos config.
    ///
    /// Each peer socket gets its own chaos stream, reseeded from
    /// `config.chaos` and the node index, so per-peer fault schedules
    /// are decorrelated but jointly determined by the one seed.
    ///
    /// # Errors
    ///
    /// Socket bind/connect failures.
    pub(crate) fn connect_with(
        addrs: &[SocketAddr],
        replication: usize,
        config: ClientConfig,
    ) -> io::Result<ClusterClient> {
        let mut peers = Vec::with_capacity(addrs.len());
        for (node, addr) in addrs.iter().enumerate() {
            let chaos = match config.chaos {
                Some(base) => {
                    let mut mix = SplitMix64::new(
                        base.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    base.reseeded(mix.next_u64())
                }
                None => ChaosNetConfig::OFF,
            };
            peers.push(ChaosTransport::new(
                UdpClient::connect_with(*addr, CLIENT_RECV_POLL)?,
                chaos,
            ));
        }
        let detector = FailureDetector::new(addrs.len(), HealthConfig::default());
        Ok(ClusterClient {
            ring: Ring::new(addrs.len()),
            replication,
            peers,
            detector,
            config,
            next_uid: 1,
            ops: 0,
            stats: ClientStats::default(),
            encode_buf: Vec::new(),
        })
    }

    /// Lifetime operation counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The detector's current verdict on `node`.
    #[must_use]
    pub fn health(&self, node: usize) -> NodeHealth {
        self.detector.state(node)
    }

    fn fresh_uid(&mut self) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        uid
    }

    /// Sends `kind` to `node`. Failures (encode or socket) are counted
    /// in [`ClientStats::send_errors`] and reported as `false` — never
    /// a panic; the callers treat them as the node being unreachable.
    fn send_kind(&mut self, node: usize, uid: u64, kind: AlsNetKind) -> bool {
        if encode_packet_into(&AgfwPacket::Als(frame(uid, kind)), &mut self.encode_buf).is_err() {
            self.stats.send_errors += 1;
            return false;
        }
        if self.peers[node].send(&self.encode_buf).is_err() {
            self.stats.send_errors += 1;
            return false;
        }
        true
    }

    /// Waits for the `uid`-matched answer from `node`, up to `timeout`.
    /// `None` means no answer; detector bookkeeping is the caller's job
    /// (probes deliberately produce no miss evidence on timeout).
    fn wait_kind(&mut self, node: usize, uid: u64, timeout: Duration) -> Option<AlsNetKind> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.peers[node].recv() {
                Ok(bytes) => {
                    if let Ok(AgfwPacket::Als(m)) = decode_packet(&bytes) {
                        if m.uid == uid {
                            return Some(m.kind);
                        }
                        // Stale answer to an abandoned request: drop.
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                // Refused/reset — the port is dead right now.
                Err(_) => return None,
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Sleeps the jittered-exponential backoff for retry round
    /// `attempt`, clipped so the op's deadline is never overslept.
    fn sleep_backoff(&mut self, attempt: u32, salt: u64, deadline: Instant) {
        self.stats.retries += 1;
        let delay = backoff_delay(
            SimTime::from_nanos(self.config.retry_base.as_nanos().min(u64::MAX.into()) as u64),
            attempt,
            SimTime::from_nanos(self.config.retry_cap.as_nanos().min(u64::MAX.into()) as u64),
            salt,
        );
        let delay = Duration::from_nanos(delay.as_nanos());
        let Some(budget) = remaining(deadline) else {
            return;
        };
        std::thread::sleep(delay.min(budget));
    }

    /// Runs the heartbeat when the op counter says one is due.
    fn heartbeat_if_due(&mut self) {
        if self.config.ping_every > 0 && (self.ops - 1).is_multiple_of(self.config.ping_every) {
            self.heartbeat();
        }
    }

    /// Pings every node once and feeds the detector, then attempts to
    /// readmit any `Rejoining` node. Public so harnesses can force a
    /// detector round between fault-schedule phases.
    pub fn heartbeat(&mut self) {
        for node in 0..self.peers.len() {
            let uid = self.fresh_uid();
            self.stats.pings += 1;
            if !self.send_kind(node, uid, AlsNetKind::Ping) {
                self.detector.record_miss(node);
                continue;
            }
            match self.wait_kind(node, uid, self.config.ping_timeout) {
                Some(AlsNetKind::Pong { .. }) => {
                    self.stats.pongs += 1;
                    self.detector.record_ack(node);
                }
                Some(_) => self.detector.record_ack(node),
                None => self.detector.record_miss(node),
            }
        }
        self.try_readmit();
    }

    /// Probes `node`'s digest of `cell` (a zero-digest [`AlsNetKind::SyncDigest`]
    /// never pushes data — the server always answers with its local
    /// digest). Timeouts yield `None` and, deliberately, no detector
    /// evidence: a failed probe aborts readmission, nothing more.
    fn probe_digest(&mut self, node: usize, cell: CellId) -> Option<(u64, u32)> {
        let uid = self.fresh_uid();
        let kind = AlsNetKind::SyncDigest {
            cell,
            digest: 0,
            count: 0,
        };
        if !self.send_kind(node, uid, kind) {
            return None;
        }
        match self.wait_kind(node, uid, self.config.ping_timeout) {
            Some(AlsNetKind::SyncDigest { digest, count, .. }) => Some((digest, count)),
            _ => None,
        }
    }

    /// Readmits `Rejoining` nodes whose owned [`ClientConfig::readmit_cells`]
    /// digest-match a read-eligible co-owner (empty list: readmit
    /// immediately — the answered heartbeat is the whole bar).
    fn try_readmit(&mut self) {
        for node in 0..self.peers.len() {
            if self.detector.state(node) != NodeHealth::Rejoining {
                continue;
            }
            let cells: Vec<CellId> = self
                .config
                .readmit_cells
                .clone()
                .into_iter()
                .filter(|&cell| self.ring.owners(cell, self.replication).contains(&node))
                .collect();
            let mut verified = true;
            for cell in cells {
                let Some(rejoiner) = self.probe_digest(node, cell) else {
                    verified = false;
                    break;
                };
                let partner = self
                    .ring
                    .owners(cell, self.replication)
                    .into_iter()
                    .find(|&o| o != node && self.detector.read_eligible(o));
                // No healthy co-owner to compare against: the rejoiner
                // is the best copy we have for this cell.
                let Some(partner) = partner else { continue };
                let Some(healthy) = self.probe_digest(partner, cell) else {
                    verified = false;
                    break;
                };
                if rejoiner != healthy {
                    verified = false;
                    break;
                }
            }
            if verified {
                self.detector.record_readmit(node);
                self.stats.readmitted += 1;
            }
        }
    }

    /// Replicated update: fan the sealed pairs to every owner of `cell`
    /// and retry (fresh uids, jittered backoff) until every owner acked
    /// or the op deadline lapses.
    ///
    /// Owners the detector holds `Down` still receive every round's
    /// fire-and-forget frame — a wrongly declared node keeps
    /// converging — but are not awaited, so a dead node costs misses
    /// only until the detector downs it.
    ///
    /// [`UpdateOutcome::fully_acked`] is the durability signal — with
    /// R-way ownership, a fully-acked write survives any single crash.
    pub fn update(&mut self, cell: CellId, pairs: Vec<AlsPair>) -> UpdateOutcome {
        self.ops += 1;
        self.heartbeat_if_due();
        let owners = self.ring.owners(cell, self.replication);
        let deadline = Instant::now() + self.config.op_deadline;
        let salt = self.next_uid;
        let mut acked = vec![false; owners.len()];
        let mut attempt = 0u32;
        loop {
            let mut sends: Vec<(usize, usize, u64, bool)> = Vec::with_capacity(owners.len());
            for (slot, &node) in owners.iter().enumerate() {
                if acked[slot] {
                    continue;
                }
                let uid = self.fresh_uid();
                let kind = AlsNetKind::Update {
                    cell,
                    pairs: pairs.clone(),
                };
                let sent = self.send_kind(node, uid, kind);
                sends.push((slot, node, uid, sent));
            }
            for (slot, node, uid, sent) in sends {
                if !sent {
                    self.detector.record_miss(node);
                    continue;
                }
                if !self.detector.is_alive(node) {
                    continue;
                }
                let Some(budget) = remaining(deadline) else {
                    break;
                };
                match self.wait_kind(node, uid, budget.min(self.config.ack_timeout)) {
                    Some(AlsNetKind::Ack { .. }) => {
                        self.detector.record_ack(node);
                        acked[slot] = true;
                    }
                    Some(AlsNetKind::Busy) => {
                        self.stats.busy += 1;
                        self.detector.record_ack(node);
                    }
                    Some(_) => self.detector.record_ack(node),
                    None => self.detector.record_miss(node),
                }
            }
            let acks = acked.iter().filter(|&&a| a).count() as u32;
            let outcome = UpdateOutcome {
                owners: owners.len() as u32,
                acks,
            };
            if outcome.fully_acked() {
                return outcome;
            }
            if Instant::now() >= deadline {
                self.stats.deadline_misses += 1;
                return outcome;
            }
            // Every unacked owner is Down: further rounds only burn the
            // deadline waiting on nobody.
            if owners
                .iter()
                .enumerate()
                .all(|(slot, &node)| acked[slot] || !self.detector.is_alive(node))
            {
                return outcome;
            }
            attempt += 1;
            self.sleep_backoff(attempt, salt, deadline);
        }
    }

    /// Replicated query: walk the read-eligible owners of `cell` in
    /// rendezvous order and return the first answer carrying a record.
    /// A miss from one replica falls through to the next (it may not
    /// have converged yet); a round where *every* walked owner
    /// authoritatively misses is a genuine miss. Rounds that end with
    /// unanswered owners retry with fresh uids and jittered backoff
    /// until the op deadline.
    pub fn query(&mut self, cell: CellId, index: &[u8]) -> QueryOutcome {
        self.ops += 1;
        self.heartbeat_if_due();
        let owners = self.ring.owners(cell, self.replication);
        let deadline = Instant::now() + self.config.op_deadline;
        let salt = self.next_uid;
        let mut answered = 0u32;
        let mut attempt = 0u32;
        loop {
            let mut walk: Vec<usize> = owners
                .iter()
                .copied()
                .filter(|&node| self.detector.read_eligible(node))
                .collect();
            if walk.is_empty() {
                // Availability over pessimism: with no owner the
                // detector trusts, ask everyone anyway.
                walk.clone_from(&owners);
            }
            if let Some(outcome) = self.walk_round(cell, index, &walk, deadline, &mut answered) {
                return outcome;
            }
            if Instant::now() >= deadline {
                self.stats.deadline_misses += 1;
                return QueryOutcome {
                    payload: None,
                    answered,
                };
            }
            attempt += 1;
            self.sleep_backoff(attempt, salt, deadline);
        }
    }

    fn request_kind(cell: CellId, index: &[u8]) -> AlsNetKind {
        AlsNetKind::Request {
            cell,
            index: index.to_vec(),
            reply_loc: Point::ORIGIN,
        }
    }

    /// One sequential walk over `walk`. `Some` resolves the query (hit,
    /// or every walked owner missed); `None` sends the caller around
    /// for a retry round.
    fn walk_round(
        &mut self,
        cell: CellId,
        index: &[u8],
        walk: &[usize],
        deadline: Instant,
        answered: &mut u32,
    ) -> Option<QueryOutcome> {
        let mut round_misses = 0usize;
        for &node in walk {
            let Some(budget) = remaining(deadline) else {
                break;
            };
            let uid = self.fresh_uid();
            if !self.send_kind(node, uid, Self::request_kind(cell, index)) {
                self.detector.record_miss(node);
                continue;
            }
            match self.wait_kind(node, uid, budget.min(self.config.ack_timeout)) {
                Some(AlsNetKind::Reply { payload }) => {
                    self.detector.record_ack(node);
                    return Some(QueryOutcome {
                        payload: Some(payload),
                        answered: *answered + 1,
                    });
                }
                Some(AlsNetKind::Miss) => {
                    self.detector.record_ack(node);
                    *answered += 1;
                    round_misses += 1;
                }
                Some(AlsNetKind::Busy) => {
                    self.stats.busy += 1;
                    self.detector.record_ack(node);
                }
                Some(_) => self.detector.record_ack(node),
                None => self.detector.record_miss(node),
            }
        }
        if round_misses == walk.len() {
            return Some(QueryOutcome {
                payload: None,
                answered: *answered,
            });
        }
        None
    }

    /// Queries one specific node directly (bypassing the ring and the
    /// detector) — the conformance suite's per-replica convergence
    /// check. Retries with fresh uids until the node answers
    /// authoritatively or the op deadline lapses, so a dropped frame
    /// under chaos cannot masquerade as a miss.
    pub fn query_node(&mut self, node: usize, cell: CellId, index: &[u8]) -> Option<Vec<u8>> {
        self.ops += 1;
        let deadline = Instant::now() + self.config.op_deadline;
        let salt = self.next_uid;
        let mut attempt = 0u32;
        loop {
            let uid = self.fresh_uid();
            if self.send_kind(node, uid, Self::request_kind(cell, index)) {
                let budget = remaining(deadline).unwrap_or(Duration::ZERO);
                match self.wait_kind(node, uid, budget.min(self.config.ack_timeout)) {
                    Some(AlsNetKind::Reply { payload }) => return Some(payload),
                    Some(AlsNetKind::Miss) => return None,
                    Some(AlsNetKind::Busy) => self.stats.busy += 1,
                    Some(_) | None => {}
                }
            }
            if Instant::now() >= deadline {
                self.stats.deadline_misses += 1;
                return None;
            }
            attempt += 1;
            self.sleep_backoff(attempt, salt, deadline);
        }
    }

    /// Scrapes one node's telemetry registry over the wire: sends an
    /// empty `StatsDump` request and returns the Prometheus text the
    /// node answers with. Retries with fresh uids until the node
    /// answers or the op deadline lapses. Only the scrape test calls it.
    #[cfg(test)]
    fn scrape_stats(&mut self, node: usize) -> Option<String> {
        self.ops += 1;
        let deadline = Instant::now() + self.config.op_deadline;
        let salt = self.next_uid;
        let mut attempt = 0u32;
        loop {
            let uid = self.fresh_uid();
            if self.send_kind(
                node,
                uid,
                AlsNetKind::StatsDump {
                    payload: Vec::new(),
                },
            ) {
                let budget = remaining(deadline).unwrap_or(Duration::ZERO);
                match self.wait_kind(node, uid, budget.min(self.config.ack_timeout)) {
                    Some(AlsNetKind::StatsDump { payload }) => {
                        return String::from_utf8(payload).ok();
                    }
                    Some(AlsNetKind::Busy) => self.stats.busy += 1,
                    Some(_) | None => {}
                }
            }
            if Instant::now() >= deadline {
                self.stats.deadline_misses += 1;
                return None;
            }
            attempt += 1;
            self.sleep_backoff(attempt, salt, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn small_engine() -> EngineConfig {
        EngineConfig {
            store: StoreConfig {
                shards: 2,
                ttl: None,
                capacity_per_shard: None,
            },
            workers: 1,
            queue_depth: 64,
            batch_max: 16,
            compact_every: None,
            shed_watermark: None,
        }
    }

    fn config(nodes: usize, replication: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            replication,
            engine: small_engine(),
            logical_clock: true,
            ..ClusterConfig::default()
        }
    }

    fn pair(i: u8) -> AlsPair {
        AlsPair {
            index: vec![i; 16],
            payload: vec![i, 0xC1],
        }
    }

    fn cells(n: u32) -> Vec<CellId> {
        (0..n)
            .flat_map(|col| (0..n).map(move |row| CellId { col, row }))
            .collect()
    }

    #[test]
    fn replicated_update_reaches_every_owner() {
        let mut cluster = Cluster::launch(config(3, 2)).unwrap();
        cluster.set_time(SimTime::from_secs(1));
        let mut client = cluster.client_with(ClientConfig::default()).unwrap();
        let cell = CellId { col: 2, row: 5 };
        let outcome = client.update(cell, vec![pair(7)]);
        assert_eq!(outcome.owners, 2);
        assert!(outcome.fully_acked(), "both live owners must ack");
        // Each owner holds the record; the non-owner holds nothing.
        let owners = cluster.ring().owners(cell, 2);
        for node in 0..3 {
            let digest = cluster.engine(node).unwrap().store().cell_digest(cell);
            assert_eq!(
                digest.count,
                u32::from(owners.contains(&node)),
                "node {node}"
            );
        }
        assert_eq!(
            client.query(cell, &[7; 16]).payload,
            Some(vec![7, 0xC1]),
            "ring query must find the record"
        );
    }

    #[test]
    fn live_node_answers_udp_stats_scrape() {
        let mut cluster = Cluster::launch(config(2, 1)).unwrap();
        cluster.set_time(SimTime::from_secs(1));
        let mut client = cluster.client_with(ClientConfig::default()).unwrap();
        let cell = CellId { col: 0, row: 0 };
        assert!(client.update(cell, vec![pair(1)]).fully_acked());
        let text = client.scrape_stats(0).expect("node 0 must answer a scrape");
        assert!(
            agr_telemetry::export::prometheus_family_count(&text) >= 20,
            "scrape must expose at least 20 metric families:\n{text}"
        );
        assert!(text.contains("# TYPE agr_als_store_records gauge"));
        // Scrapes are answered by the serve loop, so the tally shows up
        // in the shutdown stats of exactly the scraped node.
        let stats = cluster.shutdown();
        assert_eq!(stats[0].stats_dumps, 1);
        assert_eq!(stats[1].stats_dumps, 0);
    }

    #[test]
    fn kill_restart_and_anti_entropy_refill() {
        let mut cluster = Cluster::launch(config(3, 2)).unwrap();
        cluster.set_time(SimTime::from_secs(1));
        let mut client = cluster
            .client_with(ClientConfig {
                ack_timeout: Duration::from_millis(200),
                op_deadline: Duration::from_millis(900),
                ping_every: 0,
                ..ClientConfig::default()
            })
            .unwrap();
        let cell = CellId { col: 1, row: 1 };
        assert!(client.update(cell, vec![pair(3)]).fully_acked());
        let victim = cluster.ring().owners(cell, 2)[0];
        assert!(cluster.kill(victim));
        assert!(!cluster.is_up(victim));
        // The surviving replica still answers through the ring: the dead
        // owner eats one ack timeout, then the walk falls through.
        assert_eq!(client.query(cell, &[3; 16]).payload, Some(vec![3, 0xC1]));
        // Restart: empty until anti-entropy pulls the record back.
        assert!(cluster.restart(victim).unwrap());
        assert_eq!(
            cluster
                .engine(victim)
                .unwrap()
                .store()
                .cell_digest(cell)
                .count,
            0
        );
        let universe = cells(4);
        let rounds = cluster.quiesce(&universe, 8).unwrap();
        assert!(rounds.is_some(), "anti-entropy must quiesce");
        assert_eq!(
            cluster
                .engine(victim)
                .unwrap()
                .store()
                .cell_digest(cell)
                .count,
            1,
            "restarted replica must be refilled"
        );
        assert!(cluster.digests_agree(&universe));
        assert_eq!(
            client.query_node(victim, cell, &[3; 16]),
            Some(vec![3, 0xC1])
        );
    }

    #[test]
    fn sync_round_is_idempotent_once_converged() {
        let mut cluster = Cluster::launch(config(3, 2)).unwrap();
        cluster.set_time(SimTime::from_secs(1));
        let mut client = cluster.client_with(ClientConfig::default()).unwrap();
        for i in 0..12u8 {
            let cell = CellId {
                col: u32::from(i % 4),
                row: u32::from(i / 4),
            };
            assert!(client.update(cell, vec![pair(i)]).fully_acked());
        }
        let universe = cells(4);
        assert!(cluster.quiesce(&universe, 8).unwrap().is_some());
        let again = cluster.sync_round(&universe).unwrap();
        assert_eq!(again.changed, 0, "a converged round must change nothing");
        assert_eq!(again.pushed, 0, "matching digests must ship no records");
    }

    #[test]
    fn chaos_plan_is_seeded_ordered_and_single_failure() {
        for seed in [1u64, 7, 99] {
            let plan = ChaosPlan::seeded(seed, 5, 4_000, 3);
            assert_eq!(plan, ChaosPlan::seeded(seed, 5, 4_000, 3));
            assert_eq!(plan.events.len(), 6);
            let mut down: Option<usize> = None;
            let mut last_op = 0;
            for event in &plan.events {
                assert!(event.at_op >= last_op, "events must be sorted");
                last_op = event.at_op;
                match event.action {
                    ChaosAction::Kill => {
                        assert!(down.is_none(), "at most one node down at a time");
                        down = Some(event.node);
                    }
                    ChaosAction::Restart => {
                        assert_eq!(down, Some(event.node), "restart must match the kill");
                        down = None;
                    }
                }
            }
            assert!(down.is_none(), "every kill must be restarted");
        }
        assert_ne!(
            ChaosPlan::seeded(1, 5, 4_000, 3),
            ChaosPlan::seeded(2, 5, 4_000, 3),
            "different seeds should differ"
        );
    }

    #[test]
    fn chaos_plan_due_consumes_in_order() {
        let plan = ChaosPlan::seeded(42, 3, 1_000, 2);
        let mut fired = 0;
        let mut seen = 0;
        for op in 0..=1_000 {
            seen += plan.due(op, &mut fired).len();
        }
        assert_eq!(seen, plan.events.len());
        assert_eq!(fired, plan.events.len());
    }
}
