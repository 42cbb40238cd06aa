//! The serve loop and the blocking client.
//!
//! Frames on the wire are ordinary [`AgfwPacket::Als`] packets in the
//! canonical [`agr_core::wire`] encoding — the same bytes the simulator's
//! geo-routed service messages would carry, minus the multi-hop routing:
//! here the transport delivers them point-to-point. The server answers
//! every request (`Update`/`Forward` → [`AlsNetKind::Ack`], `Query` →
//! [`AlsNetKind::Reply`] or [`AlsNetKind::Miss`]), echoing the request
//! `uid` so clients can match answers to questions over a datagram
//! transport.

use crate::pipeline::{Engine, Request, Response};
use crate::pool::{FramePool, PooledFrame};
use crate::store::cell_key;
use crate::transport::{ServerTransport, Transport, MAX_FRAME};
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet, encode_packet_into};
use agr_geom::{CellId, Point};
use agr_telemetry::Histogram;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a blocking client waits for its answer before giving up.
pub(crate) const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters from one [`serve_batched`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Update frames applied.
    pub updates: u64,
    /// Query frames answered (hits + misses).
    pub queries: u64,
    /// Forward frames applied.
    pub forwards: u64,
    /// Queries answered with a record.
    pub hits: u64,
    /// Frames that failed to decode (oversize frames included).
    pub bad_frames: u64,
    /// Well-formed packets that are not service requests (data, hello,
    /// replies…) — ignored, never answered.
    pub ignored: u64,
    /// Anti-entropy digest probes answered (matched + diverged).
    pub sync_digests: u64,
    /// Anti-entropy deltas merged.
    pub sync_deltas: u64,
    /// Liveness pings answered with a `Pong`.
    pub pings: u64,
    /// Telemetry scrapes answered with a Prometheus-text `StatsDump`.
    pub stats_dumps: u64,
    /// Requests rejected with `Busy` by admission control.
    pub shed: u64,
    /// Answers (or encodes) that failed to leave the transport — counted
    /// and skipped, never a panic or a loop exit.
    pub send_errors: u64,
    /// Drain rounds completed.
    pub batches: u64,
    /// Median frames gathered per drain round — how full the batches
    /// actually ran, the observable the batching work stands on.
    /// Reported from the shared log2 telemetry histogram, so the value
    /// is the upper bound of the bucket holding the median (within one
    /// power of two of the exact median).
    pub frames_per_batch_p50: u64,
    /// 99th-percentile frames per drain round (same bucketing).
    pub frames_per_batch_p99: u64,
    /// Frame-pool takes served by buffer reuse (receive + reply pools).
    pub pool_hits: u64,
    /// Frame-pool takes that had to allocate fresh buffers.
    pub pool_misses: u64,
}

impl ServeStats {
    /// Folds `other` into `self` — accumulating tallies across the serve
    /// runs a kill/restart cycle splits a node's lifetime into. Batch
    /// occupancy percentiles don't sum; the merge keeps the worst
    /// (largest) observed value, which is the conservative answer for
    /// "how big did batches get over this node's lifetime".
    pub fn merge(&mut self, other: &ServeStats) {
        self.updates += other.updates;
        self.queries += other.queries;
        self.forwards += other.forwards;
        self.hits += other.hits;
        self.bad_frames += other.bad_frames;
        self.ignored += other.ignored;
        self.sync_digests += other.sync_digests;
        self.sync_deltas += other.sync_deltas;
        self.pings += other.pings;
        self.stats_dumps += other.stats_dumps;
        self.shed += other.shed;
        self.send_errors += other.send_errors;
        self.batches += other.batches;
        self.frames_per_batch_p50 = self.frames_per_batch_p50.max(other.frames_per_batch_p50);
        self.frames_per_batch_p99 = self.frames_per_batch_p99.max(other.frames_per_batch_p99);
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// Wraps `kind` in the canonical packet framing, echoing `uid`.
pub(crate) fn frame(uid: u64, kind: AlsNetKind) -> AlsNetMessage {
    AlsNetMessage {
        target_loc: Point::ORIGIN,
        next: Pseudonym::LAST_ATTEMPT,
        uid,
        ttl: 1,
        kind,
    }
}

/// Tuning for [`serve_batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most frames one transport batch call may return — the `recvmmsg`
    /// vector length, and the granularity of pipeline batch submission.
    pub max_batch: usize,
    /// Cap on frames accumulated per drain round before the loop stops
    /// reading and starts answering (bounds reply latency and buffered
    /// memory under a flood). Values below `max_batch` behave as
    /// `max_batch`.
    pub max_backlog: usize,
    /// Bound of each frame pool's free list (receive and reply pools
    /// are separate but share this bound).
    pub pool_frames: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_backlog: 256,
            pool_frames: 512,
        }
    }
}

/// Which wire request a pending pipeline submission came from, so its
/// [`Response`] maps back to the right answer kind and stat.
enum DataTag {
    Update,
    Query,
    Forward,
}

/// One drain round's working set: the data requests waiting for the
/// pipeline, the encoded answers waiting for the batch send, and the
/// running tally.
struct Round<'a, P> {
    engine: &'a Engine,
    reply_pool: Arc<FramePool>,
    pending: Vec<Request>,
    meta: Vec<(u64, DataTag, P)>,
    replies: Vec<(P, PooledFrame)>,
    stats: ServeStats,
}

impl<P> Round<'_, P> {
    /// Encodes one answer into a pooled buffer and queues it for the
    /// batch send. A failed encode is the peer's loss, not the node's:
    /// counted as a send error and skipped.
    fn reply(&mut self, peer: P, uid: u64, kind: AlsNetKind) {
        let mut out = self.reply_pool.get();
        let ok = out
            .fill_with(|buf| encode_packet_into(&AgfwPacket::Als(frame(uid, kind)), buf).is_ok());
        if ok {
            self.replies.push((peer, out));
        } else {
            self.stats.send_errors += 1;
        }
    }

    /// Pushes the accumulated data requests through the pipeline as one
    /// admission-checked batch and queues their answers. Shed requests
    /// (a `None` answer) become `Busy`.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let answers = self
            .engine
            .call_batch_admitted(std::mem::take(&mut self.pending));
        // `meta` steps out of `self` for the walk (so `reply` can borrow
        // the rest) and back in after, keeping its capacity.
        let mut meta = std::mem::take(&mut self.meta);
        for ((uid, tag, peer), answer) in meta.drain(..).zip(answers) {
            let stats = &mut self.stats;
            let kind = match (tag, answer) {
                (_, None) => {
                    stats.shed += 1;
                    AlsNetKind::Busy
                }
                (DataTag::Update, Some(Response::Stored { count })) => {
                    stats.updates += 1;
                    AlsNetKind::Ack { stored: count }
                }
                (DataTag::Update, Some(Response::Hit { .. } | Response::Miss)) => {
                    stats.updates += 1;
                    AlsNetKind::Ack { stored: 0 }
                }
                (DataTag::Query, Some(Response::Hit { payload })) => {
                    stats.queries += 1;
                    stats.hits += 1;
                    AlsNetKind::Reply { payload }
                }
                (DataTag::Query, Some(Response::Miss | Response::Stored { .. })) => {
                    stats.queries += 1;
                    AlsNetKind::Miss
                }
                (DataTag::Forward, Some(Response::Stored { count })) => {
                    stats.forwards += 1;
                    AlsNetKind::Ack { stored: count }
                }
                (DataTag::Forward, Some(Response::Hit { .. } | Response::Miss)) => {
                    stats.forwards += 1;
                    AlsNetKind::Ack { stored: 0 }
                }
            };
            self.reply(peer, uid, kind);
        }
        self.meta = meta;
    }
}

/// The serve loop — the only reader of a [`ServerTransport`]: wait for
/// the first frame (one poll-bounded blocking batch receive), drain
/// whatever else already arrived without waiting again, push the whole
/// round through the pipeline's batch path, and answer with one batch
/// send — syscalls, queue handoffs, and buffer allocations all amortize
/// over the round. Runs until `stop` is raised or the transport breaks
/// (loopback peer gone); receive timeouts are polling, not errors.
///
/// Batching reorders work, never decisions: the `serve_equivalence`
/// proptest drives the same request mix through a one-frame-per-round
/// [`BatchConfig`] and the default one and gets the same uid-matched
/// answers, store state, and stat tallies. Anti-entropy and liveness
/// frames keep their ordering guarantees: a `SyncDigest`/`SyncDelta`
/// flushes the data requests batched before it, so a digest probe never
/// reads past an update that arrived ahead of it.
///
/// `Busy` shedding fires per request: the pipeline's batch admission
/// counts a request's own round toward its queue's occupancy.
pub fn serve_batched<T: ServerTransport>(
    engine: &Engine,
    transport: &mut T,
    config: BatchConfig,
    stop: &AtomicBool,
) -> ServeStats {
    let max_batch = config.max_batch.max(1);
    let max_backlog = config.max_backlog.max(max_batch);
    let pool_bound = config.pool_frames.max(max_backlog);
    // Receive buffers are pre-sized to the frame bound so scatter
    // receives never reallocate; reply buffers start empty and keep
    // whatever capacity encoding grows them to.
    let recv_pool = FramePool::with_frame_bytes(pool_bound, MAX_FRAME);
    let mut batch: Vec<(PooledFrame, T::Peer)> = Vec::new();
    let mut round = Round {
        engine,
        reply_pool: FramePool::new(pool_bound),
        pending: Vec::new(),
        meta: Vec::new(),
        replies: Vec::new(),
        stats: ServeStats::default(),
    };
    let occupancy = Histogram::new();
    let mut fatal = false;
    while !fatal && !stop.load(Ordering::Acquire) {
        batch.clear();
        match transport.recv_batch_from(&recv_pool, max_batch, true, &mut batch) {
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock =>
            {
                continue;
            }
            Err(_) => break,
        }
        // Readiness drain: keep taking already-arrived frames without
        // waiting, until the transport reports WouldBlock or the round
        // hits its backlog cap.
        while batch.len() < max_backlog {
            let room = (max_backlog - batch.len()).min(max_batch);
            match transport.recv_batch_from(&recv_pool, room, false, &mut batch) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock =>
                {
                    break;
                }
                Err(_) => {
                    // Answer what already arrived, then exit.
                    fatal = true;
                    break;
                }
            }
        }
        round.stats.batches += 1;
        occupancy.record(batch.len().min(max_backlog) as u64);
        round.replies.clear();
        for (frame_buf, peer) in batch.drain(..) {
            // A frame beyond the transport bound is dropped before the
            // decoder touches it: the loopback can carry arbitrarily
            // large frames, and the loop must bound its work the way
            // the UDP receive buffer does.
            if frame_buf.len() > MAX_FRAME {
                round.stats.bad_frames += 1;
                continue;
            }
            let message = match decode_packet(&frame_buf) {
                Ok(AgfwPacket::Als(m)) => m,
                Ok(_) => {
                    round.stats.ignored += 1;
                    continue;
                }
                Err(_) => {
                    round.stats.bad_frames += 1;
                    continue;
                }
            };
            // The receive buffer returns to the pool here — the decoded
            // message owns its bytes, so the buffer is free for the
            // next drain round.
            drop(frame_buf);
            let uid = message.uid;
            match message.kind {
                AlsNetKind::Update { cell, pairs } => {
                    round.pending.push(Request::Update { cell, pairs });
                    round.meta.push((uid, DataTag::Update, peer));
                }
                AlsNetKind::Request {
                    cell,
                    index,
                    reply_loc,
                } => {
                    round.pending.push(Request::Query {
                        cell,
                        index,
                        reply_loc,
                    });
                    round.meta.push((uid, DataTag::Query, peer));
                }
                AlsNetKind::Forward {
                    from_cell,
                    to_cell,
                    pairs,
                } => {
                    round.pending.push(Request::Forward {
                        from_cell,
                        to_cell,
                        pairs,
                    });
                    round.meta.push((uid, DataTag::Forward, peer));
                }
                // Anti-entropy probe: always answer with the local
                // digest. The *prober* compares and decides whether to
                // push — a responder never ships data, so every frame in
                // the exchange stays bounded (pushes are chunked by the
                // sync agent) and a cell can outgrow a single datagram
                // without wedging the serve loop.
                AlsNetKind::SyncDigest { cell, .. } => {
                    // Flush first: the digest must observe every update
                    // that arrived before it in this round.
                    round.flush();
                    round.stats.sync_digests += 1;
                    let local = engine.store().cell_digest(cell);
                    let answer = AlsNetKind::SyncDigest {
                        cell,
                        digest: local.digest,
                        count: local.count,
                    };
                    round.reply(peer, uid, answer);
                }
                // Anti-entropy payload: sync records carry their own
                // authoritative stored_at, so they bypass the
                // clock-stamping pipeline — but go through the engine,
                // not the raw store: merged records must reach the
                // journal, or a restart would forget what anti-entropy
                // delivered.
                AlsNetKind::SyncDelta { cell, pairs } => {
                    // Same ordering rule as the digest: earlier data
                    // requests land before the merge.
                    round.flush();
                    round.stats.sync_deltas += 1;
                    let records = pairs
                        .into_iter()
                        .map(|p| (cell_key(cell, &p.index), p.payload, p.stored_at))
                        .collect();
                    let stored = u32::try_from(engine.merge_synced(records)).unwrap_or(u32::MAX);
                    round.reply(peer, uid, AlsNetKind::Ack { stored });
                }
                // Liveness probe: always answered, even under overload —
                // admission control sheds *work*, while the pong
                // advertises the backlog so clients can tell "slow" from
                // "dead".
                AlsNetKind::Ping => {
                    round.stats.pings += 1;
                    let queue_depth = u32::try_from(engine.queued()).unwrap_or(u32::MAX);
                    round.reply(peer, uid, AlsNetKind::Pong { queue_depth });
                }
                // Telemetry scrape. Only the empty-payload request form
                // is served; a filled dump is someone's reply, not a
                // question.
                AlsNetKind::StatsDump { payload } if payload.is_empty() => {
                    // Same ordering rule as the anti-entropy frames: the
                    // dump reflects every request batched ahead of it.
                    round.flush();
                    round.stats.stats_dumps += 1;
                    let payload = crate::metrics::scrape_payload(
                        engine,
                        &round.stats,
                        Some(&occupancy),
                        Some((&recv_pool, &round.reply_pool)),
                    );
                    round.reply(peer, uid, AlsNetKind::StatsDump { payload });
                }
                AlsNetKind::Reply { .. }
                | AlsNetKind::Ack { .. }
                | AlsNetKind::Miss
                | AlsNetKind::Pong { .. }
                | AlsNetKind::Busy
                | AlsNetKind::StatsDump { .. } => {
                    round.stats.ignored += 1;
                }
            }
        }
        round.flush();
        // A failed answer is the peer's loss, not the node's: count it
        // and keep serving. Reply buffers return to their pool as the
        // vec clears on the next round.
        let sent = transport.send_batch_to(&round.replies);
        round.stats.send_errors += (round.replies.len() - sent) as u64;
    }
    let mut stats = round.stats;
    stats.frames_per_batch_p50 = occupancy.quantile(0.50);
    stats.frames_per_batch_p99 = occupancy.quantile(0.99);
    let recv = recv_pool.stats();
    let reply = round.reply_pool.stats();
    stats.pool_hits = recv.hits + reply.hits;
    stats.pool_misses = recv.misses + reply.misses;
    stats
}

/// A blocking request/response client over any [`Transport`].
pub struct AlsClient<T: Transport> {
    transport: T,
    next_uid: u64,
    total_timeout: Duration,
    attempt_timeout: Duration,
}

impl<T: Transport> AlsClient<T> {
    /// Wraps `transport` with the default single-attempt timeout.
    #[must_use]
    pub fn new(transport: T) -> AlsClient<T> {
        AlsClient::with_timeouts(transport, CLIENT_TIMEOUT, CLIENT_TIMEOUT)
    }

    /// Wraps `transport` with an overall deadline and a per-attempt
    /// timeout: when no answer arrives within `attempt`, the *same*
    /// frame (same uid) is re-sent and the wait continues, until `total`
    /// lapses. Every service operation is idempotent or uid-matched, so
    /// re-sending over a lossy transport is safe; `attempt == total`
    /// (the default) never re-sends.
    #[must_use]
    pub(crate) fn with_timeouts(transport: T, total: Duration, attempt: Duration) -> AlsClient<T> {
        AlsClient {
            transport,
            next_uid: 1,
            total_timeout: total,
            attempt_timeout: attempt.max(Duration::from_millis(1)),
        }
    }

    fn roundtrip(&mut self, kind: AlsNetKind) -> io::Result<AlsNetKind> {
        let uid = self.next_uid;
        self.next_uid += 1;
        let encoded = encode_packet(&AgfwPacket::Als(frame(uid, kind)))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.transport.send(&encoded)?;
        let deadline = Instant::now() + self.total_timeout;
        let mut attempt_deadline = Instant::now() + self.attempt_timeout;
        loop {
            match self.transport.recv() {
                Ok(bytes) => match decode_packet(&bytes) {
                    // A Busy answer means alive-but-overloaded: fall
                    // through to the re-send path rather than failing.
                    Ok(AgfwPacket::Als(m))
                        if m.uid == uid && !matches!(m.kind, AlsNetKind::Busy) =>
                    {
                        return Ok(m.kind);
                    }
                    // Stale answers (a lost request's late reply) carry an
                    // older uid — drop them and keep waiting for ours.
                    Ok(_) | Err(_) => {}
                },
                Err(e)
                    if e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            if now >= attempt_deadline {
                self.transport.send(&encoded)?;
                attempt_deadline = now + self.attempt_timeout;
            }
        }
    }

    /// Sends an anonymous location update; returns how many pairs the
    /// server applied.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` when no answer arrived within
    /// `CLIENT_TIMEOUT`.
    pub fn update(&mut self, cell: CellId, pairs: Vec<AlsPair>) -> io::Result<u32> {
        match self.roundtrip(AlsNetKind::Update { cell, pairs })? {
            AlsNetKind::Ack { stored } => Ok(stored),
            other => Err(unexpected(&other)),
        }
    }

    /// Queries a sealed index; `Ok(None)` is an answered miss.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` when no answer arrived within
    /// `CLIENT_TIMEOUT`.
    pub fn query(&mut self, cell: CellId, index: Vec<u8>) -> io::Result<Option<Vec<u8>>> {
        let kind = AlsNetKind::Request {
            cell,
            index,
            reply_loc: Point::ORIGIN,
        };
        match self.roundtrip(kind)? {
            AlsNetKind::Reply { payload } => Ok(Some(payload)),
            AlsNetKind::Miss => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// Re-homes sealed pairs from one cell to another; returns how many
    /// the server applied.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` when no answer arrived within
    /// `CLIENT_TIMEOUT`.
    pub fn forward(
        &mut self,
        from_cell: CellId,
        to_cell: CellId,
        pairs: Vec<AlsPair>,
    ) -> io::Result<u32> {
        let kind = AlsNetKind::Forward {
            from_cell,
            to_cell,
            pairs,
        };
        match self.roundtrip(kind)? {
            AlsNetKind::Ack { stored } => Ok(stored),
            other => Err(unexpected(&other)),
        }
    }

    /// Probes the peer's digest for `cell`; returns `(digest, count)` as
    /// the peer reports them. The caller compares against its own
    /// [`crate::store::CellDigest`] and pushes a delta when they differ.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` when no answer arrived within
    /// [`CLIENT_TIMEOUT`].
    pub(crate) fn sync_digest(
        &mut self,
        cell: CellId,
        digest: u64,
        count: u32,
    ) -> io::Result<(u64, u32)> {
        let kind = AlsNetKind::SyncDigest {
            cell,
            digest,
            count,
        };
        match self.roundtrip(kind)? {
            AlsNetKind::SyncDigest { digest, count, .. } => Ok((digest, count)),
            other => Err(unexpected(&other)),
        }
    }

    /// Pushes replicated records for `cell` (cell-relative indices, each
    /// with its authoritative `stored_at`); returns how many records the
    /// peer's last-writer-wins merge actually changed.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` when no answer arrived within
    /// [`CLIENT_TIMEOUT`].
    pub(crate) fn sync_delta(&mut self, cell: CellId, pairs: Vec<AlsSyncPair>) -> io::Result<u32> {
        match self.roundtrip(AlsNetKind::SyncDelta { cell, pairs })? {
            AlsNetKind::Ack { stored } => Ok(stored),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(kind: &AlsNetKind) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected service answer: {kind:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EngineConfig;
    use crate::transport::loopback_pair;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const CELL: CellId = CellId { col: 3, row: 4 };

    fn pair(i: u8) -> AlsPair {
        AlsPair {
            index: vec![i; 16],
            payload: vec![i, 0xAB],
        }
    }

    #[test]
    fn loopback_update_query_forward_roundtrip() {
        let engine = Arc::new(Engine::start(EngineConfig::default()));
        let (client, mut server_side) = loopback_pair(16);
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let engine = engine.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
            })
        };

        let mut client = AlsClient::new(client);
        assert_eq!(client.update(CELL, vec![pair(1), pair(2)]).unwrap(), 2);
        assert_eq!(
            client.query(CELL, vec![1; 16]).unwrap(),
            Some(vec![1, 0xAB])
        );
        assert_eq!(client.query(CELL, vec![9; 16]).unwrap(), None);
        let to = CellId { col: 7, row: 7 };
        assert_eq!(client.forward(CELL, to, vec![pair(1)]).unwrap(), 1);
        assert_eq!(client.query(CELL, vec![1; 16]).unwrap(), None);
        assert_eq!(client.query(to, vec![1; 16]).unwrap(), Some(vec![1, 0xAB]));

        stop.store(true, Ordering::Release);
        let stats = server.join().unwrap();
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.forwards, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.bad_frames, 0);
        assert!(stats.batches >= 1, "batched loop must count drain rounds");
        assert!(
            stats.frames_per_batch_p50 >= 1,
            "occupancy percentiles must reflect served frames"
        );
    }

    #[test]
    fn serve_counts_garbage_and_foreign_frames_without_answering() {
        let engine = Engine::start(EngineConfig::default());
        let (mut raw, mut server_side) = loopback_pair(16);
        let stop = Arc::new(AtomicBool::new(false));
        // Garbage bytes and a non-service packet.
        raw.send(&[0xFF, 0x00, 0x01]).unwrap();
        let hello = AgfwPacket::Hello {
            n: Pseudonym([5; 6]),
            loc: Point::ORIGIN,
            ts: agr_sim::SimTime::ZERO,
            auth: None,
        };
        raw.send(&encode_packet(&hello).unwrap()).unwrap();
        let stop_flag = stop.clone();
        let server = std::thread::spawn(move || {
            serve_batched(
                &engine,
                &mut server_side,
                BatchConfig::default(),
                &stop_flag,
            )
        });
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Release);
        let stats = server.join().unwrap();
        assert_eq!(stats.bad_frames, 1);
        assert_eq!(stats.ignored, 1);
        assert_eq!(stats.updates + stats.queries + stats.forwards, 0);
    }
}
