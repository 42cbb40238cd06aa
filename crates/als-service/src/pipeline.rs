//! Typed requests, bounded queues, and the batching worker pool.
//!
//! Requests enter through [`Engine::submit`] / [`Engine::call`] (or
//! their batch forms [`Engine::submit_batch`] /
//! [`Engine::call_batch_admitted`], which pay one queue handoff for a
//! whole transport drain), land on a bounded per-worker queue
//! (`std::sync::mpsc::sync_channel`, so a full queue **blocks the
//! producer** — backpressure, not unbounded memory), and are drained by
//! workers in arrival order. Consecutive
//! updates are coalesced and applied as one shard-grouped batch; queries
//! are answered in place, so a query submitted after an update on the
//! same queue observes it.
//!
//! Routing is by shard of the request's primary key, which keeps every
//! key's operations on one queue: per-key FIFO semantics survive the
//! fan-out to multiple workers.

use crate::journal::Journal;
use crate::store::{cell_key, ShardedStore, StoreConfig, StoreOp};
use agr_core::packet::AlsPair;
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed service request — the in-process form of the wire frames in
/// [`agr_core::packet::AlsNetKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `RLU`: anonymous remote location update — sealed pairs for one
    /// target cell.
    Update {
        /// Target server cell `ssa(A)`.
        cell: CellId,
        /// One sealed `(index, record)` pair per anticipated requester.
        pairs: Vec<AlsPair>,
    },
    /// `LREQ`: anonymous location query by sealed index.
    Query {
        /// Target server cell.
        cell: CellId,
        /// The deterministic `E_KB(A,B)` lookup index.
        index: Vec<u8>,
        /// Where a geo-routed reply would be sent (opaque to the engine;
        /// echoed for transports that need it).
        reply_loc: Point,
    },
    /// Hierarchical DLM-forward: re-home sealed pairs from one cell to
    /// another (server departure, hierarchy re-partition).
    Forward {
        /// Cell the records are leaving.
        from_cell: CellId,
        /// Cell now responsible.
        to_cell: CellId,
        /// The re-homed pairs.
        pairs: Vec<AlsPair>,
    },
}

impl Request {
    /// The key whose shard decides which worker queue this request rides
    /// (keeps per-key operations FIFO).
    #[must_use]
    pub(crate) fn routing_key(&self) -> Vec<u8> {
        match self {
            Request::Update { cell, pairs } => pairs
                .first()
                .map_or_else(|| cell_key(*cell, &[]), |p| cell_key(*cell, &p.index)),
            Request::Query { cell, index, .. } => cell_key(*cell, index),
            Request::Forward { to_cell, pairs, .. } => pairs
                .first()
                .map_or_else(|| cell_key(*to_cell, &[]), |p| cell_key(*to_cell, &p.index)),
        }
    }
}

/// The engine's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Update/forward applied; how many pairs landed.
    Stored {
        /// Pairs applied.
        count: u32,
    },
    /// Query hit: the sealed record.
    Hit {
        /// `E_KB(A, loc_A, ts)`.
        payload: Vec<u8>,
    },
    /// Query matched no fresh record.
    Miss,
}

/// Sizing of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Storage policy.
    pub store: StoreConfig,
    /// Worker threads (values below 1 behave as 1; more workers than
    /// shards adds queues but no storage parallelism).
    pub workers: usize,
    /// Bound of each worker's request queue — the backpressure knob.
    pub queue_depth: usize,
    /// Most jobs a worker drains per wakeup before answering them.
    pub batch_max: usize,
    /// Compaction sweep period (wall clock); `None` relies on expiry at
    /// read plus capacity eviction alone.
    pub compact_every: Option<SimTime>,
    /// Admission-control high-water mark: [`Engine::call_batch_admitted`]
    /// rejects (sheds) a request when its target queue already holds at
    /// least this many jobs. `None` admits everything, which preserves
    /// the blocking-backpressure behavior.
    pub shed_watermark: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store: StoreConfig::default(),
            workers: 4,
            queue_depth: 1024,
            batch_max: 64,
            compact_every: Some(SimTime::from_secs(1)),
            shed_watermark: None,
        }
    }
}

/// The engine's clock: nanoseconds since engine start, expressed as
/// [`SimTime`] so the storage layer is oblivious to which world —
/// simulated or wall — is driving it. Tests pin it manually.
#[derive(Debug, Clone)]
pub(crate) struct Clock {
    origin: Instant,
    manual: Option<Arc<AtomicU64>>,
}

impl Clock {
    fn wall() -> Self {
        Clock {
            origin: Instant::now(),
            manual: None,
        }
    }

    fn manual() -> (Self, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        (
            Clock {
                origin: Instant::now(),
                manual: Some(cell.clone()),
            },
            cell,
        )
    }

    /// The current engine time.
    #[must_use]
    pub(crate) fn now(&self) -> SimTime {
        match &self.manual {
            Some(cell) => SimTime::from_nanos(cell.load(Ordering::Acquire)),
            None => SimTime::from_nanos(
                u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ),
        }
    }
}

/// One queued job: a request and, when the caller wants the answer, a
/// reply slot.
struct Job {
    request: Request,
    reply: Option<SyncSender<Response>>,
}

/// What travels down a worker queue: a single job, or a pre-grouped
/// batch the serve loop collected in one transport drain. A batch is
/// one channel send for N requests — the queue-side half of the
/// data-plane batching — and its jobs stay contiguous, so per-key FIFO
/// order within the batch is exactly submission order.
enum Work {
    One(Job),
    Batch(Vec<Job>),
}

impl Work {
    fn jobs(&self) -> usize {
        match self {
            Work::One(_) => 1,
            Work::Batch(jobs) => jobs.len(),
        }
    }
}

/// The running service engine: sharded store + worker pool + compactor.
///
/// Cheap to share: clone the [`Arc`] returned by [`Engine::start`].
pub struct Engine {
    store: Arc<ShardedStore>,
    queues: Vec<SyncSender<Work>>,
    depths: Vec<Arc<AtomicUsize>>,
    shed_watermark: Option<usize>,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    compactor: Option<std::thread::JoinHandle<()>>,
    shed: AtomicU64,
    journal: Option<Arc<Mutex<Journal>>>,
    journal_errors: Arc<AtomicU64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.store.shards())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts workers (and the compactor when configured) on the wall
    /// clock.
    #[must_use]
    pub fn start(config: EngineConfig) -> Engine {
        Engine::start_with_clock(config, Clock::wall(), None)
    }

    /// Starts a wall-clock engine that journals every applied mutation
    /// to `journal` — the crash-recovery mode cluster nodes run in.
    #[must_use]
    pub(crate) fn start_journaled(config: EngineConfig, journal: Journal) -> Engine {
        Engine::start_with_clock(config, Clock::wall(), Some(journal))
    }

    /// Starts an engine whose clock the caller advances by storing
    /// nanoseconds into the returned cell — deterministic TTL tests.
    #[must_use]
    pub fn start_manual_clock(config: EngineConfig) -> (Engine, Arc<AtomicU64>) {
        let (clock, cell) = Clock::manual();
        (Engine::start_with_clock(config, clock, None), cell)
    }

    /// Manual clock plus journaling — the configuration the
    /// deterministic cluster conformance suite runs recovery under.
    #[must_use]
    pub(crate) fn start_manual_clock_journaled(
        config: EngineConfig,
        journal: Journal,
    ) -> (Engine, Arc<AtomicU64>) {
        let (clock, cell) = Clock::manual();
        (Engine::start_with_clock(config, clock, Some(journal)), cell)
    }

    fn start_with_clock(config: EngineConfig, clock: Clock, journal: Option<Journal>) -> Engine {
        let store = Arc::new(ShardedStore::new(&config.store));
        let stop = Arc::new(AtomicBool::new(false));
        let journal = journal.map(|j| Arc::new(Mutex::new(j)));
        let journal_errors = Arc::new(AtomicU64::new(0));
        let workers_n = config.workers.max(1);
        let mut queues = Vec::with_capacity(workers_n);
        let mut depths = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let (tx, rx) = sync_channel::<Work>(config.queue_depth.max(1));
            queues.push(tx);
            let depth = Arc::new(AtomicUsize::new(0));
            depths.push(depth.clone());
            let store = store.clone();
            let clock = clock.clone();
            let batch_max = config.batch_max.max(1);
            let journal = journal.clone();
            let journal_errors = journal_errors.clone();
            workers.push(std::thread::spawn(move || {
                let ctx = WorkerCtx {
                    depth,
                    journal,
                    journal_errors,
                };
                worker_loop(&store, &clock, &rx, batch_max, &ctx);
            }));
        }
        let compactor = config.compact_every.map(|period| {
            let store = store.clone();
            let clock = clock.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let period = std::time::Duration::from_nanos(period.as_nanos().max(1_000_000));
                while !stop.load(Ordering::Acquire) {
                    std::thread::park_timeout(period);
                    store.compact(clock.now(), 1);
                }
            })
        });
        Engine {
            store,
            queues,
            depths,
            shed_watermark: config.shed_watermark,
            stop,
            workers,
            compactor,
            shed: AtomicU64::new(0),
            journal,
            journal_errors,
        }
    }

    /// The engine's store (for preloading, stats, or direct benchmarks).
    #[must_use]
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    fn queue_index(&self, request: &Request) -> usize {
        let shard = self.store.shard_of(&request.routing_key());
        shard % self.queues.len()
    }

    /// Jobs currently queued across all workers — the load figure a
    /// `Pong` advertises and `call_batch_admitted` sheds on.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    /// Enqueues a fire-and-forget request, blocking while the target
    /// queue is full (backpressure).
    pub fn submit(&self, request: Request) {
        let job = Job {
            request,
            reply: None,
        };
        let q = self.queue_index(&job.request);
        self.depths[q].fetch_add(1, Ordering::Relaxed);
        self.queues[q]
            .send(Work::One(job))
            .expect("worker queue closed before shutdown");
    }

    /// Enqueues many fire-and-forget requests with one channel send per
    /// worker queue — the batch-submission path that amortizes the
    /// per-request queue handoff. Requests targeting the same queue keep
    /// their relative order (per-key FIFO survives), and a full queue
    /// blocks exactly like [`Engine::submit`] (backpressure, request-
    /// level depth accounting).
    pub fn submit_batch(&self, requests: Vec<Request>) {
        let mut groups: Vec<Vec<Job>> = (0..self.queues.len()).map(|_| Vec::new()).collect();
        for request in requests {
            let q = self.queue_index(&request);
            groups[q].push(Job {
                request,
                reply: None,
            });
        }
        for (q, jobs) in groups.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            self.depths[q].fetch_add(jobs.len(), Ordering::Relaxed);
            self.queues[q]
                .send(Work::Batch(jobs))
                .expect("worker queue closed before shutdown");
        }
    }

    /// Attempts a non-blocking submit; returns the request back when the
    /// queue is full, so callers can shed load instead of stalling.
    ///
    /// A shed is side-effect free: the request is handed back whole,
    /// no queue slot stays reserved, and nothing reaches the store —
    /// `shed_count` plus the store's lifetime counters always account
    /// for every accepted submission (the invariant the queue-accounting
    /// proptest in `tests/pipeline_shed.rs` churns on).
    ///
    /// # Errors
    ///
    /// The rejected request.
    pub fn try_submit(&self, request: Request) -> Result<(), Request> {
        let job = Job {
            request,
            reply: None,
        };
        let q = self.queue_index(&job.request);
        self.depths[q].fetch_add(1, Ordering::Relaxed);
        match self.queues[q].try_send(Work::One(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(work) | TrySendError::Disconnected(work)) => {
                self.depths[q].fetch_sub(1, Ordering::Relaxed);
                self.shed.fetch_add(1, Ordering::Relaxed);
                let Work::One(job) = work else {
                    unreachable!("try_submit only sends Work::One")
                };
                Err(job.request)
            }
        }
    }

    /// How many [`Engine::try_submit`] attempts were shed (queue full or
    /// closed) over the engine's lifetime.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Submits and blocks for the answer.
    pub fn call(&self, request: Request) -> Response {
        let (tx, rx) = sync_channel(1);
        let job = Job {
            request,
            reply: Some(tx),
        };
        let q = self.queue_index(&job.request);
        self.depths[q].fetch_add(1, Ordering::Relaxed);
        self.queues[q]
            .send(Work::One(job))
            .expect("worker queue closed before shutdown");
        rx.recv().expect("worker dropped reply slot")
    }

    /// [`Engine::call`] for a whole batch, behind admission control: one
    /// channel send per involved worker queue, one blocking collection
    /// pass, answers scattered back to the input order. A request whose
    /// target queue already holds `shed_watermark` or more jobs is shed
    /// (counted, side-effect free) and its slot stays `None` — the serve
    /// loop's cue to answer `Busy` instead of queueing unbounded work
    /// behind an overload. Shedding is per *request*, and a request's
    /// own batch counts toward its queue's occupancy, so a single
    /// oversized batch cannot blow through the watermark the way
    /// `watermark × batch` would. With no watermark configured every
    /// request is admitted.
    ///
    /// Correctness leans on an invariant of the worker loop: a batch
    /// arrives as one contiguous run of jobs, and workers answer jobs in
    /// the order they drain them, so per-queue replies come back in
    /// submission order and need no per-job tagging.
    pub fn call_batch_admitted(&self, requests: Vec<Request>) -> Vec<Option<Response>> {
        let n = requests.len();
        let mut out: Vec<Option<Response>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let mut groups: Vec<Vec<usize>> = (0..self.queues.len()).map(|_| Vec::new()).collect();
        for (i, request) in requests.iter().enumerate() {
            groups[self.queue_index(request)].push(i);
        }
        let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
        let mut waits = Vec::new();
        for (q, indices) in groups.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let admitted: Vec<usize> = match self.shed_watermark {
                Some(watermark) => {
                    let watermark = watermark.max(1);
                    let mut occupancy = self.depths[q].load(Ordering::Relaxed);
                    indices
                        .into_iter()
                        .filter(|_| {
                            if occupancy >= watermark {
                                self.shed.fetch_add(1, Ordering::Relaxed);
                                false
                            } else {
                                occupancy += 1;
                                true
                            }
                        })
                        .collect()
                }
                None => indices,
            };
            if admitted.is_empty() {
                continue;
            }
            let (tx, rx) = sync_channel(admitted.len());
            let jobs: Vec<Job> = admitted
                .iter()
                .map(|&i| Job {
                    request: slots[i].take().expect("each request moved once"),
                    reply: Some(tx.clone()),
                })
                .collect();
            self.depths[q].fetch_add(jobs.len(), Ordering::Relaxed);
            self.queues[q]
                .send(Work::Batch(jobs))
                .expect("worker queue closed before shutdown");
            waits.push((rx, admitted));
        }
        for (rx, indices) in waits {
            for i in indices {
                out[i] = Some(rx.recv().expect("worker dropped reply slot"));
            }
        }
        out
    }

    /// Merges replicated records for `cell` last-writer-wins directly
    /// into the store, journaling exactly the records the merge changed
    /// (a no-op merge must not be re-journaled: replay order must match
    /// merge order, or a replayed older record could shadow a newer
    /// one). The write side of anti-entropy delta application.
    pub(crate) fn merge_synced(&self, records: Vec<(Vec<u8>, Vec<u8>, SimTime)>) -> usize {
        let mut landed: Vec<(Vec<u8>, Vec<u8>, SimTime)> = Vec::new();
        for (key, payload, stored_at) in records {
            if self
                .store
                .merge_record(key.clone(), payload.clone(), stored_at)
            {
                landed.push((key, payload, stored_at));
            }
        }
        let changed = landed.len();
        if changed > 0 {
            if let Some(journal) = &self.journal {
                let mut journal = journal.lock().expect("journal poisoned");
                if journal.append_puts(&landed).is_err() {
                    self.journal_errors.fetch_add(1, Ordering::Relaxed);
                }
                maybe_compact(&mut journal, &self.store, &self.journal_errors);
            }
        }
        changed
    }

    /// Journal write failures over the engine's lifetime (the journal
    /// degrades to best-effort rather than panicking a worker).
    #[must_use]
    pub(crate) fn journal_error_count(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// Whether this engine journals applied mutations.
    #[must_use]
    pub(crate) fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Drains queues, stops workers and compactor, and returns the store
    /// for post-mortem inspection.
    pub fn shutdown(mut self) -> Arc<ShardedStore> {
        self.stop.store(true, Ordering::Release);
        self.queues.clear(); // closing senders ends each worker's recv loop
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(c) = self.compactor.take() {
            c.thread().unpark();
            let _ = c.join();
        }
        self.store.clone()
    }
}

/// Per-worker shared state beyond the store: its queue-depth gauge and
/// the engine's (optional) journal.
struct WorkerCtx {
    depth: Arc<AtomicUsize>,
    journal: Option<Arc<Mutex<Journal>>>,
    journal_errors: Arc<AtomicU64>,
}

impl WorkerCtx {
    /// Journals applied mutations, counting rather than propagating
    /// failures, and compacts the journal when history piled up.
    fn journal_applied(&self, store: &ShardedStore, ops: &[JournalWrite]) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut journal = journal.lock().expect("journal poisoned");
        for op in ops {
            let failed = match op {
                JournalWrite::Puts(records) => journal.append_puts(records).is_err(),
                JournalWrite::Delete(key) => journal.append_delete(key).is_err(),
            };
            if failed {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        maybe_compact(&mut journal, store, &self.journal_errors);
    }
}

/// One journal entry a worker owes after applying store mutations.
enum JournalWrite {
    Puts(Vec<(Vec<u8>, Vec<u8>, SimTime)>),
    Delete(Vec<u8>),
}

/// Snapshots the store into the journal when enough sealed history
/// accumulated; a failed compaction is counted and retried at the next
/// trigger rather than crashing the worker.
fn maybe_compact(journal: &mut Journal, store: &ShardedStore, errors: &AtomicU64) {
    if journal.wants_compaction() && journal.compact(&store.scan_all()).is_err() {
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Applies one worker's queue: drain up to `batch_max` jobs (a
/// pre-grouped batch counts job-by-job and is never split), coalesce
/// the updates into a shard-grouped batch, answer queries in order.
fn worker_loop(
    store: &ShardedStore,
    clock: &Clock,
    rx: &Receiver<Work>,
    batch_max: usize,
    ctx: &WorkerCtx,
) {
    let take = |work: Work, jobs: &mut Vec<Job>| {
        ctx.depth.fetch_sub(work.jobs(), Ordering::Relaxed);
        match work {
            Work::One(job) => jobs.push(job),
            Work::Batch(batch) => jobs.extend(batch),
        }
    };
    while let Ok(first) = rx.recv() {
        let mut jobs = Vec::with_capacity(batch_max);
        take(first, &mut jobs);
        while jobs.len() < batch_max {
            match rx.try_recv() {
                Ok(work) => take(work, &mut jobs),
                Err(_) => break,
            }
        }
        let now = clock.now();
        // Coalesce consecutive updates so a burst becomes one batched,
        // shard-grouped application; a query cuts the run so it still
        // observes every update queued before it. Journal entries are
        // queued during the pass and written only *after* the batch is
        // applied: the journal records history, so a compaction snapshot
        // (which scans the live store) can never miss a journaled write.
        let mut pending: Vec<StoreOp> = Vec::new();
        let mut pending_acks: Vec<(SyncSender<Response>, u32)> = Vec::new();
        let mut journal_writes: Vec<JournalWrite> = Vec::new();
        let journaled = ctx.journal.is_some();
        let flush = |ops: &mut Vec<StoreOp>,
                     acks: &mut Vec<(SyncSender<Response>, u32)>,
                     writes: &mut Vec<JournalWrite>| {
            if !ops.is_empty() {
                if journaled {
                    writes.push(JournalWrite::Puts(
                        ops.iter()
                            .map(|(key, payload)| (key.clone(), payload.clone(), now))
                            .collect(),
                    ));
                }
                store.apply_batch(std::mem::take(ops), now, 1);
            }
            for (tx, count) in acks.drain(..) {
                let _ = tx.send(Response::Stored { count });
            }
        };
        for job in jobs {
            match job.request {
                Request::Update { cell, pairs } => {
                    let count = pairs.len() as u32;
                    pending.extend(
                        pairs
                            .into_iter()
                            .map(|p| (cell_key(cell, &p.index), p.payload)),
                    );
                    if let Some(tx) = job.reply {
                        pending_acks.push((tx, count));
                    }
                }
                Request::Forward {
                    from_cell,
                    to_cell,
                    pairs,
                } => {
                    // The old-cell removal *reads* the store, so a
                    // forward cuts the coalescing run exactly like a
                    // query: flushing first means the remove sees every
                    // update queued before it, instead of missing a
                    // same-key put still parked in `pending` (which
                    // would leave a stale old-cell copy behind).
                    flush(&mut pending, &mut pending_acks, &mut journal_writes);
                    let count = pairs.len() as u32;
                    pending.extend(pairs.into_iter().map(|p| {
                        // Forward re-homes: drop the old-cell copy, store
                        // under the new owner.
                        let old_key = cell_key(from_cell, &p.index);
                        if store.remove(&old_key).is_some() && journaled {
                            journal_writes.push(JournalWrite::Delete(old_key));
                        }
                        (cell_key(to_cell, &p.index), p.payload)
                    }));
                    if let Some(tx) = job.reply {
                        pending_acks.push((tx, count));
                    }
                }
                Request::Query { cell, index, .. } => {
                    flush(&mut pending, &mut pending_acks, &mut journal_writes);
                    let answer = match store.query(&cell_key(cell, &index), now) {
                        Some(payload) => Response::Hit { payload },
                        None => Response::Miss,
                    };
                    if let Some(tx) = job.reply {
                        let _ = tx.send(answer);
                    }
                }
            }
        }
        flush(&mut pending, &mut pending_acks, &mut journal_writes);
        ctx.journal_applied(store, &journal_writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(i: u8) -> AlsPair {
        AlsPair {
            index: vec![i; 16],
            payload: vec![i, 0xEE],
        }
    }

    const CELL: CellId = CellId { col: 1, row: 2 };

    fn update(i: u8) -> Request {
        Request::Update {
            cell: CELL,
            pairs: vec![pair(i)],
        }
    }

    fn query(i: u8) -> Request {
        Request::Query {
            cell: CELL,
            index: vec![i; 16],
            reply_loc: Point::ORIGIN,
        }
    }

    #[test]
    fn update_then_query_roundtrips_through_the_pipeline() {
        let engine = Engine::start(EngineConfig::default());
        assert_eq!(engine.call(update(7)), Response::Stored { count: 1 });
        assert_eq!(
            engine.call(query(7)),
            Response::Hit {
                payload: vec![7, 0xEE]
            }
        );
        assert_eq!(engine.call(query(8)), Response::Miss);
        let store = engine.shutdown();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn fire_and_forget_updates_are_visible_after_a_keyed_query() {
        let engine = Engine::start(EngineConfig::default());
        for i in 0..100 {
            engine.submit(update(i));
        }
        // Same-key requests share a queue, so each query observes the
        // update submitted before it.
        for i in 0..100 {
            assert!(
                matches!(engine.call(query(i)), Response::Hit { .. }),
                "update {i} lost"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn forward_request_rehomes_between_cells() {
        let engine = Engine::start(EngineConfig::default());
        engine.call(update(3));
        let to = CellId { col: 8, row: 8 };
        assert_eq!(
            engine.call(Request::Forward {
                from_cell: CELL,
                to_cell: to,
                pairs: vec![pair(3)],
            }),
            Response::Stored { count: 1 }
        );
        assert_eq!(engine.call(query(3)), Response::Miss);
        assert!(matches!(
            engine.call(Request::Query {
                cell: to,
                index: vec![3; 16],
                reply_loc: Point::ORIGIN,
            }),
            Response::Hit { .. }
        ));
        engine.shutdown();
    }

    #[test]
    fn ttl_expiry_under_a_manual_clock() {
        let mut config = EngineConfig::default();
        config.store.ttl = Some(SimTime::from_secs(5));
        config.compact_every = None;
        let (engine, clock) = Engine::start_manual_clock(config);
        engine.call(update(1));
        clock.store(SimTime::from_secs(4).as_nanos(), Ordering::Release);
        assert!(matches!(engine.call(query(1)), Response::Hit { .. }));
        clock.store(SimTime::from_secs(10).as_nanos(), Ordering::Release);
        assert_eq!(engine.call(query(1)), Response::Miss);
        let store = engine.shutdown();
        assert_eq!(store.stats().expired, 1);
    }

    #[test]
    fn call_batch_matches_per_request_calls() {
        let engine = Engine::start(EngineConfig::default());
        let mut batch: Vec<Request> = (0..10).map(update).collect();
        batch.extend((0..20).map(|i| query(i % 13)));
        let answers = engine.call_batch_admitted(batch);
        for (i, answer) in answers.iter().enumerate() {
            let answer = answer.as_ref().expect("no watermark, nothing shed");
            if i < 10 {
                assert_eq!(*answer, Response::Stored { count: 1 });
            } else {
                let key = u8::try_from((i - 10) % 13).unwrap();
                if key < 10 {
                    // Same routing key as the update earlier in this
                    // batch, so the query lands behind it on one queue
                    // and must observe it.
                    assert!(matches!(answer, Response::Hit { .. }), "query {key} missed");
                } else {
                    assert_eq!(*answer, Response::Miss);
                }
            }
        }
        assert_eq!(engine.shutdown().len(), 10);
    }

    #[test]
    fn submit_batch_keeps_per_key_fifo() {
        let engine = Engine::start(EngineConfig::default());
        engine.submit_batch((0..50).map(update).collect());
        for i in 0..50 {
            assert!(
                matches!(engine.call(query(i)), Response::Hit { .. }),
                "batched update {i} lost"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn call_batch_sheds_per_request_above_the_watermark() {
        let config = EngineConfig {
            workers: 1,
            shed_watermark: Some(1),
            ..EngineConfig::default()
        };
        let engine = Engine::start(config);
        // Same key → one queue. The engine is idle (depth 0), so the
        // batch itself must trip the watermark: exactly one admitted,
        // the rest shed without side effects.
        let answers = engine.call_batch_admitted((0..10).map(|_| update(1)).collect());
        let admitted = answers.iter().flatten().count();
        assert_eq!(
            admitted, 1,
            "in-batch occupancy must count toward the watermark"
        );
        assert_eq!(engine.shed_count(), 9);
        assert!(matches!(
            engine.call(query(1)),
            Response::Hit { .. } | Response::Miss
        ));
        engine.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_when_a_queue_is_full() {
        // One worker, depth 1: with the worker likely busy, some
        // try_submit must eventually report Full instead of blocking.
        let config = EngineConfig {
            workers: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::start(config);
        let mut shed = 0;
        for i in 0..10_000 {
            if engine.try_submit(update((i % 251) as u8)).is_err() {
                shed += 1;
            }
        }
        // Either path is legal, but the API must never panic and the
        // engine must still answer afterwards.
        let _ = shed;
        assert!(matches!(
            engine.call(query(0)),
            Response::Hit { .. } | Response::Miss
        ));
        engine.shutdown();
    }
}
