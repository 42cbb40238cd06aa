//! The two single-node ALS workloads, over real loopback UDP.
//!
//! * `als_udp_sat` — **closed loop**: one client thread keeps a window of
//!   32 uid-matched requests in flight (`send_batch` / `recv_batch_with`)
//!   against `serve_batched` over an unbounded store. Periodic location
//!   updates are fire-and-forget bulk traffic, so throughput is what
//!   matters; at saturation per-frame costs set ops/s and batching pays.
//! * `als_udp_paced` — **open loop**: the same server with a bounded
//!   (LRU + TTL) store, offered a fixed 20 000 req/s (~20 % of
//!   saturation) from a raw non-blocking socket. A source blocks on its
//!   location query before its first data packet, so latency is what
//!   matters; batches hold about one frame, so the per-request path and
//!   thread hand-offs set the median.
//!
//! "UDP" here is the host's loopback interface: no link rate or wire
//! latency is measured.

use crate::model::WriteModel;
use crate::openloop::{self, OpenLoop, OpenLoopConfig};
use crate::plan::{self, Mix, Op, OpKind};
use crate::report::{peak_rss_mb, Outcome, RunArgs};
use crate::spec::{MetricSet, Spec};
use crate::stats::{self, Summary};
use crate::trace::{SpanId, Tracer};
use agr_als_service::pipeline::{Engine, EngineConfig};
use agr_als_service::service::{serve_batched, AlsClient, BatchConfig, ServeStats};
use agr_als_service::store::StoreConfig;
use agr_als_service::transport::{Transport, UdpClient, UdpServer};
use agr_core::als::AlsStoreStats;
use agr_core::packet::AgfwPacket;
use agr_core::wire::decode_packet;
use agr_sim::SimTime;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SAT_MIX: Mix = Mix {
    update_pct: 70,
    query_pct: 29,
    keys: 50_000,
    zipf_s: 0.99,
    side: 16,
};

const PACED_MIX: Mix = Mix {
    update_pct: 30,
    query_pct: 69,
    keys: 200_000,
    zipf_s: 0.99,
    side: 16,
};

/// Requests the closed loop keeps in flight.
pub const WINDOW: usize = 32;
/// Measured windows per run; each lasts `--seconds / WINDOWS`.
const WINDOWS: u32 = 5;
const WARMUP: Duration = Duration::from_secs(2);
/// Socket poll of server and closed-loop client: how long a receive
/// waits before the client re-sends what is still unanswered.
const POLL: Duration = Duration::from_millis(20);
/// Re-send rounds before the closed loop gives a window's stragglers up.
const MAX_ROUNDS: u32 = 50;
const PACED: OpenLoopConfig = OpenLoopConfig {
    rate_per_s: 20_000,
    burst: 32,
    resend_after_ns: 50_000_000,
    max_resends: 3,
    max_inflight: 256,
};
/// Operations generated up front. A run that outlasts the plan wraps
/// around it (sequence numbers keep counting).
const PLAN_OPS: usize = 1 << 21;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Keys read back after the run.
const READ_BACK: usize = 1_000;

pub const SAT_STORE: StoreConfig = StoreConfig {
    shards: 2,
    ttl: None,
    capacity_per_shard: None,
};

fn paced_store() -> StoreConfig {
    StoreConfig {
        shards: 2,
        ttl: Some(SimTime::from_secs(30)),
        capacity_per_shard: Some(20_000),
    }
}

/// The single-node engine every ALS rung uses: two workers, two shards
/// (the host has two cores), shallow queues, no background compaction.
pub fn engine_config(store: StoreConfig) -> EngineConfig {
    EngineConfig {
        store,
        workers: 2,
        queue_depth: 256,
        batch_max: 1024,
        compact_every: None,
        shed_watermark: None,
    }
}

fn describe(name: &str, mix: &Mix, store: &StoreConfig, loop_kind: &str) -> String {
    format!(
        "{name} {} store=shards:{}/ttl:{:?}/cap:{:?} engine=workers:2/queue:256/batch_max:1024 \
         serve=batched(default) transport=loopback-udp loop={loop_kind} windows={WINDOWS} \
         warmup_s={} poll_ms={} plan_ops={PLAN_OPS} read_back={READ_BACK}",
        mix.describe(),
        store.shards,
        store.ttl.map(|t| t.as_nanos() / 1_000_000_000),
        store.capacity_per_shard,
        WARMUP.as_secs(),
        POLL.as_millis(),
    )
}

/// One `UdpServer` + `serve_batched` + `Engine`, on an ephemeral port.
pub struct Server {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<ServeStats>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn start(store: StoreConfig) -> io::Result<Server> {
        let engine = Arc::new(Engine::start(engine_config(store)));
        let mut socket = UdpServer::bind_with(("127.0.0.1", 0), POLL)?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            std::thread::spawn(move || {
                serve_batched(&engine, &mut socket, BatchConfig::default(), &stop)
            })
        };
        Ok(Server {
            engine,
            stop,
            thread,
            addr,
        })
    }

    /// Starts a server and waits until it answers: the set-up a client
    /// pays before its first real request.
    pub fn start_ready(store: StoreConfig) -> io::Result<Server> {
        let server = Server::start(store)?;
        let mut client = AlsClient::new(UdpClient::connect_with(server.addr, POLL)?);
        client.query(SAT_MIX.home_cell(0), plan::index_of(0).to_vec())?;
        Ok(server)
    }

    /// Store operations applied so far (inserts, replacements, query
    /// hits and misses) — the server-side work counter behind
    /// `events_per_s`.
    pub fn store_ops(&self) -> u64 {
        store_ops(&self.engine.store().stats())
    }

    /// Stops the serve loop and the engine; returns their tallies.
    pub fn stop(self) -> (ServeStats, AlsStoreStats) {
        self.stop.store(true, Ordering::Release);
        let serve = self.thread.join().expect("serve loop must not panic");
        let engine = Arc::try_unwrap(self.engine)
            .unwrap_or_else(|_| unreachable!("the serve thread has been joined"));
        let stats = engine.shutdown().stats();
        (serve, stats)
    }
}

pub fn store_ops(stats: &AlsStoreStats) -> u64 {
    stats.stored + stats.replaced + stats.hits + stats.misses
}

/// One complete set-up, timed: generate the operation stream, start the
/// server, get the first answer.
///
/// Generating the inputs is part of the benchmark's set-up, and it is
/// the steady part: the server's first answer alone takes 0.5 ms or
/// 2.5 ms depending on whether its receive buffers' pages are already
/// mapped, a coin the allocator tosses.
fn timed_setup(mix: &Mix, seed: u64, store: StoreConfig) -> io::Result<(Vec<Op>, Server, f64)> {
    let t0 = Instant::now();
    let plan = mix.plan(seed, PLAN_OPS);
    let server = Server::start_ready(store)?;
    Ok((plan, server, t0.elapsed().as_secs_f64()))
}

/// What one measurement window observed.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    pub completed: u64,
    pub failed: u64,
    /// Datagrams sent again because no answer came in time.
    pub resends: u64,
    /// Answers of the wrong kind, or carrying a uid nobody is waiting for.
    pub bad_replies: u64,
    pub query_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    /// Latency sum over every completed operation (forwards included).
    pub total_ns: u128,
    /// Server-side store operations during the window.
    pub store_ops: u64,
    /// Open loop only: how late each first send left.
    pub late_ns: Vec<u64>,
}

impl Window {
    pub fn note(&mut self, kind: OpKind, latency_ns: u64) {
        self.completed += 1;
        self.total_ns += u128::from(latency_ns);
        match kind {
            OpKind::Query => self.query_ns.push(latency_ns),
            OpKind::Update => self.update_ns.push(latency_ns),
            OpKind::Forward => {}
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.seconds
    }

    fn p50_us(samples: &[u64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        stats::percentile(&sorted, 0.5) as f64 / 1e3
    }
}

/// Position in the operation stream, shared by every window of a run.
pub struct Stream<'a> {
    pub mix: &'a Mix,
    pub plan: &'a [Op],
    /// Sequence number of the next operation (also its uid, plus one).
    pub next_seq: u64,
    /// Sequence numbers of writes that were sent more than once.
    pub resent: Vec<u64>,
}

impl Stream<'_> {
    pub fn op(&self, seq: u64) -> Op {
        self.plan[(seq % self.plan.len() as u64) as usize]
    }
}

/// Spans of a traced window.
pub struct WindowTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub window: SpanId,
}

/// The closed loop over any client transport: keep `window` uid-matched
/// requests in flight until `deadline`; when a receive times out, send
/// what is still unanswered again; after [`MAX_ROUNDS`] rounds count
/// stragglers failed.
pub fn closed_loop<T: Transport>(
    transport: &mut T,
    stream: &mut Stream<'_>,
    window: usize,
    deadline: Instant,
    mut trace: Option<&mut WindowTrace<'_>>,
) -> Window {
    let mut out = Window::default();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); window];
    let mut answered = vec![false; window];
    // `(slot in the window or None if undecodable, right kind, decode ns)`
    let mut replies: Vec<(Option<u64>, bool, u64)> = Vec::with_capacity(window);
    // Each request's span, in the traced run.
    let mut spans: Vec<Option<SpanId>> = vec![None; window];
    let started = Instant::now();
    while Instant::now() < deadline {
        let first_seq = stream.next_seq;
        for (i, frame) in frames.iter_mut().enumerate() {
            let seq = first_seq + i as u64;
            let t0 = trace.as_ref().map(|t| t.tracer.now_ns());
            stream.mix.encode(stream.op(seq), seq, seq + 1, frame);
            if let (Some(t), Some(t0)) = (trace.as_mut(), t0) {
                let t1 = t.tracer.now_ns();
                let request = t
                    .tracer
                    .record("client.request", Some(t.window), seq + 1, t0, t1);
                t.tracer
                    .record("client.encode", Some(request), seq + 1, t0, t1);
                spans[i] = Some(request);
            }
        }
        stream.next_seq += window as u64;
        answered.fill(false);
        let mut pending = window;
        let mut rounds = 0;
        let sent_at = Instant::now();
        let mut sent_ns = 0;
        while pending > 0 && rounds < MAX_ROUNDS {
            rounds += 1;
            let unanswered: Vec<&[u8]> = frames
                .iter()
                .zip(&answered)
                .filter(|(_, done)| !**done)
                .map(|(frame, _)| frame.as_slice())
                .collect();
            if rounds > 1 {
                out.resends += unanswered.len() as u64;
                let rewritten: Vec<u64> = (0..window)
                    .filter(|&i| !answered[i])
                    .map(|i| first_seq + i as u64)
                    .filter(|&seq| stream.op(seq).kind != OpKind::Query)
                    .collect();
                stream.resent.extend(rewritten);
            }
            let t0 = trace.as_ref().map(|t| t.tracer.now_ns());
            let _ = transport.send_batch(&unanswered);
            if let (Some(t), Some(t0)) = (trace.as_mut(), t0) {
                sent_ns = t.tracer.now_ns();
                t.tracer
                    .record("client.send", Some(t.window), 0, t0, sent_ns);
            }
            // Drain until the window completes or a receive times out.
            loop {
                replies.clear();
                let tracing = trace.as_ref().map(|t| &*t.tracer);
                let drained = transport.recv_batch_with(window, &mut |bytes| {
                    let t0 = tracing.map_or(0, Tracer::now_ns);
                    let decoded = decode_packet(bytes);
                    let t1 = tracing.map_or(0, Tracer::now_ns);
                    match decoded {
                        Ok(AgfwPacket::Als(m)) => {
                            let slot = m.uid.wrapping_sub(first_seq + 1);
                            let ok = slot < window as u64
                                && plan::reply_matches(stream.op(first_seq + slot).kind, &m.kind);
                            replies.push((Some(slot), ok, t1 - t0));
                        }
                        _ => replies.push((None, false, t1 - t0)),
                    }
                });
                let arrived = sent_at.elapsed();
                let arrived_ns = trace.as_ref().map_or(0, |t| t.tracer.now_ns());
                for &(slot, ok, decode_ns) in &replies {
                    let Some(slot) = slot else {
                        out.bad_replies += 1;
                        continue;
                    };
                    if slot >= window as u64 {
                        continue; // a late duplicate from an earlier window
                    }
                    if !ok {
                        out.bad_replies += 1;
                        continue;
                    }
                    let i = slot as usize;
                    if std::mem::replace(&mut answered[i], true) {
                        continue;
                    }
                    pending -= 1;
                    let latency_ns = u64::try_from(arrived.as_nanos()).unwrap_or(u64::MAX);
                    out.note(stream.op(first_seq + slot).kind, latency_ns);
                    if let (Some(t), Some(request)) = (trace.as_mut(), spans[i]) {
                        let uid = first_seq + slot + 1;
                        let decoded_at = arrived_ns.saturating_sub(decode_ns);
                        t.tracer
                            .record("client.wait", Some(request), uid, sent_ns, decoded_at);
                        t.tracer.record(
                            "client.decode",
                            Some(request),
                            uid,
                            decoded_at,
                            arrived_ns,
                        );
                        t.tracer.extend(request, arrived_ns);
                    }
                }
                if pending == 0 || drained.is_err() {
                    break;
                }
            }
        }
        out.failed += pending as u64;
    }
    out.seconds = started.elapsed().as_secs_f64();
    out
}

/// The open loop: a raw non-blocking socket, requests released on
/// schedule by [`OpenLoop`], latency timed from each request's due time.
fn open_loop_window(
    socket: &UdpSocket,
    stream: &mut Stream<'_>,
    total: u64,
    mut trace: Option<&mut WindowTrace<'_>>,
) -> Window {
    let mut out = Window::default();
    let origin = Instant::now();
    let now_ns = || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut sched = OpenLoop::new(PACED, 0, total);
    let first_seq = stream.next_seq;
    stream.next_seq += total;
    let mut sends: Vec<openloop::Send> = Vec::with_capacity(PACED.burst);
    let mut frame = Vec::new();
    let mut buf = vec![0u8; 2048];
    // Per-request span ids and send times, for the traced run only.
    let mut spans: Vec<Option<(SpanId, u64)>> = if trace.is_some() {
        vec![None; total as usize]
    } else {
        Vec::new()
    };
    let trace_offset = trace.as_ref().map_or(0, |t| t.tracer.ns_at(origin));
    while !sched.finished() {
        sends.clear();
        sched.turn(now_ns(), &mut sends);
        for send in &sends {
            let seq = first_seq + send.index;
            let op = stream.op(seq);
            let t0 = now_ns();
            stream.mix.encode(op, seq, seq + 1, &mut frame);
            let t1 = now_ns();
            // A full socket buffer drops the datagram like a lossy link
            // would; the re-send timer covers it.
            let _ = socket.send(&frame);
            let t2 = now_ns();
            if send.attempt > 0 && op.kind != OpKind::Query {
                stream.resent.push(seq);
            }
            if let Some(t) = trace.as_mut() {
                let at = |ns: u64| trace_offset + ns;
                let request = match spans[send.index as usize] {
                    Some((request, _)) => request,
                    None => t.tracer.record(
                        "client.request",
                        Some(t.window),
                        seq + 1,
                        at(sched.due_ns(send.index)),
                        at(t2),
                    ),
                };
                t.tracer
                    .record("client.encode", Some(request), seq + 1, at(t0), at(t1));
                t.tracer
                    .record("client.send", Some(request), seq + 1, at(t1), at(t2));
                spans[send.index as usize] = Some((request, at(t2)));
            }
        }
        let mut idle = sends.is_empty();
        loop {
            match socket.recv(&mut buf) {
                Ok(len) => {
                    idle = false;
                    let arrived = now_ns();
                    let decoded = decode_packet(&buf[..len]);
                    let decoded_at = now_ns();
                    let Ok(AgfwPacket::Als(m)) = decoded else {
                        out.bad_replies += 1;
                        continue;
                    };
                    let index = m.uid.wrapping_sub(first_seq + 1);
                    if index >= total {
                        continue; // a late duplicate from an earlier window
                    }
                    let kind = stream.op(first_seq + index).kind;
                    if !plan::reply_matches(kind, &m.kind) {
                        out.bad_replies += 1;
                        continue;
                    }
                    if let Some((latency_ns, _)) = sched.on_reply(index, decoded_at) {
                        out.note(kind, latency_ns);
                        if let (Some(t), Some((request, sent))) =
                            (trace.as_mut(), spans.get(index as usize).copied().flatten())
                        {
                            let at = |ns: u64| trace_offset + ns;
                            t.tracer
                                .record("client.wait", Some(request), m.uid, sent, at(arrived));
                            t.tracer.record(
                                "client.decode",
                                Some(request),
                                m.uid,
                                at(arrived),
                                at(decoded_at),
                            );
                            t.tracer.extend(request, at(decoded_at));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if idle {
            // Nothing due and nothing arrived: give the server's threads
            // the core instead of spinning through the gap.
            std::thread::yield_now();
        }
    }
    out.seconds = origin.elapsed().as_secs_f64();
    out.failed = sched.failed;
    out.resends = sched.resends;
    out.late_ns = std::mem::take(&mut sched.late_ns);
    out
}

/// Reads the newest certain keys back and compares payloads.
fn read_back(addr: SocketAddr, mix: &Mix, stream: &Stream<'_>, outcome: &mut Outcome) {
    let mut model = WriteModel::default();
    let resent: std::collections::HashSet<u64> = stream.resent.iter().copied().collect();
    for seq in 0..stream.next_seq {
        model.apply(mix, stream.op(seq), seq, resent.contains(&seq));
    }
    let expected = model.newest(mix, READ_BACK);
    outcome.check(expected.len() == READ_BACK, || {
        format!(
            "only {} of {READ_BACK} keys are certain enough to read back",
            expected.len()
        )
    });
    let Ok(transport) = UdpClient::connect_with(addr, POLL) else {
        outcome
            .violations
            .push("read-back client could not connect".to_string());
        return;
    };
    let mut client = AlsClient::new(transport);
    let mut wrong = 0usize;
    for e in &expected {
        let got = client.query(e.cell, plan::index_of(e.rank).to_vec());
        if !matches!(&got, Ok(Some(payload)) if plan::seq_of(payload) == Some(e.seq)) {
            wrong += 1;
        }
    }
    outcome.check(wrong == 0, || {
        format!(
            "{wrong} of {} read-back keys did not return the last payload written",
            expected.len()
        )
    });
    outcome.notes.push(format!(
        "read back {} newest keys, {wrong} wrong",
        expected.len()
    ));
}

/// Checks the server's own tallies against each other.
fn check_server(serve: &ServeStats, store: &AlsStoreStats, outcome: &mut Outcome) {
    outcome.check(store.hits + store.misses == serve.queries, || {
        format!(
            "store hits {} + misses {} != queries served {}",
            store.hits, store.misses, serve.queries
        )
    });
    outcome.check(serve.hits == store.hits, || {
        format!("serve hits {} != store hits {}", serve.hits, store.hits)
    });
    outcome.check(serve.bad_frames == 0 && serve.send_errors == 0, || {
        format!(
            "server saw {} bad frames and {} send errors",
            serve.bad_frames, serve.send_errors
        )
    });
}

/// Fills the per-layer metrics that come from server tallies.
pub fn server_layers(layers: &mut MetricSet<f64>, serve: &ServeStats, store: &AlsStoreStats) {
    let requests = serve.updates + serve.queries + serve.forwards + serve.pings + serve.shed;
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    layers.set("als-service.service.batches", serve.batches as f64);
    layers.set(
        "als-service.service.frames_per_batch_mean",
        ratio(requests, serve.batches),
    );
    layers.set(
        "als-service.pool.hit_ratio",
        ratio(serve.pool_hits, serve.pool_hits + serve.pool_misses),
    );
    layers.set("als-service.service.shed", serve.shed as f64);
    layers.set("als-service.service.bad_frames", serve.bad_frames as f64);
    layers.set("als-service.service.send_errors", serve.send_errors as f64);
    layers.set(
        "als-service.store.hit_ratio",
        ratio(store.hits, store.hits + store.misses),
    );
    layers.set("als-service.store.evictions", store.evicted as f64);
    layers.set("als-service.store.expired", store.expired as f64);
}

/// Fills the client-span per-layer metrics from the traced windows.
pub fn client_layers(layers: &mut MetricSet<f64>, tracer: &Tracer, traced: &[Window]) {
    let by_name = tracer.aggregate();
    for (metric, span) in [
        ("client.encode_ns", "client.encode"),
        ("client.send_ns", "client.send"),
        ("client.wait_ns", "client.wait"),
        ("client.decode_ns", "client.decode"),
    ] {
        layers.set(metric, by_name.get(span).map_or(0.0, |t| t.p50_ns as f64));
    }
    layers.set(
        "client.resends",
        traced.iter().map(|w| w.resends).sum::<u64>() as f64,
    );
    let pooled = |f: &dyn Fn(&Window) -> &Vec<u64>| {
        let mut all: Vec<u64> = traced.iter().flat_map(|w| f(w).iter().copied()).collect();
        all.sort_unstable();
        all
    };
    // A tail is reported only with ten samples beyond it; otherwise 0.
    let tail_us = |sorted: &[u64], p: f64| {
        if stats::tail_supported(sorted.len(), p) {
            stats::percentile(sorted, p) as f64 / 1e3
        } else {
            0.0
        }
    };
    let queries = pooled(&|w| &w.query_ns);
    let updates = pooled(&|w| &w.update_ns);
    let late = pooled(&|w| &w.late_ns);
    layers.set("client.query_p99_us", tail_us(&queries, 0.99));
    layers.set("client.query_p999_us", tail_us(&queries, 0.999));
    layers.set("client.update_p99_us", tail_us(&updates, 0.99));
    if !late.is_empty() {
        layers.set(
            "loadgen.late_p50_us",
            stats::percentile(&late, 0.5) as f64 / 1e3,
        );
        layers.set("loadgen.late_p99_us", tail_us(&late, 0.99));
    }
}

/// Turns the measured windows into the end-to-end metrics. `peak_rss_mb`
/// is the high-water mark when the last window closed: the read-back and
/// anti-entropy that verify the run afterwards are the benchmark's, not
/// the workload's (one burst of sync frames grows a node's receive pool
/// by 4 MB).
pub fn window_metrics(outcome: &mut Outcome, setup: Summary, windows: &[Window], peak_rss_mb: f64) {
    let per_window =
        |f: &dyn Fn(&Window) -> f64| Summary::of(&windows.iter().map(f).collect::<Vec<_>>());
    let completed: u64 = windows.iter().map(|w| w.completed).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    outcome.attempted = completed + failed;
    outcome.failed = failed;
    let e2e = &mut outcome.end_to_end;
    e2e.set("setup_s", setup);
    e2e.set("ops_per_s", per_window(&Window::ops_per_s));
    // One "event" of a service is one store operation a server applied.
    e2e.set(
        "events_per_s",
        per_window(&|w| w.store_ops as f64 / w.seconds),
    );
    e2e.set(
        "delivery_fraction",
        Summary::single(completed as f64 / (completed + failed).max(1) as f64),
    );
    // Host time: no clock is simulated here. The median over updates and
    // queries pooled (the mean swings ±15 % with the host scheduler's
    // tail, so it is reported in the notes, not gated).
    e2e.set(
        "sim_latency_ms",
        per_window(&|w| {
            let pooled: Vec<u64> = w.query_ns.iter().chain(&w.update_ns).copied().collect();
            Window::p50_us(&pooled) / 1e3
        }),
    );
    e2e.set("query_p50_us", per_window(&|w| Window::p50_us(&w.query_ns)));
    e2e.set(
        "update_p50_us",
        per_window(&|w| Window::p50_us(&w.update_ns)),
    );
    e2e.set("peak_rss_mb", Summary::single(peak_rss_mb));

    let mut queries: Vec<u64> = windows
        .iter()
        .flat_map(|w| w.query_ns.iter().copied())
        .collect();
    queries.sort_unstable();
    if let Some((p, label)) = stats::highest_supported_tail(queries.len()) {
        outcome.notes.push(format!(
            "query latency {label} {:.1} us over {} samples (tails are per-layer, not gated)",
            stats::percentile(&queries, p) as f64 / 1e3,
            queries.len()
        ));
    }
    let resends: u64 = windows.iter().map(|w| w.resends).sum();
    let total_ns: u128 = windows.iter().map(|w| w.total_ns).sum();
    outcome.notes.push(format!(
        "{completed} ops completed, {failed} failed, {resends} datagrams re-sent, in {} windows; \
         mean latency {:.1} us",
        windows.len(),
        total_ns as f64 / completed.max(1) as f64 / 1e3
    ));
}

/// Wrong-kind or undecodable answers fail the run. (An operation that
/// went unanswered is *counted* — `failed`, `failed_op_fraction` — but a
/// lost datagram is not a wrong output.)
pub fn check_replies(outcome: &mut Outcome, windows: &[&Window]) {
    let bad: u64 = windows.iter().map(|w| w.bad_replies).sum();
    outcome.check(bad == 0, || {
        format!("{bad} replies were undecodable or of the wrong kind for their request")
    });
}

pub fn run_sat(args: &RunArgs, spec: &Spec) -> Outcome {
    let mut outcome = Outcome::new(
        "als_udp_sat",
        describe(
            "als_udp_sat",
            &SAT_MIX,
            &SAT_STORE,
            "closed/window:32/clients:1",
        ),
        spec,
    );
    if let Err(e) = run_single_node(args, &mut outcome, &SAT_MIX, SAT_STORE, false) {
        outcome.violations.push(format!("socket error: {e}"));
    }
    outcome
}

pub fn run_paced(args: &RunArgs, spec: &Spec) -> Outcome {
    let store = paced_store();
    let mut outcome = Outcome::new(
        "als_udp_paced",
        describe(
            "als_udp_paced",
            &PACED_MIX,
            &store,
            "open/rate:20000/burst:32/resend_ms:50x3/max_inflight:256/clients:1",
        ),
        spec,
    );
    if let Err(e) = run_single_node(args, &mut outcome, &PACED_MIX, store, true) {
        outcome.violations.push(format!("socket error: {e}"));
    }
    outcome
}

/// Both workloads share everything but the loop: set-up timing, warm-up,
/// windows, the server's tallies, and the read-back.
fn run_single_node(
    args: &RunArgs,
    outcome: &mut Outcome,
    mix: &Mix,
    store: StoreConfig,
    paced: bool,
) -> io::Result<()> {
    let (plan, server, first_setup_s) = timed_setup(mix, args.seed, store)?;
    let mut stream = Stream {
        mix,
        plan: &plan,
        next_seq: 0,
        resent: Vec::new(),
    };
    let mut closed_client = UdpClient::connect_with(server.addr, POLL)?;
    let open_socket = UdpSocket::bind(("127.0.0.1", 0))?;
    open_socket.connect(server.addr)?;
    open_socket.set_nonblocking(true)?;
    let mut tracer = Tracer::new();

    let mut run_window =
        |stream: &mut Stream<'_>, length: Duration, tracer: Option<&mut Tracer>| -> Window {
            let ops0 = server.store_ops();
            let mut trace = tracer.map(|tracer| {
                let window = tracer.open("window", None, 0);
                WindowTrace { tracer, window }
            });
            let mut window = if paced {
                let total = (PACED.rate_per_s as f64 * length.as_secs_f64()) as u64;
                open_loop_window(&open_socket, stream, total, trace.as_mut())
            } else {
                let deadline = Instant::now() + length;
                closed_loop(&mut closed_client, stream, WINDOW, deadline, trace.as_mut())
            };
            if let Some(t) = trace {
                t.tracer.close(t.window);
            }
            window.store_ops = server.store_ops() - ops0;
            window
        };

    let warmup = run_window(&mut stream, WARMUP, None);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        // Alternate untraced and traced windows; the difference between
        // their medians is the tracing overhead.
        // At most 2 s each: a saturated second records ~0.5 M spans.
        let length = Duration::from_secs_f64((args.seconds as f64 / 4.0).min(2.0));
        for _ in 0..2 {
            plain.push(run_window(&mut stream, length, None));
            traced.push(run_window(&mut stream, length, Some(&mut tracer)));
        }
    } else {
        let length = Duration::from_secs_f64(args.seconds as f64 / f64::from(WINDOWS));
        for _ in 0..WINDOWS {
            plain.push(run_window(&mut stream, length, None));
        }
    }

    let peak_rss_mb = peak_rss_mb();
    read_back(server.addr, mix, &stream, outcome);
    let (serve, store_stats) = server.stop();
    check_server(&serve, &store_stats, outcome);
    let all: Vec<&Window> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .collect();
    check_replies(outcome, &all);

    if args.trace {
        let completed: u64 = all.iter().map(|w| w.completed).sum();
        let failed: u64 = all.iter().map(|w| w.failed).sum();
        outcome.attempted = completed + failed;
        outcome.failed = failed;
        server_layers(&mut outcome.per_layer, &serve, &store_stats);
        client_layers(&mut outcome.per_layer, &tracer, &traced);
        let median = |ws: &[Window], f: &dyn Fn(&Window) -> f64| {
            stats::median(&ws.iter().map(f).collect::<Vec<_>>())
        };
        // Worse is slower: fewer ops/s closed-loop, a higher median
        // latency open-loop.
        let overhead = if paced {
            let p50 = |w: &Window| Window::p50_us(&w.query_ns);
            median(&traced, &p50) / median(&plain, &p50) - 1.0
        } else {
            1.0 - median(&traced, &Window::ops_per_s) / median(&plain, &Window::ops_per_s)
        };
        outcome.per_layer.set("trace.overhead_fraction", overhead);
        crate::write_trace(outcome.workload, &tracer, outcome);
    } else {
        // The other set-ups are timed only now, each torn down again:
        // before the windows their churn (every serve loop zeroes 4 MB
        // of receive buffers) would be in the workload's peak RSS.
        let mut setups = vec![first_setup_s];
        while setups.len() < SETUPS {
            let (_plan, server, setup_s) = timed_setup(mix, args.seed, store)?;
            setups.push(setup_s);
            server.stop();
        }
        window_metrics(outcome, Summary::of(&setups), &plain, peak_rss_mb);
    }
    Ok(())
}
