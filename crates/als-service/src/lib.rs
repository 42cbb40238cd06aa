//! # agr-als-service — the Anonymous Location Service as a real service
//!
//! The paper's §3.3 location service stores opaque records — the index
//! is `E_KB(A, B)`, the payload `E_KB(A, loc_A, ts)`, both ciphertext —
//! so the server learns neither identities nor locations. Inside the
//! simulator that store lives per grid cell on whichever node currently
//! anchors the cell ([`agr_core::als::AlsServer`]). This crate runs the
//! *same* storage implementation as a standalone serving system:
//!
//! * [`store`] — a **sharded engine**: the lookup key (owning cell +
//!   sealed index) is FNV-hashed onto N shards, each an
//!   [`agr_core::als::AlsServer`] behind its own lock with TTL freshness
//!   and LRU capacity bounds enabled, periodic compaction, and per-shard
//!   stats. One implementation serves both the discrete-event simulator
//!   and this engine, so behavior proven by the simulator's golden
//!   fingerprints is the behavior the service ships.
//! * [`pipeline`] — typed `RLU` / query / hierarchical DLM-forward
//!   requests flowing through bounded queues (blocking send =
//!   backpressure) into a worker pool that applies updates in shard
//!   batches via the workspace's deterministic [`agr_sim::par::par_map`]
//!   fan-out.
//! * [`transport`] — request/response framing over a [`transport::Transport`]
//!   trait using the existing [`agr_core::wire`] codec (service bodies
//!   are [`agr_core::packet::AlsNetKind`] frames), with an in-process
//!   loopback pair and a std-only UDP implementation so a server and a
//!   load generator can run as separate processes. Both support batch
//!   receive/send — on Linux the UDP paths go through
//!   `recvmmsg`/`sendmmsg` so a batch costs one syscall.
//! * [`pool`] — reusable frame buffers (`FramePool` /
//!   `PooledFrame`) so the batched data plane recycles receive and
//!   encode buffers instead of allocating per frame.
//! * [`service`] — the serve loop gluing a transport to an engine
//!   (`serve_batched`, draining readiness-driven batches end to end),
//!   plus the blocking client.
//! * [`ring`] — rendezvous-hashed cell ownership: which R of N nodes
//!   own each DLM grid cell, with minimal re-homing when the fleet
//!   grows.
//! * [`cluster`] — the replicated fleet: N UDP nodes behind the ring,
//!   R-way replicated writes, digest-probe/chunked-push anti-entropy,
//!   deterministic kill/restart chaos schedules, and a ring-aware
//!   client with a heartbeat-driven failure detector, per-op deadlines,
//!   and jittered retries.
//! * [`chaos_net`] — a deterministic fault-injecting [`transport::Transport`]
//!   decorator: seeded drop/duplicate/reorder on any transport, keyed to
//!   frame counters so chaos runs are bit-identical at a fixed seed.
//! * [`journal`] — per-node crash-recovery journaling: applied mutations
//!   append to segmented logs of wire-encoded frames (fsync batched,
//!   snapshot-compacted), replayed into the store before a restarted
//!   node serves, so recovery is local I/O plus an anti-entropy top-off.
//!
//! The repository benchmark (`benchmark/`, workloads `als_udp_sat`,
//! `als_udp_paced` and `cluster_r2`, plus the traced `ladder.*` rungs)
//! drives zipfian-keyed operations through this engine and reports
//! throughput and exact latency percentiles.

// `deny`, not `forbid`: the one `unsafe` island is the [`mmsg`] FFI
// module below, which carries an explicit `allow`; everything else in
// the crate still refuses unsafe code at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_net;
pub mod cluster;
pub mod journal;
pub mod metrics;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod mmsg;
pub mod pipeline;
pub mod pool;
pub mod ring;
pub mod service;
pub mod store;
pub mod transport;

pub use transport::{loopback_pair, Transport, UdpClient};
