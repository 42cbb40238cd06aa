//! Unified observability for the AGR workspace.
//!
//! The repo grew three disjoint stat idioms — the sim's named-counter
//! [`BTreeMap`](std::collections::BTreeMap), the ALS service's plain
//! `u64`-field structs (`ServeStats`, `ClientStats`, `PoolStats`,
//! `ChaosStats`), and per-bench hand-rolled percentile code. This crate
//! replaces the patchwork with one model:
//!
//! * [`Registry`] — a process-wide (or per-engine) metric registry.
//!   Registration is the cold path behind a mutex; the hot path is an
//!   [`Arc`](std::sync::Arc) handle to an atomic `Counter`, `Gauge`,
//!   or log2-bucketed [`Histogram`] incremented with `Relaxed` atomics
//!   (one `fetch_add` per event, no locks, no allocation).
//! * `Snapshot` — a point-in-time copy of every registered metric in
//!   deterministic (sorted) order.
//! * [`TraceRing`] — a bounded ring of time-keyed event records for
//!   postmortem dumps. Time is a bare `u64` of nanoseconds: `SimTime`
//!   inside the simulator, monotonic `Instant` deltas in the service.
//!   Observation never draws randomness or reorders work, so an
//!   instrumented sim run stays byte-identical to a bare one.
//! * [`export`] — JSON snapshots (stamped with whatever provenance the
//!   caller supplies, e.g. `agr_bench::stamp`), Prometheus text
//!   exposition v0, and the `--viz-json` JSONL event-stream schema the
//!   checked-in replay page loads.
//!
//! The crate is deliberately std-only so every layer of the workspace —
//! including the deterministic sim — can depend on it without pulling
//! anything else in.

pub mod export;
mod hist;
mod registry;
mod trace;
pub mod viz;

pub use hist::Histogram;
pub use registry::Registry;
pub use trace::TraceRing;
pub use viz::{VizEvent, VizEventKind};
