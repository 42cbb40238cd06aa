//! Metrics and the `--viz-json` event stream for the AGR workspace.
//!
//! * [`Registry`] — a metric registry. Registration is the cold path
//!   behind a mutex; the hot path is an [`Arc`](std::sync::Arc) handle
//!   to an atomic `Counter`, `Gauge`, or log2-bucketed [`Histogram`]
//!   incremented with `Relaxed` atomics (one `fetch_add` per event, no
//!   locks, no allocation). The sim's frame observer folds on-air
//!   frames into one; the ALS service mirrors its plain-field stat
//!   structs into one at scrape time and records batch occupancy in a
//!   [`Histogram`].
//! * `Snapshot` — a point-in-time copy of every registered metric in
//!   deterministic (sorted) order.
//! * [`export`] — JSON snapshots (stamped with whatever provenance the
//!   caller supplies, e.g. `agr_bench::stamp`) with a round-trip
//!   parser, and Prometheus text exposition v0.
//! * [`viz`] — the `--viz-json` JSONL event schema the checked-in replay
//!   page loads, and its line validator (built on `export`'s JSON
//!   reader).
//!
//! Observation never draws randomness or reorders work, so an
//! instrumented sim run stays byte-identical to a bare one. The crate
//! is deliberately std-only so every layer of the workspace — including
//! the deterministic sim — can depend on it without pulling anything
//! else in.

pub mod export;
mod hist;
mod registry;
pub mod viz;

pub use hist::Histogram;
pub use registry::Registry;
pub use viz::{VizEvent, VizEventKind};
