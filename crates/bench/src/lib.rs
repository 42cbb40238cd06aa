//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each paper artifact has a binary that prints the corresponding rows
//! and writes a CSV next to it (under `results/`):
//!
//! | Artifact | Binary | What it reproduces |
//! |----------|--------|--------------------|
//! | Figure 1(a) + (b) | `fig1` | delivery fraction (a) and end-to-end latency (b) vs node count: GPSR-Greedy, AGFW(no ACK), AGFW(ACK); CSVs and SVGs from one sweep |
//! | §5.1 crypto claims | `table_crypto` | RSA-512 trapdoor size and timings |
//! | §4 ring overhead | `table_ring` | hello bytes and sign/verify cost vs ring size |
//! | §3.3 ALS overhead | `table_als` | DLM vs ALS vs ALS-no-index message costs |
//! | §5 ALS prediction | `table_als_net` | oracle vs live networked ALS: delivery, latency, control overhead |
//! | §3.1.1 ablation | `ablate_pseudonym` | naive vs freshness-aware selection × rotation rate |
//! | §3.1.1 refinement | `ablate_predictive` | velocity-predictive ANT across hello intervals |
//! | §6 extension | `ablate_perimeter` | greedy-only vs perimeter recovery at low density |
//! | §4 quantified | `privacy_eval` | identity–location exposure and tracking, GPSR vs AGFW |
//! | §2 local sniffers | `privacy_sniffers` | exposure and tracking vs sniffer coverage, GPSR vs AGFW |
//! | §3.2 reliability | `fault_sweep` | delivery vs injected per-link loss, NL-ACK on vs off |
//! | threat-model extension | `adversary_sweep` | delivery vs blackhole fraction, defenses on vs off |
//!
//! Environment knobs shared by the figure binaries: `AGR_SEEDS` (number
//! of seeds averaged per point, default 5), `AGR_DURATION_S` (simulated
//! seconds, default 900), `AGR_NODES` (comma-separated node counts),
//! `AGR_JOBS` (sweep worker threads, a whole number ≥ 1; default:
//! available parallelism).
//! Results are independent of `AGR_JOBS`: each (protocol × nodes × seed)
//! point is a self-contained deterministic simulation and aggregation
//! happens in task order, so CSVs are bit-identical at any worker count.
//! A set-but-malformed `AGR_SEEDS` / `AGR_DURATION_S` / `AGR_NODES` /
//! `AGR_JOBS` exits 2 instead of silently running the default experiment.
//!
//! This crate reproduces the paper; it gates no host-speed number. Those
//! come from `BENCHMARK.json` + `benchmark/` (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod report;
pub mod runner;
pub mod stamp;
pub mod viz;

pub use report::Table;
pub use runner::{jobs, par_map, run_matrix, run_point, PointResult, ProtocolKind, SweepParams};
pub use viz::{run_point_observed, ObservedRun};
