//! What one workload run produced, and how it is printed.
//!
//! A run prints, in order: a stamp line (git SHA + dirty flag, `nproc`,
//! seed, config hash), one line per metric with its unit (median,
//! quartiles, sample count), one line per correctness check that
//! failed, a `record` line (the same content as JSON, which `run-all`
//! collects into a result file for `compare`), and as the last line the
//! driver's result object.

use crate::json::Json;
use crate::spec::{MetricSet, Spec};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured part, in seconds.
    pub seconds: u64,
    /// Traced run: spans, counting allocator, frame observer, probes and
    /// ladder; reports per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Provenance of a result: enough to refuse comparing runs that are not
/// comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    pub git_sha: String,
    pub dirty: bool,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: u64,
    /// FNV-1a of the workload's configuration line.
    pub config_hash: String,
}

impl Stamp {
    /// `nproc` is the machine's, counted before the process pinned
    /// itself to one CPU.
    pub fn new(args: &RunArgs, config: &str, nproc: usize) -> Stamp {
        let git = |argv: &[&str]| {
            std::process::Command::new("git")
                .args(argv)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
        };
        // The driver's checkout is not a git repository: "unknown" there.
        let git_sha = git(&["rev-parse", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
        Stamp {
            git_sha,
            dirty,
            nproc,
            seed: args.seed,
            seconds: args.seconds,
            config_hash: format!("{:016x}", fnv1a(config.as_bytes())),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("git_sha", Json::str(&self.git_sha)),
            ("dirty", Json::Bool(self.dirty)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("config_hash", Json::str(&self.config_hash)),
        ])
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// One line naming every knob of the workload; hashed into the stamp.
    pub config: String,
    /// Operations (ALS) or repetitions (sim) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; any entry fails the run.
    pub violations: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: MetricSet<Summary>,
    /// Per-layer metrics (traced runs).
    pub per_layer: MetricSet<f64>,
    /// Free-form lines for the human reader (tails, counts, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, config: String, spec: &Spec) -> Outcome {
        Outcome {
            workload,
            config,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            end_to_end: MetricSet::new(&spec.end_to_end),
            per_layer: MetricSet::new(&spec.per_layer),
            notes: Vec::new(),
        }
    }

    /// Records a correctness check; `detail` is only built on failure.
    pub fn check(&mut self, holds: bool, detail: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(detail());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `failed / attempted`, the issue's `failed_op_fraction`. It is 0 on
    /// every healthy run, so it rides in the result's `attempted` /
    /// `failed` fields rather than among the gated metrics, which must
    /// never be 0.
    pub fn failed_op_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's result object: the last line a run prints.
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics: BTreeMap<String, Json> = if trace {
            self.per_layer
                .iter()
                .map(|(name, unit, v)| (name.to_string(), value_unit(v.copied(), unit)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(name, unit, v)| (name.to_string(), value_unit(v.map(|s| s.median), unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The full record: stamp, checks, and every metric with quartiles.
    pub fn record(&self, stamp: &Stamp, trace: bool) -> Json {
        let end_to_end = self
            .end_to_end
            .iter()
            .filter_map(|(name, unit, v)| {
                let s = v?;
                Some((
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::str(unit)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ]),
                ))
            })
            .collect();
        let per_layer = self
            .per_layer
            .iter()
            .filter_map(|(name, unit, v)| Some((name.to_string(), value_unit(Some(*v?), unit))))
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("trace", Json::Bool(trace)),
            ("stamp", stamp.to_json()),
            ("config", Json::str(&self.config)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_op_fraction", Json::Num(self.failed_op_fraction())),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
        ])
    }

    /// Prints the whole run to stdout, result object last.
    pub fn print(&self, stamp: &Stamp, trace: bool) {
        println!(
            "workload {} trace={} seed={} seconds={} git={}{} nproc={} config_hash={}",
            self.workload,
            u8::from(trace),
            stamp.seed,
            stamp.seconds,
            stamp.git_sha,
            if stamp.dirty { "+dirty" } else { "" },
            stamp.nproc,
            stamp.config_hash,
        );
        println!("config {}", self.config);
        if trace {
            for (name, unit, v) in self.per_layer.iter() {
                println!("  {name:<46} {:>16} {unit}", v.map_or(0.0, |v| *v));
            }
        } else {
            for (name, unit, v) in self.end_to_end.iter() {
                if let Some(s) = v {
                    println!(
                        "  {name:<20} {:>16.6} {unit:<6} q1 {:.6} q3 {:.6} n={}",
                        s.median, s.q1, s.q3, s.n
                    );
                }
            }
            println!(
                "  {:<20} {:>16.6} {:<6} ({} failed of {} attempted)",
                "failed_op_fraction",
                self.failed_op_fraction(),
                "ratio",
                self.failed,
                self.attempted
            );
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for violation in &self.violations {
            println!("CHECK FAILED {violation}");
        }
        println!("record {}", self.record(stamp, trace).render());
        println!("{}", self.result_line(trace).render());
    }
}

/// A `{"value", "unit"}` pair. A per-layer metric the workload does not
/// exercise (a sim count on an ALS workload) reads 0.
fn value_unit(value: Option<f64>, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value.unwrap_or(0.0))),
        ("unit", Json::str(unit)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let spec = Spec::load();
        let mut outcome = Outcome::new("sim_agfw_dense", "cfg".to_string(), &spec);
        outcome.attempted = 4;
        for m in &spec.end_to_end {
            outcome
                .end_to_end
                .set(&m.name, Summary::of(&[1.0, 2.0, 4.0]));
        }
        let line = Json::parse(&outcome.result_line(false).render()).expect("valid json");
        let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), spec.end_to_end.len());
        assert_eq!(
            metrics["setup_s"].get("value").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
        let traced = outcome.result_line(true);
        let layers = traced
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(layers.len(), spec.per_layer.len());
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let spec = Spec::load();
        let mut outcome = Outcome::new("cluster_r2", String::new(), &spec);
        outcome.check(true, || unreachable!("detail is lazy"));
        assert!(outcome.correct());
        outcome.check(false, || "digests disagree".to_string());
        assert!(!outcome.correct());
        assert_eq!(
            outcome.result_line(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn the_config_hash_separates_configs() {
        let args = RunArgs {
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let a = Stamp::new(&args, "nodes=150", 2);
        let b = Stamp::new(&args, "nodes=151", 2);
        assert_ne!(a.config_hash, b.config_hash);
        assert_eq!(a.config_hash, Stamp::new(&args, "nodes=150", 2).config_hash);
    }
}
