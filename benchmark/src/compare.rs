//! `compare <a.json> <b.json>`: is run B no worse than run A?
//!
//! For every workload × end-to-end metric it prints both medians, how
//! much worse B is, the bound from `BENCHMARK.json`, and a verdict:
//!
//! * `ok` — B is within the bound.
//! * `BREACH` — B is worse than A by more than the bound. Exit code 1.
//! * `unresolved` — the runs' own repetition-to-repetition spread is
//!   wider than the bound and their quartile ranges overlap, so the
//!   files can show neither a regression nor its absence. Run more pairs.
//!
//! Three rules are stricter or looser than the file's relative bound,
//! as the benchmark's issue fixed them:
//!
//! * On the simulator workloads the simulated-time statistics
//!   (`delivery_fraction`, `sim_latency_ms`, `query_p50_us`) are pure
//!   functions of the seed, and `compare` only accepts files with equal
//!   seeds: they must be **bit-identical**. Any movement is a behaviour
//!   change that must be declared, not noise.
//! * `setup_s` may worsen by its bound or by 0.05 s, whichever is
//!   larger: a 70 µs world construction jitters by more than a quarter.
//! * `failed_op_fraction` (from each record's `failed` / `attempted`)
//!   may rise by at most 0.001 absolute.
//!
//! Files whose config hash, seed or `nproc` differ are refused: they did
//! not run the same thing on the same machine shape.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, Spec};
use std::path::PathBuf;

/// Metrics that are simulated time on the simulator workloads.
const SIMULATED: [&str; 3] = ["delivery_fraction", "sim_latency_ms", "query_p50_us"];
const SETUP_SLACK_S: f64 = 0.05;
const FAILED_FRACTION_SLACK: f64 = 0.001;

/// One metric of one run: median and quartiles over its repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Worsening allowed up to `bound` of A's median, or `slack` in the
    /// metric's own unit if that is larger.
    Relative { bound: f64, slack: f64 },
    /// Must repeat bit for bit.
    Exact,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

pub fn judge(a: &Reading, b: &Reading, better: Better, rule: Rule) -> Verdict {
    let (bound, slack) = match rule {
        Rule::Exact => {
            return if a.value.to_bits() == b.value.to_bits() {
                Verdict::Ok
            } else {
                Verdict::Breach
            };
        }
        Rule::Relative { bound, slack } => (bound, slack),
    };
    let allowed = (bound * a.value.abs()).max(slack);
    let worse_by = match better {
        Better::Higher => a.value - b.value,
        Better::Lower => b.value - a.value,
    };
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    let overlap = a.n > 1 && b.n > 1 && a.q1 <= b.q3 && b.q1 <= a.q3;
    if overlap && spread > allowed {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

fn rule_for(workload: &str, metric: &MetricSpec) -> Rule {
    if workload.starts_with("sim_") && SIMULATED.contains(&metric.name.as_str()) {
        return Rule::Exact;
    }
    Rule::Relative {
        bound: metric.bound.unwrap_or(0.0),
        slack: if metric.name == "setup_s" {
            SETUP_SLACK_S
        } else {
            0.0
        },
    }
}

fn load(path: &PathBuf) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("workloads")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{}: no \"workloads\" list", path.display()))
}

fn reading(record: &Json, metric: &str) -> Option<Reading> {
    let m = record.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

/// Why two records may not be compared, if they may not.
fn incomparable(a: &Json, b: &Json) -> Option<String> {
    for key in ["config_hash", "seed", "nproc", "seconds"] {
        let (va, vb) = (
            a.get("stamp").and_then(|s| s.get(key)),
            b.get("stamp").and_then(|s| s.get(key)),
        );
        if va.is_none() || va != vb {
            return Some(format!(
                "{key} differs ({} vs {})",
                va.map_or("missing".to_string(), Json::render),
                vb.map_or("missing".to_string(), Json::render)
            ));
        }
    }
    None
}

/// Compares two result files; `Ok(false)` on any breach.
pub fn run(files: &[PathBuf], spec: &Spec) -> Result<bool, String> {
    let [path_a, path_b] = files else {
        return Err("compare takes exactly two result files".to_string());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let name = |r: &Json| {
        r.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut clean = true;
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for record_a in &a {
        let workload = name(record_a);
        let record_b = b
            .iter()
            .find(|r| name(r) == workload)
            .ok_or_else(|| format!("{workload} is missing from {}", path_b.display()))?;
        if let Some(why) = incomparable(record_a, record_b) {
            return Err(format!("refusing to compare {workload}: {why}"));
        }
        for record in [record_a, record_b] {
            if record.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{workload:<16} a run failed its own correctness checks  BREACH");
                clean = false;
            }
        }
        for metric in &spec.end_to_end {
            let (Some(ra), Some(rb)) = (
                reading(record_a, &metric.name),
                reading(record_b, &metric.name),
            ) else {
                return Err(format!("{workload} lacks {} in one file", metric.name));
            };
            let rule = rule_for(&workload, metric);
            let verdict = judge(&ra, &rb, metric.better, rule);
            clean &= verdict != Verdict::Breach;
            let bound = match rule {
                Rule::Exact => "exact".to_string(),
                Rule::Relative { bound, .. } => format!("{:.1}%", bound * 100.0),
            };
            println!(
                "{workload:<16} {:<18} {:>16.6} {:>16.6} {:>8.2}% {bound:>7}  {}",
                metric.name,
                ra.value,
                rb.value,
                worsening(ra.value, rb.value, metric.better) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Breach => "BREACH",
                }
            );
        }
        let fraction = |r: &Json| {
            r.get("failed_op_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        };
        let (fa, fb) = (fraction(record_a), fraction(record_b));
        let failed_ok = fb <= fa + FAILED_FRACTION_SLACK;
        clean &= failed_ok;
        println!(
            "{workload:<16} {:<18} {fa:>16.6} {fb:>16.6} {:>9} {:>7}  {}",
            "failed_op_fraction",
            "",
            "+0.001",
            if failed_ok { "ok" } else { "BREACH" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, q1: f64, q3: f64) -> Reading {
        Reading {
            value,
            q1,
            q3,
            n: 3,
        }
    }

    const TEN_PERCENT: Rule = Rule::Relative {
        bound: 0.10,
        slack: 0.0,
    };

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_is_a_breach() {
        let a = reading(100.0, 99.0, 101.0);
        let slower = reading(93.0, 92.0, 94.0);
        let much_slower = reading(85.0, 84.0, 86.0);
        assert_eq!(judge(&a, &slower, Better::Higher, TEN_PERCENT), Verdict::Ok);
        assert_eq!(
            judge(&a, &much_slower, Better::Higher, TEN_PERCENT),
            Verdict::Breach
        );
        // Direction matters: 115 is a breach for a latency, fine for a rate.
        let higher = reading(115.0, 114.0, 116.0);
        assert_eq!(
            judge(&a, &higher, Better::Lower, TEN_PERCENT),
            Verdict::Breach
        );
        assert_eq!(judge(&a, &higher, Better::Higher, TEN_PERCENT), Verdict::Ok);
        assert!((worsening(100.0, 85.0, Better::Higher) - 0.15).abs() < 1e-12);
        assert!((worsening(100.0, 85.0, Better::Lower) + 0.15).abs() < 1e-12);
    }

    #[test]
    fn overlapping_noisy_runs_are_unresolved_not_unchanged() {
        // Both runs' quartile ranges are 30 wide against a bound of 10
        // and they overlap: the medians prove nothing either way.
        let a = reading(100.0, 85.0, 115.0);
        let same = reading(99.0, 84.0, 114.0);
        let worse = reading(88.0, 75.0, 105.0);
        assert_eq!(
            judge(&a, &same, Better::Higher, TEN_PERCENT),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &worse, Better::Higher, TEN_PERCENT),
            Verdict::Unresolved
        );
        // Noisy but disjoint and worse: every quartile of B is below A's.
        let clearly_worse = reading(60.0, 45.0, 75.0);
        assert_eq!(
            judge(&a, &clearly_worse, Better::Higher, TEN_PERCENT),
            Verdict::Breach
        );
    }

    #[test]
    fn simulated_statistics_must_repeat_bit_for_bit() {
        let a = Reading {
            value: 0.972_330_475_448_168_3,
            q1: 0.0,
            q3: 0.0,
            n: 1,
        };
        assert_eq!(judge(&a, &a, Better::Higher, Rule::Exact), Verdict::Ok);
        let moved = Reading {
            value: f64::from_bits(a.value.to_bits() + 1),
            ..a
        };
        // Even an improvement is a behaviour change to declare.
        assert_eq!(
            judge(&a, &moved, Better::Higher, Rule::Exact),
            Verdict::Breach
        );
        let spec = Spec::load();
        let delivery = spec.end_to_end("delivery_fraction").expect("declared");
        assert_eq!(rule_for("sim_gpsr_dense", delivery), Rule::Exact);
        assert!(matches!(
            rule_for("als_udp_sat", delivery),
            Rule::Relative { .. }
        ));
    }

    #[test]
    fn setup_may_jitter_by_fifty_milliseconds() {
        let spec = Spec::load();
        let rule = rule_for(
            "sim_agfw_dense",
            spec.end_to_end("setup_s").expect("declared"),
        );
        let single = |value: f64| Reading {
            value,
            q1: value,
            q3: value,
            n: 1,
        };
        // 70 µs → 140 µs is +100 % but far inside the 0.05 s slack.
        assert_eq!(
            judge(&single(70e-6), &single(140e-6), Better::Lower, rule),
            Verdict::Ok
        );
        // 0.26 s → 0.40 s is beyond both 25 % and 0.05 s.
        assert_eq!(
            judge(&single(0.26), &single(0.40), Better::Lower, rule),
            Verdict::Breach
        );
    }

    #[test]
    fn files_from_different_configs_seeds_or_machines_are_refused() {
        let record = |hash: &str, seed: f64, nproc: f64| {
            Json::obj([(
                "stamp",
                Json::obj([
                    ("config_hash", Json::str(hash)),
                    ("seed", Json::Num(seed)),
                    ("nproc", Json::Num(nproc)),
                    ("seconds", Json::Num(15.0)),
                ]),
            )])
        };
        let base = record("abc", 1.0, 2.0);
        assert_eq!(incomparable(&base, &record("abc", 1.0, 2.0)), None);
        for other in [
            record("abd", 1.0, 2.0),
            record("abc", 2.0, 2.0),
            record("abc", 1.0, 4.0),
        ] {
            assert!(incomparable(&base, &other).is_some());
        }
        assert!(incomparable(&base, &Json::obj([])).is_some());
    }
}
