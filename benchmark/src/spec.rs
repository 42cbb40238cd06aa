//! The benchmark's contract: `BENCHMARK.json`, compiled in.
//!
//! The file at the repository root names every workload and metric and
//! fixes each end-to-end metric's bound. Embedding it means the binary
//! and the file cannot disagree: a run emits exactly the names the file
//! lists (anything else panics), and `compare` applies the file's bounds.

use crate::json::Json;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

impl Spec {
    /// The compiled-in contract.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the crate's tests")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better: match text_of(item, "better")?.as_str() {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => return Err(format!("bad direction {other:?}")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
        })
    }

    #[cfg(test)]
    pub fn end_to_end(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// A set of named values that accepts exactly the names one list of
/// `BENCHMARK.json` declares. Every name starts at `None`; setting an
/// undeclared name panics (a typo must not silently drop a metric).
#[derive(Debug, Clone)]
pub struct MetricSet<V> {
    units: BTreeMap<String, String>,
    values: BTreeMap<String, Option<V>>,
}

impl<V: Clone> MetricSet<V> {
    pub fn new(specs: &[MetricSpec]) -> MetricSet<V> {
        MetricSet {
            units: specs
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect(),
            values: specs.iter().map(|m| (m.name.clone(), None)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: V) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"));
        *slot = Some(value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&V> {
        self.values.get(name).and_then(Option::as_ref)
    }

    /// `(name, unit, value)` in name order; unset names yield `None`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, Option<&V>)> {
        self.values
            .iter()
            .map(|(name, v)| (name.as_str(), self.units[name].as_str(), v.as_ref()))
    }

    /// Names never set.
    pub fn missing(&self) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The driver refuses a file outside these limits before a single
    /// run, so they are pinned here.
    #[test]
    fn benchmark_json_meets_the_driver_contract() {
        let spec = Spec::load();
        let doc = Json::parse(BENCHMARK_JSON).expect("parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .map(String::as_str)
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the rules");
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(unit_ok(&m.unit), "unit of {} breaks the rules", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for w in doc.get("workloads").and_then(Json::as_arr).expect("list") {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for part in doc.get("command").and_then(Json::as_arr).expect("list") {
            let part = part.as_str().expect("string");
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
    }

    #[test]
    fn a_metric_set_accepts_only_declared_names() {
        let spec = Spec::load();
        let mut set: MetricSet<f64> = MetricSet::new(&spec.end_to_end);
        set.set("setup_s", 1.5);
        assert_eq!(set.get("setup_s"), Some(&1.5));
        assert!(set.missing().contains(&"peak_rss_mb"));
        let undeclared = std::panic::catch_unwind(move || set.set("made_up", 1.0));
        assert!(undeclared.is_err());
    }
}
