//! The metric registry: cold-path registration, lock-free hot path.
//!
//! A [`Registry`] maps `(name, labels)` to one of three instrument
//! kinds. `register_*` takes a mutex, but only once per metric — the
//! returned `Arc` handle is the hot path, and bumping it is a single
//! `Relaxed` atomic RMW. Registering the same key twice returns the
//! *same* handle, so independent subsystems can share an instrument by
//! name without coordination.
//!
//! [`Registry::snapshot`] copies every instrument into a [`Snapshot`]
//! whose iteration order is deterministic (sorted by name, then
//! labels), which is what makes the JSON and Prometheus exporters
//! reproducible and lets tests diff two snapshots field-for-field.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the counter — for mirroring an externally accumulated
    /// total (e.g. a legacy stats struct) into the registry at scrape
    /// time.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sorted `key=value` labels identifying one instrument of a family.
pub(crate) type Labels = Vec<(String, String)>;

/// Identity of one instrument: family name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    /// Family name, dot-separated (`als.serve.updates`).
    pub(crate) name: String,
    /// Sorted label pairs; empty for unlabelled metrics.
    pub(crate) labels: Labels,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Point-in-time value of one instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state: per-bucket counts plus running totals.
    Histogram {
        /// Per-log2-bucket observation counts.
        buckets: Vec<u64>,
        /// Sum of observed values.
        sum: u64,
        /// Total observations.
        count: u64,
    },
}

/// A deterministic copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Sorted metric key → value.
    pub(crate) metrics: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    /// Looks up an unlabelled counter's value (None if absent or not a
    /// counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(&MetricKey::new(name, &[])) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }
}

/// The registry. Clone the `Arc` freely; all methods take `&self`.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<MetricKey, Instrument>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.instruments.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("instruments", &n).finish()
    }
}

impl Registry {
    /// An empty registry behind an `Arc`.
    #[must_use]
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Registers (or retrieves) the counter `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Registers (or retrieves) a labelled counter.
    ///
    /// # Panics
    ///
    /// Panics if the key was already registered as a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the gauge `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Registers (or retrieves) a labelled gauge.
    ///
    /// # Panics
    ///
    /// Panics if the key was already registered as a different kind.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the histogram `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Registers (or retrieves) a labelled histogram.
    ///
    /// # Panics
    ///
    /// Panics if the key was already registered as a different kind.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut map = self.instruments.lock().expect("registry poisoned");
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Copies every instrument into a sorted `Snapshot`.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.instruments.lock().expect("registry poisoned");
        let mut out = Snapshot::default();
        for (key, instrument) in map.iter() {
            let value = match instrument {
                Instrument::Counter(c) => MetricValue::Counter(c.get()),
                Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                Instrument::Histogram(h) => MetricValue::Histogram {
                    buckets: h.buckets().to_vec(),
                    sum: h.sum(),
                    count: h.count(),
                },
            };
            out.metrics.insert(key.clone(), value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("als.updates");
        let b = reg.counter("als.updates");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    fn labels_distinguish_instruments() {
        let reg = Registry::new();
        let n0 = reg.counter_with("cluster.rx", &[("node", "0")]);
        let n1 = reg.counter_with("cluster.rx", &[("node", "1")]);
        n0.inc();
        n1.add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let reg = Registry::new();
        let _ = reg.counter("zeta");
        let _ = reg.counter("alpha");
        let _ = reg.counter_with("alpha", &[("k", "v")]);
        let keys: Vec<MetricKey> = reg.snapshot().metrics.into_keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys[0].name, "alpha");
        assert!(keys[0].labels.is_empty(), "unlabelled sorts first");
    }
}
