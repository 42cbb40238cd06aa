//! Property tests for the JSON exporter: any registry state —
//! counters, gauges (negative included), labelled families, histograms
//! with arbitrary samples — must survive snapshot → JSON → snapshot
//! bit-for-bit.

use agr_telemetry::export::{snapshot_from_json, snapshot_to_json};
use agr_telemetry::Registry;
use proptest::prelude::*;

const NAMES: [&str; 5] = [
    "als.serve.queries",
    "sim.frames.total",
    "pool.idle-frames",
    "queue_depth",
    "latency_ns",
];

const LABELS: [(&str, &str); 3] = [("pool", "recv"), ("pool", "reply"), ("node", "n 17\"x")];

/// One registry mutation: which family, the value, and an optional
/// label pair from the pool. The instrument kind is a function of the
/// family name (a registry rejects re-registering a family as a
/// different kind, as production code would never do).
type Entry = (usize, u64, usize);

fn apply(registry: &Registry, entries: &[Entry]) {
    for &(name_idx, value, label_idx) in entries {
        let name = NAMES[name_idx % NAMES.len()];
        let labels: &[(&str, &str)] = match label_idx % 4 {
            3 => &[],
            i => std::slice::from_ref(&LABELS[i]),
        };
        match name_idx % 3 {
            0 => registry.counter_with(name, labels).add(value >> 8),
            1 => registry
                .gauge_with(name, labels)
                .set(i64::from_ne_bytes(value.to_ne_bytes())),
            _ => registry.histogram_with(name, labels).record(value),
        }
    }
}

proptest! {
    #[test]
    fn snapshot_survives_json_round_trip(
        entries in proptest::collection::vec(
            (0usize..5, any::<u64>(), 0usize..4),
            0..40,
        ),
    ) {
        let registry = Registry::new();
        apply(&registry, &entries);
        let snap = registry.snapshot();
        let json = snapshot_to_json(&snap, &[("bin", "proptest"), ("git_sha", "deadbeef")]);
        let back = snapshot_from_json(&json).expect("exported JSON must parse");
        prop_assert_eq!(&back, &snap, "snapshot drifted across the JSON round trip");
    }
}
