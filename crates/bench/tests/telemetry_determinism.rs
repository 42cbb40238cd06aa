//! Telemetry is observation-only: attaching the metric observer
//! and the viz-event collector to a run must leave its outcome
//! byte-identical. Pinned two ways:
//!
//! 1. Observed runs of the goldens scenario reproduce the exact
//!    fingerprints `adversary_acceptance.rs` pins for bare runs — not
//!    just "observed == bare today" but "observed == the constants",
//!    so an observer that perturbs RNG draws or event order cannot
//!    hide behind a matching drift in the bare path.
//! 2. Every viz event the observed run emits renders to a line the
//!    schema validator accepts, and the telemetry registry agrees with
//!    the stream about how many frames were on the air.
//! 3. The rendered viz stream itself is pinned by length and FNV-1a
//!    digest, so a change to what the on-air observer reports fails
//!    here by name.

use agr_bench::runner::{run_point, ProtocolKind, SweepParams};
use agr_bench::viz::run_point_observed;
use agr_core::agfw::AgfwConfig;
use agr_sim::{SimTime, Stats};
use agr_telemetry::viz::validate_jsonl_line;
use agr_telemetry::VizEventKind;

/// FNV-1a, folded into `h` one byte at a time.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the run's headline numbers and every named counter —
/// the same digest `adversary_acceptance.rs` pins for bare runs.
fn fingerprint(stats: &Stats) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| fnv1a(&mut h, bytes);
    mix(&stats.data_sent.to_be_bytes());
    mix(&stats.data_delivered.to_be_bytes());
    mix(&stats.events_processed.to_be_bytes());
    mix(&stats.mean_latency().as_nanos().to_be_bytes());
    for (name, value) in stats.counters() {
        mix(name.as_bytes());
        mix(&value.to_be_bytes());
    }
    h
}

/// The goldens scenario (60 s, 10 flows, 5 senders, seed 1, 50 nodes).
fn short_params() -> SweepParams {
    SweepParams {
        duration: SimTime::from_secs(60),
        flows: 10,
        senders: 5,
        seeds: 1,
        ..SweepParams::default()
    }
}

/// Observed runs reproduce the adversary-acceptance golden fingerprints
/// exactly: the telemetry observer and the viz collector draw no
/// randomness and touch no simulator state. Their viz streams are
/// pinned too, by byte length and FNV-1a digest of `events_jsonl()`.
#[test]
fn observed_runs_match_bare_goldens_exactly() {
    let params = short_params();
    let cases = [
        (
            ProtocolKind::Agfw(AgfwConfig::default()),
            0x36f8_a963_4959_1ace_u64,
            115,
            113,
            120_832,
            (621_769, 0xbaac_a95d_9b7a_6bf6_u64),
        ),
        (
            ProtocolKind::GpsrGreedy,
            0x7e63_b0cd_766e_a66f_u64,
            115,
            115,
            144_652,
            (316_696, 0xf9a4_2b7a_cbb0_b31f_u64),
        ),
    ];
    for (kind, want_fp, want_sent, want_delivered, want_events, want_viz) in cases {
        let run = run_point_observed(&kind, 50, 1, &params);
        let jsonl = run.events_jsonl();
        let mut viz_digest = FNV_OFFSET;
        fnv1a(&mut viz_digest, jsonl.as_bytes());
        assert_eq!(
            (jsonl.len(), viz_digest),
            want_viz,
            "{}: the viz stream's bytes changed",
            kind.label()
        );
        assert_eq!(
            run.stats.data_sent,
            want_sent,
            "{}: observed data_sent drifted",
            kind.label()
        );
        assert_eq!(
            run.stats.data_delivered,
            want_delivered,
            "{}: observed data_delivered drifted",
            kind.label()
        );
        assert_eq!(
            run.stats.events_processed,
            want_events,
            "{}: observed event count drifted",
            kind.label()
        );
        assert_eq!(
            fingerprint(&run.stats),
            want_fp,
            "{}: attaching telemetry observers changed the run — the \
             observer is no longer observation-only",
            kind.label()
        );
        // Belt and braces: full structural equality with a bare run.
        let bare = run_point(&kind, 50, 1, &params);
        assert_eq!(bare, run.stats, "{}: observed != bare", kind.label());
    }
}

/// Every viz event renders to a schema-valid JSONL line, and the
/// telemetry registry's frame counters are consistent with the stream.
#[test]
fn observed_stream_is_schema_valid_and_consistent() {
    let run = run_point_observed(
        &ProtocolKind::Agfw(AgfwConfig::default()),
        50,
        1,
        &short_params(),
    );
    assert!(!run.events.is_empty());
    let mut tx = 0u64;
    let mut changes = 0u64;
    for event in &run.events {
        let kind = validate_jsonl_line(&event.to_json_line())
            .unwrap_or_else(|e| panic!("invalid viz line: {e}"));
        match kind {
            VizEventKind::Tx => tx += 1,
            VizEventKind::PseudonymChange => changes += 1,
            _ => {}
        }
    }
    let snap = run.registry.snapshot();
    let data_frames = snap.counter("sim.frames.data").unwrap_or(0);
    assert_eq!(
        tx, data_frames,
        "every data frame yields exactly one tx event"
    );
    assert!(
        changes > 0,
        "default AGFW rotates pseudonyms; the on-air observer must see it"
    );
    assert!(snap.counter("sim.frames.total").unwrap_or(0) >= data_frames);
    // The JSONL rendering of the whole stream validates line by line.
    for line in run.events_jsonl().lines() {
        validate_jsonl_line(line).expect("rendered stream must validate");
    }
}
