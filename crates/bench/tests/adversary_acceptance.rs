//! Acceptance tests for adversarial node injection and the hardening
//! defenses.
//!
//! Four properties are pinned:
//!
//! 1. **Adversary-free runs are byte-identical to the pre-adversary
//!    build.** The golden fingerprints below were captured at the commit
//!    preceding this module; a plan-free run must reproduce them bit for
//!    bit (no RNG family shifted, no counter appeared, no event moved).
//! 2. **Defenses measurably heal a blackhole population.** At 20%
//!    blackholes the hardened configuration must beat the undefended one
//!    by a clear delivery margin.
//! 3. **Adversarial runs stay deterministic under parallelism** —
//!    serial and 4-worker sweeps of the same adversarial matrix agree
//!    exactly, mirroring the fault-injection regression.
//! 4. **Adversarial, faulty runs are byte-identical to a golden.** One
//!    blackhole + burst-loss + churn scenario, fingerprinted.

use agr_bench::runner::{run_matrix_jobs, run_point, ProtocolKind, SweepParams};
use agr_core::agfw::AgfwConfig;
use agr_sim::{AdversaryMix, FaultPlan, NodeId, SimTime, Stats};

/// FNV-1a over the run's headline numbers and every named counter — a
/// cheap but exhaustive digest of a simulation outcome.
fn fingerprint(stats: &Stats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
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

/// The short scenario every test here uses (60 s, 10 flows, 5 senders,
/// seed 1, 50 nodes) — small enough for CI, busy enough to exercise
/// every code path the goldens digest.
fn short_params() -> SweepParams {
    SweepParams {
        duration: SimTime::from_secs(60),
        flows: 10,
        senders: 5,
        seeds: 1,
        ..SweepParams::default()
    }
}

/// Golden fingerprints captured at the commit before the adversary
/// module existed. An adversary-free run of today's build must
/// reproduce them exactly: the `AdversaryPlan::none()` path allocates
/// no RNGs and draws nothing, so nothing observable may change.
#[test]
fn adversary_free_runs_match_pre_adversary_goldens() {
    let params = short_params();
    let cases = [
        (
            ProtocolKind::Agfw(AgfwConfig::default()),
            0x36f8_a963_4959_1ace_u64,
            115,
            113,
            120_832,
        ),
        (
            ProtocolKind::GpsrGreedy,
            0x7e63_b0cd_766e_a66f_u64,
            115,
            115,
            144_652,
        ),
    ];
    for (kind, want_fp, want_sent, want_delivered, want_events) in cases {
        let stats = run_point(&kind, 50, 1, &params);
        assert_eq!(
            stats.data_sent,
            want_sent,
            "{}: data_sent drifted",
            kind.label()
        );
        assert_eq!(
            stats.data_delivered,
            want_delivered,
            "{}: data_delivered drifted",
            kind.label()
        );
        assert_eq!(
            stats.events_processed,
            want_events,
            "{}: event count drifted",
            kind.label()
        );
        assert_eq!(
            fingerprint(&stats),
            want_fp,
            "{}: full-stats fingerprint drifted — an adversary-free run \
             is no longer byte-identical to the pre-adversary build",
            kind.label()
        );
        // And no adversary or defense machinery left a trace.
        for (name, value) in stats.counters() {
            assert!(
                !name.starts_with("adv.") && !name.starts_with("defense."),
                "{}: clean run recorded {name}={value}",
                kind.label()
            );
        }
    }
}

/// The tentpole's headline number: at 20% blackholes the hardened
/// configuration recovers a clear delivery margin over the undefended
/// one, and the defense counters prove the machinery (not luck) did it.
#[test]
fn defenses_heal_twenty_percent_blackholes() {
    let params = SweepParams {
        duration: SimTime::from_secs(120),
        seeds: 2,
        adversary: Some(AdversaryMix::blackholes(0.20)),
        ..short_params()
    };
    let kinds = [
        ProtocolKind::Agfw(AgfwConfig::default()),
        ProtocolKind::Agfw(AgfwConfig::hardened()),
    ];
    let results = run_matrix_jobs(&kinds, &[50], &params, 4);
    let plain = &results[0][0];
    let hard = &results[1][0];
    assert!(
        plain.delivery_fraction < 0.9,
        "20% blackholes should hurt the undefended protocol, got {:.3}",
        plain.delivery_fraction
    );
    assert!(
        hard.delivery_fraction >= plain.delivery_fraction + 0.10,
        "hardened ({:.3}) must beat undefended ({:.3}) by ≥ 0.10 \
         delivery at 20% blackholes",
        hard.delivery_fraction,
        plain.delivery_fraction
    );
    let sum = |point: &agr_bench::PointResult, name: &str| -> u64 {
        point.stats.iter().map(|s| s.counter(name)).sum()
    };
    assert!(
        sum(hard, "defense.suspected") > 0,
        "no pseudonym was ever suspected"
    );
    assert!(
        sum(hard, "defense.watch_fired") > 0,
        "forward-watch never caught a blackhole"
    );
    assert!(
        sum(hard, "defense.rerouted") > 0,
        "no retained packet was ever re-routed"
    );
    assert!(
        sum(plain, "adv.blackhole_drop") > 0,
        "the blackholes never dropped anything"
    );
}

/// Determinism under parallelism survives adversaries: the same
/// adversarial matrix computed serially and on a 4-worker pool yields
/// bit-identical aggregates — the `fault_injection` regression,
/// restated for the adversary path (whose RNG family and hash-derived
/// backoff jitter must both be schedule-independent).
#[test]
fn adversarial_matrix_identical_serial_vs_four_jobs() {
    let params = SweepParams {
        seeds: 2,
        adversary: Some(AdversaryMix::blackholes(0.20)),
        ..short_params()
    };
    let kinds = [
        ProtocolKind::Agfw(AgfwConfig::hardened()),
        ProtocolKind::Agfw(AgfwConfig::default()),
        ProtocolKind::GpsrGreedy,
    ];
    let serial = run_matrix_jobs(&kinds, &[50], &params, 1);
    let parallel = run_matrix_jobs(&kinds, &[50], &params, 4);
    assert_eq!(serial, parallel);
    // The plan actually bit: every run recorded blackhole drops.
    for point in serial.iter().flatten() {
        for stats in &point.stats {
            assert!(
                stats.counter("adv.blackhole_drop") > 0,
                "{}: blackholes never dropped",
                point.protocol
            );
        }
    }
}

/// Golden fingerprints for one adversarial *and* faulty scenario: 20%
/// blackholes over a Gilbert burst-loss channel with one radio outage.
/// The goldens above are adversary- and fault-free; this one pins the
/// blackhole, defense, burst-loss, churn and NL-ACK retransmission paths
/// together, for the undefended and hardened AGFW and for GPSR. The
/// values predate the deletion of the capabilities no result measured
/// (ROADMAP item 22) and held through it.
#[test]
fn adversarial_faulty_run_matches_golden() {
    let params = SweepParams {
        fault: FaultPlan::burst_loss(0.05, 0.4).with_churn(
            NodeId(7),
            SimTime::from_secs(20),
            SimTime::from_secs(35),
        ),
        adversary: Some(AdversaryMix::blackholes(0.2)),
        ..short_params()
    };
    let cases = [
        (
            ProtocolKind::Agfw(AgfwConfig::default()),
            0x1fe4_4193_1dbd_7bbb_u64,
            115,
            67,
            124_656,
        ),
        (
            ProtocolKind::Agfw(AgfwConfig::hardened()),
            0xe60c_83ab_5d2a_b8c5,
            115,
            72,
            138_520,
        ),
        (
            ProtocolKind::GpsrGreedy,
            0x2cfe_5eb7_37af_eae0,
            115,
            65,
            158_116,
        ),
    ];
    for (kind, want_fp, want_sent, want_delivered, want_events) in cases {
        let stats = run_point(&kind, 50, 1, &params);
        let got = (
            fingerprint(&stats),
            stats.data_sent,
            stats.data_delivered,
            stats.events_processed,
        );
        assert_eq!(
            got,
            (want_fp, want_sent, want_delivered, want_events),
            "{}: adversarial+faulty run drifted (fingerprint, sent, delivered, events)",
            kind.label()
        );
        assert!(stats.counter("adv.blackhole_drop") > 0, "{}", kind.label());
        assert!(stats.counter("fault.drop.burst") > 0, "{}", kind.label());
        assert_eq!(stats.counter("fault.churn_down"), 1, "{}", kind.label());
    }
}
