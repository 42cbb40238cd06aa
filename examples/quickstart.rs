//! Quickstart: anonymous geographic routing vs the GPSR baseline.
//!
//! Builds the paper's §5.1 scenario (50 nodes, 1500 m × 300 m,
//! random-waypoint mobility, 30 CBR flows from 20 senders), runs all
//! three protocol variants of Figure 1, and prints the two §5 metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agr::core::agfw::{Agfw, AgfwConfig};
use agr::gpsr::{Gpsr, GpsrConfig};
use agr::sim::{SimConfig, SimTime, Stats, World};
use rand::SeedableRng;

fn scenario(seed: u64) -> SimConfig {
    let mut traffic_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut config = SimConfig::default(); // 50 nodes, 1500x300, RWP <=20 m/s
    config.duration = SimTime::from_secs(120); // short demo; the paper uses 900 s
    config.seed = seed;
    config.with_cbr_traffic(30, 20, SimTime::from_secs(1), 64, &mut traffic_rng)
}

fn describe(name: &str, stats: &Stats) {
    println!(
        "{name:<12}  delivery {:>5.1}%   mean latency {:>7.2} ms   frames on air {:>6}",
        stats.delivery_fraction() * 100.0,
        stats.mean_latency().as_millis_f64(),
        stats.counter("mac.tx_frames"),
    );
}

fn main() {
    println!("Paper scenario: 50 nodes, 1500x300 m, RWP <=20 m/s (60 s pause), 30 CBR flows\n");

    let mut gpsr = World::new(scenario(7), |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    });
    describe("GPSR-Greedy", &gpsr.run());

    let mut agfw_noack = World::new(scenario(7), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::without_ack(), cfg, rng)
    });
    describe("AGFW-noACK", &agfw_noack.run());

    let mut agfw = World::new(scenario(7), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let stats = agfw.run();
    describe("AGFW-ACK", &stats);

    println!(
        "\nAGFW forwarded {} data broadcasts, acknowledged {} hops, \
         retransmitted {} times,\nsealed {} trapdoors and opened {} \
         (attempts: {} — only inside the last-hop region).",
        stats.counter("agfw.data_broadcast"),
        stats.counter("agfw.hop_acked"),
        stats.counter("agfw.retransmit"),
        stats.counter("agfw.trapdoor_sealed"),
        stats.counter("agfw.trapdoor_opened"),
        stats.counter("agfw.trapdoor_attempt"),
    );
    println!(
        "No packet carried a sender identity, a receiver identity, or a MAC address.\n\
         Reproduce the full Figure 1: cargo run --release -p agr-bench --bin fig1"
    );
}
