//! End-to-end tests of the networked anonymous location service: the
//! full §3.3 message flow (RLU → store → LREQ → LREP) geo-routed over
//! the live radio network, with **no location oracle** for destinations.

use agr_core::agfw::{Agfw, AgfwConfig, LocationMode};
use agr_core::keys::KeyDirectory;
use agr_geom::Point;
use agr_sim::{FlowConfig, NodeId, SimConfig, SimTime, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn als_world(mut sim: SimConfig, key_bits: u32) -> World<Agfw> {
    let mut rng = StdRng::seed_from_u64(0xa15);
    let (keys, dir) = KeyDirectory::generate(sim.num_nodes, key_bits, &mut rng).unwrap();
    sim.seed = 42;
    let config = AgfwConfig {
        location: LocationMode::Als,
        ..AgfwConfig::default()
    };
    World::new(sim, move |id, cfg, _| {
        Agfw::with_keys(
            id,
            config,
            cfg,
            Arc::clone(&keys[id.0 as usize]),
            Arc::clone(&dir),
            None,
        )
    })
}

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

#[test]
fn static_network_resolves_locations_and_delivers() {
    // A 3x3 grid of nodes covering several DLM cells; the flow source
    // must discover the destination's location via LREQ/LREP before any
    // data can move.
    let positions: Vec<Point> = (0..9)
        .map(|i| {
            Point::new(
                f64::from(i % 3) * 220.0 + 100.0,
                f64::from(i / 3) * 140.0 + 10.0,
            )
        })
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(120));
    sim.flows = vec![flow(0, 8, 25, 110)];
    let mut world = als_world(sim, 512);
    let stats = world.run();

    assert!(
        stats.counter("als.update_sent") > 0,
        "updaters must publish"
    );
    assert!(stats.counter("als.server_stored") > 0, "servers must store");
    assert!(stats.counter("als.request_sent") > 0, "source must query");
    assert!(
        stats.counter("als.reply_received") > 0,
        "the LREP must come back: counters {:?}",
        stats.counters().collect::<Vec<_>>()
    );
    assert!(
        stats.delivery_fraction() > 0.85,
        "data should flow once resolved, got {} (counters {:?})",
        stats.delivery_fraction(),
        stats.counters().collect::<Vec<_>>()
    );
}

#[test]
fn cache_amortises_queries() {
    let positions: Vec<Point> = (0..9)
        .map(|i| {
            Point::new(
                f64::from(i % 3) * 220.0 + 100.0,
                f64::from(i / 3) * 140.0 + 10.0,
            )
        })
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(120));
    sim.flows = vec![flow(0, 8, 25, 110)];
    let mut world = als_world(sim, 512);
    let stats = world.run();
    // ~85 packets but far fewer queries: the cache answers most sends.
    assert!(stats.counter("als.cache_hit") > stats.counter("als.request_sent"));
}

#[test]
fn mobile_network_without_oracle() {
    // The headline: the paper's full system — AGFW + ALS — running on a
    // mobile 30-node network with no oracle anywhere. Smaller keys keep
    // the test fast; the crypto is still real RSA.
    let mut traffic_rng = StdRng::seed_from_u64(5);
    let mut sim = SimConfig::default();
    sim.num_nodes = 30;
    sim.duration = SimTime::from_secs(240);
    let sim = sim.with_cbr_traffic(8, 5, SimTime::from_secs(1), 64, &mut traffic_rng);
    let mut world = als_world(sim, 512);
    let stats = world.run();
    assert!(
        stats.delivery_fraction() > 0.5,
        "mobile ALS-resolved delivery {} too low (counters {:?})",
        stats.delivery_fraction(),
        stats.counters().collect::<Vec<_>>()
    );
    assert!(stats.counter("als.reply_received") > 0);
}

#[test]
fn query_retry_heals_lost_service_messages() {
    // ALS messages are unacknowledged (see packet.rs): under link loss,
    // the periodic refresh and the query timeout/retry loop are the only
    // reliability. Inject heavy uniform loss and check the retry path
    // both fires and eventually gets an LREP through.
    let positions: Vec<Point> = (0..9)
        .map(|i| {
            Point::new(
                f64::from(i % 3) * 220.0 + 100.0,
                f64::from(i / 3) * 140.0 + 10.0,
            )
        })
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(120));
    sim.flows = vec![flow(0, 8, 25, 110)];
    sim.fault = agr_sim::FaultPlan::uniform_loss(0.35);
    let mut world = als_world(sim, 512);
    let stats = world.run();
    assert!(
        stats.counter("als.request_retry") > 0,
        "35% loss must cost at least one LREQ/LREP and trigger a retry: {:?}",
        stats.counters().collect::<Vec<_>>()
    );
    assert!(
        stats.counter("als.reply_received") > 0,
        "retries must eventually resolve the location: {:?}",
        stats.counters().collect::<Vec<_>>()
    );
    assert!(
        stats.data_delivered > 0,
        "data must flow once resolved despite the loss"
    );
}

#[test]
fn unanticipated_destination_times_out_cleanly() {
    // Flow 1's destination never updates for this source... actually the
    // anticipated set is derived from flow sources, so a *destination*
    // that is not a source still publishes for us. Instead: query a node
    // that is partitioned away — the query must retry and then drop the
    // queued packets without wedging the node.
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(1400.0, 280.0), // unreachable island
    ];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![flow(0, 2, 20, 50)];
    let mut world = als_world(sim, 512);
    let stats = world.run();
    assert_eq!(stats.data_delivered, 0);
    assert!(
        stats.counter("agfw.drop.no_location") > 0,
        "queued packets must be dropped after query retries: {:?}",
        stats.counters().collect::<Vec<_>>()
    );
    assert!(stats.counter("als.request_retry") > 0);
}

#[test]
fn same_seed_als_runs_are_identical_in_one_process() {
    // Two worlds built from one config in one process must agree field
    // for field. Servers that hold several cells hand their records off
    // in one loop that also draws uids from the node's RNG, so that loop
    // must visit cells in the same order in every run.
    let run = || {
        let mut traffic_rng = StdRng::seed_from_u64(5);
        let mut sim = SimConfig::default();
        sim.num_nodes = 30;
        sim.duration = SimTime::from_secs(120);
        let sim = sim.with_cbr_traffic(8, 5, SimTime::from_secs(1), 64, &mut traffic_rng);
        als_world(sim, 512).run()
    };
    let first = run();
    assert!(first.counter("als.handoff") > 0, "no server handoff ran");
    assert_eq!(first, run());
}
