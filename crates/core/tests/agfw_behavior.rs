//! End-to-end behavioural tests for AGFW on the MANET simulator.

use agr_core::aant::AantConfig;
use agr_core::agfw::{Agfw, AgfwConfig, CryptoMode};
use agr_core::keys::KeyDirectory;
use agr_core::AgfwPacket;
use agr_geom::Point;
use agr_sim::{FlowConfig, NodeId, RecordingObserver, SimConfig, SimTime, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Attaches a [`RecordingObserver`] that keeps the whole on-air trace.
fn record(world: &mut World<Agfw>) -> Rc<RefCell<RecordingObserver<AgfwPacket>>> {
    let trace = Rc::new(RefCell::new(RecordingObserver::new()));
    world.attach_observer(Box::new(Rc::clone(&trace)));
    trace
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
fn multi_hop_chain_delivers_anonymously() {
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 200.0, 0.0))
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![flow(0, 4, 10, 55)];
    let mut world = World::new(sim, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let trace = record(&mut world);
    let stats = world.run();
    assert!(stats.data_sent >= 40);
    assert_eq!(
        stats.data_delivered, stats.data_sent,
        "static chain with NL-ACK must not lose packets"
    );
    // Anonymity at the link layer: no frame ever discloses a source MAC.
    let trace = trace.borrow();
    assert!(!trace.frames().is_empty());
    for frame in trace.frames() {
        assert!(frame.src_mac.is_none(), "AGFW frame leaked a MAC address");
        assert!(frame.dst_mac.is_none(), "AGFW must only local-broadcast");
    }
}

#[test]
fn latency_includes_crypto_processing_delays() {
    // One hop, destination adjacent: source pays 0.5 ms sealing; the
    // committed forwarder (= destination, in the last-hop region) pays
    // 8.5 ms opening. End-to-end must exceed 9 ms.
    let positions = vec![Point::new(0.0, 0.0), Point::new(150.0, 0.0)];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(30));
    sim.flows = vec![flow(0, 1, 5, 25)];
    let mut world = World::new(sim, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let stats = world.run();
    assert_eq!(stats.data_delivered, stats.data_sent);
    let mean = stats.mean_latency();
    assert!(
        mean > SimTime::from_millis(9),
        "mean {mean} must include 0.5 ms seal + 8.5 ms open"
    );
    assert!(
        mean < SimTime::from_millis(30),
        "mean {mean} implausibly high"
    );
    assert!(stats.counter("agfw.trapdoor_opened") >= stats.data_delivered);
}

#[test]
fn last_forwarding_attempt_reaches_silent_destination() {
    // The destination never beacons, so no ANT ever contains it; packets
    // must reach it via the n = 0 "last forwarding attempt".
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(400.0, 0.0), // destination, mute
    ];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![flow(0, 2, 10, 50)];
    let mut world = World::new(sim, |id, cfg, rng| {
        let mut config = AgfwConfig::default();
        if id == NodeId(2) {
            config.hello_interval = SimTime::from_secs(100_000); // mute
        }
        Agfw::new(id, config, cfg, rng)
    });
    let stats = world.run();
    assert!(
        stats.counter("agfw.last_attempt") > 0,
        "last attempt never used"
    );
    assert!(
        stats.delivery_fraction() > 0.9,
        "silent destination should still receive via last attempt, got {}",
        stats.delivery_fraction()
    );
    assert!(stats.counter("agfw.trapdoor_opened") > 0);
}

#[test]
fn no_ack_loses_packets_under_hidden_terminals() {
    // Two hidden senders pound a middle relay towards far destinations.
    let positions = vec![
        Point::new(0.0, 150.0),   // sender A
        Point::new(240.0, 150.0), // relay
        Point::new(480.0, 150.0), // sender B (hidden from A)
        Point::new(460.0, 150.0), // dest for A's flow (near B)
        Point::new(20.0, 150.0),  // dest for B's flow (near A)
    ];
    let mk = |ack: bool| {
        let mut sim = SimConfig::static_topology(positions.clone(), SimTime::from_secs(60));
        sim.radio.cs_range = 300.0; // make the outer nodes truly hidden
        sim.flows = vec![
            FlowConfig {
                src: NodeId(0),
                dst: NodeId(3),
                start: SimTime::from_secs(5),
                interval: SimTime::from_millis(90),
                payload_bytes: 64,
                stop: SimTime::from_secs(55),
            },
            FlowConfig {
                src: NodeId(2),
                dst: NodeId(4),
                start: SimTime::from_millis(5_017),
                interval: SimTime::from_millis(97),
                payload_bytes: 64,
                stop: SimTime::from_secs(55),
            },
        ];
        let config = if ack {
            AgfwConfig::default()
        } else {
            AgfwConfig::without_ack()
        };
        let mut world = World::new(sim, move |id, cfg, rng| Agfw::new(id, config, cfg, rng));
        world.run()
    };
    let with_ack = mk(true);
    let without_ack = mk(false);
    assert!(
        without_ack.delivery_fraction() < 0.9,
        "hidden terminals must hurt the no-ACK variant, got {}",
        without_ack.delivery_fraction()
    );
    assert!(
        with_ack.delivery_fraction() > without_ack.delivery_fraction() + 0.05,
        "NL-ACK must recover a substantial fraction: {} vs {}",
        with_ack.delivery_fraction(),
        without_ack.delivery_fraction()
    );
    assert!(with_ack.counter("agfw.retransmit") > 0);
}

#[test]
fn paper_scale_mobile_network() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut config = SimConfig::default();
    config.duration = SimTime::from_secs(300);
    config.seed = 5;
    let config = config.with_cbr_traffic(30, 20, SimTime::from_secs(1), 64, &mut rng);
    let mut world = World::new(config, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let stats = world.run();
    let df = stats.delivery_fraction();
    assert!(df > 0.75, "50-node mobile AGFW delivery {df} too low");
    assert!(stats.counter("agfw.hello") > 0);
}

#[test]
fn real_rsa_trapdoors_end_to_end() {
    // Genuine RSA-512 trapdoors over a 3-hop chain: only the destination
    // can open; everything still delivers.
    let mut rng = StdRng::seed_from_u64(31);
    let (keys, dir) = KeyDirectory::generate(4, 512, &mut rng).unwrap();
    let positions: Vec<Point> = (0..4)
        .map(|i| Point::new(f64::from(i) * 200.0, 0.0))
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(30));
    sim.flows = vec![flow(0, 3, 5, 25)];
    let config = AgfwConfig {
        crypto: CryptoMode::paper_real(),
        ..AgfwConfig::default()
    };
    let mut world = World::new(sim, move |id, cfg, _| {
        Agfw::with_keys(
            id,
            config,
            cfg,
            std::sync::Arc::clone(&keys[id.0 as usize]),
            std::sync::Arc::clone(&dir),
            None,
        )
    });
    let stats = world.run();
    assert_eq!(stats.data_delivered, stats.data_sent);
    assert!(stats.counter("agfw.trapdoor_sealed") >= stats.data_sent);
    assert_eq!(stats.counter("agfw.trapdoor_opened"), stats.data_delivered);
}

#[test]
fn authenticated_ant_still_routes() {
    // Ring-signed hellos (AANT): the network keeps functioning and every
    // hello is verified.
    let mut rng = StdRng::seed_from_u64(32);
    let (keys, dir) = KeyDirectory::generate(4, 256, &mut rng).unwrap();
    let positions: Vec<Point> = (0..4)
        .map(|i| Point::new(f64::from(i) * 180.0, 0.0))
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(30));
    sim.flows = vec![flow(0, 3, 5, 25)];
    let mut world = World::new(sim, move |id, cfg, _| {
        Agfw::with_keys(
            id,
            AgfwConfig::default(),
            cfg,
            std::sync::Arc::clone(&keys[id.0 as usize]),
            std::sync::Arc::clone(&dir),
            Some(AantConfig { ring_size: 3 }),
        )
    });
    let stats = world.run();
    assert_eq!(stats.data_delivered, stats.data_sent);
    assert!(stats.counter("aant.sign") > 0);
    assert!(stats.counter("aant.verify") >= stats.counter("aant.sign"));
    assert_eq!(stats.counter("aant.reject"), 0);
}

#[test]
fn piggybacked_acks_reduce_ack_traffic() {
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 200.0, 0.0))
        .collect();
    let mk = |piggyback: bool| {
        let mut sim = SimConfig::static_topology(positions.clone(), SimTime::from_secs(60));
        sim.flows = vec![flow(0, 4, 5, 55)];
        let config = AgfwConfig {
            piggyback_acks: piggyback,
            ..AgfwConfig::default()
        };
        let mut world = World::new(sim, move |id, cfg, rng| Agfw::new(id, config, cfg, rng));
        world.run()
    };
    let plain = mk(false);
    let piggy = mk(true);
    assert_eq!(piggy.data_delivered, piggy.data_sent);
    assert!(
        piggy.counter("agfw.nl_ack_sent") < plain.counter("agfw.nl_ack_sent"),
        "piggybacking should cut explicit ACK packets: {} vs {}",
        piggy.counter("agfw.nl_ack_sent"),
        plain.counter("agfw.nl_ack_sent")
    );
    assert!(piggy.counter("agfw.acks_piggybacked") > 0);
}

#[test]
fn trapdoor_attempts_are_confined_to_last_hop_region() {
    // Intermediate relays must never try the trapdoor: on a 4-hop chain
    // only the final hop's committed forwarder attempts.
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 200.0, 0.0))
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![flow(0, 4, 5, 55)];
    let mut world = World::new(sim, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let stats = world.run();
    // Exactly one attempt per delivered packet (the destination itself),
    // modulo retransmission duplicates.
    let attempts = stats.counter("agfw.trapdoor_attempt");
    assert!(
        attempts <= stats.data_sent * 2,
        "{attempts} attempts for {} packets: relays are wasting decryptions",
        stats.data_sent
    );
    assert!(attempts >= stats.data_delivered);
}

#[test]
fn greedy_agfw_drops_at_local_maximum() {
    // The same void topology that defeats greedy-only GPSR: node 1 is a
    // local maximum for destination 4, so AGFW drops there -- still with
    // pseudonyms, broadcasts and trapdoors only.
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(210.0, 150.0),
        Point::new(410.0, 150.0),
        Point::new(600.0, 0.0),
    ];
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(60));
    sim.flows = vec![flow(0, 4, 10, 50)];
    let mut world = World::new(sim, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let trace = record(&mut world);
    let stats = world.run();
    for frame in trace.borrow().frames() {
        assert!(frame.src_mac.is_none());
    }
    assert!(
        stats.delivery_fraction() < 0.1,
        "void should defeat greedy-only AGFW, got {}",
        stats.delivery_fraction()
    );
    assert!(stats.counter("agfw.drop.local_max") > 0);
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut config = SimConfig::default();
        config.duration = SimTime::from_secs(120);
        config.seed = 11;
        let config = config.with_cbr_traffic(10, 5, SimTime::from_secs(1), 64, &mut rng);
        let mut world = World::new(config, |id, cfg, rng| {
            Agfw::new(id, AgfwConfig::default(), cfg, rng)
        });
        world.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.data_sent, b.data_sent);
    assert_eq!(a.data_delivered, b.data_delivered);
    assert_eq!(a.mean_latency(), b.mean_latency());
    assert_eq!(
        a.counters().collect::<Vec<_>>(),
        b.counters().collect::<Vec<_>>()
    );
}

#[test]
fn hello_packets_expose_no_identity() {
    // Sanity at the packet level: hellos carry pseudonyms that differ
    // between consecutive beacons of the same node.
    let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
    let sim = SimConfig::static_topology(positions, SimTime::from_secs(10));
    let mut world = World::new(sim, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let trace = record(&mut world);
    let _ = world.run();
    let mut pseudonyms_node0 = Vec::new();
    for frame in trace.borrow().frames() {
        if frame.tx_node == NodeId(0) {
            if let Some(AgfwPacket::Hello { n, .. }) = frame.packet.as_deref() {
                pseudonyms_node0.push(*n);
            }
        }
    }
    assert!(pseudonyms_node0.len() >= 5);
    for pair in pseudonyms_node0.windows(2) {
        assert_ne!(pair[0], pair[1], "pseudonym must rotate every hello");
    }
}
