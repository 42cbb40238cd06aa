//! Repository-level integration tests: the full stack — crypto, ALS,
//! routing, simulation, adversary — exercised together through the `agr`
//! facade.

use agr::core::aant::AantConfig;
use agr::core::agfw::MAX_RETRANSMITS;
use agr::core::agfw::{Agfw, AgfwConfig, CryptoMode};
use agr::core::als::{self, AlsServer};
use agr::core::dlm::ServerSelection;
use agr::core::keys::KeyDirectory;
use agr::geom::{Point, Rect};
use agr::gpsr::{Gpsr, GpsrConfig};
use agr::privacy::disclosure::Discloses;
use agr::privacy::exposure::Eavesdropper;
use agr::privacy::tracker::{link_tracks, mean_tracking_accuracy, LinkingParams};
use agr::sim::{Protocol, SimConfig, SimTime, World};
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Runs `world` with a global passive eavesdropper attached.
fn eavesdrop<P: Protocol>(mut world: World<P>) -> Eavesdropper
where
    P::Packet: Discloses,
{
    let eavesdropper = Rc::new(RefCell::new(Eavesdropper::new()));
    world.attach_observer(Box::new(Rc::clone(&eavesdropper)));
    let _ = world.run();
    eavesdropper.take()
}

fn scenario(seed: u64, secs: u64) -> SimConfig {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut config = SimConfig::default();
    config.duration = SimTime::from_secs(secs);
    config.seed = seed;
    config.with_cbr_traffic(15, 10, SimTime::from_secs(1), 64, &mut rng)
}

#[test]
fn agfw_matches_gpsr_delivery_within_tolerance() {
    // The paper's headline claim (Figure 1a): AGFW with ACKs has "almost
    // same performance as the original GPSR-Greedy".
    let mut gpsr = World::new(scenario(11, 180), |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    });
    let g = gpsr.run();
    let mut agfw = World::new(scenario(11, 180), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let a = agfw.run();
    assert!(
        g.delivery_fraction() > 0.9,
        "GPSR {:.3}",
        g.delivery_fraction()
    );
    assert!(
        a.delivery_fraction() > g.delivery_fraction() - 0.08,
        "AGFW {:.3} too far below GPSR {:.3}",
        a.delivery_fraction(),
        g.delivery_fraction()
    );
}

#[test]
fn nl_ack_ablation_under_ten_percent_loss() {
    // The reliability half of the paper's §3.2: anonymous broadcasts
    // forgo the 802.11 ACK, so on a lossy channel delivery collapses —
    // unless network-layer ACKs + retransmission rebuild it. Same
    // scenario, 10% per-link uniform loss, ACKs on vs off.
    let lossy = |seed| {
        let mut config = scenario(seed, 180);
        config.fault = agr::sim::FaultPlan::uniform_loss(0.10);
        config
    };
    let mut with_ack = World::new(lossy(13), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    });
    let acked = with_ack.run();
    let mut without_ack = World::new(lossy(13), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::without_ack(), cfg, rng)
    });
    let unacked = without_ack.run();
    assert!(
        acked.delivery_fraction() >= 0.9,
        "ACKed delivery {:.3} under 10% loss",
        acked.delivery_fraction()
    );
    assert!(
        acked.delivery_fraction() >= unacked.delivery_fraction() + 0.15,
        "ACK ablation margin too small: {:.3} vs {:.3}",
        acked.delivery_fraction(),
        unacked.delivery_fraction()
    );
    // The recovery really is the ACK path, not luck.
    assert!(acked.counter("agfw.ack_recovered") > 0);
    assert!(acked.counter("agfw.retransmit") > 0);
    assert_eq!(unacked.counter("agfw.retransmit"), 0);
    // MAX_RETRANSMITS is respected: every broadcast is an original or
    // one of at most `MAX_RETRANSMITS` retries of an original.
    let retx = acked.counter("agfw.retransmit");
    let originals = acked.counter("agfw.data_broadcast") - retx;
    let cap = u64::from(MAX_RETRANSMITS);
    assert!(
        retx <= cap * originals,
        "unbounded retry: {retx} retransmits of {originals} originals (cap {cap})"
    );
}

#[test]
fn anonymity_is_structural_not_statistical() {
    // Identical scenario, both protocols, one eavesdropper: GPSR leaks
    // identity-location doublets with every frame, AGFW leaks none.
    let config = scenario(5, 90);
    let g = eavesdrop(World::new(config.clone(), |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    }))
    .report();
    assert!(g.identity_location_doublets > 1000);
    assert!(g.identities_exposed >= 40);

    let a = eavesdrop(World::new(config, |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    }))
    .report();
    assert_eq!(a.identity_location_doublets, 0);
    assert_eq!(a.mac_source_disclosures, 0);
    assert!(a.pseudonym_sightings > 1000);
}

#[test]
fn tracking_attack_degrades_under_pseudonyms() {
    // The residual risk quantified: spatio-temporal linking of AGFW
    // hellos reconstructs only part of a trajectory in a 50-node network.
    let heard = eavesdrop(World::new(scenario(6, 120), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    }));
    let sightings = heard.sightings();
    assert!(sightings.len() > 1000);
    let tracks = link_tracks(sightings, &LinkingParams::default());
    let acc = mean_tracking_accuracy(&tracks);
    assert!(
        acc < 0.95,
        "tracking accuracy {acc:.2} suspiciously perfect — pseudonym churn should fragment tracks"
    );
    assert!(acc > 0.05, "tracking accuracy {acc:.2} implausibly low");
}

#[test]
fn full_crypto_stack_end_to_end() {
    // Real CA, real certificates, real ring signatures, real RSA
    // trapdoors, on the real simulator.
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let (keys, dir) = KeyDirectory::generate(5, 512, &mut rng).unwrap();
    dir.verify_all().unwrap();
    let positions: Vec<Point> = (0..5)
        .map(|i| Point::new(f64::from(i) * 180.0, 0.0))
        .collect();
    let mut sim = SimConfig::static_topology(positions, SimTime::from_secs(25));
    sim.flows = vec![agr::sim::FlowConfig {
        src: agr::sim::NodeId(0),
        dst: agr::sim::NodeId(4),
        start: SimTime::from_secs(5),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_secs(20),
    }];
    let config = AgfwConfig {
        crypto: CryptoMode::paper_real(),
        ..AgfwConfig::default()
    };
    let mut world = World::new(sim, move |id, cfg, _| {
        Agfw::with_keys(
            id,
            config,
            cfg,
            Arc::clone(&keys[id.0 as usize]),
            Arc::clone(&dir),
            Some(AantConfig { ring_size: 3 }),
        )
    });
    let stats = world.run();
    assert_eq!(stats.data_delivered, stats.data_sent);
    assert_eq!(stats.counter("aant.reject"), 0);
    assert!(stats.counter("aant.verify") > 0);
}

#[test]
fn als_keys_from_the_shared_directory() {
    // ALS using the same PKI the routing layer uses: A seals for B using
    // B's *certified* key from the directory.
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let (keys, dir) = KeyDirectory::generate(3, 512, &mut rng).unwrap();
    let ssa = ServerSelection::new(Rect::with_size(1500.0, 300.0), 250.0);
    let b_pub = dir.public_key(1).unwrap();
    let update = als::make_update(
        0,
        Point::new(100.0, 100.0),
        SimTime::from_secs(5),
        1,
        b_pub,
        &ssa,
        &mut rng,
    )
    .unwrap();
    let mut server = AlsServer::new();
    server.handle_update(update);
    let request = als::make_request(1, b_pub, 0, Point::new(1.0, 1.0), &ssa).unwrap();
    let reply = server.handle_request(&request).unwrap();
    let record = als::open_record(&reply.payloads[0], &keys[1]).unwrap();
    assert_eq!(record.updater, 0);
    // The other node's key opens nothing.
    assert!(als::open_record(&reply.payloads[0], &keys[2]).is_none());
}

#[test]
fn facade_reexports_are_usable() {
    // Spot-check each facade module with a one-liner.
    let p = agr::geom::Point::new(3.0, 4.0);
    assert_eq!(p.distance(agr::geom::Point::ORIGIN), 5.0);
    let d = agr::crypto::Sha256::digest(b"abc");
    assert_eq!(d[0], 0xba);
    assert_eq!(agr::sim::SimTime::from_secs(1).as_nanos(), 1_000_000_000);
    assert_eq!(agr::core::Pseudonym::LAST_ATTEMPT.0, [0u8; 6]);
    assert_eq!(agr::privacy::anonymity_entropy(4), 2.0);
    assert!(!agr::gpsr::GpsrConfig::default().perimeter);
}
