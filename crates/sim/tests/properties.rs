//! Property-based tests: simulator invariants over randomised scenarios.

use agr_geom::Point;
use agr_sim::{Ctx, FlowConfig, FlowTag, MacAddr, NodeId, Protocol, SimConfig, SimTime, World};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Pkt(FlowTag);

/// One-hop broadcast protocol used as a neutral workload.
struct Bcast;
impl Protocol for Bcast {
    type Packet = Pkt;
    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _d: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, from: Option<MacAddr>) {
        assert!(from.is_none());
        ctx.deliver_data(pkt.0);
    }
}

/// One-hop unicast protocol.
struct Ucast;
impl Protocol for Ucast {
    type Packet = Pkt;
    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, d: NodeId, tag: FlowTag) {
        ctx.mac_unicast(MacAddr::from(d), Pkt(tag), 64);
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, from: Option<MacAddr>) {
        assert!(from.is_some());
        ctx.deliver_data(pkt.0);
    }
}

fn arb_positions() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..1500.0f64, 0.0..300.0f64), 2..12)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn arb_flows(n_nodes: usize) -> impl Strategy<Value = Vec<FlowConfig>> {
    proptest::collection::vec((0..n_nodes as u32, 0..n_nodes as u32, 100u64..1000), 1..4).prop_map(
        |specs| {
            specs
                .into_iter()
                .filter(|(s, d, _)| s != d)
                .map(|(s, d, interval_ms)| FlowConfig {
                    src: NodeId(s),
                    dst: NodeId(d),
                    start: SimTime::from_secs(1),
                    interval: SimTime::from_millis(interval_ms),
                    payload_bytes: 64,
                    stop: SimTime::from_secs(25),
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delivered_never_exceeds_sent(positions in arb_positions(), seed in any::<u64>()) {
        let n = positions.len();
        let mut config = SimConfig::static_topology(positions, SimTime::from_secs(30));
        config.seed = seed;
        config.flows = vec![FlowConfig {
            src: NodeId(0),
            dst: NodeId((n - 1) as u32),
            start: SimTime::from_secs(1),
            interval: SimTime::from_millis(250),
            payload_bytes: 64,
            stop: SimTime::from_secs(25),
        }];
        let mut world = World::new(config, |_, _, _| Bcast);
        let stats = world.run();
        prop_assert!(stats.data_delivered <= stats.data_sent);
        prop_assert!(stats.delivery_fraction() <= 1.0);
    }

    #[test]
    fn latencies_are_positive_and_bounded(positions in arb_positions(), seed in any::<u64>()) {
        let n = positions.len();
        let mut config = SimConfig::static_topology(positions, SimTime::from_secs(30));
        config.seed = seed;
        config.flows = vec![FlowConfig {
            src: NodeId(0),
            dst: NodeId((n - 1) as u32),
            start: SimTime::from_secs(1),
            interval: SimTime::from_millis(500),
            payload_bytes: 64,
            stop: SimTime::from_secs(25),
        }];
        let mut world = World::new(config, |_, _, _| Ucast);
        let stats = world.run();
        for &lat in stats.latencies() {
            prop_assert!(lat > SimTime::ZERO, "zero latency is impossible (airtime > 0)");
            prop_assert!(lat < SimTime::from_secs(30));
        }
    }

    #[test]
    fn runs_are_reproducible(positions in arb_positions(),
                             flows_seed in any::<u64>(),
                             world_seed in any::<u64>()) {
        let n = positions.len();
        let flows = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(flows_seed);
            let d = rng.random_range(1..n) as u32;
            vec![FlowConfig {
                src: NodeId(0),
                dst: NodeId(d),
                start: SimTime::from_secs(1),
                interval: SimTime::from_millis(300),
                payload_bytes: 64,
                stop: SimTime::from_secs(20),
            }]
        };
        let run = || {
            let mut config = SimConfig::static_topology(positions.clone(), SimTime::from_secs(25));
            config.seed = world_seed;
            config.flows = flows.clone();
            let mut world = World::new(config, |_, _, _| Bcast);
            world.run()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.data_sent, b.data_sent);
        prop_assert_eq!(a.data_delivered, b.data_delivered);
        prop_assert_eq!(a.mean_latency(), b.mean_latency());
        prop_assert_eq!(a.counters().collect::<Vec<_>>(), b.counters().collect::<Vec<_>>());
    }

    #[test]
    fn adjacent_pair_unicast_is_lossless(x in 10.0..240.0f64, seed in any::<u64>()) {
        // Whatever the in-range spacing, two isolated nodes never lose
        // unicast traffic (MAC retries recover everything).
        let mut config = SimConfig::static_topology(
            vec![Point::new(0.0, 0.0), Point::new(x, 0.0)],
            SimTime::from_secs(20),
        );
        config.seed = seed;
        config.flows = vec![FlowConfig {
            src: NodeId(0),
            dst: NodeId(1),
            start: SimTime::from_secs(1),
            interval: SimTime::from_millis(200),
            payload_bytes: 64,
            stop: SimTime::from_secs(15),
        }];
        let mut world = World::new(config, |_, _, _| Ucast);
        let stats = world.run();
        prop_assert_eq!(stats.data_delivered, stats.data_sent);
    }

    #[test]
    fn random_mobile_flows_do_not_panic(seed in any::<u64>(), flows in arb_flows(10)) {
        prop_assume!(!flows.is_empty());
        let mut config = SimConfig::default();
        config.num_nodes = 10;
        config.duration = SimTime::from_secs(30);
        config.seed = seed;
        config.flows = flows;
        let mut world = World::new(config, |_, _, _| Bcast);
        let stats = world.run();
        prop_assert!(stats.data_sent > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A streaming [`RecordingObserver`] attached via `attach_observer`
    /// reproduces the legacy `world.frames()` trace exactly: same order,
    /// same fields, and the *same shared packet handles* (no copies made
    /// anywhere on the recording path).
    #[test]
    fn attached_observer_matches_recorded_trace(seed in any::<u64>(), flows in arb_flows(8)) {
        prop_assume!(!flows.is_empty());
        use agr_sim::RecordingObserver;
        use std::cell::RefCell;
        use std::rc::Rc;
        use std::sync::Arc;
        let mut config = SimConfig::default();
        config.num_nodes = 8;
        config.duration = SimTime::from_secs(15);
        config.seed = seed;
        config.flows = flows;
        config.record_frames = true;
        let mut world = World::new(config, |_, _, _| Ucast);
        let stream: Rc<RefCell<RecordingObserver<Pkt>>> =
            Rc::new(RefCell::new(RecordingObserver::new()));
        world.attach_observer(Box::new(Rc::clone(&stream)));
        let _ = world.run();
        let recorded = world.frames();
        let streamed = stream.borrow();
        let streamed = streamed.frames();
        prop_assert_eq!(recorded.len(), streamed.len());
        prop_assert!(!recorded.is_empty(), "unicast traffic must put frames on the air");
        for (r, s) in recorded.iter().zip(streamed) {
            prop_assert_eq!(r.time, s.time);
            prop_assert_eq!(r.tx_node, s.tx_node);
            prop_assert_eq!(r.tx_pos, s.tx_pos);
            prop_assert_eq!(r.src_mac, s.src_mac);
            prop_assert_eq!(r.dst_mac, s.dst_mac);
            prop_assert_eq!(r.frame_type, s.frame_type);
            match (&r.packet, &s.packet) {
                (Some(a), Some(b)) => prop_assert!(
                    Arc::ptr_eq(a, b),
                    "recorder and observer must share one payload allocation"
                ),
                (None, None) => {}
                _ => prop_assert!(false, "packet presence mismatch"),
            }
        }
    }
}
