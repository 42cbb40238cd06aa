//! Semantics of the `World` driver itself: partial runs, frame
//! recording, timers, and the `Ctx` surface.

use agr_geom::Point;
use agr_sim::{
    Ctx, FlowConfig, FlowTag, MacAddr, NodeId, Protocol, RecordingObserver, SimConfig, SimTime,
    World,
};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Pkt(FlowTag);

struct Echo {
    timer_fires: u32,
}

impl Echo {
    fn new() -> Self {
        Echo { timer_fires: 0 }
    }
}

impl Protocol for Echo {
    type Packet = Pkt;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Pkt>) {
        ctx.set_timer(SimTime::from_secs(1), 7);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Pkt>, kind: u64) {
        assert_eq!(kind, 7);
        self.timer_fires += 1;
        ctx.set_timer(SimTime::from_secs(1), 7);
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _dest: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, _from: Option<MacAddr>) {
        ctx.deliver_data(pkt.0);
    }
}

fn two_node_config(duration_s: u64) -> SimConfig {
    let mut config = SimConfig::static_topology(
        vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        SimTime::from_secs(duration_s),
    );
    config.flows = vec![FlowConfig {
        src: NodeId(0),
        dst: NodeId(1),
        start: SimTime::from_secs(2),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_secs(duration_s - 1),
    }];
    config
}

#[test]
fn run_until_advances_time_incrementally() {
    let mut world = World::new(two_node_config(30), |_, _, _| Echo::new());
    world.run_until(SimTime::from_secs(5));
    assert_eq!(world.now(), SimTime::from_secs(5));
    let mid_sent = world.stats().data_sent;
    assert!(
        mid_sent >= 3,
        "flows start at 2 s; by 5 s >= 3 packets, got {mid_sent}"
    );
    world.run_until(SimTime::from_secs(10));
    assert!(world.stats().data_sent > mid_sent);
    // Running backwards in time is a no-op, not a panic.
    world.run_until(SimTime::from_secs(1));
    assert_eq!(world.now(), SimTime::from_secs(10));
}

#[test]
fn timers_fire_once_per_schedule() {
    let mut world = World::new(two_node_config(30), |_, _, _| Echo::new());
    world.run_until(SimTime::from_secs(10));
    for id in [0u32, 1] {
        let fires = world.protocol(NodeId(id)).timer_fires;
        assert_eq!(
            fires, 10,
            "node {id}: 1 Hz timer over 10 s fired {fires} times"
        );
    }
}

/// Frames are kept only by an attached [`RecordingObserver`].
#[test]
fn frames_empty_unless_recording() {
    let mut world = World::new(two_node_config(10), |_, _, _| Echo::new());
    let recorder = Rc::new(RefCell::new(RecordingObserver::new()));
    world.attach_observer(Box::new(Rc::clone(&recorder)));
    let _ = world.run();
    let recorder = recorder.borrow();
    assert!(!recorder.frames().is_empty());
    // Every record carries a plausible ground-truth position.
    let area = agr_geom::Rect::with_size(1500.0, 300.0);
    for frame in recorder.frames() {
        assert!(area.contains(frame.tx_pos));
    }
}

#[test]
fn position_of_is_stable_for_static_topologies() {
    let mut world = World::new(two_node_config(10), |_, _, _| Echo::new());
    let before = world.position_of(NodeId(1));
    world.run_until(SimTime::from_secs(8));
    let after = world.position_of(NodeId(1));
    assert!(
        before.distance(after) < 2.0,
        "static node drifted {}",
        before.distance(after)
    );
}

#[test]
#[should_panic(expected = "at least one node")]
fn empty_static_topology_rejected() {
    let _ = SimConfig::static_topology(vec![], SimTime::from_secs(1));
}

#[test]
#[should_panic(expected = "initial_positions length")]
fn mismatched_positions_rejected() {
    let mut config = SimConfig::default();
    config.num_nodes = 5;
    config.initial_positions = Some(vec![Point::ORIGIN]);
    let _ = World::new(config, |_, _, _| Echo::new());
}

/// What a node saw, in callback order across the whole world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Sent(u32),
    Received(u32),
    Timer(u32),
}

/// Broadcasts each application packet and logs every callback into a
/// log shared by all nodes; a node listed in `timer_on_receive` sets a
/// zero-delay timer when it receives.
struct Logger {
    log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, Seen)>>>,
    timer_on_receive: bool,
}

impl Protocol for Logger {
    type Packet = Pkt;

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Pkt>, _kind: u64) {
        let seen = Seen::Timer(ctx.my_id().0);
        self.log.borrow_mut().push((ctx.now(), seen));
    }

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _dest: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, _pkt: &Pkt, _from: Option<MacAddr>) {
        let seen = Seen::Received(ctx.my_id().0);
        self.log.borrow_mut().push((ctx.now(), seen));
        if self.timer_on_receive {
            ctx.set_timer(SimTime::ZERO, 0);
        }
    }

    fn on_mac_result(&mut self, ctx: &mut Ctx<'_, Pkt>, _outcome: agr_sim::MacOutcome<Pkt>) {
        let seen = Seen::Sent(ctx.my_id().0);
        self.log.borrow_mut().push((ctx.now(), seen));
    }
}

/// Node 0 broadcasts one frame at 0.5 s. Node 1 is 400 m away: inside
/// carrier-sense range (550 m), outside decode range (250 m). Nodes 2
/// and 3 decode it, and node 3 holds the frame's last carrier.
fn one_broadcast(timer_node: Option<u32>) -> World<Logger> {
    let xs = [200.0, 600.0, 100.0, 300.0];
    let mut config = SimConfig::static_topology(
        xs.iter().map(|&x| Point::new(x, 0.0)).collect(),
        SimTime::from_secs(1),
    );
    config.flows = vec![FlowConfig {
        src: NodeId(0),
        dst: NodeId(3),
        start: SimTime::from_millis(500),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_millis(600),
    }];
    let log = std::rc::Rc::default();
    World::new(config, move |id, _, _| Logger {
        log: std::rc::Rc::clone(&log),
        timer_on_receive: Some(id.0) == timer_node,
    })
}

fn log_of(world: &World<Logger>) -> Vec<(SimTime, Seen)> {
    world.protocol(NodeId(0)).log.borrow().clone()
}

#[test]
fn a_frames_tx_end_resolves_every_carrier_in_receiver_order() {
    let mut world = one_broadcast(None);
    let _ = world.run();
    let log = log_of(&world);
    let end = log.first().expect("the broadcast completed").0;
    assert_eq!(
        log,
        vec![
            (end, Seen::Sent(0)),
            (end, Seen::Received(2)),
            (end, Seen::Received(3)),
        ],
        "the transmitter's MacResult, then receivers in ascending order"
    );

    // Everything at the frame's end instant: its TxEnd plus one carrier
    // end per node in carrier-sense range (1, 2 and 3).
    let mut world = one_broadcast(None);
    world.run_until(end - SimTime::from_nanos(1));
    let before = world.stats().events_processed;
    world.run_until(end);
    assert_eq!(world.stats().events_processed - before, 1 + 3);
}

#[test]
fn a_zero_delay_timer_set_by_a_receiver_fires_after_every_carrier_end() {
    // Node 2 holds the frame's first decodable carrier and node 3 its last.
    let mut world = one_broadcast(Some(2));
    let _ = world.run();
    let log = log_of(&world);
    let end = log.first().expect("the broadcast completed").0;
    assert_eq!(
        log,
        vec![
            (end, Seen::Sent(0)),
            (end, Seen::Received(2)),
            (end, Seen::Received(3)),
            (end, Seen::Timer(2)),
        ]
    );
}

/// Logs every reception as `(node, payload address)`, and the address of
/// the payload the transmitter's MAC hands back with `Sent`.
struct AddrLogger {
    log: std::rc::Rc<std::cell::RefCell<Vec<(u32, *const Pkt)>>>,
}

impl Protocol for AddrLogger {
    type Packet = Pkt;

    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Pkt>, _dest: NodeId, tag: FlowTag) {
        ctx.mac_broadcast(Pkt(tag), 64);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_, Pkt>, pkt: &Pkt, _from: Option<MacAddr>) {
        self.log.borrow_mut().push((ctx.my_id().0, pkt));
    }

    fn on_mac_result(&mut self, ctx: &mut Ctx<'_, Pkt>, outcome: agr_sim::MacOutcome<Pkt>) {
        if let agr_sim::MacOutcome::Sent { packet, .. } = outcome {
            let sent = std::sync::Arc::as_ptr(&packet);
            self.log.borrow_mut().push((ctx.my_id().0, sent));
        }
    }
}

#[test]
fn a_broadcast_heard_by_k_decoders_reaches_k_protocols_through_one_payload() {
    // Node 0 at 500 m broadcasts once. Nodes 1, 3, 5 and 6 are within the
    // 250 m decode range; node 2 only senses the carrier and node 4 is
    // beyond carrier sense. Node ids are not in distance order.
    let xs = [500.0, 700.0, 1000.0, 300.0, 1400.0, 520.0, 260.0];
    let mut config = SimConfig::static_topology(
        xs.iter().map(|&x| Point::new(x, 0.0)).collect(),
        SimTime::from_secs(1),
    );
    config.flows = vec![FlowConfig {
        src: NodeId(0),
        dst: NodeId(1),
        start: SimTime::from_millis(500),
        interval: SimTime::from_secs(1),
        payload_bytes: 64,
        stop: SimTime::from_millis(600),
    }];
    let log = std::rc::Rc::default();
    let mut world = World::new(config, |_, _, _| AddrLogger {
        log: std::rc::Rc::clone(&log),
    });
    let _ = world.run();
    let log = log.borrow();
    let nodes: Vec<u32> = log.iter().map(|&(node, _)| node).collect();
    assert_eq!(
        nodes,
        vec![0, 1, 3, 5, 6],
        "the transmitter's Sent, then one on_receive per decoder, ascending"
    );
    let sent = log[0].1;
    for &(node, payload) in &log[1..] {
        assert!(
            std::ptr::eq(payload, sent),
            "node {node} received a copy, not the transmitted payload"
        );
    }
}
