//! Route equivalence: AGFW and GPSR make every forwarding decision in one
//! kernel (`agr_geom::planar::greedy_next`), so on the same static
//! topology, carrying the same packets, they must forward each packet
//! through the same nodes.
//!
//! Each world is a seeded random static topology. AGFW-ACK runs without
//! pseudonym rotation (one ANT entry per neighbor) and with
//! `fresh_window = ant_timeout`, so "fresh" means "live" and both
//! selection strategies see exactly the neighbors GPSR-Greedy's table
//! holds. A frame observer recovers each packet's forwarder sequence
//! from the data frames on the air.
//!
//! Packets re-routed after a loss are counted but not compared: some
//! transmission left the packet's walk, i.e. a node sent it to a second
//! next hop (after MAC failure in GPSR, after NL-ACK silence in AGFW), so
//! the routes reflect each protocol's loss handling rather than the
//! kernel. Both protocols are greedy-only, so a packet that one delivers
//! and the other does not would be a kernel disagreement: the test
//! asserts there are none.

use agr_core::agfw::{Agfw, AgfwConfig};
use agr_core::{AgfwPacket, Pseudonym};
use agr_geom::Point;
use agr_gpsr::{Gpsr, GpsrConfig, GpsrPacket};
use agr_sim::{
    FlowConfig, FrameObserver, FrameRecord, NodeId, Protocol, SimConfig, SimTime, World,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// One data frame of a packet: the transmitter and the next hop it named
/// (`None` for AGFW's last forwarding attempt).
type Hop = (NodeId, Option<NodeId>);

/// Every data frame on the air, grouped by packet (= flow index: each
/// flow carries one packet, to its own destination).
#[derive(Default)]
struct Trace {
    hops: BTreeMap<usize, Vec<Hop>>,
    /// GPSR headers name the destination, not the flow: which packet goes
    /// where.
    packet_to: HashMap<NodeId, usize>,
    /// AGFW names next hops by pseudonym: whose each one is, from hellos.
    owners: HashMap<Pseudonym, NodeId>,
}

impl FrameObserver<GpsrPacket> for Trace {
    fn on_frame(&mut self, frame: &FrameRecord<GpsrPacket>) {
        if let Some(GpsrPacket::Data(header)) = frame.packet.as_deref() {
            let packet = self.packet_to[&header.dst];
            let next = frame.dst_mac.map(|mac| NodeId(mac.0));
            self.hops
                .entry(packet)
                .or_default()
                .push((frame.tx_node, next));
        }
    }
}

impl FrameObserver<AgfwPacket> for Trace {
    fn on_frame(&mut self, frame: &FrameRecord<AgfwPacket>) {
        match frame.packet.as_deref() {
            Some(AgfwPacket::Hello { n, .. }) => {
                self.owners.insert(*n, frame.tx_node);
            }
            Some(AgfwPacket::Data(data)) => {
                let packet = data.tag.flow as usize;
                let next = self.owners.get(&data.next).copied();
                self.hops
                    .entry(packet)
                    .or_default()
                    .push((frame.tx_node, next));
            }
            _ => {}
        }
    }
}

/// A packet's forwarders, source first, following each holder's first
/// transmission, and whether that walk reached `dst`. `None` if some
/// transmission left the walk: a node re-routed the packet.
fn walk(src: NodeId, dst: NodeId, hops: &[Hop]) -> Option<(Vec<NodeId>, bool)> {
    let mut route = Vec::new();
    let mut links = BTreeSet::new();
    let mut holder = Some(src);
    for &(tx, next) in hops {
        if Some(tx) == holder {
            route.push(tx);
            links.insert((tx, next));
            holder = next;
        }
    }
    hops.iter()
        .all(|hop| links.contains(hop))
        .then_some((route, holder == Some(dst)))
}

/// `nodes` uniform positions in the paper's 1500 m × 300 m area, and one
/// packet every 0.5 s from 10 s on, each to a distinct destination.
fn world(seed: u64, nodes: usize, packets: usize) -> SimConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions = (0..nodes)
        .map(|_| Point::new(rng.random_range(0.0..1500.0), rng.random_range(0.0..300.0)))
        .collect();
    let mut config = SimConfig::static_topology(positions, SimTime::from_secs(30));
    config.seed = seed;
    let mut ids: Vec<u32> = (0..nodes as u32).collect();
    for i in 0..packets {
        let j = rng.random_range(i..nodes);
        ids.swap(i, j);
    }
    config.flows = (0..packets)
        .map(|i| {
            let dst = ids[i];
            let src = loop {
                let s = rng.random_range(0..nodes as u32);
                if s != dst {
                    break s;
                }
            };
            let start = SimTime::from_millis(10_000 + 500 * i as u64);
            FlowConfig {
                src: NodeId(src),
                dst: NodeId(dst),
                start,
                interval: SimTime::from_secs(1),
                payload_bytes: 64,
                stop: start + SimTime::from_millis(1),
            }
        })
        .collect();
    config
}

fn run<P: Protocol>(
    config: &SimConfig,
    node: impl FnMut(NodeId, &SimConfig, &mut StdRng) -> P,
) -> Trace
where
    Trace: FrameObserver<P::Packet>,
{
    let trace = Rc::new(RefCell::new(Trace {
        packet_to: (config.flows.iter().enumerate())
            .map(|(i, flow)| (flow.dst, i))
            .collect(),
        ..Trace::default()
    }));
    let mut world = World::new(config.clone(), node);
    world.attach_observer(Box::new(Rc::clone(&trace)));
    let _ = world.run();
    trace.take()
}

#[test]
fn agfw_and_gpsr_forward_along_the_same_nodes() {
    let defaults = AgfwConfig::default();
    let agfw_config = AgfwConfig {
        fresh_window: defaults.ant_timeout,
        rotate_every: u32::MAX,
        ..defaults
    };
    // (seed, nodes): sparse worlds, where greedy forwarding meets voids,
    // and two denser ones.
    for (seed, nodes) in [
        (3, 25),
        (43, 25),
        (58, 25),
        (1005, 30),
        (1040, 30),
        (2022, 35),
        (2044, 35),
        (2057, 35),
        (7, 50),
        (8, 75),
    ] {
        let config = world(seed, nodes, 20);
        let gpsr = run(&config, |_, _, rng| {
            Gpsr::new(GpsrConfig::greedy_only(), rng)
        });
        let agfw = run(&config, |id, cfg, rng| Agfw::new(id, agfw_config, cfg, rng));
        let (mut compared, mut rerouted, mut one_sided) = (0, 0, 0);
        for (packet, flow) in config.flows.iter().enumerate() {
            let hops = |trace: &Trace| trace.hops.get(&packet).cloned().unwrap_or_default();
            let routes = (
                walk(flow.src, flow.dst, &hops(&gpsr)),
                walk(flow.src, flow.dst, &hops(&agfw)),
            );
            let (Some((gpsr_route, gpsr_reached)), Some((agfw_route, agfw_reached))) = routes
            else {
                rerouted += 1;
                continue;
            };
            match (gpsr_reached, agfw_reached) {
                (true, true) => {
                    assert_eq!(
                        agfw_route, gpsr_route,
                        "world {seed} ({nodes} nodes), packet {packet}: AGFW and GPSR routes differ"
                    );
                    compared += 1;
                }
                (false, false) => {}
                _ => one_sided += 1,
            }
        }
        println!(
            "world {seed} ({nodes} nodes): compared {compared}, re-routed {rerouted}, \
             delivered by one side {one_sided}"
        );
        assert!(compared > 0, "world {seed}: no packet compared");
        assert_eq!(
            one_sided, 0,
            "world {seed}: a packet only one side delivered"
        );
    }
}
