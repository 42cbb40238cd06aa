//! A discrete-event mobile ad hoc network simulator.
//!
//! This crate replaces the paper's NS-2 + CMU wireless extensions: it
//! provides everything below the routing layer needed to evaluate
//! geographic routing protocols —
//!
//! * a deterministic discrete-event engine ([`engine`], [`SimTime`]),
//! * a unit-disk radio with carrier sensing, collisions, and hidden
//!   terminals (`phy`),
//! * an IEEE 802.11 DCF MAC: CSMA/CA, binary exponential backoff, NAV
//!   virtual carrier sensing, RTS/CTS/DATA/ACK for unicast and plain
//!   CSMA/CA for broadcast (`mac`),
//! * random-waypoint mobility ([`mobility`]),
//! * CBR traffic generation ([`config::FlowConfig`]), and
//! * metrics collection (`stats`): packet delivery fraction and
//!   end-to-end latency, the two metrics of the paper's §5.
//!
//! Routing protocols implement the [`Protocol`] trait and are driven by a
//! [`World`]. The same simulator hosts the GPSR baseline (`agr-gpsr`) and
//! the anonymous protocol (`agr-core`), so measured differences come from
//! the protocols, not the substrate.
//!
//! # Examples
//!
//! A protocol that floods application packets to every neighbor once:
//!
//! ```
//! use agr_sim::{Ctx, FlowTag, MacAddr, NodeId, Protocol, SimConfig, SimTime, World};
//!
//! #[derive(Clone, Debug)]
//! struct Flood(FlowTag);
//!
//! struct Flooder;
//! impl Protocol for Flooder {
//!     type Packet = Flood;
//!     fn on_app_send(&mut self, ctx: &mut Ctx<'_, Flood>, _dest: NodeId, tag: FlowTag) {
//!         ctx.mac_broadcast(Flood(tag), 64);
//!     }
//!     fn on_receive(&mut self, ctx: &mut Ctx<'_, Flood>, pkt: &Flood, _from: Option<MacAddr>) {
//!         ctx.deliver_data(pkt.0);
//!     }
//! }
//!
//! let mut config = SimConfig::default();
//! config.num_nodes = 10;
//! config.duration = SimTime::from_secs(30);
//! config.flows = vec![agr_sim::FlowConfig {
//!     src: NodeId(0),
//!     dst: NodeId(1),
//!     start: SimTime::from_secs(1),
//!     interval: SimTime::from_secs(1),
//!     payload_bytes: 64,
//!     stop: SimTime::from_secs(20),
//! }];
//! let mut world = World::new(config, |_, _, _| Flooder);
//! let stats = world.run();
//! assert!(stats.data_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod config;
pub mod engine;
mod fault;
mod hash;
mod mac;
pub mod mobility;
mod obs;
pub mod par;
mod phy;
mod protocol;
pub mod spatial;
mod stats;
mod time;
mod world;

pub use adversary::{AdversaryMix, AdversaryPlan, AdversaryRole};
pub use config::{FlowConfig, MacParams, MobilityParams, SimConfig};
pub use fault::{ChurnEvent, FaultPlan, GilbertElliott, LinkChannel, LossModel};
pub use hash::{FixedHasher, FixedMap, FixedSet};
pub use obs::TelemetryObserver;
pub use protocol::{FlowTag, MacDst, MacOutcome, Protocol};
pub use stats::Stats;
pub use time::SimTime;
pub use world::{Ctx, FrameObserver, FrameRecord, FrameType, RecordingObserver, World};

/// Identifier of a simulated node.
///
/// Node ids double as the *true identity* in the privacy analysis: the
/// thing GPSR exposes next to a location and AGFW hides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A link-layer address.
///
/// In this simulator a node's MAC address is derived from its [`NodeId`];
/// what matters for the privacy analysis is whether a protocol *uses* it:
/// AGFW sends all frames as source-less broadcasts precisely so that no
/// MAC address can be linked to a location (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub u32);

impl From<NodeId> for MacAddr {
    fn from(n: NodeId) -> Self {
        MacAddr(n.0)
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mac{}", self.0)
    }
}
