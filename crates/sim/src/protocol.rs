//! The interface between routing protocols and the simulator.
//!
//! A routing protocol is a per-node state machine implementing
//! [`Protocol`]; all interaction with the world goes through the [`Ctx`]
//! handle (send frames, set timers, read the clock and own position,
//! record deliveries). The same node code therefore runs unchanged under
//! unit tests (drive the trait directly) and full simulations.

pub(crate) use crate::world::Ctx;

use crate::time::SimTime;
use crate::{MacAddr, NodeId};
use std::sync::Arc;

/// Identifies one application packet end-to-end for statistics.
///
/// The world stamps a tag on each originated packet; protocols must carry
/// it inside their data packets and hand it back via
/// [`Ctx::deliver_data`] at the destination so delivery fraction and
/// latency can be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTag {
    /// Flow index.
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u32,
    /// Originating node.
    pub src: NodeId,
    /// Origination time.
    pub sent_at: SimTime,
}

/// Link-layer destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacDst {
    /// Local broadcast: no RTS/CTS, no MAC-level ACK or retransmission,
    /// and — crucially for AGFW — no source MAC address on the frame.
    Broadcast,
    /// Unicast to a specific MAC address, with the full RTS/CTS/DATA/ACK
    /// exchange and MAC retransmissions.
    Unicast(MacAddr),
}

/// Result of a MAC transmission attempt, reported back to the protocol.
///
/// The packet comes back as the shared [`Arc`] handle the MAC held; a
/// protocol that needs to re-route it clones the payload out (the rare
/// path), while the common read-only inspection costs nothing.
#[derive(Debug, Clone)]
pub enum MacOutcome<PKT> {
    /// The frame was transmitted (and, for unicast, acknowledged).
    Sent {
        /// Where the frame went.
        dst: MacDst,
        /// The packet, returned to the protocol.
        packet: Arc<PKT>,
    },
    /// A unicast frame exhausted its retry limit without an ACK —
    /// the neighbor is gone or unreachable. GPSR uses this to evict the
    /// neighbor and re-route the packet.
    Failed {
        /// The unreachable destination.
        dst: MacDst,
        /// The unsent packet, returned for re-routing.
        packet: Arc<PKT>,
    },
}

/// A per-node routing protocol.
///
/// All methods receive a [`Ctx`] scoped to the node. Default
/// implementations make every callback optional except packet origination
/// and reception.
pub trait Protocol: Sized {
    /// The protocol's network-layer packet type, carried opaquely by the
    /// MAC behind a shared handle: a broadcast heard by N receivers bumps
    /// a reference count N times instead of deep-cloning N times.
    type Packet: Clone + std::fmt::Debug + 'static;

    /// Called once at simulation start (schedule beacons here).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Packet>) {
        let _ = ctx;
    }

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Packet>, kind: u64) {
        let _ = (ctx, kind);
    }

    /// The application asks this node to send a data packet to `dest`.
    ///
    /// The protocol must embed `tag` in its packet and ensure
    /// [`Ctx::deliver_data`] is called with it if/when the packet reaches
    /// `dest`.
    fn on_app_send(&mut self, ctx: &mut Ctx<'_, Self::Packet>, dest: NodeId, tag: FlowTag);

    /// A frame addressed to this node (or broadcast) was received.
    ///
    /// `from` is the source MAC address, or `None` for anonymous
    /// broadcasts (AGFW frames carry no source address). The packet is
    /// borrowed from the shared broadcast payload: the dominant
    /// overhear-and-discard path costs no clone at all, and a protocol
    /// that commits to forwarding clones exactly the fields it keeps.
    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, Self::Packet>,
        packet: &Self::Packet,
        from: Option<MacAddr>,
    );

    /// The MAC finished (or gave up on) a transmission this node queued.
    fn on_mac_result(
        &mut self,
        ctx: &mut Ctx<'_, Self::Packet>,
        outcome: MacOutcome<Self::Packet>,
    ) {
        let _ = (ctx, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_tag_is_plain_data() {
        let tag = FlowTag {
            flow: 1,
            seq: 2,
            src: NodeId(3),
            sent_at: SimTime::from_secs(4),
        };
        let copy = tag;
        assert_eq!(tag, copy);
    }

    #[test]
    fn mac_dst_compares() {
        assert_eq!(MacDst::Broadcast, MacDst::Broadcast);
        assert_ne!(MacDst::Broadcast, MacDst::Unicast(MacAddr(1)));
    }
}
