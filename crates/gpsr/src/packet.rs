//! GPSR packet formats.
//!
//! Note what travels in cleartext: beacons carry `⟨id, position⟩` and
//! data headers carry the destination's `⟨id, location⟩` — the explicit
//! identity–location doublets of the paper's §2 threat model. The
//! anonymous protocol in `agr-core` exists to remove exactly these fields.

use agr_geom::Point;
use agr_sim::{FlowTag, NodeId};

/// Bytes of a beacon packet on the wire: IP-ish header (20) + id (4) +
/// position (8).
pub const BEACON_BYTES: u32 = 32;

/// Bytes of the GPSR data header: IP-ish header (20) + destination id (4)
/// + destination location (8) + mode/TTL/perimeter fields (16).
pub(crate) const DATA_HEADER_BYTES: u32 = 48;

/// Routing mode carried in the data header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RoutingMode {
    /// Greedy forwarding towards the destination location.
    Greedy,
    /// Perimeter (face) routing around a void.
    Perimeter {
        /// Location where the packet entered perimeter mode; greedy
        /// resumes at any node closer to the destination than this.
        entry: Point,
        /// Position of the node that forwarded the packet to us (the
        /// ingress edge for the right-hand rule).
        prev: Point,
        /// First edge taken on the current perimeter; re-traversing it
        /// means the destination is unreachable and the packet is dropped.
        first_edge: Option<(NodeId, NodeId)>,
    },
}

/// The header of a GPSR data packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataHeader {
    /// End-to-end statistics tag.
    pub(crate) tag: FlowTag,
    /// Destination identity (cleartext — the privacy leak).
    pub dst: NodeId,
    /// Destination location as known to the source.
    pub(crate) dst_loc: Point,
    /// Remaining hop budget.
    pub(crate) ttl: u8,
    /// Greedy or perimeter.
    pub(crate) mode: RoutingMode,
    /// Application payload size in bytes (payload content is irrelevant to
    /// routing; only its size matters for airtime).
    pub(crate) payload_bytes: u32,
}

impl DataHeader {
    /// Total network-layer packet size in bytes.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        DATA_HEADER_BYTES + self.payload_bytes
    }
}

/// A GPSR network-layer packet.
#[derive(Debug, Clone, PartialEq)]
pub enum GpsrPacket {
    /// Periodic local location update: the sender's identity and position
    /// in cleartext.
    Beacon {
        /// Sender identity.
        id: NodeId,
        /// Sender position.
        pos: Point,
    },
    /// A data packet being geographically forwarded.
    Data(DataHeader),
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_sim::SimTime;

    #[test]
    fn wire_bytes_adds_header() {
        let h = DataHeader {
            tag: FlowTag {
                flow: 0,
                seq: 0,
                src: NodeId(0),
                sent_at: SimTime::ZERO,
            },
            dst: NodeId(1),
            dst_loc: Point::ORIGIN,
            ttl: 64,
            mode: RoutingMode::Greedy,
            payload_bytes: 64,
        };
        assert_eq!(h.wire_bytes(), DATA_HEADER_BYTES + 64);
    }

    #[test]
    fn modes_compare() {
        assert_eq!(RoutingMode::Greedy, RoutingMode::Greedy);
        let p = RoutingMode::Perimeter {
            entry: Point::ORIGIN,
            prev: Point::ORIGIN,
            first_edge: None,
        };
        assert_ne!(p, RoutingMode::Greedy);
    }
}
