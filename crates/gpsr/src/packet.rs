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

/// Bytes of the GPSR data header: IP-ish header (20), destination id (4),
/// destination location (8), and 16 bytes for TTL and full GPSR's mode
/// and perimeter fields. This GPSR routes greedily only, but the 16 bytes
/// stay: dropping them would shorten every data frame's airtime and so
/// move every golden, a declared re-baseline.
pub(crate) const DATA_HEADER_BYTES: u32 = 48;

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
            payload_bytes: 64,
        };
        assert_eq!(h.wire_bytes(), DATA_HEADER_BYTES + 64);
    }
}
