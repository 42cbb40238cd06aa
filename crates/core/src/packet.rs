//! AGFW wire formats.
//!
//! The data header is the paper's `⟨DATA, loc_d, n, trapdoor⟩`: a
//! destination *location* (no identity), the *pseudonym* of the committed
//! next relay (no MAC address), and a trapdoor only the destination can
//! open. Hello messages are `⟨HELLO, n, loc, ts⟩`, optionally ring-signed.
//! Network-layer ACKs are themselves anonymous local broadcasts and may
//! acknowledge several packets at once (§3.2).
//!
//! The `tag` field on data packets is **simulation accounting only** (it
//! lets the statistics engine match deliveries to originations); it is
//! excluded from wire-size computations and from everything the privacy
//! adversary may inspect.

use crate::pseudonym::Pseudonym;
use agr_crypto::ring_sig::RingSignature;
use agr_crypto::trapdoor::Trapdoor;
use agr_geom::{CellId, Point};
use agr_sim::{FlowTag, NodeId, SimTime};

/// IP-ish fixed network header bytes counted on every packet.
pub(crate) const NET_HEADER_BYTES: u32 = 20;

/// The destination-detection trapdoor as carried in a packet.
///
/// `Real` carries an actual RSA ciphertext (what a deployment sends).
/// `Modeled` is the simulation stand-in the paper itself effectively used
/// in NS-2 — the *cost* of the cryptography is injected as processing
/// delay and byte count, while opening is an identity comparison. Both
/// variants present the same 64-byte wire footprint (§5.1: "the size of
/// trapdoor does not exceed 64-byte").
#[derive(Debug, Clone, PartialEq)]
pub enum TrapdoorWire {
    /// A genuine RSA trapdoor.
    Real(Trapdoor),
    /// A modelled trapdoor: opens only for `dest`; `nonce` plays the role
    /// of the ciphertext randomisation (distinct per seal).
    Modeled {
        /// The only node the trapdoor opens for.
        dest: NodeId,
        /// Per-seal randomiser, making two seals unlinkable — and letting
        /// the adversary model correlate retransmissions of the *same*
        /// packet, exactly like a real ciphertext would.
        nonce: u64,
    },
}

impl TrapdoorWire {
    /// Bytes this trapdoor occupies on the wire.
    #[must_use]
    pub(crate) fn wire_bytes(&self) -> u32 {
        match self {
            TrapdoorWire::Real(t) => t.encoded_len() as u32,
            TrapdoorWire::Modeled { .. } => 64,
        }
    }
}

/// One acknowledged hop: "information uniquely determining the packet
/// received" (§3.2). The uid names the packet; echoing the pseudonym the
/// data frame was addressed to scopes the ACK to one hop without naming
/// anyone — otherwise an ACK for an upstream hop would silently cancel a
/// downstream forwarder's retransmissions of the same packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRef {
    /// Packet identifier.
    pub uid: u64,
    /// The pseudonym the acknowledged data frame was addressed to
    /// ([`Pseudonym::LAST_ATTEMPT`] for last-attempt deliveries).
    pub to: Pseudonym,
}

impl AckRef {
    /// Wire bytes per acknowledgment entry.
    #[must_use]
    pub const fn wire_bytes() -> u32 {
        4 + Pseudonym::wire_bytes()
    }
}

/// Ring-signature authentication attached to a hello (§3.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct HelloAuth {
    /// Certificate serial-linked identities of the ring members, in ring
    /// order. §4's overhead optimisation: send identities/serials, not
    /// whole certificates.
    pub ring_ids: Vec<u64>,
    /// The ring signature over the hello message.
    pub signature: RingSignature,
}

impl HelloAuth {
    /// Wire bytes: 8 per ring identity plus the signature blocks.
    #[must_use]
    pub(crate) fn wire_bytes(&self) -> u32 {
        (self.ring_ids.len() * 8 + self.signature.encoded_len()) as u32
    }
}

/// An AGFW data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct AgfwData {
    /// Destination location `loc_d` (cleartext — locations without
    /// identities are the design point).
    pub dst_loc: Point,
    /// Pseudonym of the committed next relay, or
    /// [`Pseudonym::LAST_ATTEMPT`].
    pub next: Pseudonym,
    /// The destination-detection trapdoor.
    pub trapdoor: TrapdoorWire,
    /// Packet identifier used by network-layer ACKs ("information
    /// uniquely determining the packet received", §3.2); 4 bytes on the
    /// wire.
    pub uid: u64,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Application payload size.
    pub payload_bytes: u32,
    /// Simulation accounting tag — NOT a wire field.
    pub tag: FlowTag,
}

impl AgfwData {
    /// Total network-layer bytes: header + trapdoor + payload.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        NET_HEADER_BYTES
            + 8 // dst_loc
            + Pseudonym::wire_bytes()
            + self.trapdoor.wire_bytes()
            + 4 // uid
            + 1 // ttl
            // An ack-count byte and a routing-mode byte, from when ACKs
            // could ride on data and data could travel in perimeter mode;
            // both are always zero. Dropping them would shorten every data
            // frame's airtime and so move every golden: a declared
            // re-baseline, not a clean-up.
            + 1
            + 1
            + self.payload_bytes
    }
}

/// One sealed `(index, record)` pair of an anonymous location update —
/// `E_KB(A, B) → E_KB(A, loc_A, ts)` for one anticipated requester `B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlsPair {
    /// The deterministic lookup index.
    pub index: Vec<u8>,
    /// The sealed location record.
    pub payload: Vec<u8>,
}

/// One replicated record in an anti-entropy exchange: an [`AlsPair`]
/// plus the arrival time of the authoritative copy, so the receiving
/// replica anchors TTL freshness (and last-writer-wins conflicts) on the
/// original store, not on the sync that carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlsSyncPair {
    /// The deterministic lookup index.
    pub index: Vec<u8>,
    /// The sealed location record.
    pub payload: Vec<u8>,
    /// When the authoritative copy was stored (server arrival clock).
    pub stored_at: SimTime,
}

/// Body of a geo-routed anonymous-location-service message (§3.3 run over
/// the live network — the integration the paper's evaluation skipped).
#[derive(Debug, Clone, PartialEq)]
pub enum AlsNetKind {
    /// `⟨RLU, ssa(A), pairs⟩` — consumed by any node inside the server
    /// cell. Pairs for several anticipated requesters ride together.
    Update {
        /// Target server cell.
        cell: CellId,
        /// One sealed pair per anticipated requester.
        pairs: Vec<AlsPair>,
    },
    /// `⟨LREQ, ssa(A), E_KB(A,B), loc_B⟩` — consumed in the server cell.
    Request {
        /// Target server cell.
        cell: CellId,
        /// The deterministic lookup index.
        index: Vec<u8>,
        /// Where to geo-route the reply (a location, not an identity).
        reply_loc: Point,
    },
    /// `⟨LREP, loc_B, E_KB(A, loc_A, ts)⟩` — consumed by whichever node
    /// near the reply location can decrypt the record.
    Reply {
        /// The sealed record.
        payload: Vec<u8>,
    },
    /// Hierarchical DLM-forward: re-homes sealed pairs from one cell's
    /// server to another's, the wire form of the departing-server
    /// handoff. Used by the standalone `agr-als-service` engine; the
    /// simulator's in-network handoff rides ordinary `Update`s.
    Forward {
        /// Cell the records are leaving.
        from_cell: CellId,
        /// Cell now responsible for them.
        to_cell: CellId,
        /// The re-homed pairs.
        pairs: Vec<AlsPair>,
    },
    /// Service acknowledgment of an `Update` or `Forward`, echoing how
    /// many pairs were applied. Only the standalone service emits these
    /// (its transports are request/response); the simulator's updates
    /// stay unacknowledged.
    Ack {
        /// Pairs applied.
        stored: u32,
    },
    /// Service negative reply to a `Request` that matched no fresh
    /// record, so clients can tell a miss from a lost frame.
    Miss,
    /// Anti-entropy probe between cluster replicas: "here is my
    /// merkle-ish digest of `cell`'s records — answer with yours if we
    /// agree, or a [`AlsNetKind::SyncDelta`] if we diverged". Only the
    /// `agr-als-service` cluster emits these; the simulator never
    /// originates them.
    SyncDigest {
        /// The cell whose records are compared.
        cell: CellId,
        /// Order-independent FNV-1a fold over the cell's
        /// `(index, payload, stored_at)` records.
        digest: u64,
        /// How many records the digest covers.
        count: u32,
    },
    /// Anti-entropy payload: the sender's full record set for one cell
    /// (or a handoff batch re-homed onto it), merged last-writer-wins by
    /// `(stored_at, payload)` on the receiving replica. Answered with
    /// [`AlsNetKind::Ack`] carrying how many records changed.
    SyncDelta {
        /// The cell the records belong to.
        cell: CellId,
        /// The records, each with its authoritative arrival time.
        pairs: Vec<AlsSyncPair>,
    },
    /// Liveness heartbeat probe from a cluster client to one node.
    /// Carries no body — the `uid` echo in the [`AlsNetKind::Pong`] is
    /// the proof of life. Only the `agr-als-service` cluster emits
    /// these; the simulator never originates them.
    Ping,
    /// Heartbeat answer, advertising the replying engine's queued-work
    /// depth so clients can anticipate shedding before they hit it.
    Pong {
        /// Jobs currently queued in the replying engine's pipeline.
        queue_depth: u32,
    },
    /// Admission-control rejection: the engine's queue depth crossed its
    /// shed watermark, so the request was dropped instead of blocking
    /// the serve loop. Clients treat this as "alive but overloaded" —
    /// retry after backoff, never failure-detector evidence.
    Busy,
    /// Telemetry scrape of a live node's metric registry. An empty
    /// `payload` is the request; the node answers with the same kind
    /// carrying its registry rendered as Prometheus text (truncated to
    /// fit one frame). Only the `agr-als-service` cluster emits these;
    /// the simulator never originates them.
    StatsDump {
        /// Empty on request; Prometheus text-exposition bytes on reply.
        payload: Vec<u8>,
    },
}

/// A geo-routed location-service message.
///
/// Forwarded exactly like AGFW data (pseudonymous committed relays, local
/// broadcasts, last-attempt fallback) but *unacknowledged*: location
/// services tolerate loss via periodic refresh and query retry.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsNetMessage {
    /// Geo-routing target (a cell centre or a reply location).
    pub target_loc: Point,
    /// Pseudonym of the committed next relay, or
    /// [`Pseudonym::LAST_ATTEMPT`].
    pub next: Pseudonym,
    /// Duplicate-suppression identifier.
    pub uid: u64,
    /// Remaining hop budget.
    pub ttl: u8,
    /// The service body.
    pub kind: AlsNetKind,
}

impl AlsNetMessage {
    /// Network-layer bytes.
    #[must_use]
    pub(crate) fn wire_bytes(&self) -> u32 {
        let body = match &self.kind {
            AlsNetKind::Update { pairs, .. } => {
                2 + pairs
                    .iter()
                    .map(|p| (p.index.len() + p.payload.len()) as u32)
                    .sum::<u32>()
            }
            AlsNetKind::Request { index, .. } => 2 + index.len() as u32 + 8,
            AlsNetKind::Reply { payload } => payload.len() as u32,
            AlsNetKind::Forward { pairs, .. } => {
                4 + pairs
                    .iter()
                    .map(|p| (p.index.len() + p.payload.len()) as u32)
                    .sum::<u32>()
            }
            AlsNetKind::Ack { .. } => 4,
            AlsNetKind::Miss => 0,
            // Cell (2, as elsewhere) + digest + count.
            AlsNetKind::SyncDigest { .. } => 2 + 8 + 4,
            // Cell + per-record pair bytes plus a 4-byte coarse timestamp
            // (whole seconds, like the paper's `ts`).
            AlsNetKind::SyncDelta { pairs, .. } => {
                2 + pairs
                    .iter()
                    .map(|p| (p.index.len() + p.payload.len()) as u32 + 4)
                    .sum::<u32>()
            }
            AlsNetKind::Ping | AlsNetKind::Busy => 0,
            AlsNetKind::Pong { .. } => 4,
            AlsNetKind::StatsDump { payload } => 2 + payload.len() as u32,
        };
        NET_HEADER_BYTES + 8 + Pseudonym::wire_bytes() + 4 + 1 + body
    }
}

/// An AGFW network-layer packet.
#[derive(Debug, Clone, PartialEq)]
pub enum AgfwPacket {
    /// `⟨HELLO, n, loc, ts⟩`, optionally ring-signed.
    Hello {
        /// One-time pseudonym.
        n: Pseudonym,
        /// Sender's current position.
        loc: Point,
        /// Beacon timestamp.
        ts: SimTime,
        /// Optional §3.1.2 authentication.
        auth: Option<HelloAuth>,
    },
    /// A data packet.
    Data(AgfwData),
    /// A network-layer acknowledgment of one hop, broadcast anonymously.
    NlAck {
        /// The acknowledged hop.
        ack: AckRef,
    },
    /// A geo-routed anonymous-location-service message.
    Als(AlsNetMessage),
}

impl AgfwPacket {
    /// Network-layer bytes of this packet.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        match self {
            AgfwPacket::Hello { auth, .. } => {
                NET_HEADER_BYTES
                    + Pseudonym::wire_bytes()
                    + 8 // loc
                    + 4 // ts
                    + auth.as_ref().map_or(0, HelloAuth::wire_bytes)
            }
            AgfwPacket::Data(d) => d.wire_bytes(),
            AgfwPacket::NlAck { .. } => NET_HEADER_BYTES + 1 + AckRef::wire_bytes(),
            AgfwPacket::Als(m) => m.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> FlowTag {
        FlowTag {
            flow: 0,
            seq: 0,
            src: NodeId(0),
            sent_at: SimTime::ZERO,
        }
    }

    fn data() -> AgfwData {
        AgfwData {
            dst_loc: Point::new(1.0, 2.0),
            next: Pseudonym([1; 6]),
            trapdoor: TrapdoorWire::Modeled {
                dest: NodeId(5),
                nonce: 99,
            },
            uid: 7,
            ttl: 64,
            payload_bytes: 64,
            tag: tag(),
        }
    }

    #[test]
    fn data_header_is_larger_than_gpsr() {
        // AGFW pays the 64-byte trapdoor the paper discusses: its header
        // alone exceeds GPSR's whole header.
        let d = data();
        let header = d.wire_bytes() - d.payload_bytes;
        assert_eq!(header, 20 + 8 + 6 + 64 + 4 + 1 + 1 + 1);
        assert!(header > 48);
    }

    #[test]
    fn modeled_trapdoor_mimics_rsa512_size() {
        assert_eq!(
            TrapdoorWire::Modeled {
                dest: NodeId(0),
                nonce: 0
            }
            .wire_bytes(),
            64
        );
    }

    #[test]
    fn nl_ack_carries_one_ack() {
        let nl_ack = AgfwPacket::NlAck {
            ack: AckRef {
                uid: 1,
                to: Pseudonym([2; 6]),
            },
        };
        // Header, the count byte and one uid + pseudonym entry.
        assert_eq!(nl_ack.wire_bytes(), 20 + 1 + 10);
    }

    #[test]
    fn hello_bytes_grow_with_auth() {
        let bare = AgfwPacket::Hello {
            n: Pseudonym([1; 6]),
            loc: Point::ORIGIN,
            ts: SimTime::ZERO,
            auth: None,
        };
        assert_eq!(bare.wire_bytes(), 20 + 6 + 8 + 4);
    }
}
