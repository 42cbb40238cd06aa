//! Byte-level codec for [`AgfwPacket`].
//!
//! The simulator moves packets as Rust values; what crosses a real radio
//! is bytes. This module is the reference serialization: a fixed,
//! versionless big-endian layout with a one-byte packet-type tag. Its
//! contract — exercised by the golden round-trip tests — is
//!
//! > `encode(decode(encode(p))) == encode(p)` byte-for-byte,
//!
//! which is what retransmission requires: a forwarder that re-broadcasts
//! a decoded packet must emit the identical frame, or per-packet state
//! downstream (trapdoor flow markers, uid-keyed ACKs, duplicate
//! suppression) silently diverges.
//!
//! Two deliberate asymmetries with the in-memory types:
//!
//! * [`AgfwData::tag`] is simulation accounting, **not** a wire field
//!   (see `packet.rs`); encoding skips it and decoding restores a zeroed
//!   tag.
//! * Byte *accounting* for airtime purposes stays with the `wire_bytes`
//!   methods, which model the paper's §5.1 header sizes (e.g. a 4-byte
//!   uid, positions as 8 bytes). This codec spends full-width scalars
//!   (8-byte uid, two f64s per position) so round-trips are exact; the
//!   two serve different purposes and are not meant to agree.
//!
//! Hello authentication ([`crate::packet::HelloAuth`]) carries a ring
//! signature whose internals are private to `agr-crypto`; encoding an
//! authenticated hello currently returns [`WireError::Unsupported`].

use crate::packet::{
    AckRef, AgfwData, AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair,
};
use crate::pseudonym::Pseudonym;
use crate::TrapdoorWire;
use agr_crypto::trapdoor::Trapdoor;
use agr_geom::{CellId, Point};
use agr_sim::{FlowTag, NodeId, SimTime};

/// Packet-type tags (first byte of every encoding).
const TAG_HELLO: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_NL_ACK: u8 = 2;
const TAG_ALS: u8 = 3;

/// The one value of the hello's velocity flag, and of the data packet's
/// two piggybacked-ACK count bytes and its routing-mode byte. Each once
/// announced an optional extension (a velocity; ACKs riding on data;
/// perimeter-mode positions) that no longer exists; the bytes stay so
/// every encoding keeps its layout, and any other value is rejected.
const NO_EXTENSION: u8 = 0;

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Bytes remained after a complete packet.
    Trailing(usize),
    /// An unknown discriminator byte.
    BadTag {
        /// Which field carried the bad tag.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A value the codec cannot (yet) represent.
    Unsupported(&'static str),
    /// A length field exceeds what a packet may carry.
    TooLong(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after packet"),
            WireError::BadTag { field, value } => write!(f, "bad {field} tag byte {value:#04x}"),
            WireError::Unsupported(what) => write!(f, "cannot encode {what}"),
            WireError::TooLong(what) => write!(f, "{what} exceeds length field"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn point(&mut self) -> Result<Point, WireError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    /// Reads a byte that must be [`NO_EXTENSION`]; `field` names it in
    /// the error.
    fn no_extension(&mut self, field: &'static str) -> Result<(), WireError> {
        match self.u8()? {
            NO_EXTENSION => Ok(()),
            value => Err(WireError::BadTag { field, value }),
        }
    }

    fn pseudonym(&mut self) -> Result<Pseudonym, WireError> {
        Ok(Pseudonym(self.take(6)?.try_into().unwrap()))
    }

    fn bytes_u16(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u16()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    out.extend_from_slice(&p.x.to_bits().to_be_bytes());
    out.extend_from_slice(&p.y.to_bits().to_be_bytes());
}

fn put_bytes_u16(out: &mut Vec<u8>, what: &'static str, b: &[u8]) -> Result<(), WireError> {
    let len = u16::try_from(b.len()).map_err(|_| WireError::TooLong(what))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(b);
    Ok(())
}

fn read_cell(r: &mut Reader<'_>) -> Result<CellId, WireError> {
    Ok(CellId {
        col: r.u32()?,
        row: r.u32()?,
    })
}

fn read_pairs(r: &mut Reader<'_>) -> Result<Vec<AlsPair>, WireError> {
    let count = r.u16()? as usize;
    (0..count)
        .map(|_| {
            Ok(AlsPair {
                index: r.bytes_u16()?,
                payload: r.bytes_u16()?,
            })
        })
        .collect()
}

fn read_sync_pairs(r: &mut Reader<'_>) -> Result<Vec<AlsSyncPair>, WireError> {
    let count = r.u16()? as usize;
    (0..count)
        .map(|_| {
            Ok(AlsSyncPair {
                index: r.bytes_u16()?,
                payload: r.bytes_u16()?,
                stored_at: SimTime::from_nanos(r.u64()?),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Serializes `packet` to its canonical byte form.
///
/// # Errors
///
/// [`WireError::Unsupported`] for authenticated hellos;
/// [`WireError::TooLong`] when a variable-length field exceeds its
/// 16-bit length prefix.
pub fn encode_packet(packet: &AgfwPacket) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    encode_packet_into(packet, &mut out)?;
    Ok(out)
}

/// [`encode_packet`] into a caller-owned buffer: `out` is cleared, then
/// the canonical encoding is appended — so a pooled buffer keeps its
/// capacity across frames instead of paying one allocation per encode.
/// On error `out` is left cleared (possibly partially written); callers
/// must not send its contents.
///
/// # Errors
///
/// Same as [`encode_packet`].
pub fn encode_packet_into(packet: &AgfwPacket, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    match packet {
        AgfwPacket::Hello { n, loc, ts, auth } => {
            if auth.is_some() {
                return Err(WireError::Unsupported("ring-signed hello auth"));
            }
            out.push(TAG_HELLO);
            out.extend_from_slice(&n.0);
            put_point(out, *loc);
            out.push(NO_EXTENSION);
            out.extend_from_slice(&ts.as_nanos().to_be_bytes());
        }
        AgfwPacket::Data(d) => {
            out.push(TAG_DATA);
            encode_data(out, d)?;
        }
        AgfwPacket::NlAck { ack } => {
            out.push(TAG_NL_ACK);
            // A u16 count of one: the field once sized an ACK batch.
            out.extend_from_slice(&1u16.to_be_bytes());
            out.extend_from_slice(&ack.uid.to_be_bytes());
            out.extend_from_slice(&ack.to.0);
        }
        AgfwPacket::Als(m) => {
            out.push(TAG_ALS);
            encode_als(out, m)?;
        }
    }
    Ok(())
}

fn encode_data(out: &mut Vec<u8>, d: &AgfwData) -> Result<(), WireError> {
    put_point(out, d.dst_loc);
    out.extend_from_slice(&d.next.0);
    match &d.trapdoor {
        TrapdoorWire::Modeled { dest, nonce } => {
            out.push(0);
            out.extend_from_slice(&dest.0.to_be_bytes());
            out.extend_from_slice(&nonce.to_be_bytes());
        }
        TrapdoorWire::Real(t) => {
            out.push(1);
            put_bytes_u16(out, "trapdoor ciphertext", t.as_bytes())?;
        }
    }
    out.extend_from_slice(&d.uid.to_be_bytes());
    out.push(d.ttl);
    out.extend_from_slice(&d.payload_bytes.to_be_bytes());
    // The u16 piggybacked-ACK count, then the routing mode.
    out.extend_from_slice(&[NO_EXTENSION; 3]);
    Ok(())
}

fn encode_als(out: &mut Vec<u8>, m: &AlsNetMessage) -> Result<(), WireError> {
    put_point(out, m.target_loc);
    out.extend_from_slice(&m.next.0);
    out.extend_from_slice(&m.uid.to_be_bytes());
    out.push(m.ttl);
    match &m.kind {
        AlsNetKind::Update { cell, pairs } => {
            out.push(0);
            put_cell(out, *cell);
            put_pairs(out, pairs)?;
        }
        AlsNetKind::Request {
            cell,
            index,
            reply_loc,
        } => {
            out.push(1);
            put_cell(out, *cell);
            put_bytes_u16(out, "request index", index)?;
            put_point(out, *reply_loc);
        }
        AlsNetKind::Reply { payload } => {
            out.push(2);
            put_bytes_u16(out, "reply payload", payload)?;
        }
        AlsNetKind::Forward {
            from_cell,
            to_cell,
            pairs,
        } => {
            out.push(3);
            put_cell(out, *from_cell);
            put_cell(out, *to_cell);
            put_pairs(out, pairs)?;
        }
        AlsNetKind::Ack { stored } => {
            out.push(4);
            out.extend_from_slice(&stored.to_be_bytes());
        }
        AlsNetKind::Miss => out.push(5),
        AlsNetKind::SyncDigest {
            cell,
            digest,
            count,
        } => {
            out.push(6);
            put_cell(out, *cell);
            out.extend_from_slice(&digest.to_be_bytes());
            out.extend_from_slice(&count.to_be_bytes());
        }
        AlsNetKind::SyncDelta { cell, pairs } => {
            out.push(7);
            put_cell(out, *cell);
            put_sync_pairs(out, pairs)?;
        }
        AlsNetKind::Ping => out.push(8),
        AlsNetKind::Pong { queue_depth } => {
            out.push(9);
            out.extend_from_slice(&queue_depth.to_be_bytes());
        }
        AlsNetKind::Busy => out.push(10),
        AlsNetKind::StatsDump { payload } => {
            out.push(11);
            put_bytes_u16(out, "stats dump payload", payload)?;
        }
    }
    Ok(())
}

fn put_cell(out: &mut Vec<u8>, cell: CellId) {
    out.extend_from_slice(&cell.col.to_be_bytes());
    out.extend_from_slice(&cell.row.to_be_bytes());
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[AlsPair]) -> Result<(), WireError> {
    let count = u16::try_from(pairs.len()).map_err(|_| WireError::TooLong("pair list"))?;
    out.extend_from_slice(&count.to_be_bytes());
    for pair in pairs {
        put_bytes_u16(out, "pair index", &pair.index)?;
        put_bytes_u16(out, "pair payload", &pair.payload)?;
    }
    Ok(())
}

fn put_sync_pairs(out: &mut Vec<u8>, pairs: &[AlsSyncPair]) -> Result<(), WireError> {
    let count = u16::try_from(pairs.len()).map_err(|_| WireError::TooLong("sync pair list"))?;
    out.extend_from_slice(&count.to_be_bytes());
    for pair in pairs {
        put_bytes_u16(out, "sync pair index", &pair.index)?;
        put_bytes_u16(out, "sync pair payload", &pair.payload)?;
        out.extend_from_slice(&pair.stored_at.as_nanos().to_be_bytes());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

/// Parses a packet previously produced by [`encode_packet`].
///
/// The simulation-only [`AgfwData::tag`] is restored zeroed; every wire
/// field round-trips exactly.
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::Trailing`] on length
/// mismatches, [`WireError::BadTag`] on unknown discriminators.
pub fn decode_packet(bytes: &[u8]) -> Result<AgfwPacket, WireError> {
    let mut r = Reader::new(bytes);
    let packet = match r.u8()? {
        TAG_HELLO => {
            let n = r.pseudonym()?;
            let loc = r.point()?;
            r.no_extension("hello velocity flag")?;
            let ts = SimTime::from_nanos(r.u64()?);
            AgfwPacket::Hello {
                n,
                loc,
                ts,
                auth: None,
            }
        }
        TAG_DATA => AgfwPacket::Data(decode_data(&mut r)?),
        TAG_NL_ACK => {
            r.no_extension("nl-ack count")?;
            match r.u8()? {
                1 => {}
                value => {
                    return Err(WireError::BadTag {
                        field: "nl-ack count",
                        value,
                    })
                }
            }
            AgfwPacket::NlAck {
                ack: AckRef {
                    uid: r.u64()?,
                    to: r.pseudonym()?,
                },
            }
        }
        TAG_ALS => AgfwPacket::Als(decode_als(&mut r)?),
        value => {
            return Err(WireError::BadTag {
                field: "packet type",
                value,
            })
        }
    };
    r.finish()?;
    Ok(packet)
}

fn decode_data(r: &mut Reader<'_>) -> Result<AgfwData, WireError> {
    let dst_loc = r.point()?;
    let next = r.pseudonym()?;
    let trapdoor = match r.u8()? {
        0 => TrapdoorWire::Modeled {
            dest: NodeId(r.u32()?),
            nonce: r.u64()?,
        },
        1 => TrapdoorWire::Real(Trapdoor::from_bytes(r.bytes_u16()?)),
        value => {
            return Err(WireError::BadTag {
                field: "trapdoor kind",
                value,
            })
        }
    };
    let uid = r.u64()?;
    let ttl = r.u8()?;
    let payload_bytes = r.u32()?;
    r.no_extension("piggybacked ack count")?;
    r.no_extension("piggybacked ack count")?;
    r.no_extension("routing mode")?;
    Ok(AgfwData {
        dst_loc,
        next,
        trapdoor,
        uid,
        ttl,
        payload_bytes,
        // Simulation accounting only — never on the wire.
        tag: FlowTag {
            flow: 0,
            seq: 0,
            src: NodeId(0),
            sent_at: SimTime::ZERO,
        },
    })
}

fn decode_als(r: &mut Reader<'_>) -> Result<AlsNetMessage, WireError> {
    let target_loc = r.point()?;
    let next = r.pseudonym()?;
    let uid = r.u64()?;
    let ttl = r.u8()?;
    let kind = match r.u8()? {
        0 => AlsNetKind::Update {
            cell: read_cell(r)?,
            pairs: read_pairs(r)?,
        },
        1 => AlsNetKind::Request {
            cell: read_cell(r)?,
            index: r.bytes_u16()?,
            reply_loc: r.point()?,
        },
        2 => AlsNetKind::Reply {
            payload: r.bytes_u16()?,
        },
        3 => AlsNetKind::Forward {
            from_cell: read_cell(r)?,
            to_cell: read_cell(r)?,
            pairs: read_pairs(r)?,
        },
        4 => AlsNetKind::Ack { stored: r.u32()? },
        5 => AlsNetKind::Miss,
        6 => AlsNetKind::SyncDigest {
            cell: read_cell(r)?,
            digest: r.u64()?,
            count: r.u32()?,
        },
        7 => AlsNetKind::SyncDelta {
            cell: read_cell(r)?,
            pairs: read_sync_pairs(r)?,
        },
        8 => AlsNetKind::Ping,
        9 => AlsNetKind::Pong {
            queue_depth: r.u32()?,
        },
        10 => AlsNetKind::Busy,
        11 => AlsNetKind::StatsDump {
            payload: r.bytes_u16()?,
        },
        value => {
            return Err(WireError::BadTag {
                field: "ALS kind",
                value,
            })
        }
    };
    Ok(AlsNetMessage {
        target_loc,
        next,
        uid,
        ttl,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_input_rejected() {
        let hello = AgfwPacket::Hello {
            n: Pseudonym([7; 6]),
            loc: Point::new(1.0, 2.0),
            ts: SimTime::from_millis(3),
            auth: None,
        };
        let bytes = encode_packet(&hello).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_packet(&bytes[..cut]),
                Err(WireError::Truncated),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_packet(&AgfwPacket::NlAck {
            ack: AckRef {
                uid: 1,
                to: Pseudonym([2; 6]),
            },
        })
        .unwrap();
        bytes.push(0xEE);
        assert_eq!(decode_packet(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            decode_packet(&[9]),
            Err(WireError::BadTag {
                field: "packet type",
                value: 9
            })
        ));
    }

    #[test]
    fn authenticated_hello_unsupported() {
        // Constructing a HelloAuth needs agr-crypto internals; the encode
        // guard is unit-tested from the integration suite where a real
        // ring signature is available.
        let err = WireError::Unsupported("ring-signed hello auth");
        assert_eq!(format!("{err}"), "cannot encode ring-signed hello auth");
    }
}
