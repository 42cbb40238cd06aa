//! The seeded ALS operation stream.
//!
//! A plan is generated up front from `--seed` and nothing else: the
//! program under test only ever sees generated inputs, and no server
//! reply can change which operation comes next. Every written payload
//! carries the operation's sequence number, so a read-back after the run
//! can tell *which* write a record holds.

use crate::zipf::Zipf;
use agr_als_service::pipeline::Request;
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::encode_packet_into;
use agr_geom::{CellId, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sealed-record size: the paper's `E_KB(A, loc_A, ts)` block is a few
/// dozen bytes, and the smallest realistic frame is where per-frame cost
/// dominates.
pub const PAYLOAD_BYTES: usize = 48;

/// What one planned operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Update,
    Query,
    /// Re-home the key's record from its home cell to `to_cell`.
    Forward,
}

/// One planned operation: 8 bytes, so a multi-million-op plan stays
/// small next to the store it drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    /// Key rank under the Zipf law (0 = hottest).
    pub rank: u32,
    /// Destination cell of a forward, as `row * side + col`.
    pub to_cell: u16,
}

/// The shape of a workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub update_pct: u32,
    pub query_pct: u32,
    /// Distinct keys.
    pub keys: usize,
    pub zipf_s: f64,
    /// The keys spread over a `side × side` grid of cells.
    pub side: u32,
}

impl Mix {
    /// One line for the config hash.
    pub fn describe(&self) -> String {
        format!(
            "mix={}u/{}q/{}f keys={} zipf={} cells={}x{} payload={}",
            self.update_pct,
            self.query_pct,
            100 - self.update_pct - self.query_pct,
            self.keys,
            self.zipf_s,
            self.side,
            self.side,
            PAYLOAD_BYTES
        )
    }

    /// Generates `n` operations from `seed`.
    pub fn plan(&self, seed: u64, n: usize) -> Vec<Op> {
        let zipf = Zipf::new(self.keys, self.zipf_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A15_9A7E_5EED);
        (0..n)
            .map(|_| {
                let rank = zipf.sample(&mut rng) as u32;
                let roll = rng.random_range(0u32..100);
                if roll < self.update_pct {
                    Op {
                        kind: OpKind::Update,
                        rank,
                        to_cell: 0,
                    }
                } else if roll < self.update_pct + self.query_pct {
                    Op {
                        kind: OpKind::Query,
                        rank,
                        to_cell: 0,
                    }
                } else {
                    Op {
                        kind: OpKind::Forward,
                        rank,
                        to_cell: rng.random_range(0..self.side * self.side) as u16,
                    }
                }
            })
            .collect()
    }

    /// The cell a key lives in until a forward moves it.
    pub fn home_cell(&self, rank: u32) -> CellId {
        CellId {
            col: rank % self.side,
            row: (rank / self.side) % self.side,
        }
    }

    pub fn cell_from_code(&self, code: u16) -> CellId {
        CellId {
            col: u32::from(code) % self.side,
            row: u32::from(code) / self.side,
        }
    }

    pub fn all_cells(&self) -> Vec<CellId> {
        (0..self.side * self.side)
            .map(|code| self.cell_from_code(code as u16))
            .collect()
    }

    /// The typed request for `op`, the `seq`-th operation of the run.
    pub fn request(&self, op: Op, seq: u64) -> Request {
        let cell = self.home_cell(op.rank);
        let pair = || AlsPair {
            index: index_of(op.rank).to_vec(),
            payload: payload_of(seq).to_vec(),
        };
        match op.kind {
            OpKind::Update => Request::Update {
                cell,
                pairs: vec![pair()],
            },
            OpKind::Query => Request::Query {
                cell,
                index: index_of(op.rank).to_vec(),
                reply_loc: Point::ORIGIN,
            },
            OpKind::Forward => Request::Forward {
                from_cell: cell,
                to_cell: self.cell_from_code(op.to_cell),
                pairs: vec![pair()],
            },
        }
    }

    /// Encodes `op` as the uid-tagged wire frame a client sends.
    pub fn encode(&self, op: Op, seq: u64, uid: u64, out: &mut Vec<u8>) {
        encode_request(self.request(op, seq), uid, out);
    }
}

/// The sealed index for a key: 16 opaque bytes, like a truncated
/// `E_KB(A, B)` block.
pub fn index_of(rank: u32) -> [u8; 16] {
    let r = u64::from(rank);
    let mut index = [0u8; 16];
    index[..8].copy_from_slice(&r.to_be_bytes());
    index[8..].copy_from_slice(&(!r).wrapping_mul(0x9E37_79B9).to_be_bytes());
    index
}

/// The record the `seq`-th operation writes: its sequence number, then
/// filler derived from it.
pub fn payload_of(seq: u64) -> [u8; PAYLOAD_BYTES] {
    let mut payload = [0u8; PAYLOAD_BYTES];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    for (i, byte) in payload[8..].iter_mut().enumerate() {
        *byte = (seq as u8).wrapping_add(i as u8) ^ 0xC5;
    }
    payload
}

/// The sequence number a stored record carries, if it is one of ours.
pub fn seq_of(payload: &[u8]) -> Option<u64> {
    let seq = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    (payload == payload_of(seq)).then_some(seq)
}

/// Wraps a typed request in the canonical service framing.
pub fn encode_request(request: Request, uid: u64, out: &mut Vec<u8>) {
    let kind = match request {
        Request::Update { cell, pairs } => AlsNetKind::Update { cell, pairs },
        Request::Query {
            cell,
            index,
            reply_loc,
        } => AlsNetKind::Request {
            cell,
            index,
            reply_loc,
        },
        Request::Forward {
            from_cell,
            to_cell,
            pairs,
        } => AlsNetKind::Forward {
            from_cell,
            to_cell,
            pairs,
        },
    };
    encode_packet_into(
        &AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::ORIGIN,
            next: Pseudonym::LAST_ATTEMPT,
            uid,
            ttl: 1,
            kind,
        }),
        out,
    )
    .expect("benchmark frames are far below the wire codec's size limits");
}

/// Whether `reply` is the right *kind* of answer for `op`.
pub fn reply_matches(op: OpKind, reply: &AlsNetKind) -> bool {
    matches!(
        (op, reply),
        (
            OpKind::Update | OpKind::Forward,
            AlsNetKind::Ack { stored: 1 }
        ) | (OpKind::Query, AlsNetKind::Reply { .. } | AlsNetKind::Miss)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        update_pct: 70,
        query_pct: 29,
        keys: 50_000,
        zipf_s: 0.99,
        side: 16,
    };

    #[test]
    fn a_plan_is_a_pure_function_of_its_seed() {
        // The plan is built before any server exists, so no reply can
        // influence it; the same seed must give the same stream and a
        // prefix of a longer plan must equal the shorter plan.
        assert_eq!(MIX.plan(11, 5_000), MIX.plan(11, 5_000));
        assert_eq!(MIX.plan(11, 5_000)[..], MIX.plan(11, 9_000)[..5_000]);
        assert_ne!(MIX.plan(11, 5_000), MIX.plan(12, 5_000));
    }

    #[test]
    fn the_mix_is_honoured() {
        let plan = MIX.plan(5, 100_000);
        let share = |kind| plan.iter().filter(|op| op.kind == kind).count() as f64 / 1e5;
        assert!((share(OpKind::Update) - 0.70).abs() < 0.01);
        assert!((share(OpKind::Query) - 0.29).abs() < 0.01);
        assert!((share(OpKind::Forward) - 0.01).abs() < 0.005);
        assert!(plan
            .iter()
            .all(|op| (op.rank as usize) < MIX.keys && u32::from(op.to_cell) < 256));
    }

    #[test]
    fn payloads_carry_their_sequence_number() {
        for seq in [0, 1, 255, 256, 1 << 40] {
            assert_eq!(seq_of(&payload_of(seq)), Some(seq));
        }
        assert_eq!(seq_of(&[0xC5; PAYLOAD_BYTES]), None);
        assert_eq!(seq_of(&[1, 2, 3]), None);
    }

    #[test]
    fn frames_round_trip_through_the_wire_codec() {
        let op = Op {
            kind: OpKind::Forward,
            rank: 77,
            to_cell: 200,
        };
        let mut frame = Vec::new();
        MIX.encode(op, 9, 1234, &mut frame);
        let Ok(AgfwPacket::Als(message)) = agr_core::wire::decode_packet(&frame) else {
            panic!("frame must decode as a service message");
        };
        assert_eq!(message.uid, 1234);
        let AlsNetKind::Forward {
            from_cell,
            to_cell,
            pairs,
        } = message.kind
        else {
            panic!("kind survives the codec");
        };
        assert_eq!(from_cell, MIX.home_cell(77));
        assert_eq!(to_cell, CellId { col: 8, row: 12 });
        assert_eq!(seq_of(&pairs[0].payload), Some(9));
    }
}
