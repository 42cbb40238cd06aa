//! Adversarial-input fuzzing of the wire codec.
//!
//! An attacker who can inject frames controls every byte the decoder
//! sees, so [`decode_packet`] must be total: any input — random noise,
//! a truncated capture, or a replayed frame with flipped bits — returns
//! a [`WireError`], never a panic. Proptest drives three generators:
//! pure noise, strict prefixes of valid encodings, and single-bit
//! corruptions of valid encodings. Five hand-built frames check the
//! extension bytes that no longer announce anything and the NL-ACK count
//! that must be one.

use agr_core::packet::{AckRef, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet, WireError};
use agr_core::{AgfwData, AgfwPacket, TrapdoorWire};
use agr_geom::{CellId, Point};
use agr_sim::{FlowTag, NodeId, SimTime};
use proptest::prelude::*;

/// A corpus of valid packets covering every wire shape (hello, data,
/// NL-ACK, all twelve ALS kinds — the three
/// geo-routed ones, the service-transport Forward/Ack/Miss, the
/// anti-entropy SyncDigest/SyncDelta, the health/admission
/// Ping/Pong/Busy, and the telemetry StatsDump in both its
/// empty-request and filled-reply forms).
fn corpus() -> Vec<AgfwPacket> {
    let zero_tag = FlowTag {
        flow: 0,
        seq: 0,
        src: NodeId(0),
        sent_at: SimTime::ZERO,
    };
    let ack = |uid: u64, fill: u8| AckRef {
        uid,
        to: Pseudonym([fill; 6]),
    };
    let data = AgfwData {
        dst_loc: Point::new(1200.0, 280.5),
        next: Pseudonym([0xA1; 6]),
        trapdoor: TrapdoorWire::Modeled {
            dest: NodeId(17),
            nonce: 0xDEAD_BEEF,
        },
        uid: 0x0123_4567_89AB_CDEF,
        ttl: 62,
        payload_bytes: 64,
        tag: zero_tag,
    };
    vec![
        AgfwPacket::Hello {
            n: Pseudonym([9, 8, 7, 6, 5, 4]),
            loc: Point::new(300.25, -12.5),
            ts: SimTime::from_millis(12_345),
            auth: None,
        },
        AgfwPacket::Data(data),
        AgfwPacket::NlAck {
            ack: ack(u64::MAX, 0xEE),
        },
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(625.0, 125.0),
            next: Pseudonym([1; 6]),
            uid: 88,
            ttl: 30,
            kind: AlsNetKind::Update {
                cell: CellId { col: 3, row: 9 },
                pairs: vec![
                    AlsPair {
                        index: vec![0xAA; 16],
                        payload: vec![0xBB; 48],
                    },
                    AlsPair {
                        index: vec![],
                        payload: vec![0x01],
                    },
                ],
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(625.0, 125.0),
            next: Pseudonym([2; 6]),
            uid: 89,
            ttl: 30,
            kind: AlsNetKind::Request {
                cell: CellId { col: 3, row: 9 },
                index: vec![0xCD; 16],
                reply_loc: Point::new(40.0, 990.0),
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(40.0, 990.0),
            next: Pseudonym::LAST_ATTEMPT,
            uid: 90,
            ttl: 30,
            kind: AlsNetKind::Reply {
                payload: vec![0xEF; 56],
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(320.0, 640.0),
            next: Pseudonym([0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6]),
            uid: 0x77,
            ttl: 8,
            kind: AlsNetKind::Forward {
                from_cell: CellId { col: 2, row: 5 },
                to_cell: CellId { col: 3, row: 5 },
                pairs: vec![AlsPair {
                    index: vec![0x5A; 4],
                    payload: vec![0x6B; 3],
                }],
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(320.0, 640.0),
            next: Pseudonym([0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6]),
            uid: 0x78,
            ttl: 8,
            kind: AlsNetKind::Ack { stored: 2 },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(320.0, 640.0),
            next: Pseudonym([0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6]),
            uid: 0x79,
            ttl: 8,
            kind: AlsNetKind::Miss,
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC1; 6]),
            uid: 0x7A,
            ttl: 4,
            kind: AlsNetKind::SyncDigest {
                cell: CellId { col: 11, row: 2 },
                digest: 0xFEED_FACE_CAFE_F00D,
                count: 4_000,
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC2; 6]),
            uid: 0x7B,
            ttl: 4,
            kind: AlsNetKind::SyncDelta {
                cell: CellId { col: 11, row: 2 },
                pairs: vec![
                    AlsSyncPair {
                        index: vec![0x44; 16],
                        payload: vec![0x55; 40],
                        stored_at: SimTime::from_millis(98_765),
                    },
                    AlsSyncPair {
                        index: vec![],
                        payload: vec![0x66],
                        stored_at: SimTime::ZERO,
                    },
                ],
            },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC3; 6]),
            uid: 0x7C,
            ttl: 4,
            kind: AlsNetKind::Ping,
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC4; 6]),
            uid: 0x7D,
            ttl: 4,
            kind: AlsNetKind::Pong { queue_depth: 512 },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC5; 6]),
            uid: 0x7E,
            ttl: 4,
            kind: AlsNetKind::Busy,
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC6; 6]),
            uid: 0x7F,
            ttl: 4,
            kind: AlsNetKind::StatsDump { payload: vec![] },
        }),
        AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::new(100.0, 220.0),
            next: Pseudonym([0xC7; 6]),
            uid: 0x80,
            ttl: 4,
            kind: AlsNetKind::StatsDump {
                payload: b"# TYPE agr_als_serve_queries counter\nagr_als_serve_queries 7\n"
                    .to_vec(),
            },
        }),
    ]
}

/// The valid encodings the truncation and bit-flip generators start from.
fn encodings() -> Vec<Vec<u8>> {
    corpus()
        .iter()
        .map(|p| encode_packet(p).expect("corpus packets must encode"))
        .collect()
}

proptest! {
    /// Pure noise: the decoder returns (either way) on arbitrary bytes.
    /// A panic anywhere in the decode path fails the test.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_packet(&bytes);
    }

    /// Noise behind a valid packet-type tag reaches the per-kind field
    /// parsers rather than dying at the tag check.
    #[test]
    fn tagged_noise_never_panics(
        tag in 0u8..8,
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut framed = vec![tag];
        framed.extend_from_slice(&bytes);
        let _ = decode_packet(&framed);
    }

    /// Every strict prefix of a valid encoding is an error (the layout
    /// has no optional tail: cutting anywhere leaves a field unfinished),
    /// and never a panic.
    #[test]
    fn truncations_error_cleanly(which in 0usize..16, cut in 0.0f64..1.0) {
        let enc = &encodings()[which];
        let len = (cut * enc.len() as f64) as usize; // < enc.len(): strict
        prop_assert!(
            decode_packet(&enc[..len]).is_err(),
            "a {len}-byte prefix of a {}-byte packet decoded",
            enc.len()
        );
    }

    /// Single-bit corruption of a valid frame never panics; if the flip
    /// survives decoding, the result must also re-encode without
    /// panicking (a corrupt-but-parseable packet can be forwarded).
    #[test]
    fn bit_flips_never_panic(which in 0usize..16, bit in any::<u16>()) {
        let mut enc = encodings()[which].clone();
        let bit = usize::from(bit) % (enc.len() * 8);
        enc[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = decode_packet(&enc) {
            let _ = encode_packet(&decoded);
        }
    }
}

/// The empty input is the smallest truncation of all.
#[test]
fn empty_input_is_truncated() {
    assert!(decode_packet(&[]).is_err());
}

/// Frames in the five shapes the codec once accepted and no longer
/// does: a hello carrying a velocity (flag 1 + two f64s), a data packet
/// carrying a piggybacked ACK (count 1 + one uid/pseudonym entry), a data
/// packet in perimeter mode (mode 1 + entry and previous-hop positions),
/// and NL-ACKs batching zero or three ACKs. An attacker can still send
/// them; all are bad tags, not panics and not packets.
#[test]
fn former_extension_frames_are_rejected() {
    let mut hello = encode_packet(&AgfwPacket::Hello {
        n: Pseudonym([0xFF; 6]),
        loc: Point::new(0.0, 1500.0),
        ts: SimTime::from_secs(900),
        auth: None,
    })
    .unwrap();
    // type (1) + pseudonym (6) + loc (16), then the velocity flag.
    let flag = 1 + 6 + 16;
    assert_eq!(hello[flag], 0);
    hello[flag] = 1;
    hello.splice(flag + 1..flag + 1, [0x42; 16]);

    let data = encode_packet(&corpus().swap_remove(1)).unwrap();
    // The frame ends in the u16 ack count and the routing-mode byte.
    let count = data.len() - 3;
    assert_eq!(data[count..], [0, 0, 0]);
    let mut piggyback = data.clone();
    piggyback[count + 1] = 1;
    piggyback.splice(count + 2..count + 2, [0x42; 8 + 6]);
    let mut perimeter = data;
    *perimeter.last_mut().unwrap() = 1;
    perimeter.extend_from_slice(&[0x42; 16]);

    // type (1), then the u16 count, then one uid/pseudonym entry each.
    let nl_ack = |count: u8| {
        let mut frame = vec![2, 0, count];
        for uid in 0..count {
            frame.extend_from_slice(&u64::from(uid).to_be_bytes());
            frame.extend_from_slice(&[0x42; 6]);
        }
        frame
    };
    assert!(decode_packet(&nl_ack(1)).is_ok());

    for (frame, field, value) in [
        (hello, "hello velocity flag", 1),
        (piggyback, "piggybacked ack count", 1),
        (perimeter, "routing mode", 1),
        (nl_ack(0), "nl-ack count", 0),
        (nl_ack(3), "nl-ack count", 3),
    ] {
        assert_eq!(
            decode_packet(&frame),
            Err(WireError::BadTag { field, value })
        );
    }
}
