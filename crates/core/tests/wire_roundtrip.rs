//! Golden round-trip tests for the AGFW wire codec.
//!
//! Retransmission is the reason these exist: under fault injection a
//! forwarder may re-broadcast a packet it only holds in decoded form, so
//! `encode(decode(encode(p)))` must equal `encode(p)` byte-for-byte for
//! every packet shape — otherwise uid-keyed ACK matching, duplicate
//! suppression, and trapdoor flow markers diverge downstream.

use agr_core::packet::{AckRef, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair, HelloAuth};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet, WireError};
use agr_core::{AgfwData, AgfwPacket, TrapdoorWire};
use agr_crypto::ring_sig::ring_sign;
use agr_crypto::rsa::RsaKeyPair;
use agr_crypto::trapdoor::Trapdoor;
use agr_geom::{CellId, Point};
use agr_sim::{FlowTag, NodeId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The zeroed accounting tag `decode_packet` restores (never on the wire).
fn zero_tag() -> FlowTag {
    FlowTag {
        flow: 0,
        seq: 0,
        src: NodeId(0),
        sent_at: SimTime::ZERO,
    }
}

/// Asserts the codec contract on one packet: the decoded value equals the
/// original and the re-encoding is byte-identical.
fn assert_roundtrip(packet: &AgfwPacket) {
    let bytes = encode_packet(packet).expect("encode");
    let decoded = decode_packet(&bytes).expect("decode");
    assert_eq!(&decoded, packet, "decode must invert encode");
    let again = encode_packet(&decoded).expect("re-encode");
    assert_eq!(again, bytes, "re-encoding must be byte-identical");
}

fn ack(uid: u64, fill: u8) -> AckRef {
    AckRef {
        uid,
        to: Pseudonym([fill; 6]),
    }
}

/// A canonical data packet.
fn data_packet() -> AgfwPacket {
    AgfwPacket::Data(AgfwData {
        dst_loc: Point::new(1200.0, 280.5),
        next: Pseudonym([0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6]),
        trapdoor: TrapdoorWire::Modeled {
            dest: NodeId(17),
            nonce: 0xDEAD_BEEF_0042,
        },
        uid: 0x0123_4567_89AB_CDEF,
        ttl: 62,
        payload_bytes: 64,
        tag: zero_tag(),
    })
}

#[test]
fn hello_roundtrips() {
    assert_roundtrip(&AgfwPacket::Hello {
        n: Pseudonym([9, 8, 7, 6, 5, 4]),
        loc: Point::new(300.25, -12.5),
        ts: SimTime::from_millis(12_345),
        auth: None,
    });
}

#[test]
fn data_roundtrips() {
    assert_roundtrip(&data_packet());
}

#[test]
fn real_trapdoor_roundtrips_and_still_opens() {
    let mut rng = StdRng::seed_from_u64(7);
    let keys = RsaKeyPair::generate(512, &mut rng).unwrap();
    let sealed = Trapdoor::seal(keys.public(), 42, Point::new(5.0, 6.0), &mut rng).unwrap();
    let packet = AgfwPacket::Data(AgfwData {
        dst_loc: Point::new(10.0, 20.0),
        next: Pseudonym::LAST_ATTEMPT,
        trapdoor: TrapdoorWire::Real(sealed),
        uid: 3,
        ttl: 1,
        payload_bytes: 512,
        tag: zero_tag(),
    });
    assert_roundtrip(&packet);
    // The decoded ciphertext is not just byte-equal: the destination can
    // still open it.
    let decoded = decode_packet(&encode_packet(&packet).unwrap()).unwrap();
    let AgfwPacket::Data(AgfwData {
        trapdoor: TrapdoorWire::Real(t),
        ..
    }) = decoded
    else {
        panic!("decoded packet lost its trapdoor")
    };
    let contents = t.try_open(&keys).expect("trapdoor must still open");
    assert_eq!(contents.src, 42);
}

#[test]
fn nl_ack_roundtrips() {
    assert_roundtrip(&AgfwPacket::NlAck { acks: vec![] });
    assert_roundtrip(&AgfwPacket::NlAck {
        acks: vec![ack(1, 1), ack(2, 2), ack(u64::MAX, 0xEE)],
    });
}

#[test]
fn als_messages_roundtrip() {
    let cell = CellId { col: 3, row: 9 };
    let update = AlsNetMessage {
        target_loc: Point::new(625.0, 125.0),
        next: Pseudonym([1; 6]),
        uid: 88,
        ttl: 30,
        kind: AlsNetKind::Update {
            cell,
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
    };
    assert_roundtrip(&AgfwPacket::Als(update));
    let request = AlsNetMessage {
        target_loc: Point::new(625.0, 125.0),
        next: Pseudonym([2; 6]),
        uid: 89,
        ttl: 30,
        kind: AlsNetKind::Request {
            cell,
            index: vec![0xCD; 16],
            reply_loc: Point::new(40.0, 990.0),
        },
    };
    assert_roundtrip(&AgfwPacket::Als(request));
    let reply = AlsNetMessage {
        target_loc: Point::new(40.0, 990.0),
        next: Pseudonym::LAST_ATTEMPT,
        uid: 90,
        ttl: 30,
        kind: AlsNetKind::Reply {
            payload: vec![0xEF; 56],
        },
    };
    assert_roundtrip(&AgfwPacket::Als(reply));
}

/// The canonical service frame carrying `kind`, shared by the service
/// round-trip and golden tests.
fn service_frame(uid: u64, kind: AlsNetKind) -> AgfwPacket {
    AgfwPacket::Als(AlsNetMessage {
        target_loc: Point::new(320.0, 640.0),
        next: Pseudonym([0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6]),
        uid,
        ttl: 8,
        kind,
    })
}

#[test]
fn als_service_frames_roundtrip() {
    let pairs = vec![
        AlsPair {
            index: vec![0x5A; 4],
            payload: vec![0x6B; 3],
        },
        AlsPair {
            index: vec![],
            payload: vec![],
        },
    ];
    assert_roundtrip(&service_frame(
        0x77,
        AlsNetKind::Forward {
            from_cell: CellId { col: 2, row: 5 },
            to_cell: CellId { col: 3, row: 5 },
            pairs,
        },
    ));
    // A forward may be empty (a departing server with nothing stored).
    assert_roundtrip(&service_frame(
        0x7A,
        AlsNetKind::Forward {
            from_cell: CellId { col: 0, row: 0 },
            to_cell: CellId {
                col: u32::MAX,
                row: u32::MAX,
            },
            pairs: vec![],
        },
    ));
    assert_roundtrip(&service_frame(0x78, AlsNetKind::Ack { stored: 2 }));
    assert_roundtrip(&service_frame(
        u64::MAX,
        AlsNetKind::Ack { stored: u32::MAX },
    ));
    assert_roundtrip(&service_frame(0x79, AlsNetKind::Miss));
}

#[test]
fn als_sync_frames_roundtrip() {
    let cell = CellId { col: 11, row: 2 };
    assert_roundtrip(&service_frame(
        0x7A,
        AlsNetKind::SyncDigest {
            cell,
            digest: 0xFEED_FACE_CAFE_F00D,
            count: 4_000,
        },
    ));
    // A digest of an empty cell is a legal probe.
    assert_roundtrip(&service_frame(
        0x7B,
        AlsNetKind::SyncDigest {
            cell: CellId { col: 0, row: 0 },
            digest: 0,
            count: 0,
        },
    ));
    assert_roundtrip(&service_frame(
        0x7C,
        AlsNetKind::SyncDelta {
            cell,
            pairs: vec![
                AlsSyncPair {
                    index: vec![0x44; 16],
                    payload: vec![0x55; 40],
                    stored_at: SimTime::from_millis(98_765),
                },
                AlsSyncPair {
                    index: vec![],
                    payload: vec![],
                    stored_at: SimTime::ZERO,
                },
            ],
        },
    ));
    // An empty delta (a cell that emptied between digest and push).
    assert_roundtrip(&service_frame(
        0x7D,
        AlsNetKind::SyncDelta {
            cell,
            pairs: vec![],
        },
    ));
}

#[test]
fn als_health_frames_roundtrip() {
    assert_roundtrip(&service_frame(0x7E, AlsNetKind::Ping));
    assert_roundtrip(&service_frame(0x7F, AlsNetKind::Pong { queue_depth: 0 }));
    assert_roundtrip(&service_frame(
        u64::MAX,
        AlsNetKind::Pong {
            queue_depth: u32::MAX,
        },
    ));
    assert_roundtrip(&service_frame(0x80, AlsNetKind::Busy));
}

#[test]
fn als_stats_dump_frames_roundtrip() {
    // The empty payload is the scrape *request* form.
    assert_roundtrip(&service_frame(
        0x81,
        AlsNetKind::StatsDump { payload: vec![] },
    ));
    // The reply carries Prometheus text — arbitrary bytes on the wire.
    assert_roundtrip(&service_frame(
        0x82,
        AlsNetKind::StatsDump {
            payload: b"# TYPE agr_als_serve_queries counter\nagr_als_serve_queries 7\n".to_vec(),
        },
    ));
    // The u16 length prefix caps a dump at 65535 bytes; the boundary
    // value must survive the trip.
    assert_roundtrip(&service_frame(
        0x83,
        AlsNetKind::StatsDump {
            payload: vec![0x5F; u16::MAX as usize],
        },
    ));
}

/// A sub-tag one past `StatsDump` (the highest assigned ALS kind) must
/// still decode to an error, not a panic — adding the telemetry frame
/// must not have changed how unknown tags are handled.
#[test]
fn unknown_als_kind_tag_still_errors() {
    let valid = encode_packet(&service_frame(
        0x81,
        AlsNetKind::StatsDump { payload: vec![] },
    ))
    .unwrap();
    // The kind tag sits right after the 31-byte ALS header
    // (type + target_loc + pseudonym + uid + ttl).
    let tag_at = 1 + 8 + 8 + 6 + 8 + 1;
    assert_eq!(valid[tag_at], 0x0b, "StatsDump must encode as tag 11");
    let mut unknown = valid;
    unknown[tag_at] = 0x0c;
    assert!(decode_packet(&unknown).is_err());
}

/// Pinned encodings of the service-transport and anti-entropy frames. The
/// standalone ALS service speaks these between independently deployed
/// clients and servers, so the same compatibility warning applies as
/// for the data golden below: changing these bytes is a protocol break.
#[test]
fn golden_als_service_encodings_are_stable() {
    let hex = |packet: &AgfwPacket| -> String {
        encode_packet(packet)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    };
    let forward = service_frame(
        0x77,
        AlsNetKind::Forward {
            from_cell: CellId { col: 2, row: 5 },
            to_cell: CellId { col: 3, row: 5 },
            pairs: vec![AlsPair {
                index: vec![0x5A; 4],
                payload: vec![0x6B; 3],
            }],
        },
    );
    assert_eq!(
        hex(&forward),
        concat!(
            "03",               // packet type: ALS
            "4074000000000000", // target_loc.x = 320.0
            "4084000000000000", // target_loc.y = 640.0
            "b1b2b3b4b5b6",     // next-relay pseudonym
            "0000000000000077", // uid
            "08",               // ttl
            "03",               // ALS kind: Forward
            "00000002",
            "00000005", // from_cell (2, 5)
            "00000003",
            "00000005", // to_cell (3, 5)
            "0001",     // pair count
            "0004",
            "5a5a5a5a", // index
            "0003",
            "6b6b6b", // payload
        )
    );
    let ack = service_frame(0x78, AlsNetKind::Ack { stored: 2 });
    assert_eq!(
        hex(&ack),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "0000000000000078", // uid
            "08",               // ttl
            "04",               // ALS kind: Ack
            "00000002",         // stored count
        )
    );
    let miss = service_frame(0x79, AlsNetKind::Miss);
    assert_eq!(
        hex(&miss),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "0000000000000079", // uid
            "08",               // ttl
            "05",               // ALS kind: Miss
        )
    );
    // The anti-entropy frames the cluster replicas speak to each other.
    let digest = service_frame(
        0x7A,
        AlsNetKind::SyncDigest {
            cell: CellId { col: 11, row: 2 },
            digest: 0xFEED_FACE_CAFE_F00D,
            count: 4_000,
        },
    );
    assert_eq!(
        hex(&digest),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "000000000000007a", // uid
            "08",               // ttl
            "06",               // ALS kind: SyncDigest
            "0000000b",
            "00000002",         // cell (11, 2)
            "feedfacecafef00d", // digest
            "00000fa0",         // record count 4000
        )
    );
    let delta = service_frame(
        0x7C,
        AlsNetKind::SyncDelta {
            cell: CellId { col: 11, row: 2 },
            pairs: vec![AlsSyncPair {
                index: vec![0x44; 4],
                payload: vec![0x55; 3],
                stored_at: SimTime::from_nanos(0x0102_0304_0506_0708),
            }],
        },
    );
    assert_eq!(
        hex(&delta),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "000000000000007c", // uid
            "08",               // ttl
            "07",               // ALS kind: SyncDelta
            "0000000b",
            "00000002", // cell (11, 2)
            "0001",     // sync pair count
            "0004",
            "44444444", // index
            "0003",
            "555555",           // payload
            "0102030405060708", // stored_at (nanos)
        )
    );
    // The failure-detector heartbeat and admission-control frames.
    let ping = service_frame(0x7E, AlsNetKind::Ping);
    assert_eq!(
        hex(&ping),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "000000000000007e", // uid
            "08",               // ttl
            "08",               // ALS kind: Ping
        )
    );
    let pong = service_frame(0x7F, AlsNetKind::Pong { queue_depth: 37 });
    assert_eq!(
        hex(&pong),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "000000000000007f", // uid
            "08",               // ttl
            "09",               // ALS kind: Pong
            "00000025",         // queue depth 37
        )
    );
    let busy = service_frame(0x80, AlsNetKind::Busy);
    assert_eq!(
        hex(&busy),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "0000000000000080", // uid
            "08",               // ttl
            "0a",               // ALS kind: Busy
        )
    );
    // The telemetry scrape frame: empty payload asks, bytes answer.
    let scrape = service_frame(0x81, AlsNetKind::StatsDump { payload: vec![] });
    assert_eq!(
        hex(&scrape),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "0000000000000081", // uid
            "08",               // ttl
            "0b",               // ALS kind: StatsDump
            "0000",             // payload length 0: a request
        )
    );
    let dump = service_frame(
        0x82,
        AlsNetKind::StatsDump {
            payload: vec![0x23, 0x20],
        },
    );
    assert_eq!(
        hex(&dump),
        concat!(
            "03",
            "4074000000000000",
            "4084000000000000",
            "b1b2b3b4b5b6",
            "0000000000000082", // uid
            "08",               // ttl
            "0b",               // ALS kind: StatsDump
            "0002",             // payload length
            "2320",             // "# " — the dump bytes verbatim
        )
    );
}

/// The pinned byte-for-byte encoding of [`data_packet`].
/// If this golden changes, the wire format changed: every deployed node
/// would disagree with every updated one, so bump deliberately.
#[test]
fn golden_data_encoding_is_stable() {
    let bytes = encode_packet(&data_packet()).unwrap();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let golden = concat!(
        "01", // packet type: DATA
        "4092c00000000000",
        "4071880000000000", // dst_loc (1200.0, 280.5)
        "a1a2a3a4a5a6",     // next-relay pseudonym
        "00",
        "00000011",
        "0000deadbeef0042", // modeled trapdoor: dest 17, nonce
        "0123456789abcdef", // uid
        "3e",               // ttl 62
        "00000040",         // payload_bytes 64
        "0000",             // ack count: always 0
        "00",               // routing mode: always 0
    );
    assert_eq!(hex, golden);
}

#[test]
fn decode_tolerates_any_flow_tag_on_encode_side() {
    // The accounting tag is excluded from the wire: two packets differing
    // only in their tag encode identically.
    let AgfwPacket::Data(d) = data_packet() else {
        unreachable!()
    };
    let mut tagged = d.clone();
    tagged.tag = FlowTag {
        flow: 5,
        seq: 1000,
        src: NodeId(33),
        sent_at: SimTime::from_secs(17),
    };
    assert_eq!(
        encode_packet(&AgfwPacket::Data(d)).unwrap(),
        encode_packet(&AgfwPacket::Data(tagged)).unwrap(),
    );
}

#[test]
fn authenticated_hello_refuses_to_encode() {
    let mut rng = StdRng::seed_from_u64(11);
    let signer = RsaKeyPair::generate(128, &mut rng).unwrap();
    let other = RsaKeyPair::generate(128, &mut rng).unwrap();
    let ring = vec![signer.public().clone(), other.public().clone()];
    let signature = ring_sign(b"hello", &ring, 0, &signer, &mut rng).unwrap();
    let packet = AgfwPacket::Hello {
        n: Pseudonym([3; 6]),
        loc: Point::ORIGIN,
        ts: SimTime::ZERO,
        auth: Some(HelloAuth {
            ring_ids: vec![1, 2],
            signature,
        }),
    };
    assert_eq!(
        encode_packet(&packet),
        Err(WireError::Unsupported("ring-signed hello auth"))
    );
}
