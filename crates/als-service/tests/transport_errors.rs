//! Transport error paths: the serve loop must treat every malformed
//! input as data, not as a fault — truncated datagrams, oversize frames,
//! unknown frame kinds, and plain garbage are counted in `bad_frames`
//! and dropped, while the loop keeps answering well-formed requests.
//! Nothing in here may panic or wedge a node.

use agr_als_service::pipeline::{Engine, EngineConfig};
use agr_als_service::service::{serve_batched, AlsClient, BatchConfig, ServeStats};
use agr_als_service::store::StoreConfig;
use agr_als_service::transport::{loopback_pair, Transport, UdpClient, UdpServer, MAX_FRAME};
use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage, AlsPair, AlsSyncPair};
use agr_core::pseudonym::Pseudonym;
use agr_core::wire::{decode_packet, encode_packet};
use agr_geom::{CellId, Point};
use agr_sim::SimTime;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CELL: CellId = CellId { col: 2, row: 7 };

fn small_engine() -> Engine {
    Engine::start(EngineConfig {
        store: StoreConfig {
            shards: 2,
            ttl: None,
            capacity_per_shard: None,
        },
        workers: 1,
        queue_depth: 64,
        batch_max: 16,
        compact_every: None,
        shed_watermark: None,
    })
}

fn encoded(kind: AlsNetKind) -> Vec<u8> {
    encoded_uid(77, kind)
}

fn encoded_uid(uid: u64, kind: AlsNetKind) -> Vec<u8> {
    encode_packet(&AgfwPacket::Als(AlsNetMessage {
        target_loc: Point::ORIGIN,
        next: Pseudonym::LAST_ATTEMPT,
        uid,
        ttl: 1,
        kind,
    }))
    .expect("service frames always encode")
}

/// A well-formed Miss frame with its kind tag (the final byte of the
/// encoding) rewritten to an unassigned value — a frame from a newer or
/// hostile peer speaking an unknown dialect.
fn unknown_kind_frame() -> Vec<u8> {
    let mut bytes = encoded(AlsNetKind::Miss);
    *bytes.last_mut().expect("non-empty frame") = 0x2A;
    bytes
}

/// Spawns a serve loop over a UDP server socket; returns the address,
/// the stop flag, and the join handle yielding the final tally.
fn spawn_udp_server(
    engine: Arc<Engine>,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<ServeStats>,
) {
    let mut server = UdpServer::bind(("127.0.0.1", 0)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server, BatchConfig::default(), &stop)
        })
    };
    (addr, stop, handle)
}

#[test]
fn udp_server_survives_truncated_and_garbage_datagrams() {
    let engine = Arc::new(small_engine());
    let (addr, stop, server) = spawn_udp_server(engine);
    let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
    raw.connect(addr).expect("connect raw");

    // Truncations of a real frame: every proper prefix must be counted
    // and dropped, never panic the decoder or the loop. (A zero-length
    // datagram is valid UDP; it simply fails to decode.)
    let update = encoded(AlsNetKind::Update {
        cell: CELL,
        pairs: vec![AlsPair {
            index: vec![1; 16],
            payload: vec![1, 2, 3],
        }],
    });
    let cut_points = [0, 1, 2, update.len() / 2, update.len() - 1];
    for &cut in &cut_points {
        raw.send(&update[..cut]).expect("send truncated");
    }
    // Truncated sync frames exercise the newest decode arms.
    let digest = encoded(AlsNetKind::SyncDigest {
        cell: CELL,
        digest: 0xDEAD_BEEF,
        count: 3,
    });
    raw.send(&digest[..digest.len() - 5])
        .expect("send truncated");
    let delta = encoded(AlsNetKind::SyncDelta {
        cell: CELL,
        pairs: vec![AlsSyncPair {
            index: vec![4; 16],
            payload: vec![9, 9],
            stored_at: SimTime::from_secs(2),
        }],
    });
    raw.send(&delta[..delta.len() / 2]).expect("send truncated");
    // An unknown frame kind and plain garbage.
    raw.send(&unknown_kind_frame()).expect("send unknown kind");
    raw.send(&[0xFF; 40]).expect("send garbage");
    let bad_sent = cut_points.len() as u64 + 4;

    // The loop is still alive and answering: a real client roundtrips.
    let mut client = AlsClient::new(UdpClient::connect(addr).expect("connect"));
    assert_eq!(
        client
            .update(
                CELL,
                vec![AlsPair {
                    index: vec![8; 16],
                    payload: vec![8, 0xAA],
                }],
            )
            .expect("server must still answer"),
        1
    );
    assert_eq!(
        client.query(CELL, vec![8; 16]).expect("query"),
        Some(vec![8, 0xAA])
    );

    stop.store(true, Ordering::Release);
    let stats = server.join().expect("serve loop must not panic");
    assert_eq!(
        stats.bad_frames, bad_sent,
        "every malformed datagram is counted"
    );
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.queries, 1);
}

#[test]
fn oversize_frames_are_dropped_before_the_decoder() {
    // UDP cannot carry a >64 KiB datagram, so the oversize path is
    // exercised over the loopback transport, which has no inherent
    // frame bound.
    let engine = small_engine();
    let (mut client_side, mut server_side) = loopback_pair(16);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };

    // One byte past the bound: dropped and counted, even though the
    // bytes might decode (the loop must bound its work first).
    client_side
        .send(&vec![0xAB; MAX_FRAME + 1])
        .expect("send oversize");
    // Far past the bound.
    client_side
        .send(&vec![0xCD; MAX_FRAME * 4])
        .expect("send oversize");
    // Exactly at the bound: *not* oversize; it fails as garbage instead.
    client_side
        .send(&vec![0xEF; MAX_FRAME])
        .expect("send at bound");

    // The loop still answers a real request afterwards.
    let mut client = AlsClient::new(client_side);
    assert_eq!(client.query(CELL, vec![1; 16]).expect("query"), None);

    stop.store(true, Ordering::Release);
    let stats = server.join().expect("serve loop must not panic");
    assert_eq!(stats.bad_frames, 3, "two oversize + one garbage at bound");
    assert_eq!(stats.queries, 1);
}

#[test]
fn unknown_kind_and_unsolicited_answers_are_not_answered() {
    let engine = Arc::new(small_engine());
    let (addr, stop, server) = spawn_udp_server(engine);
    let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
    raw.connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");

    // An unknown kind tag gets no reply (it failed to decode) …
    raw.send(&unknown_kind_frame()).expect("send");
    // … and neither do well-formed *answer* frames arriving at a server
    // (Ack/Reply/Miss are ignored, not echoed back — no reply loops).
    raw.send(&encoded(AlsNetKind::Ack { stored: 3 }))
        .expect("send");
    raw.send(&encoded(AlsNetKind::Reply {
        payload: vec![1, 2],
    }))
    .expect("send");
    raw.send(&encoded(AlsNetKind::Miss)).expect("send");

    let mut buf = [0u8; 128];
    assert!(
        raw.recv(&mut buf).is_err(),
        "server must stay silent on undecodable or non-request frames"
    );

    stop.store(true, Ordering::Release);
    let stats = server.join().expect("serve loop must not panic");
    assert_eq!(stats.bad_frames, 1, "the unknown kind");
    assert_eq!(stats.ignored, 3, "the three unsolicited answers");
    assert_eq!(stats.updates + stats.queries + stats.forwards, 0);
}

#[test]
fn bad_frames_inside_a_batch_are_skipped_without_poisoning_the_batch() {
    // One batch mixing well-formed requests with garbage, a truncation,
    // and an oversize frame: the serve loop must count and skip
    // every bad frame while answering every good one — a poisoned
    // neighbor never takes down the rest of its batch.
    let engine = small_engine();
    let (mut client_side, mut server_side) = loopback_pair(64);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };

    let update = encoded_uid(
        1,
        AlsNetKind::Update {
            cell: CELL,
            pairs: vec![AlsPair {
                index: vec![6; 16],
                payload: vec![6, 0xBB],
            }],
        },
    );
    let truncated = &update[..update.len() - 3];
    let hit_query = encoded_uid(
        3,
        AlsNetKind::Request {
            cell: CELL,
            index: vec![6; 16],
            reply_loc: Point::ORIGIN,
        },
    );
    let miss_query = encoded_uid(
        4,
        AlsNetKind::Request {
            cell: CELL,
            index: vec![7; 16],
            reply_loc: Point::ORIGIN,
        },
    );
    let garbage = vec![0xFF; 24];
    let oversize = vec![0xAB; MAX_FRAME + 1];
    let batch: Vec<&[u8]> = vec![
        &update,
        &garbage,
        truncated,
        &hit_query,
        &oversize,
        &miss_query,
    ];
    assert_eq!(
        client_side.send_batch(&batch).expect("loopback batch send"),
        batch.len()
    );

    // Three answers, in submission order (the batch path preserves it):
    // the update's ack, the in-batch-visible hit, then the miss.
    let mut answers = Vec::new();
    while answers.len() < 3 {
        match client_side.recv() {
            Ok(bytes) => {
                let AgfwPacket::Als(m) = decode_packet(&bytes).expect("server sends valid frames")
                else {
                    panic!("server answers with ALS frames only");
                };
                answers.push((m.uid, m.kind));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("loopback recv failed: {e:?}"),
        }
    }
    assert_eq!(answers[0], (1, AlsNetKind::Ack { stored: 1 }));
    assert_eq!(
        answers[1],
        (
            3,
            AlsNetKind::Reply {
                payload: vec![6, 0xBB],
            }
        ),
        "a query later in the batch must see an earlier in-batch update"
    );
    assert_eq!(answers[2], (4, AlsNetKind::Miss));

    stop.store(true, Ordering::Release);
    let stats = server.join().expect("serve loop must not panic");
    assert_eq!(stats.bad_frames, 3, "garbage + truncated + oversize");
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.queries, 2);
    assert!(stats.batches >= 1, "the batch path must have run");
}

#[test]
fn client_times_out_cleanly_against_a_silent_peer() {
    // A socket that swallows frames: the client must return TimedOut
    // (or ConnectionRefused once the peer closes), never hang or panic.
    let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
    let addr = sink.local_addr().expect("addr");
    let mut client = AlsClient::new(UdpClient::connect(addr).expect("connect"));
    let started = std::time::Instant::now();
    let err = client
        .query(CELL, vec![5; 16])
        .expect_err("no answer can arrive");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ),
        "unexpected error: {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "timeout must be bounded"
    );
}
