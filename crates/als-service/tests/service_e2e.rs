//! End-to-end service tests: a real serve loop behind each transport.
//!
//! The loopback path is exercised further in the `service` unit tests;
//! here the same request flow runs over UDP between two sockets, plus a
//! concurrency smoke where many client threads hammer one engine
//! through bounded queues.

use agr_als_service::pipeline::{Engine, EngineConfig, Request, Response};
use agr_als_service::service::{serve_batched, AlsClient, BatchConfig};
use agr_als_service::store::StoreConfig;
use agr_als_service::transport::{loopback_pair, UdpClient, UdpServer};
use agr_core::packet::AlsPair;
use agr_geom::{CellId, Point};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const CELL: CellId = CellId { col: 10, row: 20 };

fn pair(i: u8) -> AlsPair {
    AlsPair {
        index: vec![i; 24],
        payload: vec![0xCC, i],
    }
}

#[test]
fn udp_update_query_forward_roundtrip() {
    // Over a real UDP socket — on Linux every receive and reply rides
    // recvmmsg/sendmmsg, and every frame buffer comes from (and returns
    // to) the pools.
    let engine = Arc::new(Engine::start(EngineConfig::default()));
    let mut server_side = UdpServer::bind(("127.0.0.1", 0)).expect("bind");
    let addr = server_side.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };

    let mut client = AlsClient::new(UdpClient::connect(addr).expect("connect"));
    assert_eq!(
        client
            .update(CELL, vec![pair(1), pair(2), pair(3)])
            .unwrap(),
        3
    );
    assert_eq!(
        client.query(CELL, vec![2; 24]).unwrap(),
        Some(vec![0xCC, 2])
    );
    assert_eq!(client.query(CELL, vec![0xEE; 24]).unwrap(), None);

    let new_home = CellId { col: 11, row: 21 };
    assert_eq!(client.forward(CELL, new_home, vec![pair(2)]).unwrap(), 1);
    assert_eq!(client.query(CELL, vec![2; 24]).unwrap(), None);
    assert_eq!(
        client.query(new_home, vec![2; 24]).unwrap(),
        Some(vec![0xCC, 2])
    );

    stop.store(true, Ordering::Release);
    let stats = server.join().unwrap();
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.forwards, 1);
    assert_eq!(stats.queries, 4);
    assert_eq!(stats.hits, 2);
    assert!(stats.batches >= 1, "the batched path must have run");
    assert!(
        stats.pool_hits + stats.pool_misses >= stats.batches,
        "every batch draws at least one pooled frame"
    );

    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("all clients have joined; this is the sole handle")
    };
    let store = engine.shutdown();
    assert_eq!(store.len(), 3);
}

#[test]
fn many_loopback_clients_share_one_engine() {
    // Small queues force backpressure while 8 client threads interleave
    // updates and queries; every client must see its own writes.
    let engine = Arc::new(Engine::start(EngineConfig {
        store: StoreConfig {
            shards: 4,
            ttl: None,
            capacity_per_shard: None,
        },
        workers: 4,
        queue_depth: 8,
        batch_max: 16,
        compact_every: None,
        shed_watermark: None,
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for client_id in 0u8..8 {
        let (client_side, mut server_side) = loopback_pair(4);
        let engine = engine.clone();
        let stop = stop.clone();
        servers.push(std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        }));
        clients.push(std::thread::spawn(move || {
            let mut client = AlsClient::new(client_side);
            for round in 0u8..25 {
                let index = vec![client_id, round, 0x55];
                let stored = client
                    .update(
                        CELL,
                        vec![AlsPair {
                            index: index.clone(),
                            payload: vec![client_id, round],
                        }],
                    )
                    .expect("update");
                assert_eq!(stored, 1);
                assert_eq!(
                    client.query(CELL, index).expect("query"),
                    Some(vec![client_id, round]),
                    "client {client_id} lost round {round}"
                );
            }
        }));
    }
    for c in clients {
        c.join().expect("client panicked");
    }
    stop.store(true, Ordering::Release);
    let mut answered = 0;
    for s in servers {
        answered += s.join().unwrap().queries;
    }
    assert_eq!(answered, 8 * 25);
    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("all clients have joined; this is the sole handle")
    };
    let store = engine.shutdown();
    assert_eq!(store.len(), 8 * 25);
    assert_eq!(store.stats().hits, 8 * 25);
}

#[test]
fn direct_engine_calls_honor_reply_locations() {
    // The engine itself ignores reply_loc (transports own routing), but
    // it must carry any Point without affecting answers.
    let engine = Engine::start(EngineConfig::default());
    engine.submit(Request::Update {
        cell: CELL,
        pairs: vec![pair(9)],
    });
    let answer = engine.call(Request::Query {
        cell: CELL,
        index: vec![9; 24],
        reply_loc: Point::new(1234.5, -9.75),
    });
    assert_eq!(
        answer,
        Response::Hit {
            payload: vec![0xCC, 9]
        }
    );
    engine.shutdown();
}

#[test]
fn batch_admission_sheds_overflow_but_answers_every_frame() {
    use agr_als_service::transport::Transport;
    use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage};
    use agr_core::pseudonym::Pseudonym;
    use agr_core::wire::{decode_packet, encode_packet};
    use std::collections::BTreeMap;

    // Watermark 1, one batch of five updates plus a ping, delivered
    // atomically over loopback: batch admission must account for the
    // requests it already admitted *within* the batch (one oversized
    // batch cannot blow through the watermark), every shed request must
    // still get its uid-echoed `Busy`, and the ping must pong.
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        queue_depth: 4,
        shed_watermark: Some(1),
        ..EngineConfig::default()
    }));
    let (mut client_side, mut server_side) = loopback_pair(16);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };

    let encoded = |uid: u64, kind: AlsNetKind| {
        encode_packet(&AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::ORIGIN,
            next: Pseudonym::LAST_ATTEMPT,
            uid,
            ttl: 1,
            kind,
        }))
        .expect("encode request")
    };
    let frames: Vec<Vec<u8>> = (1u64..=5)
        .map(|uid| {
            encoded(
                uid,
                AlsNetKind::Update {
                    cell: CELL,
                    pairs: vec![pair(uid as u8)],
                },
            )
        })
        .chain(std::iter::once(encoded(6, AlsNetKind::Ping)))
        .collect();
    let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    // `push_batch` publishes all six frames under one lock hold, so the
    // serve loop drains them as exactly one batch.
    assert_eq!(client_side.send_batch(&refs).expect("batch send"), 6);

    let mut answers: BTreeMap<u64, AlsNetKind> = BTreeMap::new();
    while answers.len() < 6 {
        match client_side.recv() {
            Ok(bytes) => {
                let AgfwPacket::Als(m) = decode_packet(&bytes).expect("decode response") else {
                    panic!("serve answers with ALS frames only");
                };
                answers.insert(m.uid, m.kind);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) => {}
            Err(e) => panic!("loopback recv failed: {e}"),
        }
    }
    assert_eq!(
        answers.remove(&1),
        Some(AlsNetKind::Ack { stored: 1 }),
        "the first update fits under the watermark"
    );
    for uid in 2u64..=5 {
        assert_eq!(
            answers.remove(&uid),
            Some(AlsNetKind::Busy),
            "in-batch admission must shed update {uid}"
        );
    }
    assert!(
        matches!(answers.remove(&6), Some(AlsNetKind::Pong { .. })),
        "the ping must be answered even while the batch sheds"
    );

    stop.store(true, Ordering::Release);
    let stats = server.join().unwrap();
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.updates, 1);
    assert_eq!(stats.pings, 1);
    assert!(stats.batches >= 1);
    assert_eq!(engine.shed_count(), 4);
}

#[test]
fn saturated_engine_answers_busy_but_still_pongs() {
    use agr_als_service::transport::Transport;
    use agr_core::packet::{AgfwPacket, AlsNetKind, AlsNetMessage};
    use agr_core::pseudonym::Pseudonym;
    use agr_core::wire::{decode_packet, encode_packet};

    // One worker, watermark 1: while the worker chews two deliberately
    // huge fire-and-forget updates, the (single) queue depth stays >= 1,
    // so admission control must answer every data request with `Busy`
    // (echoing the uid, so retries can correlate it), count the shed,
    // and keep answering `Ping` — health probes must not starve under
    // overload, or a busy node would look dead to the failure detector.
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        queue_depth: 4,
        shed_watermark: Some(1),
        ..EngineConfig::default()
    }));
    let (mut client_side, mut server_side) = loopback_pair(8);
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };

    let mut ask = |uid: u64, kind: AlsNetKind| -> AlsNetKind {
        let frame = encode_packet(&AgfwPacket::Als(AlsNetMessage {
            target_loc: Point::ORIGIN,
            next: Pseudonym::LAST_ATTEMPT,
            uid,
            ttl: 1,
            kind,
        }))
        .expect("encode request");
        client_side.send(&frame).expect("send");
        loop {
            match client_side.recv() {
                Ok(bytes) => {
                    let AgfwPacket::Als(message) = decode_packet(&bytes).expect("decode response")
                    else {
                        panic!("serve answers with ALS frames only");
                    };
                    assert_eq!(message.uid, uid, "response must echo the request uid");
                    return message.kind;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("loopback recv failed: {e}"),
            }
        }
    };

    // Idle engine: the watermark must not over-shed.
    let small_update = |uid_byte: u8| AlsNetKind::Update {
        cell: CELL,
        pairs: vec![pair(uid_byte)],
    };
    assert_eq!(
        ask(100, small_update(1)),
        AlsNetKind::Ack { stored: 1 },
        "an idle engine admits"
    );

    // Saturate: the worker owns the first giant job while the second
    // waits in the queue, so depth >= 1 until both finish — far longer
    // than three loopback roundtrips.
    let giant_pairs = || {
        (0..60_000u32)
            .map(|i| AlsPair {
                index: vec![(i >> 8) as u8, i as u8, 0xA5, 9],
                payload: vec![i as u8],
            })
            .collect::<Vec<_>>()
    };
    for _ in 0..2 {
        engine.submit(Request::Update {
            cell: CELL,
            pairs: giant_pairs(),
        });
    }

    assert_eq!(
        ask(101, small_update(2)),
        AlsNetKind::Busy,
        "update must be shed under load"
    );
    let query = AlsNetKind::Request {
        cell: CELL,
        index: vec![1; 24],
        reply_loc: Point::ORIGIN,
    };
    assert_eq!(ask(102, query), AlsNetKind::Busy, "query must be shed");
    let forward = AlsNetKind::Forward {
        from_cell: CELL,
        to_cell: CellId { col: 11, row: 21 },
        pairs: vec![pair(1)],
    };
    assert_eq!(ask(103, forward), AlsNetKind::Busy, "forward must be shed");
    match ask(104, AlsNetKind::Ping) {
        AlsNetKind::Pong { queue_depth } => assert!(
            queue_depth >= 1,
            "the pong must advertise the backlog it shed over"
        ),
        other => panic!("ping must be answered under overload, got {other:?}"),
    }

    // Drain, then the same engine must admit again: shedding is a
    // transient refusal, not a latch.
    while engine.queued() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(
        ask(105, small_update(3)),
        AlsNetKind::Ack { stored: 1 },
        "a drained engine admits again"
    );

    stop.store(true, Ordering::Release);
    let stats = server.join().unwrap();
    assert_eq!(stats.shed, 3, "each shed request is counted exactly once");
    assert_eq!(stats.pings, 1);
    assert_eq!(stats.updates, 2, "only the two admitted updates count");
    assert_eq!(engine.shed_count(), 3);

    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("the serve thread has joined; this is the sole handle")
    };
    let store = engine.shutdown();
    let stats = store.stats();
    assert_eq!(
        stats.stored + stats.replaced,
        2 + 2 * 60_000,
        "admitted work lands, shed work never reaches the store"
    );
}
