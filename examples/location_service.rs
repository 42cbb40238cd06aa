//! The anonymous location service, end to end — on the real engine.
//!
//! Three parties: updater A, requester B, and a location server S. In
//! the simulator S is whichever node currently anchors grid cell
//! `ssa(A)`; here S is the *standalone service engine* from
//! `agr-als-service` — the same storage implementation, run as a real
//! system: sharded store, batching request pipeline, a serve loop
//! behind a transport, and a blocking client.
//!
//! The example runs the paper's exact §3.3 message sequence with real
//! RSA-512 sealing, then what the paper leaves implicit — the `ts`
//! freshness rule — as a TTL: once A's record ages past the bound, the
//! server answers `Miss` and reclaims the blob.
//!
//! ```text
//! cargo run --release --example location_service
//! ```
//!
//! Every step is asserted, and `cargo test --examples` replays the whole
//! flow as a test.

use agr::als_service::pipeline::{Engine, EngineConfig, Request, Response};
use agr::als_service::service::{serve_batched, AlsClient, BatchConfig};
use agr::als_service::store::StoreConfig;
use agr::core::als;
use agr::core::dlm::{DlmRequest, DlmServer, DlmUpdate, ServerSelection};
use agr::core::packet::AlsPair;
use agr::crypto::rsa::RsaKeyPair;
use agr::geom::{Point, Rect};
use agr::sim::SimTime;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const A: u64 = 17; // updater
const B: u64 = 42; // anticipated requester

/// The paper's freshness bound for this example: records older than 90
/// seconds stop being served.
const TTL: SimTime = SimTime::from_secs(90);

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let ssa = ServerSelection::new(Rect::with_size(1500.0, 300.0), 250.0);
    let a_loc = Point::new(321.0, 140.0);
    let ts = SimTime::from_secs(60);
    let cell = ssa.cell_for(A);
    println!("Grid: {}; ssa(A={A}) = cell {cell}\n", ssa.grid());

    println!("-- Plain DLM (the substrate, §3.3) --");
    let mut dlm = DlmServer::new();
    dlm.handle_update(DlmUpdate {
        id: A,
        loc: a_loc,
        ts,
    });
    let reply = dlm
        .handle_request(&DlmRequest {
            target: A,
            requester: B,
            requester_loc: Point::new(900.0, 100.0),
        })
        .expect("record stored");
    println!(
        "  server stores and everyone on the path reads: node {A} is at {}",
        reply.loc
    );
    println!("  and the request exposed that node {B} asked for node {A}\n");

    println!("-- ALS on the service engine (§3.3, run as a real system) --");
    println!("  B generates an RSA-512 key pair; A anticipates B as a sender.");
    let b_keys = RsaKeyPair::generate(512, &mut rng).expect("keygen");

    // The server: a sharded TTL-bounded engine on a manual clock (so the
    // example can fast-forward time), plus a serve loop on a loopback
    // transport — the same wire frames a UDP deployment would carry.
    let (engine, clock) = Engine::start_manual_clock(EngineConfig {
        store: StoreConfig {
            shards: 4,
            ttl: Some(TTL),
            capacity_per_shard: None,
        },
        compact_every: None,
        ..EngineConfig::default()
    });
    let engine = Arc::new(engine);
    let (client_side, mut server_side) = agr::als_service::loopback_pair(16);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let server_thread = {
        let engine = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            serve_batched(&engine, &mut server_side, BatchConfig::default(), &stop)
        })
    };
    let mut client = AlsClient::new(client_side);

    // A -> S : ⟨RLU, ssa(A), E_KB(A,B), E_KB(A, loc_A, ts)⟩
    let update =
        als::make_update(A, a_loc, ts, B, b_keys.public(), &ssa, &mut rng).expect("update sealed");
    println!(
        "  A -> S: RLU to cell {} | index {} B | payload {} B (both RSA ciphertexts)",
        update.server_cell,
        update.index.len(),
        update.payload.len()
    );
    let stored = client
        .update(
            update.server_cell,
            vec![AlsPair {
                index: update.index.clone(),
                payload: update.payload.clone(),
            }],
        )
        .expect("service reachable");
    assert_eq!(stored, 1, "the server must ack exactly one stored pair");
    println!("  S acks: 1 opaque blob stored (no identity, no location readable)");

    // B -> S : ⟨LREQ, ssa(A), E_KB(A,B), loc_B⟩  /  S -> B : ⟨LREP, ...⟩
    let request = als::make_request(B, b_keys.public(), A, Point::new(900.0, 100.0), &ssa)
        .expect("request built");
    assert_eq!(
        request.index, update.index,
        "deterministic sealing: B derives the same index A stored under"
    );
    let sealed = client
        .query(request.server_cell, request.index.clone())
        .expect("service reachable")
        .expect("index matched");
    let record = als::open_record(&sealed, &b_keys).expect("B decrypts");
    assert_eq!(record.updater, A);
    assert_eq!(record.ts, ts);
    println!(
        "  S -> B: LREP; B decrypts: node {} is at {} (updated at {})",
        record.updater, record.loc, record.ts
    );

    // An outsider with a different key gets nothing from the same blob.
    let eve = RsaKeyPair::generate(512, &mut rng).expect("keygen");
    assert!(als::open_record(&sealed, &eve).is_none());
    println!("  An eavesdropper with its own key decrypts: nothing.\n");

    println!(
        "-- Freshness: the ts rule as a TTL ({}s) --",
        TTL.as_secs_f64()
    );
    // 80 seconds after the update: still fresh, still served.
    clock.store(SimTime::from_secs(80).as_nanos(), Ordering::Release);
    assert!(
        client
            .query(request.server_cell, request.index.clone())
            .expect("service reachable")
            .is_some(),
        "a record inside the freshness bound must be served"
    );
    println!("  t = 80s: record served (age 80s <= TTL)");
    // Past the bound: the server answers Miss and reclaims the blob.
    clock.store(SimTime::from_secs(200).as_nanos(), Ordering::Release);
    let expired = client
        .query(request.server_cell, request.index.clone())
        .expect("service reachable");
    assert!(expired.is_none(), "a stale record must not be served");
    println!("  t = 200s: Miss — the blob aged out and was reclaimed");

    stop.store(true, Ordering::Release);
    let serve_stats = server_thread.join().expect("serve loop");
    assert_eq!(serve_stats.updates, 1);
    assert_eq!(serve_stats.queries, 3);
    assert_eq!(serve_stats.hits, 2);

    let Ok(engine) = Arc::try_unwrap(engine) else {
        unreachable!("the serve thread has exited; this is the sole handle")
    };
    let store = engine.shutdown();
    let stats = store.stats();
    assert_eq!(stats.expired, 1, "exactly one record aged out");
    assert!(store.is_empty(), "nothing left after expiry");
    println!(
        "\nService counters: stored {} | hits {} | misses {} | expired {}",
        stats.stored, stats.hits, stats.misses, stats.expired
    );

    // The same engine API also answers without a transport in the way —
    // what the load generator hammers by the million.
    let direct = Engine::start(EngineConfig::default());
    direct.submit(Request::Update {
        cell,
        pairs: vec![AlsPair {
            index: update.index.clone(),
            payload: update.payload,
        }],
    });
    let answer = direct.call(Request::Query {
        cell,
        index: update.index,
        reply_loc: Point::ORIGIN,
    });
    assert!(matches!(answer, Response::Hit { .. }));
    direct.shutdown();
    println!("Direct engine call: Hit — same store, no transport.");
}

#[cfg(test)]
mod tests {
    /// `cargo test --examples` replays the full flow with all asserts.
    #[test]
    fn example_flow_holds() {
        super::main();
    }
}
