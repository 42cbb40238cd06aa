//! §3.3 location-service overhead: DLM (plain) vs ALS (indexed) vs ALS
//! without the index (the anonymity-vs-overhead trade of §3.3's closing
//! paragraph). Reports per-message wire bytes, crypto operations, and —
//! for the no-index variant — how reply size scales with the number of
//! records stored at the server.
//!
//! ```text
//! cargo run --release -p agr-bench --bin table_als
//! ```
//!
//! Pure message-size accounting — no sweeps, nothing to parallelise.

use agr_bench::Table;
use agr_core::als::{self, AlsRequestAll, AlsServer};
use agr_core::dlm::{DlmRequest, DlmServer, DlmUpdate, ServerSelection};
use agr_crypto::rsa::RsaKeyPair;
use agr_geom::{Point, Rect};
use agr_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(33);
    let ssa = ServerSelection::new(Rect::with_size(1500.0, 300.0), 250.0);
    eprintln!("generating requester keys (RSA-512)...");
    let b_keys = RsaKeyPair::generate(512, &mut rng).unwrap();
    let loc = Point::new(321.0, 150.0);
    let ts = SimTime::from_secs(100);

    // DLM messages.
    let dlm_update = DlmUpdate { id: 1, loc, ts };
    let dlm_request = DlmRequest {
        target: 1,
        requester: 2,
        requester_loc: Point::new(900.0, 100.0),
    };
    let mut dlm_server = DlmServer::new();
    dlm_server.handle_update(dlm_update);
    let dlm_reply = dlm_server.handle_request(&dlm_request).unwrap();

    // ALS messages.
    let als_update = als::make_update(1, loc, ts, 2, b_keys.public(), &ssa, &mut rng).unwrap();
    let als_request =
        als::make_request(2, b_keys.public(), 1, Point::new(900.0, 100.0), &ssa).unwrap();
    let mut als_server = AlsServer::new();
    als_server.handle_update(als_update.clone());
    let als_reply = als_server.handle_request(&als_request).unwrap();

    let mut table = Table::new(vec![
        "scheme",
        "update bytes",
        "request bytes",
        "reply bytes",
        "RSA ops/update",
        "RSA ops/query",
        "exposes updater loc",
        "exposes requester id",
    ]);
    table.row(vec![
        "DLM".into(),
        dlm_update.wire_bytes().to_string(),
        dlm_request.wire_bytes().to_string(),
        dlm_reply.wire_bytes().to_string(),
        "0".into(),
        "0".into(),
        "yes".into(),
        "yes".into(),
    ]);
    table.row(vec![
        "ALS (indexed)".into(),
        als_update.wire_bytes().to_string(),
        als_request.wire_bytes().to_string(),
        als_reply.wire_bytes().to_string(),
        "2 enc".into(),
        "1 enc + 1 dec".into(),
        "no".into(),
        "no (dictionary risk)".into(),
    ]);

    // No-index variant: reply grows with stored records.
    for stored in [1usize, 4, 16] {
        let mut server = AlsServer::new();
        for updater in 0..stored as u64 {
            let other = RsaKeyPair::generate(512, &mut rng).unwrap();
            let key = if updater == 0 {
                b_keys.public()
            } else {
                other.public()
            };
            server.handle_update(
                als::make_update(updater + 10, loc, ts, 2, key, &ssa, &mut rng).unwrap(),
            );
        }
        let reply = server
            .handle_request_all(&AlsRequestAll {
                server_cell: ssa.cell_for(10),
                reply_loc: Point::new(900.0, 100.0),
            })
            .unwrap();
        let opened: usize = reply
            .payloads
            .iter()
            .filter_map(|p| als::open_record(p, &b_keys))
            .count();
        assert_eq!(opened, 1, "exactly one record is for B");
        table.row(vec![
            format!("ALS (no index, {stored} stored)"),
            als_update.wire_bytes().to_string(),
            AlsRequestAll {
                server_cell: ssa.cell_for(10),
                reply_loc: Point::ORIGIN,
            }
            .wire_bytes()
            .to_string(),
            reply.wire_bytes().to_string(),
            "2 enc".into(),
            format!("{} dec", stored),
            "no".into(),
            "no".into(),
        ]);
    }

    println!("Table: location service message costs — DLM vs ALS (paper S3.3)");
    println!("{table}");
    let path = table.save_csv("table_als");
    eprintln!("saved {}", path.display());
}
