//! §4 ring-signature overhead: "the larger the set of ambiguous signers
//! is used, the stronger the anonymity the sender has, but with more
//! certificates to transmit". This table measures, per ring size `k+1`:
//! hello wire bytes (with the §4 serial-number optimisation), full
//! certificate bytes (without it), and sign/verify CPU time.
//!
//! ```text
//! cargo run --release -p agr-bench --bin table_ring
//! ```
//!
//! Stays single-threaded regardless of `AGR_JOBS`: sign/verify CPU
//! timings are the point of the table, and contending workers would
//! distort them.

use agr_bench::Table;
use agr_core::aant::{Aant, AantConfig};
use agr_core::keys::KeyDirectory;
use agr_core::packet::AgfwPacket;
use agr_core::Pseudonym;
use agr_geom::Point;
use agr_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let population = 32;
    // 512-bit keys: the paper's RSA size.
    eprintln!("generating {population} RSA-512 certificates...");
    let (keys, dir) = KeyDirectory::generate(population, 512, &mut rng).unwrap();

    let mut table = Table::new(vec![
        "ring size",
        "hello bytes (serials)",
        "hello bytes (full certs)",
        "sign (ms)",
        "verify (ms)",
    ]);
    let n = Pseudonym::derive(1, 0);
    let loc = Point::new(100.0, 100.0);
    let ts = SimTime::from_secs(1);

    for ring_size in [1usize, 2, 4, 8, 16, 32] {
        let aant = Aant::new(
            0,
            Arc::clone(&keys[0]),
            Arc::clone(&dir),
            AantConfig { ring_size },
        );
        let iters = 20u32;
        let mut auth = None;
        let start = Instant::now();
        for _ in 0..iters {
            auth = Some(aant.sign_hello(n, loc, ts, &mut rng));
        }
        let sign_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(iters);
        let auth = auth.expect("signed at least once");
        let start = Instant::now();
        for _ in 0..iters {
            assert!(aant.verify_hello(n, loc, ts, &auth));
        }
        let verify_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(iters);

        let hello = AgfwPacket::Hello {
            n,
            loc,
            vel: None,
            ts,
            auth: Some(auth.clone()),
        };
        let serial_bytes = hello.wire_bytes();
        // Without the §4 optimisation every certificate rides along.
        let cert_bytes: u32 = serial_bytes - 8 * ring_size as u32
            + auth
                .ring_ids
                .iter()
                .map(|&id| dir.cert(id).expect("certified").encoded_len() as u32)
                .sum::<u32>();
        table.row(vec![
            ring_size.to_string(),
            serial_bytes.to_string(),
            cert_bytes.to_string(),
            format!("{sign_ms:.2}"),
            format!("{verify_ms:.2}"),
        ]);
    }

    println!("Table: AANT hello overhead and cost vs ring size (k+1)-anonymity, RSA-512");
    println!("{table}");
    let path = table.save_csv("table_ring");
    eprintln!("saved {}", path.display());
}
