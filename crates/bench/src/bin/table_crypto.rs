//! §5.1 cryptography claims, measured on our from-scratch stack:
//!
//! * "the size of trapdoor does not exceed 64-byte since it is obtained
//!   from the RSA encryption with a 512-bit public key";
//! * "a typical public-key encryption needs 0.5 ms while the decryption
//!   needs 8.5 ms for a portable computer processor" — we report our
//!   measured times and, more portably, the decrypt/encrypt *ratio*
//!   (the paper's is 17×).
//!
//! ```text
//! cargo run --release -p agr-bench --bin table_crypto
//! ```
//!
//! Unlike the sweep binaries this one stays single-threaded regardless
//! of `AGR_JOBS`: it measures per-operation CPU time, and concurrent
//! workers contending for cores would distort exactly the numbers the
//! table exists to report.

use agr_bench::Table;
use agr_crypto::rsa::RsaKeyPair;
use agr_crypto::trapdoor::{SymmetricTrapdoor, Trapdoor};
use agr_geom::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_per_op<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2005);
    let loc = Point::new(750.0, 150.0);
    let mut table = Table::new(vec![
        "key bits",
        "trapdoor bytes",
        "seal (us)",
        "open (us)",
        "open/seal ratio",
    ]);

    for bits in [512u32, 768, 1024] {
        let keys = RsaKeyPair::generate(bits, &mut rng).unwrap();
        let td = Trapdoor::seal(keys.public(), 7, loc, &mut rng).unwrap();
        let iters = 200;
        let mut seal_rng = StdRng::seed_from_u64(1);
        let seal_us = time_per_op(iters, || {
            let _ = Trapdoor::seal(keys.public(), 7, loc, &mut seal_rng).unwrap();
        });
        let open_us = time_per_op(iters, || {
            assert!(td.try_open(&keys).is_some());
        });
        table.row(vec![
            bits.to_string(),
            td.encoded_len().to_string(),
            format!("{seal_us:.1}"),
            format!("{open_us:.1}"),
            format!("{:.1}", open_us / seal_us),
        ]);
    }

    // The §5.1 suggestion: "a lower cost symmetric encryption if a proper
    // key exchange scheme is in place".
    let key = [7u8; 32];
    let std = SymmetricTrapdoor::seal(&key, 7, loc, &mut rng);
    let iters = 5_000;
    let mut srng = StdRng::seed_from_u64(2);
    let seal_us = time_per_op(iters, || {
        let _ = SymmetricTrapdoor::seal(&key, 7, loc, &mut srng);
    });
    let open_us = time_per_op(iters, || {
        assert!(std.try_open(&key).is_some());
    });
    table.row(vec![
        "symmetric".into(),
        std.encoded_len().to_string(),
        format!("{seal_us:.1}"),
        format!("{open_us:.1}"),
        format!("{:.1}", open_us / seal_us),
    ]);

    println!("Table: trapdoor size and cost (paper §5.1: 64 B, 0.5 ms seal, 8.5 ms open on 2005 hardware, ratio 17x)");
    println!("{table}");
    let path = table.save_csv("table_crypto");
    eprintln!("saved {}", path.display());
}
