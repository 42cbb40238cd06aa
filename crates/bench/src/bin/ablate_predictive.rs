//! §3.1.1 refinement: velocity-predictive neighbor tables.
//!
//! "Forwarding could be better if the node movement is predictable, for
//! example, velocity and direction are available with position."
//! This ablation measures the refinement where it should matter most:
//! fast-moving networks with sparse hellos, where a 1-second-old
//! advertised position is up to 20 m (and a 3-second-old one 60 m) stale.
//!
//! ```text
//! cargo run --release -p agr-bench --bin ablate_predictive
//! ```

use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;
use agr_sim::SimTime;

fn main() {
    let params = SweepParams::from_env_with_duration(SimTime::from_secs(300));
    let nodes = 50;
    // One matrix over all hello-interval × variant combinations.
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    for hello_s in [1u64, 2, 3] {
        for (label, predictive) in [("plain", false), ("predictive", true)] {
            labels.push((hello_s, label));
            kinds.push(ProtocolKind::Agfw(AgfwConfig {
                predictive,
                hello_interval: SimTime::from_secs(hello_s),
                // Scale table lifetimes with the hello interval.
                ant_timeout: SimTime::from_millis(4500 * hello_s),
                fresh_window: SimTime::from_millis(2200 * hello_s),
                ..AgfwConfig::default()
            }));
        }
    }
    let results = run_matrix(&kinds, &[nodes], &params);

    let mut table = Table::new(vec![
        "hello interval (s)",
        "variant",
        "delivery",
        "latency (ms)",
        "retransmits/pkt",
    ]);
    for ((hello_s, label), row) in labels.iter().zip(&results) {
        let point = &row[0];
        table.row(vec![
            hello_s.to_string(),
            (*label).into(),
            format!("{:.3}", point.delivery_fraction),
            format!("{:.2}", point.latency_ms),
            format!("{:.2}", point.retx_per_pkt()),
        ]);
    }
    println!("Ablation: velocity-predictive ANT (paper S3.1.1), 50 nodes, <=20 m/s");
    println!("{table}");
    let path = table.save_csv("ablate_predictive");
    eprintln!("saved {}", path.display());
}
