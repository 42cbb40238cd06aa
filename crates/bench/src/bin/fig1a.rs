//! Figure 1(a): end-to-end packet delivery fraction vs node count for
//! GPSR-Greedy, AGFW without ACK, and AGFW with ACK.
//!
//! Expected shape (paper §5.2): AGFW-noACK is "not satisfactory due to
//! numerous packet collisions without ACKs and retransmissions. And it
//! gets worse when more nodes entering the network"; AGFW with ACK "has
//! almost same performance as the original GPSR-Greedy".
//!
//! ```text
//! cargo run --release -p agr-bench --bin fig1a
//! AGR_SEEDS=3 AGR_DURATION_S=300 cargo run --release -p agr-bench --bin fig1a   # quicker
//! ```

use agr_bench::runner::node_counts;
use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;

fn main() {
    let params = SweepParams::from_env();
    let nodes = node_counts();
    eprintln!(
        "fig1a: nodes={nodes:?}, seeds={}, duration={}s, jobs={}",
        params.seeds,
        params.duration.as_secs_f64(),
        agr_bench::jobs()
    );
    let protocols = [
        ProtocolKind::GpsrGreedy,
        ProtocolKind::Agfw(AgfwConfig::without_ack()),
        ProtocolKind::Agfw(AgfwConfig::default()),
    ];
    let mut table = Table::new(vec![
        "nodes",
        "GPSR-Greedy",
        "AGFW-noACK",
        "AGFW-ACK",
        "sd(GPSR)",
        "sd(noACK)",
        "sd(ACK)",
    ]);
    let results = run_matrix(&protocols, &nodes, &params);
    for (i, &n) in nodes.iter().enumerate() {
        table.row(vec![
            n.to_string(),
            format!("{:.3}", results[0][i].delivery_fraction),
            format!("{:.3}", results[1][i].delivery_fraction),
            format!("{:.3}", results[2][i].delivery_fraction),
            format!("{:.3}", results[0][i].delivery_stddev()),
            format!("{:.3}", results[1][i].delivery_stddev()),
            format!("{:.3}", results[2][i].delivery_stddev()),
        ]);
    }
    println!("Figure 1(a) — packet delivery fraction vs node count");
    println!("{table}");
    let path = table.save_csv("fig1a");
    eprintln!("saved {}", path.display());
}
