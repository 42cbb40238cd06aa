//! Figure 1(b): mean end-to-end data packet latency vs node count for
//! GPSR-Greedy and AGFW (with ACK).
//!
//! Expected shape (paper §5.2): "the packet latency of both schemes does
//! not make much difference when the network has a modest node density,
//! i.e. when the number of nodes is no larger than 112 ... when the
//! network density becomes high, GPSR-Greedy presents a significant
//! increase of packet latency due to relatively more failures of making
//! handshakes and hence the time wasted on backing off and retries."
//!
//! ```text
//! cargo run --release -p agr-bench --bin fig1b
//! ```

use agr_bench::runner::node_counts;
use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;

fn main() {
    let params = SweepParams::from_env();
    let nodes = node_counts();
    eprintln!(
        "fig1b: nodes={nodes:?}, seeds={}, duration={}s, jobs={}",
        params.seeds,
        params.duration.as_secs_f64(),
        agr_bench::jobs()
    );
    let protocols = [
        ProtocolKind::GpsrGreedy,
        ProtocolKind::Agfw(AgfwConfig::default()),
    ];
    let mut results = run_matrix(&protocols, &nodes, &params);
    let agfw = results.pop().expect("agfw sweep");
    let gpsr = results.pop().expect("gpsr sweep");
    let mut table = Table::new(vec![
        "nodes",
        "GPSR-Greedy (ms)",
        "AGFW-ACK (ms)",
        "sd(GPSR)",
        "sd(AGFW)",
    ]);
    for (i, &n) in nodes.iter().enumerate() {
        table.row(vec![
            n.to_string(),
            format!("{:.2}", gpsr[i].latency_ms),
            format!("{:.2}", agfw[i].latency_ms),
            format!("{:.2}", gpsr[i].latency_stddev()),
            format!("{:.2}", agfw[i].latency_stddev()),
        ]);
    }
    println!("Figure 1(b) — mean end-to-end data packet latency vs node count");
    println!("{table}");
    let path = table.save_csv("fig1b");
    eprintln!("saved {}", path.display());
}
