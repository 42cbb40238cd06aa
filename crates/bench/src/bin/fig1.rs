//! Figure 1: packet delivery fraction (a) and mean end-to-end data packet
//! latency (b) vs node count, from one sweep over GPSR-Greedy, AGFW
//! without ACK, and AGFW with ACK. Writes `fig1a.csv`, `fig1b.csv` and
//! the two panels as `fig1a.svg` / `fig1b.svg`.
//!
//! Expected shape (paper §5.2):
//! - (a) AGFW-noACK is "not satisfactory due to numerous packet
//!   collisions without ACKs and retransmissions. And it gets worse when
//!   more nodes entering the network"; AGFW with ACK "has almost same
//!   performance as the original GPSR-Greedy".
//! - (b) "the packet latency of both schemes does not make much
//!   difference when the network has a modest node density, i.e. when
//!   the number of nodes is no larger than 112 ... when the network
//!   density becomes high, GPSR-Greedy presents a significant increase of
//!   packet latency due to relatively more failures of making handshakes
//!   and hence the time wasted on backing off and retries."
//!
//! ```text
//! cargo run --release -p agr-bench --bin fig1
//! AGR_SEEDS=3 AGR_DURATION_S=300 cargo run --release -p agr-bench --bin fig1   # quicker
//! ```

use agr_bench::plot::LineChart;
use agr_bench::runner::node_counts;
use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;

fn main() {
    let params = SweepParams::from_env();
    let nodes = node_counts();
    eprintln!(
        "fig1: nodes={nodes:?}, seeds={}, duration={}s, jobs={}",
        params.seeds,
        params.duration.as_secs_f64(),
        agr_bench::jobs()
    );
    let protocols = [
        ProtocolKind::GpsrGreedy,
        ProtocolKind::Agfw(AgfwConfig::without_ack()),
        ProtocolKind::Agfw(AgfwConfig::default()),
    ];
    let results = run_matrix(&protocols, &nodes, &params);
    let [gpsr, noack, ack] = &results[..] else {
        unreachable!("one result row per protocol");
    };

    let mut delivery = Table::new(vec![
        "nodes",
        "GPSR-Greedy",
        "AGFW-noACK",
        "AGFW-ACK",
        "sd(GPSR)",
        "sd(noACK)",
        "sd(ACK)",
    ]);
    let mut latency = Table::new(vec![
        "nodes",
        "GPSR-Greedy (ms)",
        "AGFW-ACK (ms)",
        "sd(GPSR)",
        "sd(AGFW)",
    ]);
    for (i, &n) in nodes.iter().enumerate() {
        delivery.row(vec![
            n.to_string(),
            format!("{:.3}", gpsr[i].delivery_fraction),
            format!("{:.3}", noack[i].delivery_fraction),
            format!("{:.3}", ack[i].delivery_fraction),
            format!("{:.3}", gpsr[i].delivery_stddev()),
            format!("{:.3}", noack[i].delivery_stddev()),
            format!("{:.3}", ack[i].delivery_stddev()),
        ]);
        latency.row(vec![
            n.to_string(),
            format!("{:.2}", gpsr[i].latency_ms),
            format!("{:.2}", ack[i].latency_ms),
            format!("{:.2}", gpsr[i].latency_stddev()),
            format!("{:.2}", ack[i].latency_stddev()),
        ]);
    }
    println!("Figure 1(a) — packet delivery fraction vs node count");
    println!("{delivery}");
    println!("Figure 1(b) — mean end-to-end data packet latency vs node count");
    println!("{latency}");

    let panel_a = LineChart::new(
        "Figure 1(a): packet delivery fraction vs node count",
        "number of nodes",
        "packet delivery fraction",
    )
    .with_y_range(0.0, 1.05)
    .with_columns(
        &delivery,
        "nodes",
        &["GPSR-Greedy", "AGFW-noACK", "AGFW-ACK"],
    );
    let panel_b = LineChart::new(
        "Figure 1(b): end-to-end data packet latency vs node count",
        "number of nodes",
        "mean latency (ms)",
    )
    .with_columns(&latency, "nodes", &["GPSR-Greedy (ms)", "AGFW-ACK (ms)"]);
    for path in [
        delivery.save_csv("fig1a"),
        latency.save_csv("fig1b"),
        panel_a.save_svg("fig1a"),
        panel_b.save_svg("fig1b"),
    ] {
        eprintln!("saved {}", path.display());
    }
}
