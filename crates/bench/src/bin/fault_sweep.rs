//! Chaos sweep: packet delivery under injected uniform loss, with and
//! without AGFW's network-layer ACK + retransmission scheme.
//!
//! Reproduces the paper's §3.2/§5.2 reliability claim as a curve: with
//! anonymous broadcasts there is no 802.11 ACK, so delivery collapses as
//! link loss grows — unless the network-layer ACK scheme rebuilds the
//! reliability, in which case delivery stays near the lossless baseline
//! until the channel is badly degraded.
//!
//! ```text
//! cargo run --release -p agr-bench --bin fault_sweep
//! AGR_SEEDS=2 AGR_DURATION_S=120 cargo run --release -p agr-bench --bin fault_sweep  # quicker
//! AGR_LOSS=0,0.1,0.3 cargo run --release -p agr-bench --bin fault_sweep
//! ```
//!
//! Environment knobs: the usual `AGR_SEEDS`/`AGR_DURATION_S`/`AGR_JOBS`,
//! `AGR_NODES` (first entry is used; default 50), and `AGR_LOSS`
//! (comma-separated per-link loss rates; default 0,0.05,0.1,0.2,0.3).
//! Like every sweep, results are bit-identical at any `AGR_JOBS`.

use agr_bench::runner::{env_list, node_counts};
use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;
use agr_sim::FaultPlan;

fn main() {
    let base = SweepParams::from_env();
    let losses = env_list("AGR_LOSS", &[0.0, 0.05, 0.10, 0.20, 0.30], |p| {
        (0.0..=1.0).contains(p)
    });
    // A loss sweep runs at fixed density: the first AGR_NODES entry, or
    // the paper's 50-node baseline.
    let nodes = node_counts()[0];
    eprintln!(
        "fault_sweep: loss={losses:?}, nodes={nodes}, seeds={}, duration={}s, jobs={}",
        base.seeds,
        base.duration.as_secs_f64(),
        agr_bench::jobs()
    );
    let protocols = [
        ProtocolKind::Agfw(AgfwConfig::default()),
        ProtocolKind::Agfw(AgfwConfig::without_ack()),
    ];
    let mut table = Table::new(vec![
        "loss",
        "AGFW-ACK",
        "AGFW-noACK",
        "sd(ACK)",
        "sd(noACK)",
        "drops(ACK)",
        "retx(ACK)",
        "recovered(ACK)",
    ]);
    for (i, &loss) in losses.iter().enumerate() {
        let params = SweepParams {
            fault: FaultPlan::uniform_loss(loss),
            ..base.clone()
        };
        let results = run_matrix(&protocols, &[nodes], &params);
        let ack = &results[0][0];
        let noack = &results[1][0];
        table.row(vec![
            format!("{loss:.2}"),
            format!("{:.3}", ack.delivery_fraction),
            format!("{:.3}", noack.delivery_fraction),
            format!("{:.3}", ack.delivery_stddev()),
            format!("{:.3}", noack.delivery_stddev()),
            ack.counter_sum("fault.drop.uniform").to_string(),
            ack.counter_sum("agfw.retransmit").to_string(),
            ack.counter_sum("agfw.ack_recovered").to_string(),
        ]);
        eprintln!(
            "  loss={loss:.2} done ({}/{}): ACK {:.3}, noACK {:.3}",
            i + 1,
            losses.len(),
            ack.delivery_fraction,
            noack.delivery_fraction
        );
    }
    println!("Fault sweep — delivery fraction vs per-link uniform loss (nodes={nodes})");
    println!("{table}");
    let path = table.save_csv("fault_sweep");
    eprintln!("saved {}", path.display());
}
