//! Adversary sweep: packet delivery under injected blackhole nodes,
//! with and without the protocol-hardening defenses.
//!
//! The paper's threat model (§2) stops at passive eavesdroppers; this
//! sweep extends it to active insiders. A blackhole accepts a committed
//! hop, sends the network-layer ACK, and silently discards the data —
//! the worst case for AGFW, whose NL-ACK scheme then *believes* the hop
//! succeeded. The hardened configuration answers with suspicion-scored
//! neighbor selection, forward-watch misbehaviour detection, and
//! bounded-backoff re-routing; the sweep measures how much of the gap
//! to the clean baseline those defenses recover.
//!
//! ```text
//! cargo run --release -p agr-bench --bin adversary_sweep
//! AGR_SEEDS=2 AGR_DURATION_S=120 cargo run --release -p agr-bench --bin adversary_sweep
//! AGR_ADV=0,0.2 cargo run --release -p agr-bench --bin adversary_sweep
//! ```
//!
//! Environment knobs: the usual `AGR_SEEDS`/`AGR_DURATION_S`/`AGR_JOBS`,
//! `AGR_NODES` (first entry is used; default 50), and `AGR_ADV`
//! (comma-separated compromised fractions; default 0,0.1,0.2,0.3).
//! Like every sweep, results are bit-identical at any `AGR_JOBS`.

use agr_bench::runner::{env_list, node_counts};
use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;
use agr_sim::AdversaryMix;

fn main() {
    let base = SweepParams::from_env();
    let fracs = env_list("AGR_ADV", &[0.0, 0.10, 0.20, 0.30], |p| {
        (0.0..=1.0).contains(p)
    });
    // An adversary sweep runs at fixed density: the first AGR_NODES
    // entry, or the paper's 50-node baseline.
    let nodes = node_counts()[0];
    eprintln!(
        "adversary_sweep: fractions={fracs:?}, nodes={nodes}, seeds={}, duration={}s, jobs={}",
        base.seeds,
        base.duration.as_secs_f64(),
        agr_bench::jobs()
    );
    let protocols = [
        ProtocolKind::Agfw(AgfwConfig::default()),
        ProtocolKind::Agfw(AgfwConfig::hardened()),
    ];
    let mut table = Table::new(vec![
        "fraction",
        "AGFW-ACK",
        "AGFW-Hardened",
        "sd(ACK)",
        "sd(Hard)",
        "bh_drops(ACK)",
        "bh_drops(Hard)",
        "suspected",
        "watch_fired",
        "rerouted",
    ]);
    for (i, &fraction) in fracs.iter().enumerate() {
        let params = SweepParams {
            adversary: (fraction > 0.0).then(|| AdversaryMix::blackholes(fraction)),
            ..base.clone()
        };
        let results = run_matrix(&protocols, &[nodes], &params);
        let plain = &results[0][0];
        let hard = &results[1][0];
        table.row(vec![
            format!("{fraction:.2}"),
            format!("{:.3}", plain.delivery_fraction),
            format!("{:.3}", hard.delivery_fraction),
            format!("{:.3}", plain.delivery_stddev()),
            format!("{:.3}", hard.delivery_stddev()),
            plain.counter_sum("adv.blackhole_drop").to_string(),
            hard.counter_sum("adv.blackhole_drop").to_string(),
            hard.counter_sum("defense.suspected").to_string(),
            hard.counter_sum("defense.watch_fired").to_string(),
            hard.counter_sum("defense.rerouted").to_string(),
        ]);
        eprintln!(
            "  fraction={fraction:.2} done ({}/{}): plain {:.3}, hardened {:.3}",
            i + 1,
            fracs.len(),
            plain.delivery_fraction,
            hard.delivery_fraction
        );
    }
    println!("Adversary sweep — delivery fraction vs blackhole fraction (nodes={nodes})");
    println!("{table}");
    let path = table.save_csv("adversary_sweep");
    eprintln!("saved {}", path.display());
}
