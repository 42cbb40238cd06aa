//! §3.1.1 ablation: multi-entry ANT selection strategy × pseudonym
//! rotation rate.
//!
//! The paper argues that with per-hello pseudonyms the forwarding rule
//! must prefer *fresher* table entries over *closer* ones, because the
//! closest entry may be a stale alias whose pseudonym its owner has
//! already forgotten. This ablation measures that design decision:
//! delivery fraction for `NaiveClosest` vs `FreshnessAware`, across
//! rotation rates (rotate every 1st / 2nd / 4th hello; slower rotation
//! weakens anonymity but leaves more valid aliases).
//!
//! ```text
//! cargo run --release -p agr-bench --bin ablate_pseudonym
//! ```

use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;
use agr_core::SelectionStrategy;

fn main() {
    let params = SweepParams::from_env_with_duration(agr_sim::SimTime::from_secs(300));
    let nodes = 50;
    let strategies = [
        ("NaiveClosest", SelectionStrategy::NaiveClosest),
        ("FreshnessAware", SelectionStrategy::FreshnessAware),
    ];
    // One matrix over all rotate × strategy variants; the worker pool
    // fans every (variant, seed) point.
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    for rotate_every in [1u32, 2, 4] {
        for (label, strategy) in strategies {
            labels.push((rotate_every, label));
            kinds.push(ProtocolKind::Agfw(AgfwConfig {
                selection: strategy,
                rotate_every,
                ..AgfwConfig::default()
            }));
        }
    }
    let results = run_matrix(&kinds, &[nodes], &params);

    let mut table = Table::new(vec![
        "rotate every",
        "strategy",
        "delivery",
        "latency (ms)",
        "retransmits/pkt",
    ]);
    for ((rotate_every, label), row) in labels.iter().zip(&results) {
        let point = &row[0];
        table.row(vec![
            rotate_every.to_string(),
            (*label).into(),
            format!("{:.3}", point.delivery_fraction),
            format!("{:.2}", point.latency_ms),
            format!("{:.2}", point.retx_per_pkt()),
        ]);
    }
    println!("Ablation: ANT selection strategy x pseudonym rotation (50 nodes)");
    println!("{table}");
    let path = table.save_csv("ablate_pseudonym");
    eprintln!("saved {}", path.display());
}
