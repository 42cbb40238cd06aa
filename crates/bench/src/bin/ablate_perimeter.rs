//! §6 extension: perimeter-mode recovery.
//!
//! "To avoid a simple dead end when local maximum happens, recovery
//! strategies like perimeter forwarding could be applied." This ablation
//! quantifies what greedy-only forwarding loses at low density — where
//! voids are common — by comparing GPSR-Greedy against GPSR with
//! Gabriel-planarised perimeter recovery.
//!
//! ```text
//! cargo run --release -p agr-bench --bin ablate_perimeter
//! ```

use agr_bench::{run_matrix, ProtocolKind, SweepParams, Table};
use agr_core::agfw::AgfwConfig;

fn main() {
    let params = SweepParams::from_env_with_duration(agr_sim::SimTime::from_secs(300));
    // Sparser-than-paper densities, where greedy dead-ends matter.
    let nodes = [25usize, 35, 50, 75];
    let kinds = [
        ProtocolKind::GpsrGreedy,
        ProtocolKind::GpsrPerimeter,
        ProtocolKind::Agfw(AgfwConfig::default()),
        ProtocolKind::Agfw(AgfwConfig::with_recovery()),
    ];
    let rows = run_matrix(&kinds, &nodes, &params);
    let mut table = Table::new(vec![
        "nodes",
        "GPSR-Greedy",
        "GPSR-Perimeter",
        "AGFW-Greedy",
        "AGFW-Recovery",
        "GPSR gain",
        "AGFW gain",
    ]);
    for (i, &n) in nodes.iter().enumerate() {
        table.row(vec![
            n.to_string(),
            format!("{:.3}", rows[0][i].delivery_fraction),
            format!("{:.3}", rows[1][i].delivery_fraction),
            format!("{:.3}", rows[2][i].delivery_fraction),
            format!("{:.3}", rows[3][i].delivery_fraction),
            format!(
                "{:+.3}",
                rows[1][i].delivery_fraction - rows[0][i].delivery_fraction
            ),
            format!(
                "{:+.3}",
                rows[3][i].delivery_fraction - rows[2][i].delivery_fraction
            ),
        ]);
    }
    println!("Ablation: greedy-only vs perimeter recovery, GPSR and anonymous AGFW (paper S6 future work)");
    println!("{table}");
    let path = table.save_csv("ablate_perimeter");
    eprintln!("saved {}", path.display());
}
