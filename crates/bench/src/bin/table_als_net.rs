//! §5's untested prediction, tested: "Since ALS does not essentially
//! change the message exchange of the protocol, the performance is
//! expected to be similar to the original location service. With extra
//! message bits and limited cryptographic operations involved, one might
//! also expect it to elegantly degrade a bit."
//!
//! The paper did not simulate ALS; this harness runs AGFW twice on
//! identical scenarios — destination locations from the oracle vs
//! resolved through the live, geo-routed anonymous location service —
//! and reports the delivery/latency/overhead cost of going oracle-free.
//!
//! ```text
//! cargo run --release -p agr-bench --bin table_als_net
//! ```

use agr_bench::runner::{env_u64, jobs, paper_config, par_map, SweepParams};
use agr_bench::Table;
use agr_core::agfw::{Agfw, AgfwConfig, LocationMode};
use agr_core::keys::KeyDirectory;
use agr_sim::{SimTime, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut params = SweepParams::from_env_with_duration(SimTime::from_secs(300));
    if env_u64("AGR_SEEDS").is_none() {
        params.seeds = 3;
    }
    let nodes_list = [30usize, 50, 75];
    let variants = [
        ("oracle", LocationMode::Oracle),
        ("ALS (networked)", LocationMode::Als),
    ];

    // Key generation per node count is itself independent work: fan it.
    eprintln!(
        "generating RSA-512 key pairs for {nodes_list:?} nodes (jobs={})...",
        jobs()
    );
    let keysets = par_map(&nodes_list, jobs(), |&nodes| {
        let mut krng = StdRng::seed_from_u64(nodes as u64);
        KeyDirectory::generate(nodes, 512, &mut krng).unwrap()
    });

    // Every (node count × variant × seed) point is one independent run.
    let tasks: Vec<(usize, usize, u64)> = (0..nodes_list.len())
        .flat_map(|ni| {
            (0..variants.len())
                .flat_map(move |vi| (1..=params.seeds).map(move |seed| (ni, vi, seed)))
        })
        .collect();
    let runs = par_map(&tasks, jobs(), |&(ni, vi, seed)| {
        let nodes = nodes_list[ni];
        let (keys, dir) = &keysets[ni];
        let sim = paper_config(nodes, seed, &params);
        let config = AgfwConfig {
            location: variants[vi].1,
            ..AgfwConfig::default()
        };
        let keys = keys.clone();
        let dir = Arc::clone(dir);
        let mut world = World::new(sim, move |id, cfg, _| {
            Agfw::with_keys(
                id,
                config,
                cfg,
                Arc::clone(&keys[id.0 as usize]),
                Arc::clone(&dir),
                None,
            )
        });
        world.run()
    });

    let mut table = Table::new(vec![
        "nodes",
        "variant",
        "delivery",
        "latency (ms)",
        "ctrl frames/data pkt",
        "query retries",
    ]);
    let mut runs = runs.into_iter();
    for &nodes in &nodes_list {
        for (label, _) in variants {
            let mut delivery = 0.0;
            let mut latency = 0.0;
            let mut overhead = 0.0;
            let mut retries = 0u64;
            for _ in 1..=params.seeds {
                let stats = runs.next().expect("one run per task");
                delivery += stats.delivery_fraction();
                latency += stats.mean_latency().as_millis_f64();
                let ctrl = stats.counter("agfw.hello")
                    + stats.counter("als.update_sent")
                    + stats.counter("als.forward")
                    + stats.counter("als.request_sent")
                    + stats.counter("als.reply_sent");
                overhead += ctrl as f64 / stats.data_sent.max(1) as f64;
                retries += stats.counter("als.request_retry");
            }
            let k = params.seeds as f64;
            table.row(vec![
                nodes.to_string(),
                label.into(),
                format!("{:.3}", delivery / k),
                format!("{:.2}", latency / k),
                format!("{:.2}", overhead / k),
                (retries / params.seeds).to_string(),
            ]);
        }
    }
    println!(
        "Table: AGFW with oracle vs networked anonymous location service (paper S5 prediction)"
    );
    println!("{table}");
    let path = table.save_csv("table_als_net");
    eprintln!("saved {}", path.display());
}
