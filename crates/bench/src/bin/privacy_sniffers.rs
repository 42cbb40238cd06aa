//! §2 threat 1) quantified: how much adversary *coverage* does tracking
//! require?
//!
//! The paper's first threat source is a node that observes whatever is
//! "inside the radio range" — a local sniffer. This sweep deploys grids
//! of 1..24 stationary sniffers over the same GPSR and AGFW runs and
//! reports, per coverage level: frames overheard, identity–location
//! doublets harvested, and trajectory-tracking accuracy against node 0.
//!
//! ```text
//! cargo run --release -p agr-bench --bin privacy_sniffers
//! ```

use agr_bench::runner::{jobs, paper_config, par_map, SweepParams};
use agr_bench::Table;
use agr_core::agfw::{Agfw, AgfwConfig};
use agr_geom::Rect;
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_privacy::disclosure::Discloses;
use agr_privacy::exposure::Eavesdropper;
use agr_privacy::sniffer::{SnifferField, SnifferObserver};
use agr_privacy::tracker::{link_tracks, tracking_accuracy, LinkingParams};
use agr_sim::{NodeId, Protocol, SimTime, World};
use std::cell::RefCell;
use std::rc::Rc;

const SNIFFER_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 24];

fn main() {
    let params = SweepParams::from_env_with_duration(SimTime::from_secs(300));
    let seed = 1;

    // One run per protocol, fanned over the worker pool; the sniffer
    // fields post-process each trace on its own worker.
    let tasks = [false, true];
    let outputs = par_map(&tasks, jobs(), |&is_agfw| {
        let config = paper_config(50, seed, &params);
        let area = config.area;
        if is_agfw {
            let world = World::new(config, |id, cfg, rng| {
                Agfw::new(id, AgfwConfig::default(), cfg, rng)
            });
            sniffer_columns(world, area)
        } else {
            let world = World::new(config, |_, _, rng| {
                Gpsr::new(GpsrConfig::greedy_only(), rng)
            });
            sniffer_columns(world, area)
        }
    });
    let (gpsr_cols, agfw_cols) = (&outputs[0], &outputs[1]);

    let mut table = Table::new(vec![
        "sniffers",
        "coverage (GPSR frames)",
        "GPSR doublets",
        "GPSR identities",
        "GPSR tracking",
        "AGFW doublets",
        "AGFW tracking",
    ]);
    for (i, count) in SNIFFER_COUNTS.iter().enumerate() {
        let (coverage, g_doublets, g_ids, g_acc) = gpsr_cols[i];
        let (_, a_doublets, _, a_acc) = agfw_cols[i];
        table.row(vec![
            count.to_string(),
            format!("{:.0}%", coverage * 100.0),
            g_doublets.to_string(),
            g_ids.to_string(),
            format!("{g_acc:.2}"),
            a_doublets.to_string(),
            format!("{a_acc:.2}"),
        ]);
    }
    println!("Table: adversary coverage sweep (grid sniffers, 250 m range, 50-node runs)");
    println!("{table}");
    println!(
        "GPSR tracking column uses id-blind spatio-temporal linking; with ids\n\
         in the clear even ONE sniffer identifies every node it ever hears."
    );
    let path = table.save_csv("privacy_sniffers");
    eprintln!("saved {}", path.display());
}

/// Runs one world with an eavesdropper per coverage level, each behind
/// its own sniffer grid, all streaming over the single run; the full
/// trace is never materialised. Returns, per level: the fraction of
/// frames overheard, doublets, identities exposed, and tracking accuracy
/// against node 0.
fn sniffer_columns<P>(mut world: World<P>, area: Rect) -> Vec<(f64, u64, u64, f64)>
where
    P: Protocol,
    P::Packet: Discloses,
{
    let sniffers: Vec<_> = SNIFFER_COUNTS
        .iter()
        .map(|&count| {
            let sniffer = Rc::new(RefCell::new(SnifferObserver::new(
                SnifferField::grid(count, area, 250.0),
                Eavesdropper::new(),
            )));
            world.attach_observer(Box::new(Rc::clone(&sniffer)));
            sniffer
        })
        .collect();
    world.run();
    sniffers
        .iter()
        .map(|sniffer| {
            let sniffer = sniffer.borrow();
            let report = sniffer.inner().report();
            let tracks = link_tracks(sniffer.inner().sightings(), &LinkingParams::default());
            (
                sniffer.coverage_seen(),
                report.identity_location_doublets,
                report.identities_exposed,
                tracking_accuracy(&tracks, NodeId(0)),
            )
        })
        .collect()
}
