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
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_privacy::exposure::{AgfwExposureObserver, GpsrExposureObserver};
use agr_privacy::sniffer::{SnifferField, SnifferObserver};
use agr_privacy::tracker::{
    link_tracks, tracking_accuracy, AgfwSightingObserver, GpsrSightingObserver, LinkingParams,
};
use agr_sim::{NodeId, SimTime, World};
use std::cell::RefCell;
use std::rc::Rc;

const SNIFFER_COUNTS: [usize; 6] = [1, 2, 4, 8, 12, 24];

/// Per-sniffer-count columns harvested from one protocol's run. Each
/// count attaches its own pair of streaming [`SnifferObserver`]s, so the
/// full trace is never materialised; only these scalars cross threads.
enum TraceCols {
    /// (coverage, doublets, identities, tracking accuracy) per count.
    Gpsr(Vec<(f64, u64, u64, f64)>),
    /// (doublets, tracking accuracy) per count.
    Agfw(Vec<(u64, f64)>),
}

fn main() {
    let params = SweepParams::from_env_with_duration(SimTime::from_secs(300));
    let seed = 1;
    let target = NodeId(0);

    // One run per protocol, fanned over the worker pool; the sniffer
    // fields post-process each trace on its own worker.
    let tasks = [false, true];
    let outputs = par_map(&tasks, jobs(), |&is_agfw| {
        let config = paper_config(50, seed, &params);
        let area = config.area;
        if is_agfw {
            let mut world = World::new(config, |id, cfg, rng| {
                Agfw::new(id, AgfwConfig::default(), cfg, rng)
            });
            // One (exposure, sighting) observer pair per coverage level,
            // each behind its own sniffer field; all stream concurrently
            // over the single run.
            let observers: Vec<_> = SNIFFER_COUNTS
                .iter()
                .map(|&count| {
                    let exposure = Rc::new(RefCell::new(SnifferObserver::new(
                        SnifferField::grid(count, area, 250.0),
                        AgfwExposureObserver::new(),
                    )));
                    let sightings = Rc::new(RefCell::new(SnifferObserver::new(
                        SnifferField::grid(count, area, 250.0),
                        AgfwSightingObserver::new(),
                    )));
                    world.attach_observer(Box::new(Rc::clone(&exposure)));
                    world.attach_observer(Box::new(Rc::clone(&sightings)));
                    (exposure, sightings)
                })
                .collect();
            world.run();
            let cols = observers
                .iter()
                .map(|(exposure, sightings)| {
                    let report = exposure.borrow().inner().report();
                    let sightings = sightings.borrow();
                    let tracks =
                        link_tracks(sightings.inner().sightings(), &LinkingParams::default());
                    (
                        report.identity_location_doublets,
                        tracking_accuracy(&tracks, target),
                    )
                })
                .collect();
            TraceCols::Agfw(cols)
        } else {
            let mut world = World::new(config, |_, _, rng| {
                Gpsr::new(GpsrConfig::greedy_only(), rng)
            });
            let observers: Vec<_> = SNIFFER_COUNTS
                .iter()
                .map(|&count| {
                    let exposure = Rc::new(RefCell::new(SnifferObserver::new(
                        SnifferField::grid(count, area, 250.0),
                        GpsrExposureObserver::new(),
                    )));
                    let sightings = Rc::new(RefCell::new(SnifferObserver::new(
                        SnifferField::grid(count, area, 250.0),
                        GpsrSightingObserver::new(),
                    )));
                    world.attach_observer(Box::new(Rc::clone(&exposure)));
                    world.attach_observer(Box::new(Rc::clone(&sightings)));
                    (exposure, sightings)
                })
                .collect();
            world.run();
            let cols = observers
                .iter()
                .map(|(exposure, sightings)| {
                    let exposure = exposure.borrow();
                    let report = exposure.inner().report();
                    let sightings = sightings.borrow();
                    let tracks =
                        link_tracks(sightings.inner().sightings(), &LinkingParams::default());
                    (
                        exposure.coverage_seen(),
                        report.identity_location_doublets,
                        report.identities_exposed,
                        tracking_accuracy(&tracks, target),
                    )
                })
                .collect();
            TraceCols::Gpsr(cols)
        }
    });
    let mut gpsr_cols = None;
    let mut agfw_cols = None;
    for cols in outputs {
        match cols {
            TraceCols::Gpsr(c) => gpsr_cols = Some(c),
            TraceCols::Agfw(c) => agfw_cols = Some(c),
        }
    }
    let (gpsr_cols, agfw_cols) = (
        gpsr_cols.expect("gpsr trace"),
        agfw_cols.expect("agfw trace"),
    );

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
        let (a_doublets, a_acc) = agfw_cols[i];
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
