//! §4 security analysis, quantified: what does a global passive
//! eavesdropper actually learn under GPSR vs AGFW?
//!
//! Three measurements over identical scenarios (same seeds, same
//! mobility, same traffic):
//!
//! 1. identity–location doublet exposure (§2's threat currency);
//! 2. spatio-temporal pseudonym-linking tracking accuracy — the §4 caveat
//!    that AGFW is *not* route-untraceable, made concrete;
//! 3. anonymity-set size of a hello sighting.
//!
//! ```text
//! cargo run --release -p agr-bench --bin privacy_eval
//! ```

use agr_bench::runner::{jobs, paper_config, par_map, SweepParams};
use agr_bench::Table;
use agr_core::agfw::{Agfw, AgfwConfig};
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_privacy::disclosure::Discloses;
use agr_privacy::exposure::Eavesdropper;
use agr_privacy::metrics::anonymity_entropy;
use agr_privacy::tracker::{
    link_tracks, mean_time_to_confusion, mean_tracking_accuracy, LinkingParams,
};
use agr_sim::{NodeId, Protocol, SimTime, World};
use std::cell::RefCell;
use std::rc::Rc;

/// Post-processed output of one run: the two table rows. Frames are
/// folded into a streaming eavesdropper on the worker that produced them;
/// only row strings cross threads.
struct RunRows {
    exposure: Vec<String>,
    tracking: Vec<String>,
}

fn main() {
    let params = SweepParams::from_env_with_duration(SimTime::from_secs(300));
    let nodes_list = [50usize, 112, 150];
    let seed = 1;

    let mut exposure_table = Table::new(vec![
        "nodes",
        "protocol",
        "frames",
        "id-loc doublets",
        "doublets/frame",
        "identities exposed",
        "MAC disclosures",
        "pseudonym sightings",
    ]);
    let mut tracking_table = Table::new(vec![
        "nodes",
        "protocol",
        "sightings",
        "tracks",
        "mean tracking accuracy",
        "time-to-confusion (s)",
        "mean anonymity set",
        "anonymity entropy (bits)",
    ]);

    // One task per (node count, protocol); the worker pool runs and
    // analyses them concurrently, and the input-ordered results rebuild
    // the tables exactly as a serial loop would.
    let tasks: Vec<(usize, bool)> = nodes_list
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let rows = par_map(&tasks, jobs(), |&(nodes, is_agfw)| {
        let config = paper_config(nodes, seed, &params);
        if is_agfw {
            let world = World::new(config, |id, cfg, rng| {
                Agfw::new(id, AgfwConfig::default(), cfg, rng)
            });
            run_rows(world, nodes, is_agfw, &params)
        } else {
            let world = World::new(config, |_, _, rng| {
                Gpsr::new(GpsrConfig::greedy_only(), rng)
            });
            run_rows(world, nodes, is_agfw, &params)
        }
    });
    for run in rows {
        exposure_table.row(run.exposure);
        tracking_table.row(run.tracking);
    }

    println!("Table: identity-location exposure under a global passive eavesdropper");
    println!("{exposure_table}");
    println!("Table: trajectory tracking and anonymity sets");
    println!("{tracking_table}");
    let p1 = exposure_table.save_csv("privacy_exposure");
    let p2 = tracking_table.save_csv("privacy_tracking");
    eprintln!("saved {} and {}", p1.display(), p2.display());
}

/// Runs one scenario with a streaming eavesdropper attached — the trace
/// is folded into aggregates on the fly, never materialised.
fn run_rows<P>(mut world: World<P>, nodes: usize, is_agfw: bool, params: &SweepParams) -> RunRows
where
    P: Protocol,
    P::Packet: Discloses,
{
    let eavesdropper = Rc::new(RefCell::new(Eavesdropper::new()));
    world.attach_observer(Box::new(Rc::clone(&eavesdropper)));
    world.run();
    let eavesdropper = eavesdropper.borrow();
    let report = eavesdropper.report();
    let exposure = vec![
        nodes.to_string(),
        if is_agfw { "AGFW" } else { "GPSR" }.into(),
        report.frames_observed.to_string(),
        report.identity_location_doublets.to_string(),
        format!("{:.2}", report.doublets_per_frame()),
        report.identities_exposed.to_string(),
        report.mac_source_disclosures.to_string(),
        report.pseudonym_sightings.to_string(),
    ];
    let sightings = eavesdropper.sightings();
    let tracks = link_tracks(sightings, &LinkingParams::default());
    let (protocol, accuracy, ttc) = if is_agfw {
        // Mean time-to-confusion over all victims.
        let ttc = (0..nodes as u32)
            .map(|i| mean_time_to_confusion(&tracks, NodeId(i)).as_secs_f64())
            .sum::<f64>()
            / nodes as f64;
        (
            "AGFW (pseudonyms)",
            format!("{:.2}", mean_tracking_accuracy(&tracks)),
            format!("{ttc:.0}"),
        )
    } else {
        // GPSR tracking is trivially perfect — identities ride on every
        // beacon — but the same linker runs for a like-for-like row.
        (
            "GPSR (ids in clear)",
            "1.00 (by identity)".into(),
            format!("{:.0} (whole run)", params.duration.as_secs_f64()),
        )
    };
    let (mean_set, entropy) = anonymity_stats(&mut world, nodes);
    let tracking = vec![
        nodes.to_string(),
        protocol.into(),
        sightings.len().to_string(),
        tracks.len().to_string(),
        accuracy,
        ttc,
        format!("{mean_set:.1}"),
        format!("{entropy:.1}"),
    ];
    RunRows { exposure, tracking }
}

/// Mean anonymity-set size and entropy of a transmission observed at a
/// node position, given final node positions (adversary uncertainty = one
/// radio range).
fn anonymity_stats<P: Protocol>(world: &mut World<P>, nodes: usize) -> (f64, f64) {
    let positions: Vec<_> = (0..nodes as u32)
        .map(|i| world.position_of(NodeId(i)))
        .collect();
    let mean_set = agr_privacy::metrics::mean_candidate_set(&positions, &positions, 250.0);
    (mean_set, anonymity_entropy(mean_set.round() as usize))
}
