//! A global passive eavesdropper watches the same network twice — once
//! under GPSR, once under AGFW — and tries to (a) harvest
//! identity–location doublets and (b) track node 0's trajectory.
//!
//! This is the paper's §2 threat model and §4 security analysis turned
//! into numbers.
//!
//! ```text
//! cargo run --release --example tracking_adversary
//! ```

use agr::core::agfw::{Agfw, AgfwConfig};
use agr::gpsr::{Gpsr, GpsrConfig};
use agr::privacy::disclosure::Discloses;
use agr::privacy::exposure::Eavesdropper;
use agr::privacy::tracker::{
    link_tracks, mean_time_to_confusion, mean_tracking_accuracy, tracking_accuracy, LinkingParams,
};
use agr::sim::{NodeId, Protocol, SimConfig, SimTime, World};
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

fn scenario(seed: u64) -> SimConfig {
    let mut traffic_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut config = SimConfig::default();
    config.duration = SimTime::from_secs(180);
    config.seed = seed;
    config.with_cbr_traffic(15, 10, SimTime::from_secs(1), 64, &mut traffic_rng)
}

/// Arms a global passive eavesdropper on `world` and runs it.
fn eavesdrop<P: Protocol>(mut world: World<P>) -> Eavesdropper
where
    P::Packet: Discloses,
{
    let eavesdropper = Rc::new(RefCell::new(Eavesdropper::new()));
    world.attach_observer(Box::new(Rc::clone(&eavesdropper)));
    let _ = world.run();
    eavesdropper.take()
}

fn main() {
    let target = NodeId(0);

    println!("== GPSR under a global passive eavesdropper ==");
    let heard = eavesdrop(World::new(scenario(3), |_, _, rng| {
        Gpsr::new(GpsrConfig::greedy_only(), rng)
    }));
    let report = heard.report();
    println!(
        "  {} frames observed -> {} identity-location doublets ({:.2}/frame)",
        report.frames_observed,
        report.identity_location_doublets,
        report.doublets_per_frame()
    );
    println!(
        "  {} of {} identities exposed; {} frames disclosed a source MAC",
        report.identities_exposed, 50, report.mac_source_disclosures
    );
    // With identities in the clear, "tracking" is just reading the id
    // field — but even treating beacons as anonymous, linking works:
    let tracks = link_tracks(heard.sightings(), &LinkingParams::default());
    println!(
        "  trajectory of {target}: trivially recoverable (ids in clear); \
         even id-blind linking reaches {:.0}% accuracy\n",
        tracking_accuracy(&tracks, target) * 100.0
    );

    println!("== AGFW under the same eavesdropper ==");
    let heard = eavesdrop(World::new(scenario(3), |id, cfg, rng| {
        Agfw::new(id, AgfwConfig::default(), cfg, rng)
    }));
    let report = heard.report();
    println!(
        "  {} frames observed -> {} identity-location doublets",
        report.frames_observed, report.identity_location_doublets
    );
    println!(
        "  {} pseudonym sightings (locations without identities)",
        report.pseudonym_sightings
    );
    let tracks = link_tracks(heard.sightings(), &LinkingParams::default());
    let acc = tracking_accuracy(&tracks, target);
    let mean_acc = mean_tracking_accuracy(&tracks);
    let ttc = mean_time_to_confusion(&tracks, target);
    println!(
        "  spatio-temporal linking of {target}'s hellos: {:.0}% in the best track, \
         time-to-confusion {:.0} s;\n   mean accuracy over all 50 victims: {:.0}% \
         ({} tracks reconstructed — fragmentation is the privacy gain)",
        acc * 100.0,
        ttc.as_secs_f64(),
        mean_acc * 100.0,
        tracks.len()
    );
    println!(
        "\nAGFW hands the adversary zero identity-location doublets; what\n\
         remains is the §4 caveat: routes and locations are observable, so\n\
         dense traffic analysis (not identity harvesting) is the residual risk."
    );
}
