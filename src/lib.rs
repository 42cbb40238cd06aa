//! # agr — Anonymous Geographic Ad Hoc Routing
//!
//! A complete Rust reproduction of Zhou & Yow, *"Anonymizing Geographic
//! Ad Hoc Routing for Preserving Location Privacy"*: the anonymous
//! routing protocol (ANT / AGFW / ALS), the GPSR baseline it is measured
//! against, a discrete-event MANET simulator with an IEEE 802.11 DCF MAC,
//! a from-scratch cryptographic stack (RSA, SHA-256, ring signatures),
//! and an adversary model that makes the paper's privacy claims
//! measurable.
//!
//! This crate is the umbrella facade: it re-exports every member crate
//! under a stable module name, and hosts the repository-level examples
//! and integration tests.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`geom`] | `agr-geom` | points, areas, grids, the greedy forwarding kernel |
//! | [`crypto`] | `agr-crypto` | bignum, RSA, SHA-256, ring signatures, trapdoors, certificates |
//! | [`sim`] | `agr-sim` | discrete-event MANET simulator (PHY, 802.11 DCF, mobility, traffic) |
//! | [`gpsr`] | `agr-gpsr` | GPSR-Greedy baseline: beacons, greedy forwarding |
//! | [`core`] | `agr-core` | the paper's contribution: ANT/AANT, AGFW, ALS/DLM |
//! | [`privacy`] | `agr-privacy` | eavesdropper model, exposure metrics, tracking attack |
//! | [`als_service`] | `agr-als-service` | the ALS as a standalone sharded service (store, pipeline, transports) |
//!
//! # Quickstart
//!
//! Run anonymous routing over a 50-node mobile network and compare its
//! delivery fraction with the GPSR baseline:
//!
//! ```
//! use agr::core::agfw::{Agfw, AgfwConfig};
//! use agr::gpsr::{Gpsr, GpsrConfig};
//! use agr::sim::{SimConfig, SimTime, World};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut config = SimConfig::default();
//! config.duration = SimTime::from_secs(60);
//! let config = config.with_cbr_traffic(10, 5, SimTime::from_secs(1), 64, &mut rng);
//!
//! let mut gpsr = World::new(config.clone(), |_, _, rng| {
//!     Gpsr::new(GpsrConfig::greedy_only(), rng)
//! });
//! let mut agfw = World::new(config, |id, cfg, rng| {
//!     Agfw::new(id, AgfwConfig::default(), cfg, rng)
//! });
//! let (g, a) = (gpsr.run(), agfw.run());
//! assert!(g.delivery_fraction() > 0.5 && a.delivery_fraction() > 0.5);
//! ```
//!
//! See `examples/` for complete scenarios and the `agr-bench` crate for
//! the binaries that regenerate every figure and table of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use agr_als_service as als_service;
pub use agr_core as core;
pub use agr_crypto as crypto;
pub use agr_geom as geom;
pub use agr_gpsr as gpsr;
pub use agr_privacy as privacy;
pub use agr_sim as sim;
