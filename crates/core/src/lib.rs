//! Anonymous geographic ad hoc routing — the contribution of Zhou & Yow,
//! *"Anonymizing Geographic Ad Hoc Routing for Preserving Location
//! Privacy"*.
//!
//! Geographic routing is efficient because every control and data message
//! carries locations; it is privacy-hostile for the same reason, because
//! those locations travel next to *identities*. This crate implements the
//! paper's answer — dissociate the two — as three components:
//!
//! * **ANT** ([`ant`], [`pseudonym`]): an *anonymous neighbor table*.
//!   Hello beacons carry a fresh one-time pseudonym `n = hash(pr, id)`
//!   instead of the sender identity, so the table binds pseudonyms — not
//!   identities — to locations. The authenticated variant
//!   ([`aant`]) wraps hellos in Rivest–Shamir–Tauman ring signatures for
//!   `(k+1)`-anonymous authentication.
//! * **AGFW** ([`agfw`]): *anonymous greedy forwarding*. Data packets
//!   carry `⟨DATA, loc_d, n, trapdoor⟩` — a destination location but no
//!   identity. Everything is link-layer broadcast with no source MAC;
//!   reliability is rebuilt with network-layer ACKs; the destination
//!   detects its own packets by opening the [`agr_crypto::trapdoor`]
//!   only inside the last-hop region.
//! * **ALS** ([`als`], over [`dlm`]): an *anonymous location service* on
//!   a DLM-style grid. Updates store `E_KB(A, loc_A, ts)` blobs indexed by
//!   `E_KB(A, B)`, so the server learns neither the updater's location nor
//!   the requester's identity.
//!
//! [`agfw::Agfw`] implements [`agr_sim::Protocol`] and runs on the same
//! simulator as the `agr-gpsr` baseline, which is how the
//! paper's Figure 1 is reproduced (see the `agr-bench` crate).
//!
//! # Examples
//!
//! ```
//! use agr_core::agfw::{Agfw, AgfwConfig};
//! use agr_sim::{SimConfig, SimTime, World};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut config = SimConfig::default();
//! config.duration = SimTime::from_secs(120);
//! let config = config.with_cbr_traffic(5, 3, SimTime::from_secs(1), 64, &mut rng);
//! let mut world = World::new(config, |id, cfg, rng| {
//!     Agfw::new(id, AgfwConfig::default(), cfg, rng)
//! });
//! let stats = world.run();
//! assert!(stats.delivery_fraction() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aant;
pub mod agfw;
pub mod als;
pub mod ant;
pub mod backoff;
pub mod dlm;
pub mod keys;
pub mod packet;
pub mod pseudonym;
pub mod wire;

pub use ant::{AnonymousNeighborTable, SelectionStrategy};
pub use packet::{AgfwData, AgfwPacket, TrapdoorWire};
pub use pseudonym::{Pseudonym, PseudonymGenerator};

/// Every map and set in this crate is on `agr_sim::FixedHasher`, the one
/// fixed-key hasher of the simulator: the same inserts iterate in the
/// same order in every run and every process, so no random hasher seed
/// can reach the simulation. (`clippy.toml` bans std's randomly keyed
/// `HashMap` and `HashSet` in this crate.)
pub(crate) use agr_sim::{FixedMap, FixedSet};
