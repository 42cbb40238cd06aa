//! GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).
//!
//! This is the baseline the paper measures AGFW against ("our
//! implementation is based on the original codebase of GPSR", §5.1) and
//! the substrate whose behaviours AGFW anonymises:
//!
//! * **Beaconing** ([`NeighborTable`]): every node periodically broadcasts
//!   `⟨id, position⟩`; neighbors keep a table and expire entries after a
//!   multiple of the beacon interval. This is exactly the *local location
//!   update* that leaks identity–location pairs (threat 1 of §2).
//! * **Greedy forwarding** ([`greedy`]): forward to the neighbor
//!   geographically closest to the destination, strictly closer than
//!   yourself. Packets are MAC *unicasts* — RTS/CTS/DATA/ACK — addressed
//!   to the chosen neighbor's MAC address.
//! * **Perimeter recovery** ([`GpsrConfig::with_perimeter`]): when greedy
//!   hits a local maximum, route around the void on the Gabriel-planarised
//!   neighbor graph by the right-hand rule. The paper's §6 names this the
//!   natural extension of the anonymous scheme; we implement it for the
//!   baseline and as an AGFW ablation.
//!
//! Both rules are [`agr_geom::planar`]'s forwarding kernel, the same code
//! AGFW routes with; this crate supplies the identified neighbor table and
//! the perimeter-mode state carried in each packet. The [`Gpsr`] type
//! implements [`agr_sim::Protocol`] and runs on the `agr-sim` MANET
//! simulator.
//!
//! # Examples
//!
//! ```
//! use agr_gpsr::{Gpsr, GpsrConfig};
//! use agr_sim::{SimConfig, SimTime, World};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut config = SimConfig::default();
//! config.duration = SimTime::from_secs(120);
//! let config = config.with_cbr_traffic(5, 3, SimTime::from_secs(1), 64, &mut rng);
//! let mut world = World::new(config, |_, _, rng| Gpsr::new(GpsrConfig::default(), rng));
//! let stats = world.run();
//! assert!(stats.delivery_fraction() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
mod neighbor;
pub mod packet;
mod protocol;

pub use neighbor::{Neighbor, NeighborTable};
pub use packet::GpsrPacket;
pub use protocol::{Gpsr, GpsrConfig};
