//! Adversary observation model and anonymity metrics.
//!
//! The paper's §4 argues its security informally; this crate makes the
//! claims *measurable* on simulation traces. A **global passive
//! eavesdropper** (the strongest §2 adversary: every frame observed, with
//! direction-finding hardware that localises each transmitter) is modelled
//! by an observer attached to the simulator (`World::attach_observer`)
//! that sees every frame as it goes on the air. What each packet type
//! discloses is declared once, in [`disclosure`]; the one
//! [`exposure::Eavesdropper`] reads payloads only through it and answers
//! three questions over the trace:
//!
//! 1. **Exposure** ([`exposure`]): how many identity–location doublets
//!    does the protocol hand the adversary in cleartext? (GPSR: one per
//!    beacon, data header, and addressed frame; AGFW: zero.)
//! 2. **Tracking** ([`tracker`]): given only pseudonymous sightings, how
//!    well does spatio-temporal linking reconstruct a target's trajectory?
//!    This quantifies the *residual* risk the paper accepts by leaving
//!    locations in cleartext.
//! 3. **Anonymity sets** ([`metrics`]): how large is the crowd a sighting
//!    hides in?
//!
//! Besides the global adversary, [`sniffer`] models the §2 threat of
//! *local* eavesdroppers with bounded radio coverage, so every metric can
//! also be evaluated as a function of how much of the network the
//! adversary actually hears.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disclosure;
pub mod exposure;
pub mod metrics;
pub mod sniffer;
pub mod tracker;

pub use metrics::anonymity_entropy;
