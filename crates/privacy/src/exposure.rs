//! Identity–location exposure accounting.
//!
//! "The location and identity is a basic doublet for distributing
//! throughout the network ... it is also the explicit source of threats
//! to location privacy" (§2). This module counts exactly those doublets
//! in an eavesdropped trace.

use agr_core::AgfwPacket;
use agr_gpsr::GpsrPacket;
use agr_sim::{FrameObserver, FrameRecord, FrameType};
use std::collections::HashSet;

/// What a global passive eavesdropper extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExposureReport {
    /// Frames observed in total.
    pub frames_observed: u64,
    /// Cleartext identity–location doublets: beacon `(id, pos)` pairs,
    /// data-header `(dst, dst_loc)` pairs, and source-MAC + localised
    /// transmitter pairs.
    pub identity_location_doublets: u64,
    /// Distinct identities that appeared in at least one doublet.
    pub identities_exposed: u64,
    /// Frames whose MAC header disclosed a source address an adversary
    /// can pair with the transmitter's physical location.
    pub mac_source_disclosures: u64,
    /// Pseudonym sightings (identity-free location disclosures) — these
    /// are what AGFW deliberately leaves observable.
    pub pseudonym_sightings: u64,
}

impl ExposureReport {
    /// Doublets per observed frame — the headline privacy rate.
    #[must_use]
    pub fn doublets_per_frame(&self) -> f64 {
        if self.frames_observed == 0 {
            0.0
        } else {
            self.identity_location_doublets as f64 / self.frames_observed as f64
        }
    }
}

/// Streaming exposure accounting for GPSR traces.
///
/// Implements [`FrameObserver`], so it can be attached to a running world
/// and consume each frame as it goes on the air instead of requiring the
/// whole trace in memory.
#[derive(Debug, Default)]
pub struct GpsrExposureObserver {
    report: ExposureReport,
    identities: HashSet<u64>,
}

impl GpsrExposureObserver {
    /// Creates an observer with an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one eavesdropped frame.
    pub(crate) fn observe(&mut self, frame: &FrameRecord<GpsrPacket>) {
        self.report.frames_observed += 1;
        if let Some(src) = frame.src_mac {
            self.report.mac_source_disclosures += 1;
            // The adversary localises the transmitter and reads its MAC:
            // a doublet even without parsing the payload.
            self.report.identity_location_doublets += 1;
            self.identities.insert(u64::from(src.0));
        }
        match frame.packet.as_deref() {
            Some(GpsrPacket::Beacon { id, .. }) => {
                self.report.identity_location_doublets += 1;
                self.identities.insert(u64::from(id.0));
            }
            Some(GpsrPacket::Data(header)) => {
                self.report.identity_location_doublets += 1;
                self.identities.insert(u64::from(header.dst.0));
            }
            None => {}
        }
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> ExposureReport {
        let mut report = self.report.clone();
        report.identities_exposed = self.identities.len() as u64;
        report
    }
}

impl FrameObserver<GpsrPacket> for GpsrExposureObserver {
    fn on_frame(&mut self, frame: &FrameRecord<GpsrPacket>) {
        self.observe(frame);
    }
}

/// Streaming exposure accounting for AGFW traces — see
/// [`GpsrExposureObserver`].
#[derive(Debug, Default)]
pub struct AgfwExposureObserver {
    report: ExposureReport,
}

impl AgfwExposureObserver {
    /// Creates an observer with an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one eavesdropped frame.
    pub(crate) fn observe(&mut self, frame: &FrameRecord<AgfwPacket>) {
        self.report.frames_observed += 1;
        if frame.src_mac.is_some() {
            self.report.mac_source_disclosures += 1;
            self.report.identity_location_doublets += 1;
        }
        match frame.packet.as_deref() {
            Some(AgfwPacket::Hello { .. }) => {
                self.report.pseudonym_sightings += 1;
            }
            Some(AgfwPacket::Data(_)) if frame.frame_type == FrameType::Data => {
                // Data headers carry a location and a pseudonym — no
                // identity. Counted as a sighting of the *next hop*.
                self.report.pseudonym_sightings += 1;
            }
            _ => {}
        }
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> ExposureReport {
        self.report.clone()
    }
}

impl FrameObserver<AgfwPacket> for AgfwExposureObserver {
    fn on_frame(&mut self, frame: &FrameRecord<AgfwPacket>) {
        self.observe(frame);
    }
}

/// Analyses a GPSR trace.
///
/// Every beacon pairs the sender's identity with its position; every data
/// header pairs the destination's identity with its location; every
/// unicast frame's source MAC pairs the (localisable) transmitter with an
/// identity. This is threat source 1) of §2.
#[must_use]
pub fn gpsr_exposure(frames: &[FrameRecord<GpsrPacket>]) -> ExposureReport {
    let mut observer = GpsrExposureObserver::new();
    for frame in frames {
        observer.observe(frame);
    }
    observer.report()
}

/// Analyses an AGFW trace.
///
/// No frame carries an identity: the report's doublet count is
/// structurally zero, while hello sightings (pseudonym + location) are
/// tallied as the identity-free residue available for linking attacks.
#[must_use]
pub fn agfw_exposure(frames: &[FrameRecord<AgfwPacket>]) -> ExposureReport {
    let mut observer = AgfwExposureObserver::new();
    for frame in frames {
        observer.observe(frame);
    }
    observer.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_geom::Point;
    use agr_sim::{MacAddr, NodeId, SimTime};

    fn frame<PKT>(src_mac: Option<MacAddr>, packet: Option<PKT>, tx: u32) -> FrameRecord<PKT> {
        FrameRecord {
            time: SimTime::ZERO,
            tx_node: NodeId(tx),
            tx_pos: Point::new(1.0, 2.0),
            src_mac,
            dst_mac: None,
            frame_type: FrameType::Data,
            packet: packet.map(std::sync::Arc::new),
        }
    }

    #[test]
    fn gpsr_beacons_expose_doublets() {
        let frames = vec![
            frame(
                Some(MacAddr(3)),
                Some(GpsrPacket::Beacon {
                    id: NodeId(3),
                    pos: Point::ORIGIN,
                }),
                3,
            );
            4
        ];
        let report = gpsr_exposure(&frames);
        assert_eq!(report.frames_observed, 4);
        // Each beacon: one MAC doublet + one payload doublet.
        assert_eq!(report.identity_location_doublets, 8);
        assert_eq!(report.identities_exposed, 1);
        assert_eq!(report.doublets_per_frame(), 2.0);
    }

    #[test]
    fn agfw_trace_has_zero_doublets() {
        use agr_core::{AgfwPacket, Pseudonym};
        let frames = vec![
            frame(
                None,
                Some(AgfwPacket::Hello {
                    n: Pseudonym([1; 6]),
                    loc: Point::ORIGIN,
                    vel: None,
                    ts: SimTime::ZERO,
                    auth: None,
                }),
                0,
            );
            5
        ];
        let report = agfw_exposure(&frames);
        assert_eq!(report.identity_location_doublets, 0);
        assert_eq!(report.mac_source_disclosures, 0);
        assert_eq!(report.pseudonym_sightings, 5);
        assert_eq!(report.doublets_per_frame(), 0.0);
    }

    #[test]
    fn empty_trace() {
        let report = gpsr_exposure(&[]);
        assert_eq!(report, ExposureReport::default());
        assert_eq!(report.doublets_per_frame(), 0.0);
    }
}
