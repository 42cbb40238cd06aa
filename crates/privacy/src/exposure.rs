//! Identity–location exposure accounting.
//!
//! "The location and identity is a basic doublet for distributing
//! throughout the network ... it is also the explicit source of threats
//! to location privacy" (§2). This module counts exactly those doublets
//! in an eavesdropped trace, as each packet type declares them in
//! [`crate::disclosure`].

use crate::disclosure::Discloses;
use crate::tracker::Sighting;
use agr_sim::{FixedSet, FrameObserver, FrameRecord};

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

/// A passive eavesdropper: folds every frame it hears into an
/// [`ExposureReport`] and the tracker's sighting list in one pass.
///
/// It reads a payload only through [`Discloses`], so one observer serves
/// every protocol. Attach it to a running world (wrapped in
/// `Rc<RefCell<_>>` to read it back), or behind a
/// [`crate::sniffer::SnifferObserver`] for bounded coverage.
#[derive(Debug, Default)]
pub struct Eavesdropper {
    report: ExposureReport,
    identities: FixedSet<u64>,
    sightings: Vec<Sighting>,
}

impl Eavesdropper {
    /// Creates an eavesdropper that has heard nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> ExposureReport {
        let mut report = self.report.clone();
        report.identities_exposed = self.identities.len() as u64;
        report
    }

    /// The beacon and hello sightings collected so far, in transmission
    /// order.
    #[must_use]
    pub fn sightings(&self) -> &[Sighting] {
        &self.sightings
    }
}

impl<PKT: Discloses> FrameObserver<PKT> for Eavesdropper {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        self.report.frames_observed += 1;
        if let Some(src) = frame.src_mac {
            self.report.mac_source_disclosures += 1;
            // The adversary localises the transmitter and reads its MAC:
            // a doublet even without parsing the payload.
            self.report.identity_location_doublets += 1;
            self.identities.insert(u64::from(src.0));
        }
        let Some(disclosure) = frame.packet.as_deref().map(Discloses::disclosure) else {
            return;
        };
        if let Some(id) = disclosure.identity {
            self.report.identity_location_doublets += 1;
            self.identities.insert(u64::from(id.0));
        }
        if disclosure.pseudonymous {
            self.report.pseudonym_sightings += 1;
        }
        if let Some(pos) = disclosure.advertised {
            self.sightings.push(Sighting {
                time: frame.time,
                pos,
                truth: frame.tx_node,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_core::{AgfwPacket, Pseudonym};
    use agr_geom::Point;
    use agr_gpsr::GpsrPacket;
    use agr_sim::{FrameType, MacAddr, NodeId, SimTime};

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

    fn hear<PKT: Discloses>(frames: &[FrameRecord<PKT>]) -> Eavesdropper {
        let mut eavesdropper = Eavesdropper::new();
        for f in frames {
            eavesdropper.on_frame(f);
        }
        eavesdropper
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
        let heard = hear(&frames);
        let report = heard.report();
        assert_eq!(report.frames_observed, 4);
        // Each beacon: one MAC doublet + one payload doublet, both naming
        // the same node.
        assert_eq!(report.identity_location_doublets, 8);
        assert_eq!(report.identities_exposed, 1);
        assert_eq!(report.doublets_per_frame(), 2.0);
        assert_eq!(heard.sightings().len(), 4);
    }

    #[test]
    fn agfw_trace_has_zero_doublets() {
        let frames = vec![
            frame(
                None,
                Some(AgfwPacket::Hello {
                    n: Pseudonym([1; 6]),
                    loc: Point::ORIGIN,
                    ts: SimTime::ZERO,
                    auth: None,
                }),
                0,
            );
            5
        ];
        let heard = hear(&frames);
        let report = heard.report();
        assert_eq!(report.identity_location_doublets, 0);
        assert_eq!(report.mac_source_disclosures, 0);
        assert_eq!(report.pseudonym_sightings, 5);
        assert_eq!(report.doublets_per_frame(), 0.0);
        assert_eq!(heard.sightings().len(), 5);
    }

    #[test]
    fn empty_trace() {
        let report = hear::<GpsrPacket>(&[]).report();
        assert_eq!(report, ExposureReport::default());
        assert_eq!(report.doublets_per_frame(), 0.0);
    }
}
