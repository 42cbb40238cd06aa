//! The radio: unit-disk propagation, carrier sensing, collisions.
//!
//! The model matches the NS-2 CMU wireless PHY at the level the paper's
//! results depend on:
//!
//! * **Communication range** (250 m): inside it a frame can be decoded.
//! * **Carrier-sense range** (550 m): inside it a transmission is sensed
//!   as energy and *interferes* with concurrent receptions, but cannot be
//!   decoded. The gap between the two ranges is what creates hidden
//!   terminals, the effect the paper blames for AGFW-without-ACK's losses.
//! * **Collisions**: a frame is received iff it is the only transmission
//!   sensed by the receiver for its entire airtime and the receiver is not
//!   itself transmitting (half-duplex). Any overlap corrupts all frames
//!   involved (no capture effect).
//!
//! Propagation delay (< 2 µs at these ranges) is ignored; it is three
//! orders of magnitude below the MAC's slot time.

use crate::mac::MacFrame;
use crate::time::SimTime;
use agr_geom::Point;

/// Per-node radio state.
#[derive(Debug)]
pub(crate) struct PhyState<PKT> {
    /// End time of this node's own transmission, if transmitting.
    pub(crate) transmitting: Option<SimTime>,
    /// Number of foreign carriers currently sensed (within cs-range).
    pub(crate) sensed: u32,
    /// When the medium last became idle at this node.
    pub(crate) idle_since: SimTime,
    /// Carriers currently overlapping this node, deliverable or not.
    pub(crate) pending: Vec<PendingRx<PKT>>,
}

impl<PKT> PhyState<PKT> {
    fn new() -> Self {
        PhyState {
            transmitting: None,
            sensed: 0,
            idle_since: SimTime::ZERO,
            pending: Vec::new(),
        }
    }

    /// True if the physical medium is busy at this node (own transmission
    /// or any sensed carrier).
    pub(crate) fn busy(&self) -> bool {
        self.transmitting.is_some() || self.sensed > 0
    }
}

/// A carrier overlapping a node.
#[derive(Debug)]
pub(crate) struct PendingRx<PKT> {
    pub(crate) rx_id: u64,
    /// Ground-truth transmitter of this carrier. The MAC never sees it
    /// (frames may be source-less broadcasts); the fault layer keys its
    /// per-directed-link loss channels on it.
    pub(crate) tx: usize,
    /// The frame, kept only when it was decodable at start.
    pub(crate) frame: Option<MacFrame<PKT>>,
    /// Set when another carrier or the node's own transmission overlapped.
    pub(crate) corrupted: bool,
}

/// Result of starting a transmission.
#[derive(Debug)]
pub(crate) struct TxStart {
    /// When the transmission ends.
    pub(crate) end: SimTime,
    /// Nodes whose medium transitioned idle → busy.
    pub(crate) went_busy: Vec<usize>,
    /// `(node, rx_id)` carrier-end notifications to schedule at `end`.
    pub(crate) rx_ends: Vec<(usize, u64)>,
}

/// Result of a carrier ending at a node.
#[derive(Debug)]
pub(crate) struct RxEndOutcome<PKT> {
    /// The successfully received frame, if any.
    pub(crate) frame: Option<MacFrame<PKT>>,
    /// Ground-truth transmitter of the carrier (for per-link fault
    /// channels).
    pub(crate) tx: usize,
    /// True if the frame existed but was corrupted by a collision.
    pub(crate) collided: bool,
    /// True if the node's medium transitioned busy → idle.
    pub(crate) went_idle: bool,
}

/// The shared radio channel.
#[derive(Debug)]
pub(crate) struct Phy<PKT> {
    pub(crate) comm_range: f64,
    pub(crate) cs_range: f64,
    pub(crate) states: Vec<PhyState<PKT>>,
    next_rx_id: u64,
}

impl<PKT: Clone> Phy<PKT> {
    pub(crate) fn new(comm_range: f64, cs_range: f64, nodes: usize) -> Self {
        Phy {
            comm_range,
            cs_range,
            states: (0..nodes).map(|_| PhyState::new()).collect(),
            next_rx_id: 0,
        }
    }

    /// Node `tx` starts transmitting `frame` for `airtime`.
    ///
    /// `candidates` lists `(node, position)` pairs — a *superset* of the
    /// nodes within carrier-sense range of `tx_pos`, in ascending node
    /// order (entries for `tx` itself are ignored). The caller produces it
    /// either by a full scan or from a spatial index; exact distances are
    /// re-checked here, so any superset yields the same receiver set and,
    /// because of the ordering, the same event schedule.
    ///
    /// Positions are a snapshot at the start instant; the receiver set is
    /// frozen there (node speeds are ~five orders of magnitude below frame
    /// airtimes, so mid-frame movement is negligible).
    pub(crate) fn start_tx(
        &mut self,
        tx: usize,
        tx_pos: Point,
        frame: MacFrame<PKT>,
        airtime: SimTime,
        now: SimTime,
        candidates: &[(usize, Point)],
    ) -> TxStart {
        debug_assert!(
            self.states[tx].transmitting.is_none(),
            "already transmitting"
        );
        debug_assert!(
            candidates.windows(2).all(|w| w[0].0 < w[1].0),
            "candidates must be in ascending node order"
        );
        let end = now + airtime;
        // Transmitting while receiving corrupts whatever was arriving.
        for p in &mut self.states[tx].pending {
            p.corrupted = true;
        }
        self.states[tx].transmitting = Some(end);

        let mut went_busy = Vec::new();
        let mut rx_ends = Vec::new();
        for &(j, pos) in candidates {
            if j == tx {
                continue;
            }
            let state = &mut self.states[j];
            let dist = pos.distance(tx_pos);
            if dist > self.cs_range {
                continue;
            }
            let was_busy = state.busy();
            // Any new carrier corrupts receptions already in progress.
            let had_carriers = state.sensed > 0;
            for p in &mut state.pending {
                p.corrupted = true;
            }
            state.sensed += 1;
            if !was_busy {
                went_busy.push(j);
            }
            let decodable =
                dist <= self.comm_range && state.transmitting.is_none() && !had_carriers;
            let rx_id = self.next_rx_id;
            self.next_rx_id += 1;
            state.pending.push(PendingRx {
                rx_id,
                tx,
                frame: if dist <= self.comm_range && state.transmitting.is_none() {
                    Some(frame.clone())
                } else {
                    None
                },
                corrupted: !decodable,
            });
            rx_ends.push((j, rx_id));
        }
        TxStart {
            end,
            went_busy,
            rx_ends,
        }
    }

    /// The carrier identified by `rx_id` ends at node `j`.
    pub(crate) fn rx_end(&mut self, j: usize, rx_id: u64, now: SimTime) -> RxEndOutcome<PKT> {
        let state = &mut self.states[j];
        let idx = state
            .pending
            .iter()
            .position(|p| p.rx_id == rx_id)
            .expect("carrier end without pending entry");
        let pending = state.pending.swap_remove(idx);
        debug_assert!(state.sensed > 0);
        state.sensed -= 1;
        let went_idle = !state.busy();
        if went_idle {
            state.idle_since = now;
        }
        let collided = pending.frame.is_some() && pending.corrupted;
        let frame = if pending.corrupted {
            None
        } else {
            pending.frame
        };
        RxEndOutcome {
            frame,
            tx: pending.tx,
            collided,
            went_idle,
        }
    }

    /// Node `n`'s own transmission ends. Returns true if its medium
    /// transitioned to idle.
    pub(crate) fn tx_end(&mut self, n: usize, now: SimTime) -> bool {
        let state = &mut self.states[n];
        debug_assert!(state.transmitting.is_some(), "tx_end without transmission");
        state.transmitting = None;
        let went_idle = !state.busy();
        if went_idle {
            state.idle_since = now;
        }
        went_idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacFrame, MacFrameKind};

    fn frame() -> MacFrame<u32> {
        MacFrame {
            kind: MacFrameKind::Data {
                payload: std::sync::Arc::new(7),
                broadcast: true,
            },
            src: None,
            dst: None,
            nav_until: SimTime::ZERO,
            seq: 0,
        }
    }

    fn phy(n: usize) -> Phy<u32> {
        Phy::new(250.0, 550.0, n)
    }

    fn line_positions(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    /// Full-scan candidate list, as the linear index mode produces.
    fn candidates(pos: &[Point]) -> Vec<(usize, Point)> {
        pos.iter().copied().enumerate().collect()
    }

    #[test]
    fn in_range_reception_succeeds() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 200.0]);
        let start = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        assert_eq!(start.went_busy, vec![1]);
        assert_eq!(start.rx_ends.len(), 1);
        let (j, rx_id) = start.rx_ends[0];
        let out = phy.rx_end(j, rx_id, start.end);
        assert!(out.frame.is_some());
        assert!(!out.collided);
        assert!(out.went_idle);
        assert!(phy.tx_end(0, start.end));
    }

    #[test]
    fn cs_range_senses_but_cannot_decode() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 400.0]); // beyond 250, within 550
        let start = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        assert_eq!(start.went_busy, vec![1]);
        let (j, rx_id) = start.rx_ends[0];
        let out = phy.rx_end(j, rx_id, start.end);
        assert!(out.frame.is_none());
        assert!(!out.collided, "undecodable energy is not a collision");
    }

    #[test]
    fn out_of_cs_range_unaffected() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 600.0]);
        let start = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        assert!(start.went_busy.is_empty());
        assert!(start.rx_ends.is_empty());
    }

    #[test]
    fn overlapping_transmissions_collide() {
        // Hidden terminal: 0 and 2 are out of each other's cs-range
        // (480 m apart with a 300 m cs-range) but both reach node 1 —
        // the classic collision at the middle node.
        let mut phy = Phy::<u32>::new(250.0, 300.0, 3);
        let pos = line_positions(&[0.0, 240.0, 480.0]);
        let s1 = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        let s2 = phy.start_tx(
            2,
            pos[2],
            frame(),
            SimTime::from_micros(100),
            SimTime::from_micros(10),
            &candidates(&pos),
        );
        // Node 1 hears both; both are corrupted.
        for (j, rx_id) in s1.rx_ends.iter().chain(&s2.rx_ends) {
            if *j == 1 {
                let end = if s1.rx_ends.contains(&(*j, *rx_id)) {
                    s1.end
                } else {
                    s2.end
                };
                let out = phy.rx_end(*j, *rx_id, end);
                assert!(out.frame.is_none(), "collided frame must not deliver");
            }
        }
    }

    #[test]
    fn transmitter_cannot_receive() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 100.0]);
        // Both transmit simultaneously: neither receives.
        let s1 = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        let s2 = phy.start_tx(
            1,
            pos[1],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        let (j1, r1) = s1.rx_ends[0];
        let (j2, r2) = s2.rx_ends[0];
        assert!(phy.rx_end(j1, r1, s1.end).frame.is_none());
        assert!(phy.rx_end(j2, r2, s2.end).frame.is_none());
    }

    #[test]
    fn second_carrier_corrupts_first() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 100.0, 200.0]);
        let s1 = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(200),
            SimTime::ZERO,
            &candidates(&pos),
        );
        // Node 2 starts while node 1 is receiving from node 0.
        let s2 = phy.start_tx(
            2,
            pos[2],
            frame(),
            SimTime::from_micros(200),
            SimTime::from_micros(50),
            &candidates(&pos),
        );
        let first_at_1 = s1.rx_ends.iter().find(|(j, _)| *j == 1).unwrap();
        let out = phy.rx_end(first_at_1.0, first_at_1.1, s1.end);
        assert!(out.frame.is_none());
        assert!(out.collided);
        // And the second frame is corrupted at node 1 too.
        let second_at_1 = s2.rx_ends.iter().find(|(j, _)| *j == 1).unwrap();
        let out2 = phy.rx_end(second_at_1.0, second_at_1.1, s2.end);
        assert!(out2.frame.is_none());
    }

    #[test]
    fn busy_tracking_counts_carriers() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 100.0, 200.0]);
        let s1 = phy.start_tx(
            0,
            pos[0],
            frame(),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &candidates(&pos),
        );
        assert!(phy.states[1].busy());
        let s2 = phy.start_tx(
            2,
            pos[2],
            frame(),
            SimTime::from_micros(300),
            SimTime::from_micros(10),
            &candidates(&pos),
        );
        // Carrier from 0 ends; node 1 still senses node 2.
        let first_at_1 = s1.rx_ends.iter().find(|(j, _)| *j == 1).unwrap();
        let out = phy.rx_end(first_at_1.0, first_at_1.1, s1.end);
        assert!(!out.went_idle);
        assert!(phy.states[1].busy());
        // When 2's carrier ends the medium finally clears.
        let second_at_1 = s2.rx_ends.iter().find(|(j, _)| *j == 1).unwrap();
        let out2 = phy.rx_end(second_at_1.0, second_at_1.1, s2.end);
        assert!(out2.went_idle);
        assert_eq!(phy.states[1].idle_since, s2.end);
    }
}
