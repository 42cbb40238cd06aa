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
    /// Every node in carrier-sense range of this node's current
    /// transmission, ascending. Each holds one [`PendingRx`] keyed by this
    /// node until the transmission's end resolves them all.
    pub(crate) receivers: Vec<u32>,
}

impl<PKT> PhyState<PKT> {
    fn new() -> Self {
        PhyState {
            transmitting: None,
            sensed: 0,
            idle_since: SimTime::ZERO,
            pending: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// True if the physical medium is busy at this node (own transmission
    /// or any sensed carrier).
    pub(crate) fn busy(&self) -> bool {
        self.transmitting.is_some() || self.sensed > 0
    }
}

/// A carrier overlapping a node.
///
/// A node holds at most one per transmitter: all of a transmission's
/// carriers end together, before that transmitter can start another.
#[derive(Debug)]
pub(crate) struct PendingRx<PKT> {
    /// Ground-truth transmitter of this carrier, which also identifies it.
    /// The MAC never sees it (frames may be source-less broadcasts); the
    /// fault layer keys its per-directed-link loss channels on it.
    pub(crate) tx: usize,
    /// The frame, kept only when it was decodable at start.
    pub(crate) frame: Option<MacFrame<PKT>>,
    /// Set when another carrier or the node's own transmission overlapped.
    pub(crate) corrupted: bool,
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
    /// Nodes whose medium went idle → busy at the last `start_tx`,
    /// ascending. Scratch: overwritten by every transmission.
    pub(crate) went_busy: Vec<usize>,
}

impl<PKT: Clone> Phy<PKT> {
    pub(crate) fn new(comm_range: f64, cs_range: f64, nodes: usize) -> Self {
        Phy {
            comm_range,
            cs_range,
            states: (0..nodes).map(|_| PhyState::new()).collect(),
            went_busy: Vec::new(),
        }
    }

    /// Node `tx` starts transmitting `frame` for `airtime`; returns when
    /// the transmission ends.
    ///
    /// Fills `states[tx].receivers` with every node that senses the
    /// carrier and `went_busy` with those whose medium was idle.
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
    ) -> SimTime {
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

        let mut receivers = std::mem::take(&mut self.states[tx].receivers);
        debug_assert!(receivers.is_empty(), "previous carriers still pending");
        self.went_busy.clear();
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
                self.went_busy.push(j);
            }
            let decodable =
                dist <= self.comm_range && state.transmitting.is_none() && !had_carriers;
            state.pending.push(PendingRx {
                tx,
                frame: if dist <= self.comm_range && state.transmitting.is_none() {
                    Some(frame.clone())
                } else {
                    None
                },
                corrupted: !decodable,
            });
            receivers.push(j as u32);
        }
        self.states[tx].receivers = receivers;
        end
    }

    /// The carrier from transmitter `tx` ends at node `j`.
    pub(crate) fn rx_end(&mut self, j: usize, tx: usize, now: SimTime) -> RxEndOutcome<PKT> {
        let state = &mut self.states[j];
        let idx = state
            .pending
            .iter()
            .position(|p| p.tx == tx)
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

    /// Starts `tx`'s transmission against a full-scan candidate list, as
    /// the linear index mode produces it; returns its end.
    fn start(phy: &mut Phy<u32>, tx: usize, pos: &[Point], airtime_us: u64, at_us: u64) -> SimTime {
        let candidates: Vec<(usize, Point)> = pos.iter().copied().enumerate().collect();
        phy.start_tx(
            tx,
            pos[tx],
            frame(),
            SimTime::from_micros(airtime_us),
            SimTime::from_micros(at_us),
            &candidates,
        )
    }

    /// Ends every carrier of `tx`'s transmission in receiver order, as the
    /// world does inside the transmitter's `TxEnd`.
    fn end_carriers(
        phy: &mut Phy<u32>,
        tx: usize,
        end: SimTime,
    ) -> Vec<(usize, RxEndOutcome<u32>)> {
        let receivers = std::mem::take(&mut phy.states[tx].receivers);
        receivers
            .into_iter()
            .map(|j| (j as usize, phy.rx_end(j as usize, tx, end)))
            .collect()
    }

    /// The outcome at node `j` among a transmission's carrier ends.
    fn at(outcomes: &[(usize, RxEndOutcome<u32>)], j: usize) -> &RxEndOutcome<u32> {
        &outcomes
            .iter()
            .find(|(r, _)| *r == j)
            .expect("no carrier at node")
            .1
    }

    #[test]
    fn in_range_reception_succeeds() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 200.0]);
        let end = start(&mut phy, 0, &pos, 100, 0);
        assert_eq!(phy.went_busy, vec![1]);
        assert_eq!(phy.states[0].receivers, vec![1]);
        let outcomes = end_carriers(&mut phy, 0, end);
        let out = at(&outcomes, 1);
        assert!(out.frame.is_some());
        assert_eq!(out.tx, 0);
        assert!(!out.collided);
        assert!(out.went_idle);
        assert!(phy.tx_end(0, end));
    }

    #[test]
    fn cs_range_senses_but_cannot_decode() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 400.0]); // beyond 250, within 550
        let end = start(&mut phy, 0, &pos, 100, 0);
        assert_eq!(phy.went_busy, vec![1]);
        assert_eq!(phy.states[0].receivers, vec![1]);
        let outcomes = end_carriers(&mut phy, 0, end);
        let out = at(&outcomes, 1);
        assert!(out.frame.is_none());
        assert!(!out.collided, "undecodable energy is not a collision");
    }

    #[test]
    fn out_of_cs_range_unaffected() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 600.0, 500.0]);
        start(&mut phy, 0, &pos, 100, 0);
        assert_eq!(phy.went_busy, vec![2]);
        assert_eq!(phy.states[0].receivers, vec![2], "600 m is out of cs-range");
        assert!(phy.states[1].pending.is_empty());
    }

    #[test]
    fn overlapping_transmissions_collide() {
        // Hidden terminal: 0 and 2 are out of each other's cs-range
        // (480 m apart with a 300 m cs-range) but both reach node 1 —
        // the classic collision at the middle node.
        let mut phy = Phy::<u32>::new(250.0, 300.0, 3);
        let pos = line_positions(&[0.0, 240.0, 480.0]);
        let end1 = start(&mut phy, 0, &pos, 100, 0);
        let end2 = start(&mut phy, 2, &pos, 100, 10);
        assert_eq!(phy.states[0].receivers, vec![1]);
        assert_eq!(phy.states[2].receivers, vec![1]);
        // Node 1 hears both; both are corrupted.
        for (tx, end) in [(0, end1), (2, end2)] {
            let outcomes = end_carriers(&mut phy, tx, end);
            let out = at(&outcomes, 1);
            assert!(out.frame.is_none(), "collided frame must not deliver");
            assert!(out.collided);
        }
    }

    #[test]
    fn transmitter_cannot_receive() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 100.0]);
        // Both transmit simultaneously: neither receives.
        let end1 = start(&mut phy, 0, &pos, 100, 0);
        let end2 = start(&mut phy, 1, &pos, 100, 0);
        assert!(at(&end_carriers(&mut phy, 0, end1), 1).frame.is_none());
        assert!(at(&end_carriers(&mut phy, 1, end2), 0).frame.is_none());
    }

    #[test]
    fn second_carrier_corrupts_first() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 100.0, 200.0]);
        let end1 = start(&mut phy, 0, &pos, 200, 0);
        // Node 2 starts while node 1 is receiving from node 0.
        let end2 = start(&mut phy, 2, &pos, 200, 50);
        // Node 1 holds one carrier per transmitter.
        let txs: Vec<usize> = phy.states[1].pending.iter().map(|p| p.tx).collect();
        assert_eq!(txs, vec![0, 2]);
        let outcomes = end_carriers(&mut phy, 0, end1);
        let out = at(&outcomes, 1);
        assert!(out.frame.is_none());
        assert!(out.collided);
        // And the second frame is corrupted at node 1 too.
        let outcomes = end_carriers(&mut phy, 2, end2);
        assert!(at(&outcomes, 1).frame.is_none());
    }

    #[test]
    fn busy_tracking_counts_carriers() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 100.0, 200.0]);
        let end1 = start(&mut phy, 0, &pos, 100, 0);
        assert!(phy.states[1].busy());
        let end2 = start(&mut phy, 2, &pos, 300, 10);
        // Carrier from 0 ends; node 1 still senses node 2.
        let outcomes = end_carriers(&mut phy, 0, end1);
        assert!(!at(&outcomes, 1).went_idle);
        assert!(phy.states[1].busy());
        // When 2's carrier ends the medium finally clears.
        let outcomes = end_carriers(&mut phy, 2, end2);
        assert!(at(&outcomes, 1).went_idle);
        assert_eq!(phy.states[1].idle_since, end2);
    }
}
