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
    /// Number of foreign carriers currently sensed (within cs-range).
    pub(crate) sensed: u32,
    /// Bumped whenever a carrier starts at this node or the node starts
    /// transmitting: either corrupts every reception in progress here.
    /// A reception is intact iff this is unchanged since its own start.
    epoch: u32,
    /// When the medium last became idle at this node.
    pub(crate) idle_since: SimTime,
    /// The frame this node has on the air, while it transmits: the one
    /// copy every receiver's carrier end reads.
    pub(crate) tx_frame: Option<MacFrame<PKT>>,
    /// The carrier of this node's current transmission at every node in
    /// carrier-sense range, ascending by node; empty when not transmitting.
    pub(crate) receivers: Vec<Carrier>,
}

impl<PKT> PhyState<PKT> {
    fn new() -> Self {
        PhyState {
            sensed: 0,
            epoch: 0,
            idle_since: SimTime::ZERO,
            tx_frame: None,
            receivers: Vec::new(),
        }
    }

    /// True if the physical medium is busy at this node (own transmission
    /// or any sensed carrier).
    pub(crate) fn busy(&self) -> bool {
        self.tx_frame.is_some() || self.sensed > 0
    }
}

/// One transmission's carrier at one node in carrier-sense range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Carrier {
    /// The node the carrier reaches.
    pub(crate) node: u32,
    /// Whether the frame was decodable at start: in communication range
    /// of a node that was not itself transmitting.
    kept: bool,
    /// Whether it was also the only carrier at the node when it started.
    clean: bool,
    /// The node's `epoch` just after this carrier started.
    epoch: u32,
}

/// Result of a carrier ending at a node.
#[derive(Debug)]
pub(crate) struct RxEndOutcome {
    /// True if the node decoded the transmitter's frame.
    pub(crate) decoded: bool,
    /// True if the frame was kept but corrupted by a collision.
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
    /// Emptied receiver lists of ended transmissions, reused by the next
    /// ones: the buffers number the transmissions ever on the air at
    /// once, not the nodes.
    pub(crate) spare: Vec<Vec<Carrier>>,
}

impl<PKT> Phy<PKT> {
    pub(crate) fn new(comm_range: f64, cs_range: f64, nodes: usize) -> Self {
        Phy {
            comm_range,
            cs_range,
            states: (0..nodes).map(|_| PhyState::new()).collect(),
            went_busy: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Node `tx` starts transmitting `frame` for `airtime`; returns when
    /// the transmission ends.
    ///
    /// Stores `frame` in `states[tx].tx_frame`, fills `states[tx].receivers`
    /// with the carrier at every node that senses it and `went_busy` with
    /// those whose medium was idle.
    ///
    /// `candidates` lists `(node, position)` pairs — a *superset* of the
    /// nodes within carrier-sense range of `tx_pos`, in ascending node
    /// order (entries for `tx` itself are ignored). Exact distances are
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
        debug_assert!(self.states[tx].tx_frame.is_none(), "already transmitting");
        debug_assert!(
            candidates.windows(2).all(|w| w[0].0 < w[1].0),
            "candidates must be in ascending node order"
        );
        let end = now + airtime;
        // Transmitting while receiving corrupts whatever was arriving.
        let state = &mut self.states[tx];
        state.epoch = state.epoch.wrapping_add(1);
        state.tx_frame = Some(frame);

        debug_assert!(
            state.receivers.is_empty(),
            "previous carriers still pending"
        );
        let mut receivers = self.spare.pop().unwrap_or_default();
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
            if !state.busy() {
                self.went_busy.push(j);
            }
            let kept = dist <= self.comm_range && state.tx_frame.is_none();
            let clean = kept && state.sensed == 0;
            // Any new carrier corrupts receptions already in progress.
            state.epoch = state.epoch.wrapping_add(1);
            state.sensed += 1;
            receivers.push(Carrier {
                node: j as u32,
                kept,
                clean,
                epoch: state.epoch,
            });
        }
        self.states[tx].receivers = receivers;
        end
    }

    /// `carrier` ends at its node.
    pub(crate) fn rx_end(&mut self, carrier: Carrier, now: SimTime) -> RxEndOutcome {
        let state = &mut self.states[carrier.node as usize];
        debug_assert!(state.sensed > 0);
        state.sensed -= 1;
        let went_idle = !state.busy();
        if went_idle {
            state.idle_since = now;
        }
        let decoded = carrier.clean && state.epoch == carrier.epoch;
        RxEndOutcome {
            decoded,
            collided: carrier.kept && !decoded,
            went_idle,
        }
    }

    /// Node `n`'s own transmission ends: takes its frame off the air and
    /// returns it, with whether `n`'s medium transitioned to idle.
    pub(crate) fn tx_end(&mut self, n: usize, now: SimTime) -> (MacFrame<PKT>, bool) {
        let state = &mut self.states[n];
        let frame = state.tx_frame.take().expect("tx_end without transmission");
        let went_idle = !state.busy();
        if went_idle {
            state.idle_since = now;
        }
        (frame, went_idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacFrame, MacFrameKind};
    use std::sync::Arc;

    fn frame() -> MacFrame<u32> {
        broadcast_of(Arc::new(7))
    }

    fn broadcast_of(payload: Arc<u32>) -> MacFrame<u32> {
        MacFrame {
            kind: MacFrameKind::Data {
                payload,
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

    /// Starts `tx`'s transmission against a full-scan candidate list;
    /// returns its end.
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

    /// Ends `tx`'s transmission and then every carrier of it in receiver
    /// order, as the world does inside the transmitter's `TxEnd`.
    fn end_carriers(phy: &mut Phy<u32>, tx: usize, end: SimTime) -> Vec<(usize, RxEndOutcome)> {
        let _ = phy.tx_end(tx, end);
        let receivers = std::mem::take(&mut phy.states[tx].receivers);
        receivers
            .into_iter()
            .map(|c| (c.node as usize, phy.rx_end(c, end)))
            .collect()
    }

    /// The nodes `tx`'s current transmission reaches.
    fn receiver_nodes(phy: &Phy<u32>, tx: usize) -> Vec<u32> {
        phy.states[tx].receivers.iter().map(|c| c.node).collect()
    }

    /// The outcome at node `j` among a transmission's carrier ends.
    fn at(outcomes: &[(usize, RxEndOutcome)], j: usize) -> &RxEndOutcome {
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
        assert_eq!(receiver_nodes(&phy, 0), vec![1]);
        let outcomes = end_carriers(&mut phy, 0, end);
        let out = at(&outcomes, 1);
        assert!(out.decoded);
        assert!(!out.collided);
        assert!(out.went_idle);
        assert!(!phy.states[0].busy());
        assert_eq!(phy.states[0].idle_since, end);
    }

    #[test]
    fn one_held_frame_serves_every_decoder() {
        let mut phy = phy(4);
        let pos = line_positions(&[0.0, 100.0, 200.0, 240.0]);
        let payload = Arc::new(7);
        let end = phy.start_tx(
            0,
            pos[0],
            broadcast_of(Arc::clone(&payload)),
            SimTime::from_micros(100),
            SimTime::ZERO,
            &pos.iter().copied().enumerate().collect::<Vec<_>>(),
        );
        assert_eq!(receiver_nodes(&phy, 0), vec![1, 2, 3]);
        assert_eq!(
            Arc::strong_count(&payload),
            2,
            "the transmitter holds the frame; receivers hold no copy"
        );
        let outcomes = end_carriers(&mut phy, 0, end);
        assert!(outcomes.iter().all(|(_, out)| out.decoded));
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn cs_range_senses_but_cannot_decode() {
        let mut phy = phy(2);
        let pos = line_positions(&[0.0, 400.0]); // beyond 250, within 550
        let end = start(&mut phy, 0, &pos, 100, 0);
        assert_eq!(phy.went_busy, vec![1]);
        assert_eq!(receiver_nodes(&phy, 0), vec![1]);
        let outcomes = end_carriers(&mut phy, 0, end);
        let out = at(&outcomes, 1);
        assert!(!out.decoded);
        assert!(!out.collided, "undecodable energy is not a collision");
    }

    #[test]
    fn out_of_cs_range_unaffected() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 600.0, 500.0]);
        start(&mut phy, 0, &pos, 100, 0);
        assert_eq!(phy.went_busy, vec![2]);
        assert_eq!(receiver_nodes(&phy, 0), vec![2], "600 m is out of cs-range");
        assert_eq!(phy.states[1].sensed, 0);
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
        assert_eq!(receiver_nodes(&phy, 0), vec![1]);
        assert_eq!(receiver_nodes(&phy, 2), vec![1]);
        // Node 1 hears both; both are corrupted.
        for (tx, end) in [(0, end1), (2, end2)] {
            let outcomes = end_carriers(&mut phy, tx, end);
            let out = at(&outcomes, 1);
            assert!(!out.decoded, "collided frame must not deliver");
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
        assert!(!at(&end_carriers(&mut phy, 0, end1), 1).decoded);
        assert!(!at(&end_carriers(&mut phy, 1, end2), 0).decoded);
    }

    #[test]
    fn second_carrier_corrupts_first() {
        let mut phy = phy(3);
        let pos = line_positions(&[0.0, 100.0, 200.0]);
        let end1 = start(&mut phy, 0, &pos, 200, 0);
        // Node 2 starts while node 1 is receiving from node 0.
        let end2 = start(&mut phy, 2, &pos, 200, 50);
        // Node 1 senses one carrier per transmitter.
        assert_eq!(phy.states[1].sensed, 2);
        assert_eq!(receiver_nodes(&phy, 0), vec![1, 2]);
        assert_eq!(receiver_nodes(&phy, 2), vec![0, 1]);
        let outcomes = end_carriers(&mut phy, 0, end1);
        let out = at(&outcomes, 1);
        assert!(!out.decoded);
        assert!(out.collided);
        // And the second frame is corrupted at node 1 too.
        let outcomes = end_carriers(&mut phy, 2, end2);
        assert!(!at(&outcomes, 1).decoded);
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
