//! The simulation world: owns all state and drives the event loop.
//!
//! Layering per event:
//!
//! ```text
//! event ──> Inner (PHY + MAC logic, pure state) ──> MAC-outcome queue
//!   │                                                     │
//!   │                 protocols[i].on_mac_result  <── drained
//!   │
//!   └─ TxEnd: per carrier end, Inner decodes the held frame
//!             ──> protocols[j].on_receive(&payload)   (direct, by borrow)
//! ```
//!
//! Protocol callbacks get a [`Ctx`] borrowing `Inner`, so they can enqueue
//! frames and timers but never re-enter other protocols — the classic
//! sans-I/O layering that keeps the borrow checker and the causality story
//! aligned.

use crate::adversary::AdversaryRole;
use crate::config::SimConfig;
use crate::engine::{Event, EventQueue};
use crate::fault::LinkChannel;
use crate::mac::{Mac, MacFrame, MacFrameKind, MacState, OutPkt, TxKind};
use crate::mobility::MobilityState;
use crate::phy::{Carrier, Phy};
use crate::protocol::{FlowTag, MacDst, MacOutcome, Protocol};
use crate::stats::Stats;
use crate::time::SimTime;
use crate::{FixedMap, MacAddr, NodeId};
use agr_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Seconds between refreshes of the PHY's position snapshot. The receiver
/// scan's filter allows `max_speed × PHY_REFRESH_S` of slack, so snapshot
/// positions may go this stale without missing a carrier-sense neighbor.
const PHY_REFRESH_S: u64 = 1;

/// The receiver scan's filter: whether a node whose position at the last
/// PHY refresh was `snap` may lie within `cs_range` of a transmitter at
/// `tx_pos`, at any instant up to and including the next refresh.
///
/// Positions are pure functions of time and no node moves faster than
/// `max_speed`, so a node's true position is within `max_speed ×
/// PHY_REFRESH_S` of its snapshot; one more metre absorbs rounding. A
/// `false` here therefore proves the node out of carrier-sense range,
/// and the PHY re-checks the exact distance of every node it keeps.
fn may_sense(snap: Point, tx_pos: Point, cs_range: f64, max_speed: f64) -> bool {
    let reach = cs_range + max_speed * PHY_REFRESH_S as f64 + 1.0;
    snap.distance_sq(tx_pos) <= reach * reach
}

/// What kind of frame a [`FrameRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// MAC acknowledgment.
    Ack,
    /// Data frame (carries a protocol packet).
    Data,
}

/// One transmission as seen by a global passive eavesdropper.
///
/// Handed to every [`FrameObserver`] as the frame goes on the air.
/// `tx_node` and `tx_pos` are *ground truth* (an adversary with
/// direction-finding hardware can localise any transmitter); `src_mac`
/// is what the frame itself discloses — `None` for AGFW's anonymous
/// broadcasts.
#[derive(Debug, Clone)]
pub struct FrameRecord<PKT> {
    /// Transmission start time.
    pub time: SimTime,
    /// Ground-truth transmitter identity.
    pub tx_node: NodeId,
    /// Ground-truth transmitter position.
    pub tx_pos: Point,
    /// Source MAC address disclosed by the frame, if any.
    pub src_mac: Option<MacAddr>,
    /// Destination MAC address, `None` for broadcast.
    pub dst_mac: Option<MacAddr>,
    /// Frame type.
    pub frame_type: FrameType,
    /// The network-layer packet, for data frames — the same shared handle
    /// the MAC transmits, so recording a frame never deep-copies it.
    pub packet: Option<Arc<PKT>>,
}

/// A streaming consumer of transmitted frames.
///
/// Observers see every frame the moment it goes on the air — the view
/// of a global passive eavesdropper — so privacy evaluators fold
/// sightings online and a 900 s run never holds every packet in memory.
///
/// Attach observers with [`World::attach_observer`] before running. To
/// keep a handle on the observer's accumulated state, wrap it in
/// `Rc<RefCell<_>>` and attach a clone of the `Rc` (worlds are
/// single-threaded; the blanket impl below makes the wrapper an observer
/// too).
pub trait FrameObserver<PKT> {
    /// Called once per transmitted frame, in transmission order.
    fn on_frame(&mut self, frame: &FrameRecord<PKT>);
}

impl<PKT, T: FrameObserver<PKT>> FrameObserver<PKT> for Rc<RefCell<T>> {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        self.borrow_mut().on_frame(frame);
    }
}

/// The observer that keeps a whole trace: every frame, in transmission
/// order, sharing each payload with the simulator.
#[derive(Debug)]
pub struct RecordingObserver<PKT> {
    frames: Vec<FrameRecord<PKT>>,
}

impl<PKT> RecordingObserver<PKT> {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        RecordingObserver { frames: Vec::new() }
    }

    /// Every frame observed so far, in transmission order.
    #[must_use]
    pub fn frames(&self) -> &[FrameRecord<PKT>] {
        &self.frames
    }
}

impl<PKT> Default for RecordingObserver<PKT> {
    fn default() -> Self {
        RecordingObserver::new()
    }
}

impl<PKT: Clone> FrameObserver<PKT> for RecordingObserver<PKT> {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        self.frames.push(frame.clone());
    }
}

/// Everything except the protocol instances.
pub(crate) struct Inner<PKT> {
    now: SimTime,
    queue: EventQueue,
    rng: StdRng,
    stats: Stats,
    config: SimConfig,
    mobility: Vec<MobilityState>,
    /// Per-node mobility RNGs, seeded in node order from the master RNG.
    /// Giving each waypoint state machine its own stream makes a node's
    /// position a pure function of time — independent of *when* or *how
    /// often* positions are queried — which is what lets the receiver scan
    /// skip far nodes without perturbing the simulation.
    mob_rngs: Vec<StdRng>,
    /// Every node's position at the last PHY refresh, read by
    /// [`may_sense`] in the receiver scan.
    snap: Vec<Point>,
    /// Scratch for [`Inner::phy_candidates`]: the `(node, position)` list
    /// handed to the PHY. Reused by every transmission.
    candidates: Vec<(usize, Point)>,
    phy: Phy<PKT>,
    macs: Vec<Mac<PKT>>,
    /// MAC outcomes awaiting [`Protocol::on_mac_result`], by node.
    upcalls: VecDeque<(usize, MacOutcome<PKT>)>,
    /// Streaming frame consumers ([`World::attach_observer`]).
    observers: Vec<Box<dyn FrameObserver<PKT>>>,
    /// Per-node fault RNGs, seeded in node order from the master RNG —
    /// *only* when the fault plan injects something, so fault-free runs
    /// consume exactly the RNG stream of a build without fault support.
    fault_rngs: Vec<StdRng>,
    /// Per-receiver loss-channel state, keyed by transmitter: one
    /// [`LinkChannel`] per *directed* link, created lazily on first use.
    /// Empty unless the plan has a loss model.
    links: Vec<FixedMap<usize, LinkChannel>>,
    /// Radio-up flag per node; churn events toggle it.
    node_up: Vec<bool>,
    /// Bumped on every churn recovery; deliveries compare against it to
    /// count healed routes.
    churn_generation: u64,
    /// Per-flow churn generation at last counted heal.
    flow_heal_gen: Vec<u64>,
    /// Per-node adversary RNGs, seeded in node order from the master RNG
    /// *after* the fault family — only when the adversary plan names
    /// somebody, so adversary-free runs consume exactly the RNG stream of
    /// a build without adversary support.
    adv_rngs: Vec<StdRng>,
    /// Dense role lookup (`adv_roles[node]`), derived from the plan;
    /// empty when the plan compromises nobody.
    adv_roles: Vec<Option<AdversaryRole>>,
}

impl<PKT: Clone + std::fmt::Debug + 'static> Inner<PKT> {
    fn new(config: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.num_nodes;
        if let Some(pos) = &config.initial_positions {
            assert_eq!(
                pos.len(),
                n,
                "initial_positions length must equal num_nodes"
            );
        }
        let init_positions: Vec<Point> = (0..n)
            .map(|i| match &config.initial_positions {
                Some(pos) => pos[i],
                None => config
                    .area
                    .point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0)),
            })
            .collect();
        let mobility = init_positions
            .iter()
            .map(|&p| MobilityState::new(p))
            .collect();
        let mob_rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(rng.random()))
            .collect();
        let phy = Phy::new(config.radio.comm_range, config.radio.cs_range, n);
        let macs = (0..n)
            .map(|i| Mac::new(MacAddr(i as u32), config.mac.cw_min))
            .collect();
        // Fault RNGs split off the master stream *after* the mobility
        // RNGs, and only when the plan is active: an empty plan leaves
        // the master stream byte-for-byte as it was before fault support
        // existed, keeping fault-free runs bit-identical.
        let fault_rngs: Vec<StdRng> = if config.fault.is_none() {
            Vec::new()
        } else {
            (0..n)
                .map(|_| StdRng::seed_from_u64(rng.random()))
                .collect()
        };
        // Adversary RNGs follow the same discipline, split *after* the
        // fault family so every existing stream keeps its position.
        let adv_rngs: Vec<StdRng> = if config.adversary.is_none() {
            Vec::new()
        } else {
            (0..n)
                .map(|_| StdRng::seed_from_u64(rng.random()))
                .collect()
        };
        let mut adv_roles: Vec<Option<AdversaryRole>> = if config.adversary.is_none() {
            Vec::new()
        } else {
            vec![None; n]
        };
        for (node, role) in &config.adversary.roles {
            let idx = node.0 as usize;
            assert!(idx < n, "adversary plan names node {idx} out of {n}");
            adv_roles[idx] = Some(*role);
        }
        // Per-link loss channels likewise exist only when the plan has a
        // loss model.
        let links = if config.fault.loss.is_none() {
            Vec::new()
        } else {
            (0..n).map(|_| FixedMap::default()).collect()
        };
        let flow_count = config.flows.len();
        Inner {
            now: SimTime::ZERO,
            // A node holds a few events at a time (a MAC wake-up, a TxEnd,
            // protocol timers); a frame's carrier ends ride inside its
            // TxEnd. The benchmark's sims peak at 2.1 (AGFW, 150 nodes),
            // 1.6 (GPSR, 150) and 2.6 (AANT, 50) events per node, so
            // 8 × nodes leaves 3× headroom and the heap does not
            // reallocate mid-run.
            queue: EventQueue::with_capacity(n * 8),
            rng,
            stats: Stats::new(),
            config,
            mobility,
            mob_rngs,
            // A node's position at time zero is its initial position.
            snap: init_positions,
            candidates: Vec::new(),
            phy,
            macs,
            // Drained after every event and before every carrier end, and
            // each of those steps reports at most one MAC outcome, so the
            // queue never holds more than one and never reallocates.
            upcalls: VecDeque::with_capacity(1),
            observers: Vec::new(),
            fault_rngs,
            links,
            node_up: vec![true; n],
            churn_generation: 0,
            flow_heal_gen: vec![0; flow_count],
            adv_rngs,
            adv_roles,
        }
    }

    fn position_of(&mut self, i: usize) -> Point {
        self.mobility[i].position_at(
            self.now,
            &self.config.mobility,
            self.config.area,
            &mut self.mob_rngs[i],
        )
    }

    /// Fills `self.candidates` with the current positions of the nodes
    /// the PHY must consider for a transmission from `tx_pos`, in
    /// ascending node order: every node but those [`may_sense`] proves
    /// out of carrier-sense range from the snapshot, whose positions are
    /// never computed.
    ///
    /// Churned-down nodes are excluded: a dead radio neither decodes nor
    /// senses energy, so a down node's MAC sees a permanently idle medium
    /// for the outage's duration.
    fn phy_candidates(&mut self, tx: usize, tx_pos: Point) {
        let cs_range = self.config.radio.cs_range;
        let max_speed = self.config.mobility.max_speed;
        self.candidates.clear();
        for j in 0..self.config.num_nodes {
            if j != tx && self.node_up[j] && may_sense(self.snap[j], tx_pos, cs_range, max_speed) {
                let pos = self.position_of(j);
                self.candidates.push((j, pos));
            }
        }
    }

    // ---------------------------------------------------------------
    // Fault injection (see crate::fault)
    // ---------------------------------------------------------------

    /// Draws the loss channel for the directed link `tx → rx`; returns
    /// true if the decoded frame is erased. No-op (and no RNG draw) when
    /// the plan has no loss model.
    fn fault_erases(&mut self, rx: usize, tx: usize) -> bool {
        let model = self.config.fault.loss;
        if model.is_none() {
            return false;
        }
        let channel = self.links[rx].entry(tx).or_default();
        channel.transmit(&model, &mut self.fault_rngs[rx])
    }

    /// Whether node `n`, acting as an adversarial relay, drops the packet
    /// it just accepted. Blackholes always drop; grayholes draw exactly
    /// one Bernoulli sample from the node's adversary RNG per decision
    /// (keeping the draw count a pure function of accepted traffic);
    /// honest nodes forward.
    fn adversary_drops(&mut self, n: usize) -> bool {
        match self.adv_roles.get(n).copied().flatten() {
            Some(AdversaryRole::Blackhole) => {
                self.stats.count("adv.blackhole_drop");
                true
            }
            Some(AdversaryRole::Grayhole { p_drop }) => {
                let dropped = self.adv_rngs[n].random::<f64>() < p_drop;
                if dropped {
                    self.stats.count("adv.grayhole_drop");
                }
                dropped
            }
            None => false,
        }
    }

    /// Applies a scheduled churn transition.
    pub(crate) fn handle_fault(&mut self, n: usize, up: bool) {
        self.node_up[n] = up;
        if up {
            self.churn_generation += 1;
            self.stats.count("fault.churn_up");
        } else {
            self.stats.count("fault.churn_down");
        }
    }

    /// Re-snapshots every node at its current position and schedules the
    /// next refresh tick. Positions are pure functions of time, so the
    /// queries themselves have no observable effect.
    pub(crate) fn phy_refresh(&mut self) {
        for i in 0..self.config.num_nodes {
            self.snap[i] = self.position_of(i);
        }
        self.queue.push(
            self.now + SimTime::from_secs(PHY_REFRESH_S),
            Event::PhyRefresh,
        );
    }

    // ---------------------------------------------------------------
    // MAC logic (event-driven 802.11 DCF)
    // ---------------------------------------------------------------

    fn mac_enqueue(&mut self, n: usize, payload: PKT, dst: MacDst, bytes: u32) {
        let seq = self.macs[n].next_seq;
        self.macs[n].next_seq = self.macs[n].next_seq.wrapping_add(1);
        // The one allocation per packet: every downstream copy (PHY
        // fan-out, retries, frame records, upcalls) shares this handle.
        self.macs[n].queue.push_back(OutPkt {
            payload: Arc::new(payload),
            dst,
            bytes,
            seq,
        });
        if self.macs[n].state == MacState::Idle {
            self.mac_begin_contention(n);
        }
    }

    fn draw_backoff(&mut self, n: usize) -> SimTime {
        let cw = self.macs[n].cw;
        let slots = self.rng.random_range(0..=cw);
        self.config.mac.slot.mul(u64::from(slots))
    }

    fn mac_begin_contention(&mut self, n: usize) {
        if self.macs[n].backoff_remaining == SimTime::ZERO {
            self.macs[n].backoff_remaining = self.draw_backoff(n);
        }
        self.macs[n].state = MacState::WaitDifs;
        self.mac_check_difs(n);
    }

    fn mac_check_difs(&mut self, n: usize) {
        debug_assert_eq!(self.macs[n].state, MacState::WaitDifs);
        if self.phy.states[n].busy() {
            // Cancel any scheduled check; resume on the idle notification.
            self.macs[n].cancel_wakeup();
            return;
        }
        let free_from = self.phy.states[n].idle_since.max(self.macs[n].nav_until);
        let ready = free_from + self.config.mac.difs;
        let guard = self.macs[n].cancel_wakeup();
        if self.now >= ready {
            self.macs[n].state = MacState::Backoff;
            self.macs[n].backoff_started = self.now;
            let wake = self.now + self.macs[n].backoff_remaining;
            self.queue.push(
                wake,
                Event::MacInternal {
                    node: NodeId(n as u32),
                    guard,
                },
            );
        } else {
            self.queue.push(
                ready,
                Event::MacInternal {
                    node: NodeId(n as u32),
                    guard,
                },
            );
        }
    }

    fn mac_freeze_backoff(&mut self, n: usize) {
        if self.macs[n].state == MacState::Backoff {
            let elapsed = self.now.saturating_sub(self.macs[n].backoff_started);
            self.macs[n].backoff_remaining = self.macs[n].backoff_remaining.saturating_sub(elapsed);
            self.macs[n].cancel_wakeup();
            self.macs[n].state = MacState::WaitDifs;
        }
    }

    fn mac_on_medium_busy(&mut self, n: usize) {
        match self.macs[n].state {
            MacState::Backoff => self.mac_freeze_backoff(n),
            MacState::WaitDifs => {
                self.macs[n].cancel_wakeup();
            }
            _ => {}
        }
    }

    fn mac_on_medium_idle(&mut self, n: usize) {
        if self.macs[n].state == MacState::WaitDifs {
            self.mac_check_difs(n);
        }
    }

    fn mac_set_nav(&mut self, n: usize, until: SimTime) {
        if until <= self.macs[n].nav_until || until <= self.now {
            return;
        }
        self.macs[n].nav_until = until;
        match self.macs[n].state {
            MacState::Backoff | MacState::WaitDifs => {
                self.mac_freeze_backoff(n);
                let guard = self.macs[n].cancel_wakeup();
                self.queue.push(
                    until,
                    Event::MacInternal {
                        node: NodeId(n as u32),
                        guard,
                    },
                );
            }
            _ => {}
        }
    }

    pub(crate) fn mac_internal(&mut self, n: usize, guard: u64) {
        if guard != self.macs[n].guard {
            return; // stale wake-up
        }
        match self.macs[n].state.clone() {
            MacState::WaitDifs => self.mac_check_difs(n),
            MacState::Backoff => {
                self.macs[n].backoff_remaining = SimTime::ZERO;
                self.mac_transmit_head(n);
            }
            MacState::WaitCts => {
                self.stats.count("mac.cts_timeout");
                self.mac_retry(n, self.config.mac.short_retry_limit);
            }
            MacState::WaitAck => {
                self.stats.count("mac.ack_timeout");
                self.mac_retry(n, self.config.mac.long_retry_limit);
            }
            MacState::Sifs => {
                if let Some((frame, kind, airtime)) = self.macs[n].pending_response.take() {
                    self.mac_start_tx(n, frame, kind, airtime, SimTime::ZERO);
                } else {
                    self.macs[n].state = MacState::Idle;
                }
            }
            _ => {}
        }
    }

    fn mac_transmit_head(&mut self, n: usize) {
        let Some(head) = self.macs[n].queue.front() else {
            self.macs[n].state = MacState::Idle;
            return;
        };
        let my_addr = self.macs[n].addr;
        let radio = self.config.radio;
        let mac_params = self.config.mac;
        let data_air = radio.data_airtime(head.bytes, &mac_params);
        match head.dst {
            MacDst::Unicast(dst) if head.bytes > mac_params.rts_threshold => {
                let frame = MacFrame {
                    kind: MacFrameKind::Rts,
                    src: Some(my_addr),
                    dst: Some(dst),
                    nav_until: SimTime::ZERO,
                    seq: head.seq,
                };
                // RTS reserves: SIFS+CTS + SIFS+DATA + SIFS+ACK.
                let reserve = mac_params.sifs
                    + radio.control_airtime(mac_params.cts_bytes)
                    + mac_params.sifs
                    + data_air
                    + mac_params.sifs
                    + radio.control_airtime(mac_params.ack_bytes);
                let airtime = radio.control_airtime(mac_params.rts_bytes);
                self.mac_start_tx(n, frame, TxKind::Rts, airtime, reserve);
            }
            MacDst::Unicast(dst) => {
                let frame = MacFrame {
                    kind: MacFrameKind::Data {
                        payload: head.payload.clone(),
                        broadcast: false,
                    },
                    src: Some(my_addr),
                    dst: Some(dst),
                    nav_until: SimTime::ZERO,
                    seq: head.seq,
                };
                let reserve = mac_params.sifs + radio.control_airtime(mac_params.ack_bytes);
                self.mac_start_tx(n, frame, TxKind::DataUnicast, data_air, reserve);
            }
            MacDst::Broadcast => {
                let frame = MacFrame {
                    kind: MacFrameKind::Data {
                        payload: head.payload.clone(),
                        broadcast: true,
                    },
                    src: None,
                    dst: None,
                    nav_until: SimTime::ZERO,
                    seq: head.seq,
                };
                self.mac_start_tx(n, frame, TxKind::Broadcast, data_air, SimTime::ZERO);
            }
        }
    }

    fn mac_start_tx(
        &mut self,
        n: usize,
        mut frame: MacFrame<PKT>,
        kind: TxKind,
        airtime: SimTime,
        reserve: SimTime,
    ) {
        let tx_pos = self.position_of(n);
        // A churned-down transmitter radiates nothing: its MAC state
        // machine runs (and unicasts burn their retries), but no carrier
        // reaches the channel and the eavesdropper records no frame.
        let radio_up = self.node_up[n];
        if radio_up {
            self.phy_candidates(n, tx_pos);
        } else {
            self.stats.count("fault.tx_while_down");
            self.candidates.clear();
        }
        let end = self.now + airtime;
        if frame.nav_until == SimTime::ZERO {
            frame.nav_until = end + reserve;
        }
        self.stats.count("mac.tx_frames");
        if radio_up && !self.observers.is_empty() {
            let (frame_type, packet) = match &frame.kind {
                MacFrameKind::Rts => (FrameType::Rts, None),
                MacFrameKind::Cts => (FrameType::Cts, None),
                MacFrameKind::Ack => (FrameType::Ack, None),
                MacFrameKind::Data { payload, .. } => (FrameType::Data, Some(Arc::clone(payload))),
            };
            let record = FrameRecord {
                time: self.now,
                tx_node: NodeId(n as u32),
                tx_pos,
                src_mac: frame.src,
                dst_mac: frame.dst,
                frame_type,
                packet,
            };
            for obs in &mut self.observers {
                obs.on_frame(&record);
            }
        }
        let end = self
            .phy
            .start_tx(n, tx_pos, frame, airtime, self.now, &self.candidates);
        self.macs[n].state = MacState::Tx(kind);
        // One entry for the whole transmission: its carrier ends are
        // resolved inside this TxEnd (see World::end_transmission).
        self.queue.push(
            end,
            Event::TxEnd {
                node: NodeId(n as u32),
            },
        );
        for k in 0..self.phy.went_busy.len() {
            self.mac_on_medium_busy(self.phy.went_busy[k]);
        }
    }

    /// Node `n`'s transmission ends at its own MAC; returns the frame it
    /// had on the air.
    pub(crate) fn handle_tx_end(&mut self, n: usize) -> MacFrame<PKT> {
        let (frame, went_idle) = self.phy.tx_end(n, self.now);
        let state = self.macs[n].state.clone();
        match state {
            MacState::Tx(TxKind::Rts) => {
                let timeout = self.config.mac.sifs
                    + self.config.radio.control_airtime(self.config.mac.cts_bytes)
                    + self.config.mac.slot.mul(2);
                let guard = self.macs[n].cancel_wakeup();
                self.macs[n].state = MacState::WaitCts;
                self.queue.push(
                    self.now + timeout,
                    Event::MacInternal {
                        node: NodeId(n as u32),
                        guard,
                    },
                );
            }
            MacState::Tx(TxKind::DataUnicast) | MacState::Tx(TxKind::DataAfterCts) => {
                let timeout = self.config.mac.sifs
                    + self.config.radio.control_airtime(self.config.mac.ack_bytes)
                    + self.config.mac.slot.mul(2);
                let guard = self.macs[n].cancel_wakeup();
                self.macs[n].state = MacState::WaitAck;
                self.queue.push(
                    self.now + timeout,
                    Event::MacInternal {
                        node: NodeId(n as u32),
                        guard,
                    },
                );
            }
            MacState::Tx(TxKind::Broadcast) => {
                let pkt = self.macs[n].queue.pop_front().expect("broadcast head");
                self.upcalls.push_back((
                    n,
                    MacOutcome::Sent {
                        dst: MacDst::Broadcast,
                        packet: pkt.payload,
                    },
                ));
                self.macs[n].state = MacState::Idle;
                if !self.macs[n].queue.is_empty() {
                    self.mac_begin_contention(n);
                }
            }
            MacState::Tx(TxKind::Response) => {
                self.macs[n].state = MacState::Idle;
                if !self.macs[n].queue.is_empty() {
                    self.mac_begin_contention(n);
                }
            }
            other => {
                debug_assert!(false, "tx_end in state {other:?}");
            }
        }
        if went_idle {
            self.mac_on_medium_idle(n);
        }
        frame
    }

    fn mac_retry(&mut self, n: usize, limit: u32) {
        self.macs[n].retries += 1;
        self.stats.count("mac.retry");
        if self.macs[n].retries > limit {
            self.stats.count("mac.drop");
            let pkt = self.macs[n].queue.pop_front().expect("retry head");
            let cw_min = self.config.mac.cw_min;
            self.macs[n].reset_contention(cw_min);
            self.macs[n].state = MacState::Idle;
            self.upcalls.push_back((
                n,
                MacOutcome::Failed {
                    dst: pkt.dst,
                    packet: pkt.payload,
                },
            ));
            if !self.macs[n].queue.is_empty() {
                self.mac_begin_contention(n);
            }
        } else {
            let cw_max = self.config.mac.cw_max;
            self.macs[n].widen_cw(cw_max);
            self.macs[n].backoff_remaining = self.draw_backoff(n);
            self.macs[n].state = MacState::WaitDifs;
            self.mac_check_difs(n);
        }
    }

    fn mac_finish_success(&mut self, n: usize) {
        let pkt = self.macs[n].queue.pop_front().expect("success head");
        let cw_min = self.config.mac.cw_min;
        self.macs[n].reset_contention(cw_min);
        self.macs[n].state = MacState::Idle;
        self.upcalls.push_back((
            n,
            MacOutcome::Sent {
                dst: pkt.dst,
                packet: pkt.payload,
            },
        ));
        if !self.macs[n].queue.is_empty() {
            self.mac_begin_contention(n);
        }
    }

    /// Queues a SIFS-spaced response if the MAC is in a state that may
    /// respond; returns whether it did.
    fn mac_queue_response(
        &mut self,
        n: usize,
        frame: MacFrame<PKT>,
        kind: TxKind,
        airtime: SimTime,
    ) -> bool {
        match self.macs[n].state {
            MacState::Idle | MacState::WaitDifs | MacState::Backoff => {
                self.mac_freeze_backoff(n);
                self.macs[n].pending_response = Some((frame, kind, airtime));
                self.macs[n].state = MacState::Sifs;
                let guard = self.macs[n].cancel_wakeup();
                self.queue.push(
                    self.now + self.config.mac.sifs,
                    Event::MacInternal {
                        node: NodeId(n as u32),
                        guard,
                    },
                );
                true
            }
            _ => false,
        }
    }

    /// Node `n`'s MAC takes a decoded `frame`; returns the payload to hand
    /// up to the protocol, if any. Borrowed from the transmitter's one
    /// held copy, so a frame's decoders share one payload allocation.
    fn mac_handle_frame<'f>(&mut self, n: usize, frame: &'f MacFrame<PKT>) -> Option<&'f PKT> {
        let my_addr = self.macs[n].addr;
        let addressed = frame.dst == Some(my_addr);
        let broadcast = frame.dst.is_none();
        if !addressed && !broadcast {
            // Overheard someone else's exchange: virtual carrier sense.
            self.mac_set_nav(n, frame.nav_until);
            return None;
        }
        match &frame.kind {
            MacFrameKind::Rts => {
                if self.macs[n].nav_busy(self.now) {
                    return None; // reserved medium: stay silent, sender retries
                }
                let cts = MacFrame {
                    kind: MacFrameKind::Cts,
                    src: Some(my_addr),
                    dst: frame.src,
                    nav_until: frame.nav_until,
                    seq: frame.seq,
                };
                let airtime = self.config.radio.control_airtime(self.config.mac.cts_bytes);
                self.mac_queue_response(n, cts, TxKind::Response, airtime);
                None
            }
            MacFrameKind::Cts => {
                if self.macs[n].state == MacState::WaitCts {
                    self.macs[n].cancel_wakeup();
                    self.macs[n].retries = 0;
                    let head = self.macs[n].queue.front().expect("WaitCts without head");
                    let head_bytes = head.bytes;
                    let MacDst::Unicast(dst) = head.dst else {
                        unreachable!("RTS sent for non-unicast frame");
                    };
                    let data = MacFrame {
                        kind: MacFrameKind::Data {
                            payload: head.payload.clone(),
                            broadcast: false,
                        },
                        src: Some(my_addr),
                        dst: Some(dst),
                        nav_until: frame.nav_until,
                        seq: head.seq,
                    };
                    let airtime = self.config.radio.data_airtime(head_bytes, &self.config.mac);
                    // Bypass mac_queue_response: WaitCts must send its DATA.
                    self.macs[n].pending_response = Some((data, TxKind::DataAfterCts, airtime));
                    self.macs[n].state = MacState::Sifs;
                    let guard = self.macs[n].guard;
                    self.queue.push(
                        self.now + self.config.mac.sifs,
                        Event::MacInternal {
                            node: NodeId(n as u32),
                            guard,
                        },
                    );
                }
                None
            }
            MacFrameKind::Ack => {
                if self.macs[n].state == MacState::WaitAck {
                    self.macs[n].cancel_wakeup();
                    self.mac_finish_success(n);
                }
                None
            }
            MacFrameKind::Data {
                payload,
                broadcast: true,
            } => Some(payload),
            MacFrameKind::Data {
                payload,
                broadcast: false,
            } => {
                let dup = frame
                    .src
                    .is_some_and(|s| self.macs[n].is_duplicate(s, frame.seq));
                if dup {
                    self.stats.count("mac.duplicate");
                }
                let ack = MacFrame {
                    kind: MacFrameKind::Ack,
                    src: Some(my_addr),
                    dst: frame.src,
                    nav_until: SimTime::ZERO,
                    seq: frame.seq,
                };
                let airtime = self.config.radio.control_airtime(self.config.mac.ack_bytes);
                self.mac_queue_response(n, ack, TxKind::Response, airtime);
                (!dup).then_some(&**payload)
            }
        }
    }

    /// The `carrier` of transmitter `tx`'s `frame` ends at its node `n`;
    /// returns the payload node `n`'s protocol receives, if any.
    pub(crate) fn handle_rx_end<'f>(
        &mut self,
        carrier: Carrier,
        tx: usize,
        frame: &'f MacFrame<PKT>,
    ) -> Option<&'f PKT> {
        let n = carrier.node as usize;
        let out = self.phy.rx_end(carrier, self.now);
        if out.collided {
            self.stats.count("phy.collision");
        }
        let mut packet = None;
        if out.decoded {
            if !self.node_up[n] {
                // Carrier began before this radio failed; the frame
                // completes into a dead receiver.
                self.stats.count("fault.drop.churn_rx");
            } else if self.fault_erases(n, tx) {
                // Bit errors: the carrier was sensed (the MAC's medium
                // bookkeeping above is untouched) but the frame is lost.
                let cause = self.config.fault.loss.drop_counter();
                self.stats.count(cause);
            } else {
                packet = self.mac_handle_frame(n, frame);
            }
        }
        if out.went_idle {
            self.mac_on_medium_idle(n);
        }
        packet
    }
}

/// Per-node handle protocols use to interact with the world.
///
/// Obtained only inside [`Protocol`] callbacks; every operation is scoped
/// to the node the callback belongs to.
pub struct Ctx<'a, PKT> {
    inner: &'a mut Inner<PKT>,
    node: usize,
}

impl<PKT: Clone + std::fmt::Debug + 'static> Ctx<'_, PKT> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// This node's identity.
    #[must_use]
    pub fn my_id(&self) -> NodeId {
        NodeId(self.node as u32)
    }

    /// This node's current position (every node is assumed to know its own
    /// location, e.g. via GPS — the standard geographic-routing
    /// assumption).
    #[must_use]
    pub fn my_pos(&mut self) -> Point {
        self.inner.position_of(self.node)
    }

    /// Ask the adversary machinery whether this node drops a packet it
    /// just accepted for relay (counting `adv.blackhole_drop` /
    /// `adv.grayhole_drop` as a side effect). Honest nodes always get
    /// `false`; call this exactly once per accepted packet so grayhole
    /// draw counts stay deterministic.
    #[must_use]
    pub fn adversary_drops(&mut self) -> bool {
        self.inner.adversary_drops(self.node)
    }

    /// Ground-truth position of any node — the *location oracle*.
    ///
    /// The paper's simulations (§5.1) run AGFW without ALS, assuming
    /// sources know destination locations; GPSR evaluations make the same
    /// assumption. Protocols that implement a real location service
    /// (ALS/DLM) only use this for their own position.
    #[must_use]
    pub fn oracle_position(&mut self, node: NodeId) -> Point {
        self.inner.position_of(node.0 as usize)
    }

    /// The simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.inner.config
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.inner.rng
    }

    /// Queues `packet` for transmission.
    ///
    /// `bytes` is the network-layer packet size (header + payload); the
    /// MAC adds its own overhead. Completion is reported via
    /// [`Protocol::on_mac_result`].
    pub(crate) fn mac_send(&mut self, dst: MacDst, packet: PKT, bytes: u32) {
        self.inner.mac_enqueue(self.node, packet, dst, bytes);
    }

    /// Queues an anonymous local broadcast (no RTS/CTS/ACK, no source MAC).
    pub fn mac_broadcast(&mut self, packet: PKT, bytes: u32) {
        self.mac_send(MacDst::Broadcast, packet, bytes);
    }

    /// Queues a reliable unicast (RTS/CTS/DATA/ACK with retries).
    pub fn mac_unicast(&mut self, to: MacAddr, packet: PKT, bytes: u32) {
        self.mac_send(MacDst::Unicast(to), packet, bytes);
    }

    /// Schedules [`Protocol::on_timer`] with `kind` after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, kind: u64) {
        self.inner.queue.push(
            self.inner.now + delay,
            Event::Timer {
                node: NodeId(self.node as u32),
                kind,
            },
        );
    }

    /// Reports an application packet as delivered to this node.
    ///
    /// Duplicates of the same `(flow, seq)` are counted once. Under
    /// churn, the first delivery a flow achieves after a recovery is
    /// counted as `fault.route_healed` — the route survived (or was
    /// rebuilt around) the outage.
    pub fn deliver_data(&mut self, tag: FlowTag) {
        let latency = self.inner.now.saturating_sub(tag.sent_at);
        let first = self
            .inner
            .stats
            .record_delivered(tag.flow, tag.seq, latency);
        if first && self.inner.churn_generation > 0 {
            let gen = &mut self.inner.flow_heal_gen[tag.flow as usize];
            if *gen < self.inner.churn_generation {
                *gen = self.inner.churn_generation;
                self.inner.stats.count("fault.route_healed");
            }
        }
    }

    /// Increments a named statistics counter.
    pub fn count(&mut self, name: &'static str) {
        self.inner.stats.count(name);
    }

    /// Adds `n` to a named statistics counter.
    pub fn count_n(&mut self, name: &'static str, n: u64) {
        self.inner.stats.count_n(name, n);
    }
}

/// A complete simulation: world state plus one protocol instance per node.
pub struct World<P: Protocol> {
    inner: Inner<P::Packet>,
    protocols: Vec<P>,
}

impl<P: Protocol> World<P> {
    /// Builds a world from `config`, creating each node's protocol with
    /// `factory(node, &config, rng)`.
    ///
    /// [`Protocol::on_start`] runs immediately (time zero) so protocols
    /// can schedule their first beacons; application flows are scheduled
    /// from the config.
    pub fn new(
        config: SimConfig,
        mut factory: impl FnMut(NodeId, &SimConfig, &mut StdRng) -> P,
    ) -> Self {
        let mut inner = Inner::new(config);
        let protocols: Vec<P> = (0..inner.config.num_nodes)
            .map(|i| {
                // Factory draws from the world RNG for reproducibility.
                let mut rng = StdRng::seed_from_u64(inner.rng.random());
                factory(NodeId(i as u32), &inner.config, &mut rng)
            })
            .collect();
        for (idx, flow) in inner.config.flows.iter().enumerate() {
            inner
                .queue
                .push(flow.start, Event::AppSend { flow: idx, seq: 0 });
        }
        inner
            .queue
            .push(SimTime::from_secs(PHY_REFRESH_S), Event::PhyRefresh);
        // Churn outages are plain scheduled events: both transitions are
        // queued up front, so the event stream is a pure function of the
        // plan.
        for churn in inner.config.fault.churn.clone() {
            assert!(
                (churn.node.0 as usize) < inner.config.num_nodes,
                "churn event names node {} but the world has {} nodes",
                churn.node,
                inner.config.num_nodes
            );
            inner.queue.push(
                churn.down,
                Event::Fault {
                    node: churn.node,
                    up: false,
                },
            );
            inner.queue.push(
                churn.up,
                Event::Fault {
                    node: churn.node,
                    up: true,
                },
            );
        }
        let mut world = World { inner, protocols };
        for i in 0..world.protocols.len() {
            let mut ctx = Ctx {
                inner: &mut world.inner,
                node: i,
            };
            world.protocols[i].on_start(&mut ctx);
        }
        world.drain_upcalls();
        world
    }

    /// Runs until the configured duration and returns the statistics.
    pub fn run(&mut self) -> Stats {
        let end = self.inner.config.duration;
        self.run_until(end);
        self.inner.stats.clone()
    }

    /// Runs until simulated time `t` (events after `t` stay queued).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.inner.queue.peek_time() {
            if next > t {
                break;
            }
            let (at, ev) = self.inner.queue.pop().expect("peeked event");
            self.inner.now = at;
            self.inner.stats.events_processed += 1;
            self.dispatch(ev);
            self.drain_upcalls();
        }
        self.inner.now = self.inner.now.max(t);
    }

    /// Statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Read access to a node's protocol instance (for inspection in tests
    /// and analysis).
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.0 as usize]
    }

    /// Ground-truth position of a node at the current time.
    pub fn position_of(&mut self, node: NodeId) -> Point {
        self.inner.position_of(node.0 as usize)
    }

    /// Attaches a streaming [`FrameObserver`] that sees every subsequent
    /// transmission (attach before [`World::run`] to see them all). This
    /// is the only way to watch the air; a [`RecordingObserver`] keeps the
    /// whole trace.
    pub fn attach_observer(&mut self, observer: Box<dyn FrameObserver<P::Packet>>) {
        self.inner.observers.push(observer);
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Timer { node, kind } => {
                let i = node.0 as usize;
                let mut ctx = Ctx {
                    inner: &mut self.inner,
                    node: i,
                };
                self.protocols[i].on_timer(&mut ctx, kind);
            }
            Event::AppSend { flow, seq } => self.app_send(flow, seq),
            Event::MacInternal { node, guard } => {
                self.inner.mac_internal(node.0 as usize, guard);
            }
            Event::TxEnd { node } => self.end_transmission(node.0 as usize),
            Event::PhyRefresh => self.inner.phy_refresh(),
            Event::Fault { node, up } => self.inner.handle_fault(node.0 as usize, up),
        }
    }

    /// Transmitter `tx`'s frame ends: its own MAC first, then the carrier
    /// at each receiver in the order `start_tx` listed them, draining
    /// MAC outcomes between steps as `run_until` does between events. Each
    /// carrier end counts as one processed event.
    ///
    /// This is the order separate queue entries would pop in: a frame's
    /// carrier ends share its end instant and would be scheduled right
    /// after its `TxEnd`, so FIFO tie-breaking runs them back to back, and
    /// anything they schedule pops after the last of them. No
    /// transmission starts in between, since only a queued MAC wake-up
    /// starts one, so `tx`'s receiver list is stable throughout.
    ///
    /// Every receiver reads the one frame the transmitter held. A decoded
    /// payload goes straight to `on_receive`, right after the carrier end
    /// that decoded it: that carrier end queued no MAC outcome (a data
    /// frame completes no exchange of the receiver's own), and protocol
    /// callbacks queue none either, so this is exactly where draining a
    /// queued delivery would have run it.
    fn end_transmission(&mut self, tx: usize) {
        let frame = self.inner.handle_tx_end(tx);
        let mut receivers = std::mem::take(&mut self.inner.phy.states[tx].receivers);
        for &carrier in &receivers {
            self.drain_upcalls();
            self.inner.stats.events_processed += 1;
            if let Some(packet) = self.inner.handle_rx_end(carrier, tx, &frame) {
                let j = carrier.node as usize;
                let mut ctx = Ctx {
                    inner: &mut self.inner,
                    node: j,
                };
                self.protocols[j].on_receive(&mut ctx, packet, frame.src);
            }
        }
        receivers.clear();
        self.inner.phy.spare.push(receivers);
    }

    fn app_send(&mut self, flow_idx: usize, seq: u32) {
        let flow = self.inner.config.flows[flow_idx];
        if self.inner.now >= flow.stop {
            return;
        }
        self.inner.stats.record_sent(flow_idx as u32);
        let tag = FlowTag {
            flow: flow_idx as u32,
            seq,
            src: flow.src,
            sent_at: self.inner.now,
        };
        let next = self.inner.now + flow.interval;
        if next < flow.stop {
            self.inner.queue.push(
                next,
                Event::AppSend {
                    flow: flow_idx,
                    seq: seq + 1,
                },
            );
        }
        let i = flow.src.0 as usize;
        let mut ctx = Ctx {
            inner: &mut self.inner,
            node: i,
        };
        self.protocols[i].on_app_send(&mut ctx, flow.dst, tag);
    }

    fn drain_upcalls(&mut self) {
        while let Some((node, outcome)) = self.inner.upcalls.pop_front() {
            let mut ctx = Ctx {
                inner: &mut self.inner,
                node,
            };
            self.protocols[node].on_mac_result(&mut ctx, outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MobilityParams, RadioParams};
    use agr_geom::Rect;

    #[test]
    fn may_sense_allows_one_refresh_of_drift_and_a_metre() {
        let tx = Point::ORIGIN;
        // 550 m carrier sense + 20 m/s × 1 s + 1 m.
        assert!(may_sense(Point::new(550.0, 0.0), tx, 550.0, 20.0));
        assert!(may_sense(Point::new(0.0, 571.0), tx, 550.0, 20.0));
        assert!(!may_sense(Point::new(571.01, 0.0), tx, 550.0, 20.0));
        assert!(!may_sense(Point::new(-3000.0, 0.0), tx, 550.0, 20.0));
    }

    /// Moves `n` random-waypoint nodes across `area`, every leg at
    /// `max_speed` with no pause, and checks the receiver scan's filter
    /// against exact positions: a snapshot at each refresh instant, then
    /// a transmission from every node at instants up to and including the
    /// next refresh. The last of those pops before that refresh's
    /// `PhyRefresh`, so it still reads the old snapshot. Returns how many
    /// (transmitter, node) pairs the filter skipped.
    fn check_snapshot_coverage(area: Rect, n: usize, seed: u64) -> usize {
        let cs_range = RadioParams::default().cs_range;
        let params = MobilityParams {
            min_speed: 20.0,
            max_speed: 20.0,
            pause: SimTime::ZERO,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<(MobilityState, StdRng)> = (0..n)
            .map(|_| {
                let start = area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0));
                (
                    MobilityState::new(start),
                    StdRng::seed_from_u64(rng.random()),
                )
            })
            .collect();
        let mut positions_at = |t: SimTime| -> Vec<Point> {
            nodes
                .iter_mut()
                .map(|(m, r)| m.position_at(t, &params, area, r))
                .collect()
        };
        let mut skipped = 0;
        for refresh_s in [1, 9, 40] {
            let refresh = SimTime::from_secs(refresh_s);
            let next = refresh + SimTime::from_secs(PHY_REFRESH_S);
            let snap = positions_at(refresh);
            for t in [
                refresh,
                refresh + SimTime::from_nanos(1),
                refresh + SimTime::from_millis(250),
                refresh + SimTime::from_millis(500),
                next - SimTime::from_nanos(1),
                next,
            ] {
                let exact = positions_at(t);
                for (i, &tx_pos) in exact.iter().enumerate() {
                    for (j, &pos) in exact.iter().enumerate() {
                        let kept = may_sense(snap[j], tx_pos, cs_range, params.max_speed);
                        assert!(
                            kept || i == j || pos.distance(tx_pos) > cs_range,
                            "seed {seed}, t {t}: node {j} is {:.1} m from transmitter {i} \
                             but its snapshot was filtered out",
                            pos.distance(tx_pos)
                        );
                        skipped += usize::from(!kept);
                    }
                }
            }
        }
        skipped
    }

    #[test]
    fn snapshot_filter_keeps_every_node_in_carrier_sense_range() {
        for seed in 0..3 {
            // The paper's strip, at Figure 1's densest point.
            let strip = check_snapshot_coverage(Rect::with_size(1500.0, 300.0), 150, seed);
            // A field wider than carrier sense in both directions.
            let field = check_snapshot_coverage(Rect::with_size(3000.0, 3000.0), 100, seed);
            // Not vacuous: on both the filter does skip nodes.
            assert!(
                strip > 0 && field > 0,
                "seed {seed}: {strip} / {field} skipped"
            );
        }
    }
}
