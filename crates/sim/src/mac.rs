//! IEEE 802.11 DCF MAC data structures.
//!
//! The MAC's *state* lives here; the event-driven logic that manipulates
//! it lives in the world module (it needs simultaneous access to the PHY,
//! the event queue, and the RNG). Modelled behaviour:
//!
//! * CSMA/CA: DIFS sensing + slotted binary-exponential backoff, frozen
//!   while the medium is busy.
//! * Virtual carrier sensing (NAV) from overheard RTS/CTS/DATA durations.
//! * Unicast: RTS → CTS → DATA → ACK with SIFS spacing, retry limits and
//!   contention-window doubling on timeout.
//! * Broadcast: CSMA/CA only — no handshake, no ACK, no retry. This is
//!   the asymmetry the whole paper's evaluation turns on: GPSR's unicasts
//!   get MAC reliability, AGFW's anonymous broadcasts do not and must
//!   rebuild it at the network layer.
//!
//! Under fault injection (see [`crate::fault`]) any frame — including
//! RTS/CTS/ACK — can be erased between the PHY and this layer, as if it
//! failed its checksum. The machinery here already covers the fallout:
//! a lost MAC ACK triggers the sender's retry path, and the receiver's
//! [`Mac::is_duplicate`] suppresses the resulting re-delivery, exactly
//! as in real 802.11. Lost *broadcasts* are silent, which is the gap the
//! paper's network-layer ACK scheme exists to close.

use crate::protocol::MacDst;
use crate::time::SimTime;
use crate::MacAddr;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

/// MAC frame types.
///
/// Data payloads are held behind a shared [`Arc`] handle: a broadcast
/// heard by N neighbors (and a unicast's RTS/CTS retry chain) costs O(1)
/// payload clones instead of O(N·retries) — every copy the MAC and the
/// eavesdropper trace make is a reference-count bump, and the PHY
/// fan-out makes none: receivers borrow the transmitter's one frame.
#[derive(Debug, Clone)]
pub(crate) enum MacFrameKind<PKT> {
    /// Request-to-send (unicast reservation).
    Rts,
    /// Clear-to-send (reservation grant).
    Cts,
    /// Link-layer acknowledgment.
    Ack,
    /// A data frame carrying a network-layer packet.
    Data {
        /// The routing-layer packet (shared, never mutated in flight).
        payload: Arc<PKT>,
        /// True for local broadcasts.
        broadcast: bool,
    },
}

/// A frame on the air.
#[derive(Debug, Clone)]
pub(crate) struct MacFrame<PKT> {
    pub(crate) kind: MacFrameKind<PKT>,
    /// Source MAC address; `None` on anonymous broadcasts.
    pub(crate) src: Option<MacAddr>,
    /// Destination; `None` = broadcast.
    pub(crate) dst: Option<MacAddr>,
    /// Absolute time until which the medium is reserved (NAV). Zero means
    /// "to be filled in at transmit time".
    pub(crate) nav_until: SimTime,
    /// Sender's MAC sequence number (duplicate detection on retransmit).
    pub(crate) seq: u16,
}

/// A queued outgoing packet.
#[derive(Debug)]
pub(crate) struct OutPkt<PKT> {
    pub(crate) payload: Arc<PKT>,
    pub(crate) dst: MacDst,
    /// Network-layer bytes (MAC overhead added by the PHY airtime model).
    pub(crate) bytes: u32,
    pub(crate) seq: u16,
}

/// What the node is currently transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxKind {
    Rts,
    DataUnicast,
    Broadcast,
    /// A SIFS response (CTS or ACK) or the DATA following a received CTS.
    Response,
    /// The DATA frame of our own exchange, sent as a SIFS response to CTS.
    DataAfterCts,
}

/// DCF state machine states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MacState {
    /// Nothing to send.
    Idle,
    /// Head-of-queue frame waits for the medium to be idle for DIFS.
    WaitDifs,
    /// Backoff countdown in progress (wake-up scheduled).
    Backoff,
    /// Transmitting; the payload flag says what.
    Tx(TxKind),
    /// RTS sent, waiting for CTS (timeout scheduled).
    WaitCts,
    /// DATA sent, waiting for ACK (timeout scheduled).
    WaitAck,
    /// About to transmit a SIFS-spaced response.
    Sifs,
}

/// Per-node MAC state.
#[derive(Debug)]
pub(crate) struct Mac<PKT> {
    pub(crate) addr: MacAddr,
    pub(crate) queue: VecDeque<OutPkt<PKT>>,
    pub(crate) state: MacState,
    /// Current contention window.
    pub(crate) cw: u32,
    /// Retry count for the head frame.
    pub(crate) retries: u32,
    /// Remaining backoff time (frozen across busy periods).
    pub(crate) backoff_remaining: SimTime,
    /// When the current countdown started (valid in `Backoff`).
    pub(crate) backoff_started: SimTime,
    /// Virtual carrier sense: medium reserved until this time.
    pub(crate) nav_until: SimTime,
    /// Invalidates stale `MacInternal` events.
    pub(crate) guard: u64,
    /// Next MAC sequence number to assign.
    pub(crate) next_seq: u16,
    /// Last sequence number accepted from each source (dedup). The keys
    /// are the simulator's own MAC addresses, so a fixed-key hasher loses
    /// nothing, and it spares `World::new` a random seed per node.
    pub(crate) dedup: HashMap<MacAddr, u16, BuildHasherDefault<DefaultHasher>>,
    /// Frame to transmit after SIFS, with its kind and precomputed
    /// airtime (valid in `Sifs`).
    pub(crate) pending_response: Option<(MacFrame<PKT>, TxKind, SimTime)>,
}

impl<PKT> Mac<PKT> {
    pub(crate) fn new(addr: MacAddr, cw_min: u32) -> Self {
        Mac {
            addr,
            queue: VecDeque::new(),
            state: MacState::Idle,
            cw: cw_min,
            retries: 0,
            backoff_remaining: SimTime::ZERO,
            backoff_started: SimTime::ZERO,
            nav_until: SimTime::ZERO,
            guard: 0,
            next_seq: 0,
            dedup: HashMap::default(),
            pending_response: None,
        }
    }

    /// Bumps the guard, invalidating any scheduled wake-up.
    pub(crate) fn cancel_wakeup(&mut self) -> u64 {
        self.guard += 1;
        self.guard
    }

    /// Doubles the contention window after a failed attempt.
    pub(crate) fn widen_cw(&mut self, cw_max: u32) {
        self.cw = (self.cw * 2 + 1).min(cw_max);
    }

    /// Resets contention state after success or final drop.
    pub(crate) fn reset_contention(&mut self, cw_min: u32) {
        self.cw = cw_min;
        self.retries = 0;
        self.backoff_remaining = SimTime::ZERO;
    }

    /// Records `seq` from `src`; returns true if it is a duplicate of the
    /// last accepted frame (MAC-level retransmission).
    pub(crate) fn is_duplicate(&mut self, src: MacAddr, seq: u16) -> bool {
        match self.dedup.insert(src, seq) {
            Some(prev) => prev == seq,
            None => false,
        }
    }

    /// True if the virtual carrier (NAV) considers the medium reserved.
    pub(crate) fn nav_busy(&self, now: SimTime) -> bool {
        now < self.nav_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> Mac<u32> {
        Mac::new(MacAddr(1), 31)
    }

    #[test]
    fn cw_doubles_and_caps() {
        let mut m = mac();
        assert_eq!(m.cw, 31);
        m.widen_cw(1023);
        assert_eq!(m.cw, 63);
        for _ in 0..10 {
            m.widen_cw(1023);
        }
        assert_eq!(m.cw, 1023);
        m.reset_contention(31);
        assert_eq!(m.cw, 31);
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn guard_invalidation() {
        let mut m = mac();
        let g1 = m.cancel_wakeup();
        let g2 = m.cancel_wakeup();
        assert_ne!(g1, g2);
        assert_eq!(m.guard, g2);
    }

    #[test]
    fn duplicate_detection() {
        let mut m = mac();
        let src = MacAddr(9);
        assert!(!m.is_duplicate(src, 5));
        assert!(m.is_duplicate(src, 5));
        assert!(!m.is_duplicate(src, 6));
        // A different source with the same seq is not a duplicate.
        assert!(!m.is_duplicate(MacAddr(10), 6));
    }

    #[test]
    fn nav_busy_window() {
        let mut m = mac();
        m.nav_until = SimTime::from_micros(100);
        assert!(m.nav_busy(SimTime::from_micros(50)));
        assert!(!m.nav_busy(SimTime::from_micros(100)));
    }
}
