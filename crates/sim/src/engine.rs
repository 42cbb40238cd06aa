//! The discrete-event core: event types and the time-ordered queue.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event.
///
/// Events carry only plain identifiers — frames and packets live in the
/// PHY/MAC state, so the queue stays small and `Event` stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A protocol timer set via [`crate::Ctx::set_timer`] fired.
    Timer {
        /// Node whose timer fired.
        node: NodeId,
        /// Protocol-chosen discriminator.
        kind: u64,
    },
    /// The application originates the next packet of a flow.
    AppSend {
        /// Index into `SimConfig::flows`.
        flow: usize,
        /// Packet sequence number within the flow.
        seq: u32,
    },
    /// MAC state-machine wake-up (backoff end, DIFS check, SIFS response,
    /// CTS/ACK timeout). `guard` invalidates stale wake-ups.
    MacInternal {
        /// Node whose MAC wakes.
        node: NodeId,
        /// Generation guard compared against the MAC's current guard.
        guard: u64,
    },
    /// A node's transmission ends. The one entry per frame: its handler
    /// also ends the frame's carrier at every node in carrier-sense range,
    /// in ascending node order, handing each deliverable, uncorrupted
    /// frame to that node's MAC.
    TxEnd {
        /// The transmitter.
        node: NodeId,
    },
    /// Periodic refresh of the position snapshot that filters the PHY's
    /// receiver scan, once per simulated second from 1 s on. It takes part
    /// in the FIFO tie-break sequence like any other event, so every run
    /// schedules it.
    PhyRefresh,
    /// A scheduled fault transition from the run's
    /// [`crate::fault::FaultPlan`]: `node`'s radio recovers (`up`) or
    /// fails (`!up`). Only scheduled when the plan contains churn, so
    /// fault-free runs see an unchanged event stream.
    Fault {
        /// The node whose radio changes state.
        node: NodeId,
        /// True for recovery, false for failure.
        up: bool,
    },
}

#[derive(Debug)]
struct Scheduled {
    t: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.t.cmp(&self.t).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in scheduling order, which
/// makes runs deterministic and gives natural causality (whatever a
/// frame's receivers schedule for its end instant pops after the frame's
/// `TxEnd`, which resolves all of their carriers).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue with room for `cap` events before the
    /// backing heap reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `t`.
    pub fn push(&mut self, t: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { t, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.t, s.event))
    }

    /// Time of the earliest event without removing it.
    #[must_use]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, kind: u64) -> Event {
        Event::Timer {
            node: NodeId(node),
            kind,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_secs(3), timer(0, 3));
        q.push(SimTime::from_secs(1), timer(0, 1));
        q.push(SimTime::from_secs(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { kind, .. } => kind,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::default();
        let t = SimTime::from_secs(1);
        for kind in 0..10 {
            q.push(t, timer(0, kind));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { kind, .. } => kind,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), timer(1, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert!(q.pop().is_none());
    }
}
