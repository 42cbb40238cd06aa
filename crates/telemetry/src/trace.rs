//! Sim-time-aware tracing: a bounded ring of event records.
//!
//! Time is a bare `u64` of nanoseconds, deliberately unit-free at this
//! layer: the sim feeds it `SimTime::as_nanos()` (virtual time), the
//! service feeds it monotonic `Instant` deltas. The ring never
//! allocates past its bound — when full, the oldest record is evicted —
//! so it is safe to leave attached for the whole run and dump only on
//! failure (postmortem style).
//!
//! Recording is observation-only by construction: pushing a record
//! reads nothing from the traced system, draws no randomness, and takes
//! no locks shared with it, which is why an instrumented sim run stays
//! byte-identical to a bare one (pinned by `telemetry_determinism.rs`).

use std::collections::VecDeque;
use std::fmt::Write as _;

/// One record in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds — sim time in the sim, monotonic offset in services.
    pub t_nanos: u64,
    /// Subsystem that emitted the record (`sim.mac`, `als.serve`, ...).
    pub(crate) target: &'static str,
    /// Human-readable payload.
    pub message: String,
}

/// A bounded ring buffer of `TraceEvent`s.
#[derive(Debug)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// Total records ever pushed (including evicted ones).
    pushed: u64,
}

impl TraceRing {
    /// A ring holding at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            pushed: 0,
        }
    }

    /// Pushes a point event, evicting the oldest record when full.
    pub fn event(&mut self, t_nanos: u64, target: &'static str, message: impl Into<String>) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            t_nanos,
            target,
            message: message.into(),
        });
        self.pushed += 1;
    }

    /// Records currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Total records ever pushed, including evicted ones.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Dumps the retained records as JSONL (one object per line) for
    /// postmortem inspection — same line shape as the viz stream's
    /// `trace` records.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"t_ns\":{},\"kind\":\"event\",\"target\":\"{}\",\"msg\":{}}}",
                e.t_nanos,
                e.target,
                crate::export::json_string(&e.message),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.event(i, "test", format!("e{i}"));
        }
        assert_eq!(ring.events().count(), 3);
        assert_eq!(ring.total_pushed(), 5);
        let times: Vec<u64> = ring.events().map(|e| e.t_nanos).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_dump_escapes_messages() {
        let mut ring = TraceRing::new(2);
        ring.event(7, "t", "say \"hi\"\n");
        let dump = ring.to_jsonl();
        assert_eq!(
            dump,
            "{\"t_ns\":7,\"kind\":\"event\",\"target\":\"t\",\"msg\":\"say \\\"hi\\\"\\n\"}\n"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        ring.event(1, "t", "a");
        ring.event(2, "t", "b");
        assert_eq!(ring.events().count(), 1);
    }
}
