//! Metrics collection.
//!
//! The paper's §5 evaluates two metrics — *packet delivery fraction* and
//! *end-to-end packet latency* — plus we keep generic named counters so
//! protocols and the MAC can report collisions, retries, control overhead,
//! and cryptographic operations without the simulator knowing about them.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Per-flow delivery breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FlowStats {
    /// Packets originated on this flow.
    pub(crate) sent: u64,
    /// Packets delivered (first copies).
    pub(crate) delivered: u64,
}

impl FlowStats {
    /// Delivery fraction for this flow (1.0 when idle).
    #[must_use]
    pub(crate) fn delivery_fraction(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// Aggregated run statistics.
///
/// Derives `PartialEq` so regression tests can assert that two runs (e.g.
/// serial vs parallel sweep execution, or grid vs linear PHY indexing)
/// produced *exactly* the same outcome, field for field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Data packets originated by sources.
    pub data_sent: u64,
    /// Data packets delivered to their destinations (first copy only).
    pub data_delivered: u64,
    /// Events dispatched by the engine's run loop plus carrier ends (one
    /// per node in carrier-sense range of each frame, resolved inside the
    /// frame's `TxEnd`) — a deterministic measure of simulation work
    /// (wall-clock independent).
    pub events_processed: u64,
    /// End-to-end latency of each delivered packet.
    latencies: Vec<SimTime>,
    /// Named event counters.
    counters: BTreeMap<&'static str, u64>,
    /// Duplicate-delivery guard: bit `seq` of `delivered_seqs[flow]` is
    /// set once `(flow, seq)` was delivered. A flow numbers its packets
    /// from 0 up, so one bit per packet sent holds the set; a caller that
    /// keeps many runs' `Stats` keeps this for each of them.
    delivered_seqs: Vec<Vec<u64>>,
    /// Per-flow breakdown.
    flows: BTreeMap<u32, FlowStats>,
}

impl Stats {
    /// Creates empty statistics.
    #[must_use]
    pub(crate) fn new() -> Self {
        Stats::default()
    }

    /// Records a packet origination.
    pub(crate) fn record_sent(&mut self, flow: u32) {
        self.data_sent += 1;
        self.flows.entry(flow).or_default().sent += 1;
    }

    /// Records a delivery; duplicates of the same `(flow, seq)` are
    /// ignored (retransmission schemes may deliver twice).
    ///
    /// Returns `true` if this was the first delivery.
    pub(crate) fn record_delivered(&mut self, flow: u32, seq: u32, latency: SimTime) -> bool {
        let flow_idx = flow as usize;
        if self.delivered_seqs.len() <= flow_idx {
            self.delivered_seqs.resize_with(flow_idx + 1, Vec::new);
        }
        let words = &mut self.delivered_seqs[flow_idx];
        let (word, bit) = (seq as usize / 64, 1u64 << (seq % 64));
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        if words[word] & bit != 0 {
            return false;
        }
        words[word] |= bit;
        self.data_delivered += 1;
        self.flows.entry(flow).or_default().delivered += 1;
        self.latencies.push(latency);
        true
    }

    /// Increments the named counter.
    pub(crate) fn count(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Adds `n` to the named counter.
    pub(crate) fn count_n(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads a named counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All named counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Counters whose name starts with `prefix`, sorted by name — e.g.
    /// `prefixed("fault.drop.")` yields every drop-by-cause counter the
    /// fault layer recorded.
    pub(crate) fn prefixed<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Sum of all counters whose name starts with `prefix` — e.g. the
    /// total frames erased by the fault layer regardless of cause.
    #[must_use]
    pub fn prefixed_sum(&self, prefix: &str) -> u64 {
        self.prefixed(prefix).map(|(_, v)| v).sum()
    }

    /// Packet delivery fraction: delivered / sent (1.0 for an idle run).
    #[must_use]
    pub fn delivery_fraction(&self) -> f64 {
        if self.data_sent == 0 {
            1.0
        } else {
            self.data_delivered as f64 / self.data_sent as f64
        }
    }

    /// Mean end-to-end latency over delivered packets.
    #[must_use]
    pub fn mean_latency(&self) -> SimTime {
        if self.latencies.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u64 = self.latencies.iter().map(|l| l.as_nanos()).sum();
        SimTime::from_nanos(sum / self.latencies.len() as u64)
    }

    /// Latency at quantile `q` in `[0, 1]` (0.5 = median). Zero when no
    /// packets were delivered.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.latencies.is_empty() {
            return SimTime::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// All recorded latencies (delivery order).
    #[must_use]
    pub fn latencies(&self) -> &[SimTime] {
        &self.latencies
    }

    /// The worst per-flow delivery fraction — a fairness indicator: a
    /// high aggregate can hide one starved flow.
    #[must_use]
    pub fn worst_flow_delivery(&self) -> f64 {
        self.flows
            .values()
            .map(FlowStats::delivery_fraction)
            .fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_fraction_counts_unique_deliveries() {
        let mut s = Stats::new();
        for _ in 0..4 {
            s.record_sent(0);
        }
        assert!(s.record_delivered(0, 0, SimTime::from_millis(5)));
        assert!(s.record_delivered(0, 1, SimTime::from_millis(7)));
        // Duplicate of (0, 1) ignored.
        assert!(!s.record_delivered(0, 1, SimTime::from_millis(9)));
        assert_eq!(s.data_delivered, 2);
        assert_eq!(s.delivery_fraction(), 0.5);
        // Keys are (flow, seq): the same seq on another flow, and seqs on
        // either side of a 64-bit word, are distinct packets.
        for (flow, seq) in [(3, 1), (0, 64), (0, 63), (0, 1000)] {
            s.record_sent(flow);
            assert!(s.record_delivered(flow, seq, SimTime::from_millis(1)));
            assert!(!s.record_delivered(flow, seq, SimTime::from_millis(1)));
        }
        assert_eq!(s.data_delivered, 6);
    }

    #[test]
    fn idle_run_has_perfect_delivery() {
        assert_eq!(Stats::new().delivery_fraction(), 1.0);
        assert_eq!(Stats::new().mean_latency(), SimTime::ZERO);
    }

    #[test]
    fn mean_and_quantiles() {
        let mut s = Stats::new();
        for (i, ms) in [10u64, 20, 30, 40].iter().enumerate() {
            s.record_sent(0);
            s.record_delivered(0, i as u32, SimTime::from_millis(*ms));
        }
        assert_eq!(s.mean_latency(), SimTime::from_millis(25));
        assert_eq!(s.latency_quantile(0.0), SimTime::from_millis(10));
        assert_eq!(s.latency_quantile(1.0), SimTime::from_millis(40));
        assert_eq!(s.latency_quantile(0.5), SimTime::from_millis(30));
    }

    #[test]
    fn named_counters() {
        let mut s = Stats::new();
        s.count("mac.collision");
        s.count("mac.collision");
        s.count_n("mac.retry", 5);
        assert_eq!(s.counter("mac.collision"), 2);
        assert_eq!(s.counter("mac.retry"), 5);
        assert_eq!(s.counter("unknown"), 0);
        let all: Vec<_> = s.counters().collect();
        assert_eq!(all, vec![("mac.collision", 2), ("mac.retry", 5)]);
    }

    #[test]
    fn prefixed_counters() {
        let mut s = Stats::new();
        s.count_n("fault.drop.uniform", 3);
        s.count_n("fault.drop.burst", 2);
        s.count("fault.churn_down");
        s.count("mac.retry");
        let drops: Vec<_> = s.prefixed("fault.drop.").collect();
        assert_eq!(
            drops,
            vec![("fault.drop.burst", 2), ("fault.drop.uniform", 3)]
        );
        assert_eq!(s.prefixed_sum("fault.drop."), 5);
        assert_eq!(s.prefixed_sum("fault."), 6);
        assert_eq!(s.prefixed_sum("nothing."), 0);
    }

    #[test]
    fn per_flow_breakdown() {
        let mut s = Stats::new();
        s.record_sent(0);
        s.record_sent(0);
        s.record_sent(1);
        s.record_delivered(0, 0, SimTime::from_millis(1));
        let flows: Vec<FlowStats> = s.flows.values().copied().collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].sent, 2);
        assert_eq!(flows[0].delivered, 1);
        assert_eq!(flows[0].delivery_fraction(), 0.5);
        assert_eq!(flows[1].delivery_fraction(), 0.0);
        assert_eq!(s.worst_flow_delivery(), 0.0);
    }

    #[test]
    fn worst_flow_of_empty_stats_is_one() {
        assert_eq!(Stats::new().worst_flow_delivery(), 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        let _ = Stats::new().latency_quantile(1.5);
    }
}
