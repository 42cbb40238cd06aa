//! Simulation configuration.
//!
//! Defaults reproduce the paper's §5.1 setup: 50 nodes in a
//! 1500 m × 300 m area, 250 m nominal radio range, random-waypoint
//! mobility up to 20 m/s with 60 s pause, 900 s runs, and IEEE 802.11
//! DSSS MAC timing.

use crate::adversary::AdversaryPlan;
use crate::fault::FaultPlan;
use crate::time::SimTime;
use crate::NodeId;
use agr_geom::Rect;
use rand::Rng;

/// Radio (PHY) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioParams {
    /// Nominal communication range in metres (paper: 250 m).
    pub comm_range: f64,
    /// Carrier-sense / interference range in metres. NS-2's default for a
    /// 250 m communication range is 550 m, which is what produces hidden
    /// terminals beyond the communication range.
    pub cs_range: f64,
    /// Data bit rate in bit/s (802.11 DSSS: 2 Mb/s).
    pub(crate) data_rate: f64,
    /// Basic bit rate used by control frames (RTS/CTS/ACK): 1 Mb/s.
    pub(crate) basic_rate: f64,
    /// PHY preamble + PLCP header time prepended to every frame (192 µs at
    /// the 1 Mb/s long preamble).
    pub(crate) preamble: SimTime,
}

impl Default for RadioParams {
    fn default() -> Self {
        RadioParams {
            comm_range: 250.0,
            cs_range: 550.0,
            data_rate: 2_000_000.0,
            basic_rate: 1_000_000.0,
            preamble: SimTime::from_micros(192),
        }
    }
}

impl RadioParams {
    /// Airtime of a data frame of `bytes` MAC-payload bytes (includes MAC
    /// overhead and preamble).
    #[must_use]
    pub(crate) fn data_airtime(&self, bytes: u32, mac: &MacParams) -> SimTime {
        let total_bits = f64::from((bytes + mac.data_header_bytes) * 8);
        self.preamble + SimTime::from_secs_f64(total_bits / self.data_rate)
    }

    /// Airtime of a control frame of `bytes` bytes at the basic rate.
    #[must_use]
    pub(crate) fn control_airtime(&self, bytes: u32) -> SimTime {
        let bits = f64::from(bytes * 8);
        self.preamble + SimTime::from_secs_f64(bits / self.basic_rate)
    }
}

/// IEEE 802.11 DCF MAC parameters (DSSS PHY timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacParams {
    /// Slot time (20 µs).
    pub(crate) slot: SimTime,
    /// Short interframe space (10 µs).
    pub(crate) sifs: SimTime,
    /// DCF interframe space (SIFS + 2 slots = 50 µs).
    pub(crate) difs: SimTime,
    /// Minimum contention window (31).
    pub(crate) cw_min: u32,
    /// Maximum contention window (1023).
    pub(crate) cw_max: u32,
    /// Retry limit for frames preceded by RTS (short retry: 7).
    pub(crate) short_retry_limit: u32,
    /// Retry limit for data frames (long retry: 4).
    pub(crate) long_retry_limit: u32,
    /// Payload size above which unicast uses RTS/CTS. NS-2's CMU default
    /// is 0 — every unicast data frame is preceded by a handshake, which
    /// is the behaviour the paper's §5.2 discussion assumes.
    pub(crate) rts_threshold: u32,
    /// MAC header + FCS bytes added to every data frame (28 + 6 LLC).
    pub data_header_bytes: u32,
    /// RTS frame size in bytes.
    pub rts_bytes: u32,
    /// CTS frame size in bytes.
    pub cts_bytes: u32,
    /// ACK frame size in bytes.
    pub ack_bytes: u32,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            slot: SimTime::from_micros(20),
            sifs: SimTime::from_micros(10),
            difs: SimTime::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            short_retry_limit: 7,
            long_retry_limit: 4,
            rts_threshold: 0,
            data_header_bytes: 34,
            rts_bytes: 20,
            cts_bytes: 14,
            ack_bytes: 14,
        }
    }
}

/// Random-waypoint mobility parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityParams {
    /// Minimum leg speed in m/s (strictly positive to avoid the
    /// random-waypoint zero-speed pathology).
    pub min_speed: f64,
    /// Maximum leg speed in m/s (paper: 20 m/s).
    pub max_speed: f64,
    /// Pause at each waypoint (paper: 60 s "whenever it changes its
    /// direction").
    pub pause: SimTime,
}

impl Default for MobilityParams {
    fn default() -> Self {
        MobilityParams {
            min_speed: 1.0,
            max_speed: 20.0,
            pause: SimTime::from_secs(60),
        }
    }
}

/// One constant-bit-rate application flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Time of the first packet.
    pub start: SimTime,
    /// Inter-packet interval.
    pub interval: SimTime,
    /// Application payload size in bytes (the classic GPSR workload uses
    /// 64-byte CBR packets).
    pub payload_bytes: u32,
    /// No packets are originated at or after this time.
    pub stop: SimTime,
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Deployment area (paper: 1500 m × 300 m).
    pub area: Rect,
    /// Number of nodes (paper baseline: 50; Figure 1 sweeps density).
    pub num_nodes: usize,
    /// Radio parameters.
    pub radio: RadioParams,
    /// MAC parameters.
    pub mac: MacParams,
    /// Mobility parameters.
    pub mobility: MobilityParams,
    /// Simulated duration (paper: 900 s).
    pub duration: SimTime,
    /// Master RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Application flows.
    pub flows: Vec<FlowConfig>,
    /// Explicit initial node positions. When set, must have exactly
    /// `num_nodes` entries; when `None`, nodes start uniformly at random.
    /// Combine with a `MobilityParams` pause longer than the run for fully
    /// static topologies (used by tests and controlled experiments).
    pub initial_positions: Option<Vec<agr_geom::Point>>,
    /// Deterministic fault schedule: per-link loss and node churn (see
    /// `crate::fault`). The default plan injects nothing and leaves runs
    /// bit-identical to a fault-free simulator.
    pub fault: FaultPlan,
    /// Deterministic adversarial node assignment: blackholes and
    /// grayholes (see `crate::adversary`). The default plan compromises
    /// nobody and leaves runs byte-identical to an adversary-free
    /// simulator.
    pub adversary: AdversaryPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            area: Rect::with_size(1500.0, 300.0),
            num_nodes: 50,
            radio: RadioParams::default(),
            mac: MacParams::default(),
            mobility: MobilityParams::default(),
            duration: SimTime::from_secs(900),
            seed: 1,
            flows: Vec::new(),
            initial_positions: None,
            fault: FaultPlan::default(),
            adversary: AdversaryPlan::default(),
        }
    }
}

impl SimConfig {
    /// A configuration with pinned node positions and no movement —
    /// convenient for controlled topologies in tests and experiments.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty.
    #[must_use]
    pub fn static_topology(positions: Vec<agr_geom::Point>, duration: SimTime) -> Self {
        assert!(!positions.is_empty(), "need at least one node");
        SimConfig {
            num_nodes: positions.len(),
            duration,
            mobility: MobilityParams {
                min_speed: 0.1,
                max_speed: 0.2,
                pause: duration + SimTime::from_secs(1_000),
            },
            initial_positions: Some(positions),
            ..SimConfig::default()
        }
    }
}

impl SimConfig {
    /// Generates the paper's traffic pattern: `flows` CBR flows originated
    /// by `senders` distinct sending nodes (§5.1: "30 CBR traffic flows
    /// originated by 20 sending nodes"), with random destinations distinct
    /// from their source.
    ///
    /// Flow start times are staggered uniformly over `[10 s, 60 s)` so
    /// routing tables have warmed up and flows do not synchronise.
    ///
    /// # Panics
    ///
    /// Panics if `senders` is zero, exceeds `flows`, or there are fewer
    /// than two nodes.
    pub fn with_cbr_traffic<R: Rng + ?Sized>(
        mut self,
        flows: usize,
        senders: usize,
        interval: SimTime,
        payload_bytes: u32,
        rng: &mut R,
    ) -> Self {
        assert!(senders > 0 && senders <= flows, "invalid sender count");
        assert!(self.num_nodes >= 2, "traffic needs at least two nodes");
        assert!(
            senders <= self.num_nodes,
            "cannot pick {senders} distinct senders from {} nodes",
            self.num_nodes
        );
        // Choose distinct senders.
        let mut ids: Vec<u32> = (0..self.num_nodes as u32).collect();
        for i in 0..senders {
            let j = rng.random_range(i..ids.len());
            ids.swap(i, j);
        }
        let sender_ids: Vec<u32> = ids[..senders].to_vec();
        let stop = self.duration.saturating_sub(SimTime::from_secs(10));
        self.flows = (0..flows)
            .map(|i| {
                let src = sender_ids[i % senders];
                let dst = loop {
                    let d = rng.random_range(0..self.num_nodes as u32);
                    if d != src {
                        break d;
                    }
                };
                FlowConfig {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    start: SimTime::from_secs(10)
                        + SimTime::from_nanos(rng.random_range(0..50_000_000_000)),
                    interval,
                    payload_bytes,
                    stop,
                }
            })
            .collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.area.width(), 1500.0);
        assert_eq!(c.area.height(), 300.0);
        assert_eq!(c.num_nodes, 50);
        assert_eq!(c.duration, SimTime::from_secs(900));
        assert_eq!(c.radio.comm_range, 250.0);
        assert_eq!(c.mobility.max_speed, 20.0);
        assert_eq!(c.mobility.pause, SimTime::from_secs(60));
    }

    #[test]
    fn mac_difs_is_sifs_plus_two_slots() {
        let m = MacParams::default();
        assert_eq!(m.difs, m.sifs + m.slot + m.slot);
    }

    #[test]
    fn data_airtime_includes_overheads() {
        let r = RadioParams::default();
        let m = MacParams::default();
        // 64-byte payload + 34-byte MAC overhead = 98 bytes = 784 bits at
        // 2 Mb/s = 392 µs, plus 192 µs preamble.
        assert_eq!(r.data_airtime(64, &m), SimTime::from_micros(192 + 392));
    }

    #[test]
    fn control_airtime_uses_basic_rate() {
        let r = RadioParams::default();
        // CTS: 14 bytes = 112 bits at 1 Mb/s = 112 µs + 192 µs preamble.
        assert_eq!(r.control_airtime(14), SimTime::from_micros(192 + 112));
    }

    #[test]
    fn cbr_traffic_matches_request() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = SimConfig::default().with_cbr_traffic(30, 20, SimTime::from_secs(1), 64, &mut rng);
        assert_eq!(c.flows.len(), 30);
        let senders: crate::FixedSet<_> = c.flows.iter().map(|f| f.src).collect();
        assert_eq!(senders.len(), 20);
        for f in &c.flows {
            assert_ne!(f.src, f.dst);
            assert!(f.start >= SimTime::from_secs(10));
            assert!(f.start < SimTime::from_secs(60));
            assert!(f.stop <= c.duration);
        }
    }

    #[test]
    #[should_panic(expected = "invalid sender count")]
    fn more_senders_than_flows_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = SimConfig::default().with_cbr_traffic(5, 10, SimTime::from_secs(1), 64, &mut rng);
    }
}
