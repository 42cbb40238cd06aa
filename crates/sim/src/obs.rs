//! The telemetry observer: a streaming frame consumer that folds the
//! on-air trace into an [`agr_telemetry::Registry`].
//!
//! It is **observation-only**: it reads the [`FrameRecord`] handed to
//! every [`FrameObserver`], draws no randomness, and touches no
//! simulator state, so attaching it leaves a run byte-identical to a
//! bare one (pinned by the bench crate's `telemetry_determinism` tests
//! against the adversary-acceptance goldens).
//!
//! Attach with [`crate::World::attach_observer`], keeping a clone of the
//! `Rc<RefCell<_>>` to read the accumulated registry after the run:
//!
//! ```
//! use agr_sim::{SimConfig, SimTime, TelemetryObserver, World};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! # struct Idle;
//! # impl agr_sim::Protocol for Idle {
//! #     type Packet = ();
//! #     fn on_app_send(
//! #         &mut self,
//! #         _: &mut agr_sim::Ctx<'_, ()>,
//! #         _: agr_sim::NodeId,
//! #         _: agr_sim::FlowTag,
//! #     ) {}
//! #     fn on_receive(
//! #         &mut self,
//! #         _: &mut agr_sim::Ctx<'_, ()>,
//! #         _: &(),
//! #         _: Option<agr_sim::MacAddr>,
//! #     ) {}
//! # }
//! let mut config = SimConfig::default();
//! config.num_nodes = 4;
//! config.duration = SimTime::from_secs(5);
//! let mut world = World::new(config, |_, _, _| Idle);
//! let telemetry = Rc::new(RefCell::new(TelemetryObserver::new()));
//! world.attach_observer(Box::new(Rc::clone(&telemetry)));
//! let _stats = world.run();
//! let snapshot = telemetry.borrow().registry().snapshot();
//! let _frames_on_air = snapshot.counter("sim.frames.total");
//! ```

use crate::world::{FrameObserver, FrameRecord, FrameType};
use agr_telemetry::Registry;
use std::sync::Arc;

/// Metric name for one frame type.
fn frame_counter(frame_type: FrameType) -> &'static str {
    match frame_type {
        FrameType::Rts => "sim.frames.rts",
        FrameType::Cts => "sim.frames.cts",
        FrameType::Ack => "sim.frames.ack",
        FrameType::Data => "sim.frames.data",
    }
}

/// Folds every transmitted frame into a metric registry.
///
/// Counters: `sim.frames.total` plus one `sim.frames.{rts,cts,ack,data}`
/// per frame type, and a `sim.frame_gap_nanos` histogram of inter-frame
/// gaps in sim time (a cheap picture of channel utilisation).
#[derive(Debug, Default)]
pub struct TelemetryObserver {
    registry: Arc<Registry>,
    last_t_nanos: Option<u64>,
}

impl TelemetryObserver {
    /// Creates an observer with an empty registry.
    #[must_use]
    pub fn new() -> TelemetryObserver {
        TelemetryObserver::default()
    }

    /// The registry frames are folded into.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Folds one frame record (also the [`FrameObserver`] entry point).
    pub(crate) fn observe<PKT>(&mut self, frame: &FrameRecord<PKT>) {
        let t = frame.time.as_nanos();
        self.registry.counter("sim.frames.total").inc();
        self.registry.counter(frame_counter(frame.frame_type)).inc();
        if let Some(last) = self.last_t_nanos {
            self.registry
                .histogram("sim.frame_gap_nanos")
                .record(t.saturating_sub(last));
        }
        self.last_t_nanos = Some(t);
    }
}

impl<PKT> FrameObserver<PKT> for TelemetryObserver {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        self.observe(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::NodeId;
    use agr_geom::Point;

    fn frame(t_ms: u64, node: u32, frame_type: FrameType) -> FrameRecord<()> {
        FrameRecord {
            time: SimTime::from_millis(t_ms),
            tx_node: NodeId(node),
            tx_pos: Point::new(1.0, 2.0),
            src_mac: None,
            dst_mac: None,
            frame_type,
            packet: None,
        }
    }

    #[test]
    fn frames_fold_into_counters_and_trace() {
        let mut obs = TelemetryObserver::new();
        obs.observe(&frame(1, 0, FrameType::Data));
        obs.observe(&frame(2, 1, FrameType::Ack));
        obs.observe(&frame(4, 0, FrameType::Data));
        for i in 5..15 {
            obs.observe(&frame(i, 0, FrameType::Rts));
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("sim.frames.total"), Some(13));
        assert_eq!(snap.counter("sim.frames.data"), Some(2));
        assert_eq!(snap.counter("sim.frames.ack"), Some(1));
        assert_eq!(snap.counter("sim.frames.rts"), Some(10));
        // One gap per frame after the first.
        assert_eq!(obs.registry().histogram("sim.frame_gap_nanos").count(), 12);
    }
}
