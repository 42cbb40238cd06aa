//! `--viz-json` event-stream export: one [`FrameObserver`] that turns an
//! on-air trace into the replayable JSONL stream (`agr_telemetry::viz`
//! schema) loaded by `viz/replay.html`. It reads payloads only through
//! [`Discloses`], so it sees exactly what the privacy eavesdropper sees.
//!
//! Everything here is observation-only: the observers read frame
//! records, draw no randomness, and touch no simulator state, so a run
//! with `--viz-json` produces byte-identical `Stats` to a bare one
//! (pinned by `tests/telemetry_determinism.rs` against the
//! adversary-acceptance goldens).
//!
//! Emitted kinds:
//! * `tx` — every data-class frame, with the transmitter's ground-truth
//!   position and the packet kind as `info`.
//! * `rx` — every MAC-level ACK (proof a unicast was received), at the
//!   acker's position.
//! * `pseudonym_change` — AGFW only: a hello whose pseudonym differs
//!   from the same transmitter's previous hello. This is the on-air view
//!   of §3.1.1 rotation, exactly what a tracking adversary sees.

use crate::runner::{paper_config, ProtocolKind, SweepParams};
use agr_core::agfw::Agfw;
use agr_core::Pseudonym;
use agr_gpsr::{Gpsr, GpsrConfig};
use agr_privacy::disclosure::Discloses;
use agr_sim::{FrameObserver, FrameRecord, FrameType, Protocol, Stats, TelemetryObserver, World};
use agr_telemetry::{Registry, VizEvent, VizEventKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Viz-event collector for any protocol whose packets declare their
/// [`Discloses`], with on-air pseudonym-change detection: a frame whose
/// announced pseudonym differs from the transmitter's previous one yields
/// a `pseudonym_change` event.
#[derive(Debug, Default)]
struct VizObserver {
    events: Vec<VizEvent>,
    last_pseudonym: HashMap<u32, Pseudonym>,
}

impl<PKT: Discloses> FrameObserver<PKT> for VizObserver {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        let t_nanos = frame.time.as_nanos();
        let node = Some(u64::from(frame.tx_node.0));
        let pos = Some((frame.tx_pos.x, frame.tx_pos.y));
        let disclosure = frame.packet.as_deref().map(Discloses::disclosure);
        if let Some(n) = disclosure.and_then(|d| d.pseudonym) {
            match self.last_pseudonym.insert(frame.tx_node.0, n) {
                Some(prev) if prev != n => self.events.push(VizEvent {
                    t_nanos,
                    kind: VizEventKind::PseudonymChange,
                    node,
                    pos,
                    info: n.0.iter().map(|b| format!("{b:02x}")).collect(),
                }),
                _ => {}
            }
        }
        let kind = match frame.frame_type {
            FrameType::Data => VizEventKind::Tx,
            FrameType::Ack => VizEventKind::Rx,
            // RTS/CTS are channel-reservation chatter; replaying them adds
            // volume, not insight.
            FrameType::Rts | FrameType::Cts => return,
        };
        self.events.push(VizEvent {
            t_nanos,
            kind,
            node,
            pos,
            info: disclosure.map_or("mac", |d| d.kind).to_string(),
        });
    }
}

/// Everything an observed run yields beyond its [`Stats`].
#[derive(Debug)]
pub struct ObservedRun {
    /// The run's statistics — byte-identical to an unobserved run.
    pub stats: Stats,
    /// The replayable viz event stream, in transmission order.
    pub events: Vec<VizEvent>,
    /// The telemetry registry the frames were folded into.
    pub registry: Arc<Registry>,
}

impl ObservedRun {
    /// Renders the event stream as JSONL, one event per line.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Runs one sweep point with the telemetry and viz observers attached —
/// the `--viz-json` twin of [`crate::runner::run_point`]. The returned
/// [`ObservedRun::stats`] must equal the unobserved run's stats exactly;
/// `tests/telemetry_determinism.rs` pins that against the goldens.
#[must_use]
pub fn run_point_observed(
    kind: &ProtocolKind,
    nodes: usize,
    seed: u64,
    params: &SweepParams,
) -> ObservedRun {
    let config = paper_config(nodes, seed, params);
    match kind {
        ProtocolKind::GpsrGreedy => run_observed(World::new(config, |_, _, rng| {
            Gpsr::new(GpsrConfig::greedy_only(), rng)
        })),
        ProtocolKind::GpsrPerimeter => run_observed(World::new(config, |_, _, rng| {
            Gpsr::new(GpsrConfig::with_perimeter(), rng)
        })),
        ProtocolKind::Agfw(agfw_config) => {
            let agfw_config = *agfw_config;
            run_observed(World::new(config, move |id, cfg, rng| {
                Agfw::new(id, agfw_config, cfg, rng)
            }))
        }
    }
}

/// Attaches the observers, runs the world, and collects the artifacts.
fn run_observed<P>(mut world: World<P>) -> ObservedRun
where
    P: Protocol,
    P::Packet: Discloses,
{
    let telemetry = Rc::new(RefCell::new(TelemetryObserver::new()));
    let viz = Rc::new(RefCell::new(VizObserver::default()));
    world.attach_observer(Box::new(Rc::clone(&telemetry)));
    world.attach_observer(Box::new(Rc::clone(&viz)));
    let stats = world.run();
    drop(world); // release the observer boxes so the Rcs are unique
    let events = Rc::try_unwrap(viz)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| panic!("viz observer still shared after the run"))
        .events;
    let telemetry = Rc::try_unwrap(telemetry)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| panic!("telemetry observer still shared after the run"));
    ObservedRun {
        stats,
        events,
        registry: Arc::clone(telemetry.registry()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_core::agfw::AgfwConfig;
    use agr_sim::SimTime;
    use agr_telemetry::viz::validate_jsonl_line;

    fn quick_params() -> SweepParams {
        SweepParams {
            duration: SimTime::from_secs(30),
            flows: 5,
            senders: 3,
            seeds: 1,
            ..SweepParams::default()
        }
    }

    #[test]
    fn observed_agfw_run_emits_valid_stream_and_pseudonym_changes() {
        let run = run_point_observed(
            &ProtocolKind::Agfw(AgfwConfig::default()),
            30,
            1,
            &quick_params(),
        );
        assert!(!run.events.is_empty(), "a live run must emit viz events");
        let mut kinds = HashMap::new();
        for e in &run.events {
            *kinds.entry(e.kind).or_insert(0u64) += 1;
            validate_jsonl_line(&e.to_json_line()).expect("every event validates");
        }
        assert!(kinds[&VizEventKind::Tx] > 0);
        assert!(
            kinds.get(&VizEventKind::PseudonymChange).copied() > Some(0),
            "default AGFW rotates every hello; changes must be observed"
        );
        // The telemetry registry saw the same frames the viz stream did.
        let snap = run.registry.snapshot();
        assert!(snap.counter("sim.frames.total").unwrap_or(0) > 0);
    }

    #[test]
    fn observed_gpsr_run_matches_bare_run_exactly() {
        let params = quick_params();
        let kind = ProtocolKind::GpsrGreedy;
        let bare = crate::runner::run_point(&kind, 30, 2, &params);
        let observed = run_point_observed(&kind, 30, 2, &params);
        assert_eq!(bare, observed.stats, "observation must not perturb the run");
        assert!(observed.events.iter().any(|e| e.kind == VizEventKind::Tx));
    }
}
