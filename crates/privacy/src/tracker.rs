//! The pseudonym-linking (tracking) attack.
//!
//! AGFW leaves locations observable — "what a sniffer can observe is
//! that packets are going towards certain locations" (§4) — betting that
//! locations without identities are safe. The classic counter-attack
//! links pseudonymous sightings *spatio-temporally*: two sightings close
//! enough in space and time are probably the same node. This module
//! implements that adversary so the bet can be measured: tracking
//! accuracy is ~1.0 against GPSR (identities in cleartext) and degrades
//! with node density against ANT pseudonyms.

use agr_geom::Point;
use agr_sim::{NodeId, SimTime};

/// One eavesdropped beacon/hello sighting, as
/// [`crate::exposure::Eavesdropper`] collects them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sighting {
    /// Observation time.
    pub(crate) time: SimTime,
    /// Advertised (= actual) position.
    pub(crate) pos: Point,
    /// Ground-truth transmitter, used **only** for scoring the attack —
    /// the linker never reads it.
    pub(crate) truth: NodeId,
}

/// A reconstructed trajectory: indices of sightings the adversary
/// believes belong to one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Track {
    /// Member sightings in time order.
    pub(crate) sightings: Vec<Sighting>,
}

/// Parameters of the linking adversary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkingParams {
    /// Maximum node speed assumed by the adversary (m/s). A sighting can
    /// extend a track if reachable at this speed.
    pub(crate) max_speed: f64,
    /// Tracks not extended for this long are closed.
    pub(crate) max_gap: SimTime,
    /// Base position uncertainty in metres (beacon quantisation, timing).
    pub(crate) slack: f64,
}

impl Default for LinkingParams {
    fn default() -> Self {
        LinkingParams {
            max_speed: 20.0,
            max_gap: SimTime::from_secs(3),
            slack: 5.0,
        }
    }
}

/// Greedy nearest-feasible spatio-temporal linking.
///
/// Sightings are processed in time order; each is appended to the open
/// track whose last sighting is nearest among those reachable within
/// `max_speed · Δt + slack`; unreachable sightings open new tracks.
#[must_use]
pub fn link_tracks(sightings: &[Sighting], params: &LinkingParams) -> Vec<Track> {
    let mut ordered: Vec<Sighting> = sightings.to_vec();
    ordered.sort_by_key(|s| s.time);
    let mut tracks: Vec<Track> = Vec::new();
    for s in ordered {
        let mut best: Option<(usize, f64)> = None;
        for (i, track) in tracks.iter().enumerate() {
            let last = track.sightings.last().expect("tracks are non-empty");
            let dt = s.time.saturating_sub(last.time);
            if dt > params.max_gap {
                continue;
            }
            let reach = params.max_speed * dt.as_secs_f64() + params.slack;
            let dist = last.pos.distance(s.pos);
            if dist <= reach && best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
        match best {
            Some((i, _)) => tracks[i].sightings.push(s),
            None => tracks.push(Track { sightings: vec![s] }),
        }
    }
    tracks
}

/// Tracking accuracy against `target`: of all the target's sightings, the
/// fraction captured by the single best track. 1.0 means the adversary
/// reconstructed the full trajectory; `1/k` means it was scattered over
/// `k` tracks.
#[must_use]
pub fn tracking_accuracy(tracks: &[Track], target: NodeId) -> f64 {
    let total: usize = tracks
        .iter()
        .flat_map(|t| &t.sightings)
        .filter(|s| s.truth == target)
        .count();
    if total == 0 {
        return 0.0;
    }
    let best: usize = tracks
        .iter()
        .map(|t| t.sightings.iter().filter(|s| s.truth == target).count())
        .max()
        .unwrap_or(0);
    best as f64 / total as f64
}

/// Durations of the maximal intervals during which the adversary tracks
/// `target` *continuously* — i.e. consecutive sightings of the target
/// fall into the same reconstructed track.
///
/// The mean of these durations is the classic *time-to-confusion* metric:
/// how long the adversary can follow a victim before pseudonym churn or a
/// crowd forces it to re-acquire. Against identities-in-clear GPSR it is
/// the whole observation window; against ANT pseudonyms it shrinks with
/// density.
#[must_use]
pub(crate) fn confusion_segments(tracks: &[Track], target: NodeId) -> Vec<SimTime> {
    // (time, track index) for every sighting of the target.
    let mut timeline: Vec<(SimTime, usize)> = tracks
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.sightings
                .iter()
                .filter(|s| s.truth == target)
                .map(move |s| (s.time, i))
        })
        .collect();
    timeline.sort_by_key(|&(t, _)| t);
    let mut segments = Vec::new();
    let mut start: Option<(SimTime, usize)> = None;
    let mut last_time = SimTime::ZERO;
    for (time, track) in timeline {
        match start {
            Some((_, cur)) if cur == track => {}
            Some((s, _)) => {
                segments.push(last_time.saturating_sub(s));
                start = Some((time, track));
            }
            None => start = Some((time, track)),
        }
        last_time = time;
    }
    if let Some((s, _)) = start {
        segments.push(last_time.saturating_sub(s));
    }
    segments
}

/// Mean time-to-confusion for `target` (zero when never sighted).
#[must_use]
pub fn mean_time_to_confusion(tracks: &[Track], target: NodeId) -> SimTime {
    let segments = confusion_segments(tracks, target);
    if segments.is_empty() {
        return SimTime::ZERO;
    }
    let sum: u64 = segments.iter().map(|d| d.as_nanos()).sum();
    SimTime::from_nanos(sum / segments.len() as u64)
}

/// Mean tracking accuracy over all nodes appearing in the sightings.
#[must_use]
pub fn mean_tracking_accuracy(tracks: &[Track]) -> f64 {
    let mut nodes: Vec<NodeId> = tracks
        .iter()
        .flat_map(|t| &t.sightings)
        .map(|s| s.truth)
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.is_empty() {
        return 0.0;
    }
    nodes
        .iter()
        .map(|&n| tracking_accuracy(tracks, n))
        .sum::<f64>()
        / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: u64, x: f64, truth: u32) -> Sighting {
        Sighting {
            time: SimTime::from_secs(t),
            pos: Point::new(x, 0.0),
            truth: NodeId(truth),
        }
    }

    #[test]
    fn isolated_walker_is_fully_tracked() {
        // One node beaconing every second while moving at 10 m/s.
        let sightings: Vec<Sighting> = (0..20).map(|t| s(t, t as f64 * 10.0, 0)).collect();
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracking_accuracy(&tracks, NodeId(0)), 1.0);
    }

    #[test]
    fn teleporting_breaks_the_track() {
        let mut sightings: Vec<Sighting> = (0..5).map(|t| s(t, t as f64 * 10.0, 0)).collect();
        sightings.push(s(5, 1_000.0, 0)); // jump far beyond 20 m/s reach
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracking_accuracy(&tracks, NodeId(0)), 5.0 / 6.0);
    }

    #[test]
    fn long_silence_closes_tracks() {
        let sightings = vec![s(0, 0.0, 0), s(60, 1.0, 0)];
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        assert_eq!(tracks.len(), 2, "a 60 s gap must split the track");
    }

    #[test]
    fn two_crossing_walkers_confuse_the_linker() {
        // Nodes walk towards each other and cross: at the crossing the
        // greedy linker may swap them — accuracy stays ≥ 0.5 by
        // construction but purity can drop.
        let mut sightings = Vec::new();
        for t in 0..10u64 {
            sightings.push(s(t, t as f64 * 10.0, 0)); // 0 → 90
            sightings.push(s(t, 90.0 - t as f64 * 10.0, 1)); // 90 → 0
        }
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        let acc = mean_tracking_accuracy(&tracks);
        assert!((0.4..=1.0).contains(&acc));
    }

    #[test]
    fn time_to_confusion_of_perfect_track_spans_observation() {
        let sightings: Vec<Sighting> = (0..20).map(|t| s(t, t as f64 * 10.0, 0)).collect();
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        let segments = confusion_segments(&tracks, NodeId(0));
        assert_eq!(segments, vec![SimTime::from_secs(19)]);
        assert_eq!(
            mean_time_to_confusion(&tracks, NodeId(0)),
            SimTime::from_secs(19)
        );
    }

    #[test]
    fn time_to_confusion_shrinks_when_track_breaks() {
        let mut sightings: Vec<Sighting> = (0..5).map(|t| s(t, t as f64 * 10.0, 0)).collect();
        // Teleport: track breaks, two segments of 4 s each.
        sightings.extend((5..10).map(|t| s(t, 2_000.0 + t as f64 * 10.0, 0)));
        let tracks = link_tracks(&sightings, &LinkingParams::default());
        let segments = confusion_segments(&tracks, NodeId(0));
        assert_eq!(segments.len(), 2);
        assert_eq!(
            mean_time_to_confusion(&tracks, NodeId(0)),
            SimTime::from_secs(4)
        );
    }

    #[test]
    fn time_to_confusion_of_unseen_target_is_zero() {
        let tracks = link_tracks(&[s(0, 0.0, 1)], &LinkingParams::default());
        assert_eq!(mean_time_to_confusion(&tracks, NodeId(9)), SimTime::ZERO);
    }

    #[test]
    fn empty_input() {
        let tracks = link_tracks(&[], &LinkingParams::default());
        assert!(tracks.is_empty());
        assert_eq!(tracking_accuracy(&tracks, NodeId(0)), 0.0);
        assert_eq!(mean_tracking_accuracy(&tracks), 0.0);
    }
}
