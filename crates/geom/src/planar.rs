//! Planar-graph predicates and the right-hand rule for perimeter routing.
//!
//! GPSR's perimeter mode (the recovery strategy the paper names as the
//! natural extension of AGFW, §6) routes around voids on a *planarised*
//! subgraph of the radio connectivity graph. The local planarisation
//! used here is the **Gabriel Graph** (GG), which each node can compute
//! from its 1-hop neighbor table alone — what makes it usable in a
//! stateless geographic protocol.

use crate::{Point, Vec2};

/// True if the edge `u – v` survives **Gabriel Graph** planarisation given
/// the candidate witnesses `others`.
///
/// The GG keeps `u – v` iff no witness `w` lies strictly inside the circle
/// whose diameter is `u v`. Equivalently: `|uw|² + |wv|² ≥ |uv|²` for all
/// witnesses `w`.
///
/// `others` should be the union of `u`'s neighbors (excluding `u` and `v`
/// themselves); extra points are harmless since they only make the test
/// more conservative.
///
/// # Examples
///
/// ```
/// use agr_geom::{planar, Point};
///
/// let u = Point::new(0.0, 0.0);
/// let v = Point::new(10.0, 0.0);
/// // A witness in the diametral circle removes the edge...
/// assert!(!planar::gabriel_edge(u, v, [Point::new(5.0, 1.0)]));
/// // ...a witness outside keeps it.
/// assert!(planar::gabriel_edge(u, v, [Point::new(5.0, 6.0)]));
/// ```
pub fn gabriel_edge<I>(u: Point, v: Point, others: I) -> bool
where
    I: IntoIterator<Item = Point>,
{
    let uv_sq = u.distance_sq(v);
    others
        .into_iter()
        .all(|w| u.distance_sq(w) + w.distance_sq(v) >= uv_sq - 1e-9)
}

/// Selects the next hop by the **right-hand rule**.
///
/// Standing at `here` having arrived along the edge `from -> here`, the
/// right-hand rule continues along the first edge encountered when sweeping
/// **counter-clockwise** from the reversed ingress direction
/// (`here -> from`). `candidates` are the positions of `here`'s planar
/// neighbors; the function returns the index of the chosen candidate, or
/// `None` if there are no candidates.
///
/// For the first hop of a perimeter walk there is no ingress edge; GPSR
/// sweeps from the direction towards the (unreachable) destination instead
/// — pass that direction via `from = destination`.
///
/// Candidates exactly collinear with the ingress edge (angle 0) are ordered
/// last rather than first, so the walk does not immediately bounce back
/// along the edge it arrived on unless that is the only option.
#[must_use]
pub fn right_hand_next(here: Point, from: Point, candidates: &[Point]) -> Option<usize> {
    let back = here.vector_to(from);
    let back = back.normalized().unwrap_or(Vec2::new(1.0, 0.0));
    candidates
        .iter()
        .enumerate()
        .filter(|(_, &c)| c.distance_sq(here) > 1e-18)
        .min_by(|(_, &a), (_, &b)| {
            let ka = sweep_key(back, here.vector_to(a));
            let kb = sweep_key(back, here.vector_to(b));
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

/// CCW sweep angle from `back`, with angle ≈ 0 (straight back along the
/// ingress edge) wrapped around to 2π so it sorts last.
fn sweep_key(back: Vec2, to_candidate: Vec2) -> f64 {
    let a = back.ccw_angle_to(to_candidate);
    if a < 1e-9 {
        std::f64::consts::TAU
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gabriel_keeps_edge_with_no_witnesses() {
        assert!(gabriel_edge(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            std::iter::empty()
        ));
    }

    #[test]
    fn gabriel_witness_on_circle_keeps_edge() {
        // w at distance |uv|/2 from the midpoint, on the circle boundary.
        let u = Point::new(0.0, 0.0);
        let v = Point::new(10.0, 0.0);
        let w = Point::new(5.0, 5.0);
        assert!(gabriel_edge(u, v, [w]));
    }

    #[test]
    fn right_hand_picks_first_ccw_neighbor() {
        // Arrived from the west; neighbors to the north, east, south.
        // Sweeping CCW from "back towards the west" hits south first.
        let here = Point::ORIGIN;
        let from = Point::new(-1.0, 0.0);
        let candidates = [
            Point::new(0.0, 1.0),  // north: ccw angle 3π/2 from back
            Point::new(1.0, 0.0),  // east: π
            Point::new(0.0, -1.0), // south: π/2
        ];
        assert_eq!(right_hand_next(here, from, &candidates), Some(2));
    }

    #[test]
    fn right_hand_avoids_bouncing_back() {
        // Only two neighbors: the one we came from and one other. The rule
        // must pick the other, not return along the ingress edge.
        let here = Point::ORIGIN;
        let from = Point::new(-1.0, 0.0);
        let candidates = [from, Point::new(0.0, 1.0)];
        assert_eq!(right_hand_next(here, from, &candidates), Some(1));
    }

    #[test]
    fn right_hand_bounces_back_when_only_option() {
        let here = Point::ORIGIN;
        let from = Point::new(-1.0, 0.0);
        let candidates = [from];
        assert_eq!(right_hand_next(here, from, &candidates), Some(0));
    }

    #[test]
    fn right_hand_empty_candidates() {
        assert_eq!(
            right_hand_next(Point::ORIGIN, Point::new(1.0, 0.0), &[]),
            None
        );
    }
}
