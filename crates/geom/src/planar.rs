//! The geographic forwarding kernel: greedy selection, Gabriel
//! planarisation and the right-hand rule for perimeter routing.
//!
//! GPSR and AGFW make every forwarding decision here. Each protocol hands
//! in its neighbors as `(key, position)` pairs, where the key is whatever
//! it addresses a next hop by — GPSR a node id, AGFW a pseudonym — and the
//! key breaks every tie, so a decision never depends on the order a hash
//! map yields the neighbors. What stays in the protocols is which
//! neighbors they offer and at which positions.
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
fn gabriel_edge<I>(u: Point, v: Point, others: I) -> bool
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

/// Greedy next-hop selection: among `neighbors`, the one closest to `dst`
/// that is *strictly* closer to `dst` than `here`, ties broken on the
/// smaller key.
///
/// Returns `None` when no neighbor makes strict progress: the packet is
/// at a *local maximum*, where greedy forwarding fails.
///
/// # Examples
///
/// ```
/// use agr_geom::{planar, Point};
///
/// let dst = Point::new(100.0, 0.0);
/// let neighbors = [(1, Point::new(10.0, 0.0)), (2, Point::new(50.0, 0.0))];
/// let next = planar::greedy_next(Point::ORIGIN, dst, neighbors);
/// assert_eq!(next, Some((2, Point::new(50.0, 0.0))));
/// ```
#[must_use]
pub fn greedy_next<K, I>(here: Point, dst: Point, neighbors: I) -> Option<(K, Point)>
where
    K: Ord + Copy,
    I: IntoIterator<Item = (K, Point)>,
{
    let my_dist = here.distance_sq(dst);
    neighbors
        .into_iter()
        .map(|(key, pos)| (key, pos, pos.distance_sq(dst)))
        .filter(|&(_, _, dist)| dist < my_dist)
        .min_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        })
        .map(|(key, pos, _)| (key, pos))
}

/// Gabriel-graph planarisation of `here`'s neighbor set: the neighbors
/// whose edge from `here` survives, with every *other* neighbor (matched
/// by key) as a witness. The input order is kept.
///
/// # Examples
///
/// ```
/// use agr_geom::{planar, Point};
///
/// let far = (1, Point::new(100.0, 0.0));
/// // A witness inside the diametral circle of (here, far) removes the
/// // long edge and keeps its own short one...
/// let near = (2, Point::new(50.0, 5.0));
/// assert_eq!(planar::gabriel_neighbors(Point::ORIGIN, &[far, near]), vec![near]);
/// // ...a witness outside keeps both.
/// let aside = (2, Point::new(50.0, 60.0));
/// assert_eq!(planar::gabriel_neighbors(Point::ORIGIN, &[far, aside]), vec![far, aside]);
/// ```
#[must_use]
pub fn gabriel_neighbors<K: Copy + Eq>(here: Point, neighbors: &[(K, Point)]) -> Vec<(K, Point)> {
    neighbors
        .iter()
        .filter(|&&(key, pos)| {
            let witnesses = neighbors.iter().filter(|w| w.0 != key).map(|w| w.1);
            gabriel_edge(here, pos, witnesses)
        })
        .copied()
        .collect()
}

/// One perimeter-mode hop: the right-hand-rule neighbor on the
/// Gabriel-planarised neighbor set, sweeping from the direction of
/// `from` (see [`right_hand_next`]).
///
/// The set is sorted by key first, so a sweep tie goes to the smaller
/// key. Returns `None` when no planar neighbor exists.
#[must_use]
pub fn perimeter_next<K, I>(here: Point, from: Point, neighbors: I) -> Option<K>
where
    K: Ord + Copy,
    I: IntoIterator<Item = (K, Point)>,
{
    let mut neighbors: Vec<(K, Point)> = neighbors.into_iter().collect();
    neighbors.sort_by_key(|&(key, _)| key);
    let planar = gabriel_neighbors(here, &neighbors);
    let positions: Vec<Point> = planar.iter().map(|&(_, pos)| pos).collect();
    right_hand_next(here, from, &positions).map(|i| planar[i].0)
}

/// True if a packet in perimeter mode may return to greedy forwarding at
/// `here`: it is strictly closer to `dst` than `entry`, the point where
/// it entered perimeter mode.
#[must_use]
pub fn can_resume_greedy(here: Point, entry: Point, dst: Point) -> bool {
    here.distance_sq(dst) < entry.distance_sq(dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn greedy_key(here: Point, dst: Point, neighbors: &[(u32, Point)]) -> Option<u32> {
        greedy_next(here, dst, neighbors.iter().copied()).map(|(key, _)| key)
    }

    #[test]
    fn greedy_picks_closest_to_destination() {
        let dst = p(100.0, 0.0);
        let neighbors = [(1, p(10.0, 0.0)), (2, p(50.0, 0.0)), (3, p(30.0, 0.0))];
        assert_eq!(greedy_key(Point::ORIGIN, dst, &neighbors), Some(2));
    }

    #[test]
    fn greedy_requires_strict_progress() {
        // All neighbors are farther from dst than we are: local maximum.
        let dst = p(100.0, 0.0);
        let neighbors = [(1, p(70.0, 0.0)), (2, p(90.0, 30.0))];
        assert_eq!(greedy_key(p(90.0, 0.0), dst, &neighbors), None);
    }

    #[test]
    fn greedy_neighbor_at_equal_distance_is_not_progress() {
        let dst = p(100.0, 0.0);
        assert_eq!(greedy_key(p(50.0, 0.0), dst, &[(1, p(50.0, 0.0))]), None);
    }

    #[test]
    fn greedy_without_neighbors_fails() {
        assert_eq!(greedy_key(Point::ORIGIN, p(1.0, 1.0), &[]), None);
    }

    #[test]
    fn greedy_destination_neighbor_wins() {
        let dst = p(100.0, 0.0);
        let neighbors = [(1, p(99.0, 0.0)), (2, p(100.0, 0.0))];
        assert_eq!(greedy_key(Point::ORIGIN, dst, &neighbors), Some(2));
    }

    #[test]
    fn greedy_tie_goes_to_smaller_key_in_any_order() {
        // Three candidates on one circle around dst, at equal distance.
        let dst = p(100.0, 0.0);
        let tied = [(7, p(90.0, 0.0)), (3, p(110.0, 0.0)), (5, p(100.0, 10.0))];
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let neighbors = order.map(|i| tied[i]);
            assert_eq!(greedy_key(Point::ORIGIN, dst, &neighbors), Some(3));
        }
    }

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
    fn planarisation_removes_witnessed_edges() {
        // Neighbor 2 sits inside the diametral circle of (me, neighbor 1):
        // the GG drops the long edge, keeps the short one.
        let kept = gabriel_neighbors(Point::ORIGIN, &[(1, p(100.0, 0.0)), (2, p(50.0, 5.0))]);
        assert_eq!(kept, vec![(2, p(50.0, 5.0))]);
    }

    #[test]
    fn perimeter_walks_counterclockwise_around_void() {
        // Square void: me at origin, neighbors north and east; coming
        // "from" a point due west, the sweep goes west → south → east and
        // picks the east neighbor first.
        let neighbors = [(1, p(0.0, 100.0)), (2, p(100.0, 0.0))];
        assert_eq!(
            perimeter_next(Point::ORIGIN, p(-100.0, 0.0), neighbors),
            Some(2)
        );
    }

    #[test]
    fn perimeter_without_neighbors_gives_none() {
        let none: [(u32, Point); 0] = [];
        assert_eq!(perimeter_next(Point::ORIGIN, p(1.0, 0.0), none), None);
    }

    #[test]
    fn resume_rule_is_strict() {
        let dst = p(100.0, 0.0);
        let entry = p(50.0, 0.0);
        assert!(can_resume_greedy(p(60.0, 0.0), entry, dst));
        assert!(!can_resume_greedy(p(50.0, 0.0), entry, dst));
        assert!(!can_resume_greedy(p(40.0, 0.0), entry, dst));
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
