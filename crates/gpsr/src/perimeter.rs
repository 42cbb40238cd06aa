//! Perimeter-mode recovery: planarised right-hand-rule face routing.
//!
//! When greedy forwarding reaches a local maximum, GPSR routes *around*
//! the void: the node planarises its neighbor set (Gabriel graph,
//! computable from the 1-hop table alone) and forwards along faces by
//! the right-hand rule, returning to
//! greedy as soon as the packet is closer to the destination than where
//! it entered perimeter mode.
//!
//! This module is pure: given positions it answers "which neighbor next";
//! the protocol layer supplies state. The implementation follows the GPSR
//! paper's structure with one simplification, recorded in `DESIGN.md`: we
//! detect unreachable destinations by re-traversal of the *first edge*
//! taken in perimeter mode rather than by full face-change bookkeeping.

use crate::neighbor::Neighbor;
use agr_geom::{planar, Point};
use agr_sim::NodeId;

/// Filters `neighbors` down to those whose edge from `self_pos` survives
/// Gabriel-graph planarisation, using all other neighbors as witnesses.
#[must_use]
pub fn planar_neighbors(self_pos: Point, neighbors: &[Neighbor]) -> Vec<Neighbor> {
    neighbors
        .iter()
        .filter(|candidate| {
            let witnesses = neighbors
                .iter()
                .filter(|w| w.id != candidate.id)
                .map(|w| w.pos);
            planar::gabriel_edge(self_pos, candidate.pos, witnesses)
        })
        .copied()
        .collect()
}

/// Chooses the perimeter-mode next hop.
///
/// `prev` is the position of the node the packet arrived from (for the
/// first perimeter hop GPSR uses the destination's location, giving the
/// edge counter-clockwise from the line towards the destination).
///
/// Returns `None` when the node has no planar neighbors at all.
#[must_use]
pub fn next_hop(self_pos: Point, prev: Point, neighbors: &[Neighbor]) -> Option<Neighbor> {
    let planar_set = planar_neighbors(self_pos, neighbors);
    let positions: Vec<Point> = planar_set.iter().map(|n| n.pos).collect();
    planar::right_hand_next(self_pos, prev, &positions).map(|i| planar_set[i])
}

/// True if the packet may leave perimeter mode at a node at `self_pos`:
/// it is strictly closer to the destination than the point where the
/// packet entered perimeter mode.
#[must_use]
pub fn can_resume_greedy(self_pos: Point, entry: Point, dst_loc: Point) -> bool {
    self_pos.distance_sq(dst_loc) < entry.distance_sq(dst_loc)
}

/// True if forwarding over `edge` would re-traverse the recorded first
/// perimeter edge (in the same direction) — the destination is
/// unreachable and the packet must be dropped.
#[must_use]
pub(crate) fn is_loop(edge: (NodeId, NodeId), first_edge: Option<(NodeId, NodeId)>) -> bool {
    first_edge == Some(edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agr_sim::SimTime;

    fn n(id: u32, x: f64, y: f64) -> Neighbor {
        Neighbor {
            id: NodeId(id),
            pos: Point::new(x, y),
            heard_at: SimTime::ZERO,
        }
    }

    #[test]
    fn planarisation_removes_witnessed_edges() {
        // Neighbor 2 sits inside the diametral circle of (me, neighbor 1):
        // the GG drops the long edge, keeps the two short ones.
        let me = Point::ORIGIN;
        let far = n(1, 100.0, 0.0);
        let witness = n(2, 50.0, 5.0);
        let kept = planar_neighbors(me, &[far, witness]);
        let ids: Vec<_> = kept.iter().map(|k| k.id).collect();
        assert_eq!(ids, vec![NodeId(2)]);
    }

    #[test]
    fn right_hand_walks_counterclockwise_around_void() {
        // Square void: me at origin, neighbors north and east; packet
        // arrived from the destination direction (west of the void).
        let me = Point::ORIGIN;
        let neighbors = [n(1, 0.0, 100.0), n(2, 100.0, 0.0)];
        // Coming "from" a point due west: right-hand rule sweeps CCW from
        // west → south → east: picks the east neighbor first.
        let got = next_hop(me, Point::new(-100.0, 0.0), &neighbors).unwrap();
        assert_eq!(got.id, NodeId(2));
    }

    #[test]
    fn no_neighbors_gives_none() {
        assert!(next_hop(Point::ORIGIN, Point::new(1.0, 0.0), &[]).is_none());
    }

    #[test]
    fn resume_rule_is_strict() {
        let dst = Point::new(100.0, 0.0);
        let entry = Point::new(50.0, 0.0);
        assert!(can_resume_greedy(Point::new(60.0, 0.0), entry, dst));
        assert!(!can_resume_greedy(Point::new(50.0, 0.0), entry, dst));
        assert!(!can_resume_greedy(Point::new(40.0, 0.0), entry, dst));
    }

    #[test]
    fn loop_detection() {
        let e = (NodeId(1), NodeId(2));
        assert!(is_loop(e, Some(e)));
        assert!(!is_loop(e, Some((NodeId(2), NodeId(1)))));
        assert!(!is_loop(e, None));
    }
}
