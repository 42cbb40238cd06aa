//! The geographic forwarding kernel: greedy next-hop selection.
//!
//! GPSR and AGFW make every forwarding decision here. Each protocol hands
//! in its neighbors as `(key, position)` pairs, where the key is whatever
//! it addresses a next hop by — GPSR a node id, AGFW a pseudonym — and the
//! key breaks every tie, so a decision never depends on the order a hash
//! map yields the neighbors. What stays in the protocols is which
//! neighbors they offer and at which positions.
//!
//! Both protocols are greedy only, as in the paper: perimeter recovery
//! bought under one point of delivery on paired seeds (EXPERIMENTS.md §6).

use crate::Point;

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
}
