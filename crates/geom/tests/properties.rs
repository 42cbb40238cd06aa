//! Property-based tests for the geometry substrate.

use agr_geom::{planar, Grid, Point, Rect, Vec2};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-2000.0..2000.0f64, -2000.0..2000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_area_point(area: Rect) -> impl Strategy<Value = Point> {
    (0.0..=1.0f64, 0.0..=1.0f64).prop_map(move |(u, v)| area.point_at(u, v))
}

/// Up to 14 neighbors in the paper's area, keyed by index.
fn arb_neighbors() -> impl Strategy<Value = Vec<(u32, Point)>> {
    proptest::collection::vec(arb_area_point(Rect::with_size(1500.0, 300.0)), 0..15)
        .prop_map(|ps| (0..).zip(ps).collect())
}

proptest! {
    #[test]
    fn distance_symmetric(a in arb_point(), b in arb_point()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    #[test]
    fn distance_sq_consistent(a in arb_point(), b in arb_point()) {
        let d = a.distance(b);
        prop_assert!((d * d - a.distance_sq(b)).abs() < 1e-6 * (1.0 + d * d));
    }

    #[test]
    fn lerp_stays_on_segment(a in arb_point(), b in arb_point(), t in 0.0..=1.0f64) {
        let p = a.lerp(b, t);
        // |ap| + |pb| == |ab| exactly when p is on the segment.
        prop_assert!((a.distance(p) + p.distance(b) - a.distance(b)).abs() < 1e-6);
    }

    #[test]
    fn clamp_result_is_contained(p in arb_point()) {
        let area = Rect::with_size(1500.0, 300.0);
        prop_assert!(area.contains(area.clamp(p)));
    }

    #[test]
    fn clamp_is_identity_inside(p in arb_area_point(Rect::with_size(1500.0, 300.0))) {
        let area = Rect::with_size(1500.0, 300.0);
        prop_assert_eq!(area.clamp(p), p);
    }

    #[test]
    fn point_at_is_contained(u in 0.0..=1.0f64, v in 0.0..=1.0f64) {
        let area = Rect::with_size(1500.0, 300.0);
        prop_assert!(area.contains(area.point_at(u, v)));
    }

    #[test]
    fn grid_cell_of_roundtrips(p in arb_area_point(Rect::with_size(1500.0, 300.0)),
                               cell_size in 50.0..500.0f64) {
        let grid = Grid::new(Rect::with_size(1500.0, 300.0), cell_size);
        let cell = grid.cell_of(p);
        let rect = grid.cell_rect(cell);
        // The point is inside (or on the boundary of) its own cell.
        prop_assert!(rect.contains(p), "point {p} not in cell {cell} rect {rect}");
    }

    #[test]
    fn grid_cells_tile_area(cell_size in 50.0..500.0f64) {
        let area = Rect::with_size(1500.0, 300.0);
        let grid = Grid::new(area, cell_size);
        let total: f64 = grid.iter_cells().map(|c| grid.cell_rect(c).area()).sum();
        prop_assert!((total - area.area()).abs() < 1e-6);
    }

    #[test]
    fn grid_cell_for_key_in_range(key in any::<u64>(), cell_size in 50.0..500.0f64) {
        let grid = Grid::new(Rect::with_size(1500.0, 300.0), cell_size);
        let c = grid.cell_for_key(key);
        prop_assert!(c.col < grid.cols() && c.row < grid.rows());
    }

    #[test]
    fn ccw_angle_in_range(ax in -1.0..1.0f64, ay in -1.0..1.0f64,
                          bx in -1.0..1.0f64, by in -1.0..1.0f64) {
        prop_assume!(ax.abs() + ay.abs() > 1e-6 && bx.abs() + by.abs() > 1e-6);
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        let angle = a.ccw_angle_to(b);
        prop_assert!((0.0..std::f64::consts::TAU + 1e-9).contains(&angle));
    }

    #[test]
    fn right_hand_returns_valid_index(
        here in arb_point(), from in arb_point(),
        cands in proptest::collection::vec(arb_point(), 1..10),
    ) {
        if let Some(i) = planar::right_hand_next(here, from, &cands) {
            prop_assert!(i < cands.len());
        }
    }

    #[test]
    fn greedy_choice_is_closest_progressing(
        me in arb_point(),
        dst in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        match planar::greedy_next(me, dst, neighbors.iter().copied()) {
            Some((_, chosen)) => {
                prop_assert!(chosen.distance_sq(dst) < me.distance_sq(dst));
                for (_, n) in &neighbors {
                    prop_assert!(chosen.distance_sq(dst) <= n.distance_sq(dst) + 1e-9);
                }
            }
            None => {
                // No neighbor makes progress.
                for (_, n) in &neighbors {
                    prop_assert!(n.distance_sq(dst) >= me.distance_sq(dst));
                }
            }
        }
    }

    #[test]
    fn planarisation_yields_subset(
        me in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        let planar = planar::gabriel_neighbors(me, &neighbors);
        prop_assert!(planar.len() <= neighbors.len());
        for p in &planar {
            prop_assert!(neighbors.contains(p));
        }
    }

    #[test]
    fn perimeter_next_hop_is_a_planar_neighbor(
        me in arb_point(),
        prev in arb_point(),
        neighbors in arb_neighbors(),
    ) {
        if let Some(next) = planar::perimeter_next(me, prev, neighbors.iter().copied()) {
            let planar = planar::gabriel_neighbors(me, &neighbors);
            prop_assert!(planar.iter().any(|&(key, _)| key == next));
        }
    }

    #[test]
    fn resume_rule_is_a_strict_distance_test(
        me in arb_point(),
        entry in arb_point(),
        dst in arb_point(),
    ) {
        let resumed = planar::can_resume_greedy(me, entry, dst);
        prop_assert_eq!(resumed, me.distance_sq(dst) < entry.distance_sq(dst));
    }
}
