use crate::Point;
use std::fmt;

/// An axis-aligned rectangle, used for deployment areas and grid cells.
///
/// The paper's simulations deploy nodes in a 1500 m × 300 m rectangle; the
/// DLM location service divides the deployment area into square cells, each
/// of which is also a `Rect`.
///
/// # Examples
///
/// ```
/// use agr_geom::{Point, Rect};
///
/// let area = Rect::with_size(1500.0, 300.0);
/// assert!(area.contains(Point::new(750.0, 150.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners.
    ///
    /// The corners may be given in any order; they are normalised so that
    /// `min()` is the bottom-left and `max()` the top-right corner.
    #[must_use]
    pub(crate) fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle anchored at the origin with the given size.
    ///
    /// This matches how simulation areas are normally specified
    /// (e.g. the paper's `1500 × 300`).
    #[must_use]
    pub fn with_size(width: f64, height: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(width.abs(), height.abs()))
    }

    /// Bottom-left corner.
    #[must_use]
    pub(crate) fn min(&self) -> Point {
        self.min
    }

    /// Top-right corner.
    #[must_use]
    pub(crate) fn max(&self) -> Point {
        self.max
    }

    /// Width in metres.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in metres.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[must_use]
    pub(crate) fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// True if `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The point at normalised coordinates `(u, v)` within the rectangle.
    ///
    /// `(0, 0)` is the bottom-left corner and `(1, 1)` the top-right.
    /// Random node placement draws `u, v` uniformly from `[0, 1]` and maps
    /// them through this method, which keeps the geometry crate free of any
    /// RNG dependency.
    #[must_use]
    pub fn point_at(&self, u: f64, v: f64) -> Point {
        Point::new(
            self.min.x + self.width() * u,
            self.min.y + self.height() * v,
        )
    }

    /// Clamps `p` to the nearest point inside the rectangle.
    ///
    /// The mobility model uses this to keep waypoints legal after numeric
    /// drift.
    #[must_use]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalise() {
        let r = Rect::new(Point::new(10.0, 20.0), Point::new(-5.0, 5.0));
        assert_eq!(r.min(), Point::new(-5.0, 5.0));
        assert_eq!(r.max(), Point::new(10.0, 20.0));
        assert_eq!(r.width(), 15.0);
        assert_eq!(r.height(), 15.0);
    }

    #[test]
    fn with_size_matches_paper_area() {
        let r = Rect::with_size(1500.0, 300.0);
        assert_eq!(r.area(), 450_000.0);
        assert_eq!(r.center(), Point::new(750.0, 150.0));
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::with_size(10.0, 10.0);
        assert!(r.contains(Point::ORIGIN));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.0001, 5.0)));
    }

    #[test]
    fn point_at_unit_coordinates() {
        let r = Rect::with_size(100.0, 50.0);
        assert_eq!(r.point_at(0.0, 0.0), Point::ORIGIN);
        assert_eq!(r.point_at(1.0, 1.0), Point::new(100.0, 50.0));
        assert_eq!(r.point_at(0.5, 0.5), r.center());
    }

    #[test]
    fn clamp_pulls_outside_points_in() {
        let r = Rect::with_size(10.0, 10.0);
        assert_eq!(r.clamp(Point::new(-1.0, 5.0)), Point::new(0.0, 5.0));
        assert_eq!(r.clamp(Point::new(20.0, 20.0)), Point::new(10.0, 10.0));
        let inside = Point::new(3.0, 4.0);
        assert_eq!(r.clamp(inside), inside);
    }
}
