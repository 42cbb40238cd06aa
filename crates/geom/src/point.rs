use std::fmt;

/// A position in the plane, in metres.
///
/// `Point` is the fundamental unit of location information in the system:
/// node positions, packet destination locations (`loc_d` in AGFW headers),
/// and hello-beacon coordinates are all `Point`s.
///
/// # Examples
///
/// ```
/// use agr_geom::Point;
///
/// let a = Point::new(0.0, 3.0);
/// let b = Point::new(4.0, 0.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point at `(x, y)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use agr_geom::Point;
    /// let p = Point::new(1.0, 2.0);
    /// assert_eq!((p.x, p.y), (1.0, 2.0));
    /// ```
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// ```
    /// # use agr_geom::Point;
    /// assert_eq!(Point::ORIGIN.distance(Point::new(0.0, 2.0)), 2.0);
    /// ```
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; prefer it for comparisons.
    #[must_use]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: the point a fraction `t` of the way to `other`.
    ///
    /// `t = 0` returns `self`, `t = 1` returns `other`. Values outside
    /// `[0, 1]` extrapolate along the same line. Used by the mobility model
    /// to evaluate a node's position mid-leg.
    ///
    /// ```
    /// # use agr_geom::Point;
    /// let mid = Point::ORIGIN.lerp(Point::new(10.0, 0.0), 0.5);
    /// assert_eq!(mid, Point::new(5.0, 0.0));
    /// ```
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[must_use]
    pub(crate) fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// True if `other` lies within `range` metres (inclusive) of `self`.
    ///
    /// This is the unit-disk radio predicate: with the paper's nominal
    /// 250 m radio range, `a.within_range(b, 250.0)` says whether `a` can
    /// hear `b`.
    #[must_use]
    pub fn within_range(self, other: Point, range: f64) -> bool {
        self.distance_sq(other) <= range * range
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_345() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn distance_sq_avoids_sqrt() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn within_range_is_inclusive() {
        let a = Point::ORIGIN;
        let b = Point::new(250.0, 0.0);
        assert!(a.within_range(b, 250.0));
        assert!(!a.within_range(Point::new(250.0001, 0.0), 250.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(5.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(3.0, 0.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1.25, 2.0).to_string(), "(1.2, 2.0)");
    }
}
