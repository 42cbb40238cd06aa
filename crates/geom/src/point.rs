use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

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

    /// Vector from `self` to `other`.
    #[must_use]
    pub fn vector_to(self, other: Point) -> Vec2 {
        Vec2::new(other.x - self.x, other.y - self.y)
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

impl Add<Vec2> for Point {
    type Output = Point;

    fn add(self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub<Point> for Point {
    type Output = Vec2;

    fn sub(self, other: Point) -> Vec2 {
        other.vector_to(self)
    }
}

/// A displacement in the plane, in metres.
///
/// Where [`Point`] answers "where", `Vec2` answers "which way and how far".
/// The mobility model represents per-leg velocities as `Vec2`s, and
/// perimeter-mode routing uses `Vec2` angles for its right-hand rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component in metres.
    pub x: f64,
    /// Vertical component in metres.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector `(x, y)`.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[must_use]
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// The vector scaled to unit length, or `None` for (near-)zero vectors.
    #[must_use]
    pub(crate) fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len < 1e-12 {
            None
        } else {
            Some(self / len)
        }
    }

    /// Angle of the vector in radians, in `(-pi, pi]`, measured
    /// counter-clockwise from the positive x-axis.
    #[must_use]
    pub(crate) fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Counter-clockwise angle from `self` to `other`, normalised to
    /// `[0, 2*pi)`.
    ///
    /// This is the primitive behind the right-hand rule in perimeter mode:
    /// the next edge is the one with the smallest counter-clockwise sweep
    /// from the reversed ingress edge.
    #[must_use]
    pub fn ccw_angle_to(self, other: Vec2) -> f64 {
        let mut a = other.angle() - self.angle();
        if a < 0.0 {
            a += std::f64::consts::TAU;
        }
        a
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.1}, {:.1}>", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;

    fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;

    fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, other: Vec2) {
        self.x -= other.x;
        self.y -= other.y;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;

    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;

    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;

    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
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
    fn point_plus_vector() {
        let p = Point::new(1.0, 1.0) + Vec2::new(2.0, 3.0);
        assert_eq!(p, Point::new(3.0, 4.0));
        let v = Point::new(3.0, 4.0) - Point::new(1.0, 1.0);
        assert_eq!(v, Vec2::new(2.0, 3.0));
    }

    #[test]
    fn ccw_angle_quarter_turns() {
        let e1 = Vec2::new(1.0, 0.0);
        let up = Vec2::new(0.0, 1.0);
        let down = Vec2::new(0.0, -1.0);
        let quarter = std::f64::consts::FRAC_PI_2;
        assert!((e1.ccw_angle_to(up) - quarter).abs() < 1e-12);
        assert!((e1.ccw_angle_to(down) - 3.0 * quarter).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1.25, 2.0).to_string(), "(1.2, 2.0)");
        assert_eq!(Vec2::new(1.0, -2.0).to_string(), "<1.0, -2.0>");
    }
}
