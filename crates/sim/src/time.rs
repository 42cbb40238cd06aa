use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time (and durations) in integer nanoseconds.
///
/// Integer time keeps the event queue's ordering exact and runs
/// bit-for-bit reproducible across platforms; at nanosecond resolution a
/// `u64` covers ~584 years of simulated time, comfortably beyond the
/// paper's 900-second runs.
///
/// # Examples
///
/// ```
/// use agr_sim::SimTime;
///
/// let t = SimTime::from_secs(1) + SimTime::from_micros(500);
/// assert_eq!(t.as_nanos(), 1_000_500_000);
/// assert!((t.as_secs_f64() - 1.0005).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond range (~584 years).
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow: microseconds exceed the u64 nanosecond range"),
        }
    }

    /// Creates a time from whole milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond range (~584 years).
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow: milliseconds exceed the u64 nanosecond range"),
        }
    }

    /// Creates a time from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond range (~584 years).
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow: seconds exceed the u64 nanosecond range"),
        }
    }

    /// Creates a time from fractional seconds (rounded to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub(crate) fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// The value in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The value in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The value in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - other`, or zero if `other` is later.
    #[must_use]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Scales a duration by an integer factor.
    ///
    /// # Panics
    ///
    /// Panics if the product overflows the nanosecond range.
    #[must_use]
    pub const fn mul(self, factor: u64) -> SimTime {
        match self.0.checked_mul(factor) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow: scaled duration exceeds the u64 nanosecond range"),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics on underflow (durations are unsigned); use
    /// [`SimTime::saturating_sub`] when the ordering is unknown.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_millis(500);
        assert_eq!((a + b).as_secs_f64(), 1.5);
        assert_eq!((a - b).as_secs_f64(), 0.5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b.mul(4), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn constructors_accept_largest_representable_values() {
        assert_eq!(SimTime::from_micros(u64::MAX / 1_000).as_nanos() % 1_000, 0);
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000_000_000).as_nanos() % 1_000_000_000,
            0
        );
        assert_eq!(
            SimTime::from_nanos(1).mul(u64::MAX),
            SimTime::from_nanos(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn from_micros_overflow_panics() {
        let _ = SimTime::from_micros(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn from_millis_overflow_panics() {
        let _ = SimTime::from_millis(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn from_secs_overflow_panics() {
        let _ = SimTime::from_secs(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn mul_overflow_panics() {
        let _ = SimTime::from_secs(600).mul(u64::MAX);
    }
}
