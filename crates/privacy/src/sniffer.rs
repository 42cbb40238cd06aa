//! Bounded-coverage adversaries.
//!
//! §2's threat 1) is a node that observes whatever "happens to be inside
//! the radio range" — a *local* sniffer, not the global eavesdropper of
//! the worst case. This module filters a full frame trace down to what a
//! field of stationary sniffers actually overhears, so exposure and
//! tracking can be evaluated as a function of adversary coverage: how
//! many sniffers does it take to track a GPSR node? And how little does
//! even full coverage help against AGFW?

use agr_geom::{Point, Rect};
use agr_sim::{FrameObserver, FrameRecord};

/// A field of stationary passive sniffers.
#[derive(Debug, Clone, PartialEq)]
pub struct SnifferField {
    positions: Vec<Point>,
    range: f64,
}

impl SnifferField {
    /// Creates a field from explicit sniffer positions with the given
    /// overhearing `range` in metres.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not strictly positive.
    #[must_use]
    pub(crate) fn new(positions: Vec<Point>, range: f64) -> Self {
        assert!(range > 0.0, "sniffer range must be positive");
        SnifferField { positions, range }
    }

    /// Places sniffers on a regular grid covering `area` with roughly
    /// `count` sensors — the systematic adversary.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn grid(count: usize, area: Rect, range: f64) -> Self {
        assert!(count > 0, "need at least one sniffer");
        let aspect = area.width() / area.height();
        let rows = ((count as f64 / aspect).sqrt().round() as usize).max(1);
        let cols = count.div_ceil(rows);
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                if positions.len() == count {
                    break;
                }
                positions.push(area.point_at(
                    (c as f64 + 0.5) / cols as f64,
                    (r as f64 + 0.5) / rows as f64,
                ));
            }
        }
        SnifferField::new(positions, range)
    }

    /// True if a transmission at `tx_pos` is overheard by any sniffer.
    #[must_use]
    pub(crate) fn hears(&self, tx_pos: Point) -> bool {
        self.positions
            .iter()
            .any(|s| s.within_range(tx_pos, self.range))
    }
}

/// Streams a live frame feed through a [`SnifferField`]: frames the field
/// overhears are forwarded to the wrapped observer, the rest are dropped.
///
/// Wrapping an [`crate::exposure::Eavesdropper`] evaluates a
/// bounded-coverage adversary online, without recording the trace first.
#[derive(Debug)]
pub struct SnifferObserver<O> {
    field: SnifferField,
    heard: u64,
    total: u64,
    inner: O,
}

impl<O> SnifferObserver<O> {
    /// Wraps `inner` behind `field`'s coverage.
    #[must_use]
    pub fn new(field: SnifferField, inner: O) -> Self {
        SnifferObserver {
            field,
            heard: 0,
            total: 0,
            inner,
        }
    }

    /// The wrapped observer.
    #[must_use]
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Fraction of the streamed frames the field overheard.
    #[must_use]
    pub fn coverage_seen(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.heard as f64 / self.total as f64
        }
    }
}

impl<PKT, O: FrameObserver<PKT>> FrameObserver<PKT> for SnifferObserver<O> {
    fn on_frame(&mut self, frame: &FrameRecord<PKT>) {
        self.total += 1;
        if self.field.hears(frame.tx_pos) {
            self.heard += 1;
            self.inner.on_frame(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hears_within_range_only() {
        let field = SnifferField::new(vec![Point::new(0.0, 0.0)], 100.0);
        assert!(field.hears(Point::new(99.0, 0.0)));
        assert!(field.hears(Point::new(100.0, 0.0)));
        assert!(!field.hears(Point::new(101.0, 0.0)));
    }

    #[test]
    fn empty_field_hears_nothing() {
        let field = SnifferField::new(vec![], 100.0);
        assert!(!field.hears(Point::ORIGIN));
    }

    #[test]
    fn grid_covers_area_with_requested_count() {
        let area = Rect::with_size(1500.0, 300.0);
        for count in [1usize, 4, 6, 12, 25] {
            let field = SnifferField::grid(count, area, 250.0);
            assert_eq!(field.positions.len(), count, "count {count}");
            for p in &field.positions {
                assert!(area.contains(*p));
            }
        }
    }

    #[test]
    fn dense_grid_hears_everything_in_area() {
        let area = Rect::with_size(1500.0, 300.0);
        let field = SnifferField::grid(24, area, 250.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0));
            assert!(field.hears(p), "uncovered point {p}");
        }
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_rejected() {
        let _ = SnifferField::new(vec![Point::ORIGIN], 0.0);
    }
}
