//! 2-D geometry and grid-partitioning substrate for geographic ad hoc routing.
//!
//! Everything in the reproduction that reasons about *where nodes are* goes
//! through this crate: node positions ([`Point`]), deployment areas
//! ([`Rect`]), the DLM location-service grid ([`Grid`]), and the greedy
//! forwarding kernel GPSR and AGFW both route with ([`planar`]).
//!
//! Distances are in **metres** and the coordinate system is the usual
//! Cartesian plane (x to the right, y up), matching the paper's
//! 1500 m × 300 m deployment area.
//!
//! # Examples
//!
//! ```
//! use agr_geom::{Point, Rect};
//!
//! let area = Rect::with_size(1500.0, 300.0);
//! let a = Point::new(100.0, 100.0);
//! let b = Point::new(400.0, 100.0);
//! assert!(area.contains(a));
//! assert_eq!(a.distance(b), 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
pub mod planar;
mod point;
mod rect;

pub use grid::{CellId, Grid};
pub use point::Point;
pub use rect::Rect;
