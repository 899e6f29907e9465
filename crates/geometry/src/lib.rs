//! Geometry of the publication event space `Ω ⊆ R^N`.
//!
//! This crate provides the geometric substrate of the subscription
//! clustering system from *"Clustering Algorithms for Content-Based
//! Publication-Subscription Systems"* (Riabov, Liu, Wolf, Yu, Zhang —
//! ICDCS 2002):
//!
//! * [`Interval`] — half-open `(lo, hi]`, possibly unbounded, the
//!   normal form of every content predicate;
//! * [`Point`] — a published event;
//! * [`Rect`] — an axis-aligned rectangle, the normal form of a
//!   subscription (a conjunction of interval predicates);
//! * [`Grid`] — a regular grid over a finite region of `Ω`, the basis
//!   of the grid-based clustering framework.
//!
//! # Example
//!
//! ```
//! use geometry::{Grid, Interval, Point, Rect};
//!
//! // A stock subscription: name = 7, 90 < price <= 110, volume > 10_000.
//! let sub = Rect::new(vec![
//!     Interval::equals_int(7),
//!     Interval::new(90.0, 110.0)?,
//!     Interval::greater_than(10_000.0),
//! ]);
//! let trade = Point::new(vec![7.0, 101.25, 12_000.0]);
//! assert!(sub.contains(&trade));
//! # Ok::<(), geometry::IntervalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompose;
mod grid;
mod interval;
mod point;
mod rect;

pub use decompose::decompose_multirange;
pub use grid::{Axis, CellId, Grid, GridError};
pub use interval::{Interval, IntervalError};
pub use point::Point;
pub use rect::{Covering, Rect};
