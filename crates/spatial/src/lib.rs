//! Spatial indexing for event matching: an R-tree over (possibly
//! unbounded) axis-aligned rectangles answering point-stabbing queries —
//! the data structure behind the No-Loss matcher (the paper names the
//! R*-tree and S-tree for this role; see `DESIGN.md` for the
//! substitution notes).
//!
//! # Example
//!
//! ```
//! use geometry::{Interval, Point, Rect};
//! use spatial::RTree;
//!
//! let subs = vec![
//!     (Rect::new(vec![Interval::new(0.0, 10.0)?]), "cheap stocks"),
//!     (Rect::new(vec![Interval::greater_than(9.0)]), "expensive stocks"),
//! ];
//! let tree = RTree::bulk_load(1, subs);
//! let hits = tree.stab(&Point::new(vec![9.5]));
//! assert_eq!(hits.len(), 2);
//! # Ok::<(), geometry::IntervalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rtree;

pub use rtree::RTree;
