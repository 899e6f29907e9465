//! Axis-aligned rectangles: the subscription primitive.
//!
//! A content-based subscription is the conjunction of per-attribute
//! interval predicates, which is exactly an axis-aligned, half-open
//! rectangle in the event space `Ω` (Section 1 of the paper). A published
//! event matches a subscription iff the event point lies in the rectangle.

use std::fmt;

use crate::interval::Interval;
use crate::point::Point;

/// How two rectangles relate under *set* containment — the shared
/// covering predicate used by subscription pruning and aggregation.
///
/// The classification is over the point sets the rectangles denote, so
/// every empty rectangle (any dimension with `lo >= hi`) is the empty
/// set regardless of which dimension is degenerate or what its bounds
/// are: two empty rectangles are [`Covering::Equal`] even when their
/// interval bounds differ, and an empty rectangle is covered by
/// everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Covering {
    /// The two rectangles denote the same point set.
    Equal,
    /// `self` strictly contains `other`.
    Covers,
    /// `other` strictly contains `self`.
    CoveredBy,
    /// Neither contains the other.
    Incomparable,
}

/// An axis-aligned rectangle in `Ω`: one half-open [`Interval`] per
/// dimension. Dimensions may be unbounded (a `*` predicate).
///
/// # Examples
///
/// ```
/// use geometry::{Interval, Point, Rect};
///
/// // name = 7, 90 < price <= 110, volume > 10000, any 4th attribute
/// let sub = Rect::new(vec![
///     Interval::equals_int(7),
///     Interval::new(90.0, 110.0)?,
///     Interval::greater_than(10_000.0),
///     Interval::all(),
/// ]);
/// assert!(sub.contains(&Point::new(vec![7.0, 100.0, 20_000.0, 3.0])));
/// assert!(!sub.contains(&Point::new(vec![8.0, 100.0, 20_000.0, 3.0])));
/// # Ok::<(), geometry::IntervalError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    intervals: Vec<Interval>,
}

impl Rect {
    /// Creates a rectangle from one interval per dimension.
    pub fn new(intervals: Vec<Interval>) -> Self {
        Rect { intervals }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.intervals.len()
    }

    /// Per-dimension intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The interval along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    pub fn interval(&self, d: usize) -> &Interval {
        &self.intervals[d]
    }

    /// Whether the rectangle is empty (some dimension is empty).
    pub fn is_empty(&self) -> bool {
        self.intervals.iter().any(Interval::is_empty)
    }

    /// Whether every dimension is bounded.
    pub fn is_bounded(&self) -> bool {
        self.intervals.iter().all(Interval::is_bounded)
    }

    /// Whether the event point lies inside the rectangle.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn contains(&self, p: &Point) -> bool {
        assert_eq!(self.dim(), p.dim(), "dimension mismatch");
        self.intervals
            .iter()
            .enumerate()
            .all(|(d, iv)| iv.contains(p[d]))
    }

    /// Whether `other` is entirely inside `self`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        other.is_empty()
            || self
                .intervals
                .iter()
                .zip(other.intervals.iter())
                .all(|(a, b)| a.contains_interval(b))
    }

    /// Classifies the containment relation between `self` and `other`
    /// in one pass over the dimensions (each interval pair is compared
    /// exactly once, in both directions simultaneously — no duplicated
    /// float comparisons, unlike two `contains_rect` calls).
    ///
    /// Empty rectangles are handled as point sets: any rectangle with a
    /// degenerate (zero-width or inverted) dimension is the empty set,
    /// so two empty rectangles are [`Covering::Equal`] and an empty
    /// rectangle is [`Covering::CoveredBy`] any non-empty one.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn classify_covering(&self, other: &Rect) -> Covering {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        match (self.is_empty(), other.is_empty()) {
            (true, true) => return Covering::Equal,
            (true, false) => return Covering::CoveredBy,
            (false, true) => return Covering::Covers,
            (false, false) => {}
        }
        let mut covers = true;
        let mut covered = true;
        for (a, b) in self.intervals.iter().zip(other.intervals.iter()) {
            covers &= a.contains_interval(b);
            covered &= b.contains_interval(a);
            if !covers && !covered {
                return Covering::Incomparable;
            }
        }
        match (covers, covered) {
            (true, true) => Covering::Equal,
            (true, false) => Covering::Covers,
            (false, true) => Covering::CoveredBy,
            (false, false) => Covering::Incomparable,
        }
    }

    /// Whether the two rectangles share at least one point.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn intersects(&self, other: &Rect) -> bool {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.intervals
            .iter()
            .zip(other.intervals.iter())
            .all(|(a, b)| a.intersects(b))
    }

    /// The intersection rectangle, or `None` when disjoint.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let mut ivs = Vec::with_capacity(self.dim());
        for (a, b) in self.intervals.iter().zip(other.intervals.iter()) {
            ivs.push(a.intersection(b)?);
        }
        Some(Rect { intervals: ivs })
    }

    /// The smallest rectangle covering both inputs (bounding hull).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn hull(&self, other: &Rect) -> Rect {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        Rect {
            intervals: self
                .intervals
                .iter()
                .zip(other.intervals.iter())
                .map(|(a, b)| a.hull(b))
                .collect(),
        }
    }

    /// Volume of the rectangle; `+inf` when unbounded, `0` when empty.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(Interval::length).product()
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect2(a: (f64, f64), b: (f64, f64)) -> Rect {
        Rect::new(vec![
            Interval::new(a.0, a.1).unwrap(),
            Interval::new(b.0, b.1).unwrap(),
        ])
    }

    #[test]
    fn contains_point_half_open() {
        let r = rect2((0.0, 10.0), (0.0, 10.0));
        assert!(r.contains(&Point::new(vec![5.0, 10.0])));
        assert!(!r.contains(&Point::new(vec![0.0, 5.0]))); // open left
        assert!(!r.contains(&Point::new(vec![5.0, 10.5])));
    }

    #[test]
    fn all_rect_contains_everything() {
        let r = Rect::new(vec![Interval::all(); 3]);
        assert!(r.contains(&Point::new(vec![-1e300, 0.0, 1e300])));
        assert!(!r.is_bounded());
        assert!(!r.is_empty());
    }

    #[test]
    fn intersection_semantics() {
        let a = rect2((0.0, 5.0), (0.0, 5.0));
        let b = rect2((3.0, 8.0), (4.0, 9.0));
        let c = a.intersection(&b).unwrap();
        assert_eq!(c, rect2((3.0, 5.0), (4.0, 5.0)));
        // Disjoint along dimension 1.
        let d = rect2((3.0, 8.0), (5.0, 9.0));
        assert!(a.intersection(&d).is_none());
        assert!(!a.intersects(&d));
    }

    #[test]
    fn containment() {
        let outer = rect2((0.0, 10.0), (0.0, 10.0));
        let inner = rect2((1.0, 2.0), (3.0, 4.0));
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        // Empty rect contained everywhere.
        let empty = rect2((5.0, 5.0), (0.0, 1.0));
        assert!(empty.is_empty());
        assert!(inner.contains_rect(&empty));
    }

    #[test]
    fn classify_covering_matches_double_containment() {
        let outer = rect2((0.0, 10.0), (0.0, 10.0));
        let inner = rect2((1.0, 2.0), (3.0, 4.0));
        let other = rect2((5.0, 15.0), (3.0, 4.0));
        assert_eq!(outer.classify_covering(&inner), Covering::Covers);
        assert_eq!(inner.classify_covering(&outer), Covering::CoveredBy);
        assert_eq!(outer.classify_covering(&outer.clone()), Covering::Equal);
        assert_eq!(inner.classify_covering(&other), Covering::Incomparable);
        // The classification agrees with contains_rect in both directions.
        for (a, b) in [(&outer, &inner), (&inner, &other), (&outer, &outer)] {
            let c = a.classify_covering(b);
            assert_eq!(
                a.contains_rect(b),
                matches!(c, Covering::Equal | Covering::Covers)
            );
            assert_eq!(
                b.contains_rect(a),
                matches!(c, Covering::Equal | Covering::CoveredBy)
            );
        }
    }

    #[test]
    fn classify_covering_treats_all_empties_as_one_set() {
        // Degenerate zero-width dimensions in *different* positions and
        // with different bounds: all denote the empty set.
        let e1 = rect2((5.0, 5.0), (0.0, 10.0));
        let e2 = rect2((0.0, 10.0), (7.0, 7.0));
        let e3 = rect2((2.0, 2.0), (2.0, 2.0));
        assert_eq!(e1.classify_covering(&e2), Covering::Equal);
        assert_eq!(e2.classify_covering(&e3), Covering::Equal);
        let full = rect2((0.0, 10.0), (0.0, 10.0));
        assert_eq!(e1.classify_covering(&full), Covering::CoveredBy);
        assert_eq!(full.classify_covering(&e1), Covering::Covers);
    }

    #[test]
    fn hull_and_volume() {
        let a = rect2((0.0, 2.0), (0.0, 2.0));
        let b = rect2((4.0, 6.0), (1.0, 3.0));
        let h = a.hull(&b);
        assert_eq!(h, rect2((0.0, 6.0), (0.0, 3.0)));
        assert_eq!(a.volume(), 4.0);
        assert!(Rect::new(vec![Interval::all(); 2]).volume().is_infinite());
        let empty = rect2((1.0, 1.0), (0.0, 9.0));
        assert_eq!(empty.volume(), 0.0);
    }

    #[test]
    fn clip_unbounded_subscription() {
        let sub = Rect::new(vec![Interval::greater_than(5.0), Interval::all()]);
        let bounds = rect2((0.0, 20.0), (0.0, 20.0));
        let clipped = sub.intersection(&bounds).unwrap();
        assert_eq!(clipped, rect2((5.0, 20.0), (0.0, 20.0)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let r = Rect::new(vec![Interval::all(); 2]);
        let _ = r.contains(&Point::new(vec![0.0]));
    }
}
