//! Half-open, possibly unbounded intervals on the real line.
//!
//! The paper assumes (Section 1) that all subscription predicates can be
//! normalized into intervals that are *open on the left and closed on the
//! right*, i.e. `(lo, hi]`, so that adjacent intervals "fit together"
//! without overlap. Unbounded ends are represented with IEEE infinities,
//! which lets a single representation cover all four predicate shapes used
//! by the workload generators:
//!
//! * `(-inf, +inf)` — a "don't care" (`*`) predicate,
//! * `(n, +inf)`    — a left-ended (greater-than) predicate,
//! * `(-inf, n]`    — a right-ended (at-most) predicate,
//! * `(n1, n2]`     — a two-sided interval predicate.

use std::fmt;

/// A half-open interval `(lo, hi]` over `f64`, possibly unbounded on
/// either side.
///
/// A point `x` is contained iff `lo < x && x <= hi`.
///
/// # Examples
///
/// ```
/// use geometry::Interval;
///
/// let i = Interval::new(1.0, 3.0).unwrap();
/// assert!(!i.contains(1.0)); // open on the left
/// assert!(i.contains(3.0));  // closed on the right
/// assert!(Interval::all().contains(f64::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

/// Error returned when constructing an [`Interval`] from invalid bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalError {
    /// `lo` or `hi` was NaN.
    NotANumber,
    /// `lo > hi`, which would denote an empty set; use an explicit
    /// emptiness check instead of constructing empty intervals.
    Inverted,
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::NotANumber => write!(f, "interval bound was NaN"),
            IntervalError::Inverted => write!(f, "interval lower bound exceeds upper bound"),
        }
    }
}

impl std::error::Error for IntervalError {}

impl Interval {
    /// Creates the interval `(lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`IntervalError::NotANumber`] if either bound is NaN and
    /// [`IntervalError::Inverted`] if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, IntervalError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::NotANumber);
        }
        if lo > hi {
            return Err(IntervalError::Inverted);
        }
        Ok(Interval { lo, hi })
    }

    /// Creates `(lo, hi]` from two unordered endpoints, sorting if needed.
    ///
    /// This mirrors the paper's Section 3 generator: "two random numbers
    /// ... are generated, sorted if needed, and assigned to the ends of
    /// the preference interval".
    ///
    /// # Panics
    ///
    /// Panics if either value is NaN.
    pub fn from_unordered(a: f64, b: f64) -> Self {
        assert!(!a.is_nan() && !b.is_nan(), "interval bound was NaN");
        if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        }
    }

    /// The unbounded interval `(-inf, +inf)`: a "don't care" (`*`) predicate.
    pub fn all() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// A left-ended predicate `(lo, +inf)` ("value strictly greater than").
    ///
    /// # Panics
    ///
    /// Panics if `lo` is NaN.
    pub fn greater_than(lo: f64) -> Self {
        assert!(!lo.is_nan(), "interval bound was NaN");
        Interval {
            lo,
            hi: f64::INFINITY,
        }
    }

    /// A right-ended predicate `(-inf, hi]` ("value at most").
    ///
    /// # Panics
    ///
    /// Panics if `hi` is NaN.
    pub fn at_most(hi: f64) -> Self {
        assert!(!hi.is_nan(), "interval bound was NaN");
        Interval {
            lo: f64::NEG_INFINITY,
            hi,
        }
    }

    /// An equality predicate on an integer-valued attribute, encoded as
    /// the half-open interval `(v-1, v]` that contains exactly the
    /// integer `v`.
    ///
    /// The paper linearizes categorical attributes (stock names, subnet
    /// identifiers) onto the integers; an equality test on such an
    /// attribute is exactly a unit-width half-open interval.
    pub fn equals_int(v: i64) -> Self {
        Interval {
            lo: v as f64 - 1.0,
            hi: v as f64,
        }
    }

    /// Lower (open) bound; `-inf` when unbounded below.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper (closed) bound; `+inf` when unbounded above.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether `x` lies in `(lo, hi]`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo < x && x <= self.hi
    }

    /// Whether the interval is degenerate, i.e. contains no point.
    ///
    /// With the half-open convention, `(a, a]` is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Whether both ends are finite.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Length `hi - lo`; `+inf` for unbounded intervals.
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether this interval and `other` share at least one point.
    ///
    /// With half-open intervals, `(0,1]` and `(1,2]` do *not* intersect.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo.max(other.lo) < self.hi.min(other.hi)
    }

    /// The intersection `(max(lo), min(hi)]`, or `None` if disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo < hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// The smallest interval covering both `self` and `other`.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(Interval::new(0.0, 1.0).is_ok());
        assert_eq!(Interval::new(1.0, 0.0), Err(IntervalError::Inverted));
        assert_eq!(Interval::new(f64::NAN, 0.0), Err(IntervalError::NotANumber));
        assert_eq!(Interval::new(0.0, f64::NAN), Err(IntervalError::NotANumber));
    }

    #[test]
    fn half_open_semantics() {
        let i = Interval::new(0.0, 10.0).unwrap();
        assert!(!i.contains(0.0));
        assert!(i.contains(0.0001));
        assert!(i.contains(10.0));
        assert!(!i.contains(10.0001));
    }

    #[test]
    fn from_unordered_sorts() {
        let i = Interval::from_unordered(5.0, 2.0);
        assert_eq!(i.lo(), 2.0);
        assert_eq!(i.hi(), 5.0);
    }

    #[test]
    fn unbounded_shapes() {
        assert!(Interval::all().contains(-1e308));
        assert!(Interval::all().contains(1e308));
        assert!(Interval::greater_than(3.0).contains(4.0));
        assert!(!Interval::greater_than(3.0).contains(3.0));
        assert!(Interval::at_most(3.0).contains(3.0));
        assert!(!Interval::at_most(3.0).contains(3.5));
        assert!(!Interval::all().is_bounded());
        assert!(Interval::new(0.0, 1.0).unwrap().is_bounded());
    }

    #[test]
    fn equals_int_contains_exactly_one_integer() {
        let i = Interval::equals_int(7);
        for v in -2..25 {
            assert_eq!(i.contains(v as f64), v == 7, "v={v}");
        }
    }

    #[test]
    fn empty_interval() {
        let i = Interval::new(2.0, 2.0).unwrap();
        assert!(i.is_empty());
        assert!(!i.contains(2.0));
    }

    #[test]
    fn adjacent_intervals_do_not_intersect() {
        let a = Interval::new(0.0, 1.0).unwrap();
        let b = Interval::new(1.0, 2.0).unwrap();
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn intersection_and_hull() {
        let a = Interval::new(0.0, 5.0).unwrap();
        let b = Interval::new(3.0, 8.0).unwrap();
        let c = a.intersection(&b).unwrap();
        assert_eq!((c.lo(), c.hi()), (3.0, 5.0));
        let h = a.hull(&b);
        assert_eq!((h.lo(), h.hi()), (0.0, 8.0));
    }

    #[test]
    fn contains_interval_including_empty() {
        let outer = Interval::new(0.0, 10.0).unwrap();
        let inner = Interval::new(2.0, 3.0).unwrap();
        let empty = Interval::new(20.0, 20.0).unwrap();
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.contains_interval(&empty));
        assert!(Interval::all().contains_interval(&outer));
    }

    #[test]
    fn clip_to_bounds() {
        let i = Interval::greater_than(5.0);
        let bounds = Interval::new(0.0, 20.0).unwrap();
        let c = i.intersection(&bounds).unwrap();
        assert_eq!((c.lo(), c.hi()), (5.0, 20.0));
        let disjoint = Interval::new(30.0, 40.0).unwrap();
        assert!(disjoint.intersection(&bounds).is_none());
    }

    #[test]
    fn length_of_unbounded_is_infinite() {
        assert!(Interval::all().length().is_infinite());
        assert_eq!(Interval::new(1.0, 4.0).unwrap().length(), 3.0);
    }
}
