//! Points in the publication event space `Ω ⊆ R^N`.

use std::fmt;
use std::ops::Index;

/// A published event: a point in the `N`-dimensional event space.
///
/// # Examples
///
/// ```
/// use geometry::Point;
///
/// let p = Point::new(vec![1.0, 9.5, 12.0, 3.0]);
/// assert_eq!(p.dim(), 4);
/// assert_eq!(p[1], 9.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN (events must be well-defined values).
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(
            coords.iter().all(|c| !c.is_nan()),
            "event coordinate was NaN"
        );
        Point { coords }
    }

    /// Number of dimensions (attributes).
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Borrow the raw coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Overwrites the coordinates in place, keeping the buffer, so one
    /// point can carry event after event without an allocation each.
    ///
    /// # Panics
    ///
    /// Panics if `coords` has a different dimension or holds a NaN.
    pub fn set_coords(&mut self, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim(), "dimension mismatch");
        // A loop, not `copy_from_slice`: for the few coordinates of an
        // event, a `memcpy` call costs more than the copy.
        for (c, &x) in self.coords.iter_mut().zip(coords) {
            assert!(!x.is_nan(), "event coordinate was NaN");
            *c = x;
        }
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p[2], 3.0);
        let mut q = p.clone();
        q.set_coords(&[4.0, 5.0, 6.0]);
        assert_eq!(q.coords(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn set_coords_rejects_nan() {
        Point::new(vec![0.0]).set_coords(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Point::new(vec![0.0, f64::NAN]);
    }

    #[test]
    fn from_vec_and_display() {
        let p: Point = vec![1.5, -2.0].into();
        assert_eq!(format!("{p}"), "(1.5, -2)");
    }
}
