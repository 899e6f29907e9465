//! Regular grid over a finite region of the event space.
//!
//! The grid-based clustering framework (Section 4.1 of the paper) applies
//! data clustering heuristics to the *cells of a regular grid* in `Ω`.
//! This module provides the grid itself: mapping events to cells and
//! rasterizing subscription rectangles to the set of cells they overlap.
//!
//! Each axis stores its `bins + 1` cell edges, `e[i] = lo + i·w` with the
//! top edge snapped to `hi`, and cells inherit the half-open convention:
//! the cell with per-dimension index `i` covers `(e[i], e[i+1]]`, so
//! every event inside the grid bounds falls in exactly one cell and
//! adjacent cells never share a point. Locating an event
//! ([`Grid::cell_of`], [`Axis::bin`]), rasterising a rectangle
//! ([`Grid::cells_overlapping`]) and describing a cell
//! ([`Grid::cell_rect`]) all compare against those stored floats and
//! nothing else, so they agree on where a cell ends by construction: an
//! event inside a rectangle always lies in a cell the rectangle was
//! rasterised into. This module is the only code that does float
//! arithmetic on grid coordinates.

use std::fmt;

use crate::interval::Interval;
use crate::point::Point;
use crate::rect::Rect;

/// Identifier of a grid cell: a linearized index in `0..grid.num_cells()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub usize);

impl CellId {
    /// The raw linear index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// Error returned when constructing an invalid [`Grid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// Grid bounds must be bounded (finite) in every dimension.
    UnboundedBounds,
    /// Grid bounds must have positive extent in every dimension.
    EmptyBounds,
    /// Every dimension must have at least one bin.
    ZeroBins,
    /// `bins.len()` must equal the dimension of the bounds.
    DimensionMismatch {
        /// Dimension of the bounds rectangle.
        bounds: usize,
        /// Number of bin counts supplied.
        bins: usize,
    },
    /// The total number of cells overflowed `usize`.
    TooManyCells,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::UnboundedBounds => write!(f, "grid bounds must be finite"),
            GridError::EmptyBounds => write!(f, "grid bounds must be non-empty"),
            GridError::ZeroBins => write!(f, "grid needs at least one bin per dimension"),
            GridError::DimensionMismatch { bounds, bins } => write!(
                f,
                "bounds have {bounds} dimensions but {bins} bin counts were supplied"
            ),
            GridError::TooManyCells => write!(f, "total cell count overflows usize"),
        }
    }
}

impl std::error::Error for GridError {}

/// A regular grid over a finite, axis-aligned region of the event space.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Point, Rect};
///
/// let bounds = Rect::new(vec![
///     Interval::new(0.0, 20.0)?,
///     Interval::new(0.0, 20.0)?,
/// ]);
/// let grid = Grid::new(bounds, vec![10, 10])?;
/// assert_eq!(grid.num_cells(), 100);
/// let cell = grid.cell_of(&Point::new(vec![3.5, 11.0])).unwrap();
/// assert!(grid.cell_rect(cell).contains(&Point::new(vec![3.5, 11.0])));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    bounds: Rect,
    bins: Vec<usize>,
    widths: Vec<f64>,
    /// `edges[d]` holds the `bins[d] + 1` cell edges of dimension `d`:
    /// `lo + i·w`, the last one snapped to `hi`.
    edges: Vec<Vec<f64>>,
    /// `strides[d]` is the linear-index step when the index along
    /// dimension `d` increases by one (row-major, last dim contiguous).
    strides: Vec<usize>,
    num_cells: usize,
}

/// One dimension of a [`Grid`]: its cell edges, cell width and
/// linear-index stride — everything locating a coordinate along it
/// reads. Take it once per dimension ([`Grid::axis`]) and call
/// [`Axis::bin`] per coordinate.
#[derive(Debug, Clone, Copy)]
pub struct Axis<'a> {
    edges: &'a [f64],
    width: f64,
    stride: usize,
}

impl Axis<'_> {
    /// The linear-index step of one cell along this dimension.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The cell index `i` along this dimension with
    /// `e[i] < x <= e[i+1]`, or `None` when `x` is outside `(lo, hi]`
    /// (NaN included).
    ///
    /// `(x − lo) / w` only guesses `i`: the subtraction and the division
    /// round, and near an edge the guess can be one cell off. The stored
    /// edges settle it, so the answer is exact and, the guess being off
    /// by at most one in practice, O(1).
    #[inline]
    pub fn bin(&self, x: f64) -> Option<usize> {
        let e = self.edges;
        let (&lo, &hi) = (e.first()?, e.last()?);
        if !(lo < x && x <= hi) {
            return None;
        }
        let guess = ((x - lo) / self.width).ceil() as usize;
        let mut i = guess.clamp(1, e.len() - 1) - 1;
        // `lo < x <= hi` bounds both walks.
        while x <= e[i] {
            i -= 1;
        }
        while x > e[i + 1] {
            i += 1;
        }
        Some(i)
    }
}

impl Grid {
    /// Creates a grid over `bounds` with `bins[d]` equal-width cells
    /// along dimension `d`.
    ///
    /// # Errors
    ///
    /// See [`GridError`] for each rejected input shape.
    pub fn new(bounds: Rect, bins: Vec<usize>) -> Result<Self, GridError> {
        if bins.len() != bounds.dim() {
            return Err(GridError::DimensionMismatch {
                bounds: bounds.dim(),
                bins: bins.len(),
            });
        }
        if !bounds.is_bounded() {
            return Err(GridError::UnboundedBounds);
        }
        if bounds.is_empty() {
            return Err(GridError::EmptyBounds);
        }
        if bins.contains(&0) {
            return Err(GridError::ZeroBins);
        }
        let mut num_cells: usize = 1;
        for &b in &bins {
            num_cells = num_cells.checked_mul(b).ok_or(GridError::TooManyCells)?;
        }
        let widths: Vec<f64> = bounds
            .intervals()
            .iter()
            .zip(bins.iter())
            .map(|(iv, &b)| iv.length() / b as f64)
            .collect();
        let edges = bounds
            .intervals()
            .iter()
            .zip(bins.iter().zip(&widths))
            .map(|(iv, (&b, &w))| {
                (0..b)
                    .map(|i| iv.lo() + i as f64 * w)
                    .chain([iv.hi()])
                    .collect()
            })
            .collect();
        // Row-major strides, last dimension contiguous.
        let mut strides = vec![1usize; bins.len()];
        for d in (0..bins.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * bins[d + 1];
        }
        Ok(Grid {
            bounds,
            bins,
            widths,
            edges,
            strides,
            num_cells,
        })
    }

    /// Convenience constructor: a cube `(lo, hi]^dim` with `bins` cells
    /// per dimension.
    ///
    /// # Errors
    ///
    /// Same as [`Grid::new`].
    pub fn cube(lo: f64, hi: f64, dim: usize, bins: usize) -> Result<Self, GridError> {
        let iv = Interval::new(lo, hi).map_err(|_| GridError::EmptyBounds)?;
        Grid::new(Rect::new(vec![iv; dim]), vec![bins; dim])
    }

    /// The grid's bounding rectangle.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.bins.len()
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The cell containing event `p`, or `None` if `p` falls outside the
    /// grid bounds (such events are delivered by unicast fallback).
    ///
    /// # Panics
    ///
    /// Panics if `p.dim() != self.dim()`.
    pub fn cell_of(&self, p: &Point) -> Option<CellId> {
        assert_eq!(p.dim(), self.dim(), "dimension mismatch");
        let mut idx = 0usize;
        for (d, &x) in p.coords().iter().enumerate() {
            let axis = self.axis(d);
            idx += axis.bin(x)? * axis.stride;
        }
        Some(CellId(idx))
    }

    /// Dimension `d`'s edges, width and stride, for locating many
    /// coordinates along it.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dim()`.
    pub fn axis(&self, d: usize) -> Axis<'_> {
        Axis {
            edges: &self.edges[d],
            width: self.widths[d],
            stride: self.strides[d],
        }
    }

    /// The per-dimension cell coordinates of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_coords(&self, cell: CellId) -> Vec<usize> {
        assert!(cell.0 < self.num_cells, "cell id out of range");
        let mut rem = cell.0;
        let mut coords = Vec::with_capacity(self.dim());
        for d in 0..self.dim() {
            coords.push(rem / self.strides[d]);
            rem %= self.strides[d];
        }
        coords
    }

    /// The rectangle covered by `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let coords = self.cell_coords(cell);
        let ivs = coords
            .iter()
            .zip(&self.edges)
            .map(|(&i, e)| Interval::new(e[i], e[i + 1]).expect("cell edges ascend"))
            .collect();
        Rect::new(ivs)
    }

    /// Linearizes per-dimension cell coordinates.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range or of the wrong dimension.
    pub fn cell_at(&self, coords: &[usize]) -> CellId {
        assert_eq!(coords.len(), self.dim(), "dimension mismatch");
        let mut idx = 0usize;
        for ((&c, &bins), &stride) in coords.iter().zip(&self.bins).zip(&self.strides) {
            assert!(c < bins, "cell coordinate out of range");
            idx += c * stride;
        }
        CellId(idx)
    }

    /// All cells whose rectangle intersects the (possibly unbounded)
    /// subscription rectangle `r`. The result is sorted by linear index.
    ///
    /// Returns an empty vector when `r` misses the grid entirely.
    ///
    /// # Panics
    ///
    /// Panics if `r.dim() != self.dim()`.
    pub fn cells_overlapping(&self, r: &Rect) -> Vec<CellId> {
        assert_eq!(r.dim(), self.dim(), "dimension mismatch");
        let clipped = match r.clip(&self.bounds) {
            Some(c) => c,
            None => return Vec::new(),
        };
        // Per-dimension index ranges [i_min, i_max] of overlapped cells.
        // Cell i overlaps the clipped (a, b] iff e[i] < b and a < e[i+1];
        // the outer edges always pass (lo <= a < b <= hi), so count the
        // interior edges. `a < b` keeps `i_min <= i_max`.
        let ranges: Vec<(usize, usize)> = clipped
            .intervals()
            .iter()
            .zip(&self.edges)
            .map(|(iv, e)| {
                let interior = &e[1..e.len() - 1];
                (
                    interior.partition_point(|&x| x <= iv.lo()),
                    interior.partition_point(|&x| x < iv.hi()),
                )
            })
            .collect();
        // Cartesian product of the per-dimension ranges.
        let mut out = Vec::new();
        let mut coords: Vec<usize> = ranges.iter().map(|&(a, _)| a).collect();
        loop {
            out.push(self.cell_at(&coords));
            // Odometer increment, last dimension fastest.
            let mut d = self.dim();
            loop {
                if d == 0 {
                    out.sort_unstable();
                    return out;
                }
                d -= 1;
                if coords[d] < ranges[d].1 {
                    coords[d] += 1;
                    break;
                }
                coords[d] = ranges[d].0;
            }
        }
    }

    /// Iterator over every cell id in the grid.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.num_cells).map(CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d() -> Grid {
        Grid::cube(0.0, 20.0, 2, 10).unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Grid::new(Rect::new(vec![Interval::all(); 2]), vec![4, 4]),
            Err(GridError::UnboundedBounds)
        );
        let b = Rect::new(vec![
            Interval::new(0.0, 1.0).unwrap(),
            Interval::new(2.0, 2.0).unwrap(),
        ]);
        assert_eq!(Grid::new(b, vec![2, 2]), Err(GridError::EmptyBounds));
        let b = Rect::new(vec![Interval::new(0.0, 1.0).unwrap()]);
        assert_eq!(Grid::new(b.clone(), vec![0]), Err(GridError::ZeroBins));
        assert_eq!(
            Grid::new(b, vec![1, 1]),
            Err(GridError::DimensionMismatch { bounds: 1, bins: 2 })
        );
    }

    #[test]
    fn cell_of_interior_points() {
        let g = grid_2d();
        // Cell widths are 2.0; point (3.5, 11.0) → coords (1, 5).
        let c = g.cell_of(&Point::new(vec![3.5, 11.0])).unwrap();
        assert_eq!(g.cell_coords(c), vec![1, 5]);
    }

    #[test]
    fn cell_of_boundary_points_half_open() {
        let g = grid_2d();
        // x = 2.0 is the *closed upper* edge of cell 0 along that dim.
        let c = g.cell_of(&Point::new(vec![2.0, 2.0])).unwrap();
        assert_eq!(g.cell_coords(c), vec![0, 0]);
        // The global lower bound is open: (0, y) is outside.
        assert!(g.cell_of(&Point::new(vec![0.0, 5.0])).is_none());
        // The global upper bound is closed.
        let c = g.cell_of(&Point::new(vec![20.0, 20.0])).unwrap();
        assert_eq!(g.cell_coords(c), vec![9, 9]);
        // Just past the upper bound is outside.
        assert!(g.cell_of(&Point::new(vec![20.01, 5.0])).is_none());
    }

    #[test]
    fn every_interior_point_in_exactly_one_cell() {
        let g = grid_2d();
        // A boundary point must land in exactly one cell, and the cell's
        // rectangle must contain it.
        for &x in &[0.1, 2.0, 2.0001, 7.3, 19.999, 20.0] {
            for &y in &[0.5, 4.0, 10.0, 16.7, 20.0] {
                let p = Point::new(vec![x, y]);
                let c = g.cell_of(&p).unwrap();
                assert!(g.cell_rect(c).contains(&p), "({x},{y}) vs {:?}", c);
            }
        }
    }

    #[test]
    fn cell_rect_round_trip() {
        let g = grid_2d();
        for c in g.iter() {
            let r = g.cell_rect(c);
            // Midpoint of the cell maps back to the cell.
            let mid = Point::new(
                r.intervals()
                    .iter()
                    .map(|iv| (iv.lo() + iv.hi()) / 2.0)
                    .collect(),
            );
            assert_eq!(g.cell_of(&mid), Some(c));
        }
    }

    #[test]
    fn cells_overlapping_small_rect() {
        let g = grid_2d();
        // Rect (3, 5] x (11, 12] covers x-cells {1, 2} and y-cell {5}.
        let r = Rect::new(vec![
            Interval::new(3.0, 5.0).unwrap(),
            Interval::new(11.0, 12.0).unwrap(),
        ]);
        let cells = g.cells_overlapping(&r);
        let coords: Vec<Vec<usize>> = cells.iter().map(|&c| g.cell_coords(c)).collect();
        assert_eq!(coords, vec![vec![1, 5], vec![2, 5]]);
    }

    #[test]
    fn cells_overlapping_aligned_rect_excludes_touching() {
        let g = grid_2d();
        // (2, 4] is exactly cell index 1: touching at x=2 must NOT pull
        // in cell 0 because cells are half-open.
        let r = Rect::new(vec![
            Interval::new(2.0, 4.0).unwrap(),
            Interval::new(0.0, 2.0).unwrap(),
        ]);
        let cells = g.cells_overlapping(&r);
        assert_eq!(cells.len(), 1);
        assert_eq!(g.cell_coords(cells[0]), vec![1, 0]);
    }

    #[test]
    fn cells_overlapping_unbounded_subscription() {
        let g = grid_2d();
        let r = Rect::new(vec![Interval::greater_than(15.0), Interval::all()]);
        let cells = g.cells_overlapping(&r);
        // x-cells {7, 8, 9}? (15, 20] overlaps cells covering (14,16],(16,18],(18,20]
        assert_eq!(cells.len(), 3 * 10);
        for &c in &cells {
            assert!(g.cell_coords(c)[0] >= 7);
        }
    }

    #[test]
    fn cells_overlapping_disjoint_rect_is_empty() {
        let g = grid_2d();
        let r = Rect::new(vec![Interval::new(25.0, 30.0).unwrap(), Interval::all()]);
        assert!(g.cells_overlapping(&r).is_empty());
    }

    #[test]
    fn full_cover_counts_all_cells() {
        let g = grid_2d();
        assert_eq!(
            g.cells_overlapping(&Rect::new(vec![Interval::all(); 2]))
                .len(),
            g.num_cells()
        );
    }

    #[test]
    fn strides_linearization() {
        let g = Grid::new(
            Rect::new(vec![
                Interval::new(0.0, 1.0).unwrap(),
                Interval::new(0.0, 1.0).unwrap(),
                Interval::new(0.0, 1.0).unwrap(),
            ]),
            vec![2, 3, 4],
        )
        .unwrap();
        assert_eq!(g.num_cells(), 24);
        let c = g.cell_at(&[1, 2, 3]);
        assert_eq!(c.index(), 12 + 2 * 4 + 3);
        assert_eq!(g.cell_coords(c), vec![1, 2, 3]);
    }
}
