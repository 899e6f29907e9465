//! Property-based tests for the geometric primitives.

use geometry::{CellId, Grid, Interval, Point, Rect};
use proptest::prelude::*;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    prop_oneof![
        // Bounded
        (-50.0..50.0f64, -50.0..50.0f64).prop_map(|(a, b)| Interval::from_unordered(a, b)),
        // One-sided
        (-50.0..50.0f64).prop_map(Interval::greater_than),
        (-50.0..50.0f64).prop_map(Interval::at_most),
        // Don't-care
        Just(Interval::all()),
    ]
}

fn rect_strategy(dim: usize) -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), dim).prop_map(Rect::new)
}

fn point_strategy(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-60.0..60.0f64, dim).prop_map(Point::new)
}

proptest! {
    #[test]
    fn interval_intersection_commutes(a in interval_strategy(), b in interval_strategy()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn interval_intersection_is_contained(a in interval_strategy(), b in interval_strategy()) {
        if let Some(c) = a.intersection(&b) {
            prop_assert!(a.contains_interval(&c));
            prop_assert!(b.contains_interval(&c));
        }
    }

    #[test]
    fn interval_hull_contains_both(a in interval_strategy(), b in interval_strategy()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
    }

    #[test]
    fn point_membership_agrees_with_intersection(
        a in interval_strategy(),
        b in interval_strategy(),
        x in -60.0..60.0f64,
    ) {
        // x ∈ a∩b  iff  x ∈ a and x ∈ b
        let both = a.contains(x) && b.contains(x);
        let via_inter = a.intersection(&b).is_some_and(|c| c.contains(x));
        prop_assert_eq!(both, via_inter);
    }

    #[test]
    fn rect_contains_agrees_per_dimension(r in rect_strategy(3), p in point_strategy(3)) {
        let expected = (0..3).all(|d| r.interval(d).contains(p[d]));
        prop_assert_eq!(r.contains(&p), expected);
    }

    #[test]
    fn rect_intersection_membership(
        a in rect_strategy(3),
        b in rect_strategy(3),
        p in point_strategy(3),
    ) {
        let both = a.contains(&p) && b.contains(&p);
        let via_inter = a.intersection(&b).is_some_and(|c| c.contains(&p));
        prop_assert_eq!(both, via_inter);
    }

    #[test]
    fn grid_cell_of_is_a_partition(u in prop::collection::vec(-0.1..1.1f64, 3)) {
        let g = skewed_grid(3);
        let cells: Vec<Rect> = g.iter().map(|c| g.cell_rect(c)).collect();
        // Every in-bounds point falls in exactly one cell, that cell's
        // rectangle contains it, and no other does; an out-of-bounds
        // point falls in none.
        for q in probes(&g, &point_in(&g, &u), &Rect::new(vec![Interval::all(); 3])) {
            let holders: Vec<CellId> = g.iter().filter(|c| cells[c.index()].contains(&q)).collect();
            prop_assert_eq!(g.cell_of(&q).into_iter().collect::<Vec<_>>(), holders, "{:?}", q);
            prop_assert_eq!(g.cell_of(&q).is_some(), g.bounds().contains(&q), "{:?}", q);
        }
    }

    #[test]
    fn grid_rasterization_covers_contained_points(
        r in rect_strategy(2),
        u in prop::collection::vec(-0.1..1.1f64, 2),
    ) {
        let g = skewed_grid(2);
        let p = point_in(&g, &u);
        // If q ∈ r and q is on the grid, then q's cell must be among the
        // cells overlapping r (no under-rasterization).
        for r in edge_variants(&g, &r) {
            let cells = g.cells_overlapping(&r);
            for q in probes(&g, &p, &r) {
                if let (true, Some(c)) = (r.contains(&q), g.cell_of(&q)) {
                    prop_assert!(cells.contains(&c), "cell {:?} of {:?} missing for rect {}", c, q, r);
                }
            }
        }
    }

    #[test]
    fn grid_rasterized_cells_all_intersect(r in rect_strategy(2)) {
        let g = skewed_grid(2);
        // Neither under- nor over-rasterization: the reported cells are
        // exactly those whose rectangle intersects r.
        for r in edge_variants(&g, &r) {
            let intersecting: Vec<CellId> =
                g.iter().filter(|&c| g.cell_rect(c).intersects(&r)).collect();
            prop_assert_eq!(g.cells_overlapping(&r), intersecting, "rect {}", r);
        }
    }
}

/// A grid whose axes start away from 0 and have cell widths that are
/// not powers of two, plus the (-2, 2] axis in four bins, on which
/// `x − lo` rounds onto the edge for the float just above -1, 0 and 1.
fn skewed_grid(dim: usize) -> Grid {
    const AXES: [(f64, f64, usize); 3] = [(-7.3, 11.9, 7), (-2.0, 2.0, 4), (0.1, 1.0, 3)];
    let axes = &AXES[..dim];
    let bounds = axes
        .iter()
        .map(|&(lo, hi, _)| Interval::new(lo, hi).unwrap())
        .collect();
    Grid::new(Rect::new(bounds), axes.iter().map(|a| a.2).collect()).unwrap()
}

/// The point at unit coordinates `u` of `g`'s bounds.
fn point_in(g: &Grid, u: &[f64]) -> Point {
    let b = g.bounds();
    Point::new(
        u.iter()
            .enumerate()
            .map(|(d, &t)| b.interval(d).lo() + t * b.interval(d).length())
            .collect(),
    )
}

/// Each value with the floats either side of it.
fn with_neighbours(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    xs.into_iter()
        .flat_map(|x| [f64::next_down(x), x, f64::next_up(x)])
        .collect()
}

/// Every cell edge of dimension `d`, as `cell_rect` reports it.
fn edges(g: &Grid, d: usize) -> Vec<f64> {
    let mut at = vec![0; g.dim()];
    let mut edges = vec![g.bounds().interval(d).lo()];
    // The last cell sits in the last bin of every dimension.
    let bins = g.cell_coords(g.iter().last().unwrap())[d] + 1;
    for i in 0..bins {
        at[d] = i;
        edges.push(g.cell_rect(g.cell_at(&at)).interval(d).hi());
    }
    edges
}

/// `p`, then `p` moved along one dimension at a time onto every cell
/// edge and every bound of `r`, and one float either side of each.
fn probes(g: &Grid, p: &Point, r: &Rect) -> Vec<Point> {
    let mut out = vec![p.clone()];
    for d in 0..g.dim() {
        let iv = r.interval(d);
        for x in with_neighbours(edges(g, d).into_iter().chain([iv.lo(), iv.hi()])) {
            let mut coords = p.coords().to_vec();
            coords[d] = x;
            out.push(Point::new(coords));
        }
    }
    out
}

/// `r`, then `r` with one bound at a time moved onto every cell edge,
/// and one float either side of each.
fn edge_variants(g: &Grid, r: &Rect) -> Vec<Rect> {
    let mut out = vec![r.clone()];
    for d in 0..g.dim() {
        let iv = r.interval(d);
        for x in with_neighbours(edges(g, d)) {
            for moved in [
                Interval::from_unordered(x, iv.hi()),
                Interval::from_unordered(iv.lo(), x),
            ] {
                let mut ivs = r.intervals().to_vec();
                ivs[d] = moved;
                out.push(Rect::new(ivs));
            }
        }
    }
    out
}
