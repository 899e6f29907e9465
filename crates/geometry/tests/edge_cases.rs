//! Edge-case coverage for the geometric primitives: degenerate grids,
//! extreme intervals, high dimensions — the inputs a library user will
//! eventually throw at it.

use geometry::{decompose_multirange, Grid, Interval, Point, Rect};

#[test]
fn single_bin_grid_is_one_cell() {
    let g = Grid::cube(0.0, 10.0, 2, 1).unwrap();
    assert_eq!(g.num_cells(), 1);
    let c = g.cell_of(&Point::new(vec![5.0, 5.0])).unwrap();
    assert_eq!(c.index(), 0);
    assert_eq!(
        g.cell_rect(c),
        Rect::new(vec![
            Interval::new(0.0, 10.0).unwrap(),
            Interval::new(0.0, 10.0).unwrap(),
        ])
    );
    // Everything overlapping maps to the single cell.
    assert_eq!(
        g.cells_overlapping(&Rect::new(vec![Interval::all(); 2]))
            .len(),
        1
    );
}

#[test]
fn one_dimensional_grid() {
    let g = Grid::cube(0.0, 1.0, 1, 100).unwrap();
    assert_eq!(g.num_cells(), 100);
    let c = g.cell_of(&Point::new(vec![0.005])).unwrap();
    assert_eq!(g.cell_coords(c), vec![0]);
    let c = g.cell_of(&Point::new(vec![1.0])).unwrap();
    assert_eq!(g.cell_coords(c), vec![99]);
}

#[test]
fn six_dimensional_grid_linearizes_correctly() {
    let g = Grid::cube(0.0, 2.0, 6, 2).unwrap();
    assert_eq!(g.num_cells(), 64);
    // Round-trip every cell through coords.
    for c in g.iter() {
        let coords = g.cell_coords(c);
        assert_eq!(g.cell_at(&coords), c);
    }
}

#[test]
fn tiny_cells_do_not_lose_points() {
    // 1e-6-wide cells: floating-point boundaries must still partition.
    let g = Grid::cube(0.0, 1e-3, 1, 1000).unwrap();
    for i in 0..50 {
        let x = (i as f64 + 0.5) * 1e-6;
        let c = g.cell_of(&Point::new(vec![x])).unwrap();
        assert!(g.cell_rect(c).contains(&Point::new(vec![x])), "x={x}");
    }
}

#[test]
fn interval_extreme_magnitudes() {
    let i = Interval::new(-1e300, 1e300).unwrap();
    assert!(i.contains(0.0));
    assert!(i.is_bounded());
    assert!(i.length().is_finite());
    let hull = i.hull(&Interval::all());
    assert!(!hull.is_bounded());
}

#[test]
fn rect_zero_volume_on_any_empty_dim() {
    let r = Rect::new(vec![
        Interval::new(0.0, 10.0).unwrap(),
        Interval::new(3.0, 3.0).unwrap(),
    ]);
    assert!(r.is_empty());
    assert_eq!(r.volume(), 0.0);
    assert!(!r.contains(&Point::new(vec![5.0, 3.0])));
    // Empty rect intersects nothing.
    assert!(!r.intersects(&Rect::new(vec![Interval::all(); 2])));
}

#[test]
fn decompose_large_products() {
    // 3 × 3 × 3 = 27 rectangles, all distinct.
    let per_dim: Vec<Vec<Interval>> = (0..3)
        .map(|_| {
            vec![
                Interval::new(0.0, 1.0).unwrap(),
                Interval::new(2.0, 3.0).unwrap(),
                Interval::new(4.0, 5.0).unwrap(),
            ]
        })
        .collect();
    let rects = decompose_multirange(&per_dim);
    assert_eq!(rects.len(), 27);
    let mut unique = rects.iter().map(|r| format!("{r}")).collect::<Vec<_>>();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 27);
}

#[test]
fn grid_rejects_pathological_bins() {
    // Overflowing cell counts must error, not wrap.
    let r = Rect::new(vec![
        Interval::new(0.0, 1.0).unwrap(),
        Interval::new(0.0, 1.0).unwrap(),
        Interval::new(0.0, 1.0).unwrap(),
        Interval::new(0.0, 1.0).unwrap(),
    ]);
    let huge = usize::MAX / 2;
    assert!(Grid::new(r, vec![huge, huge, 2, 2]).is_err());
}

#[test]
fn negative_coordinate_domains() {
    let g = Grid::cube(-100.0, -50.0, 2, 10).unwrap();
    let p = Point::new(vec![-75.0, -51.0]);
    let c = g.cell_of(&p).unwrap();
    assert!(g.cell_rect(c).contains(&p));
    assert!(g.cell_of(&Point::new(vec![0.0, -75.0])).is_none());
}

#[test]
fn float_above_an_interior_edge_locates_above_it() {
    // lo = -2 and w = 1: `x − lo` rounds to exactly 1.0 for the float
    // just above the edge -1, so a locate that trusted it would file the
    // point in cell 0, which (-1, -0.25] is not rasterised into.
    let g = Grid::cube(-2.0, 2.0, 1, 4).unwrap();
    let x = f64::next_up(-1.0);
    assert_eq!(x - -2.0, 1.0, "the subtraction must round onto the edge");
    let c = g.cell_of(&Point::new(vec![x])).unwrap();
    assert_eq!(g.cell_coords(c), vec![1]);
    let r = Rect::new(vec![Interval::new(-1.0, -0.25).unwrap()]);
    assert!(r.contains(&Point::new(vec![x])));
    assert_eq!(g.cells_overlapping(&r), vec![c]);
    // The edge itself stays in the cell below.
    let below = g.cell_of(&Point::new(vec![-1.0])).unwrap();
    assert_eq!(g.cell_coords(below), vec![0]);
}

#[test]
fn stock_bst_axis_locates_the_smallest_positive_float_to_cell_1() {
    // The stock workload's `bst` axis: (-1, 3] in four unit bins, each
    // value `v` the predicate (v − 1, v].
    let g = Grid::cube(-1.0, 3.0, 1, 4).unwrap();
    let x = f64::next_up(0.0);
    assert_eq!(x - -1.0, 1.0, "the subtraction must round onto the edge");
    let c = g.cell_of(&Point::new(vec![x])).unwrap();
    assert_eq!(g.cell_coords(c), vec![1]);
    // `bst = 1` is rasterised into its own cell only.
    assert_eq!(
        g.cells_overlapping(&Rect::new(vec![Interval::equals_int(1)])),
        vec![c]
    );
}
