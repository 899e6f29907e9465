//! Edge-case coverage for the spatial indexes.

use geometry::{Interval, Point, Rect};
use spatial::RTree;

fn rect1(lo: f64, hi: f64) -> Rect {
    Rect::new(vec![Interval::new(lo, hi).unwrap()])
}

#[test]
fn rtree_all_unbounded_entries() {
    // Every entry is the whole space: heuristics must not NaN out.
    let items: Vec<(Rect, usize)> = (0..30)
        .map(|i| (Rect::new(vec![Interval::all(); 3]), i))
        .collect();
    let tree = RTree::bulk_load(3, items.clone());
    assert_eq!(tree.stab(&Point::new(vec![0.0, 0.0, 0.0])).len(), 30);
    let mut incr = RTree::new(3);
    for (r, v) in items {
        incr.insert(r, v);
    }
    assert_eq!(incr.stab(&Point::new(vec![1e9, -1e9, 0.0])).len(), 30);
}

#[test]
fn rtree_query_on_empty_tree() {
    let tree: RTree<u8> = RTree::new(2);
    assert!(tree
        .query_intersecting(&Rect::new(vec![Interval::all(); 2]))
        .is_empty());
    assert!(tree.stab(&Point::new(vec![0.0, 0.0])).is_empty());
}

#[test]
fn rtree_point_like_rectangles() {
    // Degenerate-width (but non-empty) rectangles.
    let items: Vec<(Rect, usize)> = (0..50)
        .map(|i| {
            let x = i as f64;
            (rect1(x, x + 1e-9), i)
        })
        .collect();
    let tree = RTree::bulk_load(1, items);
    assert_eq!(tree.stab(&Point::new(vec![7.0 + 5e-10])), vec![&7]);
    assert!(tree.stab(&Point::new(vec![7.5])).is_empty());
}
