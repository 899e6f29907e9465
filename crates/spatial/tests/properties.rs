//! Property tests: the R-tree agrees with brute force on arbitrary
//! rectangle populations.

use geometry::{Interval, Point, Rect};
use proptest::prelude::*;
use spatial::RTree;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    prop_oneof![
        4 => (0.0..30.0f64, 0.0..30.0f64).prop_map(|(a, b)| Interval::from_unordered(a, b)),
        1 => (0.0..30.0f64).prop_map(Interval::greater_than),
        1 => (0.0..30.0f64).prop_map(Interval::at_most),
        1 => Just(Interval::all()),
    ]
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), 2).prop_map(Rect::new)
}

proptest! {
    #[test]
    fn rtree_stab_matches_brute_force(
        rects in prop::collection::vec(rect_strategy(), 0..40),
        probe in prop::collection::vec(0.0..32.0f64, 2),
    ) {
        let p = Point::new(probe);
        let items: Vec<(Rect, usize)> =
            rects.iter().cloned().zip(0..).collect();
        let tree = RTree::bulk_load(2, items);
        let mut got: Vec<usize> = tree.stab(&p).into_iter().copied().collect();
        got.sort();
        let expect: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.contains(&p))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn incremental_rtree_equals_bulk_loaded(
        rects in prop::collection::vec(rect_strategy(), 0..40),
        probe in prop::collection::vec(0.0..32.0f64, 2),
    ) {
        let p = Point::new(probe);
        let bulk = RTree::bulk_load(2, rects.iter().cloned().zip(0..).collect());
        let mut incr = RTree::new(2);
        for (i, r) in rects.iter().enumerate() {
            incr.insert(r.clone(), i);
        }
        let mut a: Vec<usize> = bulk.stab(&p).into_iter().copied().collect();
        let mut b: Vec<usize> = incr.stab(&p).into_iter().copied().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn query_intersecting_is_symmetric_with_contains(
        rects in prop::collection::vec(rect_strategy(), 1..30),
        q in rect_strategy(),
    ) {
        let tree = RTree::bulk_load(2, rects.iter().cloned().zip(0..).collect());
        let got: Vec<usize> = tree
            .query_intersecting(&q)
            .into_iter()
            .map(|(_, &v)| v)
            .collect();
        for (i, r) in rects.iter().enumerate() {
            prop_assert_eq!(got.contains(&i), r.intersects(&q), "rect {}", i);
        }
    }
}
