//! The real-time matching engine: event → interested subscriptions.
//!
//! Section 4.6 of the paper reduces matching to "searching among
//! aligned rectangles in event space Ω for the rectangles that contain
//! a given point ω", served by a spatial index (the paper names the
//! R*-tree and S-tree). This module wraps the repo's R-tree into a
//! subscription index used by both the simulator's delivery loop and
//! the matchers, replacing the `O(k)` brute-force scan.

use geometry::{Point, Rect};
use spatial::RTree;

/// An index over all subscription rectangles answering "which
/// subscriptions match this event" in sub-linear time.
///
/// # Examples
///
/// ```
/// use geometry::{Interval, Point, Rect};
/// use pubsub_core::SubscriptionIndex;
///
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 10.0)?]),
///     Rect::new(vec![Interval::greater_than(5.0)]),
///     Rect::new(vec![Interval::at_most(2.0)]),
/// ];
/// let index = SubscriptionIndex::build(&subs);
/// assert_eq!(index.matching(&Point::new(vec![7.0])), vec![0, 1]);
/// assert_eq!(index.matching(&Point::new(vec![1.0])), vec![0, 2]);
/// # Ok::<(), geometry::IntervalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubscriptionIndex {
    tree: RTree<usize>,
    len: usize,
}

impl SubscriptionIndex {
    /// Bulk-loads the index from the subscription rectangles
    /// (subscription id = slice position).
    ///
    /// # Panics
    ///
    /// Panics if subscriptions disagree on dimension.
    pub fn build(subscriptions: &[Rect]) -> Self {
        let len = subscriptions.len();
        if len == 0 {
            return SubscriptionIndex {
                tree: RTree::new(1),
                len: 0,
            };
        }
        // lint: allow(no-literal-index): the empty case returned above
        let dim = subscriptions[0].dim();
        let items: Vec<(Rect, usize)> = subscriptions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                assert_eq!(r.dim(), dim, "subscription dimension mismatch");
                (r.clone(), i)
            })
            .collect();
        SubscriptionIndex {
            tree: RTree::bulk_load(dim, items),
            len,
        }
    }

    /// Number of indexed subscriptions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ids of the subscriptions whose rectangle contains the event, in
    /// increasing order.
    pub fn matching(&self, event: &Point) -> Vec<usize> {
        let mut ids = Vec::new();
        self.matching_into(event, &mut ids);
        ids
    }

    /// Allocation-free variant of [`matching`](Self::matching): clears
    /// `out` and fills it with the ids of the subscriptions whose
    /// rectangle contains the event, in increasing order. Per-event
    /// loops reuse one buffer across the whole stream instead of
    /// allocating a fresh `Vec` per event.
    pub fn matching_into(&self, event: &Point, out: &mut Vec<usize>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        self.tree.stab_with(event, |&id| out.push(id));
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;
    use rand::prelude::*;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    #[test]
    fn empty_index() {
        let idx = SubscriptionIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(idx.matching(&Point::new(vec![0.0])).is_empty());
    }

    #[test]
    fn matches_are_sorted_and_exact() {
        let subs = vec![rect1(0.0, 5.0), rect1(3.0, 9.0), rect1(8.0, 12.0)];
        let idx = SubscriptionIndex::build(&subs);
        assert_eq!(idx.matching(&Point::new(vec![4.0])), vec![0, 1]);
        assert_eq!(idx.matching(&Point::new(vec![8.5])), vec![1, 2]);
        assert!(idx.matching(&Point::new(vec![20.0])).is_empty());
    }

    #[test]
    fn matching_into_reuses_and_clears_the_buffer() {
        let subs = vec![rect1(0.0, 5.0), rect1(3.0, 9.0), rect1(8.0, 12.0)];
        let idx = SubscriptionIndex::build(&subs);
        let mut buf = vec![99, 98, 97];
        idx.matching_into(&Point::new(vec![4.0]), &mut buf);
        assert_eq!(buf, vec![0, 1]);
        idx.matching_into(&Point::new(vec![20.0]), &mut buf);
        assert!(buf.is_empty());
        for p in [4.0, 8.5, 20.0, 0.0, 11.9] {
            let p = Point::new(vec![p]);
            idx.matching_into(&p, &mut buf);
            assert_eq!(buf, idx.matching(&p));
        }
    }

    #[test]
    fn agrees_with_brute_force_on_random_4d_subscriptions() {
        let mut rng = StdRng::seed_from_u64(17);
        let subs: Vec<Rect> = (0..300)
            .map(|_| {
                Rect::new(
                    (0..4)
                        .map(|_| {
                            if rng.gen_bool(0.2) {
                                Interval::all()
                            } else {
                                let a = rng.gen_range(0.0..20.0);
                                let b = rng.gen_range(0.0..20.0);
                                Interval::from_unordered(a, b)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let idx = SubscriptionIndex::build(&subs);
        for _ in 0..200 {
            let p = Point::new((0..4).map(|_| rng.gen_range(0.0..20.0)).collect());
            let brute: Vec<usize> = subs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&p))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(idx.matching(&p), brute);
        }
    }
}
