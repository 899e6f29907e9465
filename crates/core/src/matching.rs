//! Event → multicast-group matching for grid-based clusterings
//! (Section 4.6, Figure 5 of the paper).
//!
//! Each published event is located in its grid cell; if the cell belongs
//! to a kept hyper-cell, the event is matched to that hyper-cell's
//! group. The matcher then applies the paper's threshold optimization:
//! if too small a proportion of the group is actually interested, the
//! message is unicast to the interested subscribers instead of
//! multicast to the whole group.

use geometry::Point;

use crate::clustering::Clustering;
use crate::framework::GridFramework;
use crate::membership::BitSet;

/// The delivery decision for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Multicast to the group's full membership (a superset of the
    /// interested subscribers).
    Multicast {
        /// Index of the matched group.
        group: usize,
    },
    /// Deliver by unicast to the interested subscribers only (no group
    /// matched, or the threshold optimization rejected the multicast).
    Unicast,
}

/// A grid-based event matcher bound to a framework and a clustering.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Point, Rect};
/// use pubsub_core::{
///     BitSet, CellProbability, ClusteringAlgorithm, Delivery, GridFramework, GridMatcher,
///     KMeans, KMeansVariant,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 5.0)?]),
///     Rect::new(vec![Interval::new(5.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 2);
/// let matcher = GridMatcher::new(&fw, &clustering);
/// let interested = BitSet::from_members(2, [0]);
/// match matcher.match_event(&Point::new(vec![2.0]), &interested) {
///     Delivery::Multicast { .. } => {}
///     Delivery::Unicast => {}
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GridMatcher<'a> {
    framework: &'a GridFramework,
    clustering: &'a Clustering,
    threshold: f64,
}

impl<'a> GridMatcher<'a> {
    /// Creates a matcher with threshold 0 (always multicast when a
    /// group is matched).
    pub fn new(framework: &'a GridFramework, clustering: &'a Clustering) -> Self {
        GridMatcher {
            framework,
            clustering,
            threshold: 0.0,
        }
    }

    /// Sets the minimum *proportion of group members interested* below
    /// which the matcher falls back to unicast.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a proportion"
        );
        self.threshold = threshold;
        self
    }

    /// Matches one event. `interested` is the exact set of interested
    /// subscriptions (computed by the caller's matching engine).
    ///
    /// # Panics
    ///
    /// Panics if `p.dim()` differs from the grid's, or — once the event
    /// is matched to a non-empty group — if `interested` ranges over a
    /// different universe than the group's membership (an event no
    /// group matches is unicast before the set is looked at).
    pub fn match_event(&self, p: &Point, interested: &BitSet) -> Delivery {
        let group = match self.clustering.group_of_point(self.framework, p) {
            Some(g) => g,
            None => return Delivery::Unicast,
        };
        let members = &self.clustering.groups()[group].members;
        let size = members.count();
        if size == 0 {
            return Delivery::Unicast;
        }
        let hits = members.intersection_count(interested);
        let proportion = hits as f64 / size as f64;
        if proportion >= self.threshold && hits > 0 {
            Delivery::Multicast { group }
        } else {
            Delivery::Unicast
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellProbability;
    use crate::kmeans::{KMeans, KMeansVariant};
    use crate::ClusteringAlgorithm;
    use geometry::{Grid, Interval, Rect};

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn setup() -> (GridFramework, Clustering) {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let subs = vec![rect1(0.0, 5.0), rect1(0.0, 5.0), rect1(5.0, 10.0)];
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, None);
        let c = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 2);
        (fw, c)
    }

    #[test]
    fn matched_event_multicasts() {
        let (fw, c) = setup();
        let m = GridMatcher::new(&fw, &c);
        let interested = BitSet::from_members(3, [0, 1]);
        let d = m.match_event(&Point::new(vec![2.0]), &interested);
        match d {
            Delivery::Multicast { group } => {
                // The matched group contains the interested subscribers.
                assert!(interested.is_subset(&c.groups()[group].members));
            }
            Delivery::Unicast => panic!("expected multicast"),
        }
    }

    #[test]
    fn off_grid_event_unicasts() {
        let (fw, c) = setup();
        let m = GridMatcher::new(&fw, &c);
        let interested = BitSet::new(3);
        assert_eq!(
            m.match_event(&Point::new(vec![100.0]), &interested),
            Delivery::Unicast
        );
    }

    #[test]
    fn nobody_interested_unicasts() {
        let (fw, c) = setup();
        let m = GridMatcher::new(&fw, &c);
        // Event lands in a cell, but the interested set is empty: a
        // multicast would be pure waste.
        let interested = BitSet::new(3);
        assert_eq!(
            m.match_event(&Point::new(vec![2.0]), &interested),
            Delivery::Unicast
        );
    }

    #[test]
    fn threshold_rejects_low_interest_multicasts() {
        let (fw, c) = setup();
        // Only subscriber 0 of a two-member group is interested:
        // proportion 0.5.
        let interested = BitSet::from_members(3, [0]);
        let lenient = GridMatcher::new(&fw, &c).with_threshold(0.4);
        let strict = GridMatcher::new(&fw, &c).with_threshold(0.9);
        let p = Point::new(vec![2.0]);
        assert!(matches!(
            lenient.match_event(&p, &interested),
            Delivery::Multicast { .. }
        ));
        assert_eq!(strict.match_event(&p, &interested), Delivery::Unicast);
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn invalid_threshold_panics() {
        let (fw, c) = setup();
        let _ = GridMatcher::new(&fw, &c).with_threshold(1.5);
    }
}
