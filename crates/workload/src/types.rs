//! Core workload records: subscriptions, publication events, and the
//! bundle of both that the simulator evaluates.

use geometry::{Point, Rect};
use netsim::NodeId;

/// A subscription: an interest rectangle registered at a network node.
///
/// The paper indexes subscriptions `1..k`; a subscriber may own several
/// rectangles, in which case the same node id appears more than once.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// The network node the subscriber sits on.
    pub node: NodeId,
    /// The interest rectangle in event space.
    pub rect: Rect,
}

/// A publication event: a point in event space originating at a
/// publisher node.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The node the event is published from.
    pub publisher: NodeId,
    /// The event's position in the event space.
    pub point: Point,
}

/// A complete generated workload: the subscription population, the event
/// stream, and the finite event-space bounds the grid framework should
/// discretize.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Finite bounds containing (after clamping) all event coordinates.
    pub bounds: Rect,
    /// Suggested grid resolution per dimension (matching the natural
    /// granularity of the generating model, e.g. one bin per integer
    /// attribute value).
    pub suggested_bins: Vec<usize>,
    /// All subscriptions (index = subscription id).
    pub subscriptions: Vec<Subscription>,
    /// The publication event stream.
    pub events: Vec<Event>,
}

impl Workload {
    /// Number of dimensions of the event space.
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// Indices of subscriptions matching the event point (brute force;
    /// the ground truth that clustering-based matchers approximate):
    /// clears `out` and fills it in increasing order. Per-event loops
    /// reuse one buffer across the stream instead of allocating a fresh
    /// `Vec` per event.
    pub fn matching_into(&self, point: &Point, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.subscriptions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.rect.contains(point))
                .map(|(i, _)| i),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn workload() -> Workload {
        Workload {
            bounds: rect(0.0, 10.0),
            suggested_bins: vec![10],
            subscriptions: vec![
                Subscription {
                    node: NodeId(1),
                    rect: rect(0.0, 5.0),
                },
                Subscription {
                    node: NodeId(2),
                    rect: rect(3.0, 8.0),
                },
                Subscription {
                    node: NodeId(1),
                    rect: rect(7.0, 10.0),
                },
            ],
            events: vec![],
        }
    }

    #[test]
    fn matching_subscriptions_brute_force() {
        let w = workload();
        let mut buf = Vec::new();
        w.matching_into(&Point::new(vec![4.0]), &mut buf);
        assert_eq!(buf, vec![0, 1]);
        w.matching_into(&Point::new(vec![9.0]), &mut buf);
        assert_eq!(buf, vec![2]);
    }

    #[test]
    fn matching_into_reuses_and_clears_the_buffer() {
        let w = workload();
        let mut buf = vec![42, 43];
        w.matching_into(&Point::new(vec![4.0]), &mut buf);
        assert_eq!(buf, vec![0, 1]);
        w.matching_into(&Point::new(vec![-1.0]), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn accessors() {
        let w = workload();
        assert_eq!(w.dim(), 1);
    }
}
