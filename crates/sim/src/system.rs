//! A live publish-subscribe system façade: the piece a downstream user
//! actually embeds.
//!
//! [`PubSubSystem`] owns a network, a dynamic subscription population,
//! a clustering (kept up to date with warm-started re-balancing), a
//! subscription index for real-time matching, and a router for
//! delivery. `publish` runs the full dynamic path of the paper:
//! match → pick group or unicast (Figure 5) → deliver → account costs.

use geometry::{Grid, Point, Rect};
use netsim::{NodeId, Router, Topology};
use pubsub_core::{
    BitSet, CellProbability, Delivery, DynamicClustering, DynamicError, GridMatcher, KMeans,
    KMeansVariant, SubscriptionId, SubscriptionIndex,
};

use crate::delivery::{Covers, MulticastMode};

/// The multicast substrate the system delivers over: network-supported
/// (dense-mode) multicast, the paper's assumption.
const MODE: MulticastMode = MulticastMode::NetworkSupported;

/// How a published event was delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryReport {
    /// The interested subscription ids.
    pub interested: Vec<usize>,
    /// The nodes that received the message.
    pub receiver_nodes: Vec<NodeId>,
    /// Whether a multicast group carried the message (and which).
    pub multicast_group: Option<usize>,
    /// Network cost of this delivery.
    pub cost: f64,
}

/// Aggregate delivery statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemStats {
    /// Events published.
    pub events: usize,
    /// Events delivered via a multicast group.
    pub multicast_events: usize,
    /// Events delivered by unicast fallback.
    pub unicast_events: usize,
    /// Total network cost.
    pub total_cost: f64,
}

/// A live content-based pub-sub system over a fixed network.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Point, Rect};
/// use netsim::{Topology, TransitStubParams};
/// use rand::{rngs::StdRng, SeedableRng};
/// use sim::PubSubSystem;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
/// let grid = Grid::cube(0.0, 20.0, 1, 20)?;
/// let mut system = PubSubSystem::new(&topo, grid, 8);
///
/// let node = topo.stub_nodes().next().unwrap();
/// system.subscribe(node, Rect::new(vec![Interval::new(0.0, 10.0)?]));
/// system.refresh();
///
/// let publisher = topo.stub_nodes().last().unwrap();
/// let report = system.publish(publisher, &Point::new(vec![5.0]));
/// assert_eq!(report.receiver_nodes, vec![node]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PubSubSystem<'a> {
    router: Router<'a>,
    dynamic: DynamicClustering,
    /// Node of each subscription slot (tombstones keep their node).
    nodes: Vec<NodeId>,
    /// Rectangles of live subscriptions (`None` = unsubscribed).
    rects: Vec<Option<Rect>>,
    index: SubscriptionIndex,
    /// Per-group state the pricing reads, rebuilt on refresh.
    covers: Covers,
    stats: SystemStats,
}

impl<'a> PubSubSystem<'a> {
    /// Creates a system over `topo`, discretizing the event space with
    /// `grid` and maintaining at most `k` multicast groups (Forgy
    /// K-means, the paper's recommended algorithm).
    pub fn new(topo: &'a Topology, grid: Grid, k: usize) -> Self {
        let probs = CellProbability::uniform(&grid);
        let dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::Forgy), k);
        let router = Router::new(topo.graph());
        let covers = Covers::new(&router, Vec::new(), MODE, false, |_| true);
        PubSubSystem {
            router,
            dynamic,
            nodes: Vec::new(),
            rects: Vec::new(),
            index: SubscriptionIndex::build(&[]),
            covers,
            stats: SystemStats::default(),
        }
    }

    /// Registers a subscription at `node`. Call
    /// [`PubSubSystem::refresh`] to fold pending changes into the
    /// groups and the matching index.
    pub fn subscribe(&mut self, node: NodeId, rect: Rect) -> SubscriptionId {
        let id = self.dynamic.subscribe(rect.clone());
        debug_assert_eq!(id.index(), self.nodes.len());
        self.nodes.push(node);
        self.rects.push(Some(rect));
        id
    }

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::UnknownSubscription`] for unknown ids.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), DynamicError> {
        self.dynamic.unsubscribe(id)?;
        self.rects[id.index()] = None;
        Ok(())
    }

    /// Number of live subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.dynamic.num_subscriptions()
    }

    /// Folds pending subscription changes into the clustering (warm
    /// start) and rebuilds the matching index and per-group node
    /// lists. Returns the number of re-balancing moves.
    pub fn refresh(&mut self) -> usize {
        let moves = self.dynamic.rebalance();
        // Matching index over live rectangles (tombstones become
        // never-matching empty rectangles to keep ids aligned).
        let rects: Vec<Rect> = self
            .rects
            .iter()
            .map(|r| {
                r.clone().unwrap_or_else(|| {
                    Rect::new(
                        (0..self.dynamic.framework().grid().dim())
                            .map(|_| geometry::Interval::new(0.0, 0.0).expect("valid"))
                            .collect(),
                    )
                })
            })
            .collect();
        self.index = SubscriptionIndex::build(&rects);
        self.build_covers();
        moves
    }

    /// Rebuilds the per-group state: each group's member nodes.
    fn build_covers(&mut self) {
        let nodes: Vec<Vec<NodeId>> = self
            .dynamic
            .clustering()
            .groups()
            .iter()
            .map(|g| {
                let mut ns: Vec<NodeId> = g.members.iter().map(|i| self.nodes[i]).collect();
                ns.sort_unstable();
                ns.dedup();
                ns
            })
            .collect();
        self.covers = Covers::new(&self.router, nodes, MODE, false, |_| true);
    }

    /// Publishes an event: matches it, chooses multicast or unicast
    /// per Figure 5 at threshold 0 (multicast whenever the event's cell
    /// has a group), "delivers", and returns the report.
    pub fn publish(&mut self, publisher: NodeId, event: &Point) -> DeliveryReport {
        let interested = self.index.matching(event);
        let interested_set =
            BitSet::from_members(self.rects.len().max(1), interested.iter().copied());
        let mut interested_nodes: Vec<NodeId> = interested.iter().map(|&i| self.nodes[i]).collect();
        interested_nodes.sort_unstable();
        interested_nodes.dedup();

        let matcher = GridMatcher::new(self.dynamic.framework(), self.dynamic.clustering());
        let group = match matcher.match_event(event, &interested_set) {
            Delivery::Multicast { group } => Some(group),
            Delivery::Unicast => None,
        };
        self.router.warm([publisher]);
        let price = self
            .covers
            .price(&self.router, publisher, group, &interested_nodes);
        let cost = price.multicast.unwrap_or(price.unicast);
        let receivers = match group {
            Some(g) => self.covers.members(g).to_vec(),
            None => interested_nodes,
        };
        self.stats.events += 1;
        self.stats.total_cost += cost;
        if group.is_some() {
            self.stats.multicast_events += 1;
        } else {
            self.stats.unicast_events += 1;
        }
        DeliveryReport {
            interested,
            receiver_nodes: receivers,
            multicast_group: group,
            cost,
        }
    }

    /// Aggregate statistics since creation.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;
    use netsim::TransitStubParams;
    use rand::prelude::*;

    fn topo() -> Topology {
        Topology::generate(
            &TransitStubParams::paper_100_nodes(),
            &mut StdRng::seed_from_u64(3),
        )
    }

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    #[test]
    fn subscribe_publish_deliver() {
        let t = topo();
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut sys = PubSubSystem::new(&t, grid, 4);
        let nodes: Vec<NodeId> = t.stub_nodes().collect();
        sys.subscribe(nodes[0], rect1(0.0, 10.0));
        sys.subscribe(nodes[1], rect1(5.0, 15.0));
        sys.refresh();
        let report = sys.publish(nodes[5], &Point::new(vec![7.0]));
        assert_eq!(report.interested, vec![0, 1]);
        // Multicast covers a superset of the interested nodes.
        for n in [nodes[0], nodes[1]] {
            assert!(report.receiver_nodes.contains(&n));
        }
        assert!(report.cost > 0.0);
        assert_eq!(sys.stats().events, 1);
    }

    #[test]
    fn event_nobody_wants_costs_nothing() {
        let t = topo();
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut sys = PubSubSystem::new(&t, grid, 4);
        let nodes: Vec<NodeId> = t.stub_nodes().collect();
        sys.subscribe(nodes[0], rect1(0.0, 5.0));
        sys.refresh();
        let report = sys.publish(nodes[3], &Point::new(vec![15.0]));
        assert!(report.interested.is_empty());
        assert!(report.receiver_nodes.is_empty());
        assert_eq!(report.cost, 0.0);
        assert_eq!(sys.stats().unicast_events, 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let t = topo();
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut sys = PubSubSystem::new(&t, grid, 4);
        let nodes: Vec<NodeId> = t.stub_nodes().collect();
        let id = sys.subscribe(nodes[0], rect1(0.0, 10.0));
        sys.refresh();
        assert_eq!(
            sys.publish(nodes[2], &Point::new(vec![4.0])).interested,
            vec![0]
        );
        sys.unsubscribe(id).unwrap();
        sys.refresh();
        assert!(sys
            .publish(nodes[2], &Point::new(vec![4.0]))
            .interested
            .is_empty());
        assert_eq!(sys.num_subscriptions(), 0);
    }

    #[test]
    fn stats_accumulate_and_split_by_scheme() {
        let t = topo();
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut sys = PubSubSystem::new(&t, grid, 2);
        let nodes: Vec<NodeId> = t.stub_nodes().collect();
        for &node in nodes.iter().take(6) {
            sys.subscribe(node, rect1(0.0, 10.0));
        }
        sys.refresh();
        // In-grid interesting event → multicast; off-interest event →
        // (empty) unicast.
        sys.publish(nodes[9], &Point::new(vec![5.0]));
        sys.publish(nodes[9], &Point::new(vec![19.0]));
        let stats = sys.stats();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.multicast_events, 1);
        assert_eq!(stats.unicast_events, 1);
        assert!(stats.total_cost > 0.0);
    }

    #[test]
    fn publish_cost_equals_the_shared_pass_bit_for_bit() {
        use crate::delivery::Evaluator;
        use workload::{Event, Subscription, Workload};
        let t = topo();
        let nodes: Vec<NodeId> = t.stub_nodes().collect();
        let mut rng = StdRng::seed_from_u64(17);
        let subs: Vec<Subscription> = (0..40)
            .map(|i| {
                let (a, b) = (rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0));
                Subscription {
                    node: nodes[(i * 7) % nodes.len()],
                    rect: Rect::new(vec![Interval::from_unordered(a, b)]),
                }
            })
            .collect();
        let events: Vec<Event> = (0..30)
            .map(|i| Event {
                publisher: nodes[(i * 11 + 3) % nodes.len()],
                point: Point::new(vec![rng.gen_range(0.0..20.0)]),
            })
            .collect();
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut sys = PubSubSystem::new(&t, grid, 4);
        for s in &subs {
            sys.subscribe(s.node, s.rect.clone());
        }
        sys.refresh();
        // The evaluator prices the same events through the shared
        // pass, from group state it builds itself.
        let w = Workload {
            bounds: rect1(0.0, 20.0),
            suggested_bins: vec![20],
            subscriptions: subs,
            events: events.clone(),
        };
        let mut evaluator = Evaluator::new(&t, &w);
        let (fw, clustering) = (sys.dynamic.framework(), sys.dynamic.clustering());
        let nodes = evaluator.member_nodes(clustering.groups().iter().map(|g| &g.members));
        let routes = evaluator.grid_routes(fw, clustering, 0.0);
        let covers = evaluator.covers(nodes, &routes, MODE, false);
        let prices = evaluator
            .price_events(
                &evaluator.router,
                &covers,
                &routes,
                0..events.len(),
                |v: &mut Vec<f64>, _, p| v.push(p.multicast.unwrap_or(p.unicast)),
            )
            .concat();
        for (ev, price) in events.iter().zip(prices) {
            let cost = sys.publish(ev.publisher, &ev.point).cost;
            assert_eq!(cost.to_bits(), price.to_bits(), "{cost} vs {price}");
        }
        let stats = sys.stats();
        assert!(stats.multicast_events > 0 && stats.unicast_events > 0);
    }
}
