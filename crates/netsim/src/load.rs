//! Per-link load accounting: the "different type of communication cost
//! evaluation" the paper's Section 6 (item 4) calls for when messages
//! are large enough that link congestion matters.
//!
//! The base evaluation counts each traversed link once per event
//! (reasonable for ≤ 1 KB messages). For large messages, what matters
//! is how much traffic each link accumulates: a scheme can have low
//! total cost yet concentrate traffic on a few links. [`LoadTracker`]
//! accumulates per-edge traffic (in message-size units) over a stream
//! of deliveries and reports the distribution.

use crate::graph::{EdgeId, Graph};
use crate::shortest_path::ShortestPathTree;

/// Accumulates per-edge traffic over a sequence of deliveries.
///
/// # Examples
///
/// ```
/// use netsim::{Graph, LoadTracker, ShortestPathTree};
///
/// let mut g = Graph::new();
/// let [a, b, c] = [(); 3].map(|_| g.add_node());
/// g.add_edge(a, b, 1.0)?;
/// g.add_edge(b, c, 1.0)?;
/// let spt = ShortestPathTree::compute(&g, a);
/// let mut load = LoadTracker::new(&g);
/// load.record_multicast(&g, &spt, [c], 1.0);
/// assert_eq!(load.max_load(), 1.0);
/// assert_eq!(load.total_traffic(), 2.0); // two links crossed
/// # Ok::<(), netsim::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTracker {
    load: Vec<f64>,
}

impl LoadTracker {
    /// Creates a tracker with zero load on every edge of `g`.
    pub fn new(g: &Graph) -> Self {
        LoadTracker {
            load: vec![0.0; g.num_edges()],
        }
    }

    /// Adds `size` units of traffic to one edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range or `size` is negative/NaN.
    pub fn record(&mut self, edge: EdgeId, size: f64) {
        assert!(size >= 0.0, "message size must be non-negative");
        self.load[edge.0] += size;
    }

    /// Records a unicast delivery: `size` units on every edge of the
    /// source's shortest path to each target (a copy per target).
    pub fn record_unicast(
        &mut self,
        spt: &ShortestPathTree,
        targets: impl IntoIterator<Item = crate::graph::NodeId>,
        size: f64,
    ) {
        for t in targets {
            if let Some(path) = spt.path_edges(t) {
                for e in path {
                    self.record(e, size);
                }
            }
        }
    }

    /// Records a dense-mode multicast delivery: `size` units on each
    /// distinct edge of the pruned tree (one copy per link regardless
    /// of receiver count).
    pub fn record_multicast(
        &mut self,
        g: &Graph,
        spt: &ShortestPathTree,
        targets: impl IntoIterator<Item = crate::graph::NodeId>,
        size: f64,
    ) {
        for e in spt.multicast_tree_edges(g, targets) {
            self.record(e, size);
        }
    }

    /// The maximum per-edge load — the congestion bottleneck.
    pub fn max_load(&self) -> f64 {
        self.load.iter().copied().fold(0.0, f64::max)
    }

    /// Total traffic carried by all edges.
    pub fn total_traffic(&self) -> f64 {
        self.load.iter().sum()
    }

    /// Mean load over edges that carried any traffic (0 when idle).
    pub fn mean_active_load(&self) -> f64 {
        let active: Vec<f64> = self.load.iter().copied().filter(|&l| l > 0.0).collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// The `n` most loaded edges as `(edge, load)`, heaviest first.
    pub fn hotspots(&self, n: usize) -> Vec<(EdgeId, f64)> {
        let mut all: Vec<(EdgeId, f64)> = self
            .load
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0.0)
            .map(|(i, &l)| (EdgeId(i), l))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("load is never NaN"));
        all.truncate(n);
        all
    }

    /// Load-weighted cost: `Σ_e c_e · load_e` — the total
    /// byte-distance product, the natural large-message generalization
    /// of the paper's per-event edge-cost sum.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different edge count than the tracker.
    pub fn weighted_cost(&self, g: &Graph) -> f64 {
        assert_eq!(g.num_edges(), self.load.len(), "graph mismatch");
        self.load
            .iter()
            .zip(g.edges())
            .map(|(l, e)| l * e.cost)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    /// Star: center 0 with leaves 1..=3, unit costs.
    fn star() -> Graph {
        let mut g = Graph::with_nodes(4);
        for i in 1..4 {
            g.add_edge(NodeId(0), NodeId(i), 1.0).unwrap();
        }
        g
    }

    #[test]
    fn unicast_loads_stack_per_copy() {
        let g = star();
        let spt = ShortestPathTree::compute(&g, NodeId(1));
        let mut load = LoadTracker::new(&g);
        // From leaf 1 to leaves 2 and 3: both copies cross edge (0,1).
        load.record_unicast(&spt, [NodeId(2), NodeId(3)], 1.0);
        assert_eq!(load.max_load(), 2.0);
        assert_eq!(load.total_traffic(), 4.0);
    }

    #[test]
    fn multicast_loads_once_per_link() {
        let g = star();
        let spt = ShortestPathTree::compute(&g, NodeId(1));
        let mut load = LoadTracker::new(&g);
        load.record_multicast(&g, &spt, [NodeId(2), NodeId(3)], 1.0);
        // The shared edge (0,1) carries one copy, not two.
        assert_eq!(load.max_load(), 1.0);
        assert_eq!(load.total_traffic(), 3.0);
    }

    #[test]
    fn multicast_bottleneck_below_unicast() {
        let g = star();
        let spt = ShortestPathTree::compute(&g, NodeId(1));
        let mut uni = LoadTracker::new(&g);
        let mut multi = LoadTracker::new(&g);
        for _ in 0..10 {
            uni.record_unicast(&spt, [NodeId(2), NodeId(3)], 1.0);
            multi.record_multicast(&g, &spt, [NodeId(2), NodeId(3)], 1.0);
        }
        assert!(multi.max_load() < uni.max_load());
        assert_eq!(uni.max_load(), 20.0);
        assert_eq!(multi.max_load(), 10.0);
    }

    #[test]
    fn message_size_scales_load() {
        let g = star();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        let mut load = LoadTracker::new(&g);
        load.record_multicast(&g, &spt, [NodeId(1)], 4.0);
        assert_eq!(load.max_load(), 4.0);
        assert_eq!(load.weighted_cost(&g), 4.0);
    }

    #[test]
    fn hotspots_and_means() {
        let g = star();
        let mut load = LoadTracker::new(&g);
        load.record(EdgeId(0), 5.0);
        load.record(EdgeId(1), 2.0);
        let hot = load.hotspots(1);
        assert_eq!(hot, vec![(EdgeId(0), 5.0)]);
        assert_eq!(load.mean_active_load(), 3.5);
        // The unloaded edge 2 is no hotspot.
        assert_eq!(load.hotspots(3), vec![(EdgeId(0), 5.0), (EdgeId(1), 2.0)]);
        let idle = LoadTracker::new(&g);
        assert_eq!(idle.mean_active_load(), 0.0);
        assert!(idle.hotspots(3).is_empty());
    }
}
