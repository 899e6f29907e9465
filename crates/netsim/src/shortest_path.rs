//! Dijkstra shortest paths and shortest-path trees.
//!
//! Dense-mode network-supported multicast (Section 5.1 of the paper)
//! routes along "a shortest path tree rooted at [the] publisher"; unicast
//! cost is the sum of shortest-path distances to each receiver. Both are
//! derived from a single Dijkstra run captured in [`ShortestPathTree`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, Graph, NodeId};

/// A min-heap entry; `BinaryHeap` is a max-heap so ordering is reversed.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; distances are never NaN.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distance is never NaN")
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The result of a Dijkstra run from a single source: distances plus the
/// parent pointers that encode the shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    /// `dist[n]` — shortest-path distance from the source; `+inf` if
    /// unreachable.
    dist: Vec<f64>,
    /// `parent[n]` — the edge by which `n` is reached in the tree.
    parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source` over non-negative edge costs.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range for `g`.
    pub fn compute(g: &Graph, source: NodeId) -> Self {
        assert!(source.0 < g.num_nodes(), "source out of range");
        let n = g.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.0] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if done[u.0] {
                continue;
            }
            done[u.0] = true;
            for &(v, e) in g.neighbors(u) {
                let nd = d + g.edge(e).cost;
                if nd < dist[v.0] {
                    dist[v.0] = nd;
                    parent[v.0] = Some((u, e));
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        ShortestPathTree {
            source,
            dist,
            parent,
        }
    }

    /// The tree's root.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest-path distance from the source to `n` (`+inf` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn distance(&self, n: NodeId) -> f64 {
        self.dist[n.0]
    }

    /// Whether `n` is reachable from the source.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.dist[n.0].is_finite()
    }

    /// The tree edges on the path from the source to `n`, in root-to-leaf
    /// order; empty for the source itself.
    ///
    /// Returns `None` when `n` is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn path_edges(&self, n: NodeId) -> Option<Vec<EdgeId>> {
        if !self.is_reachable(n) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = n;
        while let Some((p, e)) = self.parent[cur.0] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }

    /// The cost of the union of shortest paths from the source to every
    /// node in `targets` — the dense-mode multicast tree cost (each tree
    /// edge is traversed once regardless of how many receivers share it).
    /// Unreachable targets are ignored.
    pub fn multicast_tree_cost(&self, g: &Graph, targets: impl IntoIterator<Item = NodeId>) -> f64 {
        let mut edge_seen = vec![false; g.num_edges()];
        let mut total = 0.0;
        for t in targets {
            let mut cur = t;
            if !self.is_reachable(cur) {
                continue;
            }
            while let Some((p, e)) = self.parent[cur.0] {
                if edge_seen[e.0] {
                    // The rest of the path to the root is already counted.
                    break;
                }
                edge_seen[e.0] = true;
                total += g.edge(e).cost;
                cur = p;
            }
        }
        total
    }

    /// The distinct edges of the pruned tree reaching `targets` — the
    /// links a dense-mode multicast actually crosses (used by the
    /// load-accounting model). Unreachable targets are ignored.
    pub fn multicast_tree_edges(
        &self,
        g: &Graph,
        targets: impl IntoIterator<Item = NodeId>,
    ) -> Vec<EdgeId> {
        let mut seen = vec![false; g.num_edges()];
        let mut edges = Vec::new();
        for t in targets {
            if !self.is_reachable(t) {
                continue;
            }
            let mut cur = t;
            while let Some((p, e)) = self.parent[cur.0] {
                if seen[e.0] {
                    break;
                }
                seen[e.0] = true;
                edges.push(e);
                cur = p;
            }
        }
        edges
    }

    /// Sum of shortest-path distances from the source to each target —
    /// the unicast delivery cost (each receiver gets its own copy along
    /// its own path). Unreachable targets are ignored.
    pub fn unicast_cost(&self, targets: impl IntoIterator<Item = NodeId>) -> f64 {
        targets
            .into_iter()
            .map(|t| self.dist[t.0])
            .filter(|d| d.is_finite())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 -1- 1 -2- 2 -4- 3 plus shortcut 0 -6- 3.
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 4.0).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 6.0).unwrap();
        g
    }

    #[test]
    fn distances() {
        let g = diamond();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        assert_eq!(spt.distance(NodeId(0)), 0.0);
        assert_eq!(spt.distance(NodeId(1)), 1.0);
        assert_eq!(spt.distance(NodeId(2)), 3.0);
        // 0→3: direct 6 vs via path 7 ⇒ 6.
        assert_eq!(spt.distance(NodeId(3)), 6.0);
    }

    #[test]
    fn path_extraction() {
        let g = diamond();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        let p = spt.path_edges(NodeId(2)).unwrap();
        assert_eq!(p.len(), 2);
        assert!(spt.path_edges(NodeId(0)).unwrap().is_empty());
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = diamond();
        let iso = g.add_node();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        assert!(!spt.is_reachable(iso));
        assert!(spt.path_edges(iso).is_none());
        assert_eq!(spt.unicast_cost([iso]), 0.0);
    }

    #[test]
    fn unicast_cost_sums_distances() {
        let g = diamond();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        assert_eq!(spt.unicast_cost([NodeId(1), NodeId(2), NodeId(3)]), 10.0);
    }

    #[test]
    fn multicast_tree_shares_edges() {
        let g = diamond();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        // Paths to 1 and 2 share edge (0,1): tree cost 1 + 2 = 3, not 4.
        assert_eq!(spt.multicast_tree_cost(&g, [NodeId(1), NodeId(2)]), 3.0);
        // Adding node 3 adds its direct edge.
        assert_eq!(
            spt.multicast_tree_cost(&g, [NodeId(1), NodeId(2), NodeId(3)]),
            9.0
        );
        // Source only: zero.
        assert_eq!(spt.multicast_tree_cost(&g, [NodeId(0)]), 0.0);
    }

    #[test]
    fn multicast_cost_leq_unicast() {
        let g = diamond();
        let spt = ShortestPathTree::compute(&g, NodeId(0));
        let ts = [NodeId(1), NodeId(2), NodeId(3)];
        assert!(spt.multicast_tree_cost(&g, ts) <= spt.unicast_cost(ts));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // node-id loops read clearest indexed
    fn agrees_with_brute_force_on_random_graphs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(2..12);
            let mut g = Graph::with_nodes(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.5) {
                        g.add_edge(NodeId(u), NodeId(v), rng.gen_range(1.0..10.0))
                            .unwrap();
                    }
                }
            }
            // Brute-force Bellman-Ford.
            let mut bf = vec![f64::INFINITY; n];
            bf[0] = 0.0;
            for _ in 0..n {
                for e in g.edges() {
                    if bf[e.u.0] + e.cost < bf[e.v.0] {
                        bf[e.v.0] = bf[e.u.0] + e.cost;
                    }
                    if bf[e.v.0] + e.cost < bf[e.u.0] {
                        bf[e.u.0] = bf[e.v.0] + e.cost;
                    }
                }
            }
            let spt = ShortestPathTree::compute(&g, NodeId(0));
            for v in 0..n {
                let d = spt.distance(NodeId(v));
                if bf[v].is_finite() {
                    assert!((d - bf[v]).abs() < 1e-9, "node {v}: {d} vs {}", bf[v]);
                } else {
                    assert!(d.is_infinite());
                }
            }
        }
    }
}
