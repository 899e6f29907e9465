//! Minimum spanning trees: the overlay MST (Prim) and the union-find
//! structure behind Kruskal.
//!
//! Two uses in the paper:
//!
//! * **application-level multicast** (Section 5.1): multicast group
//!   members "form a minimum spanning tree and forward the messages from
//!   one member to another through the tree" — an MST over the *overlay*
//!   complete graph whose edge weights are unicast (shortest-path) costs;
//! * **MST clustering** (Section 4.4): Kruskal run over hyper-cell
//!   distances, stopped when exactly `K` components remain. That variant
//!   lives in `pubsub-core`; this module exposes the reusable
//!   [`UnionFind`] it is built on.

use crate::graph::NodeId;

/// Disjoint-set forest with path compression and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// The representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `false` when they
    /// were already the same set.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }
}

/// Minimum spanning tree over a *complete overlay graph* on `members`,
/// with the weight of overlay edge `(i, j)` given by `weight(i, j)`
/// (typically the unicast shortest-path cost between the two nodes).
///
/// Returns the list of chosen overlay edges and their total weight. With
/// fewer than two members the tree is empty.
///
/// This is Prim's algorithm in O(m²) over the m members — the overlay is
/// complete, so Prim beats sorting all m² edges.
pub fn overlay_mst(
    members: &[NodeId],
    mut weight: impl FnMut(NodeId, NodeId) -> f64,
) -> (Vec<(NodeId, NodeId)>, f64) {
    let m = members.len();
    if m < 2 {
        return (Vec::new(), 0.0);
    }
    let mut in_tree = vec![false; m];
    let mut best = vec![f64::INFINITY; m];
    let mut best_from = vec![0usize; m];
    // lint: allow(no-literal-index): m >= 2 (smaller inputs returned above)
    in_tree[0] = true;
    for j in 1..m {
        // lint: allow(no-literal-index): m >= 2 (smaller inputs returned above)
        best[j] = weight(members[0], members[j]);
        best_from[j] = 0;
    }
    let mut edges = Vec::with_capacity(m - 1);
    let mut total = 0.0;
    for _ in 1..m {
        // Cheapest frontier vertex.
        let mut pick = None;
        let mut pick_w = f64::INFINITY;
        for j in 0..m {
            if !in_tree[j] && best[j] < pick_w {
                pick_w = best[j];
                pick = Some(j);
            }
        }
        let j = match pick {
            Some(j) => j,
            // Disconnected overlay (infinite weights): stop early.
            None => break,
        };
        in_tree[j] = true;
        edges.push((members[best_from[j]], members[j]));
        total += pick_w;
        for k in 0..m {
            if !in_tree[k] {
                let w = weight(members[j], members[k]);
                if w < best[k] {
                    best[k] = w;
                    best_from[k] = j;
                }
            }
        }
    }
    (edges, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Total weight of the minimum spanning forest of `g` (Kruskal):
    /// the reference the Prim-based [`overlay_mst`] is checked against.
    ///
    /// For a connected graph this is the MST weight; for a disconnected graph
    /// each component contributes its own tree.
    fn minimum_spanning_forest_cost(g: &Graph) -> f64 {
        let mut order: Vec<usize> = (0..g.num_edges()).collect();
        order.sort_by(|&a, &b| {
            g.edges()[a]
                .cost
                .partial_cmp(&g.edges()[b].cost)
                .expect("edge cost is never NaN")
        });
        let mut uf = UnionFind::new(g.num_nodes());
        let mut total = 0.0;
        for i in order {
            let e = &g.edges()[i];
            if uf.union(e.u.0, e.v.0) {
                total += e.cost;
            }
        }
        total
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn msf_cost_on_known_graph() {
        // Square 0-1-2-3-0 with costs 1,2,3,4 and diagonal 0-2 cost 10.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 3.0).unwrap();
        g.add_edge(NodeId(3), NodeId(0), 4.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        assert_eq!(minimum_spanning_forest_cost(&g), 6.0);
    }

    #[test]
    fn msf_on_disconnected_graph() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 5.0).unwrap();
        assert_eq!(minimum_spanning_forest_cost(&g), 7.0);
    }

    #[test]
    fn overlay_mst_on_metric_weights() {
        // Members on a line at positions 0, 1, 5; weight = |a-b|.
        let members = [NodeId(0), NodeId(1), NodeId(2)];
        let pos = [0.0f64, 1.0, 5.0];
        let (edges, total) = overlay_mst(&members, |a, b| (pos[a.0] - pos[b.0]).abs());
        assert_eq!(edges.len(), 2);
        assert_eq!(total, 5.0); // 0-1 (1) + 1-2 (4)
    }

    #[test]
    fn overlay_mst_trivial_sizes() {
        let (e, t) = overlay_mst(&[], |_, _| 1.0);
        assert!(e.is_empty());
        assert_eq!(t, 0.0);
        let (e, t) = overlay_mst(&[NodeId(9)], |_, _| 1.0);
        assert!(e.is_empty());
        assert_eq!(t, 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill reads clearest indexed
    fn overlay_mst_matches_kruskal_on_random_inputs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let m = rng.gen_range(2..10);
            let mut w = vec![vec![0.0f64; m]; m];
            for i in 0..m {
                for j in (i + 1)..m {
                    let c = rng.gen_range(1.0..20.0);
                    w[i][j] = c;
                    w[j][i] = c;
                }
            }
            let members: Vec<NodeId> = (0..m).map(NodeId).collect();
            let (_, prim_total) = overlay_mst(&members, |a, b| w[a.0][b.0]);
            // Kruskal over an explicit complete graph.
            let mut g = Graph::with_nodes(m);
            for i in 0..m {
                for j in (i + 1)..m {
                    g.add_edge(NodeId(i), NodeId(j), w[i][j]).unwrap();
                }
            }
            let kruskal_total = minimum_spanning_forest_cost(&g);
            assert!(
                (prim_total - kruskal_total).abs() < 1e-9,
                "{prim_total} vs {kruskal_total}"
            );
        }
    }
}
