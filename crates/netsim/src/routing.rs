//! Delivery-cost models: unicast, broadcast, ideal multicast, group
//! multicast (network-supported, dense mode) and application-level
//! multicast.
//!
//! All costs follow Section 5.2 of the paper: "the cost of communication
//! was computed by summing up the edge costs on the links on which
//! communication takes place".
//!
//! * **unicast** — each receiver gets its own copy along its shortest
//!   path: `Σ_t dist(src, t)`;
//! * **broadcast** — the message floods the shortest-path tree to *every*
//!   node: the cost of the full SPT (event-independent per source);
//! * **ideal multicast** — a dedicated group per event: the SPT pruned to
//!   exactly the interested nodes ([`Router::group_multicast_cost`] with
//!   the interested nodes as members);
//! * **group multicast** (dense mode) — the SPT pruned to the members of
//!   the precomputed group the event was matched to;
//! * **application-level multicast** — group members form an overlay MST
//!   (edge weight = unicast cost between members) and forward member to
//!   member; the publisher unicasts into the nearest member.

use std::collections::HashMap;

use crate::graph::{Graph, NodeId};
use crate::mst::overlay_mst;
use crate::shortest_path::ShortestPathTree;

/// A routing oracle over a fixed network: holds one shortest-path tree
/// per warmed source and answers delivery-cost queries for every scheme
/// in the paper.
///
/// Trees enter the map only through [`Router::warm`] (serial) and
/// [`Router::insert_spt`] (trees a caller computed, typically in
/// parallel, over the graph given to [`Router::new`]). Every query
/// takes `&self`, so evaluations can fan out across threads. A query
/// from a source that was never warmed runs an uncached Dijkstra
/// instead: the same answer, merely slower.
///
/// # Examples
///
/// ```
/// use netsim::{Graph, Router};
///
/// let mut g = Graph::new();
/// let [a, b, c] = [(); 3].map(|_| g.add_node());
/// g.add_edge(a, b, 1.0)?;
/// g.add_edge(b, c, 1.0)?;
/// let mut router = Router::new(&g);
/// router.warm([a]);
/// assert_eq!(router.unicast_cost(a, [b, c]), 3.0);
/// assert_eq!(router.group_multicast_cost(a, &[b, c]), 2.0);
/// # Ok::<(), netsim::GraphError>(())
/// ```
#[derive(Debug)]
pub struct Router<'g> {
    graph: &'g Graph,
    spts: HashMap<NodeId, ShortestPathTree>,
}

impl<'g> Router<'g> {
    /// Creates a router over `graph` with no warmed source.
    pub fn new(graph: &'g Graph) -> Self {
        Router {
            graph,
            spts: HashMap::new(),
        }
    }

    /// Computes, one after another, the tree of every source in
    /// `sources` that the router does not hold yet.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn warm(&mut self, sources: impl IntoIterator<Item = NodeId>) {
        for src in sources {
            self.spts
                .entry(src)
                .or_insert_with(|| ShortestPathTree::compute(self.graph, src));
        }
    }

    /// Adds a precomputed shortest-path tree, keyed by its source. The
    /// tree must have been computed over the router's graph.
    pub fn insert_spt(&mut self, spt: ShortestPathTree) {
        self.spts.insert(spt.source(), spt);
    }

    /// The held shortest-path tree rooted at `src`, or `None` when
    /// `src` was never warmed.
    pub fn spt(&self, src: NodeId) -> Option<&ShortestPathTree> {
        self.spts.get(&src)
    }

    /// Runs `f` against the tree for `src`: the held tree when warmed,
    /// otherwise a freshly computed (uncached) one.
    fn with_spt<R>(&self, src: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        match self.spts.get(&src) {
            Some(spt) => f(spt),
            None => f(&ShortestPathTree::compute(self.graph, src)),
        }
    }

    /// Shortest-path distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.with_spt(a, |spt| spt.distance(b))
    }

    /// Unicast cost: `Σ_t dist(src, t)`. The source itself contributes 0.
    pub fn unicast_cost(&self, src: NodeId, targets: impl IntoIterator<Item = NodeId>) -> f64 {
        self.with_spt(src, |spt| spt.unicast_cost(targets))
    }

    /// Network-supported (dense-mode) multicast to a precomputed group:
    /// the shortest-path tree rooted at the publisher, pruned to the
    /// group members. Each shared tree edge is traversed once.
    pub fn group_multicast_cost(&self, src: NodeId, members: &[NodeId]) -> f64 {
        self.with_spt(src, |spt| {
            spt.multicast_tree_cost(self.graph, members.iter().copied())
        })
    }

    /// The publisher's cost of injecting a message into an overlay
    /// group: the unicast cost to the nearest member (0 when the
    /// publisher is a member, `+inf` for an empty group).
    /// Application-level multicast costs this plus
    /// [`Router::overlay_mst_cost`]: the members forward along an
    /// overlay MST whose edges are unicasts.
    pub fn entry_cost(&self, src: NodeId, members: &[NodeId]) -> f64 {
        if members.contains(&src) {
            return 0.0;
        }
        self.with_spt(src, |spt| {
            members
                .iter()
                .map(|&m| spt.distance(m))
                .fold(f64::INFINITY, f64::min)
        })
    }

    /// Total weight of the overlay MST among `members` (edge weight =
    /// pairwise unicast cost). Event-independent for a static group;
    /// warm the members first, or every pair runs its own Dijkstra.
    pub fn overlay_mst_cost(&self, members: &[NodeId]) -> f64 {
        if members.len() < 2 {
            return 0.0;
        }
        let (_, mst_cost) = overlay_mst(members, |a, b| self.distance(a, b));
        mst_cost
    }

    /// Sparse-mode multicast (PIM-SM style shared tree): the group
    /// shares one tree rooted at a *rendezvous point*; the publisher
    /// unicasts the message to the RP, which forwards it down the
    /// shared tree.
    ///
    /// Compared with dense mode (per-publisher trees,
    /// [`Router::group_multicast_cost`]) the shared tree saves router
    /// state — one tree per group instead of one per
    /// (publisher, group) — at the price of the publisher→RP detour.
    /// The paper mentions both modes and assumes dense; this gives the
    /// comparison.
    pub fn sparse_multicast_cost(&self, src: NodeId, rp: NodeId, members: &[NodeId]) -> f64 {
        self.distance(src, rp) + self.group_multicast_cost(rp, members)
    }

    /// A natural rendezvous point for a group: the member minimizing
    /// the total shortest-path distance to all members (the 1-median
    /// restricted to the group). Returns `None` for an empty group.
    pub fn rendezvous_point(&self, members: &[NodeId]) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for &candidate in members {
            let total: f64 = self.with_spt(candidate, |spt| {
                members.iter().map(|&m| spt.distance(m)).sum()
            });
            if best.is_none_or(|(b, _)| total < b) {
                best = Some((total, candidate));
            }
        }
        best.map(|(_, rp)| rp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, TransitStubParams};
    use rand::prelude::*;

    /// Every node of `g`: the member list of a broadcast.
    fn all(g: &Graph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    /// Path 0 -1- 1 -1- 2 plus expensive shortcut 0 -5- 2.
    fn line() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 5.0).unwrap();
        g
    }

    #[test]
    fn unicast_vs_multicast() {
        let g = line();
        let r = Router::new(&g);
        let ts = [NodeId(1), NodeId(2)];
        assert_eq!(r.unicast_cost(NodeId(0), ts), 1.0 + 2.0);
        // An event nobody wants costs nothing.
        assert_eq!(r.unicast_cost(NodeId(0), []), 0.0);
        // SPT edges {0-1, 1-2} shared → 2.0.
        assert_eq!(r.group_multicast_cost(NodeId(0), &ts), 2.0);
    }

    #[test]
    fn broadcast_is_full_tree() {
        let g = line();
        let r = Router::new(&g);
        assert_eq!(r.group_multicast_cost(NodeId(0), &all(&g)), 2.0);
        assert_eq!(r.group_multicast_cost(NodeId(1), &all(&g)), 2.0);
    }

    #[test]
    fn group_multicast_to_subset() {
        let g = line();
        let r = Router::new(&g);
        assert_eq!(r.group_multicast_cost(NodeId(0), &[NodeId(2)]), 2.0);
        assert_eq!(r.group_multicast_cost(NodeId(0), &[]), 0.0);
    }

    #[test]
    fn app_multicast_overlay() {
        let g = line();
        let r = Router::new(&g);
        // Members {1, 2}: overlay MST = one edge 1-2 with weight 1;
        // publisher 0 enters at member 1 (distance 1).
        let members = [NodeId(1), NodeId(2)];
        assert_eq!(r.overlay_mst_cost(&members), 1.0);
        assert_eq!(r.entry_cost(NodeId(0), &members), 1.0);
        // Publisher inside the group: no entry cost.
        assert_eq!(r.entry_cost(NodeId(1), &members), 0.0);
        assert_eq!(r.overlay_mst_cost(&[]), 0.0);
        assert_eq!(r.entry_cost(NodeId(0), &[]), f64::INFINITY);
    }

    #[test]
    fn app_multicast_decomposes_and_is_bounded() {
        // app = entry + overlay MST. The entry is the nearest member's
        // distance; the overlay MST spans the members, so it is at
        // least their widest pair and at most the star from one member.
        // (No dominance over dense mode is asserted: the pruned SPT is
        // not a Steiner tree, so either scheme can win.)
        let mut rng = StdRng::seed_from_u64(11);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let mut r = Router::new(topo.graph());
        r.warm(topo.graph().nodes());
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        for trial in 0..10 {
            let src = nodes[(trial * 17) % nodes.len()];
            let members: Vec<NodeId> = (0..8)
                .map(|i| nodes[(i * 31 + trial * 7) % nodes.len()])
                .collect();
            let nearest = members
                .iter()
                .map(|&m| r.distance(src, m))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(r.entry_cost(src, &members), nearest, "trial {trial}");
            let mst = r.overlay_mst_cost(&members);
            let widest = members
                .iter()
                .flat_map(|&a| members.iter().map(move |&b| (a, b)))
                .map(|(a, b)| r.distance(a, b))
                .fold(0.0f64, f64::max);
            let star: f64 = members.iter().map(|&m| r.distance(members[0], m)).sum();
            assert!(mst >= widest - 1e-9, "trial {trial}: {mst} < {widest}");
            assert!(mst <= star + 1e-9, "trial {trial}: {mst} > {star}");
        }
    }

    #[test]
    fn cost_ordering_on_random_topology() {
        let mut rng = StdRng::seed_from_u64(12);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let mut r = Router::new(topo.graph());
        r.warm(topo.graph().nodes());
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let src = nodes[0];
        let interested: Vec<NodeId> = nodes.iter().step_by(7).copied().collect();
        let uni = r.unicast_cost(src, interested.iter().copied());
        let ideal = r.group_multicast_cost(src, &interested);
        let bcast = r.group_multicast_cost(src, &all(topo.graph()));
        assert!(ideal <= uni + 1e-9, "ideal {ideal} > unicast {uni}");
        assert!(ideal <= bcast + 1e-9, "ideal {ideal} > broadcast {bcast}");
    }

    #[test]
    fn sparse_mode_pays_the_rp_detour() {
        let g = line();
        let r = Router::new(&g);
        let members = [NodeId(1), NodeId(2)];
        let rp = r.rendezvous_point(&members).unwrap();
        // 1-median of {1, 2} on the line 0-1-2: node 1 (total 1) beats
        // node 2 (total 1)? Both total 1.0; first minimum wins → 1.
        assert_eq!(rp, NodeId(1));
        let sparse = r.sparse_multicast_cost(NodeId(0), rp, &members);
        let dense = r.group_multicast_cost(NodeId(0), &members);
        // Shared tree from RP=1 covers {1,2} at cost 1; entry 0→1 is 1.
        assert_eq!(sparse, 2.0);
        // Dense mode from the publisher itself costs the same here.
        assert_eq!(dense, 2.0);
        // Publishing *at* the RP skips the detour entirely.
        assert_eq!(r.sparse_multicast_cost(NodeId(1), rp, &members), 1.0);
        // Empty group has no RP.
        assert_eq!(r.rendezvous_point(&[]), None);
    }

    #[test]
    fn sparse_mode_bounds_on_random_topologies() {
        use crate::topology::{Topology, TransitStubParams};
        use rand::prelude::*;
        // Neither mode dominates in general (dense uses the publisher's
        // SPT, which is not a Steiner tree; a well-placed RP can beat
        // it), but sparse is always bounded below by the distance to
        // the farthest member and above by entry + the RP's full tree.
        let mut rng = StdRng::seed_from_u64(21);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let mut r = Router::new(topo.graph());
        r.warm(topo.graph().nodes());
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        for trial in 0..10 {
            let members: Vec<NodeId> = nodes
                .iter()
                .skip(trial)
                .step_by(9)
                .copied()
                .take(7)
                .collect();
            let src = nodes[(trial * 13) % nodes.len()];
            let rp = r.rendezvous_point(&members).unwrap();
            assert!(members.contains(&rp), "RP is one of the members");
            let sparse = r.sparse_multicast_cost(src, rp, &members);
            let far = members
                .iter()
                .map(|&m| r.distance(src, m))
                .fold(0.0f64, f64::max);
            // Reaching the farthest member cannot be cheaper than its
            // shortest path.
            assert!(sparse >= far - 1e-9, "trial {trial}: {sparse} < {far}");
            let upper = r.distance(src, rp) + r.group_multicast_cost(rp, &all(topo.graph()));
            assert!(sparse <= upper + 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn frozen_router_accepts_inserted_trees() {
        let g = line();
        let mut r = Router::new(&g);
        assert!(r.spt(NodeId(0)).is_none());
        r.insert_spt(ShortestPathTree::compute(r.graph, NodeId(0)));
        assert_eq!(r.spts.len(), 1);
        assert_eq!(r.spt(NodeId(0)).map(|t| t.source()), Some(NodeId(0)));
        assert_eq!(r.distance(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(r.group_multicast_cost(NodeId(0), &[NodeId(2)]), 2.0);
    }

    #[test]
    fn frozen_router_cold_source_falls_back() {
        let g = line();
        let r = Router::new(&g);
        // Cost queries from a cold source run an uncached Dijkstra with
        // the same answers a warmed router gives.
        assert_eq!(r.distance(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(r.group_multicast_cost(NodeId(0), &[NodeId(2)]), 2.0);
        assert_eq!(r.overlay_mst_cost(&[NodeId(1), NodeId(2)]), 1.0);
        assert_eq!(r.rendezvous_point(&[NodeId(1), NodeId(2)]), Some(NodeId(1)));
        // The fallback never populates the map.
        assert_eq!(r.spts.len(), 0);
        assert!(r.spt(NodeId(0)).is_none());
    }

    #[test]
    fn unreachable_receivers_are_left_out_silently() {
        // Path 0-1 with node 2 isolated: no route reaches it.
        let iso = NodeId(2);
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let mut r = Router::new(&g);
        r.warm([NodeId(0)]);
        // Unicast and group multicast both skip the unreachable
        // receiver instead of failing; the reachable one is still
        // served.
        assert_eq!(r.unicast_cost(NodeId(0), [NodeId(1), iso]), 1.0);
        assert_eq!(r.group_multicast_cost(NodeId(0), &[NodeId(1), iso]), 1.0);
        // Broadcast (every node a receiver) skips it too.
        assert_eq!(r.group_multicast_cost(NodeId(0), &all(&g)), 1.0);
    }

    #[test]
    fn spt_cache_reuse() {
        let g = line();
        let mut r = Router::new(&g);
        r.warm([NodeId(0)]);
        let _ = r.unicast_cost(NodeId(0), [NodeId(1)]);
        let _ = r.group_multicast_cost(NodeId(0), &all(&g));
        let _ = r.distance(NodeId(2), NodeId(0));
        // Queries never fill the map; only a warm call does.
        assert_eq!(r.spts.len(), 1);
        r.warm([NodeId(0), NodeId(2), NodeId(2)]);
        assert_eq!(r.spts.len(), 2);
        assert_eq!(r.distance(NodeId(2), NodeId(0)), 2.0);
    }
}
