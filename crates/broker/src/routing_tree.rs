//! The broker routing tree: per-link subscription filters and
//! hop-by-hop event forwarding.

use geometry::{Point, Rect};
use netsim::{DegradedView, EdgeId, Graph, NodeId, UnionFind};
use spatial::RTree;

/// One directed link of the broker tree: the neighbor it leads to, the
/// edge cost, and a spatial index over the subscription rectangles
/// registered somewhere behind that neighbor.
#[derive(Debug, Clone)]
struct TreeLink {
    to: NodeId,
    cost: f64,
    /// The underlying graph edge this link rides on — how fault
    /// injection decides whether the link survived.
    edge: EdgeId,
    /// Index over the behind-set; `None` when no subscription lives
    /// behind this link (the link never forwards).
    filter: Option<RTree<usize>>,
}

/// The outcome of repairing the broker tree after failures (see
/// [`BrokerNetwork::repair`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// Tree links that failed (link down or an endpoint crashed).
    pub tree_edges_lost: usize,
    /// Orphaned subtrees grafted back onto the primary component.
    pub reattached_components: usize,
    /// New links added while grafting.
    pub grafted_edges: usize,
    /// Sum of the (degraded) costs of the grafted links — the control
    /// traffic the repair itself pays.
    pub repair_cost: f64,
    /// Live brokers left unreachable from the primary component — no
    /// surviving path exists, so their subscribers silently miss events
    /// published elsewhere until the partition heals.
    pub stranded_brokers: usize,
    /// Subscriptions tombstoned because their home broker crashed.
    pub dropped_subscriptions: usize,
}

/// The result of delivering one event through the broker network.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerDelivery {
    /// Ids of the subscriptions the event matched.
    pub matched_subscriptions: Vec<usize>,
    /// Deduplicated nodes hosting at least one matched subscription.
    pub receivers: Vec<NodeId>,
    /// Sum of the traversed tree-edge costs.
    pub cost: f64,
    /// Number of tree edges the event crossed.
    pub edges_traversed: usize,
}

/// Result of propagating one subscription change through the brokers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Propagation {
    /// How many per-link filters had to be updated — the paper's
    /// Section 6 criticism quantified: "the dynamics of subscriptions
    /// require subscription changes to propagate quickly in the
    /// network, which makes this approach difficult to implement".
    pub filters_touched: usize,
}

/// Router-state summary of a broker network (see
/// [`BrokerNetwork::state_size`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerState {
    /// Filter entries summed over all directed links. Each live
    /// subscription appears once per link whose behind-set contains it
    /// — `O(subscriptions × links)` in the worst case.
    pub total_filter_entries: usize,
    /// The largest single link's filter.
    pub max_link_entries: usize,
}

/// Which spanning tree the brokers form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// The graph's minimum spanning tree (minimizes total link cost —
    /// good when traffic is spread across many publishers).
    Mst,
    /// The shortest-path tree rooted at a *core* broker (a core-based
    /// tree: minimizes the detour for traffic flowing through the
    /// core — what deployed shared-tree protocols build).
    CoreSpt(NodeId),
}

/// A content-based broker network over a spanning tree of the
/// underlying graph.
///
/// # Examples
///
/// ```
/// use broker::BrokerNetwork;
/// use geometry::{Interval, Point, Rect};
/// use netsim::{Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), 1.0)?;
/// g.add_edge(NodeId(1), NodeId(2), 1.0)?;
/// let subs = vec![(NodeId(2), Rect::new(vec![Interval::new(0.0, 10.0)?]))];
/// let net = BrokerNetwork::build(&g, &subs);
/// let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
/// assert_eq!(d.receivers, vec![NodeId(2)]);
/// assert_eq!(d.cost, 2.0); // two hops along the tree
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BrokerNetwork {
    /// Tree adjacency, indexed by node.
    adj: Vec<Vec<TreeLink>>,
    /// Subscriptions homed at each node.
    at_node: Vec<Vec<usize>>,
    /// All subscription rectangles (id = slice position; tombstoned
    /// entries stay for id stability).
    rects: Vec<Rect>,
    /// Home node per subscription id.
    homes: Vec<NodeId>,
    /// Liveness per subscription id (unsubscribed = false).
    alive: Vec<bool>,
    /// Euler-tour intervals and parents of the rooted tree (used to
    /// route filter updates on subscribe).
    tin: Vec<usize>,
    tout: Vec<usize>,
    parent: Vec<usize>,
    /// The DFS root of each node's tree. A freshly built network is one
    /// tree rooted at 0; after a partition-inducing failure the
    /// structure is a forest and behind-sets must not leak across trees.
    root: Vec<usize>,
    dim: usize,
}

impl BrokerNetwork {
    /// Builds the broker network: computes the graph's minimum spanning
    /// tree, roots it, and installs per-link filters (the union of
    /// subscription rectangles behind each link).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected, a subscription names an
    /// unknown node, or subscriptions disagree on dimension.
    pub fn build(graph: &Graph, subscriptions: &[(NodeId, Rect)]) -> Self {
        Self::build_with_tree(graph, subscriptions, TreeKind::Mst)
    }

    /// Like [`BrokerNetwork::build`], choosing the overlay tree.
    ///
    /// # Panics
    ///
    /// As [`BrokerNetwork::build`]; additionally if a `CoreSpt` core
    /// node is out of range.
    pub fn build_with_tree(
        graph: &Graph,
        subscriptions: &[(NodeId, Rect)],
        kind: TreeKind,
    ) -> Self {
        let n = graph.num_nodes();
        assert!(n > 0, "graph must have nodes");
        assert!(graph.is_connected(), "broker tree needs a connected graph");
        let dim = subscriptions.first().map_or(1, |(_, r)| r.dim());
        for (node, rect) in subscriptions {
            assert!(node.index() < n, "subscription at unknown node {node}");
            assert_eq!(rect.dim(), dim, "subscription dimension mismatch");
        }

        // 1. The overlay tree (each undirected link remembers the graph
        //    edge it rides on, so fault injection can kill it later).
        let mut tree_adj: Vec<Vec<(NodeId, f64, EdgeId)>> = vec![Vec::new(); n];
        match kind {
            TreeKind::Mst => {
                // Kruskal.
                let mut order: Vec<usize> = (0..graph.num_edges()).collect();
                order.sort_by(|&a, &b| {
                    graph.edges()[a]
                        .cost
                        .partial_cmp(&graph.edges()[b].cost)
                        .expect("edge cost is never NaN")
                });
                let mut uf = UnionFind::new(n);
                for i in order {
                    let e = &graph.edges()[i];
                    if uf.union(e.u.index(), e.v.index()) {
                        tree_adj[e.u.index()].push((e.v, e.cost, EdgeId(i)));
                        tree_adj[e.v.index()].push((e.u, e.cost, EdgeId(i)));
                    }
                }
            }
            TreeKind::CoreSpt(core) => {
                assert!(core.index() < n, "core {core} out of range");
                let spt = netsim::ShortestPathTree::compute(graph, core);
                for v in graph.nodes() {
                    if let Some((p, e)) = spt.parent(v) {
                        let cost = graph.edge(e).cost;
                        tree_adj[p.index()].push((v, cost, e));
                        tree_adj[v.index()].push((p, cost, e));
                    }
                }
            }
        }

        let mut at_node: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (node, _)) in subscriptions.iter().enumerate() {
            at_node[node.index()].push(i);
        }
        let mut net = BrokerNetwork {
            adj: Vec::new(),
            at_node,
            rects: subscriptions.iter().map(|(_, r)| r.clone()).collect(),
            homes: subscriptions.iter().map(|(n, _)| *n).collect(),
            alive: vec![true; subscriptions.len()],
            tin: Vec::new(),
            tout: Vec::new(),
            parent: Vec::new(),
            root: Vec::new(),
            dim,
        };
        net.install_tree(&tree_adj);
        net
    }

    /// (Re)roots the given tree (or forest), recomputes the Euler tour,
    /// and rebuilds every per-link filter from the live subscriptions.
    fn install_tree(&mut self, tree_adj: &[Vec<(NodeId, f64, EdgeId)>]) {
        let n = tree_adj.len();
        // Root each component at its lowest-id node and compute an
        // Euler tour so "home is in the subtree of v" is an O(1)
        // interval test. A connected tree yields the single root 0.
        self.tin = vec![0usize; n];
        self.tout = vec![0usize; n];
        self.parent = vec![usize::MAX; n];
        self.root = vec![usize::MAX; n];
        let mut timer = 0usize;
        for r in 0..n {
            if self.root[r] != usize::MAX {
                continue;
            }
            self.root[r] = r;
            // Iterative DFS (600-node trees can be deep).
            let mut stack = vec![(r, false)];
            while let Some((u, processed)) = stack.pop() {
                if processed {
                    self.tout[u] = timer;
                    timer += 1;
                    continue;
                }
                self.tin[u] = timer;
                timer += 1;
                stack.push((u, true));
                for &(v, _, _) in &tree_adj[u] {
                    if v.index() != self.parent[u] {
                        self.parent[v.index()] = u;
                        self.root[v.index()] = r;
                        stack.push((v.index(), false));
                    }
                }
            }
        }

        // Per-link behind-sets: the live subscriptions reachable
        // through each directed tree edge.
        self.adj = (0..n)
            .map(|u| {
                tree_adj[u]
                    .iter()
                    .map(|&(v, cost, edge)| {
                        let behind: Vec<(Rect, usize)> = (0..self.rects.len())
                            .filter(|&i| {
                                self.alive[i]
                                    && self.behind_link(u, v.index(), self.homes[i].index())
                            })
                            .map(|i| (self.rects[i].clone(), i))
                            .collect();
                        let filter = if behind.is_empty() {
                            None
                        } else {
                            Some(RTree::bulk_load(self.dim, behind))
                        };
                        TreeLink {
                            to: v,
                            cost,
                            edge,
                            filter,
                        }
                    })
                    .collect()
            })
            .collect();
    }

    fn in_subtree(&self, root: usize, node: usize) -> bool {
        self.tin[root] <= self.tin[node] && self.tout[node] <= self.tout[root]
    }

    /// Whether a subscription homed at `h` lies behind the directed
    /// link `u → v`: in v's subtree when v is u's child, otherwise
    /// outside u's subtree *within the same tree of the forest* (homes
    /// in a different component are unreachable, not "behind").
    fn behind_link(&self, u: usize, v: usize, h: usize) -> bool {
        if self.parent[v] == u {
            self.in_subtree(v, h)
        } else {
            self.root[h] == self.root[u] && !self.in_subtree(u, h)
        }
    }

    /// Registers a new subscription at runtime, inserting it into every
    /// per-link filter whose behind-set now contains it. Returns the
    /// new subscription id and the propagation cost: in a tree of `n`
    /// brokers every one of the `n-1` links has exactly one direction
    /// pointing toward the new subscriber, so the change touches the
    /// whole network — the paper's Section 6 argument against this
    /// architecture under churn.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown or the rectangle dimension differs.
    pub fn subscribe(&mut self, node: NodeId, rect: Rect) -> (usize, Propagation) {
        assert!(node.index() < self.adj.len(), "unknown node {node}");
        assert_eq!(rect.dim(), self.dim, "subscription dimension mismatch");
        let id = self.rects.len();
        self.rects.push(rect.clone());
        self.homes.push(node);
        self.alive.push(true);
        self.at_node[node.index()].push(id);
        let h = node.index();
        let mut touched = 0usize;
        for u in 0..self.adj.len() {
            // Split borrow: compute membership before mutating links.
            let decisions: Vec<bool> = self.adj[u]
                .iter()
                .map(|link| self.behind_link(u, link.to.index(), h))
                .collect();
            for (link, behind) in self.adj[u].iter_mut().zip(decisions) {
                if behind {
                    link.filter
                        .get_or_insert_with(|| RTree::new(rect.dim()))
                        .insert(rect.clone(), id);
                    touched += 1;
                }
            }
        }
        (
            id,
            Propagation {
                filters_touched: touched,
            },
        )
    }

    /// Removes a subscription. The per-link filters keep the (now
    /// tombstoned) entry — forwarding checks liveness — so removal
    /// itself propagates nothing; the entry is garbage until the next
    /// full rebuild, mirroring real systems' lazy unsubscription.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or already removed.
    pub fn unsubscribe(&mut self, id: usize) -> Propagation {
        assert!(
            id < self.alive.len() && self.alive[id],
            "subscription {id} is not live"
        );
        self.alive[id] = false;
        self.at_node[self.homes[id].index()].retain(|&s| s != id);
        Propagation { filters_touched: 0 }
    }

    /// Repairs the broker tree after failures: drops dead links (link
    /// down or endpoint crashed), tombstones subscriptions homed on
    /// crashed brokers, and grafts each orphaned subtree back onto the
    /// primary component along the cheapest surviving path (repeated
    /// multi-source Dijkstra over the degraded graph). Components with
    /// no surviving path stay stranded as their own trees; every filter
    /// is rebuilt (which also compacts tombstoned entries away).
    ///
    /// Surviving link costs are refreshed to their degraded values, so
    /// subsequent [`BrokerNetwork::deliver`] calls pay inflated costs on
    /// congested links.
    ///
    /// Deterministic: ties in the Dijkstra and in component choice break
    /// on node id, never on iteration order of a hash map.
    ///
    /// # Panics
    ///
    /// Panics if `graph`/`view` do not describe the graph this network
    /// was built from (node or edge counts differ).
    pub fn repair(&mut self, graph: &Graph, view: &DegradedView) -> RepairReport {
        let n = self.adj.len();
        assert_eq!(n, graph.num_nodes(), "graph mismatch");

        // 1. Surviving tree links, with refreshed (degraded) costs.
        let mut tree_adj: Vec<Vec<(NodeId, f64, EdgeId)>> = vec![Vec::new(); n];
        let mut tree_edge: Vec<bool> = vec![false; graph.num_edges()];
        let mut lost = 0usize;
        for u in 0..n {
            for link in &self.adj[u] {
                let v = link.to.index();
                if u < v {
                    if view.edge_live(graph, link.edge) {
                        let cost = view.edge_cost(graph, link.edge);
                        tree_adj[u].push((link.to, cost, link.edge));
                        tree_adj[v].push((NodeId(u), cost, link.edge));
                        tree_edge[link.edge.index()] = true;
                    } else {
                        lost += 1;
                    }
                }
            }
        }

        // 2. Crashed brokers lose their subscriptions (the churn the
        //    clustering layer sees as forced unsubscribes).
        let mut dropped = 0usize;
        for i in 0..self.rects.len() {
            if self.alive[i] && !view.node_live(self.homes[i]) {
                self.alive[i] = false;
                self.at_node[self.homes[i].index()].retain(|&s| s != i);
                dropped += 1;
            }
        }

        // 3. Components of the surviving tree; the primary component is
        //    the one holding the lowest-id live broker.
        let mut uf = UnionFind::new(n);
        for (u, links) in tree_adj.iter().enumerate() {
            for &(v, _, _) in links {
                uf.union(u, v.index());
            }
        }
        let live: Vec<bool> = (0..n).map(|u| view.node_live(NodeId(u))).collect();
        let primary_seed = match (0..n).find(|&u| live[u]) {
            Some(u) => u,
            None => {
                // Everyone crashed: nothing to graft, nothing reachable.
                self.install_tree(&tree_adj);
                return RepairReport {
                    tree_edges_lost: lost,
                    reattached_components: 0,
                    grafted_edges: 0,
                    repair_cost: 0.0,
                    stranded_brokers: 0,
                    dropped_subscriptions: dropped,
                };
            }
        };

        // 4. Greedy grafting: repeatedly find the orphan broker closest
        //    to the primary component over live edges (degraded costs)
        //    and splice its path in; the path may pull whole other
        //    components along with it.
        let mut reattached = 0usize;
        let mut grafted = 0usize;
        let mut repair_cost = 0.0f64;
        loop {
            let root = uf.find(primary_seed);
            // O(V²) multi-source Dijkstra — deterministic, and plenty
            // for the ≤600-broker topologies this models.
            let mut dist = vec![f64::INFINITY; n];
            let mut from: Vec<Option<(usize, EdgeId)>> = vec![None; n];
            let mut done = vec![false; n];
            for u in 0..n {
                if live[u] && uf.find(u) == root {
                    dist[u] = 0.0;
                }
            }
            loop {
                let mut best: Option<usize> = None;
                for u in 0..n {
                    if !done[u] && dist[u].is_finite() {
                        let better = match best {
                            None => true,
                            Some(b) => dist[u] < dist[b],
                        };
                        if better {
                            best = Some(u);
                        }
                    }
                }
                let Some(u) = best else { break };
                done[u] = true;
                for &(v, e) in graph.neighbors(NodeId(u)) {
                    if !view.edge_live(graph, e) {
                        continue;
                    }
                    let nd = dist[u] + view.edge_cost(graph, e);
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        from[v.index()] = Some((u, e));
                    }
                }
            }
            // The nearest live broker outside the primary component.
            let mut target: Option<usize> = None;
            for u in 0..n {
                if live[u] && uf.find(u) != root && dist[u].is_finite() {
                    let better = match target {
                        None => true,
                        Some(t) => dist[u] < dist[t],
                    };
                    if better {
                        target = Some(u);
                    }
                }
            }
            let Some(t) = target else { break };
            // Splice the path in, skipping segments that are already
            // tree links (the path can cut through other components).
            let mut cur = t;
            while let Some((p, e)) = from[cur] {
                if !tree_edge[e.index()] {
                    let cost = view.edge_cost(graph, e);
                    tree_adj[p].push((NodeId(cur), cost, e));
                    tree_adj[cur].push((NodeId(p), cost, e));
                    tree_edge[e.index()] = true;
                    grafted += 1;
                    repair_cost += cost;
                }
                uf.union(p, cur);
                cur = p;
            }
            reattached += 1;
        }
        let root = uf.find(primary_seed);
        let stranded = (0..n).filter(|&u| live[u] && uf.find(u) != root).count();

        // 5. Re-root, re-tour, rebuild every filter.
        self.install_tree(&tree_adj);
        RepairReport {
            tree_edges_lost: lost,
            reattached_components: reattached,
            grafted_edges: grafted,
            repair_cost,
            stranded_brokers: stranded,
            dropped_subscriptions: dropped,
        }
    }

    /// Number of brokers (graph nodes).
    pub fn num_brokers(&self) -> usize {
        self.adj.len()
    }

    /// Number of registered subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.rects.len()
    }

    /// Delivers an event published at `publisher`: forwards across
    /// exactly the tree links whose behind-set matches the event, and
    /// collects matching subscriptions node by node.
    ///
    /// # Panics
    ///
    /// Panics if `publisher` is out of range or the event dimension
    /// differs from the subscriptions'.
    pub fn deliver(&self, publisher: NodeId, event: &Point) -> BrokerDelivery {
        assert!(publisher.index() < self.adj.len(), "unknown publisher");
        let mut matched = Vec::new();
        let mut receivers = Vec::new();
        let mut cost = 0.0;
        let mut edges = 0usize;
        // DFS from the publisher; `from` prevents back-traversal.
        let mut stack: Vec<(usize, usize)> = vec![(publisher.index(), usize::MAX)];
        while let Some((u, from)) = stack.pop() {
            // Local matches at this broker (live subscriptions only).
            let local: Vec<usize> = self.at_node[u]
                .iter()
                .copied()
                .filter(|&i| self.alive[i] && self.rects[i].contains(event))
                .collect();
            if !local.is_empty() {
                receivers.push(NodeId(u));
                matched.extend(local);
            }
            for link in &self.adj[u] {
                if link.to.index() == from {
                    continue;
                }
                let forwards = link
                    .filter
                    .as_ref()
                    .is_some_and(|f| f.stab(event).into_iter().any(|&i| self.alive[i]));
                if forwards {
                    cost += link.cost;
                    edges += 1;
                    stack.push((link.to.index(), u));
                }
            }
        }
        matched.sort_unstable();
        receivers.sort_unstable();
        BrokerDelivery {
            matched_subscriptions: matched,
            receivers,
            cost,
            edges_traversed: edges,
        }
    }

    /// Router-state accounting: the total number of (rect, id) filter
    /// entries installed across all directed links, and the largest
    /// single link's filter — the per-hop matching state this
    /// architecture pays that precomputed multicast groups avoid.
    pub fn state_size(&self) -> BrokerState {
        let mut total = 0usize;
        let mut max_link = 0usize;
        for links in &self.adj {
            for link in links {
                let n = link.filter.as_ref().map_or(0, |f| f.len());
                total += n;
                max_link = max_link.max(n);
            }
        }
        BrokerState {
            total_filter_entries: total,
            max_link_entries: max_link,
        }
    }

    /// The cost of flooding the whole broker tree (the upper bound any
    /// delivery can reach).
    pub fn tree_cost(&self) -> f64 {
        self.adj
            .iter()
            .flat_map(|links| links.iter().map(|l| l.cost))
            .sum::<f64>()
            / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;
    use netsim::{Topology, TransitStubParams};
    use rand::prelude::*;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    /// Path graph 0-1-2-3 with unit costs.
    fn path4() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g
    }

    #[test]
    fn forwards_only_toward_interest() {
        let g = path4();
        let subs = vec![
            (NodeId(3), rect1(0.0, 10.0)),
            (NodeId(0), rect1(20.0, 30.0)),
        ];
        let net = BrokerNetwork::build(&g, &subs);
        // Event matching only the far subscription travels the whole
        // path.
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert_eq!(d.matched_subscriptions, vec![0]);
        assert_eq!(d.receivers, vec![NodeId(3)]);
        assert_eq!(d.cost, 3.0);
        assert_eq!(d.edges_traversed, 3);
        // Event matching only the local subscription never leaves.
        let d = net.deliver(NodeId(0), &Point::new(vec![25.0]));
        assert_eq!(d.receivers, vec![NodeId(0)]);
        assert_eq!(d.cost, 0.0);
        // Event matching nothing costs nothing.
        let d = net.deliver(NodeId(1), &Point::new(vec![15.0]));
        assert!(d.receivers.is_empty());
        assert_eq!(d.cost, 0.0);
    }

    #[test]
    fn publisher_in_the_middle_forks_both_ways() {
        let g = path4();
        let subs = vec![(NodeId(0), rect1(0.0, 10.0)), (NodeId(3), rect1(0.0, 10.0))];
        let net = BrokerNetwork::build(&g, &subs);
        let d = net.deliver(NodeId(1), &Point::new(vec![5.0]));
        assert_eq!(d.receivers, vec![NodeId(0), NodeId(3)]);
        assert_eq!(d.cost, 3.0); // 1 left + 2 right
    }

    #[test]
    fn matches_are_complete_and_exact_on_random_workloads() {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let subs: Vec<(NodeId, Rect)> = (0..200)
            .map(|_| {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let a: f64 = rng.gen_range(0.0..20.0);
                let b: f64 = rng.gen_range(0.0..20.0);
                (node, rect1(a.min(b), a.max(b)))
            })
            .collect();
        let net = BrokerNetwork::build(topo.graph(), &subs);
        for _ in 0..50 {
            let publisher = nodes[rng.gen_range(0..nodes.len())];
            let event = Point::new(vec![rng.gen_range(0.0..20.0)]);
            let d = net.deliver(publisher, &event);
            // Completeness + exactness against brute force.
            let expect: Vec<usize> = subs
                .iter()
                .enumerate()
                .filter(|(_, (_, r))| r.contains(&event))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(d.matched_subscriptions, expect);
            let mut expect_nodes: Vec<NodeId> = expect.iter().map(|&i| subs[i].0).collect();
            expect_nodes.sort_unstable();
            expect_nodes.dedup();
            assert_eq!(d.receivers, expect_nodes);
            // Cost bounded by flooding the tree.
            assert!(d.cost <= net.tree_cost() + 1e-9);
        }
    }

    #[test]
    fn subscribe_touches_every_link_and_delivers() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[]);
        let (id, prop) = net.subscribe(NodeId(3), rect1(0.0, 10.0));
        // A tree of 4 brokers has 3 links; each has one direction
        // pointing toward node 3.
        assert_eq!(prop.filters_touched, 3);
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert_eq!(d.matched_subscriptions, vec![id]);
        assert_eq!(d.receivers, vec![NodeId(3)]);
        assert_eq!(d.cost, 3.0);
    }

    #[test]
    fn unsubscribe_stops_forwarding() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[(NodeId(3), rect1(0.0, 10.0))]);
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert_eq!(d.cost, 3.0);
        let prop = net.unsubscribe(0);
        assert_eq!(prop.filters_touched, 0); // lazy tombstoning
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert!(d.matched_subscriptions.is_empty());
        // Forwarding is suppressed by the liveness check even though
        // the filters still contain the tombstoned entry.
        assert_eq!(d.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_unsubscribe_panics() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[(NodeId(0), rect1(0.0, 1.0))]);
        net.unsubscribe(0);
        net.unsubscribe(0);
    }

    #[test]
    fn churn_preserves_exact_matching() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(13);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        // Start with a population, then churn: remove some, add some.
        let initial: Vec<(NodeId, Rect)> = (0..80)
            .map(|_| {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let a: f64 = rng.gen_range(0.0..20.0);
                let b: f64 = rng.gen_range(0.0..20.0);
                (node, rect1(a.min(b), a.max(b)))
            })
            .collect();
        let mut net = BrokerNetwork::build(topo.graph(), &initial);
        let mut live: Vec<Option<(NodeId, Rect)>> = initial.iter().cloned().map(Some).collect();
        for _ in 0..30 {
            if rng.gen_bool(0.5) {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let a: f64 = rng.gen_range(0.0..20.0);
                let b: f64 = rng.gen_range(0.0..20.0);
                let rect = rect1(a.min(b), a.max(b));
                let (id, _) = net.subscribe(node, rect.clone());
                assert_eq!(id, live.len());
                live.push(Some((node, rect)));
            } else {
                let candidates: Vec<usize> = live
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&id) = candidates.choose(&mut rng) {
                    net.unsubscribe(id);
                    live[id] = None;
                }
            }
        }
        // Exact matching against the live brute-force set.
        for _ in 0..30 {
            let publisher = nodes[rng.gen_range(0..nodes.len())];
            let event = Point::new(vec![rng.gen_range(0.0..20.0)]);
            let d = net.deliver(publisher, &event);
            let expect: Vec<usize> = live
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
                .filter(|(_, (_, r))| r.contains(&event))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(d.matched_subscriptions, expect);
        }
    }

    #[test]
    fn core_spt_tree_matches_identically_to_mst() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(19);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let subs: Vec<(NodeId, Rect)> = (0..60)
            .map(|_| {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let a: f64 = rng.gen_range(0.0..20.0);
                let b: f64 = rng.gen_range(0.0..20.0);
                (node, rect1(a.min(b), a.max(b)))
            })
            .collect();
        let core = topo.stubs()[0].transit;
        let mst = BrokerNetwork::build_with_tree(topo.graph(), &subs, TreeKind::Mst);
        let cbt = BrokerNetwork::build_with_tree(topo.graph(), &subs, TreeKind::CoreSpt(core));
        for trial in 0..20 {
            let publisher = nodes[(trial * 7) % nodes.len()];
            let event = Point::new(vec![rng.gen_range(0.0..20.0)]);
            let a = mst.deliver(publisher, &event);
            let b = cbt.deliver(publisher, &event);
            // Identical matching semantics; possibly different costs
            // (different trees).
            assert_eq!(a.matched_subscriptions, b.matched_subscriptions);
            assert_eq!(a.receivers, b.receivers);
        }
        // The core-rooted tree is a shortest-path tree: its total cost
        // is at least the MST's by minimality of the MST.
        assert!(cbt.tree_cost() >= mst.tree_cost() - 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_out_of_range_panics() {
        let g = path4();
        let _ = BrokerNetwork::build_with_tree(&g, &[], TreeKind::CoreSpt(NodeId(99)));
    }

    #[test]
    fn state_size_counts_filter_entries() {
        let g = path4();
        // One subscription at node 3: behind-sets of the three directed
        // links pointing toward 3 contain it → 3 entries.
        let net = BrokerNetwork::build(&g, &[(NodeId(3), rect1(0.0, 10.0))]);
        let st = net.state_size();
        assert_eq!(st.total_filter_entries, 3);
        assert_eq!(st.max_link_entries, 1);
        // Empty network: zero state.
        let empty = BrokerNetwork::build(&g, &[]);
        assert_eq!(empty.state_size().total_filter_entries, 0);
    }

    #[test]
    fn empty_subscription_set() {
        let g = path4();
        let net = BrokerNetwork::build(&g, &[]);
        assert_eq!(net.num_subscriptions(), 0);
        let d = net.deliver(NodeId(2), &Point::new(vec![1.0]));
        assert!(d.matched_subscriptions.is_empty());
        assert_eq!(d.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        let g = Graph::with_nodes(2);
        let _ = BrokerNetwork::build(&g, &[]);
    }

    use netsim::{DegradedView, EdgeId, Fault, FaultSchedule};

    /// Ring 0-1-2-3-0 with a costly chord 1-3.
    fn ring_with_chord() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap(); // e0
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap(); // e1
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap(); // e2
        g.add_edge(NodeId(3), NodeId(0), 4.0).unwrap(); // e3
        g.add_edge(NodeId(1), NodeId(3), 2.5).unwrap(); // e4
        g
    }

    #[test]
    fn repair_grafts_orphans_back() {
        let g = ring_with_chord();
        // MST = {e0, e1, e2}; subscription at node 3.
        let mut net = BrokerNetwork::build(&g, &[(NodeId(3), rect1(0.0, 10.0))]);
        assert_eq!(net.deliver(NodeId(0), &Point::new(vec![5.0])).cost, 3.0);
        // Kill tree edge e2 (2-3): node 3 is orphaned; the cheapest
        // surviving path back is the chord 1-3 (2.5) vs 0-3 (4.0).
        let view = FaultSchedule::new(1)
            .with(0, Fault::LinkDown(EdgeId(2)))
            .view_at(&g, 0);
        let report = net.repair(&g, &view);
        assert_eq!(report.tree_edges_lost, 1);
        assert_eq!(report.reattached_components, 1);
        assert_eq!(report.grafted_edges, 1);
        assert!((report.repair_cost - 2.5).abs() < 1e-9);
        assert_eq!(report.stranded_brokers, 0);
        assert_eq!(report.dropped_subscriptions, 0);
        // Delivery flows over the repaired tree: 0→1 (1.0) + 1→3 (2.5).
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert_eq!(d.receivers, vec![NodeId(3)]);
        assert!((d.cost - 3.5).abs() < 1e-9);
    }

    #[test]
    fn repair_strands_partitioned_brokers() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[(NodeId(3), rect1(0.0, 10.0))]);
        // The path has no redundancy: killing 1-2 partitions {0,1} from
        // {2,3} and no repair is possible.
        let view = FaultSchedule::new(1)
            .with(0, Fault::LinkDown(EdgeId(1)))
            .view_at(&g, 0);
        let report = net.repair(&g, &view);
        assert_eq!(report.tree_edges_lost, 1);
        assert_eq!(report.reattached_components, 0);
        assert_eq!(report.stranded_brokers, 2);
        // The subscriber is unreachable from the far side but still
        // reachable within its own fragment.
        assert!(net
            .deliver(NodeId(0), &Point::new(vec![5.0]))
            .receivers
            .is_empty());
        let d = net.deliver(NodeId(2), &Point::new(vec![5.0]));
        assert_eq!(d.receivers, vec![NodeId(3)]);
        assert_eq!(d.cost, 1.0);
    }

    #[test]
    fn repair_drops_subscriptions_of_crashed_brokers() {
        let g = ring_with_chord();
        let mut net = BrokerNetwork::build(
            &g,
            &[(NodeId(2), rect1(0.0, 10.0)), (NodeId(3), rect1(0.0, 10.0))],
        );
        let view = FaultSchedule::new(1)
            .with(0, Fault::NodeCrash(NodeId(2)))
            .view_at(&g, 0);
        let report = net.repair(&g, &view);
        // Node 2's crash kills tree edges e1 (1-2) and e2 (2-3) and its
        // subscription; node 3 grafts back over the chord.
        assert_eq!(report.tree_edges_lost, 2);
        assert_eq!(report.dropped_subscriptions, 1);
        assert_eq!(report.reattached_components, 1);
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert_eq!(d.matched_subscriptions, vec![1]);
        assert_eq!(d.receivers, vec![NodeId(3)]);
    }

    #[test]
    fn repair_refreshes_degraded_link_costs() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[(NodeId(3), rect1(0.0, 10.0))]);
        let view = FaultSchedule::new(1)
            .with(
                0,
                Fault::LinkDegrade {
                    edge: EdgeId(0),
                    factor: 3.0,
                },
            )
            .view_at(&g, 0);
        let report = net.repair(&g, &view);
        assert_eq!(report.tree_edges_lost, 0);
        assert_eq!(report.grafted_edges, 0);
        // Delivery now pays the inflated cost on the congested hop.
        let d = net.deliver(NodeId(0), &Point::new(vec![5.0]));
        assert!((d.cost - (3.0 + 1.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn repair_under_healthy_view_is_a_no_op() {
        let g = ring_with_chord();
        let subs = vec![(NodeId(2), rect1(0.0, 10.0)), (NodeId(0), rect1(5.0, 15.0))];
        let mut net = BrokerNetwork::build(&g, &subs);
        let before = net.deliver(NodeId(1), &Point::new(vec![7.0]));
        let report = net.repair(&g, &DegradedView::healthy(&g));
        assert_eq!(report.tree_edges_lost, 0);
        assert_eq!(report.grafted_edges, 0);
        assert_eq!(report.repair_cost, 0.0);
        let after = net.deliver(NodeId(1), &Point::new(vec![7.0]));
        assert_eq!(before, after);
    }

    #[test]
    fn subscribe_after_repair_respects_the_forest() {
        let g = path4();
        let mut net = BrokerNetwork::build(&g, &[]);
        let view = FaultSchedule::new(1)
            .with(0, Fault::LinkDown(EdgeId(1)))
            .view_at(&g, 0);
        net.repair(&g, &view);
        // Subscribing on the far fragment touches only that fragment's
        // single link, and events do not cross the partition.
        let (id, prop) = net.subscribe(NodeId(3), rect1(0.0, 10.0));
        assert_eq!(prop.filters_touched, 1);
        assert!(net
            .deliver(NodeId(0), &Point::new(vec![5.0]))
            .matched_subscriptions
            .is_empty());
        let d = net.deliver(NodeId(2), &Point::new(vec![5.0]));
        assert_eq!(d.matched_subscriptions, vec![id]);
    }
}
