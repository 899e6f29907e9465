//! The broker routing tree: per-link subscription filters and
//! hop-by-hop event forwarding.

use geometry::{Point, Rect};
use netsim::{Graph, NodeId, UnionFind};
use spatial::RTree;

/// One directed link of the broker tree: the neighbor it leads to, the
/// edge cost, and a spatial index over the subscription rectangles
/// registered somewhere behind that neighbor.
#[derive(Debug, Clone)]
struct TreeLink {
    to: NodeId,
    cost: f64,
    /// Index over the behind-set; `None` when no subscription lives
    /// behind this link (the link never forwards).
    filter: Option<RTree<usize>>,
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
    /// Filter entries summed over all directed links. Each subscription
    /// appears once per link it lies behind — `O(subscriptions × links)`
    /// in the worst case. An unsubscribed entry stays installed until
    /// the next [`BrokerNetwork::build`] (unsubscription is lazy), so it
    /// still counts here.
    pub total_filter_entries: usize,
    /// The largest single link's filter.
    pub max_link_entries: usize,
}

/// A content-based broker network over the minimum spanning tree of
/// the underlying graph.
///
/// # Examples
///
/// ```
/// use broker::BrokerNetwork;
/// use geometry::{Interval, Point, Rect};
/// use netsim::Graph;
///
/// let mut g = Graph::new();
/// let [a, b, c] = [(); 3].map(|_| g.add_node());
/// g.add_edge(a, b, 1.0)?;
/// g.add_edge(b, c, 1.0)?;
/// let subs = vec![(c, Rect::new(vec![Interval::new(0.0, 10.0)?]))];
/// let net = BrokerNetwork::build(&g, &subs);
/// let d = net.deliver(a, &Point::new(vec![5.0]));
/// assert_eq!(d.receivers, vec![c]);
/// assert_eq!(d.cost, 2.0); // two hops along the tree
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BrokerNetwork {
    /// Tree adjacency, indexed by node.
    adj: Vec<Vec<TreeLink>>,
    /// Live subscriptions homed at each node.
    at_node: Vec<Vec<usize>>,
    /// All subscription rectangles (id = slice position; tombstoned
    /// entries stay for id stability).
    rects: Vec<Rect>,
    /// Home node per subscription id.
    homes: Vec<NodeId>,
    /// Liveness per subscription id (unsubscribed = false).
    alive: Vec<bool>,
    /// Euler-tour intervals and parents of the tree rooted at broker 0
    /// (used to route filter updates on subscribe).
    tin: Vec<usize>,
    tout: Vec<usize>,
    parent: Vec<usize>,
    dim: usize,
}

impl BrokerNetwork {
    /// Builds the broker network: computes the graph's minimum spanning
    /// tree, roots it at broker 0, and installs per-link filters (the
    /// union of subscription rectangles behind each link).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected, a subscription names an
    /// unknown node, or subscriptions disagree on dimension.
    pub fn build(graph: &Graph, subscriptions: &[(NodeId, Rect)]) -> Self {
        let n = graph.num_nodes();
        assert!(n > 0, "graph must have nodes");
        assert!(graph.is_connected(), "broker tree needs a connected graph");
        let dim = subscriptions.first().map_or(1, |(_, r)| r.dim());
        for (node, rect) in subscriptions {
            assert!(node.index() < n, "subscription at unknown node {node}");
            assert_eq!(rect.dim(), dim, "subscription dimension mismatch");
        }

        // 1. The minimum spanning tree (Kruskal).
        let mut tree_adj: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
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
                tree_adj[e.u.index()].push((e.v, e.cost));
                tree_adj[e.v.index()].push((e.u, e.cost));
            }
        }

        // 2. Root the tree at 0 and compute an Euler tour so "home is in
        //    the subtree of v" is an O(1) interval test.
        let mut tin = vec![0usize; n];
        let mut tout = vec![0usize; n];
        let mut parent = vec![usize::MAX; n];
        let mut timer = 0usize;
        // Iterative DFS (600-node trees can be deep).
        let mut stack = vec![(0usize, false)];
        while let Some((u, processed)) = stack.pop() {
            if processed {
                tout[u] = timer;
                timer += 1;
                continue;
            }
            tin[u] = timer;
            timer += 1;
            stack.push((u, true));
            for &(v, _) in &tree_adj[u] {
                if v.index() != parent[u] {
                    parent[v.index()] = u;
                    stack.push((v.index(), false));
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
            tin,
            tout,
            parent,
            dim,
        };

        // 3. Per-link behind-sets: the subscriptions reachable through
        //    each directed tree edge.
        net.adj = (0..n)
            .map(|u| {
                tree_adj[u]
                    .iter()
                    .map(|&(v, cost)| {
                        let behind: Vec<(Rect, usize)> = (0..net.rects.len())
                            .filter(|&i| net.behind_link(u, v.index(), net.homes[i].index()))
                            .map(|i| (net.rects[i].clone(), i))
                            .collect();
                        let filter = if behind.is_empty() {
                            None
                        } else {
                            Some(RTree::bulk_load(dim, behind))
                        };
                        TreeLink {
                            to: v,
                            cost,
                            filter,
                        }
                    })
                    .collect()
            })
            .collect();
        net
    }

    fn in_subtree(&self, root: usize, node: usize) -> bool {
        self.tin[root] <= self.tin[node] && self.tout[node] <= self.tout[root]
    }

    /// Whether a subscription homed at `h` lies behind the directed
    /// link `u → v`: in v's subtree when v is u's child, otherwise
    /// outside u's subtree.
    fn behind_link(&self, u: usize, v: usize, h: usize) -> bool {
        if self.parent[v] == u {
            self.in_subtree(v, h)
        } else {
            !self.in_subtree(u, h)
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

    /// Number of brokers (graph nodes).
    pub fn num_brokers(&self) -> usize {
        self.adj.len()
    }

    /// Number of live subscriptions (unsubscribed ones excluded).
    pub fn num_subscriptions(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
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
    /// Entries of unsubscribed ids count until the next build, because
    /// unsubscription leaves them installed.
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

    /// `n` isolated nodes.
    fn isolated(n: usize) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Path graph 0-1-2-3 with unit costs.
    fn path4() -> Graph {
        let mut g = isolated(4);
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
    fn unsubscribed_entries_count_as_state_until_a_rebuild() {
        let g = path4();
        let subs = [(NodeId(3), rect1(0.0, 10.0)), (NodeId(0), rect1(5.0, 15.0))];
        let mut net = BrokerNetwork::build(&g, &subs);
        let before = net.state_size();
        assert_eq!(before.total_filter_entries, 6);
        net.unsubscribe(0);
        // The filters keep the tombstoned entry; only liveness changes.
        assert_eq!(net.state_size(), before);
        assert_eq!(net.num_subscriptions(), 1);
        // A rebuild from the live set drops it.
        let rebuilt = BrokerNetwork::build(&g, &subs[1..]);
        assert_eq!(rebuilt.state_size().total_filter_entries, 3);
        assert_eq!(rebuilt.num_subscriptions(), 1);
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
        let g = isolated(2);
        let _ = BrokerNetwork::build(&g, &[]);
    }
}
