//! Per-event delivery-cost evaluation: the bridge between clusterings
//! and the network cost models.
//!
//! Costs follow Section 5.2 of the paper: the cost of delivering one
//! event is the sum of edge costs on every link the message crosses.
//! All aggregate numbers reported here are *mean cost per event* over
//! the workload's event stream.
//!
//! Every price is written once: [`Covers::price`] prices one event
//! against its route (a cover — grid group or No-Loss region — or
//! unicast) under a [`MulticastMode`], and `Evaluator::price_events` is
//! the one loop that runs it over the event stream in fixed chunks. The
//! baselines, the grid and No-Loss costs and the breakdown all price
//! through them; what differs per caller (the covers, the No-Loss
//! unicast top-up, the tally kept per chunk) is passed in as data.

use netsim::{NodeId, Router, ShortestPathTree, Topology};
use pubsub_core::{
    parallel, BitSet, Clustering, Delivery, GridFramework, GridMatcher, NoLossClustering,
    SubscriptionIndex,
};
use workload::Workload;

/// Fixed per-chunk event count for parallel cost sums. The chunk size is
/// a constant — never derived from the thread count — so partial sums
/// are combined identically no matter how many workers run, keeping
/// every reported figure bit-for-bit reproducible.
const EVENT_CHUNK: usize = 64;

/// Which multicast substrate delivers group traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastMode {
    /// Dense-mode network-supported multicast: the shortest-path tree
    /// rooted at the publisher, pruned to the group (the paper's
    /// assumption: "the routing tree is a shortest path tree rooted at
    /// publisher").
    NetworkSupported,
    /// Application-level multicast: group members form an overlay MST
    /// of unicast paths.
    ApplicationLevel,
    /// Sparse-mode network multicast: one shared tree per group rooted
    /// at a rendezvous point; publishers unicast into the RP. Less
    /// router state (per group instead of per publisher-group), an
    /// entry detour per event.
    SparseMode,
}

/// Mean per-event costs of the three baseline schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCosts {
    /// Each interested node served by its own unicast.
    pub unicast: f64,
    /// Flooding the full shortest-path tree to every node.
    pub broadcast: f64,
    /// A dedicated multicast group per event (the unreachable optimum
    /// that needs up to `2^Ns` groups).
    pub ideal: f64,
}

impl BaselineCosts {
    /// The improvement percentage of a scheme with mean cost `cost`:
    /// 0% = unicast, 100% = ideal multicast (Section 5.2).
    ///
    /// Returns 100 when unicast and ideal coincide (nothing to improve).
    pub fn improvement_pct(&self, cost: f64) -> f64 {
        let denom = self.unicast - self.ideal;
        if denom.abs() < 1e-12 {
            return 100.0;
        }
        100.0 * (self.unicast - cost) / denom
    }
}

/// Detailed accounting of one clustering's delivery behaviour over an
/// event stream (dense-mode multicast).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliveryBreakdown {
    /// Events evaluated.
    pub events: usize,
    /// Events delivered via a multicast group.
    pub multicast_events: usize,
    /// Events delivered by unicast fallback.
    pub unicast_events: usize,
    /// Total cost of the multicast deliveries.
    pub multicast_cost: f64,
    /// Total cost of the unicast deliveries.
    pub unicast_cost: f64,
    /// Mean member-node count of matched groups.
    pub mean_group_nodes: f64,
    /// Mean number of *uninterested* nodes per multicast — the
    /// empirical counterpart of the expected-waste objective.
    pub mean_wasted_nodes: f64,
    /// Mean interested-node count per event (ground truth).
    pub mean_interested_nodes: f64,
}

/// One event's price: what its delivery costs.
#[derive(Debug, Clone, Copy)]
struct Price {
    /// Cost of the multicast to the routed cover; `None` for an event
    /// routed to unicast.
    pub multicast: Option<f64>,
    /// Cost of the unicast: to every interested node when `multicast`
    /// is `None`, else the No-Loss top-up to the interested nodes the
    /// cover misses (`0` when no top-up applies).
    pub unicast: f64,
}

/// The per-cover state a pricing pass reads: each cover's member nodes
/// (sorted) and, for the covers events route to, the overlay tree cost
/// (application-level mode) or the rendezvous point (sparse mode).
struct Covers {
    mode: MulticastMode,
    /// Whether interested nodes outside a routed cover get a unicast
    /// top-up (No-Loss delivery, Figure 6).
    top_up: bool,
    nodes: Vec<Vec<NodeId>>,
    tree: Vec<Option<f64>>,
    rp: Vec<Option<NodeId>>,
}

impl Covers {
    /// Builds the state of the covers `routed` selects, in parallel over
    /// covers. Warm every member of a routed cover in `router` first
    /// unless `mode` is network-supported, or each cold member costs a
    /// Dijkstra run per distance it answers.
    fn new(
        router: &Router,
        nodes: Vec<Vec<NodeId>>,
        mode: MulticastMode,
        top_up: bool,
        routed: impl Fn(usize) -> bool + Sync,
    ) -> Self {
        let n = nodes.len();
        let tree = if mode == MulticastMode::ApplicationLevel {
            parallel::par_map_indexed(n, 4, |c| {
                routed(c).then(|| router.overlay_mst_cost(&nodes[c]))
            })
        } else {
            vec![None; n]
        };
        let rp = if mode == MulticastMode::SparseMode {
            parallel::par_map_indexed(n, 4, |c| {
                routed(c)
                    .then(|| router.rendezvous_point(&nodes[c]))
                    .flatten()
            })
        } else {
            vec![None; n]
        };
        Covers {
            mode,
            top_up,
            nodes,
            tree,
            rp,
        }
    }

    /// The member nodes of cover `c`, sorted.
    fn members(&self, c: usize) -> &[NodeId] {
        &self.nodes[c]
    }

    /// Prices one event from `publisher`: a multicast to cover `route`
    /// (plus the No-Loss top-up when it applies), or a unicast to the
    /// sorted `interested` nodes when `route` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `route` names a cover whose state was not built.
    fn price(
        &self,
        router: &Router,
        publisher: NodeId,
        route: Option<usize>,
        interested: &[NodeId],
    ) -> Price {
        let Some(c) = route else {
            return Price {
                multicast: None,
                unicast: router.unicast_cost(publisher, interested.iter().copied()),
            };
        };
        // A routed cover is never empty — `GridMatcher::match_event`
        // unicasts at group size 0, and a No-Loss region always holds
        // the subscriber whose rectangle seeded it — so it has an RP.
        let members = &self.nodes[c];
        let multicast = match self.mode {
            MulticastMode::NetworkSupported => router.group_multicast_cost(publisher, members),
            MulticastMode::ApplicationLevel => {
                self.tree[c].expect("overlay tree built for every routed cover")
                    + router.entry_cost(publisher, members)
            }
            MulticastMode::SparseMode => router.sparse_multicast_cost(
                publisher,
                self.rp[c].expect("a routed cover is never empty, so it has an RP"),
                members,
            ),
        };
        let unicast = if self.top_up {
            let missed = interested
                .iter()
                .copied()
                .filter(|n| members.binary_search(n).is_err());
            router.unicast_cost(publisher, missed)
        } else {
            0.0
        };
        Price {
            multicast: Some(multicast),
            unicast,
        }
    }
}

/// Adds an event's price to a running cost, multicast first.
fn add_cost(acc: &mut f64, _event: usize, price: Price) {
    if let Some(m) = price.multicast {
        *acc += m;
    }
    *acc += price.unicast;
}

/// A delivery-cost evaluator bound to one topology and one workload.
///
/// Caches per-event interested sets and per-publisher shortest-path
/// trees, so evaluating many clusterings over the same scenario is
/// cheap. Event evaluation fans out across threads (see
/// [`pubsub_core::parallel`]): shortest-path trees are computed in
/// parallel once per source and inserted into the [`Router`], then
/// per-event costs are summed in fixed-size chunks against it.
pub struct Evaluator<'a> {
    topo: &'a Topology,
    workload: &'a Workload,
    router: Router<'a>,
    /// Interested subscription ids per event (aligned with
    /// `workload.events`).
    interested_subs: Vec<BitSet>,
    /// Deduplicated interested nodes per event.
    interested_nodes: Vec<Vec<NodeId>>,
}

impl<'a> Evaluator<'a> {
    /// Builds the evaluator, precomputing the exact interested set of
    /// every event via an R-tree subscription index (the matching
    /// problem of Section 4.6; equivalent to — and tested against —
    /// the brute-force scan). Events are matched in parallel.
    pub fn new(topo: &'a Topology, workload: &'a Workload) -> Self {
        let ns = workload.subscriptions.len();
        let rects: Vec<geometry::Rect> = workload
            .subscriptions
            .iter()
            .map(|s| s.rect.clone())
            .collect();
        let index = SubscriptionIndex::build(&rects);
        let per_chunk = parallel::par_chunks(workload.events.len(), EVENT_CHUNK, |range| {
            // One match buffer per chunk: `matching_into` clears and
            // refills it, so the hot loop stays allocation-free.
            let mut matched: Vec<usize> = Vec::new();
            let mut out = Vec::with_capacity(range.len());
            for e in range {
                index.matching_into(&workload.events[e].point, &mut matched);
                let mut nodes: Vec<NodeId> = matched
                    .iter()
                    .map(|&i| workload.subscriptions[i].node)
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                out.push((BitSet::from_members(ns, matched.iter().copied()), nodes));
            }
            out
        });
        let mut interested_subs = Vec::with_capacity(workload.events.len());
        let mut interested_nodes = Vec::with_capacity(workload.events.len());
        for (subs, nodes) in per_chunk.into_iter().flatten() {
            interested_subs.push(subs);
            interested_nodes.push(nodes);
        }
        Evaluator {
            topo,
            workload,
            router: Router::new(topo.graph()),
            interested_subs,
            interested_nodes,
        }
    }

    /// Ensures the router holds a shortest-path tree for every source in
    /// `sources`, computing the missing ones in parallel.
    fn ensure_spts(&mut self, sources: impl IntoIterator<Item = NodeId>) {
        let mut missing: Vec<NodeId> = sources
            .into_iter()
            .filter(|&s| self.router.spt(s).is_none())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        let graph = self.topo.graph();
        let spts = parallel::par_map(&missing, 2, |&s| ShortestPathTree::compute(graph, s));
        for spt in spts {
            self.router.insert_spt(spt);
        }
    }

    /// Member-node lists of every group-like membership set, sorted and
    /// deduplicated, computed in parallel.
    fn member_nodes<'m>(
        &self,
        memberships: impl IntoIterator<Item = &'m BitSet>,
    ) -> Vec<Vec<NodeId>> {
        let memberships: Vec<&BitSet> = memberships.into_iter().collect();
        let subscriptions = &self.workload.subscriptions;
        parallel::par_map(&memberships, 8, |members| {
            let mut nodes: Vec<NodeId> = members.iter().map(|i| subscriptions[i].node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        })
    }

    /// Every event's route, in event order, from `route(event)`. Chunks
    /// are the fixed `EVENT_CHUNK`, so routes and ordering are
    /// thread-count independent.
    fn routes(&self, route: impl Fn(usize) -> Option<usize> + Sync) -> Vec<Option<usize>> {
        // lint: hot-path
        parallel::par_chunks(self.num_events(), EVENT_CHUNK, |range| {
            let mut out = Vec::with_capacity(range.len());
            out.extend(range.map(&route));
            out
        })
        // lint: hot-path end
        .concat()
    }

    /// The Figure 5 route of every event: [`GridMatcher::match_event`]
    /// over the precomputed interested sets, `Some(group)` for a
    /// multicast.
    fn grid_routes(
        &self,
        framework: &GridFramework,
        clustering: &Clustering,
        threshold: f64,
    ) -> Vec<Option<usize>> {
        let (events, subs) = (&self.workload.events, &self.interested_subs);
        let matcher = GridMatcher::new(framework, clustering).with_threshold(threshold);
        self.routes(|e| match matcher.match_event(&events[e].point, &subs[e]) {
            Delivery::Multicast { group } => Some(group),
            Delivery::Unicast => None,
        })
    }

    /// The Figure 6 route of every event: the heaviest No-Loss region
    /// containing it.
    fn noloss_routes(&self, clustering: &NoLossClustering) -> Vec<Option<usize>> {
        let events = &self.workload.events;
        self.routes(|e| clustering.match_event(&events[e].point))
    }

    /// The cover state of `nodes` under `mode`, built for the covers
    /// some event routes to, after warming every tree the pricing pass
    /// will read (each publisher's, and in overlay or sparse mode each
    /// routed cover member's).
    fn covers(
        &mut self,
        nodes: Vec<Vec<NodeId>>,
        routes: &[Option<usize>],
        mode: MulticastMode,
        top_up: bool,
    ) -> Covers {
        let mut routed = vec![false; nodes.len()];
        for &c in routes.iter().flatten() {
            routed[c] = true;
        }
        let mut warm: Vec<NodeId> = self.workload.events.iter().map(|e| e.publisher).collect();
        if mode != MulticastMode::NetworkSupported {
            for (c, members) in nodes.iter().enumerate() {
                if routed[c] {
                    warm.extend(members.iter().copied());
                }
            }
        }
        self.ensure_spts(warm);
        Covers::new(&self.router, nodes, mode, top_up, |c| routed[c])
    }

    /// The one per-event pricing loop: prices every event against
    /// `routes` and `covers`, folding each price into a per-chunk tally
    /// with `tally(&mut partial, event, price)`. Chunks are the fixed
    /// `EVENT_CHUNK` and the tallies come back in chunk order, so a
    /// caller that folds them left to right gets the same bits at any
    /// thread count.
    fn price_events<P: Default + Send>(
        &self,
        covers: &Covers,
        routes: &[Option<usize>],
        tally: impl Fn(&mut P, usize, Price) + Sync,
    ) -> Vec<P> {
        let stream = &self.workload.events;
        let inodes = &self.interested_nodes;
        let router = &self.router;
        // lint: hot-path
        parallel::par_chunks(self.num_events(), EVENT_CHUNK, |range| {
            let mut partial = P::default();
            for e in range {
                let price = covers.price(router, stream[e].publisher, routes[e], &inodes[e]);
                tally(&mut partial, e, price);
            }
            partial
        })
        // lint: hot-path end
    }

    /// Mean per-event cost of the whole stream routed by `routes`.
    fn mean_cost(&self, covers: &Covers, routes: &[Option<usize>]) -> f64 {
        let n = self.num_events();
        let total: f64 = self
            .price_events(covers, routes, add_cost)
            .into_iter()
            // lint: allow(float-det): the partials come from par_chunks'
            // fixed EVENT_CHUNK decomposition, returned in chunk order;
            // this serial sum folds them in that fixed order, so the
            // result is bit-identical at any thread count.
            .sum();
        total / n.max(1) as f64
    }

    /// Number of events in the stream.
    pub fn num_events(&self) -> usize {
        self.workload.events.len()
    }

    /// Mean per-event cost of the three baseline schemes: unicast
    /// routes no event to a cover, broadcast routes every event to one
    /// cover of every node, and ideal multicast routes each event to a
    /// cover of exactly its interested nodes.
    pub fn baseline_costs(&mut self) -> BaselineCosts {
        let n = self.num_events();
        let (none, all) = (vec![None; n], vec![Some(0); n]);
        let own: Vec<Option<usize>> = (0..n).map(Some).collect();
        let dense = MulticastMode::NetworkSupported;
        let unicast = self.covers(Vec::new(), &none, dense, false);
        let everyone = vec![self.topo.graph().nodes().collect()];
        let broadcast = self.covers(everyone, &all, dense, false);
        let ideal = self.covers(self.interested_nodes.clone(), &own, dense, false);
        BaselineCosts {
            unicast: self.mean_cost(&unicast, &none),
            broadcast: self.mean_cost(&broadcast, &all),
            ideal: self.mean_cost(&ideal, &own),
        }
    }

    /// Mean per-event cost of delivering through a grid-based
    /// clustering: events are matched by cell, multicast to the matched
    /// group (under `mode`) or unicast to the interested nodes when no
    /// group matches / the `threshold` optimization rejects the group.
    pub fn grid_clustering_cost(
        &mut self,
        framework: &GridFramework,
        clustering: &Clustering,
        threshold: f64,
        mode: MulticastMode,
    ) -> f64 {
        let nodes = self.member_nodes(clustering.groups().iter().map(|g| &g.members));
        let routes = self.grid_routes(framework, clustering, threshold);
        let covers = self.covers(nodes, &routes, mode, false);
        self.mean_cost(&covers, &routes)
    }

    /// Detailed per-event accounting for a grid clustering under
    /// dense-mode multicast: where the cost goes and how much of it is
    /// waste. Complements [`Evaluator::grid_clustering_cost`] (which
    /// reports only the mean) for diagnostics and reports.
    pub fn grid_clustering_breakdown(
        &mut self,
        framework: &GridFramework,
        clustering: &Clustering,
        threshold: f64,
    ) -> DeliveryBreakdown {
        let nodes = self.member_nodes(clustering.groups().iter().map(|g| &g.members));
        let routes = self.grid_routes(framework, clustering, threshold);
        let covers = self.covers(nodes, &routes, MulticastMode::NetworkSupported, false);
        let inodes = &self.interested_nodes;
        let n = self.num_events();
        // Chunk tallies fold in chunk order (fixed chunk size, so
        // thread-count independent). Until the division below, the
        // `mean_*` fields hold sums of node counts, which f64 adds
        // exactly.
        let partials =
            self.price_events(&covers, &routes, |p: &mut DeliveryBreakdown, e, price| {
                p.mean_interested_nodes += inodes[e].len() as f64;
                match (routes[e], price.multicast) {
                    (Some(c), Some(cost)) => {
                        p.multicast_events += 1;
                        p.multicast_cost += cost;
                        let members = covers.members(c);
                        p.mean_group_nodes += members.len() as f64;
                        // Nodes in the group that have no interested
                        // subscription for this event receive waste.
                        let wasted = members
                            .iter()
                            .filter(|n| inodes[e].binary_search(n).is_err());
                        p.mean_wasted_nodes += wasted.count() as f64;
                    }
                    _ => {
                        p.unicast_events += 1;
                        p.unicast_cost += price.unicast;
                    }
                }
            });
        let mut out = DeliveryBreakdown {
            events: n,
            ..DeliveryBreakdown::default()
        };
        for p in partials {
            out.multicast_events += p.multicast_events;
            out.unicast_events += p.unicast_events;
            out.multicast_cost += p.multicast_cost;
            out.unicast_cost += p.unicast_cost;
            out.mean_group_nodes += p.mean_group_nodes;
            out.mean_interested_nodes += p.mean_interested_nodes;
            out.mean_wasted_nodes += p.mean_wasted_nodes;
        }
        if out.multicast_events > 0 {
            out.mean_group_nodes /= out.multicast_events as f64;
            out.mean_wasted_nodes /= out.multicast_events as f64;
        }
        if out.events > 0 {
            out.mean_interested_nodes /= out.events as f64;
        }
        out
    }

    /// Mean per-event cost of delivering through a No-Loss clustering
    /// (Figure 6 of the paper): multicast to the heaviest matching
    /// region's subscribers, unicast to the remaining interested nodes.
    pub fn noloss_cost(&mut self, clustering: &NoLossClustering, mode: MulticastMode) -> f64 {
        let nodes = self.member_nodes(clustering.regions().iter().map(|r| &r.subscribers));
        let routes = self.noloss_routes(clustering);
        let covers = self.covers(nodes, &routes, mode, true);
        self.mean_cost(&covers, &routes)
    }
}

/// Test-only: the unit tests below check the breakdown against the
/// evaluator's mean cost.
#[cfg(test)]
impl DeliveryBreakdown {
    /// Mean total cost per event.
    fn mean_cost(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            (self.multicast_cost + self.unicast_cost) / self.events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TransitStubParams;
    use pubsub_core::{CellProbability, ClusteringAlgorithm, KMeans, KMeansVariant, NoLossConfig};
    use rand::prelude::*;
    use workload::{PredicateDist, Section3Model};

    fn scenario() -> (Topology, Workload) {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
        let model = Section3Model {
            regionalism: 0.4,
            dist: PredicateDist::Uniform,
            num_subscriptions: 200,
            num_events: 60,
        };
        let w = model.generate(&topo, &mut rng);
        (topo, w)
    }

    fn framework(w: &Workload) -> GridFramework {
        let grid = geometry::Grid::new(w.bounds.clone(), w.suggested_bins.clone()).unwrap();
        let rects: Vec<geometry::Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let sample: Vec<geometry::Point> = w.events.iter().map(|e| e.point.clone()).collect();
        let probs = CellProbability::empirical(&grid, &sample);
        GridFramework::build(grid, &rects, &probs, Some(2000))
    }

    fn noloss(w: &Workload) -> NoLossClustering {
        let rects: Vec<geometry::Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let sample: Vec<geometry::Point> = w.events.iter().map(|e| e.point.clone()).collect();
        NoLossClustering::build(
            &rects,
            &sample,
            &NoLossConfig {
                max_rects: 500,
                iterations: 3,
                max_candidates_per_round: 50_000,
            },
            50,
        )
    }

    #[test]
    fn every_multicast_route_targets_a_non_empty_cover() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let nl = noloss(&w);
        let ev = Evaluator::new(&topo, &w);
        let mut cases = vec![(
            ev.noloss_routes(&nl),
            ev.member_nodes(nl.regions().iter().map(|r| &r.subscribers)),
        )];
        // More groups than occupied cells leaves some groups empty.
        for k in [30, 400] {
            let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, k);
            cases.push((
                ev.grid_routes(&fw, &clustering, 0.0),
                ev.member_nodes(clustering.groups().iter().map(|g| &g.members)),
            ));
        }
        for (routes, nodes) in cases {
            let routed: Vec<usize> = routes.iter().flatten().copied().collect();
            assert!(!routed.is_empty(), "no event was multicast");
            for c in routed {
                assert!(!nodes[c].is_empty(), "event routed to empty cover {c}");
            }
        }
    }

    #[test]
    fn baselines_are_ordered() {
        let (topo, w) = scenario();
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        assert!(
            b.ideal <= b.unicast + 1e-9,
            "ideal {} > unicast {}",
            b.ideal,
            b.unicast
        );
        assert!(b.ideal <= b.broadcast + 1e-9);
        assert!(b.unicast > 0.0);
    }

    #[test]
    fn improvement_pct_endpoints() {
        let b = BaselineCosts {
            unicast: 100.0,
            broadcast: 80.0,
            ideal: 20.0,
        };
        assert_eq!(b.improvement_pct(100.0), 0.0);
        assert_eq!(b.improvement_pct(20.0), 100.0);
        assert_eq!(b.improvement_pct(60.0), 50.0);
        let degenerate = BaselineCosts {
            unicast: 50.0,
            broadcast: 50.0,
            ideal: 50.0,
        };
        assert_eq!(degenerate.improvement_pct(50.0), 100.0);
    }

    #[test]
    fn clustered_multicast_between_unicast_and_ideal() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 30);
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        let cost = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::NetworkSupported);
        // Clustered delivery can't beat per-event ideal groups.
        assert!(cost >= b.ideal - 1e-9, "cost {cost} < ideal {}", b.ideal);
        // And with a sane clustering it should beat plain unicast here
        // (regional workload on a 100-node net).
        assert!(
            cost <= b.unicast * 1.5,
            "cost {cost} vs unicast {}",
            b.unicast
        );
    }

    #[test]
    fn app_level_costs_are_sane_and_close_to_network_level() {
        // No strict dominance holds in either direction (the pruned SPT
        // is not a Steiner tree), but on real scenarios the two levels
        // must be in the same ballpark and both above the ideal.
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 30);
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        let net = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::NetworkSupported);
        let app = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::ApplicationLevel);
        assert!(net >= b.ideal - 1e-9);
        assert!(app >= b.ideal - 1e-9);
        assert!(app <= 3.0 * net, "app {app} wildly above net {net}");
    }

    #[test]
    fn threshold_one_reduces_to_unicast_of_interested() {
        // With threshold 1.0, multicast only fires when every group
        // member is interested; costs must be <= pure unicast (it picks
        // the better of the two per event).
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 30);
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        let cost = ev.grid_clustering_cost(&fw, &clustering, 1.0, MulticastMode::NetworkSupported);
        assert!(cost <= b.unicast + 1e-9);
    }

    #[test]
    fn breakdown_is_consistent_with_mean_cost() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 30);
        let mut ev = Evaluator::new(&topo, &w);
        let mean = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::NetworkSupported);
        let bd = ev.grid_clustering_breakdown(&fw, &clustering, 0.0);
        assert_eq!(bd.events, w.events.len());
        assert_eq!(bd.multicast_events + bd.unicast_events, bd.events);
        assert!(
            (bd.mean_cost() - mean).abs() < 1e-9,
            "{} vs {mean}",
            bd.mean_cost()
        );
        // The group is a superset of the interested nodes, so waste is
        // at most the group size.
        assert!(bd.mean_wasted_nodes <= bd.mean_group_nodes);
        // Empty breakdown is well-behaved.
        let empty = DeliveryBreakdown::default();
        assert_eq!(empty.mean_cost(), 0.0);
    }

    #[test]
    fn sparse_mode_costs_are_sane() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 30);
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        let sparse = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::SparseMode);
        assert!(sparse.is_finite());
        assert!(
            sparse >= b.ideal - 1e-9,
            "sparse {sparse} < ideal {}",
            b.ideal
        );
    }

    #[test]
    fn noloss_cost_is_bounded_by_unicast_factor() {
        let (topo, w) = scenario();
        let nl = noloss(&w);
        let mut ev = Evaluator::new(&topo, &w);
        let b = ev.baseline_costs();
        let cost = ev.noloss_cost(&nl, MulticastMode::NetworkSupported);
        assert!(cost >= b.ideal - 1e-9);
        // No-loss delivery covers every interested node (group + top-up),
        // so it can't exceed unicast by the multicast detour alone; the
        // group tree shares edges, so it should in fact be cheaper or
        // equal on average.
        assert!(
            cost <= b.unicast + 1e-9,
            "cost {cost} vs unicast {}",
            b.unicast
        );
    }
}
