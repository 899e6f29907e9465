//! Failure-aware delivery: fault schedules, degraded routing, bounded
//! retries and per-member unicast fallback.
//!
//! The paper's evaluation assumes a fault-free network. This module
//! re-runs the same per-event pricing pass as [`crate::Evaluator`]
//! under a [`FaultSchedule`]: the event stream is partitioned into
//! epochs, each epoch sees a cumulative [`DegradedView`] of the
//! topology, and routing state (the per-publisher shortest-path trees)
//! is repaired incrementally between epochs by [`Router::set_view`] —
//! the invalidation its property test holds to a cold recompute. Members whose path crosses a degraded
//! link may lose the primary copy; the publisher retries with
//! exponential backoff and finally falls back to a dedicated unicast
//! ([`MAX_RETRIES`] and the constants beside it). The resulting
//! [`ResilienceBreakdown`] accounts for every interested subscriber
//! node of every event: per event, `delivered + fallback_deliveries +
//! dropped` partitions the interested set exactly.
//!
//! With an empty schedule the whole machinery is a strict no-op: a
//! healthy epoch prices on the evaluator's own router through the same
//! pass, in the same chunk order, as
//! [`crate::Evaluator::grid_clustering_breakdown`], so the
//! multicast/unicast cost fields are bit-for-bit identical.

use std::collections::HashMap;

use netsim::{DegradedView, EdgeId, FaultSchedule, Graph, NodeId, Router, ShortestPathTree};
use pubsub_core::{
    parallel, Clustering, DynamicClustering, DynamicError, GridFramework, SubscriptionId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delivery::{DeliveryBreakdown, Evaluator, MulticastMode};

/// How a publisher reacts to a lost primary copy: at most
/// `MAX_RETRIES` retransmissions with exponential backoff, then a
/// dedicated per-member unicast fallback.
///
/// Losses are only possible on paths that cross a degraded link; links
/// that are *down* reroute (or partition) instead of losing copies.
pub const MAX_RETRIES: u32 = 3;
/// Per-attempt loss probability on a degraded path.
pub const LOSS_PROB: f64 = 0.3;
/// Probability that a successful retry also delivers a duplicate (the
/// original copy was late, not lost).
const DUPLICATE_PROB: f64 = 0.05;
/// Base of the exponential backoff: retry `r` waits `BACKOFF_BASE^r`
/// abstract time units.
pub const BACKOFF_BASE: f64 = 2.0;

/// Backoff units waited before retry `r` (1-based).
fn backoff_at(r: u32) -> f64 {
    BACKOFF_BASE.powi(r as i32)
}

/// Per-event accounting of a grid clustering under a fault schedule.
///
/// Cost fields extend [`DeliveryBreakdown`]'s: `multicast_cost` and
/// `unicast_cost` are the primary transmissions (bit-identical to the
/// fault-free breakdown when the schedule is empty), `retry_cost` /
/// `fallback_cost` the recovery traffic, and `repair_traffic` the
/// control-plane cost of re-installing routing trees between epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceBreakdown {
    /// Total events evaluated.
    pub events: usize,
    /// Epochs in the schedule.
    pub epochs: usize,
    /// Epochs whose view had at least one active fault.
    pub faulty_epochs: usize,
    /// Events delivered by group multicast.
    pub multicast_events: usize,
    /// Events delivered by per-node unicast.
    pub unicast_events: usize,
    /// Primary multicast transmission cost.
    pub multicast_cost: f64,
    /// Primary unicast transmission cost.
    pub unicast_cost: f64,
    /// Cost of retransmissions along the degraded path.
    pub retry_cost: f64,
    /// Cost of dedicated per-member unicast fallbacks.
    pub fallback_cost: f64,
    /// Cost of tree edges newly installed when routing state was
    /// repaired at an epoch boundary.
    pub repair_traffic: f64,
    /// Shortest-path trees recomputed against a degraded view.
    pub spt_rebuilds: usize,
    /// Sum over events of interested subscriber nodes.
    pub interested: usize,
    /// Members that received the primary copy (possibly after retries).
    pub delivered: usize,
    /// Members that only received via the unicast fallback.
    pub fallback_deliveries: usize,
    /// Members that never received the event (no surviving path).
    pub dropped: usize,
    /// Duplicate copies delivered by late originals after a retry.
    pub duplicated: usize,
    /// Total retransmission attempts.
    pub retry_attempts: usize,
    /// Total abstract backoff time spent waiting between retries.
    pub backoff_units: f64,
}

impl ResilienceBreakdown {
    /// Fraction of interested members that got the event, through any
    /// path (`1.0` when nothing was dropped; `1.0` on an empty run).
    pub fn delivery_rate(&self) -> f64 {
        if self.interested == 0 {
            1.0
        } else {
            (self.delivered + self.fallback_deliveries) as f64 / self.interested as f64
        }
    }

    /// All traffic: primary, retries, fallbacks and repair.
    pub fn total_cost(&self) -> f64 {
        self.multicast_cost
            + self.unicast_cost
            + self.retry_cost
            + self.fallback_cost
            + self.repair_traffic
    }

    /// Mean total cost per event.
    pub fn mean_cost(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_cost() / self.events as f64
        }
    }

    /// Relative cost increase over the fault-free breakdown of the same
    /// clustering (`0.0` = no inflation, `0.5` = 50% more traffic).
    pub fn inflation_vs(&self, baseline: &DeliveryBreakdown) -> f64 {
        let base = baseline.multicast_cost + baseline.unicast_cost;
        if base <= 0.0 {
            0.0
        } else {
            self.total_cost() / base - 1.0
        }
    }
}

impl ResilienceBreakdown {
    /// Adds one chunk's per-event tallies (chunks fold in chunk order;
    /// see [`crate::delivery`]'s determinism note).
    fn add_chunk(&mut self, p: ResilienceBreakdown) {
        self.multicast_events += p.multicast_events;
        self.unicast_events += p.unicast_events;
        self.multicast_cost += p.multicast_cost;
        self.unicast_cost += p.unicast_cost;
        self.retry_cost += p.retry_cost;
        self.fallback_cost += p.fallback_cost;
        self.interested += p.interested;
        self.delivered += p.delivered;
        self.fallback_deliveries += p.fallback_deliveries;
        self.dropped += p.dropped;
        self.duplicated += p.duplicated;
        self.retry_attempts += p.retry_attempts;
        self.backoff_units += p.backoff_units;
    }
}

/// Mixes the fault seed with an event index into an independent
/// per-event stream, so draws are identical at any thread count.
fn event_rng(fault_seed: u64, event: usize) -> StdRng {
    StdRng::seed_from_u64(fault_seed ^ (event as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Whether the tree path from the source to `m` crosses a degraded
/// (but live) link. Walks parent pointers; allocation-free.
fn path_is_lossy(spt: &ShortestPathTree, view: &DegradedView, m: NodeId) -> bool {
    let mut cur = m;
    while let Some((p, e)) = spt.parent(cur) {
        if view.edge_degraded(e) {
            return true;
        }
        cur = p;
    }
    false
}

/// Resolves one interested member against the epoch's routing tree:
/// primary copy, retries, fallback or drop. Exactly one of
/// `delivered`, `fallback_deliveries`, `dropped` is incremented.
fn resolve_member(
    spt: &ShortestPathTree,
    view: &DegradedView,
    rng: &mut StdRng,
    m: NodeId,
    p: &mut ResilienceBreakdown,
) {
    if !spt.is_reachable(m) {
        // No surviving path (crashed member or partition): the
        // publisher retries into the void, backs off, and gives up.
        p.retry_attempts += MAX_RETRIES as usize;
        p.backoff_units += (1..=MAX_RETRIES).map(backoff_at).sum::<f64>();
        p.dropped += 1;
        return;
    }
    if !path_is_lossy(spt, view, m) {
        // Healthy path: the primary copy always arrives.
        p.delivered += 1;
        return;
    }
    if !rng.gen_bool(LOSS_PROB) {
        p.delivered += 1;
        return;
    }
    for r in 1..=MAX_RETRIES {
        p.retry_attempts += 1;
        p.backoff_units += backoff_at(r);
        p.retry_cost += spt.distance(m);
        if !rng.gen_bool(LOSS_PROB) {
            p.delivered += 1;
            if rng.gen_bool(DUPLICATE_PROB) {
                p.duplicated += 1;
            }
            return;
        }
    }
    // Retries exhausted: dedicated reliable unicast along the same
    // surviving (degraded) shortest path.
    p.fallback_deliveries += 1;
    p.fallback_cost += spt.distance(m);
}

/// Cost of installing `new_tree`'s edges that `old_edges` did not
/// already carry — the control traffic of an epoch-boundary repair.
fn install_cost(
    new_tree: &ShortestPathTree,
    old_edges: &[EdgeId],
    view: &DegradedView,
    g: &Graph,
) -> f64 {
    let mut old = vec![false; g.num_edges()];
    for &e in old_edges {
        old[e.index()] = true;
    }
    new_tree
        .tree_edges()
        .filter(|e| !old[e.index()])
        .map(|e| view.edge_cost(g, e))
        .filter(|c| c.is_finite())
        .sum()
}

impl<'a> Evaluator<'a> {
    /// Evaluates a grid clustering under a fault schedule.
    ///
    /// The event stream is split into `schedule.num_epochs()` equal
    /// contiguous epochs (event `e` lands in epoch
    /// `e * epochs / num_events`). Each epoch's cumulative
    /// [`DegradedView`] governs routing: the per-publisher
    /// shortest-path trees of an epoch [`Router`] are invalidated
    /// incrementally by [`Router::set_view`] at epoch boundaries (only
    /// trees crossing a changed edge — or any tree, after a repair that
    /// can shorten paths — are recomputed), and the newly installed
    /// tree edges are charged to `repair_traffic`.
    ///
    /// All randomness (loss, duplicates) derives from `fault_seed`
    /// mixed per event, never from thread scheduling: results are
    /// bit-identical at any `PUBSUB_THREADS`. With an empty schedule
    /// the cost fields are bit-identical to
    /// [`Evaluator::grid_clustering_breakdown`].
    pub fn resilience_breakdown(
        &mut self,
        framework: &GridFramework,
        clustering: &Clustering,
        threshold: f64,
        schedule: &FaultSchedule,
        fault_seed: u64,
    ) -> ResilienceBreakdown {
        let events = &self.workload.events;
        let n = events.len();
        let nodes = self.member_nodes(clustering.groups().iter().map(|g| &g.members));
        let routes = self.grid_routes(framework, clustering, threshold);
        // Healthy trees for every publisher: the routing state all
        // brokers start from (and return to in healthy epochs).
        let covers = self.covers(nodes, &routes, MulticastMode::NetworkSupported, false);

        let g = self.topo.graph();
        let views = schedule.views(g);
        let mut out = ResilienceBreakdown {
            events: n,
            epochs: views.len(),
            ..ResilienceBreakdown::default()
        };
        let healthy = &self.router;
        // Routing state under the faulty views: trees recomputed against
        // the degraded graph, invalidated at each epoch boundary.
        let mut degraded = Router::new(g);
        let inodes = &self.interested_nodes;

        for (epoch, view) in views.into_iter().enumerate() {
            // Events of this epoch: a contiguous equal split.
            let lo = epoch * n / out.epochs;
            let hi = (epoch + 1) * n / out.epochs;
            let mut needed: Vec<NodeId> = events[lo..hi].iter().map(|e| e.publisher).collect();
            needed.sort_unstable();
            needed.dedup();

            // Old routing state of the sources this epoch reads (the
            // degraded tree still held, else the healthy tree), and the
            // sources whose tree the epoch replaces: going back to a
            // healthy tree is a repair too.
            let mut old_edges_by_source: HashMap<NodeId, Vec<EdgeId>> = HashMap::new();
            let mut replaced: Vec<NodeId> = Vec::new();
            for &s in &needed {
                let held = degraded.spt(s);
                if held.is_some() {
                    replaced.push(s);
                }
                if let Some(t) = held.or_else(|| healthy.spt(s)) {
                    old_edges_by_source.insert(s, t.tree_edges().collect());
                }
            }
            let faulty = !view.is_healthy();
            degraded.set_view(view);
            let router = if faulty {
                out.faulty_epochs += 1;
                replaced = needed
                    .iter()
                    .copied()
                    .filter(|&s| degraded.spt(s).is_none())
                    .collect();
                let dg = degraded.routed_graph();
                let rebuilt =
                    parallel::par_map(&replaced, 2, |&s| ShortestPathTree::compute(dg, s));
                out.spt_rebuilds += rebuilt.len();
                for spt in rebuilt {
                    degraded.insert_spt(spt);
                }
                &degraded
            } else {
                healthy
            };
            for s in &replaced {
                if let (Some(new), Some(old)) = (router.spt(*s), old_edges_by_source.get(s)) {
                    out.repair_traffic += install_cost(new, old, router.view(), g);
                }
            }
            let partials = self.price_events(
                router,
                &covers,
                &routes,
                lo..hi,
                |p: &mut ResilienceBreakdown, e, price| {
                    p.interested += inodes[e].len();
                    match price.multicast {
                        Some(cost) => {
                            p.multicast_events += 1;
                            p.multicast_cost += cost;
                        }
                        None => {
                            p.unicast_events += 1;
                            p.unicast_cost += price.unicast;
                        }
                    }
                    let spt = router
                        .spt(events[e].publisher)
                        .expect("every publisher of the epoch is warmed");
                    let mut rng = event_rng(fault_seed, e);
                    for &m in &inodes[e] {
                        resolve_member(spt, router.view(), &mut rng, m, p);
                    }
                },
            );
            for p in partials {
                out.add_chunk(p);
            }
        }
        out
    }
}

/// Outcome of replaying a fault schedule's crash-induced churn through
/// a [`DynamicClustering`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Epochs replayed.
    pub epochs: usize,
    /// Node-crash transitions observed (a node crashing, recovering
    /// and crashing again counts twice).
    pub crashed_nodes: usize,
    /// Subscriptions forcibly removed because their home crashed.
    pub forced_unsubscribes: usize,
    /// Subscriptions moved between groups by the per-epoch rebalances.
    pub rebalance_moves: usize,
    /// Per-epoch rebalances served by the incremental churn pipeline
    /// (delta rasterization + seeded re-clustering) rather than a full
    /// rebuild: those whose changed-slot fraction is at most 0.2.
    pub incremental_rebalances: usize,
    /// Live subscriptions after the last epoch.
    pub final_subscriptions: usize,
}

/// Replays `schedule` against a dynamic clustering: every node crash
/// forcibly unsubscribes the crashed node's subscriptions (failure-
/// induced churn instead of user churn), then the clustering is
/// rebalanced against the surviving population after each epoch.
///
/// `homes` maps each dynamic subscription id to the node hosting it.
/// A recovered node's subscriptions stay gone — subscribers must
/// re-subscribe explicitly, as in real brokers. Ids already removed by
/// an earlier crash are skipped, so the only error surface is ids that
/// were never registered ([`DynamicError`]).
pub fn failure_churn(
    dynamic: &mut DynamicClustering,
    homes: &[(SubscriptionId, NodeId)],
    graph: &Graph,
    schedule: &FaultSchedule,
) -> Result<ChurnReport, DynamicError> {
    let mut report = ChurnReport {
        epochs: schedule.num_epochs(),
        ..ChurnReport::default()
    };
    let mut prev = DegradedView::healthy(graph);
    let mut gone = vec![false; homes.len()];
    for epoch in 0..schedule.num_epochs() {
        let view = schedule.view_at(graph, epoch);
        for n in graph.nodes() {
            if prev.node_live(n) && !view.node_live(n) {
                report.crashed_nodes += 1;
                for (i, &(id, home)) in homes.iter().enumerate() {
                    if home == n && !gone[i] {
                        dynamic.unsubscribe(id)?;
                        gone[i] = true;
                        report.forced_unsubscribes += 1;
                    }
                }
            }
        }
        report.rebalance_moves += dynamic.rebalance();
        if dynamic.last_rebalance().incremental {
            report.incremental_rebalances += 1;
        }
        prev = view;
    }
    report.final_subscriptions = dynamic.num_subscriptions();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FaultModel, Topology, TransitStubParams};
    use pubsub_core::{CellProbability, ClusteringAlgorithm, KMeans, KMeansVariant};
    use workload::{PredicateDist, Section3Model, Workload};

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

    #[test]
    fn empty_schedule_is_bit_identical_to_breakdown() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 20);
        let mut ev = Evaluator::new(&topo, &w);
        let base = ev.grid_clustering_breakdown(&fw, &clustering, 0.0);
        let r = ev.resilience_breakdown(&fw, &clustering, 0.0, &FaultSchedule::empty(), 2002);
        assert_eq!(r.multicast_cost.to_bits(), base.multicast_cost.to_bits());
        assert_eq!(r.unicast_cost.to_bits(), base.unicast_cost.to_bits());
        assert_eq!(r.multicast_events, base.multicast_events);
        assert_eq!(r.unicast_events, base.unicast_events);
        assert_eq!(r.events, base.events);
        assert_eq!(r.delivered, r.interested, "no member lost without faults");
        assert_eq!(r.dropped, 0);
        assert_eq!(r.fallback_deliveries, 0);
        assert_eq!(r.duplicated, 0);
        assert_eq!(r.retry_attempts, 0);
        assert_eq!(r.repair_traffic, 0.0);
        assert_eq!(r.spt_rebuilds, 0);
        assert_eq!(r.faulty_epochs, 0);
        assert_eq!(r.delivery_rate(), 1.0);
        assert_eq!(r.inflation_vs(&base), 0.0);
    }

    #[test]
    fn faulty_run_partitions_every_interested_member() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 20);
        let model = FaultModel {
            epochs: 4,
            link_fail: 0.12,
            node_crash: 0.05,
            degrade: 0.25,
            ..FaultModel::default()
        };
        let schedule = FaultSchedule::random(topo.graph(), &model, 7);
        let mut ev = Evaluator::new(&topo, &w);
        let base = ev.grid_clustering_breakdown(&fw, &clustering, 0.0);
        let r = ev.resilience_breakdown(&fw, &clustering, 0.0, &schedule, 2002);
        assert_eq!(
            r.delivered + r.fallback_deliveries + r.dropped,
            r.interested
        );
        assert_eq!(r.epochs, 4);
        assert!(r.faulty_epochs >= 1, "stormy schedule produced no faults");
        assert!(r.spt_rebuilds > 0);
        assert!(r.total_cost().is_finite());
        assert!(r.delivery_rate() <= 1.0 && r.delivery_rate() >= 0.0);
        // Inflation is bounded below by "all traffic vanished": crashed
        // publishers and partitioned members produce no traffic at all,
        // so a faulty run may be *cheaper* than the baseline, but never
        // less than -100%.
        let inflation = r.inflation_vs(&base);
        assert!(inflation.is_finite());
        assert!(inflation >= -1.0, "inflation {inflation} below -100%");
    }

    #[test]
    fn resilience_is_deterministic_across_runs() {
        let (topo, w) = scenario();
        let fw = framework(&w);
        let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 20);
        let model = FaultModel::with_link_fail(3, 0.15);
        let schedule = FaultSchedule::random(topo.graph(), &model, 11);
        let run = || {
            let mut ev = Evaluator::new(&topo, &w);
            ev.resilience_breakdown(&fw, &clustering, 0.0, &schedule, 42)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    #[test]
    fn failure_churn_unsubscribes_crashed_homes() {
        let mut rng = StdRng::seed_from_u64(9);
        let topo = Topology::generate(
            &TransitStubParams {
                transit_blocks: 2,
                transit_nodes_per_block: 2,
                stubs_per_transit: 2,
                nodes_per_stub: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let g = topo.graph();
        let grid = geometry::Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::Forgy), 3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let homes: Vec<(SubscriptionId, NodeId)> = (0..30)
            .map(|i| {
                let a: f64 = rng.gen_range(0.0..10.0);
                let b: f64 = rng.gen_range(0.0..10.0);
                let rect = geometry::Rect::new(vec![geometry::Interval::from_unordered(a, b)]);
                (dynamic.subscribe(rect), nodes[i % nodes.len()])
            })
            .collect();
        dynamic.rebalance();
        let model = FaultModel {
            epochs: 3,
            node_crash: 0.3,
            node_recover: 0.0,
            ..FaultModel::default()
        };
        let schedule = FaultSchedule::random(g, &model, 13);
        let before = dynamic.num_subscriptions();
        let report = failure_churn(&mut dynamic, &homes, g, &schedule).unwrap();
        assert_eq!(report.epochs, 3);
        assert_eq!(report.final_subscriptions, dynamic.num_subscriptions());
        assert_eq!(
            before - report.forced_unsubscribes,
            report.final_subscriptions
        );
        // The final view's crashed nodes host no surviving subscription.
        let final_view = schedule.view_at(g, schedule.num_epochs() - 1);
        let expected_gone: usize = homes
            .iter()
            .filter(|(_, home)| !final_view.node_live(*home))
            .count();
        // node_recover = 0: every crash is permanent, so exactly the
        // subscriptions on finally-dead nodes are gone.
        assert_eq!(report.forced_unsubscribes, expected_gone);
        assert!(report.crashed_nodes >= 1, "seed produced no crashes");
    }

    #[test]
    fn failure_churn_rejects_unknown_ids() {
        let grid = geometry::Grid::cube(0.0, 10.0, 1, 4).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::Forgy), 2);
        let g = {
            let mut g = Graph::with_nodes(2);
            g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
            g
        };
        let mut schedule = FaultSchedule::new(1);
        schedule.push(0, netsim::Fault::NodeCrash(NodeId(1)));
        let bogus = vec![(SubscriptionId(99), NodeId(1))];
        assert!(failure_churn(&mut dynamic, &bogus, &g, &schedule).is_err());
    }
}
