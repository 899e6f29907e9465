//! Failure-aware delivery: fault schedules, degraded routing, bounded
//! retries and per-member unicast fallback.
//!
//! The paper's evaluation assumes a fault-free network. This module
//! re-runs the same per-event cost model of [`crate::Evaluator`] under
//! a [`FaultSchedule`]: the event stream is partitioned into epochs,
//! each epoch sees a cumulative [`DegradedView`] of the topology, and
//! routing state (the per-publisher shortest-path trees) is repaired
//! incrementally between epochs. Members whose path crosses a degraded
//! link may lose the primary copy; the publisher retries with
//! exponential backoff and finally falls back to a dedicated unicast
//! ([`RetryPolicy`]). The resulting [`ResilienceBreakdown`] accounts
//! for every interested subscriber node of every event: per event,
//! `delivered + fallback_deliveries + dropped` partitions the
//! interested set exactly.
//!
//! With an empty schedule the whole machinery is a strict no-op: the
//! healthy path issues the exact same cost calls, in the same chunk
//! order, as [`crate::Evaluator::grid_clustering_breakdown`], so the
//! multicast/unicast cost fields are bit-for-bit identical.

use std::collections::HashMap;

use netsim::{DegradedView, EdgeId, FaultSchedule, Graph, NodeId, ShortestPathTree};
use pubsub_core::{
    parallel, BitSet, Clustering, Delivery, DynamicClustering, DynamicError, GridFramework,
    SubscriptionId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delivery::{DeliveryBreakdown, Evaluator, EVENT_CHUNK};

/// How a publisher reacts to a lost primary copy: bounded retries with
/// exponential backoff, then a dedicated per-member unicast fallback.
///
/// Losses are only possible on paths that cross a degraded link; links
/// that are *down* reroute (or partition) instead of losing copies.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retransmissions per member before falling back.
    pub max_retries: u32,
    /// Per-attempt loss probability on a degraded path.
    pub loss_prob: f64,
    /// Probability that a successful retry also delivers a duplicate
    /// (the original copy was late, not lost).
    pub duplicate_prob: f64,
    /// Base of the exponential backoff: retry `r` waits
    /// `backoff_base^r` abstract time units.
    pub backoff_base: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            loss_prob: 0.3,
            duplicate_prob: 0.05,
            backoff_base: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff units waited before retry `r` (1-based):
    /// `backoff_base^min(r, 32)`. The exponent is shift-capped so a
    /// huge [`RetryPolicy::max_retries`] cannot push the accounting to `inf` —
    /// past the cap every further retry waits the same capped amount.
    fn backoff_at(&self, r: u32) -> f64 {
        self.backoff_base.powi(r.min(BACKOFF_EXP_CAP) as i32)
    }

    /// Total backoff units spent by `attempts` consecutive retries.
    /// The sub-cap head is summed term by term (bit-identical to the
    /// pre-cap arithmetic for `attempts ≤ 32`) and the flat tail in
    /// closed form, so the cost is O(cap) even for `u32::MAX` retries.
    fn backoff_sum(&self, attempts: u32) -> f64 {
        let head = attempts.min(BACKOFF_EXP_CAP);
        let sum: f64 = (1..=head).map(|r| self.backoff_at(r)).sum();
        sum + f64::from(attempts - head) * self.backoff_at(BACKOFF_EXP_CAP)
    }
}

/// Exponent cap of the retry backoff (see [`RetryPolicy::backoff_at`]).
const BACKOFF_EXP_CAP: u32 = 32;

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

/// Chunked partial tally, combined in chunk order (see
/// [`crate::delivery`]'s determinism note).
#[derive(Default)]
struct Partial {
    multicast_events: usize,
    unicast_events: usize,
    multicast_cost: f64,
    unicast_cost: f64,
    retry_cost: f64,
    fallback_cost: f64,
    interested: usize,
    delivered: usize,
    fallback_deliveries: usize,
    dropped: usize,
    duplicated: usize,
    retry_attempts: usize,
    backoff_units: f64,
}

impl Partial {
    fn fold_into(self, out: &mut ResilienceBreakdown) {
        out.multicast_events += self.multicast_events;
        out.unicast_events += self.unicast_events;
        out.multicast_cost += self.multicast_cost;
        out.unicast_cost += self.unicast_cost;
        out.retry_cost += self.retry_cost;
        out.fallback_cost += self.fallback_cost;
        out.interested += self.interested;
        out.delivered += self.delivered;
        out.fallback_deliveries += self.fallback_deliveries;
        out.dropped += self.dropped;
        out.duplicated += self.duplicated;
        out.retry_attempts += self.retry_attempts;
        out.backoff_units += self.backoff_units;
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
    policy: &RetryPolicy,
    rng: &mut StdRng,
    m: NodeId,
    p: &mut Partial,
) {
    if !spt.is_reachable(m) {
        // No surviving path (crashed member or partition): the
        // publisher retries into the void, backs off, and gives up.
        p.retry_attempts += policy.max_retries as usize;
        p.backoff_units += policy.backoff_sum(policy.max_retries);
        p.dropped += 1;
        return;
    }
    if !path_is_lossy(spt, view, m) {
        // Healthy path: the primary copy always arrives.
        p.delivered += 1;
        return;
    }
    if policy.loss_prob <= 0.0 || !rng.gen_bool(policy.loss_prob.min(1.0)) {
        p.delivered += 1;
        return;
    }
    for r in 1..=policy.max_retries {
        p.retry_attempts += 1;
        p.backoff_units += policy.backoff_at(r);
        p.retry_cost += spt.distance(m);
        if !rng.gen_bool(policy.loss_prob.min(1.0)) {
            p.delivered += 1;
            if policy.duplicate_prob > 0.0 && rng.gen_bool(policy.duplicate_prob.min(1.0)) {
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
    /// [`DegradedView`] governs routing: per-publisher shortest-path
    /// trees are kept in a cache that is invalidated incrementally at
    /// epoch boundaries (only trees crossing a changed edge — or any
    /// tree, after a repair that can shorten paths — are recomputed),
    /// and the newly installed tree edges are charged to
    /// `repair_traffic`.
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
        policy: &RetryPolicy,
        fault_seed: u64,
    ) -> ResilienceBreakdown {
        let workload = self.workload;
        let events = &workload.events;
        let n = events.len();
        let memberships: Vec<&BitSet> = clustering.groups().iter().map(|g| &g.members).collect();
        let group_nodes = self.member_nodes(&memberships);
        let matches = self.grid_decisions(framework, clustering, threshold);
        // Healthy trees for every publisher: the routing state all
        // brokers start from (and fall back to in healthy epochs).
        self.ensure_spts(events.iter().map(|e| e.publisher));

        let g = self.topo.graph();
        let views = schedule.views(g);
        let mut out = ResilienceBreakdown {
            events: n,
            epochs: views.len(),
            ..ResilienceBreakdown::default()
        };
        // Trees recomputed against a degraded view, keyed by source.
        let mut cache: HashMap<NodeId, ShortestPathTree> = HashMap::new();
        let mut prev_view = DegradedView::healthy(g);
        let frozen = &self.frozen;
        let inodes = &self.interested_nodes;

        for (epoch, view) in views.into_iter().enumerate() {
            // Events of this epoch: a contiguous equal split.
            let lo = epoch * n / out.epochs;
            let hi = (epoch + 1) * n / out.epochs;
            let mut needed: Vec<NodeId> = events[lo..hi].iter().map(|e| e.publisher).collect();
            needed.sort_unstable();
            needed.dedup();

            let partials: Vec<Partial> = if view.is_healthy() {
                // Reverting to healthy trees is a repair too: charge
                // the edges the cached degraded trees did not carry.
                for &s in &needed {
                    if let (Some(old), Ok(new)) = (cache.get(&s), frozen.try_spt(s)) {
                        let old_edges: Vec<EdgeId> = old.tree_edges().collect();
                        out.repair_traffic += install_cost(new, &old_edges, &view, g);
                    }
                }
                cache.clear();
                // Fault-free fast path: the exact cost calls, in the
                // exact chunk order, of `grid_clustering_breakdown`.
                parallel::par_chunks(hi - lo, EVENT_CHUNK, |range| {
                    let mut p = Partial::default();
                    for i in range {
                        let e = lo + i;
                        let ev = &events[e];
                        p.interested += inodes[e].len();
                        match matches[e] {
                            Delivery::Multicast { group } => {
                                p.multicast_events += 1;
                                p.multicast_cost +=
                                    frozen.group_multicast_cost(ev.publisher, &group_nodes[group]);
                            }
                            Delivery::Unicast => {
                                p.unicast_events += 1;
                                p.unicast_cost +=
                                    frozen.unicast_cost(ev.publisher, inodes[e].iter().copied());
                            }
                        }
                        match frozen.try_spt(ev.publisher) {
                            Ok(spt) => {
                                for &m in &inodes[e] {
                                    if spt.is_reachable(m) {
                                        p.delivered += 1;
                                    } else {
                                        p.dropped += 1;
                                    }
                                }
                            }
                            Err(_) => p.delivered += inodes[e].len(),
                        }
                    }
                    p
                })
            } else {
                out.faulty_epochs += 1;
                // Old routing state of the sources this epoch reads:
                // the cached degraded tree, else the healthy tree.
                let mut old_edges_by_source: HashMap<NodeId, Vec<EdgeId>> = HashMap::new();
                for &s in &needed {
                    let tree = cache.get(&s).ok_or(()).or_else(|()| frozen.try_spt(s));
                    if let Ok(t) = tree {
                        old_edges_by_source.insert(s, t.tree_edges().collect());
                    }
                }
                // Incremental invalidation: a repair (anything that can
                // shorten a path) flushes everything, pure deterioration
                // only flushes trees that cross a changed edge.
                if view.has_improvement_over(&prev_view, g) {
                    cache.clear();
                } else {
                    cache.retain(|_, t| !view.invalidates_tree(&prev_view, g, t));
                }
                let dg = view.apply(g);
                let mut missing: Vec<NodeId> = needed
                    .iter()
                    .copied()
                    .filter(|s| !cache.contains_key(s))
                    .collect();
                missing.sort_unstable();
                let rebuilt =
                    parallel::par_map(&missing, 2, |&s| ShortestPathTree::compute(&dg, s));
                out.spt_rebuilds += rebuilt.len();
                for spt in rebuilt {
                    if let Some(old) = old_edges_by_source.get(&spt.source()) {
                        out.repair_traffic += install_cost(&spt, old, &view, g);
                    }
                    cache.insert(spt.source(), spt);
                }
                let cache_ref = &cache;
                let view_ref = &view;
                let dg_ref = &dg;
                parallel::par_chunks(hi - lo, EVENT_CHUNK, |range| {
                    let mut p = Partial::default();
                    for i in range {
                        let e = lo + i;
                        let ev = &events[e];
                        p.interested += inodes[e].len();
                        let mut rng = event_rng(fault_seed, e);
                        let spt = match cache_ref.get(&ev.publisher) {
                            Some(spt) => spt,
                            // Unreachable: every epoch publisher is warmed
                            // above. Count the event dropped if it ever
                            // regresses rather than panic mid-simulation.
                            None => {
                                p.dropped += inodes[e].len();
                                continue;
                            }
                        };
                        match matches[e] {
                            Delivery::Multicast { group } => {
                                p.multicast_events += 1;
                                p.multicast_cost += spt.multicast_tree_cost(
                                    dg_ref,
                                    group_nodes[group].iter().copied(),
                                );
                            }
                            Delivery::Unicast => {
                                p.unicast_events += 1;
                                p.unicast_cost += spt.unicast_cost(inodes[e].iter().copied());
                            }
                        }
                        for &m in &inodes[e] {
                            resolve_member(spt, view_ref, policy, &mut rng, m, &mut p);
                        }
                    }
                    p
                })
            };
            for p in partials {
                p.fold_into(&mut out);
            }
            prev_view = view;
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
        let r = ev.resilience_breakdown(
            &fw,
            &clustering,
            0.0,
            &FaultSchedule::empty(),
            &RetryPolicy::default(),
            2002,
        );
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
        let r = ev.resilience_breakdown(
            &fw,
            &clustering,
            0.0,
            &schedule,
            &RetryPolicy::default(),
            2002,
        );
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
            ev.resilience_breakdown(
                &fw,
                &clustering,
                0.0,
                &schedule,
                &RetryPolicy::default(),
                42,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    #[test]
    fn retry_policy_env_roundtrip() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 3);
        assert!(p.backoff_sum(2) > p.backoff_base);
    }

    #[test]
    fn backoff_is_shift_capped_and_finite() {
        let p = RetryPolicy::default();
        // Below the cap the arithmetic is the plain geometric sum.
        let naive: f64 = (1..=7).map(|r| p.backoff_base.powi(r)).sum();
        assert_eq!(p.backoff_sum(7), naive);
        assert_eq!(p.backoff_at(3), p.backoff_base.powi(3));
        // Past the cap each retry waits the capped term, the sum stays
        // finite and is O(1) to compute even at u32::MAX retries.
        assert_eq!(p.backoff_at(33), p.backoff_at(u32::MAX));
        let huge = p.backoff_sum(u32::MAX);
        assert!(huge.is_finite());
        assert!(huge > p.backoff_sum(1_000));
        assert_eq!(
            p.backoff_sum(40),
            p.backoff_sum(32) + 8.0 * p.backoff_at(32)
        );
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
