//! Deterministic fault injection: failure schedules and degraded graph
//! views.
//!
//! The paper evaluates clustering on a *static* transit-stub topology;
//! this module grows the model toward production by letting links fail
//! and recover, nodes crash, and link capacity degrade over a sequence
//! of **epochs**. A [`FaultSchedule`] lists the fault transitions per
//! epoch; replaying epochs `0..=k` yields the [`DegradedView`] in force
//! during epoch `k`. The view is a set of masks over a [`Graph`] — the
//! underlying graph is never mutated, so node and edge ids stay stable
//! across the whole schedule and shortest-path trees can be invalidated
//! *incrementally* (only trees that traverse a changed edge are
//! rebuilt).
//!
//! All random draws go through the vendored `rand` stub with a fixed
//! seed and a fixed iteration order, so a schedule is bit-identical
//! across runs and thread counts (the PR-1 determinism contract).

use rand::prelude::*;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::shortest_path::ShortestPathTree;

/// A single fault transition applied at the start of an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The link goes down (both directions).
    LinkDown(EdgeId),
    /// A previously failed link comes back up.
    LinkUp(EdgeId),
    /// The node crashes: it stops forwarding and receiving, and every
    /// incident link is effectively dead.
    NodeCrash(NodeId),
    /// A previously crashed node recovers.
    NodeRecover(NodeId),
    /// The link stays up but its cost is multiplied by `factor ≥ 1`
    /// (congestion / capacity degradation).
    LinkDegrade {
        /// The affected link.
        edge: EdgeId,
        /// Multiplicative cost penalty, at least `1.0`.
        factor: f64,
    },
    /// A previously degraded link returns to its nominal cost.
    LinkRestore(EdgeId),
}

/// Parameters for [`FaultSchedule::random`]: per-epoch transition
/// probabilities of the failure process.
#[derive(Debug, Clone)]
pub struct FaultModel {
    /// Number of epochs in the schedule (at least 1).
    pub epochs: usize,
    /// Probability that a live link goes down in a given epoch.
    pub link_fail: f64,
    /// Probability that a failed link recovers in a given epoch.
    pub link_recover: f64,
    /// Probability that a live node crashes in a given epoch.
    pub node_crash: f64,
    /// Probability that a crashed node recovers in a given epoch.
    pub node_recover: f64,
    /// Probability that a healthy link degrades in a given epoch.
    pub degrade: f64,
    /// Probability that a degraded link is restored in a given epoch.
    pub restore: f64,
    /// Range `(lo, hi)` the degradation factor is drawn from.
    pub degrade_factor: (f64, f64),
    /// Nodes that never crash (e.g. the transit core, so the network
    /// does not trivially partition).
    pub protected: Vec<NodeId>,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            epochs: 4,
            link_fail: 0.05,
            link_recover: 0.5,
            node_crash: 0.02,
            node_recover: 0.5,
            degrade: 0.05,
            restore: 0.5,
            degrade_factor: (2.0, 4.0),
            protected: Vec::new(),
        }
    }
}

impl FaultModel {
    /// A model with the given per-epoch link failure probability and all
    /// other knobs at their defaults — the single-parameter sweep used
    /// by the resilience benchmark.
    pub fn with_link_fail(epochs: usize, link_fail: f64) -> Self {
        FaultModel {
            epochs,
            link_fail,
            ..FaultModel::default()
        }
    }
}

/// A per-epoch list of fault transitions over a fixed graph.
///
/// Epoch `k`'s transitions are applied *cumulatively* on top of epochs
/// `0..k`; an empty schedule has one epoch and no faults, and replays to
/// a fully healthy view.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    epochs: Vec<Vec<Fault>>,
}

impl FaultSchedule {
    /// A schedule with `num_epochs` empty epochs (clamped to at least 1).
    pub fn new(num_epochs: usize) -> Self {
        FaultSchedule {
            epochs: vec![Vec::new(); num_epochs.max(1)],
        }
    }

    /// The zero-fault schedule: one epoch, no transitions. Delivery
    /// under this schedule must be bit-identical to the fault-free path.
    pub fn empty() -> Self {
        FaultSchedule::new(1)
    }

    /// Number of epochs (always at least 1).
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Appends a transition to `epoch`, growing the schedule if needed.
    pub fn push(&mut self, epoch: usize, fault: Fault) {
        if epoch >= self.epochs.len() {
            self.epochs.resize(epoch + 1, Vec::new());
        }
        self.epochs[epoch].push(fault);
    }

    /// Builder form of [`FaultSchedule::push`].
    pub fn with(mut self, epoch: usize, fault: Fault) -> Self {
        self.push(epoch, fault);
        self
    }

    /// Draws a random schedule from `model` over `g`, seeded so that
    /// the result is bit-identical for a given `(graph, model, seed)`
    /// regardless of thread count: a single RNG walks edges then nodes
    /// in id order within each epoch.
    pub fn random(g: &Graph, model: &FaultModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::new(model.epochs);
        let mut link_down = vec![false; g.num_edges()];
        let mut degraded = vec![false; g.num_edges()];
        let mut node_down = vec![false; g.num_nodes()];
        let mut protected = vec![false; g.num_nodes()];
        for &n in &model.protected {
            if n.0 < protected.len() {
                protected[n.0] = true;
            }
        }
        for epoch in 0..model.epochs {
            for (e, down) in link_down.iter_mut().enumerate() {
                if *down {
                    if rng.gen_bool(model.link_recover) {
                        *down = false;
                        schedule.push(epoch, Fault::LinkUp(EdgeId(e)));
                    }
                } else if rng.gen_bool(model.link_fail) {
                    *down = true;
                    schedule.push(epoch, Fault::LinkDown(EdgeId(e)));
                }
            }
            for (e, slow) in degraded.iter_mut().enumerate() {
                if *slow {
                    if rng.gen_bool(model.restore) {
                        *slow = false;
                        schedule.push(epoch, Fault::LinkRestore(EdgeId(e)));
                    }
                } else if rng.gen_bool(model.degrade) {
                    *slow = true;
                    let (lo, hi) = model.degrade_factor;
                    let factor = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                    schedule.push(
                        epoch,
                        Fault::LinkDegrade {
                            edge: EdgeId(e),
                            factor,
                        },
                    );
                }
            }
            for n in 0..g.num_nodes() {
                if node_down[n] {
                    if rng.gen_bool(model.node_recover) {
                        node_down[n] = false;
                        schedule.push(epoch, Fault::NodeRecover(NodeId(n)));
                    }
                } else if !protected[n] && rng.gen_bool(model.node_crash) {
                    node_down[n] = true;
                    schedule.push(epoch, Fault::NodeCrash(NodeId(n)));
                }
            }
        }
        schedule
    }

    /// The degraded view in force during `epoch` — epochs `0..=epoch`
    /// replayed cumulatively over a healthy view of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is out of range.
    pub fn view_at(&self, g: &Graph, epoch: usize) -> DegradedView {
        assert!(epoch < self.epochs.len(), "epoch out of range");
        let mut view = DegradedView::healthy(g);
        for faults in self.epochs.iter().take(epoch + 1) {
            for f in faults {
                view.apply_fault(*f);
            }
        }
        view.refresh_faulty();
        view
    }

    /// All per-epoch views, in order. Each is the cumulative state, so
    /// `views(g)[k] == view_at(g, k)`.
    pub fn views(&self, g: &Graph) -> Vec<DegradedView> {
        let mut out = Vec::with_capacity(self.epochs.len());
        let mut view = DegradedView::healthy(g);
        for faults in &self.epochs {
            for f in faults {
                view.apply_fault(*f);
            }
            view.refresh_faulty();
            out.push(view.clone());
        }
        out
    }
}

/// The failure state in force during one epoch: masks over a [`Graph`]
/// that never mutate the graph itself, so ids stay stable.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedView {
    edge_down: Vec<bool>,
    node_down: Vec<bool>,
    /// Multiplicative cost factor per edge; `1.0` means nominal.
    degrade: Vec<f64>,
    faulty: bool,
}

impl DegradedView {
    /// The all-healthy view of `g` (nothing failed).
    pub fn healthy(g: &Graph) -> Self {
        DegradedView {
            edge_down: vec![false; g.num_edges()],
            node_down: vec![false; g.num_nodes()],
            degrade: vec![1.0; g.num_edges()],
            faulty: false,
        }
    }

    /// Whether nothing is failed or degraded — the view behaves exactly
    /// like the underlying graph.
    pub fn is_healthy(&self) -> bool {
        !self.faulty
    }

    fn apply_fault(&mut self, f: Fault) {
        match f {
            Fault::LinkDown(e) => self.edge_down[e.0] = true,
            Fault::LinkUp(e) => self.edge_down[e.0] = false,
            Fault::NodeCrash(n) => self.node_down[n.0] = true,
            Fault::NodeRecover(n) => self.node_down[n.0] = false,
            Fault::LinkDegrade { edge, factor } => {
                self.degrade[edge.0] = factor.max(1.0);
            }
            Fault::LinkRestore(e) => self.degrade[e.0] = 1.0,
        }
    }

    fn refresh_faulty(&mut self) {
        self.faulty = self.edge_down.iter().any(|&d| d)
            || self.node_down.iter().any(|&d| d)
            || self.degrade.iter().any(|&f| f != 1.0);
    }

    /// Whether node `n` is up.
    pub fn node_live(&self, n: NodeId) -> bool {
        !self.node_down[n.0]
    }

    /// Whether edge `e` carries traffic: the link is up and both
    /// endpoints are live.
    pub fn edge_live(&self, g: &Graph, e: EdgeId) -> bool {
        if self.edge_down[e.0] {
            return false;
        }
        let edge = g.edge(e);
        self.node_live(edge.u) && self.node_live(edge.v)
    }

    /// Whether `e` is live but running above nominal cost — the lossy
    /// links that trigger retries in the resilience model.
    pub fn edge_degraded(&self, e: EdgeId) -> bool {
        self.degrade[e.0] > 1.0
    }

    /// The effective cost of `e` under this view: `+inf` when the edge
    /// is dead, `cost × factor` otherwise. With no degradation the
    /// nominal cost is returned bit-identically.
    pub fn edge_cost(&self, g: &Graph, e: EdgeId) -> f64 {
        if !self.edge_live(g, e) {
            return f64::INFINITY;
        }
        let cost = g.edge(e).cost;
        if self.degrade[e.0] == 1.0 {
            cost
        } else {
            cost * self.degrade[e.0]
        }
    }

    /// Materializes the degraded graph: **same node and edge ids** as
    /// `g`, with dead edges at `+inf` cost (Dijkstra never relaxes
    /// them) and degraded edges at their inflated cost. For a healthy
    /// view the copy is cost-identical to `g`, so callers usually skip
    /// the copy entirely when [`DegradedView::is_healthy`].
    pub fn apply(&self, g: &Graph) -> Graph {
        let mut out = Graph::with_nodes(g.num_nodes());
        for (i, e) in g.edges().iter().enumerate() {
            out.add_edge(e.u, e.v, self.edge_cost(g, EdgeId(i)))
                .expect("copied edge is valid");
        }
        out
    }

    /// Whether the effective cost of `e` differs between `self` and
    /// `other` (liveness flip or degradation change).
    pub fn edge_changed(&self, other: &DegradedView, g: &Graph, e: EdgeId) -> bool {
        let a = self.edge_live(g, e);
        let b = other.edge_live(g, e);
        a != b || (a && self.degrade[e.0] != other.degrade[e.0])
    }

    /// Whether moving from `prev` to `self` made any edge *better* —
    /// a dead link revived or a degradation eased. Improvements can
    /// create shortcuts for trees that never touched the changed edge,
    /// so they force a full shortest-path rebuild; pure deteriorations
    /// only invalidate trees that traverse a changed edge.
    pub fn has_improvement_over(&self, prev: &DegradedView, g: &Graph) -> bool {
        (0..g.num_edges()).map(EdgeId).any(|e| {
            let now = self.edge_cost(g, e);
            let was = prev.edge_cost(g, e);
            now < was
        })
    }

    /// Whether a shortest-path tree computed under `prev` must be
    /// rebuilt under `self`: its source crashed/recovered, or the tree
    /// traverses an edge whose effective cost changed. Trees that dodge
    /// every changed edge stay valid as long as no edge *improved* (see
    /// [`DegradedView::has_improvement_over`]).
    pub fn invalidates_tree(
        &self,
        prev: &DegradedView,
        g: &Graph,
        tree: &ShortestPathTree,
    ) -> bool {
        if self.node_live(tree.source()) != prev.node_live(tree.source()) {
            return true;
        }
        tree.tree_edges().any(|e| self.edge_changed(prev, g, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        // 0-1-2-3-0 ring plus diagonal 0-2.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 5.0).unwrap();
        g
    }

    #[test]
    fn empty_schedule_is_healthy() {
        let g = square();
        let s = FaultSchedule::empty();
        assert_eq!(s.num_epochs(), 1);
        let v = s.view_at(&g, 0);
        assert!(v.is_healthy());
        for e in 0..g.num_edges() {
            assert_eq!(
                v.edge_cost(&g, EdgeId(e)).to_bits(),
                g.edge(EdgeId(e)).cost.to_bits()
            );
        }
    }

    #[test]
    fn cumulative_epoch_replay() {
        let g = square();
        let s = FaultSchedule::new(3)
            .with(0, Fault::LinkDown(EdgeId(0)))
            .with(1, Fault::NodeCrash(NodeId(3)))
            .with(2, Fault::LinkUp(EdgeId(0)));
        let v0 = s.view_at(&g, 0);
        assert!(!v0.edge_live(&g, EdgeId(0)));
        assert!(v0.node_live(NodeId(3)));
        let v1 = s.view_at(&g, 1);
        assert!(!v1.edge_live(&g, EdgeId(0)));
        assert!(!v1.node_live(NodeId(3)));
        // Node 3 crash kills its incident edges 2 and 3.
        assert!(!v1.edge_live(&g, EdgeId(2)));
        assert!(!v1.edge_live(&g, EdgeId(3)));
        let v2 = s.view_at(&g, 2);
        assert!(v2.edge_live(&g, EdgeId(0)));
        assert!(!v2.node_live(NodeId(3)));
        let views = s.views(&g);
        assert_eq!(views.len(), 3);
        assert_eq!(views[0], v0);
        assert_eq!(views[1], v1);
        assert_eq!(views[2], v2);
    }

    #[test]
    fn degradation_scales_cost() {
        let g = square();
        let s = FaultSchedule::new(2)
            .with(
                0,
                Fault::LinkDegrade {
                    edge: EdgeId(1),
                    factor: 3.0,
                },
            )
            .with(1, Fault::LinkRestore(EdgeId(1)));
        let v0 = s.view_at(&g, 0);
        assert!(v0.edge_degraded(EdgeId(1)));
        assert_eq!(v0.edge_cost(&g, EdgeId(1)), 3.0);
        let v1 = s.view_at(&g, 1);
        assert!(v1.is_healthy());
        assert_eq!(v1.edge_cost(&g, EdgeId(1)), 1.0);
    }

    #[test]
    fn apply_preserves_ids_and_kills_dead_edges() {
        let g = square();
        let s = FaultSchedule::new(1).with(0, Fault::LinkDown(EdgeId(0)));
        let v = s.view_at(&g, 0);
        let d = v.apply(&g);
        assert_eq!(d.num_nodes(), g.num_nodes());
        assert_eq!(d.num_edges(), g.num_edges());
        assert!(d.edge(EdgeId(0)).cost.is_infinite());
        assert_eq!(d.edge(EdgeId(1)).cost, 1.0);
        // Dijkstra on the applied graph routes around the dead edge:
        // 0-3-2-1 along the ring instead of the direct hop.
        let spt = ShortestPathTree::compute(&d, NodeId(0));
        assert_eq!(spt.distance(NodeId(1)), 3.0);
        assert!(!v.edge_live(&g, EdgeId(0)));
    }

    #[test]
    fn random_schedule_is_seed_deterministic() {
        let g = square();
        let model = FaultModel {
            epochs: 6,
            link_fail: 0.3,
            node_crash: 0.2,
            degrade: 0.3,
            ..FaultModel::default()
        };
        let a = FaultSchedule::random(&g, &model, 7);
        let b = FaultSchedule::random(&g, &model, 7);
        assert_eq!(a.epochs, b.epochs);
        let c = FaultSchedule::random(&g, &model, 8);
        assert_ne!(a.epochs, c.epochs, "different seeds should differ");
    }

    #[test]
    fn random_schedule_respects_protected_nodes() {
        let g = square();
        let model = FaultModel {
            epochs: 20,
            node_crash: 0.9,
            node_recover: 0.1,
            protected: vec![NodeId(0)],
            ..FaultModel::default()
        };
        let s = FaultSchedule::random(&g, &model, 3);
        for k in 0..s.num_epochs() {
            assert!(s.view_at(&g, k).node_live(NodeId(0)));
        }
    }

    #[test]
    fn improvement_detection_drives_invalidation() {
        let g = square();
        let down = FaultSchedule::new(1)
            .with(0, Fault::LinkDown(EdgeId(4)))
            .view_at(&g, 0);
        let healthy = DegradedView::healthy(&g);
        // Failing an edge is not an improvement; reviving it is.
        assert!(!down.has_improvement_over(&healthy, &g));
        assert!(healthy.has_improvement_over(&down, &g));

        // A tree that never touches the failed diagonal stays valid.
        let spt = ShortestPathTree::compute(&g, NodeId(1));
        assert!(!down.invalidates_tree(&healthy, &g, &spt));
        // Failing a tree edge invalidates it.
        let tree_edge_down = FaultSchedule::new(1)
            .with(0, Fault::LinkDown(EdgeId(0)))
            .view_at(&g, 0);
        assert!(tree_edge_down.invalidates_tree(&healthy, &g, &spt));
        // Crashing the source invalidates regardless of edges.
        let src_crash = FaultSchedule::new(1)
            .with(0, Fault::NodeCrash(NodeId(1)))
            .view_at(&g, 0);
        assert!(src_crash.invalidates_tree(&healthy, &g, &spt));
    }
}
