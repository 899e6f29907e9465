//! Dynamic subscription maintenance (Section 6, item 5 of the paper).
//!
//! Real systems see subscribers join, leave, and change their
//! rectangles continuously. Rebuilding the clustering from scratch on
//! every change wastes the work already done; the paper observes that
//! the iterative algorithms (K-means / Forgy) "are well suited for
//! dynamic changes in subscription structure": after a change, the old
//! partition is still approximately right, so a *warm-started*
//! re-balancing pass converges in a handful of moves.
//!
//! [`DynamicClustering`] owns the subscription population and the
//! current clustering. Subscriptions are added/removed with stable
//! ids; [`DynamicClustering::rebalance`] re-rasterizes and re-balances
//! from the previous assignment, reporting how many hyper-cell moves
//! the update needed.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use geometry::{CellId, Grid, Rect};

use crate::clustering::{Clustering, GroupSet};
use crate::framework::{CellProbability, GridFramework};
use crate::kmeans::KMeans;
use crate::parallel;
use crate::validate::{ValidationError, Validator};

/// Dirty-fraction threshold above which [`DynamicClustering::rebalance`]
/// falls back to the full re-rasterizing path, unless
/// [`DynamicClustering::with_max_dirty`] sets another. A rebalance with
/// nothing pending has fraction 0, never above any threshold, so it
/// takes the delta path.
const DEFAULT_MAX_DIRTY: f64 = 0.2;

/// Stable identifier of a dynamic subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub usize);

impl SubscriptionId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A clustering that tracks subscription churn and re-balances
/// incrementally.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{
///     CellProbability, DynamicClustering, KMeans, KMeansVariant,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let probs = CellProbability::uniform(&grid);
/// let mut dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), 2);
/// let a = dynamic.subscribe(Rect::new(vec![Interval::new(0.0, 4.0)?]));
/// let _b = dynamic.subscribe(Rect::new(vec![Interval::new(6.0, 10.0)?]));
/// let moves = dynamic.rebalance();
/// assert!(dynamic.clustering().num_groups() <= 2);
/// dynamic.unsubscribe(a)?;
/// let _ = moves;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicClustering {
    grid: Grid,
    probs: CellProbability,
    algorithm: KMeans,
    k: usize,
    /// Slot per subscription; `None` marks an unsubscribed tombstone so
    /// ids stay stable.
    subscriptions: Vec<Option<Rect>>,
    framework: GridFramework,
    clustering: Clustering,
    /// Rectangle each touched slot held *at the last rebalance*
    /// (`None` = the slot was empty then). Together with the current
    /// slots this yields the net delta for the incremental path.
    baseline: HashMap<usize, Option<Rect>>,
    /// Dirty-fraction threshold of the incremental path (default 0.2).
    max_dirty: f64,
    /// Diagnostics of the most recent rebalance.
    last_stats: RebalanceStats,
    /// K-means' group state of `clustering`, for the next incremental
    /// rebalance to patch instead of rebuild: equal to one built from
    /// scratch from the framework and assignment, with its rows; `None`
    /// where there is none to carry. It is a cache — a rebalance without
    /// it rebuilds it, with the same results — so a clone copies it, and
    /// [`fork`](Self::fork) and the rollback snapshot of
    /// [`try_rebalance`](Self::try_rebalance) leave it out of their copy.
    groups: Option<GroupSet>,
}

/// Diagnostics of the most recent [`DynamicClustering::rebalance`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RebalanceStats {
    /// Whether the incremental delta path ran (vs the full rebuild).
    pub incremental: bool,
    /// Net changed subscription slots folded in.
    pub changed_slots: usize,
    /// Grid cells whose membership changed (incremental path only).
    pub dirty_cells: usize,
    /// Hyper-cells carried over byte-identical (incremental path only).
    pub unchanged_hypercells: usize,
    /// Always 0: no rebalance path builds or reuses a pairwise
    /// distance matrix. The field stays only because
    /// `benchmark/` reads it (`dynamic.reused_distances_per_swap`) and
    /// compares whole `RebalanceStats` values; it goes when a benchmark
    /// change retires that metric.
    pub reused_distances: usize,
    /// Hyper-cell moves the re-balancing pass performed.
    pub moves: usize,
}

/// Error returned by [`DynamicClustering::unsubscribe`] and
/// [`DynamicClustering::resubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicError {
    /// The id was never issued or already unsubscribed.
    UnknownSubscription(SubscriptionId),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::UnknownSubscription(id) => {
                write!(f, "subscription #{} does not exist", id.0)
            }
        }
    }
}

impl std::error::Error for DynamicError {}

/// Why a [`DynamicClustering::try_rebalance`] attempt was rejected.
/// Either way the clustering is rolled back to the state it held
/// before the call — the error never poisons the serve path. The
/// service's rebalancer ([`crate::BrokerService`]) surfaces it as
/// [`crate::RebalanceAbort::Rejected`] and keeps serving the last plan.
#[derive(Debug, Clone)]
pub enum RebalanceError {
    /// A maintenance path panicked; the payload message is preserved
    /// for diagnostics.
    Panicked(String),
    /// The rebalanced artifacts failed the structural audit
    /// ([`Validator`]); publishing them would corrupt dispatch.
    Validation(ValidationError),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Panicked(msg) => write!(f, "rebalance panicked: {msg}"),
            RebalanceError::Validation(e) => write!(f, "rebalance produced invalid artifacts: {e}"),
        }
    }
}

impl std::error::Error for RebalanceError {}

impl DynamicClustering {
    /// Creates an empty dynamic clustering over the grid. `k = 0` is
    /// clamped to one group, as the cold algorithms do.
    pub fn new(grid: Grid, probs: CellProbability, algorithm: KMeans, k: usize) -> Self {
        let framework = GridFramework::build(grid.clone(), &[], &probs, None);
        let clustering = Clustering::from_assignment(&framework, Vec::new());
        DynamicClustering {
            grid,
            probs,
            algorithm,
            k: k.max(1),
            subscriptions: Vec::new(),
            framework,
            clustering,
            baseline: HashMap::new(),
            max_dirty: DEFAULT_MAX_DIRTY,
            last_stats: RebalanceStats::default(),
            groups: None,
        }
    }

    /// Overrides the dirty-fraction threshold of the incremental path
    /// (default 0.2): deltas touching at most `fraction` of the slots
    /// fold in incrementally, larger ones re-rasterize everything.
    /// `0.0` takes the full path whenever a slot changed; a rebalance
    /// with nothing pending has fraction 0 and takes the delta path (a
    /// no-op fold) at any threshold. `1.0` (or more) always tries the
    /// incremental one.
    pub fn with_max_dirty(mut self, fraction: f64) -> Self {
        assert!(fraction >= 0.0, "fraction must be non-negative");
        self.max_dirty = fraction;
        self
    }

    /// Registers a new subscription, returning its stable id. The
    /// clustering is not updated until [`DynamicClustering::rebalance`].
    pub fn subscribe(&mut self, rect: Rect) -> SubscriptionId {
        let id = self.subscriptions.len();
        // The slot did not exist at the last rebalance.
        self.baseline.entry(id).or_insert(None);
        self.subscriptions.push(Some(rect));
        SubscriptionId(id)
    }

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::UnknownSubscription`] for unknown or
    /// already-removed ids.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), DynamicError> {
        match self.subscriptions.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                let before = slot.clone();
                self.baseline.entry(id.0).or_insert(before);
                *slot = None;
                Ok(())
            }
            _ => Err(DynamicError::UnknownSubscription(id)),
        }
    }

    /// Replaces a subscription's rectangle (a preference change).
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::UnknownSubscription`] for unknown or
    /// removed ids.
    pub fn resubscribe(&mut self, id: SubscriptionId, rect: Rect) -> Result<(), DynamicError> {
        match self.subscriptions.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                let before = slot.clone();
                self.baseline.entry(id.0).or_insert(before);
                *slot = Some(rect);
                Ok(())
            }
            _ => Err(DynamicError::UnknownSubscription(id)),
        }
    }

    /// Number of live (non-tombstoned) subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.subscriptions.iter().filter(|s| s.is_some()).count()
    }

    /// The subscription slots in id order, tombstones included
    /// (`slots()[id] == None` once `id` was unsubscribed). Slot count
    /// equals [`GridFramework::num_subscribers`] after a rebalance. The
    /// service attaches a compiled [`crate::DispatchPlan`]'s candidate
    /// bounds from these slots and audits them against the same slots
    /// ([`crate::Validator::check_serve_state`]); a caller of
    /// [`with_subscriptions`](crate::DispatchPlan::with_subscriptions)
    /// derives an id-aligned rectangle vector from them instead.
    pub fn subscription_slots(&self) -> &[Option<Rect>] {
        &self.subscriptions
    }

    /// The current clustering (as of the last rebalance).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The current grid framework (as of the last rebalance).
    pub fn framework(&self) -> &GridFramework {
        &self.framework
    }

    /// The subscription slots changed since the last rebalance, whether
    /// or not their change nets out.
    pub(crate) fn pending_changes(&self) -> usize {
        self.baseline.len()
    }

    /// Folds pending subscription changes into the framework and
    /// re-balances the clustering, warm-starting each hyper-cell from
    /// the group its cells belonged to before the change. Returns the
    /// number of hyper-cell moves the re-balancing needed — the warm
    /// start's convergence cost.
    ///
    /// When the net delta touches at most a threshold fraction of the
    /// slots (0.2, or what [`DynamicClustering::with_max_dirty`] set),
    /// the framework is updated in place via
    /// [`GridFramework::apply_delta`] — only dirty cells are
    /// re-rasterized and unchanged hyper-cells carry over. An empty
    /// delta is such a delta at any threshold. Larger deltas
    /// re-rasterize every slot. Both paths produce bit-identical
    /// frameworks, clusterings and move counts at any `PUBSUB_THREADS`,
    /// and neither builds the `O(l²)` pairwise distance matrix.
    pub fn rebalance(&mut self) -> usize {
        let moves = self.rebalance_paths();
        self.debug_validate("DynamicClustering::rebalance");
        moves
    }

    /// Path selection shared by [`rebalance`](Self::rebalance) and
    /// [`rebalance_audited`](Self::rebalance_audited) — everything
    /// except the post-condition audit.
    fn rebalance_paths(&mut self) -> usize {
        // Taken first, so a path that panics leaves no state behind.
        let carried = self.groups.take();
        let changed = self.baseline.len();
        let fraction = changed as f64 / self.subscriptions.len().max(1) as f64;
        if self.framework.supports_incremental() && fraction <= self.max_dirty {
            self.rebalance_incremental(changed, carried)
        } else {
            self.rebalance_full(changed)
        }
    }

    /// Panic-free [`rebalance`](Self::rebalance) with an *unconditional*
    /// (release-mode too) structural audit: folds pending churn in,
    /// re-balances, and runs [`Validator::check_framework`] +
    /// [`Validator::check_clustering`] over the result before accepting
    /// it. On any failure — a panic in a maintenance path or an audit
    /// violation — the clustering (subscriptions, framework, pending
    /// baseline, stats) is rolled back bit-for-bit to its pre-call
    /// state and the error is returned instead, so a caller can keep
    /// serving the last good clustering. On success it is
    /// observationally identical to [`rebalance`](Self::rebalance).
    pub fn try_rebalance(&mut self) -> Result<RebalanceStats, RebalanceError> {
        let groups = self.groups.take();
        let before = self.clone();
        self.groups = groups;
        let outcome = self.rebalance_audited();
        if outcome.is_err() {
            *self = before;
        }
        outcome
    }

    /// [`try_rebalance`](Self::try_rebalance) without the rollback
    /// snapshot: on `Err` the value is left half-updated and must be
    /// discarded. The service-loop rebalancer ([`crate::BrokerService`])
    /// already works on a clone it drops on any abort, so it calls this
    /// and pays for one state copy per swap, not two.
    pub(crate) fn rebalance_audited(&mut self) -> Result<RebalanceStats, RebalanceError> {
        catch_unwind(AssertUnwindSafe(|| self.rebalance_paths()))
            .map_err(|payload| RebalanceError::Panicked(panic_message(payload.as_ref())))?;
        let mut v = Validator::new();
        v.check_framework(&self.framework)
            .check_clustering(&self.framework, &self.clustering);
        v.finish().map_err(RebalanceError::Validation)?;
        self.debug_check_carried("DynamicClustering::try_rebalance");
        Ok(self.last_stats)
    }

    /// A copy to rebalance that takes this value's carried group state
    /// along rather than copying it: the service-loop rebalancer works
    /// on the copy and drops it on any abort, which leaves the next
    /// attempt to rebuild the state from scratch.
    pub(crate) fn fork(&mut self) -> Self {
        let groups = self.groups.take();
        let mut work = self.clone();
        work.groups = groups;
        work
    }

    /// Debug-build structural audit at the rebalance boundary: the
    /// framework and clustering leaving either maintenance path must
    /// satisfy every invariant [`crate::Validator`] knows about, and
    /// the carried group state must pass
    /// [`debug_check_carried`](Self::debug_check_carried). Free in
    /// release builds.
    #[inline]
    fn debug_validate(&self, context: &str) {
        if cfg!(debug_assertions) {
            let mut v = Validator::new();
            v.check_framework(&self.framework)
                .check_clustering(&self.framework, &self.clustering);
            v.assert_clean(context);
            self.debug_check_carried(context);
        }
    }

    /// Debug builds: [`debug_check_groups`] on the carried group state
    /// and the clustering's assignment. Free in release builds.
    #[inline]
    fn debug_check_carried(&self, context: &str) {
        if let Some(groups) = self.groups.as_ref().filter(|_| cfg!(debug_assertions)) {
            let l = self.framework.hypercells().len();
            let assignment: Vec<usize> =
                (0..l).map(|h| self.clustering.group_of_hyper(h)).collect();
            debug_check_groups(groups, &self.framework, &assignment, context);
        }
    }

    /// The net `(added, removed)` delta since the last rebalance, in
    /// slot order. A slot whose rectangle ends up where it started
    /// (subscribe-then-unsubscribe, resubscribe back) contributes
    /// nothing.
    #[allow(clippy::type_complexity)]
    fn take_delta(&mut self) -> (Vec<(usize, Rect)>, Vec<(usize, Rect)>) {
        // lint: allow(hash-order): collected then sorted on the next line
        let mut ids: Vec<usize> = self.baseline.keys().copied().collect();
        ids.sort_unstable();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for id in ids {
            let before = self.baseline.remove(&id).expect("key from baseline");
            let now = self.subscriptions[id].clone();
            if before == now {
                continue;
            }
            if let Some(r) = before {
                removed.push((id, r));
            }
            if let Some(r) = now {
                added.push((id, r));
            }
        }
        (added, removed)
    }

    /// Incremental path: delta rasterization + dirty-region re-merge,
    /// then a warm-started re-balance seeded from the old assignment,
    /// from the `carried` group state patched across the delta when
    /// there is one and it has the right number of groups.
    fn rebalance_incremental(&mut self, changed: usize, carried: Option<GroupSet>) -> usize {
        let (added, removed) = self.take_delta();
        let report =
            self.framework
                .apply_delta(&added, &removed, &self.probs, self.subscriptions.len());
        let l = self.framework.hypercells().len();
        let mut stats = RebalanceStats {
            incremental: true,
            changed_slots: changed,
            dirty_cells: report.dirty_cells,
            unchanged_hypercells: report.unchanged_hypercells,
            reused_distances: 0,
            moves: 0,
        };
        if l == 0 {
            self.clustering = Clustering::from_assignment(&self.framework, Vec::new());
            self.last_stats = stats;
            return 0;
        }
        let k = self.k.min(l);
        // Same warm start as the full path, served from the delta
        // report instead of a rebuilt framework: an unchanged
        // hyper-cell's cells all vote for its own old group, so the
        // vote collapses to a lookup; a changed hyper-cell tallies its
        // cells' old groups exactly as the full path does.
        let mut tally = vec![0; k];
        let seed: Vec<usize> = (0..l)
            .map(|h| match report.old_index[h] {
                Some(old_h) => {
                    let g = self.clustering.group_of_hyper(old_h);
                    if g < k {
                        g
                    } else {
                        h % k
                    }
                }
                None => {
                    let cells = &self.framework.hypercells()[h].cells;
                    let old = cells.iter().filter_map(|c| report.old_hyper_of_cell.get(c));
                    warm_seed(&self.clustering, old.copied(), &mut tally, h)
                }
            })
            .collect();
        let groups = match carried {
            Some(mut groups) if groups.num_groups() == k => {
                groups.rebase(&self.framework, &report, &self.clustering, &seed);
                if cfg!(debug_assertions) {
                    debug_check_groups(&groups, &self.framework, &seed, "GroupSet::rebase");
                }
                groups
            }
            _ => GroupSet::seeded(&self.framework, k, &seed),
        };
        let (clustering, moves, groups) =
            self.algorithm
                .rebalance_groups(&self.framework, groups, seed);
        self.keep(clustering, groups);
        stats.moves = moves;
        self.last_stats = stats;
        moves
    }

    /// Installs `clustering` and carries `groups`, its group state, to
    /// the next rebalance — unless a group was left empty, which
    /// renumbers the clustering's groups away from the state's.
    fn keep(&mut self, clustering: Clustering, groups: GroupSet) {
        let dense = clustering.num_groups() == groups.num_groups();
        self.clustering = clustering;
        self.groups = dense.then_some(groups);
    }

    /// Rasterizes every slot, in parallel as [`GridFramework::build`]
    /// does. Tombstoned slots rasterize nothing, keeping membership
    /// vectors aligned with ids.
    fn rasterize_population(&self) -> Vec<Vec<CellId>> {
        let grid = &self.grid;
        parallel::par_map(&self.subscriptions, parallel::MIN_PARALLEL_LEN, |s| {
            s.as_ref()
                .map_or_else(Vec::new, |r| grid.cells_overlapping(r))
        })
    }

    /// Full path: re-rasterize the whole population and re-balance
    /// from the per-cell vote warm start.
    fn rebalance_full(&mut self, changed: usize) -> usize {
        let cell_sets = self.rasterize_population();
        let new_fw =
            GridFramework::build_from_cells(self.grid.clone(), &cell_sets, &self.probs, None);
        let l = new_fw.hypercells().len();
        if l == 0 {
            self.framework = new_fw;
            self.clustering = Clustering::from_assignment(&self.framework, Vec::new());
            self.finish_full(changed, 0);
            return 0;
        }
        let k = self.k.min(l);
        // Warm start: a new hyper-cell inherits the group that most of
        // its cells belonged to before (falling back to round-robin for
        // cells in previously empty regions).
        let mut tally = vec![0; k];
        let seed: Vec<usize> = new_fw
            .hypercells()
            .iter()
            .enumerate()
            .map(|(h, hc)| {
                let old = hc
                    .cells
                    .iter()
                    .filter_map(|&c| self.framework.hyper_of_cell(c));
                warm_seed(&self.clustering, old, &mut tally, h)
            })
            .collect();
        let groups = GroupSet::seeded(&new_fw, k, &seed);
        let (clustering, moves, groups) = self.algorithm.rebalance_groups(&new_fw, groups, seed);
        self.framework = new_fw;
        self.keep(clustering, groups);
        self.finish_full(changed, moves);
        moves
    }

    fn finish_full(&mut self, changed: usize, moves: usize) {
        self.baseline.clear();
        self.last_stats = RebalanceStats {
            incremental: false,
            changed_slots: changed,
            dirty_cells: 0,
            unchanged_hypercells: 0,
            reused_distances: 0,
            moves,
        };
    }
}

/// The warm-start group of new hyper-cell `h`, shared by both rebuild
/// paths: the old group that most of its cells belonged to. `old_hypers`
/// yields, per cell that had one, the cell's old hyper-cell in `old`;
/// `tally` is the caller's scratch, one vote count per group `0..k`.
/// Groups `>= k` do not vote, ties go to the lower group id, and a cell
/// set with no vote falls back to round-robin `h % k`.
fn warm_seed(
    old: &Clustering,
    old_hypers: impl Iterator<Item = usize>,
    tally: &mut [usize],
    h: usize,
) -> usize {
    tally.fill(0);
    // (votes, group) of the leader so far: a group that ties the
    // leader's count when it reaches it takes the lead if its id is
    // lower, so the last leader has the most votes and the lowest id.
    let mut best: Option<(usize, usize)> = None;
    for old_h in old_hypers {
        let g = old.group_of_hyper(old_h);
        if let Some(votes) = tally.get_mut(g) {
            *votes += 1;
            if best.is_none_or(|(most, at)| *votes > most || (*votes == most && g < at)) {
                best = Some((*votes, g));
            }
        }
    }
    best.map_or(h % tally.len(), |(_, g)| g)
}

/// Panics unless `groups` equals, field for field and masses by bits, a
/// [`GroupSet`] built from scratch from `framework` and `assignment`,
/// and each of its exact rows equals a fresh walk. `O(n·K + l·K)` and a
/// kernel pass: for debug builds.
fn debug_check_groups(
    groups: &GroupSet,
    framework: &GridFramework,
    assignment: &[usize],
    context: &str,
) {
    let hcs = framework.hypercells();
    let mut scratch = GroupSet::seeded(framework, groups.num_groups(), assignment);
    scratch.price_rows(hcs);
    assert!(groups.is_consistent(hcs), "{context}: carried rows drifted");
    assert!(
        groups.same_as(&scratch),
        "{context}: the carried group state differs from one built from scratch"
    );
}

/// Best-effort rendering of a panic payload (the two shapes `panic!`
/// actually produces, then a fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Test-only: the unit tests of this module and `validate.rs` compare
/// the warm start against a cold one.
#[cfg(test)]
impl DynamicClustering {
    /// Rebuilds from scratch (cold start) — the baseline the warm
    /// start is measured against. Returns the moves performed.
    pub(crate) fn rebuild(&mut self) -> usize {
        let changed = self.baseline.len();
        let cell_sets = self.rasterize_population();
        let new_fw =
            GridFramework::build_from_cells(self.grid.clone(), &cell_sets, &self.probs, None);
        let l = new_fw.hypercells().len();
        let k = self.k.min(l.max(1));
        // Cold seed: round-robin (deliberately uninformed).
        let seed: Vec<usize> = (0..l).map(|h| h % k).collect();
        self.groups = None;
        let (clustering, moves) = if l == 0 {
            (Clustering::from_assignment(&new_fw, Vec::new()), 0)
        } else {
            self.algorithm.cluster_seeded(&new_fw, k, &seed)
        };
        self.framework = new_fw;
        self.clustering = clustering;
        self.finish_full(changed, moves);
        self.debug_validate("DynamicClustering::rebuild");
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansVariant;
    use geometry::{Interval, Point};

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    /// The group an event at `x` is matched to, if any.
    fn group_at(s: &DynamicClustering, x: f64) -> Option<usize> {
        s.clustering()
            .group_of_point(s.framework(), &Point::new(vec![x]))
    }

    fn system(k: usize) -> DynamicClustering {
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let probs = CellProbability::uniform(&grid);
        DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), k)
    }

    #[test]
    fn empty_system() {
        let mut s = system(3);
        assert_eq!(s.num_subscriptions(), 0);
        assert_eq!(s.rebalance(), 0);
        assert_eq!(s.clustering().num_groups(), 0);
        assert_eq!(group_at(&s, 5.0), None);
    }

    #[test]
    fn subscribe_then_rebalance_matches_events() {
        let mut s = system(2);
        s.subscribe(rect1(0.0, 8.0));
        s.subscribe(rect1(12.0, 20.0));
        s.rebalance();
        let left = group_at(&s, 3.0);
        let right = group_at(&s, 15.0);
        assert!(left.is_some() && right.is_some());
        assert_ne!(left, right);
    }

    #[test]
    fn unsubscribe_removes_interest() {
        let mut s = system(2);
        let a = s.subscribe(rect1(0.0, 8.0));
        s.subscribe(rect1(12.0, 20.0));
        s.rebalance();
        assert!(group_at(&s, 3.0).is_some());
        s.unsubscribe(a).unwrap();
        s.rebalance();
        // Nobody is interested around 3.0 anymore.
        assert_eq!(group_at(&s, 3.0), None);
        assert_eq!(s.num_subscriptions(), 1);
    }

    #[test]
    fn unsubscribe_errors() {
        let mut s = system(2);
        let a = s.subscribe(rect1(0.0, 5.0));
        s.unsubscribe(a).unwrap();
        assert_eq!(s.unsubscribe(a), Err(DynamicError::UnknownSubscription(a)));
        assert_eq!(
            s.unsubscribe(SubscriptionId(99)),
            Err(DynamicError::UnknownSubscription(SubscriptionId(99)))
        );
        assert_eq!(
            s.resubscribe(SubscriptionId(99), rect1(0.0, 1.0)),
            Err(DynamicError::UnknownSubscription(SubscriptionId(99)))
        );
        // A tombstoned id is just as dead as a never-issued one, and
        // a failed resubscribe does not bring the slot back.
        assert_eq!(
            s.resubscribe(a, rect1(0.0, 1.0)),
            Err(DynamicError::UnknownSubscription(a))
        );
        assert_eq!(s.subscriptions[a.0], None);
        // Errors render their id for diagnostics.
        assert_eq!(
            DynamicError::UnknownSubscription(a).to_string(),
            format!("subscription #{} does not exist", a.0)
        );
    }

    #[test]
    fn resubscribe_moves_interest() {
        let mut s = system(2);
        let a = s.subscribe(rect1(0.0, 5.0));
        s.rebalance();
        assert!(group_at(&s, 2.0).is_some());
        s.resubscribe(a, rect1(10.0, 15.0)).unwrap();
        s.rebalance();
        assert_eq!(group_at(&s, 2.0), None);
        assert!(group_at(&s, 12.0).is_some());
    }

    #[test]
    fn warm_start_needs_fewer_moves_than_cold_rebuild() {
        // Build a 2-community population, rebalance, then perturb with
        // one extra subscription: the warm restart should move (far)
        // fewer hyper-cells than a cold round-robin rebuild.
        let mut s = system(2);
        for i in 0..8 {
            s.subscribe(rect1(i as f64 * 0.3, 8.0 - i as f64 * 0.3));
            s.subscribe(rect1(12.0 + i as f64 * 0.3, 20.0 - i as f64 * 0.3));
        }
        s.rebalance();
        s.subscribe(rect1(1.0, 7.0));
        let warm_moves = s.rebalance();

        // Same perturbation, cold rebuild.
        let mut cold = system(2);
        for i in 0..8 {
            cold.subscribe(rect1(i as f64 * 0.3, 8.0 - i as f64 * 0.3));
            cold.subscribe(rect1(12.0 + i as f64 * 0.3, 20.0 - i as f64 * 0.3));
        }
        cold.rebalance();
        cold.subscribe(rect1(1.0, 7.0));
        let cold_moves = cold.rebuild();
        assert!(
            warm_moves <= cold_moves,
            "warm {warm_moves} > cold {cold_moves}"
        );
    }

    /// Drives the same churn through an always-incremental and an
    /// always-full instance and checks every observable is bitwise
    /// equal after each rebalance.
    fn assert_paths_agree(ops: impl Fn(&mut DynamicClustering)) {
        let mut inc = system(3).with_max_dirty(f64::INFINITY);
        let mut full = system(3).with_max_dirty(0.0);
        for s in [&mut inc, &mut full] {
            for i in 0..12 {
                s.subscribe(rect1(i as f64, (i + 5) as f64 % 20.0 + 0.5));
            }
            s.rebalance();
        }
        ops(&mut inc);
        ops(&mut full);
        let (mi, mf) = (inc.rebalance(), full.rebalance());
        assert!(inc.last_stats.incremental);
        // Threshold 0.0 forces the full path whenever anything changed
        // (a zero-change rebalance folds in as an incremental no-op).
        assert_eq!(
            full.last_stats.incremental,
            full.last_stats.changed_slots == 0
        );
        assert_eq!(mi, mf, "move counts diverge");
        assert_eq!(
            inc.framework().hypercells().len(),
            full.framework().hypercells().len()
        );
        for (a, b) in inc
            .framework()
            .hypercells()
            .iter()
            .zip(full.framework().hypercells())
        {
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.members, b.members);
            assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
        assert_eq!(
            inc.clustering().num_groups(),
            full.clustering().num_groups()
        );
        for (x, y) in inc
            .clustering()
            .groups()
            .iter()
            .zip(full.clustering().groups())
        {
            assert_eq!(x.hypercells, y.hypercells);
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn incremental_path_is_bit_identical_to_full() {
        assert_paths_agree(|s| {
            s.unsubscribe(SubscriptionId(2)).unwrap();
            s.resubscribe(SubscriptionId(5), rect1(0.5, 3.5)).unwrap();
            let _ = s.subscribe(rect1(10.0, 17.0));
        });
        // Net-zero churn: subscribe then immediately unsubscribe, and
        // resubscribe back to the original rectangle.
        assert_paths_agree(|s| {
            let id = s.subscribe(rect1(1.0, 2.0));
            s.unsubscribe(id).unwrap();
            s.resubscribe(SubscriptionId(0), rect1(9.0, 9.5)).unwrap();
            s.resubscribe(SubscriptionId(0), rect1(0.0, 5.5)).unwrap();
        });
        // Empty delta.
        assert_paths_agree(|_| {});
    }

    #[test]
    fn rebalance_reports_incremental_stats() {
        let mut s = system(2).with_max_dirty(0.5);
        for i in 0..10 {
            s.subscribe(rect1(i as f64, i as f64 + 4.0));
        }
        s.rebalance(); // 10/10 dirty → full path
        assert!(!s.last_stats.incremental);
        assert_eq!(s.last_stats.changed_slots, 10);
        s.resubscribe(SubscriptionId(0), rect1(2.0, 6.0)).unwrap();
        s.rebalance(); // 1/10 dirty → incremental
        let stats = s.last_stats;
        assert!(stats.incremental);
        assert_eq!(stats.changed_slots, 1);
        assert!(stats.dirty_cells > 0);
        assert!(stats.unchanged_hypercells > 0);
        // Without an override the threshold is the constant 0.2: two
        // changed slots of ten fold in incrementally, three do not.
        let mut d = system(2);
        for i in 0..10 {
            d.subscribe(rect1(i as f64, i as f64 + 4.0));
        }
        d.rebalance();
        for (changed, incremental) in [(2, true), (3, false)] {
            for i in 0..changed {
                let r = rect1(i as f64 + 0.5, (i + changed) as f64);
                d.resubscribe(SubscriptionId(i), r).unwrap();
            }
            d.rebalance();
            assert_eq!(d.last_stats.changed_slots, changed);
            assert_eq!(d.last_stats.incremental, incremental);
        }
    }

    #[test]
    fn try_rebalance_matches_rebalance_and_exposes_slots() {
        let mut a = system(2);
        let mut b = system(2);
        for s in [&mut a, &mut b] {
            for i in 0..6 {
                s.subscribe(rect1(i as f64, i as f64 + 3.0));
            }
        }
        let moves = a.rebalance();
        let stats = b.try_rebalance().expect("healthy rebalance validates");
        assert_eq!(stats.moves, moves);
        assert_eq!(stats, b.last_stats);
        assert_eq!(
            a.framework().hypercells().len(),
            b.framework().hypercells().len()
        );
        // Slot accessor: ids index the slots, tombstones stay visible.
        let id = SubscriptionId(2);
        b.unsubscribe(id).unwrap();
        assert_eq!(b.subscription_slots().len(), 6);
        assert!(b.subscription_slots()[id.index()].is_none());
        assert!(b.subscription_slots()[0].is_some());
        b.try_rebalance().expect("tombstone fold validates");
        assert_eq!(b.framework().num_subscribers(), 6);
        // Error rendering is exercised even without a failure path.
        let err = RebalanceError::Panicked("boom".into());
        assert!(err.to_string().contains("boom"));
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("s"));
        assert_eq!(panic_message(payload.as_ref()), "s");
        let payload: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(payload.as_ref()), "static");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }

    #[test]
    fn k_zero_and_k_above_the_hypercells_rebalance() {
        let populate = |k: usize| {
            let mut s = system(k);
            for i in 0..6 {
                let lo = 3.0 * i as f64;
                s.subscribe(rect1(lo, lo + 4.0));
            }
            s
        };
        for k in [0, 1_000] {
            let mut s = populate(k);
            s.rebalance();
            let groups = s.clustering().num_groups();
            assert!(groups >= 1 && groups <= s.framework().hypercells().len());
            if k == 0 {
                assert_eq!(groups, 1);
            }
            s.subscribe(rect1(1.0, 2.0));
            assert!(s.try_rebalance().is_ok(), "k = {k}");
            s.subscribe(rect1(17.0, 19.0));
            s.rebuild();
            assert!(s.clustering().num_groups() >= 1);
        }
        let mut s = populate(0);
        s.rebalance();
        let service = crate::service::BrokerService::start(
            s,
            crate::service::ServiceConfig {
                ingest_threads: 1,
                ..Default::default()
            },
        )
        .expect("the k = 0 plan validates");
        service.subscribe(rect1(5.0, 6.0));
        assert_eq!(service.rebalance().expect("the swap publishes").version, 1);
        let (report, _) = service.shutdown();
        assert_eq!(report.swaps, 1);
    }

    /// Both paths leave the group state of their clustering, rows
    /// exact, for the next rebalance; an incremental rebalance patches
    /// it. A clone copies it (the same next rebalance); `fork` moves it.
    #[test]
    fn the_group_state_is_carried_and_moved_never_cloned() {
        let carried = |s: &DynamicClustering| s.groups.as_ref().is_some_and(GroupSet::rows_exact);
        let same = |a: &DynamicClustering, b: &DynamicClustering| {
            let both = a.groups.as_ref().zip(b.groups.as_ref());
            both.is_some_and(|(x, y)| x.same_as(y))
        };
        let mut s = system(3);
        for i in 0..12 {
            s.subscribe(rect1(i as f64, i as f64 + 4.0));
        }
        s.rebalance();
        assert!(!s.last_stats.incremental && carried(&s));
        s.resubscribe(SubscriptionId(4), rect1(13.0, 19.0)).unwrap();
        s.rebalance();
        assert!(s.last_stats.incremental && carried(&s));
        let mut copy = s.clone();
        assert!(same(&copy, &s));
        for t in [&mut s, &mut copy] {
            t.resubscribe(SubscriptionId(7), rect1(0.0, 3.0)).unwrap();
        }
        let stats = copy.try_rebalance().expect("the clone rebalances");
        s.rebalance();
        assert_eq!(stats, s.last_stats);
        assert!(stats.incremental && carried(&copy) && same(&copy, &s));
        let work = s.fork();
        assert!(carried(&work) && s.groups.is_none());
    }

    #[test]
    fn ids_stay_stable_across_churn() {
        let mut s = system(2);
        let a = s.subscribe(rect1(0.0, 5.0));
        let b = s.subscribe(rect1(5.0, 10.0));
        s.unsubscribe(a).unwrap();
        let c = s.subscribe(rect1(10.0, 15.0));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        s.rebalance();
        assert_eq!(s.num_subscriptions(), 2);
    }
}
