//! The grid-based clustering framework (Section 4.1 of the paper).
//!
//! The pipeline turns raw subscriptions into the objects the clustering
//! heuristics operate on:
//!
//! 1. **rasterize** every subscription rectangle onto a regular grid,
//!    building a membership bit-vector per cell;
//! 2. **merge** cells with identical membership into *hyper-cells*
//!    (combining them costs zero expected waste);
//! 3. **rank** hyper-cells by popularity `r(a) = p_p(a)·|s(a)|` and
//!    keep only the most popular ones ("the rest [is left] for
//!    unicast") — the paper's *number of rectangles* parameter that
//!    Figures 8 and 10 sweep.
//!
//! Under churn, [`GridFramework::apply_delta`] re-runs steps 1–2 for the
//! changed rectangles and the cells they touch only: the old
//! hyper-cells and the dirty cells meet in one per-call map keyed by
//! membership vector — the merge the cold build does — and nothing is
//! kept between calls but the hyper-cells themselves.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use geometry::{CellId, Grid, Point, Rect};

use crate::clustering::group_distance;
use crate::distance::DistanceMatrix;
use crate::membership::BitSet;
use crate::parallel;
use crate::waste::{popularity, popularity_weighted};

/// Cap (in hyper-cells) above which [`GridFramework::distance_matrix`]
/// declines to build the pairwise matrix (`l(l−1)/2` f64s ≈ 150 MB at
/// 6144 cells).
const DISTANCE_CACHE_CELLS: usize = 6144;

/// Per-cell publication probability `p_p` over a grid.
///
/// The paper weighs distances and popularity by the publication density;
/// the simulator estimates it empirically from a sample of events
/// ([`CellProbability::empirical`]) or assumes a flat distribution
/// ([`CellProbability::uniform`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CellProbability {
    probs: Vec<f64>,
}

impl CellProbability {
    /// A uniform distribution: every cell gets `1 / num_cells`.
    pub fn uniform(grid: &Grid) -> Self {
        let n = grid.num_cells();
        CellProbability {
            probs: vec![1.0 / n as f64; n],
        }
    }

    /// An empirical estimate from a sample of event points: each cell's
    /// probability is its share of the in-bounds sample. Out-of-bounds
    /// points are ignored. An empty (or fully out-of-bounds) sample
    /// falls back to the uniform distribution.
    pub fn empirical<'a>(grid: &Grid, sample: impl IntoIterator<Item = &'a Point>) -> Self {
        let mut counts = vec![0usize; grid.num_cells()];
        let mut total = 0usize;
        for p in sample {
            if let Some(c) = grid.cell_of(p) {
                counts[c.index()] += 1;
                total += 1;
            }
        }
        if total == 0 {
            return CellProbability::uniform(grid);
        }
        CellProbability {
            probs: counts
                .into_iter()
                .map(|c| c as f64 / total as f64)
                .collect(),
        }
    }

    /// The probability mass of cell `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn prob(&self, c: CellId) -> f64 {
        self.probs[c.index()]
    }

    /// From an arbitrary mass function over cell rectangles — e.g. the
    /// analytic publication density of a workload model. Masses are
    /// normalized over the grid; if the function assigns zero mass
    /// everywhere, falls back to uniform.
    ///
    /// # Panics
    ///
    /// Panics if the function returns a negative, NaN or infinite mass.
    pub fn from_mass_fn(grid: &Grid, mass: impl Fn(&Rect) -> f64) -> Self {
        let mut probs: Vec<f64> = grid
            .iter()
            .map(|c| {
                let m = mass(&grid.cell_rect(c));
                assert!(
                    m >= 0.0 && m.is_finite(),
                    "cell mass must be finite and non-negative, got {m}"
                );
                m
            })
            .collect();
        let mut total: f64 = probs.iter().sum();
        if total.is_infinite() {
            // Finite masses whose sum overflows: scale by the largest
            // first, so the normalised masses keep their ratios.
            let max = probs.iter().copied().fold(0.0, f64::max);
            for p in &mut probs {
                *p /= max;
            }
            total = probs.iter().sum();
        }
        if total <= 0.0 {
            return CellProbability::uniform(grid);
        }
        for p in &mut probs {
            *p /= total;
        }
        CellProbability { probs }
    }
}

/// A maximal set of grid cells sharing one membership vector. Combining
/// them into any group is free (zero expected waste), so hyper-cells are
/// the atomic clustering unit; the paper calls them "rectangles" when
/// counting how many are fed to an algorithm.
#[derive(Debug, Clone)]
pub struct HyperCell {
    /// The grid cells merged into this hyper-cell.
    pub cells: Vec<CellId>,
    /// The common membership vector.
    pub members: BitSet,
    /// Total publication probability over the member cells.
    pub prob: f64,
}

impl HyperCell {
    /// The popularity rating `r = p_p · |s|`.
    pub fn popularity(&self) -> f64 {
        popularity(self.prob, &self.members)
    }
}

/// The prepared grid framework: hyper-cells ranked by popularity plus
/// the cell → hyper-cell index used at matching time.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{CellProbability, GridFramework};
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 5.0)?]),
///     Rect::new(vec![Interval::new(0.0, 5.0)?]),
///     Rect::new(vec![Interval::new(5.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// // Cells (0,5] share membership {0,1}; cells (5,10] share {2}.
/// assert_eq!(fw.hypercells().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridFramework {
    pub(crate) grid: Grid,
    pub(crate) num_subscribers: usize,
    /// Per-subscriber multiplicities for class-universe frameworks built
    /// by the aggregation layer (`None` for ordinary concrete builds).
    /// A weighted framework ranks and measures hyper-cells as if member
    /// `i` were `weights[i]` concrete subscribers, which makes its
    /// clustering bit-identical to the expanded concrete clustering.
    pub(crate) weights: Option<Arc<Vec<u64>>>,
    pub(crate) hypercells: Vec<HyperCell>,
    pub(crate) cell_to_hyper: HashMap<CellId, usize>,
    /// Whether the framework holds *every* merged hyper-cell (merged
    /// build, nothing truncated or filtered) — the precondition for
    /// [`GridFramework::apply_delta`], which assumes each live cell is
    /// mapped and each membership vector appears exactly once.
    pub(crate) complete: bool,
}

/// Per-cell bit flips accumulated from the delta rectangles.
#[derive(Default)]
struct CellOps {
    clears: Vec<usize>,
    sets: Vec<usize>,
}

/// A hyper-cell being reassembled during [`GridFramework::apply_delta`],
/// keyed by its membership vector.
struct GroupBuild {
    cells: Vec<CellId>,
    /// Probability mass of `cells`, kept only while `old` is `Some`.
    prob: f64,
    /// The old hyper-cell this entry still equals byte for byte; `None`
    /// once it gained or lost a cell, or when it is new.
    old: Option<usize>,
}

/// Ranks hyper-cells by decreasing popularity `key`, ties to the
/// ascending first cell. Each key (a membership count) is computed once
/// rather than in every comparison. First cells are distinct, so the
/// order is total and does not depend on how the sort runs.
fn rank_by_popularity<T>(
    items: Vec<T>,
    hyper: impl Fn(&T) -> &HyperCell,
    key: impl Fn(&HyperCell) -> f64,
) -> Vec<T> {
    let mut keyed: Vec<(f64, CellId, T)> = items
        .into_iter()
        .map(|t| {
            let hc = hyper(&t);
            // lint: allow(no-literal-index): hyper-cells always hold >= 1 cell
            let (k, first) = (key(hc), hc.cells[0]);
            (k, first, t)
        })
        .collect();
    keyed.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("popularity is never NaN")
            .then_with(|| a.1.cmp(&b.1))
    });
    keyed.into_iter().map(|(_, _, t)| t).collect()
}

/// Outcome summary of one [`GridFramework::apply_delta`] call, with the
/// old↔new hyper-cell correspondence warm starts need.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Grid cells whose membership vector actually changed.
    pub dirty_cells: usize,
    /// New hyper-cells whose content differs from every old hyper-cell.
    pub changed_hypercells: usize,
    /// New hyper-cells byte-identical to an old hyper-cell.
    pub unchanged_hypercells: usize,
    /// For each new hyper-cell index, the old hyper-cell it is
    /// byte-identical to (`None` for changed hyper-cells).
    pub old_index: Vec<Option<usize>>,
    /// The pre-delta hyper-cell of every cell that now sits in a
    /// *changed* hyper-cell and was mapped before the delta (cells of
    /// previously empty regions are absent).
    pub old_hyper_of_cell: HashMap<CellId, usize>,
    /// The net bit flips of every dirty cell, in cell order.
    pub(crate) flips: Vec<CellFlip>,
}

/// One dirty cell's net membership change in a [`DeltaReport`].
#[derive(Debug, Clone)]
pub(crate) struct CellFlip {
    pub(crate) cell: CellId,
    /// The cell's pre-delta hyper-cell; `None` if it was empty.
    pub(crate) old_hyper: Option<usize>,
    /// Subscribers the delta took out of the cell, in delta order.
    pub(crate) cleared: Vec<usize>,
    /// Subscribers the delta put into the cell, in delta order.
    pub(crate) set: Vec<usize>,
}

impl GridFramework {
    /// Builds the framework: rasterize, merge, rank, truncate.
    ///
    /// `max_cells` is the paper's *number of rectangles* knob — at most
    /// that many hyper-cells (by decreasing popularity) are kept; `None`
    /// keeps them all. Cells no subscriber overlaps are dropped outright
    /// (events there interest nobody).
    ///
    /// # Panics
    ///
    /// Panics if a subscription's dimension differs from the grid's.
    pub fn build(
        grid: Grid,
        subscriptions: &[Rect],
        probs: &CellProbability,
        max_cells: Option<usize>,
    ) -> Self {
        // Rasterization is embarrassingly parallel: each subscription's
        // overlapping-cell set is independent of the others.
        let cell_sets: Vec<Vec<CellId>> =
            parallel::par_map(subscriptions, parallel::MIN_PARALLEL_LEN, |rect| {
                grid.cells_overlapping(rect)
            });
        Self::build_from_cells(grid, &cell_sets, probs, max_cells)
    }

    /// [`GridFramework::build`] over a *class* universe from
    /// pre-rasterized cell sets: slot `i` stands for `weights[i]`
    /// concrete subscribers. Ranking, distances and popularity all use
    /// the weighted counts, so the resulting clustering is
    /// bit-identical to building over the expanded concrete population.
    /// The aggregation layer rasterizes itself so it can hand
    /// tombstoned (zero-weight) classes an empty cell set, keeping cold
    /// rebuilds consistent with churned frameworks whose dead-class
    /// bits were cleared in place.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cell_sets.len()` or if a cell id is
    /// out of range for the grid.
    pub(crate) fn build_weighted_from_cells(
        grid: Grid,
        cell_sets: &[Vec<CellId>],
        weights: Arc<Vec<u64>>,
        probs: &CellProbability,
        max_cells: Option<usize>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            cell_sets.len(),
            "one weight per class subscription"
        );
        Self::build_from_cells_impl(grid, cell_sets, probs, max_cells, Some(weights))
    }

    /// Builds the framework *without* the hyper-cell merge step: every
    /// non-empty cell becomes its own single-cell "hyper-cell". Same
    /// matching semantics, strictly more clustering input — the
    /// ablation for the paper's Section 4.1 implementation note that
    /// merging identical membership vectors is free.
    pub fn build_unmerged(
        grid: Grid,
        subscriptions: &[Rect],
        probs: &CellProbability,
        max_cells: Option<usize>,
    ) -> Self {
        let num_subscribers = subscriptions.len();
        let mut cell_members: HashMap<CellId, BitSet> = HashMap::new();
        for (i, rect) in subscriptions.iter().enumerate() {
            for cell in grid.cells_overlapping(rect) {
                cell_members
                    .entry(cell)
                    .or_insert_with(|| BitSet::new(num_subscribers))
                    .insert(i);
            }
        }
        let hypercells: Vec<HyperCell> = cell_members
            // lint: allow(hash-order): totally sorted by (popularity, first
            // cell) below
            .into_iter()
            .map(|(cell, members)| HyperCell {
                prob: probs.prob(cell),
                cells: vec![cell],
                members,
            })
            .collect();
        let mut hypercells = rank_by_popularity(hypercells, |hc| hc, HyperCell::popularity);
        if let Some(max) = max_cells {
            hypercells.truncate(max);
        }
        let cell_to_hyper = hypercells
            .iter()
            .enumerate()
            // lint: allow(no-literal-index): hyper-cells always hold >= 1 cell
            .map(|(h, hc)| (hc.cells[0], h))
            .collect();
        GridFramework {
            grid,
            num_subscribers,
            weights: None,
            hypercells,
            cell_to_hyper,
            // Unmerged builds break apply_delta's "one hyper-cell per
            // membership vector" invariant.
            complete: false,
        }
    }

    /// Builds the framework from *arbitrary* per-subscriber cell sets
    /// instead of rectangles — the paper's Section 6 extension: "the
    /// same grid data structures can be created without requiring the
    /// sets to be rectangles". Any interest shape that can be
    /// rasterized (polygons, unions of rectangles, point sets rounded
    /// up to cells) clusters identically.
    ///
    /// # Panics
    ///
    /// Panics if any cell id is out of range for the grid.
    pub fn build_from_cells(
        grid: Grid,
        cell_sets: &[Vec<CellId>],
        probs: &CellProbability,
        max_cells: Option<usize>,
    ) -> Self {
        Self::build_from_cells_impl(grid, cell_sets, probs, max_cells, None)
    }

    /// Shared merged-build body; `weights` selects the class-universe
    /// (weighted) ranking, `None` the ordinary concrete ranking.
    fn build_from_cells_impl(
        grid: Grid,
        cell_sets: &[Vec<CellId>],
        probs: &CellProbability,
        max_cells: Option<usize>,
        weights: Option<Arc<Vec<u64>>>,
    ) -> Self {
        let num_subscribers = cell_sets.len();
        // 1. Rasterize: membership vector per non-empty cell. Subscriber
        //    chunks build partial maps in parallel, then the partials are
        //    OR-merged — set union is order-insensitive, so the result is
        //    identical to the serial insertion loop.
        let build_partial = |range: std::ops::Range<usize>| {
            let mut partial: HashMap<CellId, BitSet> = HashMap::new();
            for i in range {
                for &cell in &cell_sets[i] {
                    assert!(cell.index() < grid.num_cells(), "cell id out of range");
                    partial
                        .entry(cell)
                        .or_insert_with(|| BitSet::new(num_subscribers))
                        .insert(i);
                }
            }
            partial
        };
        let threads = parallel::num_threads();
        let cell_members: HashMap<CellId, BitSet> =
            if threads <= 1 || num_subscribers < parallel::MIN_PARALLEL_LEN {
                build_partial(0..num_subscribers)
            } else {
                let chunk = num_subscribers.div_ceil(threads * 4).max(1);
                let mut partials =
                    parallel::par_chunks(num_subscribers, chunk, build_partial).into_iter();
                let mut merged = partials.next().unwrap_or_default();
                for partial in partials {
                    // lint: allow(hash-order): merged by commutative set union
                    for (cell, members) in partial {
                        match merged.entry(cell) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                e.get_mut().union_with(&members)
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(members);
                            }
                        }
                    }
                }
                merged
            };
        // 2. Merge identical membership vectors into hyper-cells.
        let mut by_members: HashMap<BitSet, Vec<CellId>> = HashMap::new();
        // lint: allow(hash-order): grouping only; each group's cells are
        // sorted below and the hyper-cell list gets a total-order sort
        for (cell, members) in cell_members {
            by_members.entry(members).or_default().push(cell);
        }
        // lint: allow(hash-order): per-entry work is order-local (cells are
        // sorted, prob summed in sorted cell order); the list is totally
        // sorted by (popularity, first cell) before use
        let hypercells: Vec<HyperCell> = by_members
            // lint: allow(hash-order): see the note above
            .into_iter()
            .map(|(members, mut cells)| {
                cells.sort_unstable();
                let prob = cells.iter().map(|&c| probs.prob(c)).sum();
                HyperCell {
                    cells,
                    members,
                    prob,
                }
            })
            .collect();
        // 3. Rank by popularity (descending; ties broken by first cell id
        //    for determinism) and truncate. Weighted builds rank by the
        //    class-expanded popularity — the same value the concrete
        //    build would compute for the same hyper-cell.
        let rank = |hc: &HyperCell| match &weights {
            None => hc.popularity(),
            Some(w) => popularity_weighted(hc.prob, &hc.members, w),
        };
        let mut hypercells = rank_by_popularity(hypercells, |hc| hc, rank);
        let complete = match max_cells {
            None => true,
            Some(max) => hypercells.len() <= max,
        };
        if let Some(max) = max_cells {
            hypercells.truncate(max);
        }
        let cell_to_hyper = hypercells
            .iter()
            .enumerate()
            .flat_map(|(h, hc)| hc.cells.iter().map(move |&c| (c, h)))
            .collect();
        GridFramework {
            grid,
            num_subscribers,
            weights,
            hypercells,
            cell_to_hyper,
            complete,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of subscriptions the membership vectors are indexed by.
    pub fn num_subscribers(&self) -> usize {
        self.num_subscribers
    }

    /// The kept hyper-cells, sorted by decreasing popularity.
    pub fn hypercells(&self) -> &[HyperCell] {
        &self.hypercells
    }

    /// The hyper-cell containing grid cell `c`, if it was kept.
    pub fn hyper_of_cell(&self, c: CellId) -> Option<usize> {
        self.cell_to_hyper.get(&c).copied()
    }

    /// The hyper-cell (if any) containing the event point.
    pub fn hyper_of_point(&self, p: &Point) -> Option<usize> {
        self.grid.cell_of(p).and_then(|c| self.hyper_of_cell(c))
    }

    /// The full cell → kept-hyper-cell mapping, for plan compilation.
    pub(crate) fn cell_to_hyper(&self) -> &HashMap<CellId, usize> {
        &self.cell_to_hyper
    }

    /// The per-slot multiplicities of a class-universe (weighted)
    /// framework; `None` for ordinary concrete builds.
    pub(crate) fn weights_ref(&self) -> Option<&[u64]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// Builds (in parallel) the pairwise distance matrix over this
    /// framework's hyper-cells. Nothing caches it: each call builds a
    /// fresh matrix, and pairwise grouping keeps the one it reads as a
    /// local.
    ///
    /// Returns `None` when the framework exceeds the size cap
    /// (6144 hyper-cells) or has fewer than two hyper-cells; callers
    /// then compute distances directly. Entries are exactly the values
    /// [`expected_waste`](crate::expected_waste) (its weighted form on a
    /// class-universe framework) would return for the same hyper-cell
    /// pair, so reading the matrix never changes results.
    pub fn distance_matrix(&self) -> Option<DistanceMatrix> {
        let l = self.hypercells.len();
        (2..=DISTANCE_CACHE_CELLS)
            .contains(&l)
            .then(|| DistanceMatrix::build_weighted(&self.hypercells, self.weights_ref()))
    }

    /// Removes the most isolated hyper-cells — the outlier-removal
    /// step the paper leaves as future work ("the implementation of
    /// outlier removal algorithms for detection of cells that have
    /// rather unique combination of subscribers").
    ///
    /// A hyper-cell's isolation is its expected-waste distance to the
    /// nearest other hyper-cell; the `fraction` most isolated cells
    /// are dropped (their events fall back to unicast). Returns the
    /// filtered framework.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn remove_outliers(&self, fraction: f64) -> GridFramework {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let l = self.hypercells.len();
        let drop = ((l as f64) * fraction).round() as usize;
        if drop == 0 || l < 2 {
            return self.clone();
        }
        // Isolation score: distance to the nearest other hyper-cell.
        // Rows are independent, so they are scored in parallel.
        let weights = self.weights_ref();
        let scores_vec = parallel::par_map_indexed(l, 8, |i| {
            let a = &self.hypercells[i];
            let mut best = f64::INFINITY;
            for (j, b) in self.hypercells.iter().enumerate() {
                if i != j {
                    let d = group_distance(a.prob, &a.members, b.prob, &b.members, weights);
                    if d < best {
                        best = d;
                    }
                }
            }
            (best, i)
        });
        let mut scores: Vec<(f64, usize)> = scores_vec;
        // Most isolated first; ties (e.g. mutually-nearest pairs, where
        // the distance is symmetric) break toward the least popular
        // cell — "rather unique combination of subscribers" means few
        // subscribers and little publication mass. The sort is stable:
        // full ties keep rank order.
        let popularity: Vec<f64> = self.hypercells.iter().map(HyperCell::popularity).collect();
        scores.sort_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .expect("distance is never NaN")
                .then_with(|| {
                    popularity[x.1]
                        .partial_cmp(&popularity[y.1])
                        .expect("popularity is never NaN")
                })
        });
        let dropped: std::collections::HashSet<usize> =
            scores.iter().take(drop).map(|&(_, i)| i).collect();
        let hypercells: Vec<HyperCell> = self
            .hypercells
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropped.contains(i))
            .map(|(_, hc)| hc.clone())
            .collect();
        let cell_to_hyper = hypercells
            .iter()
            .enumerate()
            .flat_map(|(h, hc)| hc.cells.iter().map(move |&c| (c, h)))
            .collect();
        GridFramework {
            grid: self.grid.clone(),
            num_subscribers: self.num_subscribers,
            weights: self.weights.clone(),
            hypercells,
            cell_to_hyper,
            // Dropped outliers leave live cells unmapped, so the
            // filtered framework cannot take deltas.
            complete: false,
        }
    }

    /// Whether [`GridFramework::apply_delta`] may be called: the
    /// framework holds every merged hyper-cell (no truncation, no
    /// outlier filtering, not an unmerged ablation build) over concrete
    /// subscribers (not a weighted class universe).
    pub fn supports_incremental(&self) -> bool {
        self.complete && self.weights.is_none()
    }

    /// Applies a subscription delta in place: `removed[i] = (id, rect)`
    /// clears subscriber `id`'s bit in every cell of `rect`, `added`
    /// sets bits likewise, and only the *dirty* cells — those whose
    /// membership vector actually changed — are re-merged into
    /// hyper-cells. The subscriber universe may grow to
    /// `num_subscribers` (new indices start absent everywhere).
    ///
    /// The result is bit-for-bit identical to a cold
    /// [`GridFramework::build`] over the post-delta population, at any
    /// thread count: untouched hyper-cells keep their exact cells,
    /// membership words and probability sums; changed ones are
    /// recomputed with the very same expressions the full build uses;
    /// and the final ranking is the full build's `rank_by_popularity`,
    /// whose keys are taken after every `prob` is final.
    ///
    /// A subscriber appearing in both slices is a *resubscribe*: its
    /// old rectangle's bits are cleared before the new one's are set.
    ///
    /// # Panics
    ///
    /// Panics if the framework is not [`GridFramework::supports_incremental`],
    /// if it is a weighted class-universe framework (an aggregation is
    /// rebuilt from its population, never patched), if
    /// `num_subscribers` is smaller than the current universe, if a
    /// delta id is `>= num_subscribers`, or on rectangle dimension
    /// mismatch.
    pub fn apply_delta(
        &mut self,
        added: &[(usize, Rect)],
        removed: &[(usize, Rect)],
        probs: &CellProbability,
        num_subscribers: usize,
    ) -> DeltaReport {
        assert!(
            self.complete,
            "apply_delta requires a complete (merged, untruncated) framework"
        );
        assert!(
            self.weights.is_none(),
            "apply_delta requires an unweighted framework"
        );
        assert!(
            num_subscribers >= self.num_subscribers,
            "the subscriber universe never shrinks (tombstones keep their slot)"
        );
        // Grow the universe in place (new indices absent everywhere).
        if num_subscribers > self.num_subscribers {
            for hc in &mut self.hypercells {
                hc.members.grow(num_subscribers);
            }
            self.num_subscribers = num_subscribers;
        }

        // 1. Delta rasterization: only the changed rectangles touch the
        //    grid, in parallel like the full build's rasterization.
        let removed_cells: Vec<Vec<CellId>> =
            parallel::par_map(removed, parallel::MIN_PARALLEL_LEN, |(_, r)| {
                self.grid.cells_overlapping(r)
            });
        let added_cells: Vec<Vec<CellId>> =
            parallel::par_map(added, parallel::MIN_PARALLEL_LEN, |(_, r)| {
                self.grid.cells_overlapping(r)
            });

        // 2. Collect the per-cell bit flips. Clears land before sets so
        //    a same-id resubscribe nets out correctly; flips of distinct
        //    ids commute.
        let mut ops: HashMap<CellId, CellOps> = HashMap::new();
        for ((id, _), cells) in removed.iter().zip(&removed_cells) {
            assert!(*id < num_subscribers, "removed id out of universe");
            for &c in cells {
                ops.entry(c).or_default().clears.push(*id);
            }
        }
        for ((id, _), cells) in added.iter().zip(&added_cells) {
            assert!(*id < num_subscribers, "added id out of universe");
            for &c in cells {
                ops.entry(c).or_default().sets.push(*id);
            }
        }
        // lint: allow(hash-order): collected then sorted by cell id below
        let mut flipped: Vec<(CellId, CellOps)> = ops.into_iter().collect();
        flipped.sort_unstable_by_key(|&(c, _)| c);

        // 3. Derive each touched cell's new membership vector; cells
        //    whose vector nets out unchanged (e.g. a resubscribe
        //    covering the same cell) are not dirty.
        let mut affected_old: HashSet<usize> = HashSet::new();
        let mut dirty: Vec<(CellId, BitSet)> = Vec::new();
        let mut flips = Vec::new();
        let empty = BitSet::new(self.num_subscribers);
        for (cell, op) in flipped {
            let old_h = self.cell_to_hyper.get(&cell).copied();
            let old = old_h.map_or(&empty, |h| &self.hypercells[h].members);
            let mut m = old.clone();
            for &i in &op.clears {
                m.remove(i);
            }
            for &i in &op.sets {
                m.insert(i);
            }
            if m == *old {
                continue;
            }
            if let Some(h) = old_h {
                affected_old.insert(h);
            }
            flips.push(CellFlip {
                cell,
                old_hyper: old_h,
                cleared: op.clears.into_iter().filter(|&i| !m.contains(i)).collect(),
                set: op.sets.into_iter().filter(|&i| !old.contains(i)).collect(),
            });
            dirty.push((cell, m));
        }

        // 4. Re-merge inside the dirty region, by membership vector as
        //    the full build merges: every old hyper-cell's vector is
        //    moved in as a key, affected hyper-cells give up their dirty
        //    cells, and each dirty cell joins the entry of its new
        //    vector — an old hyper-cell's, touched or not, or a fresh
        //    one. A dirty cell's new vector always differs from its old
        //    hyper-cell's, so any entry that gains or loses a cell is
        //    genuinely changed.
        let dirty_set: HashSet<CellId> = dirty.iter().map(|(c, _)| *c).collect();
        let old_hypercells = std::mem::take(&mut self.hypercells);
        let mut groups: HashMap<BitSet, GroupBuild> =
            HashMap::with_capacity(old_hypercells.len() + dirty.len());
        for (h, hc) in old_hypercells.into_iter().enumerate() {
            let b = if affected_old.contains(&h) {
                GroupBuild {
                    cells: hc
                        .cells
                        .into_iter()
                        .filter(|c| !dirty_set.contains(c))
                        .collect(),
                    prob: 0.0,
                    old: None,
                }
            } else {
                GroupBuild {
                    cells: hc.cells,
                    prob: hc.prob,
                    old: Some(h),
                }
            };
            groups.insert(hc.members, b);
        }
        let dirty_cells = dirty.len();
        for (cell, members) in dirty {
            // An emptied cell is dropped outright (events there
            // interest nobody), exactly as the full build drops it.
            if members.is_empty() {
                continue;
            }
            let b = groups.entry(members).or_insert_with(|| GroupBuild {
                cells: Vec::new(),
                prob: 0.0,
                old: None,
            });
            b.cells.push(cell);
            b.old = None;
        }

        // 5. Finalize. Changed entries recompute cells/prob with the
        //    full build's exact expressions; unchanged ones move
        //    through byte-identical (and remember their old index, the
        //    key to warm starts).
        let mut rebuilt: Vec<(HyperCell, Option<usize>)> = Vec::with_capacity(groups.len());
        // lint: allow(hash-order): per-group work is order-local; `rebuilt`
        // gets a total-order sort by (popularity, first cell) below
        for (members, b) in groups {
            if b.cells.is_empty() {
                continue;
            }
            let (cells, prob) = match b.old {
                Some(_) => (b.cells, b.prob),
                None => {
                    let mut cells = b.cells;
                    cells.sort_unstable();
                    let prob = cells.iter().map(|&c| probs.prob(c)).sum();
                    (cells, prob)
                }
            };
            rebuilt.push((
                HyperCell {
                    cells,
                    members,
                    prob,
                },
                b.old,
            ));
        }
        let rebuilt = rank_by_popularity(rebuilt, |(hc, _)| hc, HyperCell::popularity);

        // 6. Capture, from the *old* cell index, where each cell of a
        //    changed hyper-cell used to live — warm-start votes read
        //    this instead of the discarded old framework.
        let mut old_hyper_of_cell = HashMap::new();
        for (hc, old) in &rebuilt {
            if old.is_none() {
                for &c in &hc.cells {
                    if let Some(&oh) = self.cell_to_hyper.get(&c) {
                        old_hyper_of_cell.insert(c, oh);
                    }
                }
            }
        }

        // 7. Install the new hyper-cells and indexes.
        let (hypercells, old_index): (Vec<HyperCell>, Vec<Option<usize>>) =
            rebuilt.into_iter().unzip();
        self.hypercells = hypercells;
        self.cell_to_hyper = self
            .hypercells
            .iter()
            .enumerate()
            .flat_map(|(h, hc)| hc.cells.iter().map(move |&c| (c, h)))
            .collect();

        DeltaReport {
            dirty_cells,
            changed_hypercells: old_index.iter().filter(|o| o.is_none()).count(),
            unchanged_hypercells: old_index.iter().filter(|o| o.is_some()).count(),
            old_index,
            old_hyper_of_cell,
            flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Interval;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn grid10() -> Grid {
        Grid::cube(0.0, 10.0, 1, 10).unwrap()
    }

    #[test]
    fn empirical_probability_counts_sample() {
        let g = grid10();
        let pts = vec![
            Point::new(vec![0.5]),
            Point::new(vec![0.7]),
            Point::new(vec![5.5]),
            Point::new(vec![50.0]), // out of bounds, ignored
        ];
        let p = CellProbability::empirical(&g, &pts);
        let c0 = g.cell_of(&Point::new(vec![0.5])).unwrap();
        let c5 = g.cell_of(&Point::new(vec![5.5])).unwrap();
        assert!((p.prob(c0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.prob(c5) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_falls_back_to_uniform() {
        let g = grid10();
        let p = CellProbability::empirical(&g, &[]);
        assert_eq!(p, CellProbability::uniform(&g));
    }

    #[test]
    fn build_merges_identical_membership() {
        let g = grid10();
        let subs = vec![rect1(0.0, 5.0), rect1(0.0, 5.0), rect1(5.0, 10.0)];
        let fw = GridFramework::build(g, &subs, &CellProbability::uniform(&grid10()), None);
        assert_eq!(fw.hypercells().len(), 2);
        // Each hyper-cell spans 5 unit cells; probabilities sum to 0.5.
        for hc in fw.hypercells() {
            assert_eq!(hc.cells.len(), 5);
            assert!((hc.prob - 0.5).abs() < 1e-12);
        }
        // Most popular first: membership {0,1} has popularity 1.0 > 0.5.
        assert_eq!(fw.hypercells()[0].members.count(), 2);
        assert_eq!(fw.hypercells()[1].members.count(), 1);
    }

    #[test]
    fn empty_cells_are_dropped() {
        let g = grid10();
        let subs = vec![rect1(0.0, 2.0)];
        let fw = GridFramework::build(g, &subs, &CellProbability::uniform(&grid10()), None);
        // Only the two cells under (0,2] survive, as one hyper-cell.
        assert_eq!(fw.hypercells().len(), 1);
        assert_eq!(fw.hypercells()[0].cells.len(), 2);
        // A point outside any subscription maps to no hyper-cell.
        assert_eq!(fw.hyper_of_point(&Point::new(vec![9.5])), None);
    }

    #[test]
    fn truncation_keeps_most_popular() {
        let g = grid10();
        // Three membership classes with different popularity.
        let subs = vec![
            rect1(0.0, 3.0),
            rect1(0.0, 3.0),
            rect1(0.0, 3.0),
            rect1(3.0, 6.0),
            rect1(3.0, 6.0),
            rect1(6.0, 10.0),
        ];
        let full = GridFramework::build(g.clone(), &subs, &CellProbability::uniform(&g), None);
        assert_eq!(full.hypercells().len(), 3);
        let fw = GridFramework::build(g, &subs, &CellProbability::uniform(&grid10()), Some(1));
        assert_eq!(fw.hypercells().len(), 1);
        assert_eq!(fw.hypercells()[0].members.count(), 3);
        // Dropped cells resolve to no hyper-cell.
        assert_eq!(fw.hyper_of_point(&Point::new(vec![7.0])), None);
        assert_eq!(fw.hyper_of_point(&Point::new(vec![1.0])), Some(0));
    }

    #[test]
    fn hyper_of_point_round_trip() {
        let g = grid10();
        let subs = vec![rect1(0.0, 5.0), rect1(2.0, 8.0)];
        let fw = GridFramework::build(g, &subs, &CellProbability::uniform(&grid10()), None);
        // (2,5] overlaps both subs; (0,2] only the first; (5,8] only the
        // second → three hyper-cells.
        assert_eq!(fw.hypercells().len(), 3);
        let h_both = fw.hyper_of_point(&Point::new(vec![3.0])).unwrap();
        assert_eq!(fw.hypercells()[h_both].members.count(), 2);
    }

    #[test]
    fn build_unmerged_keeps_single_cell_hypercells() {
        let g = grid10();
        let subs = vec![rect1(0.0, 5.0), rect1(0.0, 5.0)];
        let probs = CellProbability::uniform(&g);
        let fw = GridFramework::build_unmerged(g, &subs, &probs, None);
        // Five non-empty unit cells, none merged.
        assert_eq!(fw.hypercells().len(), 5);
        for hc in fw.hypercells() {
            assert_eq!(hc.cells.len(), 1);
            assert_eq!(hc.members.count(), 2);
        }
        // Matching is identical to the merged build.
        let merged =
            GridFramework::build(grid10(), &subs, &CellProbability::uniform(&grid10()), None);
        for x in [0.5, 2.5, 4.9, 6.0] {
            let p = Point::new(vec![x]);
            assert_eq!(
                fw.hyper_of_point(&p).is_some(),
                merged.hyper_of_point(&p).is_some(),
                "x={x}"
            );
        }
    }

    #[test]
    fn remove_outliers_drops_isolated_membership() {
        let g = grid10();
        // Nine similar subscribers on (0,5] plus one loner on (9,10]:
        // the loner's hyper-cell is the most isolated.
        let mut subs = vec![rect1(0.0, 5.0); 9];
        subs.push(rect1(9.0, 10.0));
        let probs = CellProbability::uniform(&g);
        let fw = GridFramework::build(g, &subs, &probs, None);
        assert_eq!(fw.hypercells().len(), 2);
        let filtered = fw.remove_outliers(0.5);
        assert_eq!(filtered.hypercells().len(), 1);
        // The popular community survives; the loner's cell is gone.
        assert_eq!(filtered.hypercells()[0].members.count(), 9);
        assert_eq!(filtered.hyper_of_point(&Point::new(vec![9.5])), None);
        assert!(filtered.hyper_of_point(&Point::new(vec![2.0])).is_some());
    }

    #[test]
    fn remove_outliers_zero_fraction_is_identity() {
        let g = grid10();
        let subs = vec![rect1(0.0, 5.0), rect1(5.0, 10.0)];
        let probs = CellProbability::uniform(&g);
        let fw = GridFramework::build(g, &subs, &probs, None);
        let same = fw.remove_outliers(0.0);
        assert_eq!(same.hypercells().len(), fw.hypercells().len());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn remove_outliers_validates_fraction() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let fw = GridFramework::build(g, &[], &probs, None);
        let _ = fw.remove_outliers(1.5);
    }

    #[test]
    fn from_mass_fn_normalizes() {
        let g = grid10();
        // Mass proportional to the cell midpoint.
        let p =
            CellProbability::from_mass_fn(&g, |r| (r.interval(0).lo() + r.interval(0).hi()) / 2.0);
        let total: f64 = g.iter().map(|c| p.prob(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Later cells carry more mass.
        assert!(p.prob(CellId(9)) > p.prob(CellId(0)));
        // All-zero mass falls back to uniform.
        let u = CellProbability::from_mass_fn(&g, |_| 0.0);
        assert_eq!(u, CellProbability::uniform(&g));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_mass_fn_rejects_infinite_mass() {
        let _ = CellProbability::from_mass_fn(&grid10(), |r| {
            if r.interval(0).lo() < 1.0 {
                f64::INFINITY
            } else {
                1.0
            }
        });
    }

    #[test]
    fn from_mass_fn_survives_an_overflowing_total() {
        let g = grid10();
        assert_eq!(g.num_cells(), 10);
        let p = CellProbability::from_mass_fn(&g, |_| f64::MAX);
        for c in g.iter() {
            assert_eq!(p.prob(c), 0.1, "cell {c:?}");
        }
    }

    #[test]
    fn build_from_cells_supports_non_rectangular_interest() {
        let g = grid10();
        // An L-shaped (non-rectangular) interest: cells {0, 1, 5}.
        let sets = vec![vec![CellId(0), CellId(1), CellId(5)]];
        let probs = CellProbability::uniform(&g);
        let fw = GridFramework::build_from_cells(g, &sets, &probs, None);
        assert_eq!(fw.hypercells().len(), 1);
        assert_eq!(fw.hypercells()[0].cells.len(), 3);
        assert!(fw.hyper_of_point(&Point::new(vec![0.5])).is_some());
        assert!(fw.hyper_of_point(&Point::new(vec![5.5])).is_some());
        assert_eq!(fw.hyper_of_point(&Point::new(vec![2.5])), None);
    }

    fn assert_bit_identical(a: &GridFramework, b: &GridFramework) {
        assert_eq!(a.num_subscribers(), b.num_subscribers());
        assert_eq!(a.hypercells().len(), b.hypercells().len());
        for (x, y) in a.hypercells().iter().zip(b.hypercells()) {
            assert_eq!(x.cells, y.cells);
            assert_eq!(x.members, y.members);
            assert_eq!(x.prob.to_bits(), y.prob.to_bits());
        }
        assert_eq!(a.cell_to_hyper, b.cell_to_hyper);
    }

    #[test]
    fn apply_delta_matches_cold_build() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let initial = vec![rect1(0.0, 5.0), rect1(2.0, 8.0), rect1(6.0, 10.0)];
        let mut fw = GridFramework::build(g.clone(), &initial, &probs, None);
        assert!(fw.supports_incremental());
        // Resubscribe #0 to (1,4], unsubscribe #1, add #3 on (3,9].
        let report = fw.apply_delta(
            &[(0, rect1(1.0, 4.0)), (3, rect1(3.0, 9.0))],
            &[(0, rect1(0.0, 5.0)), (1, rect1(2.0, 8.0))],
            &probs,
            4,
        );
        let post_sets: Vec<Vec<CellId>> = vec![
            g.cells_overlapping(&rect1(1.0, 4.0)),
            Vec::new(), // tombstone
            g.cells_overlapping(&rect1(6.0, 10.0)),
            g.cells_overlapping(&rect1(3.0, 9.0)),
        ];
        let cold = GridFramework::build_from_cells(g, &post_sets, &probs, None);
        assert_bit_identical(&fw, &cold);
        // Matrices built from the incremental and the cold framework
        // agree bitwise.
        let (inc_m, cold_m) = (
            fw.distance_matrix().unwrap(),
            cold.distance_matrix().unwrap(),
        );
        assert_eq!(inc_m.len(), cold_m.len());
        for i in 0..fw.hypercells().len() {
            for j in 0..i {
                assert_eq!(inc_m.get(i, j).to_bits(), cold_m.get(i, j).to_bits());
            }
        }
        assert_eq!(report.old_index.len(), fw.hypercells().len());
        assert_eq!(
            report.changed_hypercells + report.unchanged_hypercells,
            fw.hypercells().len()
        );
        // A second, empty delta changes nothing.
        let noop = fw.apply_delta(&[], &[], &probs, 4);
        assert_eq!(noop.dirty_cells, 0);
        assert_eq!(noop.changed_hypercells, 0);
        assert!(noop
            .old_index
            .iter()
            .enumerate()
            .all(|(h, o)| *o == Some(h)));
        assert_bit_identical(&fw, &cold);
    }

    #[test]
    fn apply_delta_grows_the_universe() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let mut fw = GridFramework::build(g.clone(), &[], &probs, None);
        assert_eq!(fw.hypercells().len(), 0);
        fw.apply_delta(
            &[(0, rect1(0.0, 3.0)), (1, rect1(2.0, 6.0))],
            &[],
            &probs,
            2,
        );
        let cold =
            GridFramework::build(g.clone(), &[rect1(0.0, 3.0), rect1(2.0, 6.0)], &probs, None);
        assert_bit_identical(&fw, &cold);
        // Remove everything again.
        fw.apply_delta(
            &[],
            &[(0, rect1(0.0, 3.0)), (1, rect1(2.0, 6.0))],
            &probs,
            2,
        );
        assert_eq!(fw.hypercells().len(), 0);
        assert_eq!(fw.num_subscribers(), 2);
    }

    /// Applies a delta to a cold build of `initial` on the 10-cell grid
    /// and holds the result to a cold build of the population the delta
    /// leaves (removed slots become tombstones).
    fn delta_against_cold(
        initial: &[Rect],
        added: &[(usize, Rect)],
        removed: &[(usize, Rect)],
    ) -> (GridFramework, DeltaReport) {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let mut slots: Vec<Option<Rect>> = initial.iter().cloned().map(Some).collect();
        for (id, _) in removed {
            slots[*id] = None;
        }
        for (id, r) in added {
            if *id >= slots.len() {
                slots.resize(*id + 1, None);
            }
            slots[*id] = Some(r.clone());
        }
        let mut fw = GridFramework::build(g.clone(), initial, &probs, None);
        let report = fw.apply_delta(added, removed, &probs, slots.len());
        let cell_sets: Vec<Vec<CellId>> = slots
            .iter()
            .map(|s| s.as_ref().map_or_else(Vec::new, |r| g.cells_overlapping(r)))
            .collect();
        assert_bit_identical(
            &fw,
            &GridFramework::build_from_cells(g, &cell_sets, &probs, None),
        );
        (fw, report)
    }

    fn cells(ids: impl IntoIterator<Item = usize>) -> Vec<CellId> {
        ids.into_iter().map(CellId).collect()
    }

    #[test]
    fn apply_delta_remerges_dirty_cells_by_membership() {
        // A dirty cell whose new vector is an untouched hyper-cell's
        // joins it: #0 covers cells 0–3 and #1 cell 3 only, so dropping
        // #1 leaves cell 3 with {0}, the vector of cells 0–2, which the
        // delta never touches.
        let (fw, report) = delta_against_cold(
            &[rect1(0.0, 4.0), rect1(3.0, 4.0)],
            &[],
            &[(1, rect1(3.0, 4.0))],
        );
        assert_eq!(report.dirty_cells, 1);
        assert_eq!(fw.hypercells().len(), 1);
        assert_eq!(fw.hypercells()[0].cells, cells(0..4));
        assert_eq!(report.old_index, vec![None]);

        // Two dirty cells of different hyper-cells that end on one new
        // vector merge: when #0 and #1 leave, cell 0 ({0,2}) and cell 4
        // ({1,2}) both fall to {2}, while cells 1–3 ({2,3}) keep their
        // hyper-cell. And a cell the delta empties is dropped: #4 alone
        // covered cell 8.
        let (fw, report) = delta_against_cold(
            &[
                rect1(0.0, 1.0),
                rect1(4.0, 5.0),
                rect1(0.0, 5.0),
                rect1(1.0, 4.0),
                rect1(8.0, 9.0),
            ],
            &[],
            &[
                (0, rect1(0.0, 1.0)),
                (1, rect1(4.0, 5.0)),
                (4, rect1(8.0, 9.0)),
            ],
        );
        assert_eq!(report.dirty_cells, 3);
        let merged = fw.hyper_of_cell(CellId(0)).unwrap();
        assert_eq!(fw.hypercells()[merged].cells, cells([0, 4]));
        assert_eq!(
            fw.hypercells()[merged].members,
            BitSet::from_members(5, [2])
        );
        assert_eq!(report.old_index[merged], None);
        let kept = fw.hyper_of_cell(CellId(1)).unwrap();
        assert_eq!(fw.hypercells()[kept].cells, cells(1..4));
        assert!(report.old_index[kept].is_some());
        assert_eq!(fw.hyper_of_cell(CellId(8)), None);
        assert_eq!(fw.hypercells().len(), 2);
        assert_eq!(
            (report.changed_hypercells, report.unchanged_hypercells),
            (1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn apply_delta_rejects_truncated_frameworks() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let subs = vec![rect1(0.0, 3.0), rect1(3.0, 6.0), rect1(6.0, 10.0)];
        let mut fw = GridFramework::build(g, &subs, &probs, Some(1));
        assert!(!fw.supports_incremental());
        fw.apply_delta(&[], &[], &probs, 3);
    }

    #[test]
    #[should_panic(expected = "apply_delta requires an unweighted framework")]
    fn apply_delta_rejects_weighted_frameworks() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let cell_sets = vec![
            g.cells_overlapping(&rect1(0.0, 5.0)),
            g.cells_overlapping(&rect1(5.0, 10.0)),
        ];
        let mut fw = GridFramework::build_weighted_from_cells(
            g,
            &cell_sets,
            Arc::new(vec![3, 1]),
            &probs,
            None,
        );
        assert!(!fw.supports_incremental());
        fw.apply_delta(&[(2, rect1(2.0, 7.0))], &[], &probs, 3);
    }

    #[test]
    fn incremental_support_flags() {
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let subs = vec![rect1(0.0, 5.0), rect1(5.0, 10.0)];
        let full = GridFramework::build(g.clone(), &subs, &probs, None);
        assert!(full.supports_incremental());
        // A cap that truncates nothing keeps the framework complete.
        let roomy = GridFramework::build(g.clone(), &subs, &probs, Some(100));
        assert!(roomy.supports_incremental());
        let unmerged = GridFramework::build_unmerged(g, &subs, &probs, None);
        assert!(!unmerged.supports_incremental());
        assert!(!full.remove_outliers(0.5).supports_incremental());
    }

    #[test]
    fn probabilities_weight_popularity() {
        let g = grid10();
        // One subscriber on (0,1]; two on (9,10] — but all publication
        // mass sits in (0,1].
        let subs = vec![rect1(0.0, 1.0), rect1(9.0, 10.0), rect1(9.0, 10.0)];
        let sample = vec![Point::new(vec![0.5]); 10];
        let probs = CellProbability::empirical(&g, &sample);
        let fw = GridFramework::build(g, &subs, &probs, Some(1));
        // The single-subscriber hot cell wins: popularity 1·1 > 0·2.
        assert_eq!(fw.hypercells()[0].members.count(), 1);
    }

    fn ranked_cells(fw: &GridFramework) -> Vec<Vec<CellId>> {
        fw.hypercells().iter().map(|hc| hc.cells.clone()).collect()
    }

    #[test]
    fn popularity_ties_rank_by_first_cell() {
        // Uniform p_p = 0.1 on the 10-cell grid. #0 covers cells 0–1
        // (popularity 0.2·1), #5 and #6 cell 7 (0.1·2): an exact tie.
        // #1–#4 cover cells 2–5 one each (0.1·1), a four-way tie.
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let subs = vec![
            rect1(0.0, 2.0),
            rect1(2.0, 3.0),
            rect1(3.0, 4.0),
            rect1(4.0, 5.0),
            rect1(5.0, 6.0),
            rect1(7.0, 8.0),
            rect1(7.0, 8.0),
        ];
        let merged = vec![
            cells([0, 1]),
            cells([7]),
            cells([2]),
            cells([3]),
            cells([4]),
            cells([5]),
        ];
        let fw = GridFramework::build(g.clone(), &subs, &probs, None);
        assert_eq!(ranked_cells(&fw), merged);

        // Unmerged, cells 0 and 1 fall to 0.1 and join the five-way tie.
        let unmerged = GridFramework::build_unmerged(g.clone(), &subs, &probs, None);
        let want: Vec<Vec<CellId>> = [7, 0, 1, 2, 3, 4, 5].map(|c| cells([c])).into();
        assert_eq!(ranked_cells(&unmerged), want);

        // The delta reaches the same population: #0 shrinks from cells
        // 0–2 to 0–1 and #6 joins #5 on cell 7, so the two hyper-cells
        // the delta changes ([2] and [7]) rank by their re-summed `prob`.
        let mut initial = subs[..6].to_vec();
        initial[0] = rect1(0.0, 3.0);
        let (fw, report) = delta_against_cold(
            &initial,
            &[(0, rect1(0.0, 2.0)), (6, rect1(7.0, 8.0))],
            &[(0, rect1(0.0, 3.0))],
        );
        assert_eq!(ranked_cells(&fw), merged);
        assert_eq!(report.changed_hypercells, 2);

        // Class weights enter the key: as classes, #0–#5 weigh 1, 2, 1,
        // 1, 1, 2, so cell 2 ties with [0, 1] and [7] at 0.2 and
        // outranks cells 3–5.
        let cell_sets: Vec<Vec<CellId>> =
            subs[..6].iter().map(|r| g.cells_overlapping(r)).collect();
        let weighted = GridFramework::build_weighted_from_cells(
            g.clone(),
            &cell_sets,
            Arc::new(vec![1, 2, 1, 1, 1, 2]),
            &probs,
            None,
        );
        let want = vec![
            cells([0, 1]),
            cells([2]),
            cells([7]),
            cells([3]),
            cells([4]),
            cells([5]),
        ];
        assert_eq!(ranked_cells(&weighted), want);
    }

    #[test]
    fn outlier_ties_drop_the_less_popular_then_the_lower_index() {
        // x = cell 0 {#0} and y = cells 1–2 {#0, #1} are mutually
        // nearest at 0.1·1 + 0.2·0 = 0.1, with popularity 0.1 against
        // 0.4; z = cell 4 {#2} and w = cell 6 {#3} are both 0.2 from
        // their nearest, with equal popularity. Ranked: y, x, z, w.
        let g = grid10();
        let probs = CellProbability::uniform(&g);
        let subs = vec![
            rect1(0.0, 3.0),
            rect1(1.0, 3.0),
            rect1(4.0, 5.0),
            rect1(6.0, 7.0),
        ];
        let fw = GridFramework::build(g, &subs, &probs, None);
        assert_eq!(
            ranked_cells(&fw),
            vec![cells([1, 2]), cells([0]), cells([4]), cells([6])]
        );
        // Dropped in the order z (a full tie with w: lower index first),
        // w, x (the distance tie with y goes to the less popular).
        let kept = |fraction| ranked_cells(&fw.remove_outliers(fraction));
        assert_eq!(kept(0.25), vec![cells([1, 2]), cells([0]), cells([6])]);
        assert_eq!(kept(0.5), vec![cells([1, 2]), cells([0])]);
        assert_eq!(kept(0.75), vec![cells([1, 2])]);
    }
}
