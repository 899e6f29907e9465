//! Subscription aggregation: canonical subscription classes and the
//! aggregated dispatch plan (DESIGN.md §15).
//!
//! At a million subscribers the concrete population is dominated by
//! near-duplicates: popular interest specifications are submitted by
//! many subscribers verbatim. [`Aggregation`] collapses identical
//! rectangles into *canonical classes* before rasterization, keeping a
//! reverse map `class → packed concrete-subscriber list` used only at
//! delivery time. The class universe — typically orders of magnitude
//! smaller — is clustered with per-class multiplicities (the weighted
//! framework build), producing decisions bit-identical to clustering
//! the expanded concrete population. That build-time collapse is what
//! the layer is for: `K` groups are still precomputed once, over a
//! clustering input many times smaller.
//!
//! [`AggregatePlan`] is a class-universe [`DispatchPlan`] run through
//! the one serve kernel, [`DispatchPlan::serve_batch`]: the kernel
//! filters the event cell's *classes*, and the plan decides again on
//! weighted counts (the same integers the concrete plan computes, hence
//! the same `f64` comparison) and expands the hit classes' packed
//! member lists into the exact concrete interested set. It is the
//! executable form of the equivalence argument.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use geometry::{CellId, Grid, Point, Rect};

use crate::batch::BatchScratch;
use crate::clustering::Clustering;
use crate::dispatch::DispatchPlan;
use crate::framework::{CellProbability, GridFramework};
use crate::matching::Delivery;
use crate::parallel;

/// Bit-pattern identity key of a rectangle: `(lo, hi)` bits per
/// dimension. Two rectangles with equal keys rasterize, match and
/// cluster identically in every context.
pub(crate) fn rect_key(r: &Rect) -> Vec<(u64, u64)> {
    r.intervals()
        .iter()
        .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
        .collect()
}

/// Canonicalized subscription population: concrete subscriptions with
/// bit-identical rectangles collapsed into one *class* — one clustering
/// slot carrying the number of concrete subscribers it stands for.
///
/// # Examples
///
/// ```
/// use geometry::{Interval, Rect};
/// use pubsub_core::Aggregation;
///
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 5.0)?]),
///     Rect::new(vec![Interval::new(2.0, 9.0)?]),
///     Rect::new(vec![Interval::new(0.0, 5.0)?]), // duplicate of #0
/// ];
/// let agg = Aggregation::build(&subs);
/// assert_eq!(agg.num_classes(), 2);
/// assert_eq!(agg.ratio(), 1.5); // three subscriptions, two classes
/// # Ok::<(), geometry::IntervalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// Concrete subscriber → class.
    class_of: Vec<u32>,
    /// Class → concrete multiplicity.
    weights: Vec<u64>,
    /// Class → its rectangle.
    rects: Vec<Rect>,
    /// Class → packed concrete subscriber ids, ascending.
    members: Vec<Vec<u32>>,
}

impl Aggregation {
    /// Canonicalizes by exact rectangle identity: concrete
    /// subscriptions with bit-identical rectangles form one class, in
    /// first-occurrence order.
    pub fn build(subscriptions: &[Rect]) -> Self {
        let n = subscriptions.len();
        let mut class_index: HashMap<Vec<(u64, u64)>, u32> = HashMap::with_capacity(n);
        let mut class_of = Vec::with_capacity(n);
        let mut weights: Vec<u64> = Vec::new();
        let mut rects: Vec<Rect> = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        for (i, sub) in subscriptions.iter().enumerate() {
            let c = *class_index.entry(rect_key(sub)).or_insert_with(|| {
                weights.push(0);
                rects.push(sub.clone());
                members.push(Vec::new());
                (rects.len() - 1) as u32
            });
            class_of.push(c);
            weights[c as usize] += 1;
            members[c as usize].push(i as u32);
        }
        Aggregation {
            class_of,
            weights,
            rects,
            members,
        }
    }

    /// Number of concrete subscriptions the aggregation was built from.
    pub fn num_concrete(&self) -> usize {
        self.class_of.len()
    }

    /// Number of canonical classes (clustering slots).
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Concrete subscriptions per class — the aggregation ratio. `1.0`
    /// means nothing aggregated; large values mean heavy duplication.
    pub fn ratio(&self) -> f64 {
        if self.num_classes() == 0 {
            1.0
        } else {
            self.num_concrete() as f64 / self.num_classes() as f64
        }
    }

    /// Builds the class-universe framework: one slot per class, ranked
    /// and clustered with the class multiplicities, bit-identical to
    /// building over the expanded concrete population.
    pub fn build_framework(
        &self,
        grid: Grid,
        probs: &CellProbability,
        max_cells: Option<usize>,
    ) -> GridFramework {
        let cell_sets: Vec<Vec<CellId>> =
            parallel::par_map(&self.rects, parallel::MIN_PARALLEL_LEN, |r| {
                grid.cells_overlapping(r)
            });
        GridFramework::build_weighted_from_cells(
            grid,
            &cell_sets,
            Arc::new(self.weights.clone()),
            probs,
            max_cells,
        )
    }
}

/// Reusable per-thread buffers for [`AggregatePlan::serve`] and
/// [`AggregatePlan::serve_chunk`].
#[derive(Debug, Default)]
pub struct AggregateScratch {
    batch: BatchScratch,
    out: Vec<Delivery>,
    interested: Vec<usize>,
}

impl AggregateScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        AggregateScratch::default()
    }

    /// The concrete interested subscriber ids of the last
    /// [`AggregatePlan::serve`] call, in increasing order.
    pub fn interested(&self) -> &[usize] {
        &self.interested
    }
}

/// A dispatch plan over a class-universe framework: decisions use
/// weighted class counts (the same integers the concrete plan computes)
/// and interested sets are expanded from the aggregation's packed
/// member lists — exact per concrete subscriber.
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// The class plan, with the class rectangles attached.
    plan: DispatchPlan,
    agg: Arc<Aggregation>,
    /// Per-group concrete (weighted) size.
    group_wsize: Vec<u64>,
}

impl AggregatePlan {
    /// Compiles the plan from a class framework, its clustering and the
    /// aggregation that produced the framework.
    ///
    /// # Panics
    ///
    /// Panics if the framework's subscriber universe is not the
    /// aggregation's class count, if the clustering was not built over
    /// `framework`, or if `threshold` is outside `[0, 1]`.
    pub fn compile(
        framework: &GridFramework,
        clustering: &Clustering,
        threshold: f64,
        aggregation: Arc<Aggregation>,
    ) -> Self {
        assert_eq!(
            framework.num_subscribers(),
            aggregation.num_classes(),
            "framework universe is not the aggregation's class count"
        );
        let plan = DispatchPlan::compile(framework, clustering)
            .with_threshold(threshold)
            .with_subscriptions(&aggregation.rects);
        let group_wsize = clustering
            .groups()
            .iter()
            .map(|g| g.members.iter().map(|c| aggregation.weights[c]).sum())
            .collect();
        AggregatePlan {
            plan,
            agg: aggregation,
            group_wsize,
        }
    }

    // lint: hot-path
    /// The kernel over a window, each event then decided again on
    /// weighted counts: `weighted hits / weighted group size`, the hits
    /// being every interested class's weight (a cell's classes are
    /// members of its group); unicast outside every kept cell. Not
    /// generic, so every caller shares one instance of the kernel.
    fn decide_window<'a>(
        &self,
        range: Range<usize>,
        point_of: &dyn Fn(usize) -> &'a Point,
        batch: &mut BatchScratch,
        out: &mut Vec<Delivery>,
    ) {
        let base = out.len();
        self.plan.serve_batch(range, point_of, batch, out);
        for (local, d) in out[base..].iter_mut().enumerate() {
            let Some(slot) = batch.slot_of(local) else {
                continue;
            };
            let group = self.plan.hyper_group[slot as usize] as usize;
            let whits = batch.interested_of(local).map(|c| self.agg.weights[c]);
            *d = self
                .plan
                .threshold_decision(group, whits.sum(), self.group_wsize[group]);
        }
    }

    /// Serves one event: computes the exact concrete interested set
    /// (into `scratch`, ascending) and the delivery decision — the same
    /// as the concrete [`DispatchPlan::serve`].
    ///
    /// # Panics
    ///
    /// Panics if `p`'s dimension differs from the grid's.
    pub fn serve(&self, p: &Point, scratch: &mut AggregateScratch) -> Delivery {
        let AggregateScratch {
            batch,
            out,
            interested,
        } = scratch;
        out.clear();
        self.decide_window(0..1, &|_| p, batch, out);
        interested.clear();
        for c in batch.interested_of(0) {
            interested.extend(self.agg.members[c].iter().map(|&i| i as usize));
        }
        interested.sort_unstable();
        // lint: allow(no-literal-index): the one-event window pushed one decision
        out[0]
    }

    /// Batched [`serve`](Self::serve) over an index range: pushes one
    /// [`Delivery`] per index onto `out` (not cleared), and expands no
    /// interested set. Chunk boundaries are the caller's, so
    /// deterministic chunked decompositions are preserved.
    pub fn serve_chunk<'a>(
        &self,
        range: Range<usize>,
        point_of: impl Fn(usize) -> &'a Point,
        out: &mut Vec<Delivery>,
        scratch: &mut AggregateScratch,
    ) {
        self.decide_window(range, &point_of, &mut scratch.batch, out);
    }
    // lint: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ClusteringAlgorithm;
    use crate::dispatch::DispatchScratch;
    use crate::kmeans::{KMeans, KMeansVariant};
    use geometry::Interval;
    use rand::prelude::*;

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    /// Subscriptions drawn from a small pool of distinct rectangles —
    /// the Zipf-head duplication the aggregation layer targets.
    fn near_dup_subs(n: usize, distinct: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<Rect> = (0..distinct)
            .map(|_| {
                let lo = rng.gen_range(0.0..9.0);
                let hi = lo + rng.gen_range(0.1..4.0);
                rect1(lo, hi.min(10.0))
            })
            .collect();
        (0..n)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect()
    }

    /// Serves `points` through the aggregated and the concrete plan of
    /// `subs` and requires equal decisions and interested sets.
    fn assert_serves_like_concrete(
        subs: &[Rect],
        grid: &Grid,
        k: usize,
        threshold: f64,
        points: impl Iterator<Item = Point>,
    ) {
        let probs = CellProbability::uniform(grid);
        let algorithm = KMeans::new(KMeansVariant::MacQueen);
        let raw_fw = GridFramework::build(grid.clone(), subs, &probs, None);
        let raw_plan = DispatchPlan::compile(&raw_fw, &algorithm.cluster(&raw_fw, k))
            .with_threshold(threshold)
            .with_subscriptions(subs);
        let agg = Arc::new(Aggregation::build(subs));
        let agg_fw = agg.build_framework(grid.clone(), &probs, None);
        let agg_plan =
            AggregatePlan::compile(&agg_fw, &algorithm.cluster(&agg_fw, k), threshold, agg);
        let mut raw_scratch = DispatchScratch::new();
        let mut agg_scratch = AggregateScratch::new();
        for p in points {
            let raw_d = raw_plan.serve(&p, &mut raw_scratch);
            let agg_d = agg_plan.serve(&p, &mut agg_scratch);
            assert_eq!(raw_d, agg_d, "threshold {threshold}, point {p:?}");
            assert_eq!(
                raw_scratch.interested(),
                agg_scratch.interested(),
                "threshold {threshold}, point {p:?}"
            );
        }
    }

    #[test]
    fn aggregation_collapses_identical_rects() {
        let subs = near_dup_subs(200, 13, 5);
        let agg = Aggregation::build(&subs);
        assert!(agg.num_classes() <= 13);
        assert_eq!(agg.num_concrete(), 200);
        assert_eq!(agg.weights.iter().sum::<u64>(), 200);
        assert!(agg.ratio() >= 200.0 / 13.0);
        // The packed member lists partition 0..n and agree with class_of.
        let mut seen = [false; 200];
        for (c, members) in agg.members.iter().enumerate() {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "class {c}");
            assert_eq!(members.len() as u64, agg.weights[c]);
            for &m in members {
                let m = m as usize;
                assert!(!seen[m], "member {m} in two classes");
                seen[m] = true;
                assert_eq!(agg.class_of[m] as usize, c);
                assert_eq!(rect_key(&subs[m]), rect_key(&agg.rects[c]));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_population() {
        let agg = Aggregation::build(&[]);
        assert_eq!(agg.num_classes(), 0);
        assert_eq!(agg.ratio(), 1.0);
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = agg.build_framework(grid, &probs, None);
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 3);
        let plan = AggregatePlan::compile(&fw, &c, 0.0, Arc::new(agg));
        let mut scratch = AggregateScratch::new();
        let d = plan.serve(&Point::new(vec![5.0]), &mut scratch);
        assert_eq!(d, Delivery::Unicast);
        assert!(scratch.interested().is_empty());
    }

    #[test]
    fn aggregated_serve_matches_concrete_serve() {
        let subs = near_dup_subs(300, 17, 9);
        let grid = Grid::cube(0.0, 10.0, 1, 40).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for threshold in [0.0, 0.3, 1.0] {
            let points = (0..500).map(|_| Point::new(vec![rng.gen_range(-1.0..11.0)]));
            assert_serves_like_concrete(&subs, &grid, 6, threshold, points);
        }
    }

    #[test]
    fn zero_sign_splits_classes_but_not_interested_sets() {
        // `-0.0` and `0.0` compare equal, so these pairs match exactly
        // the same events — but their bit patterns differ, so the
        // canonicalization (deliberately blind to numeric equality)
        // keeps them apart. Serving must not care either way.
        let subs = vec![
            rect1(0.0, 4.0),
            rect1(-0.0, 4.0),
            rect1(-3.0, 0.0),
            rect1(-3.0, -0.0),
            rect1(0.0, 4.0),
        ];
        let agg = Aggregation::build(&subs);
        assert_eq!(agg.num_classes(), 4);
        assert_eq!(agg.weights, &[2, 1, 1, 1]);
        assert_eq!(agg.class_of, &[0, 1, 2, 3, 0]);
        let grid = Grid::cube(-5.0, 5.0, 1, 10).unwrap();
        for threshold in [0.0, 0.5] {
            let points = [-6.0, -3.0, -1.5, -0.0, 0.0, 1e-300, 2.0, 4.0, 4.5]
                .into_iter()
                .map(|x| Point::new(vec![x]));
            assert_serves_like_concrete(&subs, &grid, 2, threshold, points);
        }
    }

    #[test]
    #[should_panic(expected = "framework universe is not the aggregation's class count")]
    fn compile_rejects_a_framework_over_another_universe() {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let small = Aggregation::build(&[rect1(1.0, 3.0), rect1(5.0, 8.0)]);
        let fw = small.build_framework(grid, &probs, None);
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 2);
        // One class more than the framework was built over: every
        // member id is in range, the universe is still the wrong one.
        let larger = Aggregation::build(&[rect1(1.0, 3.0), rect1(5.0, 8.0), rect1(2.0, 6.0)]);
        AggregatePlan::compile(&fw, &c, 0.0, Arc::new(larger));
    }
}
