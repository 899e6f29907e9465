//! Compiled event-dispatch plans: the allocation-free serve path.
//!
//! The paper's steady state is event dispatch (Section 4.6, Figure 5):
//! locate the event's cell, pick the cell's group, decide multicast vs
//! unicast. The uncompiled path — [`GridMatcher`](crate::GridMatcher)
//! over a [`GridFramework`] — hashes the cell id per event, re-counts
//! the group's membership per event and walks two levels of
//! indirection. A [`DispatchPlan`] compiles the framework + clustering
//! pair once into flat arrays so the per-event work is:
//!
//! 1. **point → cell**: [`Grid::cell_of`] on the grid the plan was
//!    compiled over, which the plan keeps — no coordinate arithmetic of
//!    its own, so an event lands in a cell every rectangle containing
//!    it was rasterised into;
//! 2. **cell → hyper-cell → group**: one dense `Vec<u32>` load plus one
//!    `Vec<u32>` index — no hashing (grids above
//!    [`DENSE_TABLE_MAX_CELLS`] fall back to a copied hash map);
//! 3. **threshold test**: the group's member count is precomputed, and
//!    the hit count is the interested count every serve path already
//!    has — a group's members are the union of its cells', so
//!    `interested(p) ⊆ members(cell(p)) ⊆ members(group)`.
//!
//! The plan *computes* the interested set itself, without a full R-tree
//! stab ([`DispatchPlan::with_subscriptions`] attaches the rectangles):
//! the event cell's interned membership list is a sound candidate
//! superset (any rectangle containing the point overlaps the point's
//! cell), so filtering it by rectangle containment yields the exact
//! interested ids into a reusable [`DispatchScratch`] buffer — zero
//! heap allocation per event in steady state.
//!
//! [`DispatchPlan::serve_batch`] is the one kernel: its count-only
//! tail is what `BrokerService` runs, and scalar [`DispatchPlan::serve`]
//! is a one-event batch.

use std::collections::HashMap;

use geometry::{Grid, Point, Rect};

use crate::batch::BatchScratch;
use crate::clustering::Clustering;
use crate::framework::GridFramework;
use crate::match_index::SubscriptionIndex;
use crate::matching::Delivery;

/// Largest grid (in cells) for which the plan materializes the dense
/// cell table (one `u32` per grid cell — 4 MiB at the cap). Larger
/// grids keep a flat-copied hash map: lookups then hash once per event,
/// as the uncompiled path does, but still skip the membership re-count
/// and the double indirection.
pub const DENSE_TABLE_MAX_CELLS: usize = 1 << 20;

/// Sentinel in the dense cell table: "this cell was not kept".
pub(crate) const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub(crate) enum CellTable {
    /// `table[cell] = hyper-cell index`, `NO_SLOT` when not kept.
    Dense(Vec<u32>),
    /// Fallback above [`DENSE_TABLE_MAX_CELLS`].
    Sparse(HashMap<usize, u32>),
}

/// Every slot's bounds, read once into flat dimension-major arrays
/// (`lo[d * n + id]`, `n` the slot count): attach gathers the candidate
/// blocks from them and the plan audit compares the blocks with them,
/// instead of following a slot's rectangle once per candidate (a
/// subscriber is a candidate in every kept cell its rectangle
/// overlaps). A tombstone's bounds are NaN: no point lies inside them,
/// and no interval's bound is NaN. The arrays live as long as the call
/// that reads them; no plan keeps them.
///
/// # Errors
///
/// Returns the first id whose rectangle's dimension differs from `dim`.
pub(crate) fn slot_bounds<'a>(
    n: usize,
    dim: usize,
    slot: impl Fn(usize) -> Option<&'a Rect>,
) -> Result<(Vec<f64>, Vec<f64>), usize> {
    let (mut lo, mut hi) = (vec![f64::NAN; n * dim], vec![f64::NAN; n * dim]);
    for (id, r) in (0..n).filter_map(|id| Some((id, slot(id)?))) {
        if r.dim() != dim {
            return Err(id);
        }
        for (d, iv) in r.intervals().iter().enumerate() {
            lo[d * n + id] = iv.lo();
            hi[d * n + id] = iv.hi();
        }
    }
    Ok((lo, hi))
}

/// Owned subscription state enabling the serve kernel
/// ([`DispatchPlan::serve_batch`]), every field of which the kernel
/// reads: every kept slot's candidate bounds in flat dimension-major
/// arrays, so the kernel scans contiguous memory with no per-bucket
/// gather, and an R-tree index for events whose cell was not kept. The
/// index covers only the non-empty rectangles no kept cell answers
/// for — those overhanging the grid when the framework is complete,
/// every one when it is not. A tombstone or an empty rectangle contains
/// no point and is no cell's member, so it is stored nowhere.
#[derive(Debug, Clone)]
pub(crate) struct ServeState {
    /// R-tree over the rectangles of `fallback`, item `k` for
    /// position `k`.
    pub(crate) index: SubscriptionIndex,
    /// Ascending subscriber ids the index covers: a position the index
    /// reports is translated back to a subscriber id through this map.
    pub(crate) fallback: Vec<u32>,
    /// Lower bounds of slot `s`'s candidates, dimension-major within
    /// the slot's block: `cand_lo[o * dim + d * nc + k]` where
    /// `o = hyper_offsets[s]` and `nc` is the slot's member count.
    pub(crate) cand_lo: Vec<f64>,
    /// Upper bounds, same layout.
    pub(crate) cand_hi: Vec<f64>,
}

/// Reusable per-thread buffers for [`DispatchPlan::serve`]: the
/// kernel's, its one decision and the interested ids. Buffers grow to
/// the high-water mark during warm-up and are then reused, so the
/// steady state performs zero heap allocations per event.
#[derive(Debug, Default)]
pub struct DispatchScratch {
    batch: BatchScratch,
    out: Vec<Delivery>,
    interested: Vec<usize>,
}

impl DispatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        DispatchScratch::default()
    }

    /// The interested subscription ids of the last [`DispatchPlan::serve`]
    /// call, in increasing order.
    pub fn interested(&self) -> &[usize] {
        &self.interested
    }
}

/// An immutable dispatch plan compiled from a [`GridFramework`] and a
/// [`Clustering`].
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Point, Rect};
/// use pubsub_core::{
///     BitSet, CellProbability, ClusteringAlgorithm, DispatchPlan, DispatchScratch,
///     GridFramework, GridMatcher, KMeans, KMeansVariant,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 5.0)?]),
///     Rect::new(vec![Interval::new(5.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 2);
/// let plan = DispatchPlan::compile(&fw, &clustering).with_subscriptions(&subs);
/// let matcher = GridMatcher::new(&fw, &clustering);
/// let mut scratch = DispatchScratch::new();
/// let p = Point::new(vec![2.0]);
/// let decision = plan.serve(&p, &mut scratch);
/// assert_eq!(scratch.interested(), &[0]);
/// let interested = BitSet::from_members(2, [0]);
/// assert_eq!(decision, matcher.match_event(&p, &interested));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DispatchPlan {
    pub(crate) threshold: f64,
    pub(crate) num_subscribers: usize,
    /// The grid the plan was compiled over: the only owner of the
    /// point → cell rule.
    pub(crate) grid: Grid,
    pub(crate) table: CellTable,
    /// `hyper_group[h]` — the group of kept hyper-cell `h`.
    pub(crate) hyper_group: Vec<u32>,
    /// Concatenated member-index lists of the kept hyper-cells
    /// (ascending within each list) …
    pub(crate) hyper_members: Vec<u32>,
    /// … delimited by `hyper_offsets[h] .. hyper_offsets[h + 1]`.
    pub(crate) hyper_offsets: Vec<u32>,
    /// Precomputed `members.count()` per group.
    pub(crate) group_size: Vec<u32>,
    /// Whether the framework kept every non-empty cell
    /// ([`GridFramework`]'s `complete`): then an in-grid event outside
    /// every kept cell interests nobody.
    pub(crate) complete: bool,
    pub(crate) serve_state: Option<ServeState>,
}

impl DispatchPlan {
    /// Compiles the plan with threshold 0 (always multicast when a
    /// group is matched), matching [`GridMatcher::new`](crate::GridMatcher::new).
    ///
    /// # Panics
    ///
    /// Panics if `clustering` was not built over `framework` (hyper-cell
    /// counts disagree).
    pub fn compile(framework: &GridFramework, clustering: &Clustering) -> Self {
        let grid = framework.grid();
        let hcs = framework.hypercells();
        let hyper_group: Vec<u32> = (0..hcs.len())
            .map(|h| clustering.group_of_hyper(h) as u32)
            .collect();

        let mapping = framework.cell_to_hyper();
        let table = if grid.num_cells() <= DENSE_TABLE_MAX_CELLS {
            let mut t = vec![NO_SLOT; grid.num_cells()];
            for (&cell, &h) in mapping {
                t[cell.index()] = h as u32;
            }
            CellTable::Dense(t)
        } else {
            CellTable::Sparse(
                mapping
                    .iter()
                    .map(|(&c, &h)| (c.index(), h as u32))
                    .collect(),
            )
        };

        let mut hyper_members = Vec::new();
        let mut hyper_offsets = Vec::with_capacity(hcs.len() + 1);
        hyper_offsets.push(0u32);
        for hc in hcs {
            hyper_members.extend(hc.members.iter().map(|m| m as u32));
            hyper_offsets.push(hyper_members.len() as u32);
        }

        let group_size = clustering
            .groups()
            .iter()
            .map(|g| g.members.count() as u32)
            .collect();

        DispatchPlan {
            threshold: 0.0,
            num_subscribers: framework.num_subscribers(),
            grid: grid.clone(),
            table,
            hyper_group,
            hyper_members,
            hyper_offsets,
            group_size,
            complete: framework.complete,
            serve_state: None,
        }
    }

    /// Sets the minimum proportion of group members that must be
    /// interested for a multicast, exactly as
    /// [`GridMatcher::with_threshold`](crate::GridMatcher::with_threshold).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a proportion"
        );
        self.threshold = threshold;
        self
    }

    /// Attaches the subscription rectangles, enabling
    /// [`DispatchPlan::serve`] (the plan precompiles every kept slot's
    /// candidate bounds into the arrays the batched serve kernel scans,
    /// and builds the unicast-fallback R-tree once — see DESIGN.md §11
    /// and §13).
    ///
    /// The R-tree holds only the rectangles a kept cell's member list
    /// cannot answer for. On a complete framework every non-empty cell
    /// is kept, so an in-grid event outside every kept cell interests
    /// nobody, and only a rectangle that sticks out of the grid can
    /// contain an off-grid event: those are indexed. On a truncated or
    /// filtered framework every non-empty rectangle is.
    ///
    /// # Panics
    ///
    /// Panics if the subscription count differs from the framework's,
    /// or a rectangle's dimension from the grid's.
    pub fn with_subscriptions(self, subscriptions: &[Rect]) -> Self {
        self.attach(subscriptions.len(), |id| Some(&subscriptions[id]))
    }

    /// The one attach path: `slot(id)` is subscriber `id`'s rectangle,
    /// `None` for a tombstone. Each kept slot's candidate block is
    /// gathered, in its final order — slot, dimension, member — from
    /// [`slot_bounds`], and the fallback index is built from the
    /// rectangles [`needs_fallback`] picks; nothing else of the slots is
    /// kept. A tombstone is no kept cell's member when the slots are the
    /// framework's; a stale one would be gathered as NaN bounds, which
    /// contain no point and which the plan audit rejects.
    ///
    /// # Panics
    ///
    /// Panics if `n` differs from the framework's subscriber count, or
    /// a rectangle's dimension from the grid's.
    ///
    /// [`needs_fallback`]: Self::needs_fallback
    pub(crate) fn attach<'a>(mut self, n: usize, slot: impl Fn(usize) -> Option<&'a Rect>) -> Self {
        assert_eq!(
            n, self.num_subscribers,
            "subscription count must match the compiled framework"
        );
        let dim = self.grid.dim();
        let (lo, hi) = slot_bounds(n, dim, &slot).expect("subscription dimension mismatch");
        let total = self.hyper_members.len();
        let (mut cand_lo, mut cand_hi) = (
            Vec::with_capacity(total * dim),
            Vec::with_capacity(total * dim),
        );
        for s in 0..self.hyper_group.len() {
            let range = self.hyper_offsets[s] as usize..self.hyper_offsets[s + 1] as usize;
            let members = &self.hyper_members[range];
            for d in 0..dim {
                let (lo, hi) = (&lo[d * n..(d + 1) * n], &hi[d * n..(d + 1) * n]);
                cand_lo.extend(members.iter().map(|&id| lo[id as usize]));
                cand_hi.extend(members.iter().map(|&id| hi[id as usize]));
            }
        }
        let fallback: Vec<u32> = (0..n as u32)
            .filter(|&id| self.needs_fallback(slot(id as usize)))
            .collect();
        let unanswered: Vec<Rect> = fallback
            .iter()
            .filter_map(|&id| slot(id as usize).cloned())
            .collect();
        self.serve_state = Some(ServeState {
            index: SubscriptionIndex::build(&unanswered),
            fallback,
            cand_lo,
            cand_hi,
        });
        self
    }

    /// Whether the fallback index must hold the rectangle `r` (`None`
    /// for a tombstone): a non-empty rectangle no kept cell's member
    /// list answers for — every one when the framework is not complete,
    /// else one that overhangs the grid.
    pub(crate) fn needs_fallback(&self, r: Option<&Rect>) -> bool {
        r.is_some_and(|r| !r.is_empty() && (!self.complete || !self.grid.bounds().contains_rect(r)))
    }

    // lint: hot-path
    /// Figure 5's threshold test, the one place it is applied: multicast
    /// to `group` when `hits` of its `size` members — both counted
    /// alike, per subscriber or weighted per class — reach the
    /// threshold proportion and at least one is interested, else
    /// unicast. Mirrors `GridMatcher::match_event`.
    pub(crate) fn threshold_decision(&self, group: usize, hits: u64, size: u64) -> Delivery {
        if size == 0 {
            return Delivery::Unicast;
        }
        if hits as f64 / size as f64 >= self.threshold && hits > 0 {
            Delivery::Multicast { group }
        } else {
            Delivery::Unicast
        }
    }

    /// The decision given a matched hyper-cell slot and the event's
    /// exact interested count, which is its hit count: the slot's
    /// candidates are its cell's members, and a group's members are the
    /// union of its cells'.
    pub(crate) fn decide(&self, slot: u32, interested: usize) -> Delivery {
        let group = self.hyper_group[slot as usize] as usize;
        self.threshold_decision(group, interested as u64, self.group_size[group] as u64)
    }

    /// [`serve_batch`](Self::serve_batch) of one event: the exact
    /// interested set *and* the delivery decision, allocation-free in
    /// steady state. After the call, [`DispatchScratch::interested`]
    /// holds the interested ids in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled without
    /// [`with_subscriptions`](Self::with_subscriptions).
    pub fn serve<'a>(&self, p: &'a Point, scratch: &mut DispatchScratch) -> Delivery {
        let DispatchScratch {
            batch,
            out,
            interested,
        } = scratch;
        out.clear();
        // Through `dyn`, as the aggregated plan calls it: one instance of
        // the kernel serves every one-event caller.
        let point_of: &dyn Fn(usize) -> &'a Point = &|_| p;
        self.serve_batch(0..1, point_of, batch, out);
        interested.clear();
        interested.extend(batch.interested_of(0));
        // lint: allow(no-literal-index): the one-event batch pushed one decision
        out[0]
    }
    // lint: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicClustering;
    use crate::framework::CellProbability;
    use crate::kmeans::{KMeans, KMeansVariant};
    use crate::matching::GridMatcher;
    use crate::membership::BitSet;
    use crate::ClusteringAlgorithm;
    use geometry::{Grid, Interval};
    use rand::prelude::*;

    fn random_rect(rng: &mut StdRng) -> Rect {
        let lo = rng.gen_range(0.0..9.0);
        let hi = lo + rng.gen_range(0.1..4.0);
        Rect::new(vec![Interval::new(lo, hi.min(10.0)).unwrap()])
    }

    fn scenario(
        n: usize,
        max_cells: Option<usize>,
        seed: u64,
    ) -> (Vec<Rect>, GridFramework, Clustering) {
        let mut rng = StdRng::seed_from_u64(seed);
        let subs: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng)).collect();
        let grid = Grid::cube(0.0, 10.0, 1, 50).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, max_cells);
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 5);
        (subs, fw, c)
    }

    #[test]
    fn dispatch_matches_grid_matcher_bit_for_bit() {
        for (max_cells, seed) in [(None, 7u64), (Some(8), 8u64)] {
            let (subs, fw, c) = scenario(120, max_cells, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let mut scratch = DispatchScratch::new();
            for threshold in [0.0, 0.3, 1.0] {
                let matcher = GridMatcher::new(&fw, &c).with_threshold(threshold);
                let plan = DispatchPlan::compile(&fw, &c)
                    .with_threshold(threshold)
                    .with_subscriptions(&subs);
                for _ in 0..400 {
                    let p = Point::new(vec![rng.gen_range(-1.0..11.0)]);
                    let interested = BitSet::from_members(
                        subs.len(),
                        subs.iter()
                            .enumerate()
                            .filter(|(_, r)| r.contains(&p))
                            .map(|(i, _)| i),
                    );
                    assert_eq!(
                        plan.serve(&p, &mut scratch),
                        matcher.match_event(&p, &interested),
                        "threshold {threshold}, point {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn serve_computes_exact_interested_sets() {
        let (subs, fw, c) = scenario(80, Some(10), 11);
        let plan = DispatchPlan::compile(&fw, &c)
            .with_threshold(0.2)
            .with_subscriptions(&subs);
        let matcher = GridMatcher::new(&fw, &c).with_threshold(0.2);
        let mut scratch = DispatchScratch::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let p = Point::new(vec![rng.gen_range(-1.0..11.0)]);
            let brute: Vec<usize> = subs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&p))
                .map(|(i, _)| i)
                .collect();
            let decision = plan.serve(&p, &mut scratch);
            assert_eq!(scratch.interested(), &brute[..], "point {p:?}");
            let interested = BitSet::from_members(subs.len(), brute.iter().copied());
            assert_eq!(decision, matcher.match_event(&p, &interested));
        }
    }

    /// The id-aligned rectangles a caller of `with_subscriptions` derives
    /// from the slots: a tombstone becomes an empty rectangle at the
    /// grid's lower corner.
    fn degenerate_tombstone_rects(dynamic: &DynamicClustering) -> Vec<Rect> {
        let corner = dynamic.framework().grid().bounds().intervals().iter();
        let empty = Rect::new(
            corner
                .map(|iv| Interval::new(iv.lo(), iv.lo()).unwrap())
                .collect(),
        );
        let slots = dynamic.subscription_slots().iter();
        slots
            .map(|s| s.clone().unwrap_or_else(|| empty.clone()))
            .collect()
    }

    /// Attaching straight from slots with tombstones, some rectangles
    /// overhanging the grid and two empty ones off it, builds bit for
    /// bit the plan that attaching the degenerate-rectangle vector builds
    /// — on the rebalanced (complete) framework and on a truncated one —
    /// both audit clean, the fallback holds the live non-empty rectangles
    /// the grid's bounds do not contain (every one when truncated), and
    /// both serve calls decide alike, also inside a tombstoned slot's old
    /// rectangle.
    #[test]
    fn slots_attach_like_degenerate_tombstone_rectangles() {
        let grid = Grid::cube(0.0, 10.0, 2, 12).unwrap();
        let probs = CellProbability::uniform(&grid);
        let kmeans = KMeans::new(KMeansVariant::MacQueen);
        let mut dynamic = DynamicClustering::new(grid.clone(), probs.clone(), kmeans, 5);
        let mut rng = StdRng::seed_from_u64(44);
        let ids: Vec<_> = (0..160)
            .map(|i| {
                let rect = Rect::new(
                    (0..2)
                        .map(|_| {
                            let lo = rng.gen_range(-1.0..9.0);
                            match i % 6 {
                                0 => Interval::greater_than(lo),
                                1 => Interval::at_most(lo + 1.0),
                                _ => Interval::new(lo, lo + rng.gen_range(0.5..3.0)).unwrap(),
                            }
                        })
                        .collect(),
                );
                dynamic.subscribe(rect)
            })
            .collect();
        // Empty rectangles fit anywhere, even off the grid.
        dynamic.subscribe(Rect::new(vec![
            Interval::new(15.0, 15.0).unwrap(),
            Interval::new(2.0, 5.0).unwrap(),
        ]));
        dynamic.subscribe(Rect::new(vec![
            Interval::new(-1.0, 12.0).unwrap(),
            Interval::new(3.0, 3.0).unwrap(),
        ]));
        dynamic.rebalance();
        let gone: Vec<(usize, Rect)> = ids
            .iter()
            .step_by(7)
            .map(|&id| {
                let rect = dynamic.subscription_slots()[id.0].clone().unwrap();
                dynamic.unsubscribe(id).unwrap();
                (id.0, rect)
            })
            .collect();
        dynamic.rebalance();
        let rects = degenerate_tombstone_rects(&dynamic);
        let slots = dynamic.subscription_slots();

        let mut events: Vec<Point> = (0..600)
            .map(|_| Point::new(vec![rng.gen_range(-2.0..12.0), rng.gen_range(-2.0..12.0)]))
            .collect();
        events.push(Point::new(vec![0.0, 0.0]));
        for (_, rect) in &gone {
            let inside = |d: usize| {
                let iv = rect.interval(d);
                let (lo, hi) = (iv.lo().max(-3.0), iv.hi().min(13.0));
                lo + 0.5 * (hi - lo)
            };
            events.push(Point::new(vec![inside(0), inside(1)]));
        }

        let truncated = GridFramework::build(grid, &rects, &probs, Some(8));
        assert!(!truncated.complete, "eight hyper-cells must truncate");
        let truncated_groups = KMeans::new(KMeansVariant::MacQueen).cluster(&truncated, 3);
        for (fw, c) in [
            (dynamic.framework(), dynamic.clustering()),
            (&truncated, &truncated_groups),
        ] {
            let compiled = DispatchPlan::compile(fw, c).with_threshold(0.2);
            let slot = |id: usize| slots[id].as_ref();
            let from_slots = compiled.clone().attach(slots.len(), slot);
            let from_rects = compiled.with_subscriptions(&rects);
            let mut v = crate::Validator::new();
            v.check_dispatch_plan(fw, c, &from_slots)
                .check_serve_state(&from_slots, slots.len(), slot)
                .check_serve_state(&from_rects, rects.len(), |id| Some(&rects[id]));
            v.assert_clean("plans attached from slots and from rectangles");

            let (a, b) = (
                from_slots.serve_state.as_ref().unwrap(),
                from_rects.serve_state.as_ref().unwrap(),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.cand_lo), bits(&b.cand_lo));
            assert_eq!(bits(&a.cand_hi), bits(&b.cand_hi));
            assert_eq!(a.fallback, b.fallback);
            let unanswered: Vec<u32> = (0..slots.len() as u32)
                .filter(|&id| {
                    slots[id as usize].as_ref().is_some_and(|r| {
                        !r.is_empty() && (!fw.complete || !fw.grid().bounds().contains_rect(r))
                    })
                })
                .collect();
            assert_eq!(a.fallback, unanswered);
            assert!(
                !a.fallback.is_empty(),
                "overhanging rectangles need the fallback"
            );

            let (mut sa, mut sb) = (DispatchScratch::new(), DispatchScratch::new());
            for p in &events {
                assert_eq!(from_slots.serve(p, &mut sa), from_rects.serve(p, &mut sb));
                assert_eq!(sa.interested(), sb.interested(), "event at {p:?}");
                for (id, _) in &gone {
                    assert!(!sa.interested().contains(id), "tombstone {id} at {p:?}");
                }
            }
            let (mut ba, mut bb) = (BatchScratch::new(), BatchScratch::new());
            let (mut oa, mut ob) = (Vec::new(), Vec::new());
            for start in (0..events.len()).step_by(64) {
                let range = start..(start + 64).min(events.len());
                from_slots.serve_batch(range.clone(), |e| &events[e], &mut ba, &mut oa);
                from_rects.serve_batch(range.clone(), |e| &events[e], &mut bb, &mut ob);
                for local in 0..range.len() {
                    assert!(
                        ba.interested_of(local).eq(bb.interested_of(local)),
                        "event {}",
                        start + local
                    );
                }
            }
            assert_eq!(oa, ob);
        }
    }

    /// Once every subscriber has unsubscribed, the rebalanced framework
    /// keeps no cell and the clustering no group: the plan attached from
    /// the slots, as a swap attaches it, has empty candidate blocks and
    /// an empty fallback, audits clean, and decides every event, in the
    /// grid and off it, unicast to nobody. A service over that state
    /// publishes its rebalance and accounts for every offered event.
    #[test]
    fn all_tombstone_population_attaches_an_empty_plan_that_serves_unicast() {
        let grid = Grid::cube(0.0, 10.0, 2, 8).unwrap();
        let (probs, kmeans) = (
            CellProbability::uniform(&grid),
            KMeans::new(KMeansVariant::MacQueen),
        );
        let mut dynamic = DynamicClustering::new(grid, probs, kmeans, 3);
        let ids: Vec<_> = (0..30)
            .map(|i| {
                let lo = f64::from(i % 10) - 1.0;
                dynamic.subscribe(Rect::new(vec![Interval::new(lo, lo + 2.5).unwrap(); 2]))
            })
            .collect();
        dynamic.rebalance();
        ids.into_iter()
            .for_each(|id| dynamic.unsubscribe(id).unwrap());
        dynamic.rebalance();
        assert_eq!(dynamic.clustering().num_groups(), 0);

        let (fw, c, slots) = (
            dynamic.framework(),
            dynamic.clustering(),
            dynamic.subscription_slots(),
        );
        let slot = |id: usize| slots[id].as_ref();
        let plan = DispatchPlan::compile(fw, c)
            .with_threshold(0.2)
            .attach(slots.len(), slot);
        let mut v = crate::Validator::new();
        v.check_dispatch_plan(fw, c, &plan)
            .check_serve_state(&plan, slots.len(), slot);
        v.assert_clean("plan attached from an all-tombstone population");
        let state = plan.serve_state.as_ref().unwrap();
        assert!(state.cand_lo.is_empty() && state.cand_hi.is_empty());
        assert!(state.fallback.is_empty() && state.index.len() == 0);

        // x runs from -2 to 12: off the grid on both sides.
        let events: Vec<Point> = (0..200)
            .map(|i| Point::new(vec![f64::from(i) * 0.07 - 2.0, 5.0]))
            .collect();
        let mut scratch = DispatchScratch::new();
        for p in &events {
            assert_eq!(plan.serve(p, &mut scratch), Delivery::Unicast, "{p:?}");
            assert!(scratch.interested().is_empty(), "{p:?}");
        }
        let (mut batch, mut out) = (BatchScratch::new(), Vec::new());
        plan.serve_batch(0..events.len(), |e| &events[e], &mut batch, &mut out);
        assert!(out.iter().all(|&d| d == Delivery::Unicast));
        assert!((0..events.len()).all(|e| batch.interested_of(e).next().is_none()));

        let service = crate::BrokerService::start(dynamic, Default::default()).unwrap();
        let offer_all = || events.iter().map(|p| service.offer(p.clone())).last();
        offer_all();
        assert_eq!(
            service
                .rebalance()
                .expect("the rebalance publishes")
                .subscriptions,
            0
        );
        offer_all();
        service.drain();
        let (report, _) = service.shutdown();
        assert_eq!(report.delivered + report.shed, report.offered);
        assert!(report.offered == 400 && report.partitions_offered());
        let unicast = |r: &crate::EventRecord| r.decision == Delivery::Unicast && r.interested == 0;
        assert!(report.records.iter().all(unicast));
    }

    #[test]
    #[should_panic(expected = "with_subscriptions")]
    fn serve_without_subscriptions_panics() {
        let (_, fw, c) = scenario(10, None, 1);
        let plan = DispatchPlan::compile(&fw, &c);
        let mut scratch = DispatchScratch::new();
        let _ = plan.serve(&Point::new(vec![5.0]), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn invalid_threshold_panics() {
        let (_, fw, c) = scenario(10, None, 2);
        let _ = DispatchPlan::compile(&fw, &c).with_threshold(-0.1);
    }
}
