//! The batched cell-bucketed serve kernel.
//!
//! Real event streams are heavily skewed (hot cells receive most
//! publications), so a batch of events lands on far fewer distinct kept
//! cells than it has events. [`DispatchPlan::serve_batch`] exploits
//! that:
//!
//! 1. **SoA cell pass** — one sweep per grid dimension over a
//!    contiguous coordinate array, accumulating each event's row-major
//!    cell index with that dimension's [`Axis`](geometry::Axis) of the
//!    plan's grid, taken once per sweep (the rule
//!    [`Grid::cell_of`](geometry::Grid::cell_of) applies);
//! 2. **bucketing** — batch-local event positions are sorted by kept
//!    hyper-cell slot (off-grid, empty and truncated cells share the
//!    `NO_SLOT` bucket, which the plan's fallback R-tree answers — over
//!    the rectangles overhanging the grid when the framework is
//!    complete, over all of them when it is not), so each distinct slot
//!    is resolved once per batch;
//! 3. **per-bucket resolve, per-event sweep and tail** — the bucket's
//!    candidate block is looked up once in the plan's *precompiled*
//!    flat bound arrays (dimension-major `f64` bounds, built by
//!    `with_subscriptions`). Each event of the bucket then makes one
//!    contiguous pass per dimension over the block, folding `lo < x`
//!    and `x <= hi` into a 0/1 mask per candidate, and one tail pass:
//!    `serve_batch` *compacts* —
//!    stores every candidate id at a write cursor and advances the
//!    cursor by the mask — while the crate-private
//!    `serve_batch_counts`, which the service's ingest workers run,
//!    *reduces* — sums the mask, folding the last dimension's test into
//!    the same pass, and stores no id. Either way the interested count
//!    is what the threshold is applied to. No `Rect` dereference, no
//!    strided read and no branch on the data in either;
//! 4. **scatter** — each decision is written back at the event's
//!    original batch position.
//!
//! Bucketing is therefore a pure permutation of per-event work with
//! per-event outputs: deliveries, interested sets and counts are
//! bit-identical at any batch size, any bucket order
//! and any `PUBSUB_THREADS`, which keeps every downstream fixed-chunk
//! `f64` reduction bit-identical too (pinned by the `batch_equivalence`
//! suite). The two tails share everything before them and are picked at
//! compile time. See DESIGN.md §13.

use std::ops::Range;

use geometry::Point;

use crate::dispatch::{CellTable, DispatchPlan, NO_SLOT};
use crate::matching::Delivery;

/// Cell-pass sentinel: the event is outside the grid on some dimension.
const OFF_GRID: usize = usize::MAX;

/// Smallest batch for which the bucketing sort pays for itself; shorter
/// batches keep arrival order (runs of equal adjacent slots still share
/// a bucket). Purely a performance threshold — the scatter step makes
/// the output independent of bucket order, so results are bit-identical
/// either way.
const BATCH_BUCKET_MIN: usize = 16;

/// Reusable buffers for [`DispatchPlan::serve_batch`]. Buffers grow to
/// the high-water mark during warm-up and are then reused, so
/// steady-state batches perform zero heap allocations (pinned by
/// `dispatch_alloc`).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Row-major grid cell per batch-local event (`OFF_GRID` if outside).
    cells: Vec<usize>,
    /// One dimension's coordinates, gathered per SoA sweep.
    xs: Vec<f64>,
    /// Kept hyper-cell slot per batch-local event (`NO_SLOT` if none).
    slots: Vec<u32>,
    /// Batch-local event positions, grouped by slot.
    order: Vec<u32>,
    /// The current event's candidate mask: `mask[k]` is 1
    /// when candidate `k` of the bucket's slot contains the event on
    /// every dimension swept so far, else 0. `u64` so the sweep's lanes
    /// match the `f64` compares that fill them.
    mask: Vec<u64>,
    /// Interested subscriber ids of all batch events, concatenated;
    /// batch-local event `l`'s ids start at `starts[l]`. Both stay
    /// empty after a count-only window.
    interested: Vec<u32>,
    starts: Vec<u32>,
    /// Interested subscriber count per batch-local event, in both modes.
    counts: Vec<u32>,
    /// R-tree fallback buffer for `NO_SLOT` events: positions in the
    /// plan's fallback id map, not subscriber ids.
    tmp: Vec<usize>,
}

impl BatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// The interested subscription ids computed by the last
    /// [`DispatchPlan::serve_batch`] call for the batch-local event
    /// `local`, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `local` is outside the last served batch.
    pub fn interested_of(&self, local: usize) -> impl Iterator<Item = usize> + '_ {
        let start = self.starts[local] as usize;
        self.interested[start..start + self.counts[local] as usize]
            .iter()
            .map(|&id| id as usize)
    }

    /// `interested_of(local).count()`, also after a count-only window
    /// ([`DispatchPlan::serve_batch_counts`]), which stores no ids.
    pub(crate) fn interested_count(&self, local: usize) -> u32 {
        self.counts[local]
    }

    /// The kept hyper-cell slot the batch-local event `local` fell in,
    /// `None` when its cell was not kept.
    pub(crate) fn slot_of(&self, local: usize) -> Option<u32> {
        let slot = self.slots[local];
        (slot != NO_SLOT).then_some(slot)
    }
}

impl DispatchPlan {
    // lint: hot-path
    /// The SoA cell pass + bucketing: fills `scratch.slots` (kept slot
    /// or [`NO_SLOT`] per batch-local event, by the grid's per-axis
    /// rule) and `scratch.order` (event
    /// positions grouped by slot — an event's only input is its point,
    /// so reordering is free and maximizes candidate-block reuse).
    fn bucket_batch<'a>(
        &self,
        range: Range<usize>,
        point_of: &impl Fn(usize) -> &'a Point,
        scratch: &mut BatchScratch,
    ) {
        let b = range.len();
        let dim = self.grid.dim();
        scratch.cells.clear();
        scratch.cells.resize(b, 0);
        for d in 0..dim {
            scratch.xs.clear();
            for e in range.start..range.end {
                let p = point_of(e);
                if d == 0 {
                    assert_eq!(p.dim(), dim, "dimension mismatch");
                }
                scratch.xs.push(p[d]);
            }
            // The grid's own per-axis rule, taken once per dimension.
            let axis = self.grid.axis(d);
            let stride = axis.stride();
            for (cell, &x) in scratch.cells.iter_mut().zip(&scratch.xs) {
                if *cell == OFF_GRID {
                    continue;
                }
                *cell = match axis.bin(x) {
                    Some(i) => *cell + i * stride,
                    None => OFF_GRID,
                };
            }
        }
        scratch.slots.clear();
        match &self.table {
            CellTable::Dense(t) => {
                for &c in &scratch.cells {
                    scratch
                        .slots
                        .push(if c == OFF_GRID { NO_SLOT } else { t[c] });
                }
            }
            CellTable::Sparse(m) => {
                for &c in &scratch.cells {
                    scratch.slots.push(if c == OFF_GRID {
                        NO_SLOT
                    } else {
                        m.get(&c).copied().unwrap_or(NO_SLOT)
                    });
                }
            }
        }
        scratch.order.clear();
        scratch.order.extend(0..b as u32);
        if b >= BATCH_BUCKET_MIN {
            let slots = &scratch.slots;
            scratch.order.sort_unstable_by_key(|&l| slots[l as usize]);
        }
    }

    /// The serve kernel over an index range: appends one [`Delivery`]
    /// per index onto `out` (not cleared), *in index order*, and records
    /// each event's exact interested set (readable through
    /// [`BatchScratch::interested_of`]). Internally events are bucketed
    /// by kept cell, and each tests the bucket's precompiled flat
    /// candidate bounds one dimension at a time into a mask, then
    /// compacts the ids the mask keeps, in candidate order.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled without
    /// [`with_subscriptions`](Self::with_subscriptions), or on
    /// dimension mismatch.
    pub fn serve_batch<'a>(
        &self,
        range: Range<usize>,
        point_of: impl Fn(usize) -> &'a Point,
        scratch: &mut BatchScratch,
        out: &mut Vec<Delivery>,
    ) {
        self.serve_window::<true>(range, point_of, scratch, out);
    }

    /// [`serve_batch`](Self::serve_batch) for a caller that reads only
    /// [`BatchScratch::interested_count`]: the same decisions and counts,
    /// but each event's tail sums its mask — the last dimension's test
    /// folded into that pass — instead of compacting the ids, and
    /// `interested` is left empty (`interested_of` panics until the next
    /// `serve_batch`).
    pub(crate) fn serve_batch_counts<'a>(
        &self,
        range: Range<usize>,
        point_of: impl Fn(usize) -> &'a Point,
        scratch: &mut BatchScratch,
        out: &mut Vec<Delivery>,
    ) {
        self.serve_window::<false>(range, point_of, scratch, out);
    }

    /// The one kernel behind both calls; `IDS` picks the per-event tail
    /// at compile time, and with it whether the tail or the sweep tests
    /// the last dimension.
    fn serve_window<'a, const IDS: bool>(
        &self,
        range: Range<usize>,
        point_of: impl Fn(usize) -> &'a Point,
        scratch: &mut BatchScratch,
        out: &mut Vec<Delivery>,
    ) {
        let state = self
            .serve_state
            .as_ref()
            .expect("DispatchPlan::serve_batch requires with_subscriptions");
        let b = range.len();
        let dim = self.grid.dim();
        let base = out.len();
        let start_event = range.start;
        out.resize(base + b, Delivery::Unicast);
        self.bucket_batch(range, &point_of, scratch);
        let BatchScratch {
            slots,
            order,
            mask,
            interested,
            starts,
            counts,
            tmp,
            ..
        } = scratch;
        interested.clear();
        starts.clear();
        if IDS {
            starts.resize(b, 0);
        }
        counts.clear();
        counts.resize(b, 0);
        let mut at = 0usize;
        while at < b {
            let slot = slots[order[at] as usize];
            let mut end = at + 1;
            while end < b && slots[order[end] as usize] == slot {
                end += 1;
            }
            if slot == NO_SLOT {
                // Not kept: the fallback index and unicast; only the id
                // tail translates its positions to subscriber ids.
                for &l in &order[at..end] {
                    let p = point_of(start_event + l as usize);
                    state.index.matching_into(p, tmp);
                    if IDS {
                        starts[l as usize] = interested.len() as u32;
                        interested.extend(tmp.iter().map(|&k| state.fallback[k]));
                    }
                    counts[l as usize] = tmp.len() as u32;
                    // `out[base + l]` stays `Unicast`.
                }
            } else {
                let sl = slot as usize;
                let o = self.hyper_offsets[sl] as usize;
                let members = &self.hyper_members[o..self.hyper_offsets[sl + 1] as usize];
                let nc = members.len();
                // The bucket's candidate block in the plan's precompiled
                // flat bound arrays (built once on attach): every event
                // in the bucket scans contiguous memory, no gather at all.
                let cand_lo = &state.cand_lo[o * dim..(o + nc) * dim];
                let cand_hi = &state.cand_hi[o * dim..(o + nc) * dim];
                // All ones: the count tail of a one-dimensional event
                // reads it with no sweep before it. (`dim >= 1` here: a
                // kept slot has candidates, and `with_subscriptions`
                // indexes no zero-dimensional rectangle.)
                mask.clear();
                mask.resize(nc, 1);
                for &l in &order[at..end] {
                    let p = point_of(start_event + l as usize);
                    // Sweep: one contiguous pass per dimension folds
                    // `Interval::contains` (lo < x <= hi, the floats and
                    // the two comparisons `Rect::contains` makes) into
                    // the mask — dimension 0 assigns, the rest AND. The
                    // count tail sweeps the last dimension itself.
                    let swept = if IDS { dim } else { dim - 1 };
                    for d in 0..swept {
                        let x = p[d];
                        let lo = &cand_lo[d * nc..(d + 1) * nc];
                        let hi = &cand_hi[d * nc..(d + 1) * nc];
                        let inside = mask.iter_mut().zip(lo.iter().zip(hi));
                        if d == 0 {
                            for (m, (&lo, &hi)) in inside {
                                *m = u64::from((lo < x) & (x <= hi));
                            }
                        } else {
                            for (m, (&lo, &hi)) in inside {
                                *m &= u64::from((lo < x) & (x <= hi));
                            }
                        }
                    }
                    let mut kept = 0usize;
                    if IDS {
                        // Compaction, ascending candidate order: every id
                        // is stored at the cursor, and only a set mask
                        // moves the cursor past it — no branch on the data.
                        let start = interested.len();
                        interested.resize(start + nc, 0);
                        let tail = &mut interested[start..];
                        for (&id, &m) in members.iter().zip(mask.iter()) {
                            tail[kept] = id;
                            kept += m as usize;
                        }
                        interested.truncate(start + kept);
                        starts[l as usize] = start as u32;
                    } else {
                        // Reduction fused with the last dimension's
                        // sweep: the compaction's cursor, summed without
                        // storing an id or the mask. The mask holds the
                        // other dimensions' verdict — all ones for a
                        // one-dimensional event, whose sweep above ran no
                        // pass.
                        let d = dim - 1;
                        let x = p[d];
                        let lo = &cand_lo[d * nc..(d + 1) * nc];
                        let hi = &cand_hi[d * nc..(d + 1) * nc];
                        for (&m, (&lo, &hi)) in mask.iter().zip(lo.iter().zip(hi)) {
                            kept += (m & u64::from((lo < x) & (x <= hi))) as usize;
                        }
                    }
                    counts[l as usize] = kept as u32;
                    out[base + l as usize] = self.decide(slot, kept);
                }
            }
            at = end;
        }
    }
    // lint: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{CellProbability, GridFramework};
    use crate::kmeans::{KMeans, KMeansVariant};
    use crate::{ClusteringAlgorithm, DispatchScratch};
    use geometry::{Grid, Interval, Rect};
    use rand::prelude::*;

    /// 150 random subscriptions and 700 events, on and off a grid over
    /// `(0, 10]^dim`, truncated to 30 kept cells.
    fn scenario(seed: u64, dim: usize) -> (Vec<Rect>, Vec<Point>, DispatchPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let subs: Vec<Rect> = (0..150)
            .map(|_| {
                Rect::new(
                    (0..dim)
                        .map(|_| {
                            let lo = rng.gen_range(0.0..9.0);
                            let hi = lo + rng.gen_range(0.1..4.0);
                            Interval::new(lo, hi.min(10.0)).unwrap()
                        })
                        .collect(),
                )
            })
            .collect();
        let points: Vec<Point> = (0..700)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(-1.0..11.0)).collect()))
            .collect();
        let grid = Grid::cube(0.0, 10.0, dim, [50, 10, 5][dim - 1]).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, Some(30));
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 6);
        let plan = DispatchPlan::compile(&fw, &c)
            .with_threshold(0.2)
            .with_subscriptions(&subs);
        (subs, points, plan)
    }

    /// Both tails of the kernel against scalar `serve` (a one-event
    /// batch), event by event, at batch sizes below and above the
    /// bucket-sort threshold, in one
    /// to three dimensions, one scratch alternating between them:
    /// `serve_batch` yields the scalar interested set and decision, and
    /// the count tail the same decision and the set's size, storing no
    /// id.
    #[test]
    fn serve_batch_matches_scalar_serve_at_any_batch_size() {
        for dim in 1..=3 {
            let (_, points, plan) = scenario(17, dim);
            let mut scalar = DispatchScratch::new();
            let reference: Vec<(Delivery, Vec<usize>)> = points
                .iter()
                .map(|p| {
                    let d = plan.serve(p, &mut scalar);
                    (d, scalar.interested().to_vec())
                })
                .collect();
            for batch in [1usize, 3, 16, 97, points.len()] {
                let mut scratch = BatchScratch::new();
                let mut out = Vec::new();
                let mut counted = Vec::new();
                let mut start = 0;
                while start < points.len() {
                    let end = (start + batch).min(points.len());
                    let before = out.len();
                    plan.serve_batch(start..end, |e| &points[e], &mut scratch, &mut out);
                    for local in 0..(end - start) {
                        let (decision, ref ids) = reference[start + local];
                        let at = format!("dim {dim}, batch {batch}, event {}", start + local);
                        assert_eq!(
                            scratch.interested_of(local).collect::<Vec<_>>(),
                            *ids,
                            "{at}"
                        );
                        assert_eq!(scratch.interested_count(local) as usize, ids.len(), "{at}");
                        assert_eq!(out[before + local], decision, "{at}");
                    }
                    plan.serve_batch_counts(start..end, |e| &points[e], &mut scratch, &mut counted);
                    assert!(
                        scratch.interested.is_empty(),
                        "a count-only window stored ids"
                    );
                    for local in 0..(end - start) {
                        let (decision, ref ids) = reference[start + local];
                        let at =
                            format!("dim {dim}, batch {batch}, event {}, counts", start + local);
                        assert_eq!(scratch.interested_count(local) as usize, ids.len(), "{at}");
                        assert_eq!(counted[before + local], decision, "{at}");
                    }
                    start = end;
                }
                assert_eq!(out.len(), points.len());
                assert_eq!(counted.len(), points.len());
            }
        }
    }

    /// The ingest worker's window loop allocates nothing once warm: the
    /// hot-path lint bans every allocating call in the kernel, so what
    /// is left is a scratch buffer growing — and a second pass of the
    /// same windows moves none of them.
    #[test]
    fn count_tail_reuses_its_buffers_once_warm() {
        let (_, points, plan) = scenario(29, 2);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::with_capacity(64);
        let mut pass = |scratch: &mut BatchScratch| {
            for start in (0..points.len()).step_by(64) {
                out.clear();
                let end = (start + 64).min(points.len());
                plan.serve_batch_counts(start..end, |e| &points[e], scratch, &mut out);
            }
        };
        let buffers = |s: &BatchScratch| {
            [
                (s.cells.as_ptr() as usize, s.cells.capacity()),
                (s.xs.as_ptr() as usize, s.xs.capacity()),
                (s.slots.as_ptr() as usize, s.slots.capacity()),
                (s.order.as_ptr() as usize, s.order.capacity()),
                (s.mask.as_ptr() as usize, s.mask.capacity()),
                (s.counts.as_ptr() as usize, s.counts.capacity()),
                (s.tmp.as_ptr() as usize, s.tmp.capacity()),
            ]
        };
        pass(&mut scratch);
        let warm = buffers(&scratch);
        pass(&mut scratch);
        assert_eq!(buffers(&scratch), warm);
        assert_eq!(
            (scratch.interested.capacity(), scratch.starts.capacity()),
            (0, 0),
            "a count-only window stored ids"
        );
    }

    #[test]
    #[should_panic(expected = "with_subscriptions")]
    fn serve_batch_without_subscriptions_panics() {
        let (subs, points, _) = scenario(19, 1);
        let grid = Grid::cube(0.0, 10.0, 1, 50).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, None);
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 4);
        let plan = DispatchPlan::compile(&fw, &c);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        plan.serve_batch(0..points.len(), |e| &points[e], &mut scratch, &mut out);
    }
}
