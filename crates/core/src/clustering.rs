//! Shared clustering types: groups, clusterings, the algorithm trait and
//! the incremental group set the iterative algorithms use.

use std::collections::HashMap;
use std::sync::Arc;

use geometry::{CellId, Point};

use crate::framework::{CellFlip, DeltaReport, GridFramework, HyperCell};
use crate::membership::BitSet;
use crate::waste::{expected_waste, expected_waste_weighted};

/// One multicast group produced by a clustering algorithm: the union of
/// one or more hyper-cells.
#[derive(Debug, Clone)]
pub struct Group {
    /// Indices into [`GridFramework::hypercells`] of the merged cells.
    pub hypercells: Vec<usize>,
    /// Union of the member vectors of those hyper-cells: the subscribers
    /// assigned to this multicast group.
    pub members: BitSet,
    /// Total publication probability over the group's cells.
    pub prob: f64,
}

/// A complete partition of the kept hyper-cells into at most `K` groups.
#[derive(Debug, Clone)]
pub struct Clustering {
    pub(crate) groups: Vec<Group>,
    /// `hyper_to_group[h]` — the group hyper-cell `h` belongs to.
    pub(crate) hyper_to_group: Vec<usize>,
}

impl Clustering {
    /// Builds a clustering from a per-hyper-cell group assignment.
    ///
    /// Group indices must be dense (`0..num_groups`); empty groups are
    /// permitted but dropped.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != framework.hypercells().len()`.
    pub fn from_assignment(framework: &GridFramework, assignment: Vec<usize>) -> Self {
        let hcs = framework.hypercells();
        assert_eq!(assignment.len(), hcs.len(), "one group per kept hyper-cell");
        let num_groups = assignment.iter().copied().max().map_or(0, |g| g + 1);
        let mut groups: Vec<Group> = (0..num_groups)
            .map(|_| Group {
                hypercells: Vec::new(),
                members: BitSet::new(framework.num_subscribers()),
                prob: 0.0,
            })
            .collect();
        for (h, &g) in assignment.iter().enumerate() {
            groups[g].hypercells.push(h);
            groups[g].members.union_with(&hcs[h].members);
            groups[g].prob += hcs[h].prob;
        }
        // Drop empty groups, remapping indices densely.
        let mut remap = vec![usize::MAX; groups.len()];
        let mut kept = Vec::with_capacity(groups.len());
        for (g, group) in groups.into_iter().enumerate() {
            if !group.hypercells.is_empty() {
                remap[g] = kept.len();
                kept.push(group);
            }
        }
        let hyper_to_group = assignment.into_iter().map(|g| remap[g]).collect();
        Clustering {
            groups: kept,
            hyper_to_group,
        }
    }

    /// The groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Number of (non-empty) groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The group that hyper-cell `h` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn group_of_hyper(&self, h: usize) -> usize {
        self.hyper_to_group[h]
    }

    /// The group an event point is matched to, if its cell was kept.
    pub fn group_of_point(&self, framework: &GridFramework, p: &Point) -> Option<usize> {
        framework.hyper_of_point(p).map(|h| self.group_of_hyper(h))
    }

    /// The total expected waste of the clustering: for each hyper-cell,
    /// the publication mass of the cell times the number of group
    /// members *not* interested in it. This is the objective the
    /// heuristics minimize; useful for comparing algorithms directly.
    pub fn total_expected_waste(&self, framework: &GridFramework) -> f64 {
        let hcs = framework.hypercells();
        self.hyper_to_group
            .iter()
            .enumerate()
            .map(|(h, &g)| {
                let hc = &hcs[h];
                let extra = self.groups[g].members.difference_count(&hc.members);
                hc.prob * extra as f64
            })
            .sum()
    }
}

/// A subscription clustering algorithm over the grid framework.
///
/// Implementations: K-means (MacQueen), Forgy K-means, pairwise grouping
/// (exact and approximate) and MST clustering. The `k` argument is the
/// number of available multicast groups.
pub trait ClusteringAlgorithm: Sync {
    /// A short human-readable name for reports ("kmeans", "forgy", ...).
    fn name(&self) -> &'static str;

    /// Partitions the framework's hyper-cells into at most `k` groups.
    fn cluster(&self, framework: &GridFramework, k: usize) -> Clustering;
}

/// Incrementally maintained state of all `K` groups of an iterative
/// algorithm: per-(group, subscriber) containment counts, so hyper-cells
/// can be added *and removed* in `O(|cell members|)`; the group sizes and
/// probability masses the expected-waste distance needs; the membership
/// itself twice over, one copy per pricing kernel — each group's
/// membership vector, and transposed, each subscriber's *set of
/// groups*; and, when rows are tracked, every hyper-cell's intersection
/// count with every group, which prices a hyper-cell with no kernel at
/// all while the rows are exact; and per hyper-cell, the group its last
/// pricing chose, which a log of the groups changed since lets a later
/// pricing confirm from those groups alone.
#[derive(Debug, Clone)]
pub(crate) struct GroupSet {
    /// `counts[g][m]`: how many of group `g`'s grid cells contain
    /// subscriber `m`. Cells, not hyper-cells, so that a count is a sum
    /// over cells, which [`rebase`](Self::rebase) patches cell by cell
    /// across a delta that re-merges the hyper-cells.
    counts: Vec<Vec<u32>>,
    /// `vectors[g]`: group `g`'s membership vector — bit `m` is set iff
    /// `counts[g][m] > 0`, so it flips only on a 0↔1 count transition.
    vectors: Vec<BitSet>,
    /// The number of (group, subscriber) pairs with a non-zero count:
    /// the set bits over all `vectors`.
    links: usize,
    /// `words = ceil(K / 64)` per subscriber: bit `g % 64` of
    /// `mask[m * words + g / 64]` is set iff `counts[g][m] > 0`, the
    /// same bit as `vectors[g]`'s bit `m`.
    mask: Vec<u64>,
    words: usize,
    /// Per-slot multiplicities for class-universe frameworks; `None`
    /// (every slot counts 1) for concrete frameworks.
    weights: Option<Arc<Vec<u64>>>,
    /// Per group: the weighted number of subscribers with a non-zero
    /// count (the plain number when `weights` is `None`), the number of
    /// hyper-cells, and the total publication probability.
    size: Vec<u64>,
    num_cells: Vec<usize>,
    prob: Vec<f64>,
    /// `rows[h * K + g] = |hc ∩ group g|` for hyper-cell `h` of the
    /// framework the set was built over (the row of `h`); empty when
    /// rows are not tracked.
    rows: Vec<u64>,
    /// Whether every row is exact. While they are, pricing reads them
    /// and each move patches them.
    exact: bool,
    /// Whether the current pass has left the rows stale — moved a
    /// hyper-cell while they were, or outran the budget — and the
    /// hyper-cells it left unpriced before that.
    moved: bool,
    unpriced: Vec<usize>,
    /// Word reads the row patches of one pass may make before the rows
    /// go stale: the steps one pass of the two kernels takes in the cost
    /// model of [`prices_by_words`](Self::prices_by_words).
    budget: u64,
    /// Word reads the row patches of the current pass made.
    spent: u64,
    /// `memo[h]`: the last pricing of hyper-cell `h`, `None` before the
    /// first; empty when rows are not tracked. Pass state, like `moved`.
    memo: Vec<Option<Memo>>,
    /// The groups whose distance inputs — size, mass, or the group's
    /// column of any row — changed, in order; a group may repeat.
    log: Vec<usize>,
}

/// The nearest group a pricing found, its distance, and the log length
/// then: the groups logged since are the only ones whose distance to
/// the hyper-cell can have changed.
#[derive(Debug, Clone, Copy)]
struct Memo {
    group: usize,
    distance: f64,
    at: usize,
}

fn weight_of(weights: &Option<Arc<Vec<u64>>>, m: usize) -> u64 {
    weights.as_ref().map_or(1, |w| w[m])
}

/// The groups set in subscriber `m`'s `words`-word mask.
fn groups_in(mask: &[u64], words: usize, m: usize) -> impl Iterator<Item = usize> + '_ {
    let row = &mask[m * words..(m + 1) * words];
    row.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let g = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                g
            })
        })
    })
}

impl GroupSet {
    /// `k` empty groups over `framework`'s subscriber universe, weighted
    /// when the framework is a class-universe (aggregated) build.
    pub(crate) fn new(framework: &GridFramework, k: usize) -> Self {
        let n = framework.num_subscribers();
        let words = k.div_ceil(64);
        GroupSet {
            counts: vec![vec![0; n]; k],
            vectors: vec![BitSet::new(n); k],
            links: 0,
            mask: vec![0; n * words],
            words,
            weights: framework.weights.clone(),
            size: vec![0; k],
            num_cells: vec![0; k],
            prob: vec![0.0; k],
            rows: Vec::new(),
            exact: false,
            moved: false,
            unpriced: Vec::new(),
            budget: 0,
            spent: 0,
            memo: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The `k` groups of `assignment` (hyper-cell `h` in group
    /// `assignment[h]`) built from scratch, each hyper-cell added in
    /// index order, tracking rows that a pass with no move makes exact.
    pub(crate) fn seeded(framework: &GridFramework, k: usize, assignment: &[usize]) -> Self {
        let hcs = framework.hypercells();
        let mut groups = GroupSet::new(framework, k);
        for (hc, &g) in hcs.iter().zip(assignment) {
            groups.add(g, hc);
        }
        groups.track_rows(hcs);
        groups
    }

    /// Adds `by` to `counts[g][m]`; returns whether bit `m` of group
    /// `g` went from 0 to 1.
    #[inline(always)]
    fn raise(&mut self, g: usize, m: usize, by: u32) -> bool {
        let count = &mut self.counts[g][m];
        *count += by;
        if *count != by {
            return false;
        }
        self.size[g] += weight_of(&self.weights, m);
        self.vectors[g].insert(m);
        self.links += 1;
        self.mask[m * self.words + g / 64] |= 1 << (g % 64);
        true
    }

    /// Takes `by` from `counts[g][m]`; returns whether bit `m` of group
    /// `g` went from 1 to 0.
    #[inline(always)]
    fn lower(&mut self, g: usize, m: usize, by: u32) -> bool {
        let count = &mut self.counts[g][m];
        debug_assert!(*count >= by, "removing a cell that was never added");
        *count -= by;
        if *count != 0 {
            return false;
        }
        self.size[g] -= weight_of(&self.weights, m);
        self.vectors[g].remove(m);
        self.links -= 1;
        self.mask[m * self.words + g / 64] &= !(1 << (g % 64));
        true
    }

    pub(crate) fn add(&mut self, g: usize, hc: &HyperCell) {
        let by = cells_of(hc);
        for m in hc.members.iter() {
            self.raise(g, m, by);
        }
        self.num_cells[g] += 1;
        self.prob[g] += hc.prob;
    }

    /// Moves hyper-cell `h` of `hcs` (the hyper-cells the set was built
    /// over) from group `from` to group `to`. While the rows are exact,
    /// the subscribers whose bit flipped in `from` or `to` are counted
    /// out of or into that column of every row; once a pass's patches
    /// outrun the budget, the rows go stale.
    pub(crate) fn relocate(&mut self, hcs: &[HyperCell], h: usize, from: usize, to: usize) {
        let (hc, by, exact) = (&hcs[h], cells_of(&hcs[h]), self.exact);
        let (mut lost, mut gained) = (Vec::new(), Vec::new());
        for m in hc.members.iter() {
            if self.lower(from, m, by) && exact {
                lost.push(m);
            }
        }
        self.num_cells[from] -= 1;
        self.prob[from] -= hc.prob;
        for m in hc.members.iter() {
            if self.raise(to, m, by) && exact {
                gained.push(m);
            }
        }
        self.num_cells[to] += 1;
        self.prob[to] += hc.prob;
        self.log.extend([from, to]);
        if exact {
            self.patch_column(hcs, from, &lost, false);
            self.patch_column(hcs, to, &gained, true);
        }
        if !self.exact || self.spent > self.budget {
            self.exact = false;
            self.moved = true;
        }
    }

    /// Adds (`gained`) or takes away `|hc ∩ flipped|` in column `g` of
    /// the row of every `hc` of `hcs`, reading only the words that hold
    /// a subscriber of `flipped` (ascending). Unweighted, as rows are.
    fn patch_column(&mut self, hcs: &[HyperCell], g: usize, flipped: &[usize], gained: bool) {
        let mut words: Vec<(usize, u64)> = Vec::new();
        for &m in flipped {
            let (at, bit) = (m / 64, 1u64 << (m % 64));
            match words.last_mut() {
                Some((last, bits)) if *last == at => *bits |= bit,
                _ => words.push((at, bit)),
            }
        }
        if words.is_empty() {
            return;
        }
        let k = self.num_groups();
        for (hc, row) in hcs.iter().zip(self.rows.chunks_exact_mut(k)) {
            let members = hc.members.words();
            let both: u32 = words
                .iter()
                .map(|&(at, bits)| (members[at] & bits).count_ones())
                .sum();
            if gained {
                row[g] += u64::from(both);
            } else {
                row[g] -= u64::from(both);
            }
        }
        self.spent += (hcs.len() * words.len()) as u64;
    }

    /// Opens a re-assignment pass, with an empty row-update budget. The
    /// log keeps its last `K` entries: a memo older than those would
    /// take the full scan anyway, so it goes too.
    pub(crate) fn begin_pass(&mut self) {
        self.spent = 0;
        self.moved = false;
        self.unpriced.clear();
        let cut = self.log.len().saturating_sub(self.num_groups());
        if cut > 0 {
            self.log.drain(..cut);
            for memo in &mut self.memo {
                *memo = memo.filter(|m| m.at >= cut).map(|m| Memo {
                    at: m.at - cut,
                    ..m
                });
            }
        }
    }

    /// Closes a pass over `hcs`. A pass that priced on stale rows and
    /// moved nothing priced every row against the groups it ends with:
    /// the rows it left unpriced are priced now, and all are exact. Such
    /// a pass ends the run, so they get no patch budget; a
    /// [`rebase`](Self::rebase) gives them one.
    pub(crate) fn end_pass(&mut self, hcs: &[HyperCell]) {
        if self.exact || self.moved || self.rows.is_empty() {
            return;
        }
        let mut scratch = Vec::new();
        for h in std::mem::take(&mut self.unpriced) {
            self.price_row(h, &hcs[h], &mut scratch);
        }
        (self.exact, self.budget) = (true, 0);
    }

    pub(crate) fn num_groups(&self) -> usize {
        self.size.len()
    }

    pub(crate) fn num_cells(&self, g: usize) -> usize {
        self.num_cells[g]
    }

    /// Whether the word kernel prices `hc` (`cell_size` members) in
    /// fewer steps than the walk: the walk visits each member and the
    /// groups in its mask, `|hc|·(1 + links/n)`; the word kernel reads
    /// `K·ceil(n/64)` words whatever `hc` holds. Both sides are scaled
    /// by `n` to stay in integers. Weighted frameworks always walk: the
    /// word kernel counts members, it does not weigh them.
    pub(crate) fn prices_by_words(&self, hc: &HyperCell, cell_size: usize) -> bool {
        let (word_steps, walk_steps) = self.kernel_steps(hc, cell_size);
        self.weights.is_none() && word_steps < walk_steps
    }

    /// The two kernels' steps for `hc`, both scaled by `n`.
    fn kernel_steps(&self, hc: &HyperCell, cell_size: usize) -> (u128, u128) {
        let n = hc.members.universe() as u128;
        let word_steps = self.num_groups() as u128 * n.div_ceil(64) * n;
        let walk_steps = cell_size as u128 * (n + self.links as u128);
        (word_steps, walk_steps)
    }

    /// The walk kernel: `in_both[g]` ← the weighted size of
    /// `hc ∩ group g`, by one walk of `hc.members` (each member adds its
    /// weight to the groups in its mask). Returns `hc`'s weighted size.
    fn in_both_by_walk(&self, hc: &HyperCell, in_both: &mut Vec<u64>) -> u64 {
        in_both.clear();
        in_both.resize(self.num_groups(), 0);
        let mut cell_size = 0u64;
        for m in hc.members.iter() {
            let w = weight_of(&self.weights, m);
            cell_size += w;
            let groups_of_m = &self.mask[m * self.words..(m + 1) * self.words];
            for (i, &word) in groups_of_m.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    in_both[i * 64 + bits.trailing_zeros() as usize] += w;
                    bits &= bits - 1;
                }
            }
        }
        cell_size
    }

    /// The word kernel: `in_both[g]` ← `|hc ∩ group g|`, one
    /// AND-popcount of the two membership vectors per group. Unweighted.
    fn in_both_by_words(&self, hc: &HyperCell, in_both: &mut Vec<u64>) {
        in_both.clear();
        let both = |group: &BitSet| hc.members.intersection_count(group) as u64;
        in_both.extend(self.vectors.iter().map(both));
    }

    /// `in_both[g] = |hc ∩ group g|` for all `K` groups by the cheaper
    /// of two exact kernels (see [`prices_by_words`](Self::prices_by_words)):
    /// one walk of `hc.members`, `O(|hc|·(1 + links/n))`, on a sparse
    /// population; one AND-popcount per group, `O(K·n/64)`, on a dense
    /// one. `cell_size` is `|hc.members|`; returns `hc`'s weighted size.
    fn in_both(&self, hc: &HyperCell, cell_size: usize, in_both: &mut Vec<u64>) -> u64 {
        if self.prices_by_words(hc, cell_size) {
            self.in_both_by_words(hc, in_both);
            cell_size as u64
        } else {
            self.in_both_by_walk(hc, in_both)
        }
    }

    /// The group with minimal expected-waste distance to a hyper-cell
    /// of mass `p` and weighted size `cell_size` whose intersection with
    /// group `g` weighs `in_both[g]`, ties to the lower index, and that
    /// distance.
    fn nearest(&self, p: f64, cell_size: u64, in_both: &[u64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (g, d) in self.distances(p, cell_size, in_both).enumerate() {
            if d < best.1 {
                best = (g, d);
            }
        }
        best
    }

    /// The `K` distances [`nearest`](Self::nearest) compares, in group
    /// order.
    fn distances<'a>(
        &'a self,
        p: f64,
        cell_size: u64,
        in_both: &'a [u64],
    ) -> impl Iterator<Item = f64> + 'a {
        let groups = self.size.iter().zip(&self.prob).zip(in_both);
        groups.map(move |((&size, &prob), &both)| distance(p, cell_size, size, prob, both))
    }

    /// [`nearest`](Self::nearest) over the exact `row` of a hyper-cell
    /// of mass `p` and size `cell_size`, from its `memo`, pricing only
    /// the groups logged since: every other distance is the one the memo
    /// was chosen against, none below the memo's and none equal at a
    /// lower index. So the memo, re-priced if logged, and the logged
    /// groups hold the lexicographic minimum of (distance, group) —
    /// unless the memo's group got farther away, or more than `K`
    /// entries were logged, where this returns `None` for a full scan.
    fn nearest_since(
        &self,
        memo: Memo,
        p: f64,
        cell_size: u64,
        row: &[u64],
    ) -> Option<(usize, f64)> {
        let since = &self.log[memo.at..];
        if since.len() > self.num_groups() {
            return None;
        }
        let to = |g: usize| distance(p, cell_size, self.size[g], self.prob[g], row[g]);
        let mut best = (memo.group, memo.distance);
        if since.contains(&memo.group) {
            best.1 = to(memo.group);
            if best.1 > memo.distance {
                return None;
            }
        }
        for &g in since {
            let d = to(g);
            if d < best.1 || (d == best.1 && g < best.0) {
                best = (g, d);
            }
        }
        Some(best)
    }

    /// Index of the group with minimal expected-waste distance to `hc`
    /// (ties go to the lower index, deterministically), priced by the
    /// kernels. `cell_size` is `|hc.members|`, which the caller counts
    /// once per hyper-cell so the kernel choice costs no pass over `hc`
    /// of its own. `scratch` is the caller's reusable `in_both` buffer;
    /// its contents are ignored.
    pub(crate) fn closest(
        &self,
        hc: &HyperCell,
        cell_size: usize,
        scratch: &mut Vec<u64>,
    ) -> usize {
        let weighted_size = self.in_both(hc, cell_size, scratch);
        self.nearest(hc.prob, weighted_size, scratch).0
    }

    /// [`closest`](Self::closest) for hyper-cell `h` (`hc`) of the
    /// framework the set was built over. While the rows are exact, from
    /// the row: the groups logged since `h`'s memo
    /// ([`nearest_since`](Self::nearest_since)), or all `K`. Otherwise
    /// by the kernels, whose counts become the row when rows are tracked
    /// and the pass has not moved a hyper-cell yet (after a move, only a
    /// later pass can leave the rows exact). Either way the answer
    /// becomes `h`'s memo when rows are tracked.
    pub(crate) fn closest_at(
        &mut self,
        h: usize,
        hc: &HyperCell,
        cell_size: usize,
        scratch: &mut Vec<u64>,
    ) -> usize {
        let (k, p) = (self.num_groups(), hc.prob);
        let (group, distance) = if self.exact {
            let row = &self.rows[h * k..(h + 1) * k];
            let full = || self.nearest(p, cell_size as u64, row);
            let memo =
                self.memo[h].and_then(|memo| self.nearest_since(memo, p, cell_size as u64, row));
            let best = memo.unwrap_or_else(full);
            debug_assert!(
                (best.0, best.1.to_bits()) == (full().0, full().1.to_bits()),
                "hyper-cell {h}: {best:?} differs from the full scan"
            );
            best
        } else {
            let weighted_size = self.in_both(hc, cell_size, scratch);
            if !self.rows.is_empty() && !self.moved {
                self.rows[h * k..(h + 1) * k].copy_from_slice(scratch);
            }
            self.nearest(p, weighted_size, scratch)
        };
        let at = self.log.len();
        if let Some(memo) = self.memo.get_mut(h) {
            *memo = Some(Memo {
                group,
                distance,
                at,
            });
        }
        group
    }

    /// Notes that the current pass does not price hyper-cell `h`, the
    /// last of its group.
    pub(crate) fn skip(&mut self, h: usize) {
        if !self.exact && !self.rows.is_empty() && !self.moved {
            self.unpriced.push(h);
        }
    }

    /// Writes the row of hyper-cell `h` (`hc`) by the kernels.
    fn price_row(&mut self, h: usize, hc: &HyperCell, scratch: &mut Vec<u64>) {
        let k = self.num_groups();
        self.in_both(hc, hc.members.count(), scratch);
        self.rows[h * k..(h + 1) * k].copy_from_slice(scratch);
    }

    /// Makes the set track the rows of `hcs`, stale until a pass with no
    /// move, and their memos, none yet. A class-universe framework's set
    /// tracks none: its rows would need weighted cell sizes, and only
    /// concrete frameworks take the incremental path that carries them.
    pub(crate) fn track_rows(&mut self, hcs: &[HyperCell]) {
        self.exact = false;
        self.rows.clear();
        self.memo.clear();
        if self.weights.is_none() {
            self.rows.resize(hcs.len() * self.num_groups(), 0);
            self.memo.resize(hcs.len(), None);
        }
    }

    /// Marks the rows of `hcs` exact, with the steps one kernel pass
    /// over `hcs` takes as each pass's patch budget.
    fn go_exact(&mut self, hcs: &[HyperCell]) {
        let steps = |hc: &HyperCell| {
            let (words, walk) = self.kernel_steps(hc, hc.members.count());
            words.min(walk) / (hc.members.universe() as u128).max(1)
        };
        self.budget = hcs.iter().map(steps).sum::<u128>() as u64;
        self.exact = true;
    }

    /// Prices every row of `hcs` by the kernels and marks them exact.
    pub(crate) fn price_rows(&mut self, hcs: &[HyperCell]) {
        self.track_rows(hcs);
        if self.weights.is_some() {
            return;
        }
        let mut scratch = Vec::new();
        for (h, hc) in hcs.iter().enumerate() {
            self.price_row(h, hc, &mut scratch);
        }
        self.go_exact(hcs);
    }

    /// Recounts each group's hyper-cells and re-sums its mass over
    /// `assignment`, in hyper-cell order as [`seeded`](Self::seeded)
    /// sums them: masses patched move by move carry rounding of their
    /// own, and every distance reads them. Logs each group whose mass
    /// changed bits.
    pub(crate) fn resum(&mut self, hcs: &[HyperCell], assignment: &[usize]) {
        self.resum_and_log(hcs, assignment, vec![0; self.words]);
    }

    /// [`resum`](Self::resum), logging once, in ascending order, each
    /// group set in `changed` (bit `g % 64` of word `g / 64`) or whose
    /// mass changed bits.
    fn resum_and_log(&mut self, hcs: &[HyperCell], assignment: &[usize], mut changed: Vec<u64>) {
        let mut prob = vec![0.0; self.num_groups()];
        self.num_cells.fill(0);
        for (hc, &g) in hcs.iter().zip(assignment) {
            self.num_cells[g] += 1;
            prob[g] += hc.prob;
        }
        for (g, (was, is)) in self.prob.iter().zip(&prob).enumerate() {
            if was.to_bits() != is.to_bits() {
                changed[g / 64] |= 1 << (g % 64);
            }
        }
        self.prob = prob;
        self.log.extend(groups_in(&changed, changed.len(), 0));
    }

    /// Carries the set of `old`, the clustering of the framework before
    /// `report`'s delta, over to `framework`, the framework after it,
    /// with hyper-cell `h` in group `seed[h]`. The result equals
    /// `GroupSet::seeded(framework, K, seed)` field for field, pass state
    /// aside, and costs what changed rather than a rebuild:
    ///
    /// - counts move cell by cell: a dirty cell that keeps its group
    ///   takes its flipped bits, and a cell whose group the seed changed
    ///   moves its members from one group to the other;
    /// - hyper-cell counts and masses are re-summed in seed order, and
    ///   each group whose vector or mass changed is logged;
    /// - an unchanged hyper-cell keeps its memo, a changed one has none;
    /// - the row of a new hyper-cell starts from the old row of one of
    ///   its cells (cells are stable across a delta, hyper-cell ids are
    ///   not), takes that cell's flipped bits against the old masks, then
    ///   each of its members' group bits that flipped above.
    ///
    /// Stale rows stay stale, for the passes to price.
    ///
    /// # Panics
    ///
    /// Panics if `seed` names a group `>= K` or `old` is not the
    /// clustering this set holds.
    pub(crate) fn rebase(
        &mut self,
        framework: &GridFramework,
        report: &DeltaReport,
        old: &Clustering,
        seed: &[usize],
    ) {
        let hcs = framework.hypercells();
        let n = framework.num_subscribers();
        for (counts, vector) in self.counts.iter_mut().zip(&mut self.vectors) {
            counts.resize(n, 0);
            vector.grow(n);
        }
        self.mask.resize(n * self.words, 0);
        let before = self.mask.clone();
        let group_of = |oh: usize| old.group_of_hyper(oh);
        let flip_of: HashMap<CellId, &CellFlip> =
            report.flips.iter().map(|f| (f.cell, f)).collect();
        let clean_old_hyper = |c: &CellId| {
            let oh = report.old_hyper_of_cell.get(c);
            *oh.expect("an unflipped cell of a changed hyper-cell was mapped")
        };

        // Counts, cell by cell. A dirty cell that no hyper-cell holds any
        // more lost every member it had.
        for f in report.flips.iter() {
            if let (None, Some(oh)) = (framework.hyper_of_cell(f.cell), f.old_hyper) {
                for &m in &f.cleared {
                    self.lower(group_of(oh), m, 1);
                }
            }
        }
        for (h, hc) in hcs.iter().enumerate() {
            let to = seed[h];
            if let Some(oh) = report.old_index[h] {
                self.shift(hc, group_of(oh), to, cells_of(hc));
                continue;
            }
            for c in &hc.cells {
                match flip_of.get(c) {
                    None => self.shift(hc, group_of(clean_old_hyper(c)), to, 1),
                    Some(f) => match f.old_hyper.map(group_of) {
                        Some(from) if from == to => {
                            for &m in &f.cleared {
                                self.lower(to, m, 1);
                            }
                            for &m in &f.set {
                                self.raise(to, m, 1);
                            }
                        }
                        from => {
                            // The cell held its new members but `set`,
                            // plus `cleared`.
                            if let Some(from) = from {
                                for m in hc.members.iter().filter(|m| !f.set.contains(m)) {
                                    self.lower(from, m, 1);
                                }
                                for &m in &f.cleared {
                                    self.lower(from, m, 1);
                                }
                            }
                            for m in hc.members.iter() {
                                self.raise(to, m, 1);
                            }
                        }
                    },
                }
            }
        }
        // The subscribers whose groups changed, and the groups whose
        // vector did: logged with those whose mass changed.
        let w = self.words;
        let mut flipped = BitSet::new(n);
        let mut changed = vec![0u64; w];
        let masks = before
            .chunks_exact(w.max(1))
            .zip(self.mask.chunks_exact(w.max(1)));
        for (m, (was, is)) in masks.enumerate() {
            if was != is {
                flipped.insert(m);
                for (c, (a, b)) in changed.iter_mut().zip(was.iter().zip(is)) {
                    *c |= a ^ b;
                }
            }
        }
        self.resum_and_log(hcs, seed, changed);
        let exact = self.exact;
        let old_rows = std::mem::take(&mut self.rows);
        let old_memo = std::mem::take(&mut self.memo);
        self.track_rows(hcs);
        for (memo, oh) in self.memo.iter_mut().zip(&report.old_index) {
            *memo = oh.and_then(|oh| old_memo.get(oh).copied().flatten());
        }
        if !exact {
            return;
        }

        // Rows.
        let k = self.num_groups();
        let mut rows = std::mem::take(&mut self.rows);
        for (h, (hc, row)) in hcs.iter().zip(rows.chunks_exact_mut(k.max(1))).enumerate() {
            // An old row of one of `h`'s cells, and the cell's flips.
            let (from, flip) = match report.old_index[h] {
                Some(oh) => (Some(oh), None),
                None => match hc.cells.iter().find(|c| !flip_of.contains_key(c)) {
                    Some(c) => (Some(clean_old_hyper(c)), None),
                    None => {
                        let f = hc.cells.first().and_then(|c| flip_of.get(c));
                        let f = f.expect("a hyper-cell holds a cell");
                        (f.old_hyper, Some(f))
                    }
                },
            };
            if let Some(oh) = from {
                row.copy_from_slice(&old_rows[oh * k..(oh + 1) * k]);
            }
            if let Some(f) = flip {
                for &m in &f.cleared {
                    let weight = weight_of(&self.weights, m);
                    for g in groups_in(&before, w, m) {
                        row[g] -= weight;
                    }
                }
                for &m in &f.set {
                    let weight = weight_of(&self.weights, m);
                    for g in groups_in(&before, w, m) {
                        row[g] += weight;
                    }
                }
            }
            for m in hc.members.iter_and(&flipped) {
                let weight = weight_of(&self.weights, m);
                for i in 0..w {
                    let (was, is) = (before[m * w + i], self.mask[m * w + i]);
                    let (mut gained, mut lost) = (is & !was, was & !is);
                    while gained != 0 {
                        row[i * 64 + gained.trailing_zeros() as usize] += weight;
                        gained &= gained - 1;
                    }
                    while lost != 0 {
                        row[i * 64 + lost.trailing_zeros() as usize] -= weight;
                        lost &= lost - 1;
                    }
                }
            }
        }
        self.rows = rows;
        self.go_exact(hcs);
    }

    /// Moves `by` of each of `hc`'s members' counts from group `from`
    /// to group `to`; nothing when they are the same group.
    fn shift(&mut self, hc: &HyperCell, from: usize, to: usize, by: u32) {
        if from == to {
            return;
        }
        for m in hc.members.iter() {
            self.lower(from, m, by);
            self.raise(to, m, by);
        }
    }

    /// Whether `self` equals `other` field for field — masses compared
    /// by bits, rows wherever `self`'s are exact — leaving out the pass
    /// state, memos and log included: a carried set and one built from
    /// scratch hold different memos for the same groups.
    pub(crate) fn same_as(&self, other: &GroupSet) -> bool {
        let bits = |prob: &[f64]| prob.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        self.counts == other.counts
            && self.vectors == other.vectors
            && self.links == other.links
            && (self.mask == other.mask && self.words == other.words)
            && self.weights == other.weights
            && self.size == other.size
            && self.num_cells == other.num_cells
            && bits(&self.prob) == bits(&other.prob)
            && (!self.exact || (other.exact && self.rows == other.rows))
    }

    /// Whether every mask bit and every group-vector bit agrees with
    /// its count, `links` is the number of set group-vector bits, every
    /// size is the weighted popcount, and — while the rows are exact —
    /// every row of `hcs` (the hyper-cells it was built over) equals a
    /// fresh walk. `O(n·K + l·K)`: for `debug_assert!` and tests.
    pub(crate) fn is_consistent(&self, hcs: &[HyperCell]) -> bool {
        let links: usize = self.vectors.iter().map(BitSet::count).sum();
        let k = self.num_groups();
        let mut walked = Vec::new();
        let row_is_fresh = |(h, hc): (usize, &HyperCell)| {
            self.in_both_by_walk(hc, &mut walked);
            walked == self.rows[h * k..(h + 1) * k]
        };
        links == self.links
            && self.counts.iter().enumerate().all(|(g, counts)| {
                let bit = |m: usize| self.mask[m * self.words + g / 64] >> (g % 64) & 1;
                let weight = |m: usize| bit(m) * weight_of(&self.weights, m);
                let agrees = |m: usize| {
                    (counts[m] > 0) == (bit(m) == 1)
                        && (counts[m] > 0) == self.vectors[g].contains(m)
                };
                (0..counts.len()).all(agrees)
                    && (0..counts.len()).map(weight).sum::<u64>() == self.size[g]
            })
            && (!self.exact
                || (self.rows.len() == hcs.len() * k && hcs.iter().enumerate().all(row_is_fresh)))
    }
}

/// The expected-waste distance between a hyper-cell of mass `p` and
/// weighted size `cell_size` and a group of weighted size `size` and
/// mass `prob` whose intersection with it weighs `both`:
/// `p·|group \ hc| + prob·|hc \ group|`, set sizes weighted by the
/// per-slot multiplicities when present. The weighted integers equal
/// the concrete counts, so each `f64` is bit-identical to the expanded
/// computation, whoever counted `both`. The differences convert through
/// `i64`, exact below 2^63 and cheaper than from `u64` on x86-64.
#[inline(always)]
fn distance(p: f64, cell_size: u64, size: u64, prob: f64, both: u64) -> f64 {
    p * (size - both) as i64 as f64 + prob * (cell_size - both) as i64 as f64
}

/// The grid cells of `hc`, the amount it adds to a count.
fn cells_of(hc: &HyperCell) -> u32 {
    u32::try_from(hc.cells.len()).expect("a hyper-cell holds fewer than 2^32 cells")
}

/// Distance between two materialized groups (used by the hierarchical
/// algorithms): plain expected waste on their member vectors, weighted
/// by the per-slot multiplicities when clustering a class universe.
pub(crate) fn group_distance(
    pa: f64,
    a: &BitSet,
    pb: f64,
    b: &BitSet,
    weights: Option<&[u64]>,
) -> f64 {
    match weights {
        None => expected_waste(pa, a, pb, b),
        Some(w) => expected_waste_weighted(pa, a, pb, b, w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellProbability;
    use geometry::{Grid, Interval, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl GroupSet {
        /// The distance `closest` compares for group `g`.
        fn distance_to(&self, g: usize, hc: &HyperCell) -> f64 {
            let mut in_both = Vec::new();
            let size = self.in_both(hc, hc.members.count(), &mut in_both);
            let d = self.distances(hc.prob, size, &in_both).nth(g);
            d.expect("group in range")
        }

        pub(crate) fn rows_exact(&self) -> bool {
            self.exact
        }

        /// Takes `hc` out of group `g` alone, which a partition never
        /// does: the random sequences below hold a cell in many groups.
        fn remove(&mut self, g: usize, hc: &HyperCell) {
            for m in hc.members.iter() {
                self.lower(g, m, cells_of(hc));
            }
            self.num_cells[g] -= 1;
            self.prob[g] -= hc.prob;
        }

        /// Group `g`'s materialized membership vector, read off the masks.
        fn members(&self, g: usize) -> BitSet {
            let n = self.counts[g].len();
            let in_g = |&m: &usize| self.mask[m * self.words + g / 64] >> (g % 64) & 1 == 1;
            BitSet::from_members(n, (0..n).filter(in_g))
        }
    }

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    fn framework() -> GridFramework {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        // Three membership classes: {0,1} on (0,4], {1} on (4,7], {2} on (7,10].
        let subs = vec![rect1(0.0, 7.0), rect1(0.0, 4.0), rect1(7.0, 10.0)];
        let probs = CellProbability::uniform(&grid);
        GridFramework::build(grid, &subs, &probs, None)
    }

    #[test]
    fn from_assignment_builds_groups() {
        let fw = framework();
        assert_eq!(fw.hypercells().len(), 3);
        let c = Clustering::from_assignment(&fw, vec![0, 0, 1]);
        assert_eq!(c.num_groups(), 2);
        // Group 0 contains hyper-cells 0 and 1; its members are a union.
        let g0 = &c.groups()[0];
        assert_eq!(g0.hypercells, vec![0, 1]);
        let mut union = fw.hypercells()[0].members.clone();
        union.union_with(&fw.hypercells()[1].members);
        assert_eq!(g0.members, union);
        assert_eq!(c.group_of_hyper(2), 1);
    }

    #[test]
    fn empty_groups_are_dropped_and_remapped() {
        let fw = framework();
        let c = Clustering::from_assignment(&fw, vec![2, 2, 0]);
        assert_eq!(c.num_groups(), 2);
        assert_eq!(c.group_of_hyper(0), c.group_of_hyper(1));
        assert_ne!(c.group_of_hyper(0), c.group_of_hyper(2));
    }

    #[test]
    fn singleton_groups_have_zero_waste() {
        let fw = framework();
        let c = Clustering::from_assignment(&fw, vec![0, 1, 2]);
        assert_eq!(c.total_expected_waste(&fw), 0.0);
    }

    #[test]
    fn merging_disjoint_memberships_costs_waste() {
        let fw = framework();
        let merged = Clustering::from_assignment(&fw, vec![0, 0, 0]);
        assert!(merged.total_expected_waste(&fw) > 0.0);
    }

    #[test]
    fn group_of_point_follows_cells() {
        let fw = framework();
        let c = Clustering::from_assignment(&fw, vec![0, 0, 1]);
        let g_left = c.group_of_point(&fw, &Point::new(vec![1.0]));
        let g_right = c.group_of_point(&fw, &Point::new(vec![9.0]));
        assert!(g_left.is_some());
        assert!(g_right.is_some());
        assert_ne!(g_left, g_right);
        // Outside the grid: no group.
        assert_eq!(c.group_of_point(&fw, &Point::new(vec![100.0])), None);
    }

    #[test]
    fn accumulator_tracks_members_through_moves() {
        let fw = framework();
        let hcs = fw.hypercells();
        let mut acc = GroupSet::new(&fw, 1);
        acc.add(0, &hcs[0]);
        acc.add(0, &hcs[1]);
        let mut union = hcs[0].members.clone();
        union.union_with(&hcs[1].members);
        assert_eq!(acc.members(0), union);
        acc.remove(0, &hcs[1]);
        assert_eq!(acc.members(0), hcs[0].members);
        assert_eq!(acc.num_cells(0), 1);
        assert!(acc.is_consistent(hcs));

        // A random add/remove sequence over K = 70 groups (two mask
        // words), concrete and weighted: after every step each mask bit
        // and group-vector bit agrees with its count and each size is
        // the weighted popcount, each group's members are the union of
        // the cells it holds, and on a concrete framework the walk and
        // the word kernel give every hyper-cell the same `in_both`.
        for fw in [framework(), weighted_framework(), dense_framework()] {
            let hcs = fw.hypercells();
            let k = 70;
            let mut acc = GroupSet::new(&fw, k);
            let mut held: Vec<Vec<usize>> = vec![Vec::new(); k];
            let mut rng = StdRng::seed_from_u64(21);
            let (mut walked, mut counted) = (Vec::new(), Vec::new());
            for _ in 0..600 {
                let (g, h) = (rng.gen_range(0..k), rng.gen_range(0..hcs.len()));
                match held[g].iter().position(|&c| c == h) {
                    Some(at) if rng.gen_bool(0.5) => {
                        held[g].swap_remove(at);
                        acc.remove(g, &hcs[h]);
                    }
                    _ => {
                        held[g].push(h);
                        acc.add(g, &hcs[h]);
                    }
                }
                assert!(acc.is_consistent(hcs));
                let mut union = BitSet::new(fw.num_subscribers());
                for &c in &held[g] {
                    union.union_with(&hcs[c].members);
                }
                assert_eq!(acc.members(g), union, "group {g}");
                assert_eq!(acc.num_cells(g), held[g].len());
                if fw.weights_ref().is_none() {
                    for hc in hcs {
                        let size = acc.in_both_by_walk(hc, &mut walked);
                        acc.in_both_by_words(hc, &mut counted);
                        assert_eq!(walked, counted);
                        assert_eq!(size, hc.members.count() as u64);
                    }
                }
            }
            assert!(held.iter().any(|cells| cells.len() > 1));
        }
    }

    /// Rows priced by the kernels stay exact through random moves,
    /// patched flip by flip, until a pass's patches outrun the budget;
    /// the rows are stale from then on, and a pass that prices every
    /// hyper-cell and moves nothing makes them exact again.
    #[test]
    fn rows_follow_moves_until_the_budget_runs_out() {
        let mut ran_out = 0;
        for fw in [framework(), dense_framework()] {
            let hcs = fw.hypercells();
            let k = 3;
            let mut assignment: Vec<usize> = (0..hcs.len()).map(|h| h % k).collect();
            let mut groups = GroupSet::seeded(&fw, k, &assignment);
            groups.price_rows(hcs);
            let mut rng = StdRng::seed_from_u64(8);
            groups.begin_pass();
            for _ in 0..400 {
                let (h, to) = (rng.gen_range(0..hcs.len()), rng.gen_range(0..k));
                if to == assignment[h] || groups.num_cells(assignment[h]) == 1 {
                    continue;
                }
                groups.relocate(hcs, h, assignment[h], to);
                assignment[h] = to;
                if !groups.exact {
                    assert!(groups.spent > groups.budget);
                    ran_out += 1;
                    break;
                }
                assert!(groups.is_consistent(hcs));
            }
            groups.end_pass(hcs);
            if !groups.exact {
                groups.begin_pass();
                let mut scratch = Vec::new();
                for (h, hc) in hcs.iter().enumerate() {
                    groups.closest_at(h, hc, hc.members.count(), &mut scratch);
                }
                groups.end_pass(hcs);
            }
            assert!(groups.exact && groups.is_consistent(hcs));
            let mut fresh = GroupSet::seeded(&fw, k, &assignment);
            fresh.price_rows(hcs);
            assert_eq!(groups.rows, fresh.rows);
        }
        assert_eq!(ran_out, 1, "only the dense population runs out");
    }

    /// 129 random intervals on a 40-cell line: three subscriber words
    /// and large hyper-cells, which the word kernel prices.
    fn dense_framework() -> GridFramework {
        let grid = Grid::cube(0.0, 40.0, 1, 40).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let subs: Vec<Rect> = (0..129)
            .map(|_| {
                let lo = rng.gen_range(0..30);
                rect1(lo as f64, rng.gen_range(lo + 1..=40) as f64)
            })
            .collect();
        let probs = CellProbability::uniform(&grid);
        GridFramework::build(grid, &subs, &probs, None)
    }

    /// Duplicated rectangles: class weights 3, 1 and 2.
    fn weighted_framework() -> GridFramework {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let subs = vec![
            rect1(0.0, 7.0),
            rect1(0.0, 7.0),
            rect1(0.0, 7.0),
            rect1(0.0, 4.0),
            rect1(7.0, 10.0),
            rect1(7.0, 10.0),
        ];
        let probs = CellProbability::uniform(&grid);
        crate::Aggregation::build(&subs).build_framework(grid, &probs, None)
    }

    #[test]
    fn accumulator_distance_matches_expected_waste() {
        let fw = framework();
        let hcs = fw.hypercells();
        // Group 65 sits in the second mask word; the rest stay empty.
        let mut acc = GroupSet::new(&fw, 66);
        acc.add(65, &hcs[0]);
        let d = acc.distance_to(65, &hcs[1]);
        // Bit-for-bit, in either argument order: this is what lets
        // K-means price against group vectors, and MST and outlier
        // removal call `expected_waste` in whatever order they meet a
        // pair, without changing a decision.
        let ab = expected_waste(hcs[1].prob, &hcs[1].members, hcs[0].prob, &hcs[0].members);
        let ba = expected_waste(hcs[0].prob, &hcs[0].members, hcs[1].prob, &hcs[1].members);
        assert_eq!(d.to_bits(), ab.to_bits(), "{d} vs {ab}");
        assert_eq!(d.to_bits(), ba.to_bits(), "{d} vs {ba}");

        // The same pin for a weighted accumulator over a class-universe
        // framework — what aggregated cold K-means now relies on.
        let fw = weighted_framework();
        let w = fw.weights_ref().expect("class-universe framework");
        assert!(w.iter().any(|&x| x > 1), "weights must matter: {w:?}");
        let hcs = fw.hypercells();
        assert_eq!(hcs.len(), 3);
        for (s, h) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            let mut acc = GroupSet::new(&fw, 2);
            acc.add(1, &hcs[s]);
            let d = acc.distance_to(1, &hcs[h]);
            let (a, b) = (&hcs[h], &hcs[s]);
            let ab = expected_waste_weighted(a.prob, &a.members, b.prob, &b.members, w);
            let ba = expected_waste_weighted(b.prob, &b.members, a.prob, &a.members, w);
            assert_eq!(d.to_bits(), ab.to_bits(), "({s},{h}): {d} vs {ab}");
            assert_eq!(d.to_bits(), ba.to_bits(), "({s},{h}): {d} vs {ba}");
            assert!(d > 0.0, "({s},{h}) must disagree somewhere");
            // An empty group costs the cell's whole weighted size times
            // a zero mass: exactly 0, and `closest` prefers it.
            assert_eq!(acc.distance_to(0, &hcs[h]), 0.0);
            let size = hcs[h].members.count();
            assert_eq!(acc.closest(&hcs[h], size, &mut vec![7; 9]), 0);
        }
    }

    /// Subscriber `m` on cell `m` of a 10-cell line, for `m` in `0..9`:
    /// each hyper-cell holds one subscriber, and a hyper-cell's distance
    /// to a group it shares nothing with is `0.1·|group| + p(group)`, so
    /// groups of equal size and mass tie.
    fn singles() -> GridFramework {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let subs: Vec<Rect> = (0..9).map(|m| rect1(m as f64, m as f64 + 1.0)).collect();
        let probs = CellProbability::uniform(&grid);
        GridFramework::build(grid, &subs, &probs, None)
    }

    /// The hyper-cell of `singles()` that holds subscriber `m`.
    fn cell_of(fw: &GridFramework, m: usize) -> usize {
        let holds = |hc: &HyperCell| hc.members.contains(m);
        fw.hypercells().iter().position(holds).expect("a kept cell")
    }

    /// The groups of `singles()` given by subscriber, exact rows priced,
    /// and every hyper-cell's memo written by one pricing.
    fn memoised(fw: &GridFramework, groups: &[&[usize]]) -> (GroupSet, Vec<usize>) {
        let hcs = fw.hypercells();
        let group_of = |hc: &HyperCell| {
            let m = hc.members.iter().next().expect("one subscriber");
            groups
                .iter()
                .position(|g| g.contains(&m))
                .expect("every subscriber grouped")
        };
        let assignment: Vec<usize> = hcs.iter().map(group_of).collect();
        let mut set = GroupSet::seeded(fw, groups.len(), &assignment);
        set.price_rows(hcs);
        set.begin_pass();
        for h in 0..hcs.len() {
            priced(&mut set, hcs, h);
        }
        (set, assignment)
    }

    /// What the memo of hyper-cell `h` answers now, `None` for a full
    /// scan.
    fn by_memo(set: &GroupSet, hcs: &[HyperCell], h: usize) -> Option<(usize, f64)> {
        let (k, hc) = (set.num_groups(), &hcs[h]);
        let row = &set.rows[h * k..(h + 1) * k];
        let memo = set.memo[h].expect("a memo");
        set.nearest_since(memo, hc.prob, hc.members.count() as u64, row)
    }

    /// `closest_at` for hyper-cell `h` on exact rows, asserted equal to a
    /// full scan of its row.
    fn priced(set: &mut GroupSet, hcs: &[HyperCell], h: usize) -> usize {
        assert!(set.exact);
        let (k, size) = (set.num_groups(), hcs[h].members.count());
        let full = set.nearest(hcs[h].prob, size as u64, &set.rows[h * k..(h + 1) * k]);
        let got = set.closest_at(h, &hcs[h], size, &mut Vec::new());
        assert_eq!(got, full.0, "hyper-cell {h}");
        got
    }

    /// Moves the hyper-cell of subscriber `m` from group `from` to `to`,
    /// with a pass's patch budget of its own.
    fn shift_one(set: &mut GroupSet, fw: &GridFramework, m: usize, from: usize, to: usize) {
        set.spent = 0;
        set.relocate(fw.hypercells(), cell_of(fw, m), from, to);
        assert!(set.exact, "one move stays within the patch budget");
    }

    /// A logged group that comes to tie the memo's distance wins at a
    /// lower id and loses at a higher one, as in the full scan's strict
    /// `<` over ascending ids.
    #[test]
    fn a_logged_group_that_ties_the_memo_wins_only_at_a_lower_id() {
        let fw = singles();
        let (hcs, h) = (fw.hypercells(), cell_of(&fw, 3));
        let tie = |set: &GroupSet| set.distance_to(0, &hcs[h]) == set.distance_to(1, &hcs[h]);

        // Lower: group 1 = {2} is nearest (0.2); group 0 = {0, 1} gives
        // subscriber 1 away and ties it.
        let (mut set, _) = memoised(&fw, &[&[0, 1], &[2], &[3, 4, 5, 6, 7, 8]]);
        assert_eq!(set.memo[h].map(|m| m.group), Some(1));
        shift_one(&mut set, &fw, 1, 0, 2);
        assert!(tie(&set));
        assert_eq!(by_memo(&set, hcs, h).map(|b| b.0), Some(0));
        assert_eq!(priced(&mut set, hcs, h), 0);

        // Higher: group 0 = {0} is nearest; group 1 = {1, 2} gives
        // subscriber 2 away and ties it.
        let (mut set, _) = memoised(&fw, &[&[0], &[1, 2], &[3, 4, 5, 6, 7, 8]]);
        assert_eq!(set.memo[h].map(|m| m.group), Some(0));
        shift_one(&mut set, &fw, 2, 1, 2);
        assert!(tie(&set));
        assert_eq!(by_memo(&set, hcs, h).map(|b| b.0), Some(0));
        assert_eq!(priced(&mut set, hcs, h), 0);
    }

    /// A memo whose own group got farther away answers nothing: the
    /// nearest group may be one the log does not name.
    #[test]
    fn a_memo_whose_group_got_farther_takes_the_full_scan() {
        let fw = singles();
        let (hcs, h) = (fw.hypercells(), cell_of(&fw, 3));
        // Groups 1 = {2} and 2 = {3, 4, 5} tie at 0.2, group 1 first.
        let (mut set, _) = memoised(&fw, &[&[0, 1, 7], &[2], &[3, 4, 5], &[6, 8]]);
        assert_eq!(set.memo[h].map(|m| m.group), Some(1));
        // Group 1 takes subscriber 0 (0.4), group 0 stays far (0.4):
        // unlogged group 2 is nearest now.
        shift_one(&mut set, &fw, 0, 0, 1);
        assert_eq!(by_memo(&set, hcs, h), None);
        assert_eq!(priced(&mut set, hcs, h), 2);
    }

    /// The end-of-run re-sum moves a mass the last pricing read: a group
    /// patched to `0.1 + 0.1 + 0.1 − 0.1 − 0.1` re-sums to `0.1` from
    /// `0.10000000000000003`, which brings it level with the memo's group
    /// at a lower id.
    #[test]
    fn a_mass_the_end_of_run_resum_changes_is_logged() {
        let fw = singles();
        let (hcs, h) = (fw.hypercells(), cell_of(&fw, 3));
        let (mut set, mut assignment) = memoised(&fw, &[&[0, 4, 5], &[1], &[2, 3, 6, 7, 8]]);
        for (m, from, to) in [(4, 0, 2), (5, 0, 2)] {
            shift_one(&mut set, &fw, m, from, to);
            assignment[cell_of(&fw, m)] = to;
        }
        assert_eq!(set.prob[0], 0.10000000000000003);
        assert!(set.distance_to(0, &hcs[h]) > set.distance_to(1, &hcs[h]));
        assert_eq!(priced(&mut set, hcs, h), 1);

        set.resum(hcs, &assignment);
        assert_eq!(set.prob[0], 0.1);
        assert_eq!(set.distance_to(0, &hcs[h]), set.distance_to(1, &hcs[h]));
        assert_eq!(by_memo(&set, hcs, h).map(|b| b.0), Some(0));
        assert_eq!(priced(&mut set, hcs, h), 0);
    }

    /// More than `K` entries logged since a memo: the full scan prices
    /// it, and the next pass drops the log's older entries with every
    /// memo they outran.
    #[test]
    fn a_log_longer_than_k_takes_the_full_scan_and_is_trimmed() {
        let fw = singles();
        let hcs = fw.hypercells();
        let (h, stale) = (cell_of(&fw, 3), cell_of(&fw, 5));
        let (mut set, _) = memoised(&fw, &[&[0, 1], &[2], &[3, 4, 5, 6, 7, 8]]);
        let k = set.num_groups();
        shift_one(&mut set, &fw, 1, 0, 1);
        shift_one(&mut set, &fw, 1, 1, 0);
        assert!(set.log.len() > k);
        assert_eq!(by_memo(&set, hcs, h), None);
        assert_eq!(priced(&mut set, hcs, h), 1);
        set.begin_pass();
        assert_eq!(set.log.len(), k);
        assert!(set.memo[stale].is_none(), "a memo the log outran goes");
        assert_eq!(set.memo[h].map(|m| m.at), Some(k));
        assert_eq!(by_memo(&set, hcs, h).map(|b| b.0), Some(1));
        assert_eq!(priced(&mut set, hcs, h), 1);
    }

    /// A memo carried through `rebase` beside a changed hyper-cell: the
    /// changed one loses its memo, the unchanged one keeps it, and the
    /// groups the delta changed — a vector, with no mass change — are
    /// logged, so every pricing after the swap equals a full scan and a
    /// set built from scratch.
    #[test]
    fn a_memo_carried_through_rebase_sees_the_groups_the_delta_changed() {
        let mut fw = singles();
        let old_fw = fw.clone();
        let h = cell_of(&fw, 3);
        // Groups 1 = {1} and 2 = {3, 4, 5} tie at 0.2, group 1 first.
        let (mut set, assignment) = memoised(&fw, &[&[0, 7], &[1], &[3, 4, 5], &[2, 6, 8]]);
        assert_eq!(set.memo[h].map(|m| m.group), Some(1));
        let old = Clustering::from_assignment(&old_fw, assignment.clone());

        // Subscriber 0 widens onto cell 1: that hyper-cell changes and
        // group 1's vector grows to {0, 1}, its mass unchanged (0.3 from
        // subscriber 3 now), so unlogged group 2 is nearest.
        let probs = CellProbability::uniform(fw.grid());
        let report = fw.apply_delta(&[(0, rect1(0.0, 2.0))], &[(0, rect1(0.0, 1.0))], &probs, 9);
        let hcs = fw.hypercells();
        let seed: Vec<usize> = hcs
            .iter()
            .map(|hc| assignment[old_fw.hyper_of_cell(hc.cells[0]).expect("an old cell")])
            .collect();
        let moved = |h: usize| report.old_index.iter().position(|&oh| oh == Some(h));
        set.rebase(&fw, &report, &old, &seed);
        let (h, changed) = (moved(h).expect("unchanged"), cell_of(&fw, 1));
        assert!(report.old_index[changed].is_none() && set.memo[changed].is_none());
        assert!(set.memo[h].is_some());

        let mut fresh = GroupSet::seeded(&fw, 4, &seed);
        fresh.price_rows(hcs);
        assert!(set.same_as(&fresh));
        set.begin_pass();
        assert_eq!(by_memo(&set, hcs, h), None);
        for h in 0..hcs.len() {
            let scratch = &mut Vec::new();
            let expected = fresh.closest(&hcs[h], hcs[h].members.count(), scratch);
            assert_eq!(priced(&mut set, hcs, h), expected, "hyper-cell {h}");
        }
        assert_eq!(priced(&mut set, hcs, h), 2);
    }
}
