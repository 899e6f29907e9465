//! Shared clustering types: groups, clusterings, the algorithm trait and
//! the incremental group set the iterative algorithms use.

use std::sync::Arc;

use geometry::Point;

use crate::framework::{GridFramework, HyperCell};
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
/// probability masses the expected-waste distance needs; and the
/// membership itself twice over, one copy per pricing kernel — each
/// group's membership vector, and transposed, each subscriber's *set of
/// groups*.
#[derive(Debug)]
pub(crate) struct GroupSet {
    /// `counts[g][m]`: how many of group `g`'s hyper-cells contain
    /// subscriber `m`.
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
}

fn weight_of(weights: &Option<Arc<Vec<u64>>>, m: usize) -> u64 {
    weights.as_ref().map_or(1, |w| w[m])
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
        }
    }

    pub(crate) fn add(&mut self, g: usize, hc: &HyperCell) {
        let counts = &mut self.counts[g];
        for m in hc.members.iter() {
            if counts[m] == 0 {
                self.size[g] += weight_of(&self.weights, m);
                self.vectors[g].insert(m);
                self.links += 1;
                self.mask[m * self.words + g / 64] |= 1 << (g % 64);
            }
            counts[m] += 1;
        }
        self.num_cells[g] += 1;
        self.prob[g] += hc.prob;
    }

    pub(crate) fn remove(&mut self, g: usize, hc: &HyperCell) {
        let counts = &mut self.counts[g];
        for m in hc.members.iter() {
            debug_assert!(counts[m] > 0, "removing a cell that was never added");
            counts[m] -= 1;
            if counts[m] == 0 {
                self.size[g] -= weight_of(&self.weights, m);
                self.vectors[g].remove(m);
                self.links -= 1;
                self.mask[m * self.words + g / 64] &= !(1 << (g % 64));
            }
        }
        self.num_cells[g] -= 1;
        self.prob[g] -= hc.prob;
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
        let n = hc.members.universe() as u128;
        let word_steps = self.num_groups() as u128 * n.div_ceil(64) * n;
        let walk_steps = cell_size as u128 * (n + self.links as u128);
        self.weights.is_none() && word_steps < walk_steps
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

    /// Expected-waste distance between `hc` and every group, in group
    /// order: `p(hc)·|group \ hc| + p(group)·|hc \ group|`, with set
    /// sizes weighted by the per-slot multiplicities when present. The
    /// weighted integers equal the concrete counts, so each `f64` is
    /// bit-identical to the expanded computation. Both set differences
    /// come from `in_both[g] = |hc ∩ group g|`, which the cheaper of two
    /// exact kernels fills for all `K` groups at once (see
    /// [`prices_by_words`](Self::prices_by_words)): one walk of
    /// `hc.members`, `O(|hc|·(1 + links/n))`, on a sparse population;
    /// one AND-popcount per group, `O(K·n/64)`, on a dense one.
    /// `cell_size` is `|hc.members|`, counted once by the caller.
    fn distances<'a>(
        &'a self,
        hc: &'a HyperCell,
        cell_size: usize,
        in_both: &'a mut Vec<u64>,
    ) -> impl Iterator<Item = f64> + 'a {
        let cell_size = if self.prices_by_words(hc, cell_size) {
            self.in_both_by_words(hc, in_both);
            cell_size as u64
        } else {
            self.in_both_by_walk(hc, in_both)
        };
        let groups = self.size.iter().zip(&self.prob).zip(&*in_both);
        groups.map(move |((&size, &prob), &both)| {
            let only_group = size - both;
            let only_cell = cell_size - both;
            hc.prob * only_group as f64 + prob * only_cell as f64
        })
    }

    /// Index of the group with minimal expected-waste distance to `hc`
    /// (ties go to the lower index, deterministically). `cell_size` is
    /// `|hc.members|`, which the caller counts once per hyper-cell so
    /// the kernel choice costs no pass over `hc` of its own. `scratch`
    /// is the caller's reusable `in_both` buffer; its contents are
    /// ignored.
    pub(crate) fn closest(
        &self,
        hc: &HyperCell,
        cell_size: usize,
        scratch: &mut Vec<u64>,
    ) -> usize {
        let mut best = (0usize, f64::INFINITY);
        for (g, d) in self.distances(hc, cell_size, scratch).enumerate() {
            if d < best.1 {
                best = (g, d);
            }
        }
        best.0
    }

    /// Whether every mask bit and every group-vector bit agrees with
    /// its count, `links` is the number of set group-vector bits, and
    /// every size is the weighted popcount. `O(n·K)`: for
    /// `debug_assert!` and tests.
    pub(crate) fn is_consistent(&self) -> bool {
        let links: usize = self.vectors.iter().map(BitSet::count).sum();
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
    }
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
            let d = self
                .distances(hc, hc.members.count(), &mut Vec::new())
                .nth(g);
            d.expect("group in range")
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
        assert!(acc.is_consistent());

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
                assert!(acc.is_consistent());
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
}
