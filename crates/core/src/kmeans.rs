//! K-means subscription clustering (Section 4.2 of the paper).
//!
//! Both variants follow Figure 1 of the paper:
//!
//! 0. the `K` hyper-cells with the highest popularity rating seed the
//!    groups; every other hyper-cell is assigned to the closest group by
//!    the expected-waste distance;
//! 1. each hyper-cell is re-examined and moved to its closest group;
//! 2. repeat until no cell moves (or the iteration cap).
//!
//! The **MacQueen** variant updates a group's membership vector each
//! time a hyper-cell moves; the **Forgy** variant computes a whole pass
//! of re-assignments against a snapshot of the vectors and applies the
//! updates only after the pass. A hyper-cell never leaves a group it is
//! the last member of.
//!
//! Every distance is taken against the `K` group vectors, never the
//! `O(l²)` pairwise [`crate::DistanceMatrix`]. [`GroupSet`] forms it
//! from `|hyper-cell ∩ group|`, which comes one of two ways:
//!
//! - from the hyper-cell's *row*, `K` counts kept exact across moves: a
//!   move flips a few (subscriber, group) bits, and each of the two
//!   groups' columns takes the flipped subscribers each row holds;
//! - where the rows are stale or absent, from the cheaper of two exact
//!   kernels: a walk of the hyper-cell's members through each
//!   subscriber's set of groups, `O(|members|·(1 + groups-per-subscriber))`,
//!   on a sparse population; one AND-popcount of the hyper-cell's vector
//!   against each group's, `O(K·n/64)`, on a dense one.
//!
//! Figure 1 counts `l·K` distances per pass; with exact rows a pass
//! prices fewer. Each pricing leaves a *memo* — the nearest group and
//! its distance — and the set logs every group whose size, mass or
//! column changes. A memoised hyper-cell re-prices only the groups
//! logged since, unless its own group got farther or the log outran
//! `K` entries; then it takes all `K`. A pass that only confirms a
//! converged clustering thus prices the few groups the last moves
//! touched.
//!
//! Cold [`cluster`](ClusteringAlgorithm::cluster) prices by the kernels
//! throughout and keeps no memo. The group set [`KMeans::cluster_seeded`]
//! and a full rebuild build from scratch prices by the kernels too,
//! writing each row and memo it prices, until a pass moves nothing,
//! which leaves every row exact. The incremental rebalance of [`crate::DynamicClustering`]
//! carries that group set, memos and log with it, to the next swap and
//! patches it across the delta ([`GroupSet::rebase`]), so a warm swap's
//! passes read rows and memos. Either way the integers, hence every
//! distance and decision, are the same.

use crate::clustering::{Clustering, ClusteringAlgorithm, GroupSet};
use crate::framework::{GridFramework, HyperCell};
use crate::parallel;

/// Which centroid-update discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansVariant {
    /// Update the moved-to/moved-from groups immediately (MacQueen).
    MacQueen,
    /// Update all groups only at the end of each full pass (Forgy).
    Forgy,
}

/// The K-means clustering algorithm.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{
///     CellProbability, ClusteringAlgorithm, GridFramework, KMeans, KMeansVariant,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 4.0)?]),
///     Rect::new(vec![Interval::new(1.0, 5.0)?]),
///     Rect::new(vec![Interval::new(7.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 2);
/// assert!(clustering.num_groups() <= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    variant: KMeansVariant,
    max_iterations: usize,
}

impl KMeans {
    /// Creates the algorithm with the paper's default cap of 100
    /// iterations ("usually the number of actual iterations was less
    /// than 20").
    pub fn new(variant: KMeansVariant) -> Self {
        KMeans {
            variant,
            max_iterations: 100,
        }
    }

    /// Runs the re-assignment passes from a caller-supplied initial
    /// partition instead of the popularity seeding — the warm start
    /// used when subscriptions change and the previous clustering is
    /// still approximately right (Section 4.2: "an easy way to
    /// accommodate changes in cell membership, simply running a number
    /// of re-balancing iterations").
    ///
    /// `initial[h]` is the starting group of hyper-cell `h`; group ids
    /// must be `< k`. Returns the clustering and the number of moves
    /// performed across all passes (a convergence diagnostic: a warm
    /// start should need far fewer moves than a cold one).
    ///
    /// The passes are MacQueen's whichever variant `self` was built
    /// with (each move updates the group vectors at once), and like the
    /// cold [`cluster`](ClusteringAlgorithm::cluster) they cost at most
    /// `l·K` distances each and never build the `O(l²)` pairwise matrix.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the hyper-cell count or
    /// any group id is `>= k` — where, as in the cold entry, a `k` above
    /// the hyper-cell count `l` counts as `l`, so ids in `l..k` panic too.
    pub fn cluster_seeded(
        &self,
        framework: &GridFramework,
        k: usize,
        initial: &[usize],
    ) -> (Clustering, usize) {
        let l = framework.hypercells().len();
        assert_eq!(initial.len(), l, "one seed group per hyper-cell");
        let cap = k.max(1).min(l);
        for &g in initial {
            assert!(g < cap, "seed group {g} out of range: k = {k}, cap {cap}");
        }
        let groups = GroupSet::seeded(framework, cap, initial);
        let (clustering, moves, _) = self.rebalance_groups(framework, groups, initial.to_vec());
        (clustering, moves)
    }

    /// The passes of [`cluster_seeded`](Self::cluster_seeded) from
    /// `groups`, the group set of `assignment` over `framework`, built
    /// from scratch or carried across a delta
    /// ([`GroupSet::rebase`]). Returns the clustering, the moves, and
    /// the group set of the clustering with its masses re-summed, which
    /// equals one built from scratch from the final assignment.
    pub(crate) fn rebalance_groups(
        &self,
        framework: &GridFramework,
        mut groups: GroupSet,
        mut assignment: Vec<usize>,
    ) -> (Clustering, usize, GroupSet) {
        let hcs = framework.hypercells();
        let sizes = cell_sizes(hcs);
        let moves = self.reassign(
            KMeansVariant::MacQueen,
            hcs,
            &sizes,
            &mut groups,
            &mut assignment,
        );
        groups.resum(hcs, &assignment);
        (
            Clustering::from_assignment(framework, assignment),
            moves,
            groups,
        )
    }

    /// Steps 1-2 of Figure 1, shared by the cold and the warm entry:
    /// re-assignment passes under `variant` until no hyper-cell moves
    /// or the iteration cap is reached. Returns the number of moves.
    /// `sizes` is [`cell_sizes`] of `hcs`.
    fn reassign(
        &self,
        variant: KMeansVariant,
        hcs: &[HyperCell],
        sizes: &[usize],
        groups: &mut GroupSet,
        assignment: &mut [usize],
    ) -> usize {
        let l = hcs.len();
        let mut total_moves = 0usize;
        let mut scratch = Vec::new();
        for _ in 0..self.max_iterations {
            let before = total_moves;
            groups.begin_pass();
            match variant {
                KMeansVariant::MacQueen => {
                    // Each move updates the vectors the next hyper-cell
                    // sees, so this pass is inherently sequential.
                    for h in 0..l {
                        let cur = assignment[h];
                        if groups.num_cells(cur) == 1 {
                            groups.skip(h); // never empty a group
                            continue;
                        }
                        let best = groups.closest_at(h, &hcs[h], sizes[h], &mut scratch);
                        if best != cur {
                            groups.relocate(hcs, h, cur, best);
                            assignment[h] = best;
                            total_moves += 1;
                        }
                    }
                    groups.end_pass(hcs);
                }
                KMeansVariant::Forgy => {
                    // All distances are evaluated against the pre-pass
                    // vectors, so every hyper-cell's closest group is
                    // independent and the scan runs in parallel. `groups`
                    // is not mutated until the apply loop below, which
                    // makes it the frozen snapshot — no clone needed. The
                    // chunking (one scratch each) is invisible in the output.
                    let best_of = parallel::par_chunks(l, 64, |range| {
                        let mut scratch = Vec::new();
                        let closest = |h: usize| groups.closest(&hcs[h], sizes[h], &mut scratch);
                        range.map(closest).collect::<Vec<usize>>()
                    });
                    let mut pending: Vec<(usize, usize)> = Vec::new();
                    let mut leaving = vec![0usize; groups.num_groups()];
                    for (h, &best) in best_of.iter().flatten().enumerate() {
                        let cur = assignment[h];
                        if best != cur && groups.num_cells(cur) > leaving[cur] + 1 {
                            pending.push((h, best));
                            leaving[cur] += 1;
                        }
                    }
                    // ...applied only after the pass.
                    for (h, best) in pending {
                        groups.relocate(hcs, h, assignment[h], best);
                        assignment[h] = best;
                        total_moves += 1;
                    }
                }
            }
            if total_moves == before {
                break;
            }
        }
        debug_assert!(groups.is_consistent(hcs), "group state drifted from counts");
        total_moves
    }
}

/// `|members|` of each hyper-cell, counted once per clustering call:
/// [`GroupSet::closest`] reads it to choose its pricing kernel on every
/// pass, and a row-priced distance reads it as the cell size.
fn cell_sizes(hcs: &[HyperCell]) -> Vec<usize> {
    hcs.iter().map(|hc| hc.members.count()).collect()
}

impl ClusteringAlgorithm for KMeans {
    fn name(&self) -> &'static str {
        match self.variant {
            KMeansVariant::MacQueen => "kmeans",
            KMeansVariant::Forgy => "forgy",
        }
    }

    fn cluster(&self, framework: &GridFramework, k: usize) -> Clustering {
        let hcs = framework.hypercells();
        let l = hcs.len();
        let k = k.max(1).min(l);

        // Step 0: the K most popular hyper-cells seed the groups
        // (hyper-cells are already sorted by popularity); each of the
        // rest joins its closest group, updating the vectors as we go —
        // the initial partition of both variants.
        let mut groups = GroupSet::new(framework, k);
        let mut assignment = Vec::with_capacity(l);
        let mut scratch = Vec::new();
        let sizes = cell_sizes(hcs);
        for (h, hc) in hcs.iter().enumerate() {
            let g = if h < k {
                h
            } else {
                groups.closest(hc, sizes[h], &mut scratch)
            };
            groups.add(g, hc);
            assignment.push(g);
        }

        self.reassign(self.variant, hcs, &sizes, &mut groups, &mut assignment);
        Clustering::from_assignment(framework, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::CellProbability;
    use geometry::{Grid, Interval, Rect};

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi).unwrap()])
    }

    /// Two clearly separated interest communities on a 1-D grid.
    fn two_communities() -> GridFramework {
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut subs = Vec::new();
        // Community A: 5 subscribers around (0, 8].
        for i in 0..5 {
            subs.push(rect1(i as f64 * 0.5, 8.0 - i as f64 * 0.5));
        }
        // Community B: 5 subscribers around (12, 20].
        for i in 0..5 {
            subs.push(rect1(12.0 + i as f64 * 0.5, 20.0 - i as f64 * 0.5));
        }
        let probs = CellProbability::uniform(&grid);
        GridFramework::build(grid, &subs, &probs, None)
    }

    #[test]
    fn separates_two_communities() {
        let fw = two_communities();
        for variant in [KMeansVariant::MacQueen, KMeansVariant::Forgy] {
            let c = KMeans::new(variant).cluster(&fw, 2);
            assert_eq!(c.num_groups(), 2, "{variant:?}");
            // No group should mix subscribers from both communities:
            // each group's members must be entirely < 5 or >= 5.
            for g in c.groups() {
                let low = g.members.iter().filter(|&m| m < 5).count();
                let high = g.members.iter().filter(|&m| m >= 5).count();
                assert!(
                    low == 0 || high == 0,
                    "{variant:?} mixed group: {low} low + {high} high"
                );
            }
        }
    }

    #[test]
    fn k_one_puts_everything_in_one_group() {
        let fw = two_communities();
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 1);
        assert_eq!(c.num_groups(), 1);
        assert_eq!(c.groups()[0].hypercells.len(), fw.hypercells().len());
    }

    #[test]
    fn k_larger_than_cells_caps_at_cell_count() {
        let fw = two_communities();
        let l = fw.hypercells().len();
        let c = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 10 * l);
        assert!(c.num_groups() <= l);
        // With k = l every hyper-cell can be its own group: zero waste.
        assert_eq!(c.total_expected_waste(&fw), 0.0);
    }

    #[test]
    fn seeded_k_larger_than_cells_caps_at_cell_count() {
        let fw = two_communities();
        let l = fw.hypercells().len();
        let km = KMeans::new(KMeansVariant::MacQueen);
        // Seeds below the cap: k = 10·l is k = l, every hyper-cell its
        // own group, so nothing may move and nothing is wasted.
        let seed: Vec<usize> = (0..l).rev().collect();
        let (c, moves) = km.cluster_seeded(&fw, 10 * l, &seed);
        assert_eq!((c.num_groups(), moves), (l, 0));
        assert_eq!(c.total_expected_waste(&fw), 0.0);
        // A shared seed group behaves as at k = l, too.
        let seed: Vec<usize> = (0..l).map(|h| h % 2).collect();
        let (got, want) = (
            km.cluster_seeded(&fw, 10 * l, &seed),
            km.cluster_seeded(&fw, l, &seed),
        );
        assert_eq!(assignment_of(&got.0, l), assignment_of(&want.0, l));
        assert_eq!(got.1, want.1);
    }

    #[test]
    #[should_panic(expected = "seed group 6 out of range: k = 60, cap 6")]
    fn seeded_names_both_numbers_when_a_seed_is_above_the_cap() {
        let fw = two_communities();
        let l = fw.hypercells().len();
        assert_eq!(l, 6, "the expected message names l");
        // Legal for the caller's k, out of range once k is capped at l.
        KMeans::new(KMeansVariant::MacQueen).cluster_seeded(&fw, 10 * l, &vec![l; l]);
    }

    #[test]
    fn empty_framework() {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &[], &probs, None);
        // No hyper-cells caps K at zero groups: nothing to seed, scan or
        // move on any entry.
        for variant in [KMeansVariant::MacQueen, KMeansVariant::Forgy] {
            let km = KMeans::new(variant);
            assert_eq!(km.cluster(&fw, 3).num_groups(), 0);
            let (c, moves) = km.cluster_seeded(&fw, 3, &[]);
            assert_eq!((c.num_groups(), moves), (0, 0));
        }
    }

    #[test]
    fn more_groups_do_not_increase_waste() {
        let fw = two_communities();
        let km = KMeans::new(KMeansVariant::Forgy);
        let mut prev = f64::INFINITY;
        for k in [1, 2, 4, 8] {
            let w = km.cluster(&fw, k).total_expected_waste(&fw);
            // K-means is a heuristic, so allow small non-monotonicity,
            // but the broad trend must hold from K=1 to K=8.
            assert!(
                w <= prev + 1e-9 || k < 8,
                "waste went {prev} -> {w} at k={k}"
            );
            prev = w;
        }
        assert!(
            km.cluster(&fw, 8).total_expected_waste(&fw)
                <= km.cluster(&fw, 1).total_expected_waste(&fw)
        );
    }

    #[test]
    fn zero_iterations_still_yields_feasible_partition() {
        let fw = two_communities();
        // The paper: processing "can be stopped after any iteration,
        // resulting in a feasible partition".
        let c = KMeans {
            variant: KMeansVariant::MacQueen,
            max_iterations: 0,
        }
        .cluster(&fw, 3);
        assert!(c.num_groups() <= 3);
        assert!(!c.groups().is_empty());
        // Every hyper-cell is assigned somewhere.
        let total: usize = c.groups().iter().map(|g| g.hypercells.len()).sum();
        assert_eq!(total, fw.hypercells().len());
    }

    /// Iteration cap shared by the runs under test and the brute force.
    const PASSES: usize = 100;

    /// Group state of the brute force: plain cell lists, the group mass
    /// accumulated in the same add/remove order as the accumulators.
    struct Brute<'a> {
        fw: &'a GridFramework,
        cells: Vec<Vec<usize>>,
        prob: Vec<f64>,
        assignment: Vec<usize>,
    }

    impl Brute<'_> {
        /// The closest group the slow way: a plain [`expected_waste`]
        /// (its weighted form on a class-universe framework) between the
        /// hyper-cell and each group's materialized union.
        fn closest(&self, h: usize) -> usize {
            use crate::membership::BitSet;
            use crate::waste::{expected_waste, expected_waste_weighted};
            let hcs = self.fw.hypercells();
            let (pa, a) = (hcs[h].prob, &hcs[h].members);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (g, cells) in self.cells.iter().enumerate() {
                let mut union = BitSet::new(self.fw.num_subscribers());
                for &c in cells {
                    union.union_with(&hcs[c].members);
                }
                let d = match self.fw.weights_ref() {
                    None => expected_waste(pa, a, self.prob[g], &union),
                    Some(w) => expected_waste_weighted(pa, a, self.prob[g], &union, w),
                };
                if d < best_d {
                    best_d = d;
                    best = g;
                }
            }
            best
        }

        /// Puts `h` into group `g`, taking it out of its current group
        /// first if it has one.
        fn place(&mut self, h: usize, g: usize) {
            let p = self.fw.hypercells()[h].prob;
            let cur = self.assignment[h];
            if cur != usize::MAX {
                self.cells[cur].retain(|&c| c != h);
                self.prob[cur] -= p;
            }
            self.cells[g].push(h);
            self.prob[g] += p;
            self.assignment[h] = g;
        }
    }

    /// K-means re-done the slow way, returning the assignment and the
    /// number of moves. `initial` is `cluster_seeded`'s seed partition;
    /// `None` is the cold start of Figure 1 step 0 — the `k` most
    /// popular hyper-cells seed the groups, the rest join their closest
    /// group in order.
    fn brute_force_seeded(
        fw: &GridFramework,
        k: usize,
        variant: KMeansVariant,
        initial: Option<&[usize]>,
    ) -> (Vec<usize>, usize) {
        let l = fw.hypercells().len();
        let mut b = Brute {
            fw,
            cells: vec![Vec::new(); k],
            prob: vec![0.0; k],
            assignment: vec![usize::MAX; l],
        };
        match initial {
            Some(initial) => {
                for (h, &g) in initial.iter().enumerate() {
                    b.place(h, g);
                }
            }
            None => {
                for g in 0..k {
                    b.place(g, g);
                }
                for h in k..l {
                    b.place(h, b.closest(h));
                }
            }
        }
        let mut moves = 0usize;
        for _ in 0..PASSES {
            let before = moves;
            match variant {
                KMeansVariant::MacQueen => {
                    for h in 0..l {
                        let cur = b.assignment[h];
                        if b.cells[cur].len() == 1 {
                            continue;
                        }
                        let best = b.closest(h);
                        if best != cur {
                            b.place(h, best);
                            moves += 1;
                        }
                    }
                }
                KMeansVariant::Forgy => {
                    // Decide the whole pass against the pre-pass groups
                    // (never draining one), then apply.
                    let mut pending = Vec::new();
                    let mut leaving = vec![0usize; k];
                    for h in 0..l {
                        let cur = b.assignment[h];
                        let best = b.closest(h);
                        if best != cur && b.cells[cur].len() > leaving[cur] + 1 {
                            pending.push((h, best));
                            leaving[cur] += 1;
                        }
                    }
                    for (h, best) in pending {
                        b.place(h, best);
                        moves += 1;
                    }
                }
            }
            if moves == before {
                break;
            }
        }
        (b.assignment, moves)
    }

    /// Overlapping boxes scattered over a 2-D grid: many distinct
    /// memberships, and an initial partition the passes still improve.
    /// The weighted form repeats each box one to three times and
    /// clusters the class universe.
    fn scattered(weighted: bool) -> GridFramework {
        scattered_on(12, 18, 4, weighted)
    }

    /// [`scattered`] with `boxes` boxes of side `2..2 + spread` on a
    /// `cells × cells` grid.
    fn scattered_on(cells: usize, boxes: usize, spread: usize, weighted: bool) -> GridFramework {
        let grid = Grid::cube(0.0, cells as f64, 2, cells).unwrap();
        let probs = CellProbability::uniform(&grid);
        let side = |lo: usize, len: usize| Interval::new(lo as f64, (lo + len) as f64).unwrap();
        let boxed = |i: usize| {
            Rect::new(vec![
                side((i * 5) % (cells - 3), 2 + i % spread),
                side((i * 7) % (cells - 4), 2 + (i * 3) % (spread + 1)),
            ])
        };
        let copies = |i: usize| if weighted { 1 + i % 3 } else { 1 };
        let subs: Vec<Rect> = (0..boxes)
            .flat_map(|i| std::iter::repeat_n(boxed(i), copies(i)))
            .collect();
        if weighted {
            let fw = crate::Aggregation::build(&subs).build_framework(grid, &probs, None);
            assert!(fw.weights_ref().is_some_and(|w| w.iter().any(|&x| x > 1)));
            fw
        } else {
            GridFramework::build(grid, &subs, &probs, None)
        }
    }

    fn assignment_of(clustering: &Clustering, l: usize) -> Vec<usize> {
        (0..l).map(|h| clustering.group_of_hyper(h)).collect()
    }

    #[test]
    fn seeded_matches_brute_force_with_singleton_seed_groups() {
        // Staggered overlapping intervals: many distinct memberships.
        let grid = Grid::cube(0.0, 30.0, 1, 30).unwrap();
        let subs: Vec<Rect> = (0..14)
            .map(|i| rect1(2.0 * i as f64, 2.0 * i as f64 + 3.0 + (i % 4) as f64))
            .collect();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, None);
        let l = fw.hypercells().len();
        assert!(l >= 12, "scenario too small: {l} hyper-cells");
        let km = KMeans {
            variant: KMeansVariant::MacQueen,
            max_iterations: PASSES,
        };
        let seeds: [(usize, Vec<usize>); 2] = [
            // Every seed group a singleton.
            (l, (0..l).collect()),
            // Groups 3.. singletons, groups 0..3 share the rest.
            (
                l / 2,
                (0..l).map(|h| if h < l / 2 { h } else { h % 3 }).collect(),
            ),
        ];
        for (k, seed) in seeds {
            let (clustering, moves) = km.cluster_seeded(&fw, k, &seed);
            let (want, want_moves) =
                brute_force_seeded(&fw, k, KMeansVariant::MacQueen, Some(&seed));
            assert_eq!(moves, want_moves, "k = {k}");
            // No group is ever emptied, so group ids are not remapped.
            assert_eq!(clustering.num_groups(), k);
            assert_eq!(assignment_of(&clustering, l), want, "k = {k}");
            if k == l {
                assert_eq!(moves, 0, "a last member never leaves its group");
            } else {
                assert!(moves > 0, "the mixed seed must exercise real moves");
            }
        }
    }

    #[test]
    fn cold_matches_brute_force_and_never_builds_the_cache() {
        for weighted in [false, true] {
            let fw = scattered(weighted);
            let l = fw.hypercells().len();
            assert!(l >= 12, "scenario too small: {l} hyper-cells");
            for variant in [KMeansVariant::MacQueen, KMeansVariant::Forgy] {
                for k in [l / 4, l / 2, l] {
                    let what = format!("{variant:?}, k = {k}, weighted = {weighted}");
                    let clustering = KMeans {
                        variant,
                        max_iterations: PASSES,
                    }
                    .cluster(&fw, k);
                    let (want, moves) = brute_force_seeded(&fw, k, variant, None);
                    // Every group keeps its seed, so ids are not remapped.
                    assert_eq!(clustering.num_groups(), k, "{what}");
                    assert_eq!(assignment_of(&clustering, l), want, "{what}");
                    // The passes did real work wherever they could.
                    assert_eq!(moves > 0, k < l, "{what}");
                }
            }
        }
    }

    /// Runs cold MacQueen, cold Forgy and warm `cluster_seeded` (seeded
    /// `(7·h) mod k`) on `fw` and holds each to the brute force: equal
    /// assignments, no group emptied, and the warm entry's move count.
    /// Returns each entry's label, clustering and move count.
    fn entries_match_brute_force(
        fw: &GridFramework,
        k: usize,
        case: &str,
    ) -> Vec<(String, Clustering, usize)> {
        let l = fw.hypercells().len();
        let seed: Vec<usize> = (0..l).map(|h| (h * 7) % k).collect();
        let entries = [
            ("cold MacQueen", KMeansVariant::MacQueen, None),
            ("cold Forgy", KMeansVariant::Forgy, None),
            ("warm", KMeansVariant::MacQueen, Some(&seed[..])),
        ];
        let run = |(entry, variant, seed): (&str, KMeansVariant, Option<&[usize]>)| {
            let what = format!("{entry}, {case}");
            let km = KMeans {
                variant,
                max_iterations: PASSES,
            };
            let (want, moves) = brute_force_seeded(fw, k, variant, seed);
            let clustering = match seed {
                None => km.cluster(fw, k),
                Some(seed) => {
                    let (clustering, got) = km.cluster_seeded(fw, k, seed);
                    assert_eq!(got, moves, "{what}");
                    clustering
                }
            };
            assert_eq!(clustering.num_groups(), k, "{what}");
            assert_eq!(assignment_of(&clustering, l), want, "{what}");
            (what, clustering, moves)
        };
        entries.into_iter().map(run).collect()
    }

    /// No other test here runs K > 57, yet the service runs K = 128: a
    /// subscriber's set of groups then spans two (at 129, three) mask
    /// words. Cold (both variants) and warm runs against the brute force
    /// on either side of each word boundary.
    #[test]
    fn matches_brute_force_across_mask_word_boundaries() {
        for weighted in [false, true] {
            // 24 × 24 cells, 60 boxes: enough hyper-cells that K = 129
            // still leaves cells to move.
            let fw = scattered_on(24, 60, 6, weighted);
            let l = fw.hypercells().len();
            assert!(l >= 140, "scenario too small: {l} hyper-cells");
            for k in [63, 64, 65, 128, 129] {
                let case = format!("k = {k}, weighted = {weighted}");
                for (what, _, moves) in entries_match_brute_force(&fw, k, &case) {
                    // The passes must move cells, the warm ones many.
                    let least = if what.starts_with("warm") { l / 4 } else { 0 };
                    assert!(moves > least, "{what}: only {moves} moves");
                }
            }
        }
    }

    /// `n` large overlapping boxes on a 12 × 12 grid: each hyper-cell
    /// holds a large share of the universe and each subscriber sits in
    /// many groups — the population the word kernel is for.
    fn dense(n: usize) -> GridFramework {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = Grid::cube(0.0, 12.0, 2, 12).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut side = || {
            let len = rng.gen_range(4..=10);
            let lo = rng.gen_range(0..=12 - len);
            Interval::new(lo as f64, (lo + len) as f64).unwrap()
        };
        let subs: Vec<Rect> = (0..n).map(|_| Rect::new(vec![side(), side()])).collect();
        GridFramework::build(grid, &subs, &probs, None)
    }

    /// How many hyper-cells `GroupSet::closest` prices with the word
    /// kernel against the groups of `clustering`: the state the last,
    /// moveless pass of a converged run priced every hyper-cell against.
    fn priced_by_words(fw: &GridFramework, clustering: &Clustering, k: usize) -> usize {
        let hcs = fw.hypercells();
        let mut groups = GroupSet::new(fw, k);
        for (h, hc) in hcs.iter().enumerate() {
            groups.add(clustering.group_of_hyper(h), hc);
        }
        let by_words = |hc: &&HyperCell| groups.prices_by_words(hc, hc.members.count());
        hcs.iter().filter(by_words).count()
    }

    /// The brute-force tests above run sparse populations, which the
    /// walk prices. On a dense one the word kernel takes over: cold
    /// (both variants) and warm runs against the brute force, with
    /// universes on either side of a word boundary and `K` from one
    /// group to past a mask word.
    #[test]
    fn matches_brute_force_on_dense_populations() {
        for n in [63, 64, 65, 129] {
            let fw = dense(n);
            let l = fw.hypercells().len();
            assert!(l >= 100, "n = {n}: only {l} hyper-cells");
            for k in [1, 16, 63, 64, 65] {
                let case = format!("n = {n}, k = {k}");
                for (what, clustering, moves) in entries_match_brute_force(&fw, k, &case) {
                    let warm = what.starts_with("warm");
                    assert!(moves > 0 || !warm || k == 1, "{what}: no moves");
                    let by_words = priced_by_words(&fw, &clustering, k);
                    assert!(2 * by_words > l, "{what}: {by_words} of {l} by words");
                }
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(KMeans::new(KMeansVariant::MacQueen).name(), "kmeans");
        assert_eq!(KMeans::new(KMeansVariant::Forgy).name(), "forgy");
    }
}
