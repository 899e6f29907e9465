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

use crate::clustering::{Clustering, ClusteringAlgorithm, GroupAccumulator};
use crate::distance::DistanceMatrix;
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

    /// Overrides the iteration cap. The paper notes processing "can be
    /// stopped after any iteration, resulting in a feasible partition".
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// The variant.
    pub fn variant(&self) -> KMeansVariant {
        self.variant
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
    /// Every distance is computed directly against the group
    /// accumulators, so the call costs `O(l·K)` per pass and never
    /// builds the framework's `O(l²)` pairwise cache — a warm start has
    /// next to no singleton groups for it to serve.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the hyper-cell count or
    /// any group id is `>= k`.
    pub fn cluster_seeded(
        &self,
        framework: &GridFramework,
        k: usize,
        initial: &[usize],
    ) -> (Clustering, usize) {
        let hcs = framework.hypercells();
        let l = hcs.len();
        assert_eq!(initial.len(), l, "one seed group per hyper-cell");
        if l == 0 {
            return (Clustering::from_assignment(framework, Vec::new()), 0);
        }
        let k = k.max(1).min(l.max(1));
        let mut groups: Vec<GroupAccumulator> = (0..k)
            .map(|_| GroupAccumulator::for_framework(framework))
            .collect();
        let mut assignment = initial.to_vec();
        for (h, &g) in assignment.iter().enumerate() {
            assert!(g < k, "seed group {g} out of range for k = {k}");
            groups[g].add(&hcs[h]);
        }
        let mut total_moves = 0usize;
        for _ in 0..self.max_iterations {
            let mut moved = false;
            for h in 0..l {
                let cur = assignment[h];
                if groups[cur].num_cells() == 1 {
                    continue;
                }
                let best = closest_group(&groups, hcs, h, None);
                if best != cur {
                    groups[cur].remove(&hcs[h]);
                    groups[best].add(&hcs[h]);
                    assignment[h] = best;
                    moved = true;
                    total_moves += 1;
                }
            }
            if !moved {
                break;
            }
        }
        (
            Clustering::from_assignment(framework, assignment),
            total_moves,
        )
    }
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
        if l == 0 {
            return Clustering::from_assignment(framework, Vec::new());
        }
        let k = k.max(1).min(l);

        // Step 0: the K most popular hyper-cells seed the groups
        // (hyper-cells are already sorted by popularity).
        let matrix = framework.distance_matrix();
        let mut groups: Vec<GroupAccumulator> = (0..k)
            .map(|_| GroupAccumulator::for_framework(framework))
            .collect();
        let mut sole: Vec<Option<usize>> = vec![None; k];
        let mut assignment: Vec<usize> = vec![usize::MAX; l];
        for (g, group) in groups.iter_mut().enumerate().take(k) {
            group.add(&hcs[g]);
            sole[g] = Some(g);
            assignment[g] = g;
        }
        // Assign the rest to the closest seed group (updating vectors as
        // we go — this is the initial-partition step for both variants).
        // Seed groups stay singletons until something joins them, so the
        // shared distance cache serves most of these lookups.
        for h in k..l {
            let g = closest_group(&groups, hcs, h, matrix.map(|m| (m, &sole[..])));
            groups[g].add(&hcs[h]);
            sole[g] = None;
            assignment[h] = g;
        }

        // Steps 1-2: re-assignment passes.
        for _ in 0..self.max_iterations {
            let mut moved = false;
            match self.variant {
                KMeansVariant::MacQueen => {
                    // Each move updates the vectors the next hyper-cell
                    // sees, so this pass is inherently sequential.
                    for h in 0..l {
                        let cur = assignment[h];
                        if groups[cur].num_cells() == 1 {
                            continue; // never empty a group
                        }
                        let best = closest_group(&groups, hcs, h, matrix.map(|m| (m, &sole[..])));
                        if best != cur {
                            groups[cur].remove(&hcs[h]);
                            groups[best].add(&hcs[h]);
                            sole[best] = None;
                            assignment[h] = best;
                            moved = true;
                        }
                    }
                }
                KMeansVariant::Forgy => {
                    // All distances are evaluated against the pre-pass
                    // vectors, so every hyper-cell's closest group is
                    // independent and the scan runs in parallel. `groups`
                    // is not mutated until the apply loop below, which
                    // makes it the frozen snapshot — no clone needed.
                    let groups_ref = &groups;
                    let cached = matrix.map(|m| (m, &sole[..]));
                    let best_of = parallel::par_map_indexed(l, 64, |h| {
                        closest_group(groups_ref, hcs, h, cached)
                    });
                    let mut pending: Vec<(usize, usize)> = Vec::new();
                    let mut leaving = vec![0usize; k];
                    for (h, &best) in best_of.iter().enumerate() {
                        let cur = assignment[h];
                        if best != cur && groups[cur].num_cells() > leaving[cur] + 1 {
                            pending.push((h, best));
                            leaving[cur] += 1;
                        }
                    }
                    // ...applied only after the pass.
                    for (h, best) in pending {
                        let cur = assignment[h];
                        groups[cur].remove(&hcs[h]);
                        groups[best].add(&hcs[h]);
                        sole[best] = None;
                        assignment[h] = best;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        Clustering::from_assignment(framework, assignment)
    }
}

/// Index of the group with minimal expected-waste distance to hyper-cell
/// `h` (ties go to the lower index, deterministically).
///
/// `cached` is the cold path's `(distance cache, sole)` pair: while a
/// group is still a singleton (`sole[g]` is `Some(s)`) its distance is
/// read from the cache. `GroupAccumulator::distance_to` forms the same
/// two products as [`expected_waste`](crate::expected_waste) and
/// IEEE-754 addition is commutative, so the cached value is
/// bit-identical to the recomputed one — which is why the warm path can
/// pass `None` and change no decision.
fn closest_group(
    groups: &[GroupAccumulator],
    hypercells: &[HyperCell],
    h: usize,
    cached: Option<(&DistanceMatrix, &[Option<usize>])>,
) -> usize {
    let hc = &hypercells[h];
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (g, group) in groups.iter().enumerate() {
        let d = match cached.and_then(|(m, sole)| sole[g].map(|s| m.get(s, h))) {
            Some(d) => d,
            None => group.distance_to(hc),
        };
        if d < best_d {
            best_d = d;
            best = g;
        }
    }
    best
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
    fn empty_framework() {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &[], &probs, None);
        let c = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 3);
        assert_eq!(c.num_groups(), 0);
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
        let c = KMeans::new(KMeansVariant::MacQueen)
            .with_max_iterations(0)
            .cluster(&fw, 3);
        assert!(c.num_groups() <= 3);
        assert!(!c.groups().is_empty());
        // Every hyper-cell is assigned somewhere.
        let total: usize = c.groups().iter().map(|g| g.hypercells.len()).sum();
        assert_eq!(total, fw.hypercells().len());
    }

    /// `cluster_seeded` re-done the slow way: every distance is a plain
    /// [`expected_waste`] between the hyper-cell and the group's
    /// materialized union, with the group mass accumulated in the same
    /// add/remove order.
    fn brute_force_seeded(fw: &GridFramework, k: usize, initial: &[usize]) -> (Vec<usize>, usize) {
        use crate::membership::BitSet;
        use crate::waste::expected_waste;
        let hcs = fw.hypercells();
        let mut assignment = initial.to_vec();
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut prob = vec![0.0f64; k];
        for (h, &g) in initial.iter().enumerate() {
            cells[g].push(h);
            prob[g] += hcs[h].prob;
        }
        let mut moves = 0usize;
        loop {
            let mut moved = false;
            for h in 0..hcs.len() {
                let cur = assignment[h];
                if cells[cur].len() == 1 {
                    continue;
                }
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for g in 0..k {
                    let mut union = BitSet::new(fw.num_subscribers());
                    for &c in &cells[g] {
                        union.union_with(&hcs[c].members);
                    }
                    let d = expected_waste(hcs[h].prob, &hcs[h].members, prob[g], &union);
                    if d < best_d {
                        best_d = d;
                        best = g;
                    }
                }
                if best != cur {
                    cells[cur].retain(|&c| c != h);
                    prob[cur] -= hcs[h].prob;
                    cells[best].push(h);
                    prob[best] += hcs[h].prob;
                    assignment[h] = best;
                    moved = true;
                    moves += 1;
                }
            }
            if !moved {
                return (assignment, moves);
            }
        }
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
        let km = KMeans::new(KMeansVariant::MacQueen);
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
            let (want, want_moves) = brute_force_seeded(&fw, k, &seed);
            assert_eq!(moves, want_moves, "k = {k}");
            // No group is ever emptied, so group ids are not remapped.
            assert_eq!(clustering.num_groups(), k);
            let got: Vec<usize> = (0..l).map(|h| clustering.group_of_hyper(h)).collect();
            assert_eq!(got, want, "k = {k}");
            if k == l {
                assert_eq!(moves, 0, "a last member never leaves its group");
            } else {
                assert!(moves > 0, "the mixed seed must exercise real moves");
            }
        }
        // The perf contract: the warm path never touched the O(l²) cache.
        assert!(fw.distances.get().is_none());
    }

    #[test]
    fn names() {
        assert_eq!(KMeans::new(KMeansVariant::MacQueen).name(), "kmeans");
        assert_eq!(KMeans::new(KMeansVariant::Forgy).name(), "forgy");
    }
}
