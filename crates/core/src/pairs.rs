//! Pairwise Grouping (Section 4.3 of the paper) and its approximate
//! variant.
//!
//! A bottom-up agglomerative clustering: every hyper-cell starts as its
//! own group; while more than `K` groups remain, the two groups at
//! minimum expected-waste distance are merged (Figure 2).
//!
//! The **exact** variant always merges the globally closest pair. (The
//! paper's formulation re-scans all pairs each step; we keep a
//! nearest-neighbour array, which merges the identical sequence of pairs
//! with a much better constant — the full-scan behaviour survives in the
//! benchmarks as `pairs-fullscan` for the Figure 10/11 runtime curves.)
//!
//! The **approximate** variant applies the secretary rule: at each step
//! it inspects a fraction `1/e` of the pair combinations, remembers the
//! best distance seen, then keeps scanning and merges the first pair
//! that beats it (falling back to the remembered best). Faster, possibly
//! poorer merges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clustering::{group_distance, Clustering, ClusteringAlgorithm};
use crate::distance::DistanceMatrix;
use crate::framework::GridFramework;
use crate::membership::BitSet;
use crate::parallel;

/// How pairwise grouping searches for the next pair to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairsStrategy {
    /// Merge the globally closest pair (nearest-neighbour bookkeeping).
    Exact,
    /// Merge the globally closest pair with a full rescan of all pairs
    /// at each step — the paper's literal formulation; same output as
    /// [`PairsStrategy::Exact`] but `O(l³)`. Kept for runtime ablations.
    ExactFullScan,
    /// Secretary-rule scan: inspect `1/e` of the pairs, then take the
    /// first improvement (seeded for reproducibility).
    Approximate {
        /// RNG seed for the scan order.
        seed: u64,
    },
}

/// The pairwise grouping algorithm.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{
///     CellProbability, ClusteringAlgorithm, GridFramework, PairsStrategy, PairwiseGrouping,
/// };
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 4.0)?]),
///     Rect::new(vec![Interval::new(6.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let c = PairwiseGrouping::new(PairsStrategy::Exact).cluster(&fw, 1);
/// assert_eq!(c.num_groups(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseGrouping {
    strategy: PairsStrategy,
}

/// Live state of one group during agglomeration.
#[derive(Debug, Clone)]
struct GroupState {
    members: BitSet,
    prob: f64,
    hypercells: Vec<usize>,
}

impl PairwiseGrouping {
    /// Creates the algorithm with the given merge-search strategy.
    pub fn new(strategy: PairsStrategy) -> Self {
        PairwiseGrouping { strategy }
    }
}

impl ClusteringAlgorithm for PairwiseGrouping {
    fn name(&self) -> &'static str {
        match self.strategy {
            PairsStrategy::Exact => "pairs",
            PairsStrategy::ExactFullScan => "pairs-fullscan",
            PairsStrategy::Approximate { .. } => "approx-pairs",
        }
    }

    fn cluster(&self, framework: &GridFramework, k: usize) -> Clustering {
        // While both endpoints of a candidate pair are still singleton
        // groups (the common case early in agglomeration), their distance
        // is a matrix lookup instead of a bit-vector walk. The matrix is
        // built here, once per call, and read by nothing else.
        let matrix = framework.distance_matrix();
        self.cluster_with(framework, k, matrix.as_ref())
    }
}

impl PairwiseGrouping {
    /// The agglomeration behind [`ClusteringAlgorithm::cluster`], with
    /// singleton-pair distances read from `matrix` when given and
    /// computed directly otherwise (the path above the matrix's size
    /// cap). Both give the same clustering, bit for bit.
    pub(crate) fn cluster_with(
        &self,
        framework: &GridFramework,
        k: usize,
        matrix: Option<&DistanceMatrix>,
    ) -> Clustering {
        let hcs = framework.hypercells();
        let l = hcs.len();
        if l == 0 {
            return Clustering::from_assignment(framework, Vec::new());
        }
        let k = k.max(1).min(l);

        let mut groups: Vec<Option<GroupState>> = hcs
            .iter()
            .enumerate()
            .map(|(h, hc)| {
                Some(GroupState {
                    members: hc.members.clone(),
                    prob: hc.prob,
                    hypercells: vec![h],
                })
            })
            .collect();
        let mut alive = l;

        let weights = framework.weights_ref();
        match self.strategy {
            PairsStrategy::Exact => {
                merge_exact_nn(&mut groups, &mut alive, k, matrix, weights);
            }
            PairsStrategy::ExactFullScan => {
                merge_exact_fullscan(&mut groups, &mut alive, k, matrix, weights);
            }
            PairsStrategy::Approximate { seed } => {
                merge_approximate(&mut groups, &mut alive, k, seed, matrix, weights);
            }
        }

        // Materialize the assignment.
        let mut assignment = vec![usize::MAX; l];
        for (next, group) in groups.into_iter().flatten().enumerate() {
            for h in group.hypercells {
                assignment[h] = next;
            }
        }
        Clustering::from_assignment(framework, assignment)
    }
}

fn dist(a: &GroupState, b: &GroupState, weights: Option<&[u64]>) -> f64 {
    group_distance(a.prob, &a.members, b.prob, &b.members, weights)
}

/// Group distance, read from the matrix when both groups are still
/// singleton hyper-cells. A singleton's membership vector and
/// probability are exactly its hyper-cell's, and the matrix stores the
/// very `expected_waste` value `dist` would compute (weighted builds
/// store the weighted value), so the lookup is bit-identical to the
/// direct path.
fn dist_cached(
    matrix: Option<&DistanceMatrix>,
    a: &GroupState,
    b: &GroupState,
    weights: Option<&[u64]>,
) -> f64 {
    if let (Some(m), &[ia], &[ib]) = (matrix, a.hypercells.as_slice(), b.hypercells.as_slice()) {
        m.get(ia, ib)
    } else {
        dist(a, b, weights)
    }
}

/// Merge `b` into `a`.
fn merge_into(groups: &mut [Option<GroupState>], a: usize, b: usize) {
    let gb = groups[b].take().expect("merge source is alive");
    let ga = groups[a].as_mut().expect("merge target is alive");
    ga.members.union_with(&gb.members);
    ga.prob += gb.prob;
    ga.hypercells.extend(gb.hypercells);
}

/// Exact agglomeration with nearest-neighbour bookkeeping: merges the
/// globally closest pair each step.
fn merge_exact_nn(
    groups: &mut [Option<GroupState>],
    alive: &mut usize,
    k: usize,
    matrix: Option<&DistanceMatrix>,
    weights: Option<&[u64]>,
) {
    let l = groups.len();
    // nn[i] = (distance, j) of i's nearest alive neighbour.
    let recompute_nn = |groups: &[Option<GroupState>], i: usize| -> Option<(f64, usize)> {
        let gi = groups[i].as_ref()?;
        let mut best: Option<(f64, usize)> = None;
        for (j, gj) in groups.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Some(gj) = gj {
                let d = dist_cached(matrix, gi, gj, weights);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, j));
                }
            }
        }
        best
    };
    // The O(l²) initialization scans rows independently — fan out. Each
    // row's scan order (ascending j, strict improvement) is unchanged,
    // so the per-row result is identical to the serial loop.
    let groups_ref: &[Option<GroupState>] = groups;
    let mut nn: Vec<Option<(f64, usize)>> =
        parallel::par_map_indexed(l, 32, |i| recompute_nn(groups_ref, i));
    while *alive > k {
        // Globally closest pair = min over nn.
        let (i, (_, j)) = nn
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| e.map(|e| (i, e)))
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("distance is never NaN"))
            .expect("at least two groups alive");
        merge_into(groups, i, j);
        *alive -= 1;
        nn[j] = None;
        // Any group whose nearest neighbour was i or j must rescan; the
        // merged group only grew, so distances to it may have changed.
        // The rescans are independent row scans — fan out when there are
        // enough of them.
        let mut stale: Vec<usize> = vec![i];
        for (g, entry) in nn.iter().enumerate() {
            match entry {
                Some((_, t)) if g != i && (*t == i || *t == j) => stale.push(g),
                _ => {}
            }
        }
        let groups_ref: &[Option<GroupState>] = groups;
        let refreshed = parallel::par_map(&stale, 32, |&g| recompute_nn(groups_ref, g));
        for (&g, entry) in stale.iter().zip(refreshed) {
            nn[g] = entry;
        }
    }
}

/// The paper's literal `O(l³)` variant: full pair scan per merge.
fn merge_exact_fullscan(
    groups: &mut [Option<GroupState>],
    alive: &mut usize,
    k: usize,
    matrix: Option<&DistanceMatrix>,
    weights: Option<&[u64]>,
) {
    while *alive > k {
        let ids: Vec<usize> = (0..groups.len()).filter(|&i| groups[i].is_some()).collect();
        let n = ids.len();
        // Scan the upper triangle in parallel, one contiguous block of
        // rows per chunk. The serial loop picks the *first* pair (in
        // row-major order) attaining the minimum; taking each chunk's
        // first-minimum and then combining the chunks in order with a
        // strict `<` reproduces exactly that pair for any chunking.
        let groups_ref: &[Option<GroupState>] = groups;
        let ids_ref: &[usize] = &ids;
        let chunk = n.div_ceil(parallel::num_threads() * 4).max(1);
        let best = parallel::par_chunks(n, chunk, |rows| {
            let mut best: Option<(f64, usize, usize)> = None;
            for x in rows {
                let i = ids_ref[x];
                let gi = groups_ref[i].as_ref().expect("alive");
                for &j in &ids_ref[x + 1..] {
                    let d =
                        dist_cached(matrix, gi, groups_ref[j].as_ref().expect("alive"), weights);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
            best
        })
        .into_iter()
        .flatten()
        .reduce(|acc, cand| if cand.0 < acc.0 { cand } else { acc });
        let (_, i, j) = best.expect("at least two groups alive");
        merge_into(groups, i, j);
        *alive -= 1;
    }
}

/// Secretary-rule approximate merge: per step, scan pairs in a random
/// order; after `m/e` pairs, remember the best and stop at the first
/// improvement.
fn merge_approximate(
    groups: &mut [Option<GroupState>],
    alive: &mut usize,
    k: usize,
    seed: u64,
    matrix: Option<&DistanceMatrix>,
    weights: Option<&[u64]>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    while *alive > k {
        let ids: Vec<usize> = (0..groups.len()).filter(|&i| groups[i].is_some()).collect();
        let n = ids.len();
        let m = n * (n - 1) / 2;
        let observe = ((m as f64) / std::f64::consts::E).ceil() as usize;
        let mut best: Option<(f64, usize, usize)> = None;
        let mut chosen: Option<(usize, usize)> = None;
        // Random starting offset gives each step a fresh scan order
        // without materializing all pairs. The (x, y) cursor advances
        // incrementally — computing the position from scratch per pair
        // would cost O(n) each.
        let start = rng.gen_range(0..m.max(1));
        let (mut x, mut y) = pair_at(start, n);
        for t in 0..m {
            let (i, j) = (ids[x], ids[y]);
            // Advance the upper-triangle cursor, wrapping at the end.
            y += 1;
            if y == n {
                x += 1;
                if x == n - 1 {
                    x = 0;
                }
                y = x + 1;
            }
            // The scan order is RNG-driven and must stay sequential (the
            // secretary rule stops at the first improvement), but each
            // probe still benefits from the matrix.
            let d = dist_cached(
                matrix,
                groups[i].as_ref().expect("alive"),
                groups[j].as_ref().expect("alive"),
                weights,
            );
            if t < observe {
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i, j));
                }
            } else if best.is_none_or(|(bd, _, _)| d < bd) {
                chosen = Some((i, j));
                break;
            }
        }
        let (i, j) = chosen.unwrap_or_else(|| {
            let (_, i, j) = best.expect("at least one pair");
            (i, j)
        });
        merge_into(groups, i, j);
        *alive -= 1;
    }
}

/// The `t`-th pair `(x, y)` with `x < y` in the row-major enumeration of
/// the upper triangle of an `n × n` matrix.
fn pair_at(t: usize, n: usize) -> (usize, usize) {
    // Row x contains (n - 1 - x) pairs.
    let mut x = 0usize;
    let mut t = t;
    loop {
        let row = n - 1 - x;
        if t < row {
            return (x, x + 1 + t);
        }
        t -= row;
        x += 1;
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

    fn two_communities() -> GridFramework {
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let mut subs = Vec::new();
        for i in 0..5 {
            subs.push(rect1(i as f64 * 0.5, 8.0 - i as f64 * 0.5));
        }
        for i in 0..5 {
            subs.push(rect1(12.0 + i as f64 * 0.5, 20.0 - i as f64 * 0.5));
        }
        let probs = CellProbability::uniform(&grid);
        GridFramework::build(grid, &subs, &probs, None)
    }

    /// Scattered, overlapping 2-D boxes on a 12 × 12 grid: dozens of
    /// distinct hyper-cells at uneven distances. `weighted` repeats
    /// some boxes and clusters the class universe of that population.
    fn scattered(weighted: bool) -> GridFramework {
        let cells = 12;
        let grid = Grid::cube(0.0, cells as f64, 2, cells).unwrap();
        let probs = CellProbability::from_mass_fn(&grid, |r| 1.0 + r.interval(0).lo() % 3.0);
        let side = |lo: usize, len: usize| Interval::new(lo as f64, (lo + len) as f64).unwrap();
        let subs: Vec<Rect> = (0..18)
            .flat_map(|i: usize| {
                let r = Rect::new(vec![
                    side((i * 5) % (cells - 3), 2 + i % 3),
                    side((i * 7) % (cells - 4), 2 + (i * 3) % 4),
                ]);
                std::iter::repeat_n(r, if weighted { 1 + i % 3 } else { 1 })
            })
            .collect();
        if weighted {
            let fw = crate::Aggregation::build(&subs).build_framework(grid, &probs, None);
            assert!(fw.weights_ref().is_some_and(|w| w.iter().any(|&x| x > 1)));
            fw
        } else {
            GridFramework::build(grid, &subs, &probs, None)
        }
    }

    /// Above the matrix's size cap `cluster` reads no matrix: every
    /// strategy must then merge exactly as it does from the matrix.
    #[test]
    fn matrix_path_equals_the_above_cap_fallback() {
        for weighted in [false, true] {
            let fw = scattered(weighted);
            let l = fw.hypercells().len();
            assert!(l >= 24, "scenario too small: {l} hyper-cells");
            let matrix = fw.distance_matrix().expect("below the cap");
            for strategy in [
                PairsStrategy::Exact,
                PairsStrategy::ExactFullScan,
                PairsStrategy::Approximate { seed: 11 },
            ] {
                let alg = PairwiseGrouping::new(strategy);
                for k in [1, 3, l / 4, l / 2] {
                    let what = format!("{strategy:?}, k = {k}, weighted = {weighted}");
                    let read = alg.cluster_with(&fw, k, Some(&matrix));
                    let direct = alg.cluster_with(&fw, k, None);
                    let assignment =
                        |c: &Clustering| (0..l).map(|h| c.group_of_hyper(h)).collect::<Vec<_>>();
                    assert_eq!(assignment(&read), assignment(&direct), "{what}");
                    assert_eq!(
                        read.total_expected_waste(&fw).to_bits(),
                        direct.total_expected_waste(&fw).to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_at_enumerates_upper_triangle() {
        let n = 5;
        let mut seen = Vec::new();
        for t in 0..(n * (n - 1) / 2) {
            seen.push(pair_at(t, n));
        }
        assert_eq!(
            seen,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4)
            ]
        );
    }

    #[test]
    fn exact_separates_communities() {
        let fw = two_communities();
        let c = PairwiseGrouping::new(PairsStrategy::Exact).cluster(&fw, 2);
        assert_eq!(c.num_groups(), 2);
        for g in c.groups() {
            let low = g.members.iter().filter(|&m| m < 5).count();
            let high = g.members.iter().filter(|&m| m >= 5).count();
            assert!(low == 0 || high == 0, "mixed group");
        }
    }

    #[test]
    fn nn_variant_matches_fullscan_output() {
        let fw = two_communities();
        for k in [1, 2, 3, 5] {
            let a = PairwiseGrouping::new(PairsStrategy::Exact).cluster(&fw, k);
            let b = PairwiseGrouping::new(PairsStrategy::ExactFullScan).cluster(&fw, k);
            assert_eq!(
                a.total_expected_waste(&fw),
                b.total_expected_waste(&fw),
                "k={k}"
            );
            assert_eq!(a.num_groups(), b.num_groups(), "k={k}");
        }
    }

    #[test]
    fn approximate_reaches_k_groups() {
        let fw = two_communities();
        let c = PairwiseGrouping::new(PairsStrategy::Approximate { seed: 42 }).cluster(&fw, 3);
        assert_eq!(c.num_groups(), 3);
        let total: usize = c.groups().iter().map(|g| g.hypercells.len()).sum();
        assert_eq!(total, fw.hypercells().len());
    }

    #[test]
    fn hierarchical_merges_are_monotone_refinements() {
        // With K+1 groups, every group must be a subset of some K-group
        // (hierarchical algorithms subdivide, never re-mix).
        let fw = two_communities();
        let alg = PairwiseGrouping::new(PairsStrategy::Exact);
        let coarse = alg.cluster(&fw, 2);
        let fine = alg.cluster(&fw, 4);
        for fine_g in fine.groups() {
            let covered = coarse
                .groups()
                .iter()
                .any(|cg| fine_g.hypercells.iter().all(|h| cg.hypercells.contains(h)));
            assert!(covered, "fine group not nested in any coarse group");
        }
    }

    #[test]
    fn k_one_merges_everything() {
        let fw = two_communities();
        for strategy in [
            PairsStrategy::Exact,
            PairsStrategy::ExactFullScan,
            PairsStrategy::Approximate { seed: 7 },
        ] {
            let c = PairwiseGrouping::new(strategy).cluster(&fw, 1);
            assert_eq!(c.num_groups(), 1, "{strategy:?}");
        }
    }

    #[test]
    fn empty_framework() {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &[], &probs, None);
        let c = PairwiseGrouping::new(PairsStrategy::Exact).cluster(&fw, 3);
        assert_eq!(c.num_groups(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(PairwiseGrouping::new(PairsStrategy::Exact).name(), "pairs");
        assert_eq!(
            PairwiseGrouping::new(PairsStrategy::ExactFullScan).name(),
            "pairs-fullscan"
        );
        assert_eq!(
            PairwiseGrouping::new(PairsStrategy::Approximate { seed: 0 }).name(),
            "approx-pairs"
        );
    }
}
