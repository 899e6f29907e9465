//! Minimum-spanning-tree clustering (Section 4.4 of the paper; Zahn's
//! method).
//!
//! Hyper-cells are vertices of a complete graph whose edge lengths are
//! the pairwise expected-waste distances. Kruskal's algorithm is run in
//! non-decreasing edge order and stopped when exactly `K` connected
//! components remain (Figure 3).
//!
//! Implementation note: stopping Kruskal at `K` components on a complete
//! graph yields exactly the components obtained by building the full MST
//! and deleting its `K-1` heaviest edges (single-linkage clustering).
//! We therefore build the MST with Prim in `O(l²)` — no `O(l²)` edge
//! sort, no `O(l²)` edge materialization — and cut. Unlike pairwise
//! grouping, distances are always between *cells*, never between merged
//! groups, which is what makes the pre-sorted/cut formulation valid and
//! the algorithm fast (the paper makes the same observation).

use crate::clustering::{group_distance, Clustering, ClusteringAlgorithm};
use crate::framework::GridFramework;
use crate::parallel;

/// Below this vertex count the Prim relaxation row is computed serially:
/// the row is too cheap to amortize a thread fan-out per iteration.
const PAR_RELAX_MIN_VERTICES: usize = 2048;

/// The MST clustering algorithm.
///
/// # Examples
///
/// ```
/// use geometry::{Grid, Interval, Rect};
/// use pubsub_core::{CellProbability, ClusteringAlgorithm, GridFramework, MstClustering};
///
/// let grid = Grid::cube(0.0, 10.0, 1, 10)?;
/// let subs = vec![
///     Rect::new(vec![Interval::new(0.0, 4.0)?]),
///     Rect::new(vec![Interval::new(6.0, 10.0)?]),
/// ];
/// let probs = CellProbability::uniform(&grid);
/// let fw = GridFramework::build(grid, &subs, &probs, None);
/// let c = MstClustering::new().cluster(&fw, 2);
/// assert_eq!(c.num_groups(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MstClustering;

impl MstClustering {
    /// Creates the algorithm.
    pub fn new() -> Self {
        MstClustering
    }
}

impl ClusteringAlgorithm for MstClustering {
    fn name(&self) -> &'static str {
        "mst"
    }

    fn cluster(&self, framework: &GridFramework, k: usize) -> Clustering {
        let hcs = framework.hypercells();
        let l = hcs.len();
        if l == 0 {
            return Clustering::from_assignment(framework, Vec::new());
        }
        let k = k.max(1).min(l);

        // Prim's algorithm over the implicit complete graph. Each pair is
        // evaluated exactly once, when the first of its two endpoints
        // joins the tree — the `l(l−1)/2` evaluations a pairwise matrix
        // would make — so distances are computed directly, one
        // relaxation row at a time, in parallel for large graphs.
        let class_weights = framework.weights_ref();
        let d = |i: usize, j: usize| {
            group_distance(
                hcs[i].prob,
                &hcs[i].members,
                hcs[j].prob,
                &hcs[j].members,
                class_weights,
            )
        };
        let mut in_tree = vec![false; l];
        let mut best = vec![f64::INFINITY; l];
        let mut best_from = vec![0usize; l];
        // lint: allow(no-literal-index): l >= 1 (the l == 0 case returned above)
        in_tree[0] = true;
        // Each d() walks two membership vectors, which dominates the
        // fan-out cost for big graphs.
        let par_rows = l >= PAR_RELAX_MIN_VERTICES;
        let row = |pick: usize, in_tree: &[bool]| -> Vec<f64> {
            if par_rows {
                parallel::par_map_indexed(l, 512, |j| {
                    if in_tree[j] {
                        f64::INFINITY
                    } else {
                        d(pick, j)
                    }
                })
            } else {
                (0..l)
                    .map(|j| {
                        if in_tree[j] {
                            f64::INFINITY
                        } else {
                            d(pick, j)
                        }
                    })
                    .collect()
            }
        };
        let first_row = row(0, &in_tree);
        best[1..].copy_from_slice(&first_row[1..]);
        // MST edges as (weight, u, v).
        let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(l.saturating_sub(1));
        for _ in 1..l {
            let mut pick = usize::MAX;
            let mut pick_w = f64::INFINITY;
            for j in 0..l {
                if !in_tree[j] && best[j] < pick_w {
                    pick_w = best[j];
                    pick = j;
                }
            }
            debug_assert_ne!(pick, usize::MAX);
            in_tree[pick] = true;
            edges.push((pick_w, best_from[pick], pick));
            // Relax: the row of candidate weights is computed first (in
            // parallel when worthwhile — each entry is independent), then
            // applied in index order exactly as the serial loop would.
            let weights = row(pick, &in_tree);
            for j in 0..l {
                if !in_tree[j] {
                    let w = weights[j];
                    if w < best[j] {
                        best[j] = w;
                        best_from[j] = pick;
                    }
                }
            }
        }

        // Cut the K-1 heaviest MST edges: sort ascending, keep the
        // lightest l-K edges, union-find the components.
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distance is never NaN"));
        let keep = l - k;
        let mut parent: Vec<usize> = (0..l).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(_, u, v) in edges.iter().take(keep) {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru] = rv;
            }
        }
        // Dense component ids → assignment.
        let mut comp_of_root = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(l);
        for h in 0..l {
            let root = find(&mut parent, h);
            let next = comp_of_root.len();
            let id = *comp_of_root.entry(root).or_insert(next);
            assignment.push(id);
        }
        Clustering::from_assignment(framework, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
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

    #[test]
    fn separates_communities_at_k2() {
        let fw = two_communities();
        let c = MstClustering::new().cluster(&fw, 2);
        assert_eq!(c.num_groups(), 2);
        for g in c.groups() {
            let low = g.members.iter().filter(|&m| m < 5).count();
            let high = g.members.iter().filter(|&m| m >= 5).count();
            assert!(low == 0 || high == 0, "mixed group");
        }
    }

    #[test]
    fn produces_exactly_k_components() {
        let fw = two_communities();
        let l = fw.hypercells().len();
        for k in 1..=l {
            let c = MstClustering::new().cluster(&fw, k);
            assert_eq!(c.num_groups(), k, "k={k}");
        }
    }

    #[test]
    fn monotone_refinement() {
        // The defining property of MST clustering: the K+1-clustering
        // refines the K-clustering (new groups are formed by subdividing
        // existing ones — Section 6 of the paper).
        let fw = two_communities();
        let alg = MstClustering::new();
        let l = fw.hypercells().len();
        for k in 1..l {
            let coarse = alg.cluster(&fw, k);
            let fine = alg.cluster(&fw, k + 1);
            for fine_g in fine.groups() {
                let covered = coarse
                    .groups()
                    .iter()
                    .any(|cg| fine_g.hypercells.iter().all(|h| cg.hypercells.contains(h)));
                assert!(covered, "k={k}: fine group not nested");
            }
        }
    }

    #[test]
    fn k_equals_l_is_zero_waste() {
        let fw = two_communities();
        let l = fw.hypercells().len();
        let c = MstClustering::new().cluster(&fw, l);
        assert_eq!(c.total_expected_waste(&fw), 0.0);
    }

    /// Serial Prim over a prebuilt [`DistanceMatrix`] — the lookup path
    /// MST ran before it computed its distances directly — cut at the
    /// `K − 1` heaviest edges. Group ids are dense in order of first
    /// appearance, the numbering `cluster` produces.
    fn prim_over_matrix(fw: &GridFramework, k: usize) -> Vec<usize> {
        let m = DistanceMatrix::build_weighted(fw.hypercells(), fw.weights_ref());
        let l = fw.hypercells().len();
        let mut in_tree = vec![false; l];
        in_tree[0] = true;
        let mut best: Vec<(f64, usize)> = (0..l).map(|j| (m.get(0, j), 0)).collect();
        let mut edges = Vec::with_capacity(l - 1);
        for _ in 1..l {
            // The first of the nearest vertices outside the tree.
            let pick = (0..l)
                .filter(|&j| !in_tree[j])
                .min_by(|&a, &b| best[a].0.partial_cmp(&best[b].0).unwrap())
                .unwrap();
            in_tree[pick] = true;
            edges.push((best[pick].0, best[pick].1, pick));
            for j in 0..l {
                if !in_tree[j] && m.get(pick, j) < best[j].0 {
                    best[j] = (m.get(pick, j), pick);
                }
            }
        }
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut label: Vec<usize> = (0..l).collect();
        for &(_, u, v) in edges.iter().take(l - k) {
            let (from, to) = (label[u], label[v]);
            label
                .iter_mut()
                .filter(|x| **x == from)
                .for_each(|x| *x = to);
        }
        let mut dense = std::collections::HashMap::new();
        label
            .iter()
            .map(|x| {
                let next = dense.len();
                *dense.entry(*x).or_insert(next)
            })
            .collect()
    }

    /// From `PAR_RELAX_MIN_VERTICES` hyper-cells up, each relaxation row
    /// fans out over the workers. The clustering is the serial one at
    /// any worker count, and the one a prebuilt matrix gives.
    #[test]
    fn parallel_relaxation_rows_match_serial_prim() {
        // Strip i covers (2i, 2i + 3] along one axis and all of the
        // other: along each axis the cells alternate between lying in
        // one strip and in two, so 24 + 24 strips cut a 50 × 50 grid
        // into 47 × 47 distinct memberships held in one word each.
        // Uneven cell masses keep most distances from tying.
        let (strips, side) = (24, 50.0);
        let grid = Grid::cube(0.0, side, 2, side as usize).unwrap();
        let probs = CellProbability::from_mass_fn(&grid, |r| {
            1.0 + (r.interval(0).lo() * 7.0 + r.interval(1).lo() * 13.0) % 11.0
        });
        let strip = |i: usize| Interval::new(2.0 * i as f64, 2.0 * i as f64 + 3.0).unwrap();
        let whole = Interval::new(0.0, side).unwrap();
        let subs: Vec<Rect> = (0..strips)
            .flat_map(|i| {
                [
                    Rect::new(vec![strip(i), whole]),
                    Rect::new(vec![whole, strip(i)]),
                ]
            })
            .collect();
        let fw = GridFramework::build(grid, &subs, &probs, None);
        let l = fw.hypercells().len();
        assert!(
            l >= PAR_RELAX_MIN_VERTICES,
            "rows stay serial at {l} hyper-cells"
        );
        let k = 37;
        let assignment = |threads: usize| {
            let c = parallel::with_threads(threads, || MstClustering::new().cluster(&fw, k));
            assert_eq!(c.num_groups(), k);
            (0..l).map(|h| c.group_of_hyper(h)).collect::<Vec<_>>()
        };
        let serial = assignment(1);
        assert_eq!(serial, assignment(8));
        assert_eq!(serial, prim_over_matrix(&fw, k));
    }

    #[test]
    fn empty_framework() {
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &[], &probs, None);
        let c = MstClustering::new().cluster(&fw, 3);
        assert_eq!(c.num_groups(), 0);
    }
}
