//! Lower-triangular matrix of pairwise expected-waste distances.
//!
//! Pairwise Grouping starts from the `l × l` singleton distance
//! structure over *hyper-cells* (not yet merged groups) and looks the
//! same singleton pairs up many times while it agglomerates.
//! [`DistanceMatrix`] computes those `l(l−1)/2` values once — filled in
//! parallel, row-chunked — and the lookups read them back instead of
//! re-walking two membership bit-vectors per query.
//!
//! Each stored value is produced by the very same
//! [`expected_waste`](crate::expected_waste) call the algorithm would
//! otherwise make, so runs with and without the matrix are bit-for-bit
//! identical; the matrix only holds *singleton* pairs, and merged
//! groups (whose membership vectors differ from any hyper-cell's) are
//! measured directly.
//!
//! Nothing caches the matrix:
//! [`GridFramework::distance_matrix`](crate::GridFramework::distance_matrix)
//! builds a fresh one per call, and pairwise grouping keeps it as a
//! local for one clustering. MST evaluates each pair exactly once — as
//! many evaluations as a build makes — so it computes its distances
//! directly, as outlier removal does; K-means costs `O(l·K)` per pass
//! against its group vectors.

use crate::clustering::group_distance;
use crate::framework::HyperCell;
use crate::parallel;

/// Column-tile width (in hyper-cells) of the cache-blocked build. Each
/// tile's membership vectors are walked by every row of an 8-row chunk
/// while still cache-resident (32 vectors × ~12.5 KB at 100k
/// subscribers fits in L2). Placement only — every entry is an
/// independent expected-waste value stored at its own index, never
/// summed, so the tile order cannot change any bit.
const DM_BLOCK: usize = 32;

/// Packed lower-triangular matrix of `d(i, j)` over hyper-cell indices.
pub struct DistanceMatrix {
    n: usize,
    /// Row-major lower triangle: row `i` holds `d(i, 0) .. d(i, i-1)`
    /// starting at offset `i·(i−1)/2`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise expected-waste distances between the given
    /// hyper-cells. With `weights = None` each entry is exactly
    /// `expected_waste(h[i].prob, &h[i].members, h[j].prob, &h[j].members)`;
    /// with weights it is the *weighted* expected waste, where member
    /// `i` of an exclusive set counts `weights[i]` deliveries. The
    /// aggregation layer passes class weights here so class-level
    /// matrices equal the concrete matrices bit-for-bit.
    ///
    /// The triangle is filled in parallel 8-row chunks, each chunk
    /// cache-blocked into [`DM_BLOCK`]-column tiles: the tile's column
    /// memberships are re-walked by every row of the chunk while still
    /// hot, instead of streaming the full row past a cold cache. Every
    /// entry is placed at its own index (no reduction), so the traversal
    /// order is bit-irrelevant.
    pub(crate) fn build_weighted(hypercells: &[HyperCell], weights: Option<&[u64]>) -> Self {
        let n = hypercells.len();
        let chunks = parallel::par_chunks(n, 8, |rows| {
            let mut out: Vec<Vec<f64>> = rows.clone().map(|i| vec![0.0f64; i]).collect();
            let cols = rows.end.saturating_sub(1);
            let mut j0 = 0usize;
            while j0 < cols {
                let j1 = (j0 + DM_BLOCK).min(cols);
                for (r, i) in rows.clone().enumerate() {
                    let a = &hypercells[i];
                    let row = &mut out[r];
                    for j in j0..j1.min(i) {
                        let b = &hypercells[j];
                        row[j] = group_distance(a.prob, &a.members, b.prob, &b.members, weights);
                    }
                }
                j0 = j1;
            }
            out
        });
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for rows in chunks {
            for row in rows {
                data.extend_from_slice(&row);
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of hyper-cells the matrix covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers no hyper-cells.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The stored `d(i, j)`; `d(i, i)` is 0.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing, in every build profile) if an index
    /// is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.data[hi * (hi - 1) / 2 + lo]
    }
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceMatrix")
            .field("n", &self.n)
            .field("entries", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::BitSet;
    use crate::waste::{expected_waste, expected_waste_weighted};

    fn cells() -> Vec<HyperCell> {
        let sets: [&[usize]; 5] = [&[0, 1], &[1, 2, 3], &[0, 4], &[2], &[0, 1, 2, 3, 4]];
        sets.iter()
            .enumerate()
            .map(|(i, s)| HyperCell {
                cells: vec![],
                members: BitSet::from_members(6, s.iter().copied()),
                prob: 0.1 + 0.05 * i as f64,
            })
            .collect()
    }

    #[test]
    fn matches_direct_expected_waste() {
        let h = cells();
        let m = DistanceMatrix::build_weighted(&h, None);
        assert_eq!(m.len(), 5);
        for i in 0..5 {
            for j in 0..5 {
                let direct = expected_waste(h[i].prob, &h[i].members, h[j].prob, &h[j].members);
                assert_eq!(m.get(i, j).to_bits(), direct.to_bits(), "({i},{j})");
                assert_eq!(m.get(i, j).to_bits(), m.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let h = cells();
        let serial = parallel::with_threads(1, || DistanceMatrix::build_weighted(&h, None));
        let par = parallel::with_threads(8, || DistanceMatrix::build_weighted(&h, None));
        assert_eq!(serial.data.len(), par.data.len());
        for (a, b) in serial.data.iter().zip(&par.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn weighted_fill_matches_expected_waste_weighted() {
        // Sparse and dense hyper-cells (and an empty one) over a
        // multi-word universe, plus weights big enough to matter.
        let universe = 4096;
        let sets: Vec<BitSet> = vec![
            BitSet::from_members(universe, (0..universe).step_by(311)),
            BitSet::from_members(universe, (0..universe).filter(|i| i % 2 == 0)),
            BitSet::from_members(universe, (7..universe).step_by(97)),
            BitSet::from_members(universe, (0..universe).filter(|i| i % 3 != 1)),
            BitSet::new(universe),
        ];
        let h: Vec<HyperCell> = sets
            .into_iter()
            .enumerate()
            .map(|(i, members)| HyperCell {
                cells: vec![],
                members,
                prob: 0.05 + 0.07 * i as f64,
            })
            .collect();
        let weights: Vec<u64> = (0..universe as u64).map(|i| (i % 11) + 1).collect();
        for threads in [1, 8] {
            let m = parallel::with_threads(threads, || {
                DistanceMatrix::build_weighted(&h, Some(&weights))
            });
            for i in 0..h.len() {
                for j in 0..h.len() {
                    let direct = expected_waste_weighted(
                        h[i].prob,
                        &h[i].members,
                        h[j].prob,
                        &h[j].members,
                        &weights,
                    );
                    assert_eq!(
                        m.get(i, j).to_bits(),
                        direct.to_bits(),
                        "({i},{j}) threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let m = DistanceMatrix::build_weighted(&[], None);
        assert!(m.is_empty());
        let h = cells();
        let m = DistanceMatrix::build_weighted(&h[..1], None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }
}
