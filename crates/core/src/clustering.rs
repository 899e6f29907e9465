//! Shared clustering types: groups, clusterings, the algorithm trait and
//! the incremental group accumulator the iterative algorithms use.

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

/// Incrementally maintained group state: per-subscriber containment
/// counts so hyper-cells can be added *and removed* in
/// `O(|cell members|)`, plus the group size and probability mass the
/// expected-waste distance needs.
#[derive(Debug, Clone)]
pub(crate) struct GroupAccumulator {
    /// How many of the group's hyper-cells contain each subscriber.
    counts: Vec<u32>,
    /// Per-slot multiplicities for class-universe frameworks; `None`
    /// (every slot counts 1) for concrete frameworks.
    weights: Option<Arc<Vec<u64>>>,
    /// Weighted number of subscribers with `counts > 0`. Equal to the
    /// plain count when `weights` is `None`.
    size: u64,
    /// Number of hyper-cells in the group.
    num_cells: usize,
    /// Total publication probability.
    prob: f64,
}

impl GroupAccumulator {
    /// An unweighted accumulator over a bare subscriber universe
    /// (tests only; production paths go through
    /// [`GroupAccumulator::for_framework`]).
    #[cfg(test)]
    pub(crate) fn new(num_subscribers: usize) -> Self {
        GroupAccumulator {
            counts: vec![0; num_subscribers],
            weights: None,
            size: 0,
            num_cells: 0,
            prob: 0.0,
        }
    }

    /// An accumulator over `framework`'s subscriber universe, weighted
    /// when the framework is a class-universe (aggregated) build.
    pub(crate) fn for_framework(framework: &GridFramework) -> Self {
        GroupAccumulator {
            counts: vec![0; framework.num_subscribers()],
            weights: framework.weights.clone(),
            size: 0,
            num_cells: 0,
            prob: 0.0,
        }
    }

    #[inline]
    fn weight_of(&self, m: usize) -> u64 {
        match &self.weights {
            None => 1,
            Some(w) => w[m],
        }
    }

    pub(crate) fn add(&mut self, hc: &HyperCell) {
        for m in hc.members.iter() {
            if self.counts[m] == 0 {
                self.size += self.weight_of(m);
            }
            self.counts[m] += 1;
        }
        self.num_cells += 1;
        self.prob += hc.prob;
    }

    pub(crate) fn remove(&mut self, hc: &HyperCell) {
        for m in hc.members.iter() {
            debug_assert!(self.counts[m] > 0, "removing a cell that was never added");
            self.counts[m] -= 1;
            if self.counts[m] == 0 {
                self.size -= self.weight_of(m);
            }
        }
        self.num_cells -= 1;
        self.prob -= hc.prob;
    }

    pub(crate) fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Expected-waste distance between a hyper-cell and this group:
    /// `p(hc)·|group \ hc| + p(group)·|hc \ group|`, with set sizes
    /// weighted by the per-slot multiplicities when present. The
    /// weighted integers equal the concrete counts, so the `f64` result
    /// is bit-identical to the expanded computation.
    pub(crate) fn distance_to(&self, hc: &HyperCell) -> f64 {
        let mut in_both = 0u64;
        let mut only_cell = 0u64;
        for m in hc.members.iter() {
            if self.counts[m] > 0 {
                in_both += self.weight_of(m);
            } else {
                only_cell += self.weight_of(m);
            }
        }
        let only_group = self.size - in_both;
        hc.prob * only_group as f64 + self.prob * only_cell as f64
    }

    /// The materialized membership vector (union over the group's cells).
    #[cfg(test)]
    pub(crate) fn members(&self) -> BitSet {
        BitSet::from_members(
            self.counts.len(),
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, _)| i),
        )
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
        assert_eq!(
            g0.members.count(),
            fw.hypercells()[0]
                .members
                .union_count(&fw.hypercells()[1].members)
        );
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
        let mut acc = GroupAccumulator::new(fw.num_subscribers());
        acc.add(&hcs[0]);
        acc.add(&hcs[1]);
        let full = acc.members();
        assert_eq!(full.count(), hcs[0].members.union_count(&hcs[1].members));
        acc.remove(&hcs[1]);
        assert_eq!(acc.members(), hcs[0].members);
        assert_eq!(acc.num_cells(), 1);
    }

    #[test]
    fn accumulator_distance_matches_expected_waste() {
        let fw = framework();
        let hcs = fw.hypercells();
        let mut acc = GroupAccumulator::new(fw.num_subscribers());
        acc.add(&hcs[0]);
        let d = acc.distance_to(&hcs[1]);
        // Bit-for-bit, in either argument order: this is what lets
        // K-means, cold or warm, skip the pairwise cache without
        // changing a decision.
        let ab = expected_waste(hcs[1].prob, &hcs[1].members, hcs[0].prob, &hcs[0].members);
        let ba = expected_waste(hcs[0].prob, &hcs[0].members, hcs[1].prob, &hcs[1].members);
        assert_eq!(d.to_bits(), ab.to_bits(), "{d} vs {ab}");
        assert_eq!(d.to_bits(), ba.to_bits(), "{d} vs {ba}");

        // The same pin for a weighted accumulator over a class-universe
        // framework — what aggregated cold K-means now relies on.
        let grid = Grid::cube(0.0, 10.0, 1, 10).unwrap();
        // Duplicated rectangles: class weights 3, 1 and 2.
        let subs = vec![
            rect1(0.0, 7.0),
            rect1(0.0, 7.0),
            rect1(0.0, 7.0),
            rect1(0.0, 4.0),
            rect1(7.0, 10.0),
            rect1(7.0, 10.0),
        ];
        let probs = CellProbability::uniform(&grid);
        let fw = crate::Aggregation::build(&subs).build_framework(grid, &probs, None);
        let w = fw.weights_ref().expect("class-universe framework");
        assert!(w.iter().any(|&x| x > 1), "weights must matter: {w:?}");
        let hcs = fw.hypercells();
        assert_eq!(hcs.len(), 3);
        for (s, h) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            let mut acc = GroupAccumulator::for_framework(&fw);
            acc.add(&hcs[s]);
            let d = acc.distance_to(&hcs[h]);
            let (a, b) = (&hcs[h], &hcs[s]);
            let ab = expected_waste_weighted(a.prob, &a.members, b.prob, &b.members, w);
            let ba = expected_waste_weighted(b.prob, &b.members, a.prob, &a.members, w);
            assert_eq!(d.to_bits(), ab.to_bits(), "({s},{h}): {d} vs {ab}");
            assert_eq!(d.to_bits(), ba.to_bits(), "({s},{h}): {d} vs {ba}");
            assert!(d > 0.0, "({s},{h}) must disagree somewhere");
        }
    }
}
