//! Property-based tests of the core clustering data structures.

use geometry::{Grid, Interval, Rect};
use proptest::prelude::*;
use pubsub_core::{
    expected_waste, BitSet, CellProbability, ClusteringAlgorithm, GridFramework, KMeans,
    KMeansVariant, MstClustering, PairsStrategy, PairwiseGrouping,
};

fn bitset_strategy(universe: usize) -> impl Strategy<Value = BitSet> {
    prop::collection::vec(0..universe, 0..universe)
        .prop_map(move |v| BitSet::from_members(universe, v))
}

proptest! {
    // ----- BitSet algebra -----

    #[test]
    fn bitset_counts_are_consistent(a in bitset_strategy(150), b in bitset_strategy(150)) {
        // |A| = |A∩B| + |A\B|.
        prop_assert_eq!(
            a.count(),
            a.intersection_count(&b) + a.difference_count(&b)
        );
    }

    #[test]
    fn bitset_union_with_is_union_count(a in bitset_strategy(150), b in bitset_strategy(150)) {
        // |A∪B| = |A| + |B| - |A∩B|.
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.count(), a.count() + b.count() - a.intersection_count(&b));
        prop_assert!(a.is_subset(&u));
        prop_assert!(b.is_subset(&u));
    }

    #[test]
    fn bitset_iter_round_trips(a in bitset_strategy(150)) {
        let rebuilt = BitSet::from_members(150, a.iter());
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn bitset_subset_iff_no_difference(a in bitset_strategy(80), b in bitset_strategy(80)) {
        prop_assert_eq!(a.is_subset(&b), a.difference_count(&b) == 0);
    }

    #[test]
    fn waste_counts_equal_two_call_path(a in bitset_strategy(150), b in bitset_strategy(150)) {
        // The fused single-pass kernel must agree with the two
        // independent directed-difference scans it replaced.
        prop_assert_eq!(
            a.waste_counts(&b),
            (a.difference_count(&b), b.difference_count(&a))
        );
    }

    // ----- Expected-waste distance -----

    #[test]
    fn waste_axioms(
        a in bitset_strategy(100),
        b in bitset_strategy(100),
        pa in 0.0..1.0f64,
        pb in 0.0..1.0f64,
    ) {
        let d = expected_waste(pa, &a, pb, &b);
        prop_assert!(d >= 0.0);
        // Symmetry.
        prop_assert_eq!(d, expected_waste(pb, &b, pa, &a));
        // Identity of indiscernibles (one direction).
        prop_assert_eq!(expected_waste(pa, &a, pb, &a), 0.0);
    }

    #[test]
    fn waste_scales_with_probability(
        a in bitset_strategy(100),
        b in bitset_strategy(100),
        p in 0.01..1.0f64,
    ) {
        // d is linear in the probability masses.
        let d1 = expected_waste(p, &a, p, &b);
        let d2 = expected_waste(2.0 * p, &a, 2.0 * p, &b);
        prop_assert!((d2 - 2.0 * d1).abs() < 1e-9);
    }

    // ----- Framework invariants -----

    #[test]
    fn framework_membership_matches_rasterization(
        rects in prop::collection::vec(
            (0.0..18.0f64, 0.5..6.0f64).prop_map(|(lo, len)| {
                Rect::new(vec![Interval::new(lo, (lo + len).min(20.0)).unwrap()])
            }),
            1..12,
        ),
    ) {
        let grid = Grid::cube(0.0, 20.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid.clone(), &rects, &probs, None);
        // Every hyper-cell's membership equals the set of rects
        // overlapping each of its cells.
        for hc in fw.hypercells() {
            for &cell in &hc.cells {
                let cell_rect = grid.cell_rect(cell);
                for (i, r) in rects.iter().enumerate() {
                    prop_assert_eq!(
                        hc.members.contains(i),
                        r.intersects(&cell_rect),
                        "cell {:?} rect {}", cell, r
                    );
                }
            }
        }
        // Hyper-cells partition the non-empty cells: distinct
        // hyper-cells have distinct membership vectors.
        for (x, a) in fw.hypercells().iter().enumerate() {
            for b in fw.hypercells().iter().skip(x + 1) {
                prop_assert!(a.members != b.members, "duplicate membership not merged");
            }
        }
    }

    #[test]
    fn framework_probability_is_conserved(
        rects in prop::collection::vec(
            (0.0..18.0f64, 0.5..6.0f64).prop_map(|(lo, len)| {
                Rect::new(vec![Interval::new(lo, (lo + len).min(20.0)).unwrap()])
            }),
            1..10,
        ),
    ) {
        let grid = Grid::cube(0.0, 20.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid.clone(), &rects, &probs, None);
        // Total hyper-cell probability == sum of the probabilities of
        // all non-empty cells.
        let total: f64 = fw.hypercells().iter().map(|h| h.prob).sum();
        let expected: f64 = grid
            .iter()
            .filter(|&c| {
                let cr = grid.cell_rect(c);
                rects.iter().any(|r| r.intersects(&cr))
            })
            .map(|c| probs.prob(c))
            .sum();
        prop_assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }

    // ----- Cross-algorithm waste sanity -----

    #[test]
    fn all_algorithms_zero_waste_at_full_k(
        rects in prop::collection::vec(
            (0.0..18.0f64, 0.5..6.0f64).prop_map(|(lo, len)| {
                Rect::new(vec![Interval::new(lo, (lo + len).min(20.0)).unwrap()])
            }),
            1..10,
        ),
    ) {
        let grid = Grid::cube(0.0, 20.0, 1, 10).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &rects, &probs, None);
        let l = fw.hypercells().len();
        let algs: Vec<Box<dyn ClusteringAlgorithm>> = vec![
            Box::new(KMeans::new(KMeansVariant::MacQueen)),
            Box::new(KMeans::new(KMeansVariant::Forgy)),
            Box::new(MstClustering::new()),
            Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
        ];
        for alg in &algs {
            let c = alg.cluster(&fw, l);
            prop_assert_eq!(
                c.total_expected_waste(&fw),
                0.0,
                "{} wasted at K = l",
                alg.name()
            );
        }
    }
}

// ----- Dynamic clustering churn -----

/// One random churn operation against a `DynamicClustering`.
#[derive(Debug, Clone)]
enum ChurnOp {
    Subscribe(f64, f64),
    /// Unsubscribe the id at this index among issued ids (mod count).
    Unsubscribe(usize),
    /// Resubscribe the id at this index to a new interval.
    Resubscribe(usize, f64, f64),
    Rebalance,
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0.0..18.0f64, 0.5..2.0f64).prop_map(|(lo, w)| ChurnOp::Subscribe(lo, lo + w)),
        (0usize..64).prop_map(ChurnOp::Unsubscribe),
        (0usize..64, 0.0..18.0f64, 0.5..2.0f64).prop_map(|(i, lo, w)| ChurnOp::Resubscribe(
            i,
            lo,
            lo + w
        )),
        Just(ChurnOp::Rebalance),
    ]
}

proptest! {
    #[test]
    fn dynamic_churn_keeps_ids_and_counts_consistent(
        ops in prop::collection::vec(churn_op_strategy(), 1..40),
        k in 1usize..5,
    ) {
        use pubsub_core::{DynamicClustering, DynamicError};
        let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut s = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), k);
        // Shadow model: the rect each issued id currently holds.
        let mut live: Vec<Option<Rect>> = Vec::new();
        for op in &ops {
            match *op {
                ChurnOp::Subscribe(lo, hi) => {
                    let rect = Rect::new(vec![Interval::new(lo, hi).unwrap()]);
                    let id = s.subscribe(rect.clone());
                    // Ids are issued densely and stay stable forever.
                    prop_assert_eq!(id.0, live.len());
                    live.push(Some(rect));
                }
                ChurnOp::Unsubscribe(i) if !live.is_empty() => {
                    let i = i % live.len();
                    let id = pubsub_core::SubscriptionId(i);
                    match (&live[i], s.unsubscribe(id)) {
                        (Some(_), Ok(())) => live[i] = None,
                        (None, Err(DynamicError::UnknownSubscription(bad))) => {
                            prop_assert_eq!(bad, id);
                        }
                        (state, res) => {
                            return Err(TestCaseError::fail(format!(
                                "unsubscribe({i}) gave {res:?} with shadow {state:?}"
                            )));
                        }
                    }
                }
                ChurnOp::Resubscribe(i, lo, hi) if !live.is_empty() => {
                    let i = i % live.len();
                    let id = pubsub_core::SubscriptionId(i);
                    let rect = Rect::new(vec![Interval::new(lo, hi).unwrap()]);
                    match (&live[i], s.resubscribe(id, rect.clone())) {
                        (Some(_), Ok(())) => live[i] = Some(rect),
                        (None, Err(DynamicError::UnknownSubscription(bad))) => {
                            prop_assert_eq!(bad, id);
                        }
                        (state, res) => {
                            return Err(TestCaseError::fail(format!(
                                "resubscribe({i}) gave {res:?} with shadow {state:?}"
                            )));
                        }
                    }
                }
                ChurnOp::Unsubscribe(_) | ChurnOp::Resubscribe(..) => {}
                ChurnOp::Rebalance => {
                    s.rebalance();
                }
            }
            prop_assert_eq!(
                s.num_subscriptions(),
                live.iter().filter(|r| r.is_some()).count()
            );
        }
        // After a final rebalance, points covered by no live rect have
        // no group, and every live rect's center has one.
        s.rebalance();
        let group_at = |p: &geometry::Point| s.clustering().group_of_point(s.framework(), p);
        for r in live.iter().flatten() {
            let iv = r.interval(0);
            let center = geometry::Point::new(vec![(iv.lo() + iv.hi()) / 2.0]);
            prop_assert!(group_at(&center).is_some(), "live center uncovered");
        }
        if live.iter().all(|r| r.is_none()) {
            prop_assert_eq!(group_at(&geometry::Point::new(vec![10.0])), None);
        }
    }
}
