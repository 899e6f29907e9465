//! Property-based tests of the matching pipeline's correctness
//! invariants, on randomly generated rectangle populations; every
//! interested set is the oracle's brute-force scan.

mod oracle;

use geometry::Point;
use oracle::{algorithms, build_framework, decide, interested, rect_strategy};
use proptest::prelude::*;
use pubsub_core::{
    ClusteringAlgorithm, Delivery, KMeans, KMeansVariant, MstClustering, NoLossClustering,
    NoLossConfig,
};

/// Points on the grid only, unlike the oracle's: a point off the grid
/// has no cell, so the coverage check below would pass it vacuously.
fn on_grid_point_strategy() -> impl Strategy<Value = Point> {
    prop::collection::vec(0.01..20.0f64, 2).prop_map(Point::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A kept cell's membership vector includes every subscriber whose
    /// rectangle contains any point of the cell, and a group's members
    /// are the union of its cells' — so the matched group holds the
    /// whole interested set (the dispatch plans decide from the
    /// interested count as the hit count on that premise) and grid
    /// matching can only ever OVER-deliver, never under-deliver. Every
    /// algorithm, on complete and truncated frameworks.
    #[test]
    fn grid_groups_cover_all_interested_subscribers(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        p in on_grid_point_strategy(),
        max_cells in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
    ) {
        let fw = build_framework(&subs, max_cells);
        let interested = interested(&subs, &p);
        for alg in algorithms() {
            let clustering = alg.cluster(&fw, 4);
            if let Some(group) = clustering.group_of_point(&fw, &p) {
                let members = &clustering.groups()[group].members;
                for i in interested.iter() {
                    prop_assert!(
                        members.contains(i),
                        "{}: interested subscriber {i} missing from matched group",
                        alg.name()
                    );
                }
            } else if max_cells.is_none() {
                // No cell kept for this point ⇒ a complete framework
                // must know nobody subscribed there.
                prop_assert!(interested.is_empty(),
                    "{}: point with interested subscribers fell off the grid", alg.name());
            }
        }
    }

    /// The matcher's multicast decision always targets a group whose
    /// membership is a superset of the interested set.
    #[test]
    fn matcher_multicast_is_superset_of_interested(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        p in on_grid_point_strategy(),
        threshold in 0.0..1.0f64,
    ) {
        let fw = build_framework(&subs, None);
        let clustering = MstClustering::new().cluster(&fw, 4);
        let (decision, interested) = decide(&fw, &clustering, threshold, &subs, &p);
        if let Delivery::Multicast { group } = decision {
            prop_assert!(interested.is_subset(&clustering.groups()[group].members));
        }
    }

    /// The no-loss property on arbitrary rectangle populations: any
    /// matched region's subscribers all contain the event point.
    #[test]
    fn noloss_regions_never_over_deliver(
        subs in prop::collection::vec(rect_strategy(), 1..15),
        p in on_grid_point_strategy(),
    ) {
        let cfg = NoLossConfig { max_rects: 60, iterations: 2, max_candidates_per_round: 5_000 };
        let nl = NoLossClustering::build(&subs, &[], &cfg, 30);
        if let Some(region) = nl.match_event(&p) {
            let r = &nl.regions()[region];
            prop_assert!(r.rect.contains(&p));
            prop_assert!(r.subscribers.is_subset(&interested(&subs, &p)),
                "no-loss delivered to an uninterested subscriber");
        }
    }

    /// The two matching engines agree on arbitrary inputs: the R-tree
    /// index and the brute-force scan.
    #[test]
    fn matching_engines_agree(
        subs in prop::collection::vec(rect_strategy(), 0..25),
        p in on_grid_point_strategy(),
    ) {
        let index = pubsub_core::SubscriptionIndex::build(&subs);
        let brute: Vec<usize> = interested(&subs, &p).iter().collect();
        prop_assert_eq!(index.matching(&p), brute);
    }

    /// Every clustering algorithm produces a complete partition: each
    /// hyper-cell lands in exactly one group.
    #[test]
    fn clusterings_partition_the_hypercells(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        k in 1usize..8,
    ) {
        let fw = build_framework(&subs, None);
        let algs: Vec<Box<dyn ClusteringAlgorithm>> = vec![
            Box::new(KMeans::new(KMeansVariant::MacQueen)),
            Box::new(KMeans::new(KMeansVariant::Forgy)),
            Box::new(MstClustering::new()),
        ];
        for alg in &algs {
            let c = alg.cluster(&fw, k);
            let mut seen = vec![false; fw.hypercells().len()];
            for g in c.groups() {
                for &h in &g.hypercells {
                    prop_assert!(!seen[h], "{}: hyper-cell {h} in two groups", alg.name());
                    seen[h] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "{}: unassigned hyper-cell", alg.name());
            prop_assert!(c.num_groups() <= k.max(1), "{}: too many groups", alg.name());
        }
    }
}
