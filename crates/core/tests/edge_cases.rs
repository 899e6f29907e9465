//! Edge-case coverage for the clustering core: degenerate populations,
//! extreme K values, single-subscriber systems.

use geometry::{Grid, Interval, Point, Rect};
use pubsub_core::{
    BitSet, CellProbability, ClusteringAlgorithm, Delivery, DynamicClustering, GridFramework,
    GridMatcher, KMeans, KMeansVariant, MstClustering, NoLossClustering, NoLossConfig,
    PairsStrategy, PairwiseGrouping, SubscriptionIndex,
};

fn rect1(lo: f64, hi: f64) -> Rect {
    Rect::new(vec![Interval::new(lo, hi).unwrap()])
}

fn grid() -> Grid {
    Grid::cube(0.0, 10.0, 1, 10).unwrap()
}

#[test]
fn single_subscription_system() {
    let subs = vec![rect1(2.0, 6.0)];
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    assert_eq!(fw.hypercells().len(), 1);
    for alg in [
        Box::new(KMeans::new(KMeansVariant::MacQueen)) as Box<dyn ClusteringAlgorithm>,
        Box::new(KMeans::new(KMeansVariant::Forgy)),
        Box::new(MstClustering::new()),
        Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
    ] {
        let c = alg.cluster(&fw, 5);
        assert_eq!(c.num_groups(), 1, "{}", alg.name());
        assert_eq!(c.total_expected_waste(&fw), 0.0, "{}", alg.name());
    }
}

#[test]
fn identical_subscriptions_collapse_to_one_hypercell() {
    let subs = vec![rect1(0.0, 10.0); 50];
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    assert_eq!(fw.hypercells().len(), 1);
    assert_eq!(fw.hypercells()[0].members.count(), 50);
}

#[test]
fn k_zero_is_clamped_to_one() {
    let subs = vec![rect1(0.0, 4.0), rect1(6.0, 10.0)];
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    for alg in [
        Box::new(KMeans::new(KMeansVariant::MacQueen)) as Box<dyn ClusteringAlgorithm>,
        Box::new(MstClustering::new()),
        Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
    ] {
        let c = alg.cluster(&fw, 0);
        assert_eq!(c.num_groups(), 1, "{}", alg.name());
    }
}

#[test]
fn disjoint_subscribers_never_share_groups_at_sufficient_k() {
    // Ten pairwise-disjoint unit intervals: at K = 10 every algorithm
    // should isolate them (zero waste is achievable).
    let subs: Vec<Rect> = (0..10).map(|i| rect1(i as f64, i as f64 + 1.0)).collect();
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    for alg in [
        Box::new(KMeans::new(KMeansVariant::Forgy)) as Box<dyn ClusteringAlgorithm>,
        Box::new(MstClustering::new()),
        Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
    ] {
        let c = alg.cluster(&fw, 10);
        assert_eq!(
            c.total_expected_waste(&fw),
            0.0,
            "{} wasted on disjoint input",
            alg.name()
        );
    }
}

#[test]
fn matcher_with_unmatched_universe() {
    // Subscriptions exist but the event lands where nobody subscribed.
    let subs = vec![rect1(0.0, 2.0)];
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    let c = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 1);
    let m = GridMatcher::new(&fw, &c);
    let interested = BitSet::new(1);
    assert_eq!(
        m.match_event(&Point::new(vec![9.0]), &interested),
        Delivery::Unicast
    );
}

#[test]
fn noloss_k_zero_keeps_nothing() {
    let subs = vec![rect1(0.0, 5.0), rect1(3.0, 8.0)];
    let nl = NoLossClustering::build(
        &subs,
        &[],
        &NoLossConfig {
            max_rects: 10,
            iterations: 1,
            max_candidates_per_round: 100,
        },
        0,
    );
    assert!(nl.regions().is_empty());
    assert_eq!(nl.match_event(&Point::new(vec![4.0])), None);
}

#[test]
fn noloss_zero_iterations_uses_raw_rectangles() {
    let subs = vec![rect1(0.0, 5.0), rect1(3.0, 8.0)];
    let nl = NoLossClustering::build(
        &subs,
        &[],
        &NoLossConfig {
            max_rects: 10,
            iterations: 0,
            max_candidates_per_round: 100,
        },
        10,
    );
    // No intersections generated: the two raw rectangles are the pool.
    assert_eq!(nl.regions().len(), 2);
}

#[test]
fn dynamic_clustering_all_unsubscribed() {
    let mut d = DynamicClustering::new(
        grid(),
        CellProbability::uniform(&grid()),
        KMeans::new(KMeansVariant::MacQueen),
        3,
    );
    let a = d.subscribe(rect1(0.0, 5.0));
    let b = d.subscribe(rect1(5.0, 10.0));
    d.rebalance();
    d.unsubscribe(a).unwrap();
    d.unsubscribe(b).unwrap();
    d.rebalance();
    assert_eq!(d.num_subscriptions(), 0);
    assert_eq!(d.clustering().num_groups(), 0);
    let p = Point::new(vec![2.0]);
    assert_eq!(d.clustering().group_of_point(d.framework(), &p), None);
}

#[test]
fn matchers_on_universe_rectangles() {
    // All-space subscriptions: every event matches everything.
    let subs = vec![Rect::new(vec![Interval::all(); 2]); 5];
    let idx = SubscriptionIndex::build(&subs);
    let p = Point::new(vec![123.0, -456.0]);
    assert_eq!(idx.matching(&p), vec![0, 1, 2, 3, 4]);
}

#[test]
fn bitset_zero_universe() {
    let a = BitSet::new(0);
    let b = BitSet::new(0);
    assert_eq!(a.count(), 0);
    assert!(a.is_empty());
    assert_eq!(a.difference_count(&b), 0);
    assert!(a.is_subset(&b));
    assert_eq!(a.iter().count(), 0);
}

#[test]
fn approx_pairs_with_two_cells() {
    // The secretary scan must behave with the minimum possible pool.
    let subs = vec![rect1(0.0, 4.0), rect1(6.0, 10.0)];
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    assert_eq!(fw.hypercells().len(), 2);
    let c = PairwiseGrouping::new(PairsStrategy::Approximate { seed: 1 }).cluster(&fw, 1);
    assert_eq!(c.num_groups(), 1);
}

#[test]
fn outlier_removal_of_everything_but_one() {
    let subs: Vec<Rect> = (0..5)
        .map(|i| rect1(i as f64 * 2.0, i as f64 * 2.0 + 2.0))
        .collect();
    let fw = GridFramework::build(grid(), &subs, &CellProbability::uniform(&grid()), None);
    let filtered = fw.remove_outliers(1.0);
    // Dropping 100% still rounds to the full count; framework survives.
    assert!(filtered.hypercells().len() <= fw.hypercells().len());
}
