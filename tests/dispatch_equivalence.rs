//! The compiled dispatch plan is a pure optimization: every interested
//! set is the brute-force one and every delivery decision is the
//! paper-literal matcher's, for all five grid algorithms; the No-Loss
//! matcher reproduces its reference selection; and the simulator's
//! aggregates are bit-identical at any thread count.

use geometry::{Grid, Interval, Point, Rect};
use proptest::prelude::*;
use pubsub_core::{
    parallel, BitSet, CellProbability, Clustering, ClusteringAlgorithm, DispatchPlan,
    DispatchScratch, GridFramework, GridMatcher, KMeans, KMeansVariant, MstClustering,
    NoLossClustering, NoLossConfig, PairsStrategy, PairwiseGrouping,
};

/// Random interval inside (0, 20], sometimes unbounded.
fn interval_strategy() -> impl Strategy<Value = Interval> {
    prop_oneof![
        3 => (0.0..20.0f64, 0.0..20.0f64).prop_map(|(a, b)| Interval::from_unordered(a, b)),
        1 => (0.0..20.0f64).prop_map(Interval::greater_than),
        1 => (0.0..20.0f64).prop_map(Interval::at_most),
        1 => Just(Interval::all()),
    ]
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), 2).prop_map(Rect::new)
}

/// Points both on- and off-grid (the grid covers (0, 20]).
fn point_strategy() -> impl Strategy<Value = Point> {
    prop::collection::vec(-1.0..22.0f64, 2).prop_map(Point::new)
}

/// All five grid clustering algorithms of the paper.
fn algorithms() -> Vec<Box<dyn ClusteringAlgorithm>> {
    vec![
        Box::new(KMeans::new(KMeansVariant::MacQueen)),
        Box::new(KMeans::new(KMeansVariant::Forgy)),
        Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
        Box::new(PairwiseGrouping::new(PairsStrategy::Approximate {
            seed: 9,
        })),
        Box::new(MstClustering::new()),
    ]
}

fn build_framework(subs: &[Rect], max_cells: Option<usize>) -> GridFramework {
    let grid = Grid::cube(0.0, 20.0, 2, 10).unwrap();
    let probs = CellProbability::uniform(&grid);
    GridFramework::build(grid, subs, &probs, max_cells)
}

fn interested_set(subs: &[Rect], p: &Point) -> BitSet {
    BitSet::from_members(
        subs.len(),
        subs.iter()
            .enumerate()
            .filter(|(_, r)| r.contains(p))
            .map(|(i, _)| i),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The self-contained serve path computes the exact interested set
    /// (candidate pruning through the cell membership is lossless) and
    /// the same decision as the matcher fed the brute-force set — for
    /// all five algorithms, on both complete and truncated frameworks.
    #[test]
    fn serve_equals_brute_force_plus_matcher(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        points in prop::collection::vec(point_strategy(), 1..40),
        threshold in 0.0..1.0f64,
        k in 1usize..6,
    ) {
        let sets: Vec<BitSet> = points.iter().map(|p| interested_set(&subs, p)).collect();
        let mut scratch = DispatchScratch::new();
        for max_cells in [None, Some(5)] {
            let fw = build_framework(&subs, max_cells);
            for alg in algorithms() {
                let clustering = alg.cluster(&fw, k);
                let matcher = GridMatcher::new(&fw, &clustering).with_threshold(threshold);
                let plan = DispatchPlan::compile(&fw, &clustering)
                    .with_threshold(threshold)
                    .with_subscriptions(&subs);
                for (p, set) in points.iter().zip(&sets) {
                    let decision = plan.serve(p, &mut scratch);
                    prop_assert!(
                        scratch.interested().iter().copied().eq(set.iter()),
                        "{} (max_cells {:?}): interested set at {:?}",
                        alg.name(),
                        max_cells,
                        p
                    );
                    prop_assert_eq!(
                        decision,
                        matcher.match_event(p, set),
                        "{} (max_cells {:?}): point {:?}",
                        alg.name(),
                        max_cells,
                        p
                    );
                }
            }
        }
    }

    /// No-Loss: the allocation-free fold reproduces the reference
    /// selection (max member count, then weight, then lower index, over
    /// all containing regions).
    #[test]
    fn noloss_plan_equals_reference_selection(
        subs in prop::collection::vec(rect_strategy(), 1..15),
        points in prop::collection::vec(point_strategy(), 1..40),
    ) {
        let cfg = NoLossConfig { max_rects: 60, iterations: 2, max_candidates_per_round: 5_000 };
        let nl = NoLossClustering::build(&subs, &[], &cfg, 30);
        for p in &points {
            let reference = nl
                .regions()
                .iter()
                .enumerate()
                .filter(|(_, r)| r.rect.contains(p))
                .max_by(|(a, ra), (b, rb)| {
                    ra.subscribers
                        .count()
                        .cmp(&rb.subscribers.count())
                        .then_with(|| {
                            ra.weight.partial_cmp(&rb.weight).expect("weight is never NaN")
                        })
                        .then(b.cmp(a))
                })
                .map(|(i, _)| i);
            prop_assert_eq!(nl.match_event(p), reference, "match_event at {:?}", p);
        }
    }
}

/// End-to-end: the numbers the simulator reports for a realistic
/// scenario are bit-identical across thread counts, for all five
/// algorithms. The contract does not depend on the hyper-cell count, so
/// the framework is capped where five cold clusterings (exact pairwise
/// included) stay cheap in the debug profile.
#[test]
fn delivery_breakdown_bits_identical_across_thread_counts() {
    use netsim::TransitStubParams;
    use rand::prelude::*;
    use sim::Evaluator;
    use workload::{PredicateDist, Section3Model};

    let mut rng = StdRng::seed_from_u64(5);
    let topo = netsim::Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
    let model = Section3Model {
        regionalism: 0.4,
        dist: PredicateDist::Uniform,
        num_subscriptions: 150,
        num_events: 80,
    };
    let w = model.generate(&topo, &mut rng);
    let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).unwrap();
    let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
    let sample: Vec<Point> = w.events.iter().map(|e| e.point.clone()).collect();
    let probs = CellProbability::empirical(&grid, &sample);
    let fw = GridFramework::build(grid, &rects, &probs, Some(300));

    let clusterings: Vec<Clustering> = algorithms().iter().map(|a| a.cluster(&fw, 10)).collect();
    let run = |threads: usize| {
        parallel::with_threads(threads, || {
            let mut ev = Evaluator::new(&topo, &w);
            clusterings
                .iter()
                .map(|c| {
                    let bd = ev.grid_clustering_breakdown(&fw, c, 0.25);
                    (
                        bd.events,
                        bd.multicast_events,
                        bd.unicast_events,
                        bd.multicast_cost.to_bits(),
                        bd.unicast_cost.to_bits(),
                        bd.mean_group_nodes.to_bits(),
                        bd.mean_wasted_nodes.to_bits(),
                        bd.mean_interested_nodes.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(8), "breakdowns diverged across thread counts");
}
