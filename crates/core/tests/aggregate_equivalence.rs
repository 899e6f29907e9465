//! Subscription aggregation is a pure optimization: serving through
//! the class-universe [`AggregatePlan`] — scalar `serve`, and
//! `serve_chunk` in fixed chunks at 1 and 8 threads — makes the
//! oracle's decision over the concrete population (`oracle::decide`:
//! brute-force scan plus the paper-literal matcher) and expands to its
//! concrete interested set, for all five grid algorithms. The always-on
//! service path is pinned by `service_path_agrees_with_the
//! _aggregated_plan` below.

mod oracle;

use std::sync::Arc;

use geometry::{Grid, Interval, Point, Rect};
use oracle::{algorithms, decide, point_strategy};
use proptest::prelude::*;
use pubsub_core::{
    parallel, AggregatePlan, AggregateScratch, Aggregation, BitSet, BrokerService, CellProbability,
    Delivery, DynamicClustering, GridFramework, KMeans, KMeansVariant, ServiceConfig,
};

/// Bounded random interval inside (0, 20]: unlike the oracle's, never
/// unbounded, so the class rectangles stay finite templates.
fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0.0..20.0f64, 0.0..20.0f64).prop_map(|(a, b)| Interval::from_unordered(a, b))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), 2).prop_map(Rect::new)
}

/// A near-duplicate population: a small template pool, each slot
/// picking one template — so aggregation genuinely collapses slots.
fn population_strategy() -> impl Strategy<Value = Vec<Rect>> {
    (
        prop::collection::vec(rect_strategy(), 1..8),
        prop::collection::vec(0usize..64, 1..40),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|i| pool[i % pool.len()].clone())
                .collect()
        })
}

fn grid() -> Grid {
    Grid::cube(0.0, 20.0, 2, 10).unwrap()
}

/// Serves every point through `plan.serve_chunk` in fixed 8-event
/// chunks under a pinned thread count, the decomposition the sim uses.
fn chunked_aggregated(plan: &AggregatePlan, points: &[Point], threads: usize) -> Vec<Delivery> {
    parallel::with_threads(threads, || {
        parallel::par_chunks(points.len(), 8, |range| {
            let mut scratch = AggregateScratch::new();
            let mut out = Vec::with_capacity(range.len());
            plan.serve_chunk(range, |e| &points[e], &mut out, &mut scratch);
            out
        })
        .into_iter()
        .flatten()
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The aggregated serve path makes the oracle's decision over the
    /// concrete population and expands to its interested set, for all
    /// five grid algorithms, scalar and chunked at 1 and 8 threads.
    #[test]
    fn aggregated_serve_equals_concrete_for_all_algorithms(
        subs in population_strategy(),
        points in prop::collection::vec(point_strategy(), 1..30),
        threshold in 0.0..1.0f64,
        k in 1usize..6,
    ) {
        let grid = grid();
        let probs = CellProbability::uniform(&grid);
        let agg = Arc::new(Aggregation::build(&subs));
        let concrete_fw = GridFramework::build(grid.clone(), &subs, &probs, None);
        let class_fw = agg.build_framework(grid.clone(), &probs, None);
        for alg in algorithms() {
            let concrete_clustering = alg.cluster(&concrete_fw, k);
            let class_clustering = alg.cluster(&class_fw, k);
            let agg_plan = AggregatePlan::compile(
                &class_fw,
                &class_clustering,
                threshold,
                agg.clone(),
            );
            let (decisions, sets): (Vec<Delivery>, Vec<BitSet>) = points
                .iter()
                .map(|p| decide(&concrete_fw, &concrete_clustering, threshold, &subs, p))
                .unzip();
            let mut asr = AggregateScratch::new();
            for ((p, decision), set) in points.iter().zip(&decisions).zip(&sets) {
                prop_assert_eq!(
                    agg_plan.serve(p, &mut asr),
                    *decision,
                    "{}: decision diverged at {:?}",
                    alg.name(),
                    p
                );
                prop_assert!(
                    asr.interested().iter().copied().eq(set.iter()),
                    "{}: interested set diverged at {:?}",
                    alg.name(),
                    p
                );
            }
            for threads in [1usize, 8] {
                let chunked = chunked_aggregated(&agg_plan, &points, threads);
                prop_assert_eq!(
                    &chunked,
                    &decisions,
                    "{} diverged at {} thread(s)",
                    alg.name(),
                    threads
                );
            }
        }
    }
}

/// The always-on service path (multi-threaded ingest over the
/// concrete plan) agrees with the aggregated plan on every recorded
/// decision and interested count over a static population.
#[test]
fn service_path_agrees_with_the_aggregated_plan() {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(15);
    let pool: Vec<Rect> = (0..12)
        .map(|_| {
            let lo: f64 = rng.gen_range(0.0..16.0);
            let w: f64 = rng.gen_range(0.5..4.0);
            let lo2: f64 = rng.gen_range(0.0..16.0);
            let w2: f64 = rng.gen_range(0.5..4.0);
            Rect::new(vec![
                Interval::new(lo, (lo + w).min(20.0)).unwrap(),
                Interval::new(lo2, (lo2 + w2).min(20.0)).unwrap(),
            ])
        })
        .collect();
    let subs: Vec<Rect> = (0..200)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect();
    let points: Vec<Point> = (0..300)
        .map(|_| Point::new(vec![rng.gen_range(-1.0..21.0), rng.gen_range(-1.0..21.0)]))
        .collect();

    let grid = grid();
    let probs = CellProbability::uniform(&grid);
    let algorithm = KMeans::new(KMeansVariant::MacQueen);
    let threshold = 0.3;

    // Aggregated side. The service's cold rebuild seeds K-means
    // round-robin, so seed the class clustering the same way — the
    // weighted class framework has the same hyper-cell order as the
    // concrete one, making the partitions (and group ids) identical.
    let agg = Arc::new(Aggregation::build(&subs));
    let class_fw = agg.build_framework(grid.clone(), &probs, None);
    let l = class_fw.hypercells().len();
    let k = 8usize.min(l);
    let seed: Vec<usize> = (0..l).map(|h| h % k).collect();
    let (clustering, _) = algorithm.cluster_seeded(&class_fw, k, &seed);
    let agg_plan = AggregatePlan::compile(&class_fw, &clustering, threshold, agg.clone());

    // Service side: static population, multi-threaded ingest.
    let mut dynamic = DynamicClustering::new(grid, probs, algorithm, 8);
    for r in &subs {
        dynamic.subscribe(r.clone());
    }
    dynamic.rebalance();
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 2,
            threshold,
            ..ServiceConfig::default()
        },
    )
    .expect("initial plan compiles");
    for p in &points {
        service.offer(p.clone());
    }
    service.drain();
    let (report, _) = service.shutdown();
    assert_eq!(
        report.records.len(),
        points.len(),
        "nothing shed under Block"
    );

    let mut scratch = AggregateScratch::new();
    for record in &report.records {
        let p = &points[record.id as usize];
        let d = agg_plan.serve(p, &mut scratch);
        assert_eq!(
            record.decision, d,
            "decision diverged at event {}",
            record.id
        );
        assert_eq!(
            record.interested as usize,
            scratch.interested().len(),
            "interested count diverged at event {}",
            record.id
        );
    }
}
