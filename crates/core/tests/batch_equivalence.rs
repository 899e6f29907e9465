//! Every serve path of the compiled plan answers to one oracle
//! (`oracle::decide`: a brute-force `Rect::contains` scan fed to the
//! paper-literal Figure 5 matcher), event by event: scalar `serve` and
//! the batched cell-bucketed kernel at any batch decomposition, on the
//! decision and on the interested set — for all five grid algorithms,
//! random populations, a truncated framework of bounded rectangles and
//! the bound/edge population below. The
//! count-only tail the service's workers run is held to the same
//! oracle on the edge events through a `BrokerService`. Fixed-chunk
//! `f64` aggregates over the decisions are bit-identical at any thread
//! count, and the No-Loss fold answers to its reference selection.

mod oracle;

use geometry::{Interval, Point, Rect};
use oracle::{
    algorithms, build_framework, decide, edge_events, edge_grid, edge_population, noloss_reference,
    point_strategy, rect_strategy, SLOT_SIZES,
};
use proptest::prelude::*;
use pubsub_core::{
    parallel, BatchScratch, BitSet, BrokerService, CellProbability, ClusteringAlgorithm, Delivery,
    DispatchPlan, DispatchScratch, DynamicClustering, GridFramework, KMeans, KMeansVariant,
    NoLossClustering, NoLossConfig, ServiceConfig, Validator,
};

/// Serves `events` through `plan.serve_batch` in consecutive batches of
/// `batch` events and asserts each event's decision and interested set
/// against `expected`; `context` prefixes every failure message.
fn assert_batches_decide(
    plan: &DispatchPlan,
    events: &[Point],
    batch: usize,
    expected: &[(Delivery, BitSet)],
    context: &str,
) {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let end = (start + batch).min(events.len());
        let before = out.len();
        plan.serve_batch(start..end, |e| &events[e], &mut scratch, &mut out);
        for local in 0..(end - start) {
            let (decision, ref set) = expected[start + local];
            let p = &events[start + local];
            assert!(
                scratch.interested_of(local).eq(set.iter()),
                "{context}, batch {batch}: interested set at {p:?}"
            );
            assert_eq!(
                out[before + local],
                decision,
                "{context}, batch {batch}: decision at {p:?}"
            );
        }
        start = end;
    }
}

/// A failure-message context, a compiled plan and the oracle's decision
/// and interested set for every point.
type OraclePlan = (String, DispatchPlan, Vec<(Delivery, BitSet)>);

/// An [`OraclePlan`] for each of the five algorithms on the complete and
/// the truncated framework over `subs`.
fn oracle_plans(subs: &[Rect], points: &[Point], threshold: f64, k: usize) -> Vec<OraclePlan> {
    let mut plans = Vec::new();
    for max_cells in [None, Some(5)] {
        let fw = build_framework(subs, max_cells);
        for alg in algorithms() {
            let clustering = alg.cluster(&fw, k);
            let plan = DispatchPlan::compile(&fw, &clustering)
                .with_threshold(threshold)
                .with_subscriptions(subs);
            let expected = points
                .iter()
                .map(|p| decide(&fw, &clustering, threshold, subs, p))
                .collect();
            plans.push((
                format!("{} (max_cells {max_cells:?})", alg.name()),
                plan,
                expected,
            ));
        }
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scalar `serve` computes the exact interested set — candidate
    /// pruning through the cell membership is lossless — and the
    /// paper-literal matcher's decision over it, for all five
    /// algorithms, on both complete and truncated frameworks.
    #[test]
    fn serve_equals_brute_force_plus_matcher(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        points in prop::collection::vec(point_strategy(), 1..40),
        threshold in 0.0..1.0f64,
        k in 1usize..6,
    ) {
        let mut scalar = DispatchScratch::new();
        for (context, plan, expected) in oracle_plans(&subs, &points, threshold, k) {
            for (p, (decision, set)) in points.iter().zip(&expected) {
                prop_assert_eq!(
                    plan.serve(p, &mut scalar),
                    *decision,
                    "{}: point {:?}",
                    context,
                    p
                );
                prop_assert!(
                    scalar.interested().iter().copied().eq(set.iter()),
                    "{}: interested set at {:?}",
                    context,
                    p
                );
            }
        }
    }

    /// `serve_batch` (batches of 3 and of every event, below and above
    /// the bucket-sort threshold) makes the same per-event decision and
    /// interested set as scalar `serve` — both are held to the one
    /// oracle on the same generated cases, so neither path is the
    /// other's expected value.
    #[test]
    fn batched_serve_equals_scalar_serve(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        points in prop::collection::vec(point_strategy(), 1..40),
        threshold in 0.0..1.0f64,
        k in 1usize..6,
    ) {
        for (context, plan, expected) in oracle_plans(&subs, &points, threshold, k) {
            for batch in [3usize, points.len()] {
                assert_batches_decide(&plan, &points, batch, &expected, &context);
            }
        }
    }

    /// No-Loss: the allocation-free fold reproduces the reference
    /// selection (max member count, then weight, then lower index, over
    /// all containing regions), on a clustering the `Validator` passes.
    #[test]
    fn noloss_plan_equals_reference_selection(
        subs in prop::collection::vec(rect_strategy(), 1..15),
        points in prop::collection::vec(point_strategy(), 1..40),
    ) {
        let cfg = NoLossConfig { max_rects: 60, iterations: 2, max_candidates_per_round: 5_000 };
        let nl = NoLossClustering::build(&subs, &[], &cfg, 30);
        Validator::new().check_noloss(&subs, &nl).assert_clean("noloss build");
        for p in &points {
            prop_assert_eq!(nl.match_event(p), noloss_reference(&nl, p), "match_event at {:?}", p);
        }
    }

    /// No-Loss: matching in `sim`'s fixed 64-event chunks equals
    /// per-event matching in stream order at 1 and 8 threads.
    #[test]
    fn noloss_chunked_identical_across_threads(
        subs in prop::collection::vec(rect_strategy(), 1..15),
        points in prop::collection::vec(point_strategy(), 1..40),
    ) {
        let cfg = NoLossConfig { max_rects: 60, iterations: 2, max_candidates_per_round: 5_000 };
        let nl = NoLossClustering::build(&subs, &[], &cfg, 30);
        let reference: Vec<Option<usize>> = points.iter().map(|p| nl.match_event(p)).collect();
        for threads in [1, 8] {
            let chunked: Vec<Option<usize>> = parallel::with_threads(threads, || {
                parallel::par_chunks(points.len(), 64, |range| {
                    range.map(|e| nl.match_event(&points[e])).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            });
            prop_assert_eq!(&chunked, &reference, "diverged at {} thread(s)", threads);
        }
    }
}

/// Breakdown-shaped aggregates: scalar `serve` and `serve_batch`, each
/// run in fixed 64-event chunks at 1 and 8 threads, make the oracle's
/// decision on every event, and a `DeliveryBreakdown`-style chunked
/// `f64` reduction over those decisions is bit-identical across paths
/// and thread counts — equal per-event decisions in equal order,
/// combined over the same fixed chunks, leave no room for the sums to
/// drift.
#[test]
fn breakdown_style_aggregates_bit_identical() {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(2002);
    let subs: Vec<Rect> = (0..300)
        .map(|_| {
            let lo = rng.gen_range(0.0..18.0);
            let len = rng.gen_range(0.2..4.0);
            let lo2 = rng.gen_range(0.0..18.0);
            let len2 = rng.gen_range(0.2..4.0);
            Rect::new(vec![
                Interval::new(lo, (lo + len).min(20.0)).unwrap(),
                Interval::new(lo2, (lo2 + len2).min(20.0)).unwrap(),
            ])
        })
        .collect();
    let points: Vec<Point> = (0..2_000)
        .map(|_| Point::new(vec![rng.gen_range(-1.0..21.0), rng.gen_range(-1.0..21.0)]))
        .collect();
    let fw = build_framework(&subs, Some(200));
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 12);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.25)
        .with_subscriptions(&subs);
    let (expected, sets): (Vec<Delivery>, Vec<BitSet>) = points
        .iter()
        .map(|p| decide(&fw, &clustering, 0.25, &subs, p))
        .unzip();

    // Pseudo-cost per event from its decision and interested count —
    // the same shape as the simulator's multicast/unicast cost sums.
    let aggregate = |decisions: &[Delivery]| -> (usize, usize, u64, u64) {
        let partials = parallel::par_chunks(points.len(), 64, |range| {
            let mut multi = 0usize;
            let mut uni = 0usize;
            let mut mc = 0.0f64;
            let mut uc = 0.0f64;
            for e in range {
                match decisions[e] {
                    Delivery::Multicast { group } => {
                        multi += 1;
                        mc += (group as f64 + 1.0).sqrt() * sets[e].count() as f64;
                    }
                    Delivery::Unicast => {
                        uni += 1;
                        uc += 1.5 * sets[e].count() as f64 + 0.25;
                    }
                }
            }
            (multi, uni, mc, uc)
        });
        let mut total = (0usize, 0usize, 0.0f64, 0.0f64);
        for (m, u, mc, uc) in partials {
            total.0 += m;
            total.1 += u;
            total.2 += mc;
            total.3 += uc;
        }
        (total.0, total.1, total.2.to_bits(), total.3.to_bits())
    };

    let runs: Vec<(usize, usize, u64, u64)> = [1usize, 8]
        .iter()
        .flat_map(|&threads| {
            parallel::with_threads(threads, || {
                let scalar: Vec<Delivery> = parallel::par_chunks(points.len(), 64, |range| {
                    let mut scratch = DispatchScratch::new();
                    range
                        .map(|e| plan.serve(&points[e], &mut scratch))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
                let batched: Vec<Delivery> = parallel::par_chunks(points.len(), 64, |range| {
                    let mut scratch = BatchScratch::new();
                    let mut out = Vec::with_capacity(range.len());
                    plan.serve_batch(range, |e| &points[e], &mut scratch, &mut out);
                    out
                })
                .into_iter()
                .flatten()
                .collect();
                assert_eq!(scalar, expected, "scalar serve at {threads} thread(s)");
                assert_eq!(batched, expected, "serve_batch at {threads} thread(s)");
                vec![aggregate(&scalar), aggregate(&batched)]
            })
        })
        .collect();
    for r in &runs {
        assert_eq!(r, &runs[0], "aggregates diverged across paths/threads");
    }
}

/// A framework that really truncates, over bounded rectangles only: none
/// of them overhangs the grid, so an event in a truncated cell is
/// answered by the fallback index only if the plan indexed every
/// rectangle because the framework is not complete. (The proptests'
/// unbounded rectangles overhang the grid anyway, so they would not
/// notice an index built over the overhanging ones alone.) Scalar
/// `serve` and `serve_batch`, in batches of 1, 3 and every event, must
/// make the oracle's decision over its interested set, for all five
/// algorithms, on and off the grid.
#[test]
fn truncated_framework_of_bounded_rectangles_serves_like_the_oracle() {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(40);
    let subs: Vec<Rect> = (0..60)
        .map(|_| {
            Rect::new(
                (0..2)
                    .map(|_| {
                        let lo = rng.gen_range(0.0..16.0);
                        Interval::new(lo, lo + rng.gen_range(0.5..4.0)).unwrap()
                    })
                    .collect(),
            )
        })
        .collect();
    let mut points: Vec<Point> = (0..34)
        .flat_map(|i| {
            (0..34).map(move |j| Point::new(vec![0.65 * i as f64 - 1.1, 0.65 * j as f64 - 1.1]))
        })
        .collect();
    points.extend([
        Point::new(vec![f64::INFINITY, 5.0]),
        Point::new(vec![5.0, f64::NEG_INFINITY]),
    ]);
    let fw = build_framework(&subs, Some(12));
    assert!(
        subs.iter().all(|r| fw.grid().bounds().contains_rect(r)),
        "every rectangle lies inside the grid"
    );
    assert_eq!(fw.hypercells().len(), 12);
    assert!(
        !fw.supports_incremental(),
        "the framework must not be complete"
    );
    let truncated_hits = points
        .iter()
        .filter(|p| fw.grid().cell_of(p).is_some() && fw.hyper_of_point(p).is_none())
        .filter(|p| subs.iter().any(|r| r.contains(p)))
        .count();
    assert!(
        truncated_hits >= 100,
        "only {truncated_hits} events interest someone in a truncated cell"
    );
    for alg in algorithms() {
        let clustering = alg.cluster(&fw, 4);
        let plan = DispatchPlan::compile(&fw, &clustering)
            .with_threshold(0.3)
            .with_subscriptions(&subs);
        let expected: Vec<(Delivery, BitSet)> = points
            .iter()
            .map(|p| decide(&fw, &clustering, 0.3, &subs, p))
            .collect();
        let context = format!("{} on a truncated framework", alg.name());
        let mut scalar = DispatchScratch::new();
        for (p, (decision, set)) in points.iter().zip(&expected) {
            assert_eq!(
                plan.serve(p, &mut scalar),
                *decision,
                "{context}: scalar decision at {p:?}"
            );
            assert!(
                scalar.interested().iter().copied().eq(set.iter()),
                "{context}: scalar interested set at {p:?}"
            );
        }
        for batch in [1usize, 3, points.len()] {
            assert_batches_decide(&plan, &points, batch, &expected, &context);
        }
    }
}

/// What the proptest above cannot reach: events exactly on a bound and
/// one float either side of it, on cell edges, at ±∞ and ±0.0, against
/// slots whose candidate count straddles every unroll width — scalar
/// `serve` and the batched kernel, at batch sizes below, at and above
/// the bucket-sort threshold, must make the oracle's decision over the
/// brute-force interested set on every event. On this grid `x − lo`
/// rounds onto an interior edge for the float just above it, so these
/// events also hold the grid's locate and rasterisation to one cell
/// edge.
#[test]
fn batched_serve_equals_scalar_on_bounds_edges_and_remainders() {
    for dim in 1..=3usize {
        let grid = edge_grid(dim);
        let target = grid
            .cell_of(&Point::new(vec![-0.5; dim]))
            .expect("the target cell is on the grid");
        let target_rect = grid.cell_rect(target);
        let events = edge_events(dim);
        for &n in &SLOT_SIZES {
            let subs = edge_population(dim, n);
            assert_eq!(
                subs.iter().filter(|r| r.intersects(&target_rect)).count(),
                n,
                "dim {dim}: the target cell must hold exactly {n} candidates"
            );
            let probs = CellProbability::uniform(&grid);
            let fw = GridFramework::build(grid.clone(), &subs, &probs, None);
            let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 3);
            let plan = DispatchPlan::compile(&fw, &clustering)
                .with_threshold(0.4)
                .with_subscriptions(&subs);
            let expected: Vec<(Delivery, BitSet)> = events
                .iter()
                .map(|p| decide(&fw, &clustering, 0.4, &subs, p))
                .collect();

            let context = format!("dim {dim}, {n} candidates");
            let mut scalar = DispatchScratch::new();
            for (p, (decision, set)) in events.iter().zip(&expected) {
                assert_eq!(
                    plan.serve(p, &mut scalar),
                    *decision,
                    "{context}: scalar decision at {p:?}"
                );
                assert!(
                    scalar.interested().iter().copied().eq(set.iter()),
                    "{context}: scalar interested set at {p:?}"
                );
            }
            for batch in [1usize, 15, 16, 64, events.len()] {
                assert_batches_decide(&plan, &events, batch, &expected, &context);
            }
        }
    }
}

/// The same events and populations through a `BrokerService`, whose
/// ingest workers serve every window through the kernel's count-only
/// tail: every record's decision and interested count are the oracle's
/// over the service's subscription slots — `NO_SLOT` events (off-grid,
/// or in the unkept empty cell) included.
#[test]
fn service_records_equal_brute_force_on_bounds_edges_and_remainders() {
    for dim in 1..=3usize {
        let grid = edge_grid(dim);
        let events = edge_events(dim);
        for &n in &SLOT_SIZES {
            let probs = CellProbability::uniform(&grid);
            let kmeans = KMeans::new(KMeansVariant::MacQueen);
            let mut dynamic = DynamicClustering::new(grid.clone(), probs, kmeans, 3);
            for rect in edge_population(dim, n) {
                dynamic.subscribe(rect);
            }
            dynamic.try_rebalance().unwrap();
            let expected: Vec<(Delivery, u32)> = events
                .iter()
                .map(|p| {
                    let (decision, set) = decide(
                        dynamic.framework(),
                        dynamic.clustering(),
                        0.4,
                        dynamic.subscription_slots(),
                        p,
                    );
                    (decision, set.count() as u32)
                })
                .collect();

            let service = BrokerService::start(
                dynamic,
                ServiceConfig {
                    ingest_threads: 2,
                    threshold: 0.4,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            for p in &events {
                service.offer(p.clone());
            }
            service.drain();
            let (report, _) = service.shutdown();
            assert!(report.partitions_offered());
            assert_eq!(report.delivered, events.len() as u64);
            for (r, (p, want)) in report.records.iter().zip(events.iter().zip(&expected)) {
                assert_eq!(
                    (r.decision, r.interested),
                    *want,
                    "dim {dim}, {n} candidates: service record at {p:?}"
                );
            }
        }
    }
}

/// An event one float above an interior cell edge, on a grid whose `lo`
/// is not 0: `x − lo` rounds onto the edge there, and a locate that
/// trusted it filed the event in the cell below, where the rectangle
/// starting at the edge was never rasterised — a lost delivery. The
/// second rectangle keeps that lower cell, so no R-tree fallback hides
/// the miss.
#[test]
fn event_one_float_above_a_cell_edge_reaches_the_rectangle_above_it() {
    let grid = edge_grid(1);
    let subs = vec![
        Rect::new(vec![Interval::new(-1.0, -0.25).unwrap()]),
        Rect::new(vec![Interval::new(-1.5, -1.0).unwrap()]),
    ];
    let p = Point::new(vec![f64::next_up(-1.0)]);
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, None);
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 2);
    let plan = DispatchPlan::compile(&fw, &clustering).with_subscriptions(&subs);

    let (expected, brute) = decide(&fw, &clustering, 0.0, &subs, &p);
    assert_eq!(brute.iter().collect::<Vec<_>>(), [0]);
    assert!(
        matches!(expected, Delivery::Multicast { .. }),
        "the matcher must find subscriber 0 in the event's group: {expected:?}"
    );

    let mut scalar = DispatchScratch::new();
    assert_eq!(plan.serve(&p, &mut scalar), expected);
    assert_eq!(scalar.interested(), [0]);

    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    plan.serve_batch(0..1, |_| &p, &mut scratch, &mut out);
    assert_eq!(out, [expected]);
    assert_eq!(scratch.interested_of(0).collect::<Vec<_>>(), [0]);
}
