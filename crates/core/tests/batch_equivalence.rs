//! The batched cell-bucketed serve kernel is a pure optimization:
//! per-event deliveries and interested sets are bit-identical to scalar
//! `serve` for all five grid algorithms, at any batch decomposition and
//! any thread count — so every downstream fixed-chunk `f64` aggregate
//! is bit-identical too. Scalar `serve` itself answers to the
//! paper-literal matcher in `tests/dispatch_equivalence.rs`. The
//! count-only tail the service's workers run is held to the brute-force
//! scan on the edge events through a `BrokerService`.

use geometry::{Grid, Interval, Point, Rect};
use proptest::prelude::*;
use pubsub_core::{
    parallel, BatchScratch, BitSet, BrokerService, CellProbability, ClusteringAlgorithm, Delivery,
    DispatchPlan, DispatchScratch, DynamicClustering, GridFramework, GridMatcher, KMeans,
    KMeansVariant, MstClustering, NoLossClustering, NoLossConfig, PairsStrategy, PairwiseGrouping,
    ServiceConfig,
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The batched serve path computes the exact interested set and the
    /// same decision as scalar `serve`, event by event, at batch sizes
    /// below and above the bucket-sort threshold — for all five
    /// algorithms, on both complete and truncated frameworks.
    #[test]
    fn batched_serve_equals_scalar_serve(
        subs in prop::collection::vec(rect_strategy(), 1..20),
        points in prop::collection::vec(point_strategy(), 1..40),
        threshold in 0.0..1.0f64,
        k in 1usize..6,
    ) {
        let mut scalar = DispatchScratch::new();
        let mut scratch = BatchScratch::new();
        for max_cells in [None, Some(5)] {
            let fw = build_framework(&subs, max_cells);
            for alg in algorithms() {
                let clustering = alg.cluster(&fw, k);
                let plan = DispatchPlan::compile(&fw, &clustering)
                    .with_threshold(threshold)
                    .with_subscriptions(&subs);
                let reference: Vec<(Delivery, Vec<usize>)> = points
                    .iter()
                    .map(|p| {
                        let d = plan.serve(p, &mut scalar);
                        (d, scalar.interested().to_vec())
                    })
                    .collect();
                for batch in [3usize, points.len()] {
                    let mut out = Vec::new();
                    let mut start = 0;
                    while start < points.len() {
                        let end = (start + batch).min(points.len());
                        let before = out.len();
                        plan.serve_batch(start..end, |e| &points[e], &mut scratch, &mut out);
                        for local in 0..(end - start) {
                            prop_assert_eq!(
                                out[before + local],
                                reference[start + local].0,
                                "{} (max_cells {:?}): decision, batch {}, event {}",
                                alg.name(),
                                max_cells,
                                batch,
                                start + local
                            );
                            prop_assert_eq!(
                                scratch.interested_of(local).collect::<Vec<_>>(),
                                reference[start + local].1.clone(),
                                "{} (max_cells {:?}): interested set, batch {}, event {}",
                                alg.name(),
                                max_cells,
                                batch,
                                start + local
                            );
                        }
                        start = end;
                    }
                }
            }
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

/// Breakdown-shaped aggregates: a `DeliveryBreakdown`-style chunked
/// `f64` reduction over the decisions is bit-identical between scalar
/// `serve` and `serve_batch` at 1 and 8 threads — equal per-event
/// decisions in equal order, combined over the same fixed 64-event
/// chunks, leave no room for the sums to drift.
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
    let sets: Vec<BitSet> = points.iter().map(|p| interested_set(&subs, p)).collect();
    let fw = build_framework(&subs, Some(200));
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 12);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.25)
        .with_subscriptions(&subs);

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
                assert_eq!(scalar, batched, "decisions diverged at {threads} thread(s)");
                vec![aggregate(&scalar), aggregate(&batched)]
            })
        })
        .collect();
    for r in &runs {
        assert_eq!(r, &runs[0], "aggregates diverged across paths/threads");
    }
}

/// Candidate counts either side of every power of two a sweep could be
/// unrolled by, plus the benchmark's dense slot (175).
const SLOT_SIZES: [usize; 18] = [
    0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 175,
];

/// Candidate `j`'s interval on dimension `d`: bounded, `greater_than`,
/// `at_most` and `all` in turn, every one of them meeting the
/// target cell `(-1, 0]` and every bound exactly representable.
fn edge_interval(j: usize, d: usize) -> Interval {
    const LO: [f64; 4] = [-0.75, -1.0, -0.5, -1.5];
    const HI: [f64; 4] = [-0.25, 0.0, 0.5, -0.375];
    let pick = j / 4 + d;
    match (j + d) % 4 {
        0 => Interval::new(LO[pick % 4], HI[(pick / 4) % 4]).unwrap(),
        1 => Interval::greater_than(LO[pick % 4]),
        2 => Interval::at_most(HI[pick % 4]),
        _ => Interval::all(),
    }
}

/// Events around everything a candidate bound or the grid can be
/// compared with: each value, moved along one dimension at a time
/// while the others sit inside or on the upper edge of the target cell;
/// then the same value on every dimension at once.
fn edge_events(dim: usize) -> Vec<Point> {
    let mut values = vec![
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        0.0,
        // off-grid, and interior points of each cell
        -3.0,
        2.5,
        -1.3,
        -0.6,
        -0.3,
        0.7,
        1.9,
    ];
    // Every candidate bound and every cell edge of the grid over
    // (-2, 2], each with its two neighbouring floats.
    for on in [
        -2.0, -1.5, -1.0, -0.75, -0.5, -0.375, -0.25, 0.0, 0.5, 1.0, 2.0,
    ] {
        values.extend([on, f64::next_up(on), f64::next_down(on)]);
    }
    let others = [-0.5, 0.0, -0.875, -0.25];
    let mut events = Vec::new();
    for &v in &values {
        for d in 0..dim {
            for shift in 0..others.len() {
                let coords = (0..dim)
                    .map(|e| {
                        if e == d {
                            v
                        } else {
                            others[(shift + e) % others.len()]
                        }
                    })
                    .collect();
                events.push(Point::new(coords));
            }
        }
        events.push(Point::new(vec![v; dim]));
    }
    events
}

/// What the proptest above cannot reach: events exactly on a bound and
/// one float either side of it, on cell edges, at ±∞ and ±0.0, against
/// slots whose candidate count straddles every unroll width — the
/// batched kernel, scalar `serve` and a brute-force `Rect::contains`
/// scan must agree on every interested set, and the first two on every
/// decision, at batch sizes below, at and above the bucket-sort
/// threshold. On this grid `x − lo` rounds onto an interior edge for
/// the float just above it, so these events also hold the grid's
/// locate and rasterisation to one cell edge.
#[test]
fn batched_serve_equals_scalar_on_bounds_edges_and_remainders() {
    for dim in 1..=3usize {
        let grid = Grid::cube(-2.0, 2.0, dim, 4).unwrap();
        let target = grid
            .cell_of(&Point::new(vec![-0.5; dim]))
            .expect("the target cell is on the grid");
        let target_rect = grid.cell_rect(target);
        let events = edge_events(dim);
        for &n in &SLOT_SIZES {
            // An empty target cell is not kept (the R-tree fallback
            // serves it); the population then lives in another cell.
            let subs: Vec<Rect> = if n == 0 {
                vec![Rect::new(vec![Interval::new(1.25, 1.75).unwrap(); dim]); 3]
            } else {
                (0..n)
                    .map(|j| Rect::new((0..dim).map(|d| edge_interval(j, d)).collect()))
                    .collect()
            };
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

            let mut scalar = DispatchScratch::new();
            let reference: Vec<(Delivery, Vec<usize>)> = events
                .iter()
                .map(|p| {
                    let d = plan.serve(p, &mut scalar);
                    let brute: Vec<usize> =
                        (0..subs.len()).filter(|&i| subs[i].contains(p)).collect();
                    assert_eq!(
                        scalar.interested(),
                        &brute[..],
                        "dim {dim}, {n} candidates: scalar serve vs brute force at {p:?}"
                    );
                    (d, scalar.interested().to_vec())
                })
                .collect();

            for batch in [1usize, 15, 16, 64, events.len()] {
                let mut scratch = BatchScratch::new();
                let mut out = Vec::new();
                let mut start = 0;
                while start < events.len() {
                    let end = (start + batch).min(events.len());
                    let before = out.len();
                    plan.serve_batch(start..end, |e| &events[e], &mut scratch, &mut out);
                    for local in 0..(end - start) {
                        let (decision, ref ids) = reference[start + local];
                        assert_eq!(
                            scratch.interested_of(local).collect::<Vec<_>>(),
                            *ids,
                            "dim {dim}, {n} candidates, batch {batch}: interested set at {:?}",
                            events[start + local]
                        );
                        assert_eq!(
                            out[before + local],
                            decision,
                            "dim {dim}, {n} candidates, batch {batch}: decision at {:?}",
                            events[start + local]
                        );
                    }
                    start = end;
                }
            }
        }
    }
}

/// The same events and populations through a `BrokerService`, whose
/// ingest workers serve every window through the kernel's count-only
/// tail: every record's interested count is the brute-force scan's, and
/// its decision the paper-literal matcher's over that scan — `NO_SLOT`
/// events (off-grid, or in the unkept empty cell) included.
#[test]
fn service_records_equal_brute_force_on_bounds_edges_and_remainders() {
    for dim in 1..=3usize {
        let grid = Grid::cube(-2.0, 2.0, dim, 4).unwrap();
        let events = edge_events(dim);
        for &n in &SLOT_SIZES {
            let subs: Vec<Rect> = if n == 0 {
                vec![Rect::new(vec![Interval::new(1.25, 1.75).unwrap(); dim]); 3]
            } else {
                (0..n)
                    .map(|j| Rect::new((0..dim).map(|d| edge_interval(j, d)).collect()))
                    .collect()
            };
            let probs = CellProbability::uniform(&grid);
            let kmeans = KMeans::new(KMeansVariant::MacQueen);
            let mut dynamic = DynamicClustering::new(grid.clone(), probs, kmeans, 3);
            for rect in &subs {
                dynamic.subscribe(rect.clone());
            }
            dynamic.try_rebalance().unwrap();
            let matcher =
                GridMatcher::new(dynamic.framework(), dynamic.clustering()).with_threshold(0.4);
            let expected: Vec<(Delivery, u32)> = events
                .iter()
                .map(|p| {
                    let brute = interested_set(&subs, p);
                    (matcher.match_event(p, &brute), brute.count() as u32)
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
    let grid = Grid::cube(-2.0, 2.0, 1, 4).unwrap();
    let subs = vec![
        Rect::new(vec![Interval::new(-1.0, -0.25).unwrap()]),
        Rect::new(vec![Interval::new(-1.5, -1.0).unwrap()]),
    ];
    let p = Point::new(vec![f64::next_up(-1.0)]);
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, None);
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 2);
    let plan = DispatchPlan::compile(&fw, &clustering).with_subscriptions(&subs);

    let brute = interested_set(&subs, &p);
    assert_eq!(brute.iter().collect::<Vec<_>>(), [0]);
    let expected = GridMatcher::new(&fw, &clustering).match_event(&p, &brute);
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
