//! Criterion benches of the batched kernels (DESIGN.md §13): the
//! blocked one-pass `waste_counts` against the scalar two-pass
//! formulation it replaced, and the cell-bucketed `serve_batch` kernel
//! against scalar `serve`, on a hot-region workload shape. The numbers
//! of record for the two serve calls are
//! `batch.serve_batch_ns_per_event` and `dispatch.serve_ns_per_event`
//! in `benchmark/` — see `docs/BENCHMARK.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use geometry::{Grid, Interval, Point, Rect};
use pubsub_core::{
    BatchScratch, BitSet, CellProbability, ClusteringAlgorithm, Delivery, DispatchPlan,
    DispatchScratch, GridFramework, KMeans, KMeansVariant,
};
use rand::prelude::*;

const GRID_CELLS: usize = 2048;
const GROUPS: usize = 32;
const SUBS: usize = 20_000;
const EVENTS: usize = 20_000;
const BATCH: usize = 4_096;
const HOT_REGION: f64 = 0.05;

fn random_rect(rng: &mut StdRng) -> Rect {
    let (lo, width) = if rng.gen_bool(0.3) {
        (
            rng.gen_range(0.0..HOT_REGION * 0.8),
            rng.gen_range(0.002..0.01),
        )
    } else {
        (rng.gen_range(0.0..0.98), rng.gen_range(0.005..0.02))
    };
    Rect::new(vec![Interval::new(lo, (lo + width).min(1.0)).unwrap()])
}

fn bench_waste_counts(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let universe = 100_000;
    let a = BitSet::from_members(universe, (0..universe).filter(|_| rng.gen_bool(0.3)));
    let b = BitSet::from_members(universe, (0..universe).filter(|_| rng.gen_bool(0.3)));
    let mut group = c.benchmark_group("waste_counts_100k");
    group.sample_size(60);
    group.bench_function("blocked_one_pass", |ben| {
        ben.iter(|| criterion::black_box(a.waste_counts(&b)))
    });
    group.bench_function("scalar_two_pass", |ben| {
        ben.iter(|| criterion::black_box((a.difference_count(&b), b.difference_count(&a))))
    });
    group.finish();
}

fn bench_batched_serve(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2002);
    let subs: Vec<Rect> = (0..SUBS).map(|_| random_rect(&mut rng)).collect();
    let events: Vec<Point> = (0..EVENTS)
        .map(|_| {
            let x = if rng.gen_bool(0.3) {
                rng.gen_range(0.0..HOT_REGION)
            } else {
                rng.gen_range(0.0..1.0)
            };
            Point::new(vec![x])
        })
        .collect();
    let grid = Grid::cube(0.0, 1.0, 1, GRID_CELLS).unwrap();
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, Some(GRID_CELLS));
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, GROUPS);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.15)
        .with_subscriptions(&subs);

    let mut group = c.benchmark_group("serve_20k_events");
    group.sample_size(10);
    let mut scalar = DispatchScratch::new();
    group.bench_function("per_event", |ben| {
        ben.iter(|| {
            for p in &events {
                criterion::black_box(plan.serve(p, &mut scalar));
            }
        })
    });
    let mut scratch = BatchScratch::new();
    let mut out: Vec<Delivery> = Vec::with_capacity(events.len());
    group.bench_function("bucketed", |ben| {
        ben.iter(|| {
            out.clear();
            let mut start = 0;
            while start < events.len() {
                let end = (start + BATCH).min(events.len());
                plan.serve_batch(start..end, |e| &events[e], &mut scratch, &mut out);
                start = end;
            }
            criterion::black_box(out.len());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_waste_counts, bench_batched_serve);
criterion_main!(benches);
