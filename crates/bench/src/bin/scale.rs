//! Million-subscriber scale benchmark: subscription aggregation.
//!
//! Emits `BENCH_scale.json` (machine-readable; under `target/bench/`, or
//! over the committed `results/` copy with `--record`) and a human table
//! on stdout.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin scale [-- --scale quick|medium|paper] [--record]
//! ```
//!
//! The population is a Zipf-head near-duplicate workload
//! ([`workload::NearDupModel`]): N concrete subscribers drawn from a
//! small pool of distinct template rectangles. The bin canonicalizes
//! the population into classes ([`Aggregation`]), builds the weighted
//! class framework, clusters it, compiles the [`AggregatePlan`] and
//! serves a uniform event stream with exact concrete interested sets —
//! timing every stage. A second series builds a [`ShardedAggregate`]
//! and applies churn batches that re-cluster only the slabs (along the
//! selectivity-chosen shard axis) the changed rectangles overlap. A
//! final shard × worker sweep times the parallel sharded build and one
//! mixed add/remove churn batch at the largest configured population.
//!
//! Correctness gates asserted before anything is written:
//!
//! * at quick scale the aggregated serve is cross-checked against the
//!   concrete [`DispatchPlan`] (equal decisions *and* interested sets);
//! * a sharded-parallel smoke builds and churns the same population at
//!   1 and 8 workers and requires bit-identical decisions + interested
//!   sets, with every rebuilt shard passing a [`Validator`] audit;
//! * a regression guard keeps the class-collapse ratio above its
//!   floor;
//! * churned interested sets are spot-checked against brute force.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use geometry::{Grid, Point, Rect};
use pubsub_bench::Scale;
use pubsub_core::{
    parallel, AggregatePlan, AggregateScratch, Aggregation, CellProbability, ClusteringAlgorithm,
    DispatchPlan, DispatchScratch, GridFramework, KMeans, KMeansVariant, ShardedAggregate,
    Validator,
};
use rand::prelude::*;
use workload::NearDupModel;

const GROUPS: usize = 16;
const THRESHOLD: f64 = 0.3;
const SHARDS: usize = 8;
const CHURN_BATCHES: usize = 4;
const CHUNK: usize = 1024;

struct RunRecord {
    n: usize,
    distinct: usize,
    classes: usize,
    ratio: f64,
    aggregate_ms: f64,
    framework_ms: f64,
    cluster_ms: f64,
    compile_ms: f64,
    scalar_eps: f64,
    chunked_eps: f64,
    churn_batch_ms: Vec<f64>,
    shards_reclustered: usize,
}

/// Churn batch: half weight bumps (existing templates), half fresh
/// rectangles near the domain edge.
fn churn_batch(rng: &mut StdRng, templates: &[Rect], size: usize, dim: usize) -> Vec<Rect> {
    (0..size)
        .map(|i| {
            if i % 2 == 0 {
                templates[rng.gen_range(0..templates.len())].clone()
            } else {
                Rect::new(
                    (0..dim)
                        .map(|_| {
                            let lo: f64 = rng.gen_range(0.0..95.0);
                            let w: f64 = rng.gen_range(0.5..5.0);
                            geometry::Interval::new(lo, (lo + w).min(100.0)).unwrap()
                        })
                        .collect(),
                )
            }
        })
        .collect()
}

fn brute_force(rects: &[Rect], p: &Point) -> Vec<usize> {
    rects
        .iter()
        .enumerate()
        .filter(|(_, r)| r.contains(p))
        .map(|(i, _)| i)
        .collect()
}

fn main() {
    let scale = Scale::from_args();
    // (population, distinct templates, events served)
    let configs: Vec<(usize, usize, usize)> = match scale {
        Scale::Quick => vec![(50_000, 2_000, 20_000)],
        Scale::Medium => vec![(50_000, 2_000, 20_000), (250_000, 8_000, 50_000)],
        Scale::Paper => vec![
            (50_000, 2_000, 20_000),
            (250_000, 8_000, 50_000),
            (1_000_000, 20_000, 100_000),
        ],
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallel::num_threads();

    println!(
        "{:>9} {:>8} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>12} {:>12}   ({host_threads} hardware thread(s), {workers} resolved worker(s))",
        "n", "distinct", "classes", "ratio", "agg ms", "fw ms", "clus ms", "plan ms", "scalar e/s", "chunked e/s",
    );

    let mut records: Vec<RunRecord> = Vec::new();
    for &(n, distinct, num_events) in &configs {
        let dim = 2;
        let model = NearDupModel::new(n, distinct, dim, 2002).expect("model params are valid");
        let w = model.generate(num_events);
        let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let events: Vec<Point> = w.events.iter().map(|e| e.point.clone()).collect();
        let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).expect("model grid");
        let probs = CellProbability::uniform(&grid);
        let algorithm = KMeans::new(KMeansVariant::MacQueen);
        let k = GROUPS;

        // Stage 1: canonicalize N concrete subscriptions into classes.
        let start = Instant::now();
        let agg = Arc::new(Aggregation::build_with_grid(&rects, &grid));
        let aggregate_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 2: weighted class framework over the full grid.
        let start = Instant::now();
        let framework = agg.build_framework(grid.clone(), &probs, None);
        let framework_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 3: cluster the class universe.
        let start = Instant::now();
        let clustering = algorithm.cluster(&framework, k);
        let cluster_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 4: compile the aggregate plan.
        let start = Instant::now();
        let plan = AggregatePlan::compile(&framework, &clustering, THRESHOLD, agg.clone());
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;

        // Serve the stream: scalar...
        let mut scratch = AggregateScratch::new();
        let mut total = 0usize;
        let start = Instant::now();
        for p in &events {
            let _ = plan.serve(p, &mut scratch);
            total += scratch.interested().len();
        }
        let scalar_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

        // ...and chunked (the decomposition batch/service paths use).
        let mut deliveries = Vec::new();
        let start = Instant::now();
        let mut lo = 0;
        while lo < events.len() {
            let hi = (lo + CHUNK).min(events.len());
            plan.serve_chunk(lo..hi, |e| &events[e], &mut deliveries, &mut scratch);
            lo = hi;
        }
        let chunked_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
        assert_eq!(deliveries.len(), events.len());

        // Correctness gate: aggregated serve == concrete serve at the
        // smallest scale (the concrete framework is O(N · cells), so
        // the cross-check stays on the 50k population).
        if n == 50_000 {
            let concrete_fw = GridFramework::build(grid.clone(), &rects, &probs, None);
            let concrete_clustering = algorithm.cluster(&concrete_fw, k);
            let concrete_plan = DispatchPlan::compile(&concrete_fw, &concrete_clustering)
                .with_threshold(THRESHOLD)
                .with_subscriptions(&rects);
            let mut cs = DispatchScratch::new();
            for p in events.iter().take(2_000) {
                let d_agg = plan.serve(p, &mut scratch);
                let d_con = concrete_plan.serve(p, &mut cs);
                assert_eq!(d_agg, d_con, "decision diverged at {p:?}");
                assert_eq!(
                    scratch.interested(),
                    cs.interested(),
                    "interested set diverged at {p:?}"
                );
            }
            println!("{n:>9} cross-check: aggregated == concrete over 2000 events");
        }

        // Sharded series: build, audit, churn.
        let mut sharded = ShardedAggregate::build_with_shards(
            &grid,
            agg.clone(),
            CellProbability::uniform,
            &algorithm,
            k,
            THRESHOLD,
            SHARDS,
        );
        let mut rng = StdRng::seed_from_u64(7 + n as u64);
        let templates: Vec<Rect> = rects.iter().take(64).cloned().collect();
        let batch_size = (n / 100).clamp(16, 10_000);
        let mut all_rects = rects.clone();
        let mut churn_batch_ms = Vec::with_capacity(CHURN_BATCHES);
        let mut shards_reclustered = 0usize;
        for _ in 0..CHURN_BATCHES {
            let batch = churn_batch(&mut rng, &templates, batch_size, dim);
            all_rects.extend(batch.iter().cloned());
            let start = Instant::now();
            let report = sharded.apply_churn(&batch, &[], &algorithm);
            churn_batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
            shards_reclustered += report.shards_reclustered;
            assert_eq!(report.added, batch.len());
        }

        // Correctness gate: churned interested sets vs brute force.
        for p in events.iter().take(200) {
            let _ = sharded.serve(p, &mut scratch);
            assert_eq!(
                scratch.interested(),
                brute_force(&all_rects, p),
                "sharded interested set diverged after churn at {p:?}"
            );
        }

        // Sharded-parallel smoke: the worker fan-out is a pure
        // scheduling change — build plus one mixed add/remove churn at
        // 1 and 8 workers must land on bit-identical decisions and
        // interested sets, and every rebuilt shard must pass the full
        // framework + clustering invariant audit.
        if n == 50_000 {
            let smoke_rects: Vec<Rect> = rects.iter().take(5_000).cloned().collect();
            let adds = churn_batch(&mut rng, &templates, 64, dim);
            let removes: Vec<usize> = (0..smoke_rects.len()).step_by(97).take(32).collect();
            let run = |threads: usize| {
                parallel::with_threads(threads, || {
                    let agg = Arc::new(Aggregation::build(&smoke_rects));
                    let mut sh = ShardedAggregate::build_with_shards(
                        &grid,
                        agg,
                        CellProbability::uniform,
                        &algorithm,
                        k,
                        THRESHOLD,
                        4,
                    );
                    let report = sh.apply_churn(&adds, &removes, &algorithm);
                    let mut audit = Validator::new();
                    sh.audit(&mut audit);
                    audit.assert_clean("sharded-parallel smoke audit");
                    let mut scratch = AggregateScratch::new();
                    let served: Vec<_> = events
                        .iter()
                        .take(500)
                        .map(|p| {
                            let d = sh.serve(p, &mut scratch);
                            (d, scratch.interested().to_vec())
                        })
                        .collect();
                    (sh.shard_dim(), report.shards_reclustered, served)
                })
            };
            let serial = run(1);
            let par = run(8);
            assert_eq!(
                serial, par,
                "sharded build/churn diverged between 1 and 8 workers"
            );
            println!(
                "{n:>9} smoke: parallel sharded build/churn identical at 1 vs 8 workers \
                 (axis {}, {} shard re-clusterings, audit clean)",
                serial.0, serial.1
            );
        }

        let ratio = agg.ratio();
        let classes = agg.num_classes();

        // Regression guard: the near-dup workload must keep collapsing
        // classes (observed ~26x at this config).
        if n == 50_000 {
            assert!(
                ratio >= 20.0,
                "class-collapse ratio regressed: {ratio:.2}x < 20x"
            );
            println!("{n:>9} guard: ratio {ratio:.1}x >= 20x");
        }

        let mean_churn = churn_batch_ms.iter().sum::<f64>() / churn_batch_ms.len().max(1) as f64;
        println!(
            "{n:>9} {distinct:>8} {classes:>8} {ratio:>6.1}x {aggregate_ms:>9.1} {framework_ms:>9.1} {cluster_ms:>9.1} {compile_ms:>9.1} {scalar_eps:>12.0} {chunked_eps:>12.0}"
        );
        println!(
            "{n:>9} churn: {mean_churn:>8.2} ms/batch of {batch_size} adds, {shards_reclustered} shard re-clusterings over {CHURN_BATCHES} batches, interested sets exact"
        );
        let _ = total;
        records.push(RunRecord {
            n,
            distinct,
            classes,
            ratio,
            aggregate_ms,
            framework_ms,
            cluster_ms,
            compile_ms,
            scalar_eps,
            chunked_eps,
            churn_batch_ms,
            shards_reclustered,
        });
    }

    // Audit the sharded clusterings on the last (largest) config once
    // more via a fresh build so the audit covers the build path too.
    {
        let &(n, distinct, _) = configs.last().expect("at least one config");
        let model = NearDupModel::new(n.min(50_000), distinct.min(2_000), 2, 2002)
            .expect("model params are valid");
        let w = model.generate(0);
        let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).expect("model grid");
        let agg = Arc::new(Aggregation::build(&rects));
        let fw = agg.build_framework(grid.clone(), &CellProbability::uniform(&grid), None);
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, GROUPS);
        let mut audit = Validator::new();
        audit
            .check_framework(&fw)
            .check_clustering(&fw, &clustering);
        audit.assert_clean("scale aggregation audit");
    }

    // Shard × worker sweep on the largest configured population: the
    // parallel sharded build and one mixed add/remove churn batch are
    // timed per (shards, workers) combination. On a host with a single
    // hardware thread the multi-worker rows measure scheduling overhead
    // only (see results/README.md) — the decisions are bit-identical
    // across the sweep by construction, which the smoke above asserts.
    struct SweepRow {
        n: usize,
        shards: usize,
        workers: usize,
        shard_dim: usize,
        build_ms: f64,
        churn_ms: f64,
    }
    let sweep: Vec<SweepRow> = {
        let &(n, distinct, _) = configs.last().expect("at least one config");
        let model = NearDupModel::new(n, distinct, 2, 2002).expect("model params are valid");
        let w = model.generate(0);
        let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).expect("model grid");
        let algorithm = KMeans::new(KMeansVariant::MacQueen);
        let agg = Arc::new(Aggregation::build_with_grid(&rects, &grid));
        let mut rng = StdRng::seed_from_u64(23);
        let templates: Vec<Rect> = rects.iter().take(64).cloned().collect();
        let adds = churn_batch(&mut rng, &templates, (n / 100).clamp(16, 10_000), 2);
        let removes: Vec<usize> = (0..rects.len()).step_by(199).take(2_000).collect();
        let mut rows = Vec::new();
        for shards in [1usize, 4, 8] {
            for threads in [1usize, 8] {
                let (shard_dim, build_ms, churn_ms) = parallel::with_threads(threads, || {
                    let start = Instant::now();
                    let mut sh = ShardedAggregate::build_with_shards(
                        &grid,
                        agg.clone(),
                        CellProbability::uniform,
                        &algorithm,
                        GROUPS,
                        THRESHOLD,
                        shards,
                    );
                    let build_ms = start.elapsed().as_secs_f64() * 1e3;
                    let start = Instant::now();
                    let _ = sh.apply_churn(&adds, &removes, &algorithm);
                    (
                        sh.shard_dim(),
                        build_ms,
                        start.elapsed().as_secs_f64() * 1e3,
                    )
                });
                println!(
                    "    sweep: n={n} shards={shards} workers={threads} axis={shard_dim} \
                     build {build_ms:.1} ms, churn {churn_ms:.1} ms"
                );
                rows.push(SweepRow {
                    n,
                    shards,
                    workers: threads,
                    shard_dim,
                    build_ms,
                    churn_ms,
                });
            }
        }
        rows
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p pubsub-bench --bin scale -- --scale {}\",",
        match scale {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(
        json,
        "  \"groups\": {GROUPS}, \"threshold\": {THRESHOLD}, \"shards\": {SHARDS},"
    );
    json.push_str(
        "  \"note\": \"Zipf-head near-duplicate population aggregated into canonical classes; \
         ratio = concrete / classes; stage times are one cold build; events/sec serve the \
         AggregatePlan with exact concrete interested sets; churn batches fold adds into a \
         ShardedAggregate, re-clustering only the overlapped slabs along the \
         selectivity-chosen shard axis; the sweep times the parallel sharded build and one \
         mixed add/remove churn batch per (shards, workers) combination\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let churn: Vec<String> = r.churn_batch_ms.iter().map(|m| format!("{m:.3}")).collect();
        let _ = write!(
            json,
            "    {{\"n\": {}, \"distinct\": {}, \"classes\": {}, \"aggregation_ratio\": {:.2}, \
             \"aggregate_ms\": {:.3}, \"framework_ms\": {:.3}, \"cluster_ms\": {:.3}, \
             \"compile_ms\": {:.3}, \"events_per_sec_scalar\": {:.0}, \
             \"events_per_sec_chunked\": {:.0}, \"churn_batch_ms\": [{}], \
             \"shards_reclustered\": {}}}",
            r.n,
            r.distinct,
            r.classes,
            r.ratio,
            r.aggregate_ms,
            r.framework_ms,
            r.cluster_ms,
            r.compile_ms,
            r.scalar_eps,
            r.chunked_eps,
            churn.join(", "),
            r.shards_reclustered
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"sweep\": [\n");
    for (i, s) in sweep.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"shards\": {}, \"workers\": {}, \"shard_dim\": {}, \
             \"build_ms\": {:.3}, \"churn_ms\": {:.3}}}",
            s.n, s.shards, s.workers, s.shard_dim, s.build_ms, s.churn_ms
        );
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_scale.json", &json);
    println!();
    println!("wrote {} ({} runs)", path.display(), records.len());
}
