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
//! timing every stage.
//!
//! Correctness gates on the N = 50 000 population, asserted before
//! anything is written:
//!
//! * the aggregated serve is cross-checked against the concrete
//!   [`DispatchPlan`] (equal decisions *and* interested sets);
//! * the class framework and its clustering pass the [`Validator`]
//!   audit;
//! * a regression guard keeps the class-collapse ratio above its
//!   floor.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use geometry::{Grid, Point, Rect};
use pubsub_bench::Scale;
use pubsub_core::{
    parallel, AggregatePlan, AggregateScratch, Aggregation, CellProbability, ClusteringAlgorithm,
    DispatchPlan, DispatchScratch, GridFramework, KMeans, KMeansVariant, Validator,
};
use workload::NearDupModel;

const GROUPS: usize = 16;
const THRESHOLD: f64 = 0.3;

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
        "{:>9} {:>8} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>12}   ({host_threads} hardware thread(s), {workers} resolved worker(s))",
        "n", "distinct", "classes", "ratio", "agg ms", "fw ms", "clus ms", "plan ms", "scalar e/s",
    );

    let mut records: Vec<RunRecord> = Vec::new();
    for &(n, distinct, num_events) in &configs {
        let model = NearDupModel::new(n, distinct, 2, 2002).expect("model params are valid");
        let w = model.generate(num_events);
        let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
        let events: Vec<Point> = w.events.iter().map(|e| e.point.clone()).collect();
        let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).expect("model grid");
        let probs = CellProbability::uniform(&grid);
        let algorithm = KMeans::new(KMeansVariant::MacQueen);

        // Stage 1: canonicalize N concrete subscriptions into classes.
        let start = Instant::now();
        let agg = Arc::new(Aggregation::build(&rects));
        let aggregate_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 2: weighted class framework over the full grid.
        let start = Instant::now();
        let framework = agg.build_framework(grid.clone(), &probs, None);
        let framework_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 3: cluster the class universe.
        let start = Instant::now();
        let clustering = algorithm.cluster(&framework, GROUPS);
        let cluster_ms = start.elapsed().as_secs_f64() * 1e3;

        // Stage 4: compile the aggregate plan.
        let start = Instant::now();
        let plan = AggregatePlan::compile(&framework, &clustering, THRESHOLD, agg.clone());
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;

        // Serve the stream, expanding every exact interested set.
        let mut scratch = AggregateScratch::new();
        let start = Instant::now();
        for p in &events {
            black_box(plan.serve(p, &mut scratch));
            black_box(scratch.interested().len());
        }
        let scalar_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

        let ratio = agg.ratio();
        let classes = agg.num_classes();

        // Correctness gates at the smallest scale (the concrete
        // framework is O(N · cells), so they stay on the 50k
        // population).
        if n == 50_000 {
            let concrete_fw = GridFramework::build(grid.clone(), &rects, &probs, None);
            let concrete_clustering = algorithm.cluster(&concrete_fw, GROUPS);
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

            let mut audit = Validator::new();
            audit
                .check_framework(&framework)
                .check_clustering(&framework, &clustering);
            audit.assert_clean("scale aggregation audit");

            // Regression guard: the near-dup workload must keep
            // collapsing classes (observed ~26x at this config).
            assert!(
                ratio >= 20.0,
                "class-collapse ratio regressed: {ratio:.2}x < 20x"
            );
            println!("{n:>9} guard: ratio {ratio:.1}x >= 20x");
        }

        println!(
            "{n:>9} {distinct:>8} {classes:>8} {ratio:>6.1}x {aggregate_ms:>9.1} {framework_ms:>9.1} {cluster_ms:>9.1} {compile_ms:>9.1} {scalar_eps:>12.0}"
        );
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
        });
    }

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
    let _ = writeln!(json, "  \"groups\": {GROUPS}, \"threshold\": {THRESHOLD},");
    json.push_str(
        "  \"note\": \"Zipf-head near-duplicate population aggregated into canonical classes; \
         ratio = concrete / classes; stage times are one cold build; events/sec serve the \
         AggregatePlan with exact concrete interested sets\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"distinct\": {}, \"classes\": {}, \"aggregation_ratio\": {:.2}, \
             \"aggregate_ms\": {:.3}, \"framework_ms\": {:.3}, \"cluster_ms\": {:.3}, \
             \"compile_ms\": {:.3}, \"events_per_sec_scalar\": {:.0}}}",
            r.n,
            r.distinct,
            r.classes,
            r.ratio,
            r.aggregate_ms,
            r.framework_ms,
            r.cluster_ms,
            r.compile_ms,
            r.scalar_eps,
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_scale.json", &json);
    println!();
    println!("wrote {} ({} runs)", path.display(), records.len());
}
