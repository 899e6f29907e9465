//! Dispatch benchmark: compiled `DispatchPlan` vs the uncompiled
//! per-event matching path.
//!
//! Emits `BENCH_dispatch.json` (machine-readable; under `target/bench/`, or
//! over the committed `results/` copy with `--record`) and a human table
//! on stdout.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin dispatch [-- --scale quick|medium|paper] [--record]
//! ```
//!
//! Three grid measurements per population size:
//!
//! * **serve**: the full per-event pipeline. Old path = R-tree
//!   `matching_into` + `BitSet::from_members` + `GridMatcher::match_event`
//!   (what `sim`'s evaluator did per event before the plan); plan path =
//!   `DispatchPlan::serve` with a reusable scratch (cell-membership
//!   candidate pruning, zero allocation).
//! * **batched serve** (headline): `DispatchPlan::serve_batch` — the
//!   cell-bucketed SoA kernel — over fixed-size batches, asserted
//!   bit-identical to scalar serve on the whole stream *and* through
//!   the sim-style fixed-chunk decomposition at 1 and 8 threads.
//! * **match-only**: decision step alone over precomputed interested
//!   sets — `GridMatcher::match_event` vs `DispatchPlan::dispatch` —
//!   over a capped event subset (the precomputed `BitSet`s are large at
//!   `N = 100k`).
//!
//! Plus a No-Loss measurement: the pre-plan matcher (allocating
//! `RTree::stab` + `BitSet::count()` inside the comparator,
//! reconstructed here from the public API) vs the allocation-free
//! `NoLossClustering::match_event` / `NoLossDispatchPlan`.
//!
//! Every path's decisions are asserted identical before timings are
//! reported.

use std::fmt::Write as _;
use std::time::Instant;

use geometry::{Grid, Interval, Point, Rect};
use pubsub_bench::{LatencyHistogram, LatencySummary, Scale};
use pubsub_core::{
    parallel, BatchScratch, BitSet, CellProbability, ClusteringAlgorithm, Delivery, DispatchPlan,
    DispatchScratch, GridFramework, GridMatcher, KMeans, KMeansVariant, NoLossClustering,
    NoLossConfig, NoLossDispatchPlan, SubscriptionIndex, Validator,
};
use rand::prelude::*;
use spatial::RTree;

const GRID_CELLS: usize = 2048;
const GROUPS: usize = 64;
const THRESHOLD: f64 = 0.15;
/// Fraction of the keyspace holding the popular range (a dense interest
/// hot spot, as in the stock workload's popular symbols).
const HOT_REGION: f64 = 0.05;
/// Cap on events with precomputed interested `BitSet`s: at
/// `N = 100_000` each set is ~12.5 KB, so the match-only phase bounds
/// its working set instead of materializing one per event.
const MATCH_ONLY_EVENTS: usize = 5_000;
/// Events per `serve_batch` call in the batched-serve measurement —
/// large enough that the hot cells form big buckets, small enough that
/// the SoA buffers stay cache-resident.
const SERVE_BATCH: usize = 8_192;

struct GridRecord {
    n: usize,
    events: usize,
    old_serve_eps: f64,
    plan_serve_eps: f64,
    batched_serve_eps: f64,
    old_match_eps: f64,
    plan_match_eps: f64,
    match_events: usize,
    serve_latency: LatencySummary,
}

struct NoLossRecord {
    n: usize,
    regions: usize,
    events: usize,
    old_eps: f64,
    plan_eps: f64,
}

fn random_rect(rng: &mut StdRng) -> Rect {
    // 30% of interest concentrates in the hot region.
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

/// The pre-plan No-Loss matcher, reconstructed from the public API:
/// allocate the candidate list via `stab`, re-count memberships inside
/// the comparator.
fn legacy_noloss_match(tree: &RTree<usize>, nl: &NoLossClustering, p: &Point) -> Option<usize> {
    tree.stab(p).into_iter().copied().max_by(|&a, &b| {
        let (ra, rb) = (&nl.regions()[a], &nl.regions()[b]);
        ra.subscribers
            .count()
            .cmp(&rb.subscribers.count())
            .then_with(|| {
                ra.weight
                    .partial_cmp(&rb.weight)
                    .expect("weight is never NaN")
            })
            .then(b.cmp(&a))
    })
}

fn main() {
    let scale = Scale::from_args();
    let (populations, num_events): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![2_000], 20_000),
        Scale::Medium => (vec![10_000, 100_000], 100_000),
        Scale::Paper => (vec![10_000, 100_000], 200_000),
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallel::num_threads();

    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9}   ({} hardware thread(s), {} resolved worker(s))",
        "n",
        "events",
        "old serve e/s",
        "plan serve e/s",
        "batch serve e/s",
        "b-speedup",
        "old match e/s",
        "plan match e/s",
        "speedup",
        host_threads,
        workers
    );

    let mut grid_records: Vec<GridRecord> = Vec::new();
    let mut noloss_records: Vec<NoLossRecord> = Vec::new();
    for &n in &populations {
        let mut rng = StdRng::seed_from_u64(2002 + n as u64);
        let subs: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng)).collect();
        let events: Vec<Point> = (0..num_events)
            .map(|_| {
                // Publication density mirrors the interest skew.
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
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, GROUPS.min(n));
        let matcher = GridMatcher::new(&fw, &clustering).with_threshold(THRESHOLD);
        let plan = DispatchPlan::compile(&fw, &clustering)
            .with_threshold(THRESHOLD)
            .with_subscriptions(&subs);
        let index = SubscriptionIndex::build(&subs);

        // Structural audit before any timing: the framework, the
        // clustering and the compiled plan must agree exactly, so a
        // compilation bug fails loudly instead of skewing the numbers.
        let mut audit = Validator::new();
        audit
            .check_framework(&fw)
            .check_clustering(&fw, &clustering)
            .check_dispatch_plan(&fw, &clustering, &plan);
        audit.assert_clean("dispatch bench audit");

        // --- Serve path: old (index + BitSet + matcher) vs plan.serve.
        // One untimed pass checks agreement and warms every buffer; the
        // scalar decisions become the reference for the batched kernel.
        let mut matched: Vec<usize> = Vec::new();
        let mut scratch = DispatchScratch::new();
        let mut serve_decisions: Vec<Delivery> = Vec::with_capacity(events.len());
        for p in &events {
            index.matching_into(p, &mut matched);
            let interested = BitSet::from_members(n, matched.iter().copied());
            let old = matcher.match_event(p, &interested);
            let new = plan.serve(p, &mut scratch);
            assert_eq!(old, new, "serve paths disagree at {p:?}");
            assert_eq!(
                scratch.interested(),
                &matched[..],
                "interested sets disagree"
            );
            serve_decisions.push(new);
        }

        let start = Instant::now();
        for p in &events {
            index.matching_into(p, &mut matched);
            let interested = BitSet::from_members(n, matched.iter().copied());
            std::hint::black_box(matcher.match_event(p, &interested));
        }
        let old_serve_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

        let start = Instant::now();
        for p in &events {
            std::hint::black_box(plan.serve(p, &mut scratch));
        }
        let plan_serve_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

        // Per-event serve-latency percentiles (separate pass so the
        // per-event `Instant` reads don't skew the throughput number),
        // through the same log-bucketed histogram the service bin uses.
        let mut serve_hist = LatencyHistogram::new();
        for p in &events {
            let t = Instant::now();
            std::hint::black_box(plan.serve(p, &mut scratch));
            serve_hist.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let serve_latency = serve_hist.summary();

        // --- Batched serve: the cell-bucketed SoA kernel over
        // fixed-size batches. Warm pass asserts bit-identity with the
        // scalar decisions; a second check runs the sim-style fixed
        // 64-event chunk decomposition at 1 and 8 forced threads.
        let mut bscratch = BatchScratch::new();
        let mut batched: Vec<Delivery> = Vec::with_capacity(events.len());
        let run_batched = |scratch: &mut BatchScratch, out: &mut Vec<Delivery>| {
            out.clear();
            let mut start = 0;
            while start < events.len() {
                let end = (start + SERVE_BATCH).min(events.len());
                plan.serve_batch(start..end, |e| &events[e], scratch, out);
                start = end;
            }
        };
        run_batched(&mut bscratch, &mut batched);
        assert_eq!(
            batched, serve_decisions,
            "batched serve diverged from scalar serve"
        );
        for threads in [1, 8] {
            let chunked: Vec<Delivery> = parallel::with_threads(threads, || {
                parallel::par_chunks(events.len(), 64, |range| {
                    let mut s = BatchScratch::new();
                    let mut out = Vec::with_capacity(range.len());
                    plan.serve_batch(range, |e| &events[e], &mut s, &mut out);
                    out
                })
                .into_iter()
                .flatten()
                .collect()
            });
            assert_eq!(
                chunked, serve_decisions,
                "batched serve diverged at {threads} thread(s)"
            );
        }
        let start = Instant::now();
        run_batched(&mut bscratch, &mut batched);
        let batched_serve_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);

        // --- Match-only: decision step over precomputed interested sets.
        let match_events = events.len().min(MATCH_ONLY_EVENTS);
        let sets: Vec<BitSet> = events[..match_events]
            .iter()
            .map(|p| {
                index.matching_into(p, &mut matched);
                BitSet::from_members(n, matched.iter().copied())
            })
            .collect();
        for (p, s) in events[..match_events].iter().zip(&sets) {
            assert_eq!(matcher.match_event(p, s), plan.dispatch(p, s));
        }
        // Several timed repetitions: this phase is far cheaper per event.
        let reps = 10;
        let start = Instant::now();
        for _ in 0..reps {
            for (p, s) in events[..match_events].iter().zip(&sets) {
                std::hint::black_box(matcher.match_event(p, s));
            }
        }
        let old_match_eps = (reps * match_events) as f64 / start.elapsed().as_secs_f64().max(1e-12);
        let start = Instant::now();
        for _ in 0..reps {
            for (p, s) in events[..match_events].iter().zip(&sets) {
                std::hint::black_box(plan.dispatch(p, s));
            }
        }
        let plan_match_eps =
            (reps * match_events) as f64 / start.elapsed().as_secs_f64().max(1e-12);

        println!(
            "{n:>8} {:>8} {old_serve_eps:>14.0} {plan_serve_eps:>14.0} {batched_serve_eps:>14.0} {:>8.1}x {old_match_eps:>14.0} {plan_match_eps:>14.0} {:>8.1}x",
            events.len(),
            batched_serve_eps / plan_serve_eps.max(1e-9),
            plan_match_eps / old_match_eps.max(1e-9),
        );
        grid_records.push(GridRecord {
            n,
            events: events.len(),
            old_serve_eps,
            plan_serve_eps,
            batched_serve_eps,
            old_match_eps,
            plan_match_eps,
            match_events,
            serve_latency,
        });
        println!(
            "{n:>8} plan serve latency ns: p50 {} / p99 {} / p999 {} (max {})",
            serve_latency.p50, serve_latency.p99, serve_latency.p999, serve_latency.max
        );

        // --- No-Loss (bounded population: region construction is the
        // expensive part, matching is what we time).
        if n <= 10_000 {
            let nl_subs = &subs[..n.min(5_000)];
            let sample: Vec<Point> = events.iter().take(2_000).cloned().collect();
            let cfg = NoLossConfig {
                max_rects: 400,
                iterations: 2,
                max_candidates_per_round: 200_000,
            };
            let nl = NoLossClustering::build(nl_subs, &sample, &cfg, 64);
            let legacy_tree = RTree::bulk_load(
                1,
                nl.regions()
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.rect.clone(), i))
                    .collect(),
            );
            let nl_plan = NoLossDispatchPlan::compile(&nl);
            let mut audit = Validator::new();
            audit.check_noloss(nl_subs, &nl);
            audit.assert_clean("dispatch bench no-loss audit");
            for p in &events {
                let old = legacy_noloss_match(&legacy_tree, &nl, p);
                assert_eq!(old, nl.match_event(p), "no-loss paths disagree at {p:?}");
                assert_eq!(old, nl_plan.match_event(p));
            }
            let start = Instant::now();
            for p in &events {
                std::hint::black_box(legacy_noloss_match(&legacy_tree, &nl, p));
            }
            let old_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
            let start = Instant::now();
            for p in &events {
                std::hint::black_box(nl_plan.match_event(p));
            }
            let plan_eps = events.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
            println!(
                "{n:>8} no-loss ({} regions): {old_eps:>12.0} -> {plan_eps:>12.0} events/sec ({:.1}x)",
                nl.num_groups(),
                plan_eps / old_eps.max(1e-9)
            );
            noloss_records.push(NoLossRecord {
                n,
                regions: nl.num_groups(),
                events: events.len(),
                old_eps,
                plan_eps,
            });
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p pubsub-bench --bin dispatch -- --scale {}\",",
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
        "  \"grid_cells\": {GRID_CELLS}, \"groups\": {GROUPS}, \"threshold\": {THRESHOLD}, \"hot_region\": {HOT_REGION}, \"serve_batch\": {SERVE_BATCH},"
    );
    json.push_str(
        "  \"note\": \"serve = full per-event pipeline (interested-set computation + decision): \
         old path allocates a fresh match Vec sort + BitSet per event, plan path is \
         allocation-free via cell-membership candidate pruning; batched = cell-bucketed SoA \
         serve_batch kernel, asserted bit-identical to scalar serve whole-stream and through \
         64-event chunks at 1 and 8 forced threads; match_only = decision step over \
         precomputed interested sets; all paths asserted decision-identical before timing; \
         workers = resolved pubsub_core::parallel worker count\",\n",
    );
    json.push_str("  \"serve_speedup_by_n\": {");
    let mut first = true;
    for r in &grid_records {
        let _ = write!(
            json,
            "{}\"{}\": {:.2}",
            if first { "" } else { ", " },
            r.n,
            r.plan_serve_eps / r.old_serve_eps.max(1e-9)
        );
        first = false;
    }
    json.push_str("},\n");
    json.push_str("  \"batched_speedup_by_n\": {");
    let mut first = true;
    for r in &grid_records {
        let _ = write!(
            json,
            "{}\"{}\": {:.2}",
            if first { "" } else { ", " },
            r.n,
            r.batched_serve_eps / r.plan_serve_eps.max(1e-9)
        );
        first = false;
    }
    json.push_str("},\n");
    json.push_str("  \"batched\": [\n");
    for (i, r) in grid_records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"events\": {}, \"batch\": {SERVE_BATCH}, \
             \"events_per_sec\": {:.0}, \"speedup_vs_plan\": {:.2}, \"speedup_vs_old\": {:.2}, \
             \"identical\": true}}",
            r.n,
            r.events,
            r.batched_serve_eps,
            r.batched_serve_eps / r.plan_serve_eps.max(1e-9),
            r.batched_serve_eps / r.old_serve_eps.max(1e-9),
        );
        json.push_str(if i + 1 < grid_records.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"grid\": [\n");
    for (i, r) in grid_records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"events\": {}, \"old_serve_events_per_sec\": {:.0}, \
             \"plan_serve_events_per_sec\": {:.0}, \"serve_speedup\": {:.2}, \
             \"match_only_events\": {}, \"old_match_events_per_sec\": {:.0}, \
             \"plan_match_events_per_sec\": {:.0}, \"match_speedup\": {:.2}, \
             \"plan_serve_latency_ns\": {{\"mean\": {}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"p999\": {}, \"max\": {}}}, \"identical\": true}}",
            r.n,
            r.events,
            r.old_serve_eps,
            r.plan_serve_eps,
            r.plan_serve_eps / r.old_serve_eps.max(1e-9),
            r.match_events,
            r.old_match_eps,
            r.plan_match_eps,
            r.plan_match_eps / r.old_match_eps.max(1e-9),
            r.serve_latency.mean,
            r.serve_latency.p50,
            r.serve_latency.p90,
            r.serve_latency.p99,
            r.serve_latency.p999,
            r.serve_latency.max,
        );
        json.push_str(if i + 1 < grid_records.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"noloss\": [\n");
    for (i, r) in noloss_records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"regions\": {}, \"events\": {}, \"old_events_per_sec\": {:.0}, \
             \"plan_events_per_sec\": {:.0}, \"speedup\": {:.2}, \"identical\": true}}",
            r.n,
            r.regions,
            r.events,
            r.old_eps,
            r.plan_eps,
            r.plan_eps / r.old_eps.max(1e-9),
        );
        json.push_str(if i + 1 < noloss_records.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_dispatch.json", &json);
    println!();
    println!(
        "wrote {} ({} grid + {} no-loss records)",
        path.display(),
        grid_records.len(),
        noloss_records.len()
    );
}
