//! Always-on broker service benchmark: sustained concurrent ingest
//! through [`BrokerService`](pubsub_core::BrokerService) under
//! three plan-swap regimes.
//!
//! Emits `BENCH_service.json` (machine-readable; under `target/bench/`, or
//! over the committed `results/` copy with `--record`) and a human table
//! on stdout.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin service [-- --scale quick|medium|paper] [--record]
//! ```
//!
//! Three series over the same subscription population and event
//! stream, each a fresh service instance:
//!
//! * **cold-plan** — no rebalances: every event is decided by the
//!   initial validated plan (steady-state baseline);
//! * **hot-swap** — a handful of churn-driven rebalance + hot-swap
//!   cycles spread across the run, concurrent with ingest;
//! * **swap-storm** — a rebalance every few hundred events, the
//!   worst-case swap pressure the core stress test pins down.
//!
//! Per series: sustained offered events/sec plus p50/p90/p99/p999
//! offer→decision latency from the shared log-bucketed
//! [`LatencyHistogram`]. The run **asserts** robustness before
//! reporting: zero aborted swaps, the expected swap counts (zero for
//! cold, nonzero otherwise), `delivered + shed == offered` with the
//! block policy shedding nothing, and every decision stamped with a
//! validated published plan version — so CI can use a quick-scale run
//! as the service-loop soak smoke.

use std::fmt::Write as _;
use std::time::Instant;

use geometry::{Grid, Interval, Point, Rect};
use pubsub_bench::{LatencyHistogram, LatencySummary, Scale};
use pubsub_core::{
    parallel, CellProbability, DynamicClustering, KMeans, KMeansVariant, ServiceConfig,
    ServiceReport, ShedPolicy, SubscriptionId,
};
use rand::prelude::*;

const GRID_CELLS: usize = 512;
const GROUPS: usize = 32;
const THRESHOLD: f64 = 0.15;
const HOT_REGION: f64 = 0.05;
/// Swaps in the hot-swap series.
const HOT_SWAPS: usize = 8;
/// Events between swaps in the swap-storm series.
const STORM_EVERY: usize = 512;

struct SeriesRecord {
    name: &'static str,
    events: usize,
    wall_secs: f64,
    report: ServiceReport,
    latency: LatencySummary,
}

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

fn build_dynamic(subs: &[Rect]) -> (DynamicClustering, Vec<SubscriptionId>) {
    let grid = Grid::cube(0.0, 1.0, 1, GRID_CELLS).unwrap();
    let probs = CellProbability::uniform(&grid);
    let mut dynamic = DynamicClustering::new(
        grid,
        probs,
        KMeans::new(KMeansVariant::MacQueen),
        GROUPS.min(subs.len()),
    );
    let ids = subs.iter().map(|r| dynamic.subscribe(r.clone())).collect();
    dynamic
        .try_rebalance()
        .expect("initial population rebalances");
    (dynamic, ids)
}

/// Offers the whole stream, swapping every `swap_every` events (each
/// swap preceded by one resubscribe so the rebalance has real churn),
/// then drains and shuts down. Panics on any aborted swap.
fn run_series(
    name: &'static str,
    subs: &[Rect],
    ids_seed: u64,
    events: &[Point],
    swap_every: Option<usize>,
) -> SeriesRecord {
    let (dynamic, ids) = build_dynamic(subs);
    let config = ServiceConfig::from_env();
    let lossless = matches!(config.shed, ShedPolicy::Block);
    let service =
        pubsub_core::BrokerService::start(dynamic, config).expect("initial plan validates");
    let mut rng = StdRng::seed_from_u64(ids_seed);

    let start = Instant::now();
    for (i, p) in events.iter().enumerate() {
        service.offer(p.clone());
        if swap_every.is_some_and(|k| i % k == k - 1) {
            let id = ids[rng.gen_range(0..ids.len())];
            service.resubscribe(id, random_rect(&mut rng));
            service
                .rebalance()
                .unwrap_or_else(|e| panic!("{name}: swap aborted: {e}"));
        }
    }
    service.drain();
    let wall_secs = start.elapsed().as_secs_f64().max(1e-12);
    let (report, _) = service.shutdown();

    // Robustness gates (these make a quick run a valid CI soak).
    assert_eq!(report.aborts, 0, "{name}: aborted swaps");
    let expected_swaps = swap_every.map_or(0, |k| events.len() / k) as u64;
    assert_eq!(report.swaps, expected_swaps, "{name}: swap count");
    assert!(
        report.partitions_offered(),
        "{name}: delivered + shed does not partition offered load"
    );
    if lossless {
        assert_eq!(report.shed, 0, "{name}: block policy must not shed");
    }
    for r in &report.records {
        assert!(
            report.published_versions.contains(&r.plan_version),
            "{name}: event {} decided by unpublished plan {}",
            r.id,
            r.plan_version
        );
    }

    let mut hist = LatencyHistogram::new();
    for r in &report.records {
        hist.record(r.latency_ns);
    }
    SeriesRecord {
        name,
        events: events.len(),
        wall_secs,
        latency: hist.summary(),
        report,
    }
}

fn main() {
    let scale = Scale::from_args();
    let (n, num_events): (usize, usize) = match scale {
        Scale::Quick => (2_000, 30_000),
        Scale::Medium => (10_000, 150_000),
        Scale::Paper => (20_000, 400_000),
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallel::num_threads();
    let config = ServiceConfig::from_env();

    let mut rng = StdRng::seed_from_u64(2002 + n as u64);
    let subs: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng)).collect();
    let events: Vec<Point> = (0..num_events)
        .map(|_| {
            let x = if rng.gen_bool(0.3) {
                rng.gen_range(0.0..HOT_REGION)
            } else {
                rng.gen_range(0.0..1.0)
            };
            Point::new(vec![x])
        })
        .collect();

    println!(
        "{:>10} {:>9} {:>6} {:>13} {:>9} {:>9} {:>9} {:>9}   ({} hardware thread(s), {} ingest worker(s), queue {}, shed {})",
        "series",
        "events",
        "swaps",
        "events/sec",
        "p50 ns",
        "p99 ns",
        "p999 ns",
        "max ns",
        host_threads,
        config.ingest_threads,
        config.queue_depth,
        config.shed,
    );

    let storm_every = STORM_EVERY.min(num_events / 8);
    let series = [
        run_series("cold-plan", &subs, 11, &events, None),
        run_series("hot-swap", &subs, 12, &events, Some(num_events / HOT_SWAPS)),
        run_series("swap-storm", &subs, 13, &events, Some(storm_every)),
    ];

    for s in &series {
        println!(
            "{:>10} {:>9} {:>6} {:>13.0} {:>9} {:>9} {:>9} {:>9}",
            s.name,
            s.events,
            s.report.swaps,
            s.events as f64 / s.wall_secs,
            s.latency.p50,
            s.latency.p99,
            s.latency.p999,
            s.latency.max,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p pubsub-bench --bin service -- --scale {}\",",
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
        "  \"ingest_threads\": {}, \"queue_depth\": {}, \"shed\": \"{}\",",
        config.ingest_threads, config.queue_depth, config.shed
    );
    let _ = writeln!(
        json,
        "  \"subscriptions\": {n}, \"grid_cells\": {GRID_CELLS}, \"groups\": {GROUPS}, \"threshold\": {THRESHOLD},"
    );
    json.push_str(
        "  \"note\": \"concurrent ingest through BrokerService (bounded queue, block policy, \
         epoch-cached snapshot reads); latency = offer-to-decision nanoseconds incl. queue wait, \
         log-bucketed histogram (~3% bucket error); every series asserts zero aborts, exact swap \
         counts, delivered + shed == offered, and that each decision used a validated published \
         plan before reporting; swaps run concurrently with ingest on the rebalancer thread\",\n",
    );
    json.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"series\": \"{}\", \"events\": {}, \"swaps\": {}, \"aborts\": {}, \
             \"shed\": {}, \"delivered\": {}, \"events_per_sec\": {:.0}, \
             \"latency_ns\": {{\"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"p999\": {}, \"max\": {}}}, \"partitioned\": true, \"validated_plans\": true}}",
            s.name,
            s.events,
            s.report.swaps,
            s.report.aborts,
            s.report.shed,
            s.report.delivered,
            s.events as f64 / s.wall_secs,
            s.latency.mean,
            s.latency.p50,
            s.latency.p90,
            s.latency.p99,
            s.latency.p999,
            s.latency.max,
        );
        json.push_str(if i + 1 < series.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_service.json", &json);
    println!();
    println!("wrote {} ({} series)", path.display(), series.len());
}
