//! Churn benchmark: incremental vs full-rebuild rebalance latency.
//!
//! Emits `BENCH_churn.json` (machine-readable; under `target/bench/`, or
//! over the committed `results/` copy with `--record`) and a human table
//! on stdout.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin churn [-- --scale quick|medium|paper] [--record]
//! ```
//!
//! The scenario models a large stable population with a regionally
//! concentrated churn front (the common broker pattern: most interest
//! is long-lived, updates cluster around a hot key range). Each epoch
//! resubscribes 1% of the population — subscriptions whose rectangles
//! sit inside the hot sub-range — and then rebalances twice from the
//! same state: once through the incremental pipeline (delta
//! rasterization, dirty cells re-merged by membership vector,
//! warm-seeded K-means) and once through the full rebuild that
//! re-rasterizes every slot, by running two
//! [`DynamicClustering`]s with opposite dirty thresholds in lockstep.
//! Both paths are verified bit-identical every epoch; the JSON records
//! per-epoch latencies, the delta statistics, and the R-tree matching
//! throughput (events/sec) over the final population.

use std::fmt::Write as _;
use std::time::Instant;

use geometry::{Grid, Interval, Point, Rect};
use pubsub_bench::Scale;
use pubsub_core::{
    parallel, CellProbability, DynamicClustering, KMeans, KMeansVariant, SubscriptionId,
    SubscriptionIndex, Validator,
};
use rand::prelude::*;

/// Fraction of the keyspace holding the churn front. Churning
/// rectangles are narrow, so the front covers a few dozen of the grid
/// cells and the rest of the framework passes through each delta
/// untouched.
const HOT_REGION: f64 = 0.02;
/// Fraction of the population resubscribed per epoch.
const CHURN_FRACTION: f64 = 0.01;
const GRID_CELLS: usize = 2048;
const GROUPS: usize = 16;

struct EpochRecord {
    n: usize,
    epoch: usize,
    incremental_ms: f64,
    full_ms: f64,
    changed_slots: usize,
    dirty_cells: usize,
    changed_hypercells: usize,
    unchanged_hypercells: usize,
    moves: usize,
    identical: bool,
}

fn random_rect(
    rng: &mut StdRng,
    lo_range: std::ops::Range<f64>,
    width_range: std::ops::Range<f64>,
) -> Rect {
    let lo = rng.gen_range(lo_range);
    let width = rng.gen_range(width_range);
    Rect::new(vec![Interval::new(lo, (lo + width).min(1.0)).unwrap()])
}

/// A fresh churn-front rectangle: narrow and inside the hot region, so
/// the dirty cell set stays a small slice of the grid.
fn hot_rect(rng: &mut StdRng) -> Rect {
    random_rect(rng, 0.0..HOT_REGION * 0.6, 0.002..0.005)
}

/// Bit-exact observable state: hyper-cell and group snapshots with
/// probabilities as raw bits.
type Snapshot = (Vec<(Vec<usize>, u64)>, Vec<(Vec<usize>, u64)>);

fn snapshot(s: &DynamicClustering) -> Snapshot {
    let hcs = s
        .framework()
        .hypercells()
        .iter()
        .map(|h| (h.members.iter().collect(), h.prob.to_bits()))
        .collect();
    let groups = s
        .clustering()
        .groups()
        .iter()
        .map(|g| (g.hypercells.clone(), g.prob.to_bits()))
        .collect();
    (hcs, groups)
}

fn main() {
    let scale = Scale::from_args();
    let (populations, epochs): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![1_000], 2),
        Scale::Medium => (vec![1_000, 10_000], 4),
        Scale::Paper => (vec![1_000, 10_000, 100_000], 4),
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallel::num_threads();

    println!(
        "{:>8} {:>6} {:>12} {:>10} {:>9} {:>7} {:>9}   ({} hardware thread(s), {} resolved worker(s))",
        "n",
        "epoch",
        "inc ms",
        "full ms",
        "speedup",
        "dirty",
        "identical",
        host_threads,
        workers
    );

    let mut records: Vec<EpochRecord> = Vec::new();
    let mut throughput: Vec<(usize, f64)> = Vec::new();
    for &n in &populations {
        let grid = Grid::cube(0.0, 1.0, 1, GRID_CELLS).unwrap();
        let probs = CellProbability::uniform(&grid);
        let mut rng = StdRng::seed_from_u64(2002 + n as u64);

        // Stable population: uniform narrow rectangles; remember which
        // ids live inside the hot region — those are the churners.
        let mut rects = Vec::with_capacity(n);
        let mut hot_ids = Vec::new();
        for i in 0..n {
            let r = if i * 10 < n {
                // Guarantee the hot region is populated at every scale.
                hot_rect(&mut rng)
            } else {
                random_rect(&mut rng, 0.0..0.98, 0.01..0.02)
            };
            if r.interval(0).hi() <= HOT_REGION {
                hot_ids.push(i);
            }
            rects.push(r);
        }

        let alg = KMeans::new(KMeansVariant::MacQueen);
        let k = GROUPS.min(n);
        let mut inc = DynamicClustering::new(grid.clone(), probs.clone(), alg, k)
            .with_max_dirty(f64::INFINITY);
        let mut full = DynamicClustering::new(grid, probs, alg, k).with_max_dirty(0.0);
        for r in &rects {
            inc.subscribe(r.clone());
            full.subscribe(r.clone());
        }
        // Warm both instances: the first rebalance is a cold build on
        // either path.
        inc.rebalance();
        full.rebalance();
        assert_eq!(snapshot(&inc), snapshot(&full), "cold builds disagree");

        let churners = ((n as f64 * CHURN_FRACTION) as usize).clamp(1, hot_ids.len());
        for epoch in 0..epochs {
            // Identical churn against both instances: resubscribe
            // `churners` hot-region ids to fresh hot-region rectangles.
            let mut moves_spec = Vec::with_capacity(churners);
            for c in 0..churners {
                let id = hot_ids[(epoch * churners + c) % hot_ids.len()];
                moves_spec.push((id, hot_rect(&mut rng)));
            }
            for (id, r) in &moves_spec {
                inc.resubscribe(SubscriptionId(*id), r.clone()).unwrap();
                full.resubscribe(SubscriptionId(*id), r.clone()).unwrap();
                rects[*id] = r.clone();
            }

            let start = Instant::now();
            let inc_moves = inc.rebalance();
            let incremental_ms = start.elapsed().as_secs_f64() * 1e3;
            let stats = inc.last_rebalance();
            assert!(stats.incremental, "threshold +inf must take the delta path");

            let start = Instant::now();
            let full_moves = full.rebalance();
            let full_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(!full.last_rebalance().incremental || stats.changed_slots == 0);

            let identical = snapshot(&inc) == snapshot(&full) && inc_moves == full_moves;
            assert!(identical, "paths diverged at n={n} epoch={epoch}");

            // Explicit structural audit of both maintenance paths —
            // release builds skip the debug-assert audit inside
            // `rebalance`, so the bench re-runs it here every epoch.
            let mut audit = Validator::new();
            audit
                .check_framework(inc.framework())
                .check_clustering(inc.framework(), inc.clustering())
                .check_framework(full.framework())
                .check_clustering(full.framework(), full.clustering());
            audit.assert_clean("churn epoch audit");

            println!(
                "{n:>8} {epoch:>6} {incremental_ms:>12.2} {full_ms:>10.2} {:>8.1}x {:>7} {identical:>9}",
                full_ms / incremental_ms.max(1e-9),
                stats.dirty_cells,
            );
            records.push(EpochRecord {
                n,
                epoch,
                incremental_ms,
                full_ms,
                changed_slots: stats.changed_slots,
                dirty_cells: stats.dirty_cells,
                changed_hypercells: snapshot(&inc).0.len() - stats.unchanged_hypercells,
                unchanged_hypercells: stats.unchanged_hypercells,
                moves: inc_moves,
                identical,
            });
        }

        // Matching throughput over the final population, allocation-free
        // per event via `matching_into`.
        let index = SubscriptionIndex::build(&rects);
        let num_events = match scale {
            Scale::Quick => 2_000,
            _ => 20_000,
        };
        let events: Vec<Point> = (0..num_events)
            .map(|_| Point::new(vec![rng.gen_range(0.0..1.0)]))
            .collect();
        let mut matched = Vec::new();
        let mut total = 0usize;
        let start = Instant::now();
        for ev in &events {
            index.matching_into(ev, &mut matched);
            total += matched.len();
        }
        let secs = start.elapsed().as_secs_f64();
        let eps = num_events as f64 / secs.max(1e-12);
        println!(
            "{n:>8} matching: {eps:>12.0} events/sec ({total} matches over {num_events} events)"
        );
        throughput.push((n, eps));
    }

    // Headline: mean speedup per population size.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p pubsub-bench --bin churn -- --scale {}\",",
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
        "  \"grid_cells\": {GRID_CELLS}, \"groups\": {GROUPS}, \"churn_fraction\": {CHURN_FRACTION}, \"hot_region\": {HOT_REGION},"
    );
    json.push_str(
        "  \"note\": \"per-epoch rebalance latency after resubscribing 1% of the population \
         inside the hot region; 'identical' means the incremental and full paths produced \
         bit-equal frameworks, clusterings and move counts; workers = resolved \
         pubsub_core::parallel worker count (PUBSUB_THREADS or detected CPUs), the thread \
         count the parallel stages actually ran with\",\n",
    );
    json.push_str("  \"speedup_by_n\": {");
    let mut first = true;
    for &n in &populations {
        let rs: Vec<&EpochRecord> = records.iter().filter(|r| r.n == n).collect();
        let inc: f64 = rs.iter().map(|r| r.incremental_ms).sum::<f64>() / rs.len() as f64;
        let full: f64 = rs.iter().map(|r| r.full_ms).sum::<f64>() / rs.len() as f64;
        let _ = write!(
            json,
            "{}\"{}\": {:.2}",
            if first { "" } else { ", " },
            n,
            full / inc.max(1e-9)
        );
        first = false;
    }
    json.push_str("},\n");
    json.push_str("  \"matching\": [\n");
    for (i, (n, eps)) in throughput.iter().enumerate() {
        let _ = write!(json, "    {{\"n\": {n}, \"events_per_sec\": {eps:.0}}}");
        json.push_str(if i + 1 < throughput.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"epoch\": {}, \"incremental_ms\": {:.3}, \"full_ms\": {:.3}, \
             \"changed_slots\": {}, \"dirty_cells\": {}, \"changed_hypercells\": {}, \
             \"unchanged_hypercells\": {}, \"moves\": {}, \"identical\": {}}}",
            r.n,
            r.epoch,
            r.incremental_ms,
            r.full_ms,
            r.changed_slots,
            r.dirty_cells,
            r.changed_hypercells,
            r.unchanged_hypercells,
            r.moves,
            r.identical
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_churn.json", &json);
    println!();
    println!("wrote {} ({} records)", path.display(), records.len());
}
