//! One workload, one process: the untraced pass that yields the
//! end-to-end metrics and the traced pass that yields the per-layer
//! metrics.

use std::time::{Duration, Instant};

use pubsub_core::{BrokerService, RebalanceStats};

use crate::layers;
use crate::phases::SLICE_WINDOWS;
use crate::phases::{
    check_round, cold_build, oracle_table, serve_round, start, swap_block, waste_per_event, Tally,
};
use crate::trace::Tracer;
use crate::workload::{generate, Inputs, Spec, WINDOW};

/// Serve rounds (each with a set-up of its own) and swap blocks of an
/// untraced run: the upper count when `--seconds` allows it, so that
/// the floors of a fast and a slow run are taken over equally many
/// repeats, and the lower count however short `--seconds` is.
const ROUNDS: std::ops::RangeInclusive<usize> = 3..=8;
const BLOCKS: std::ops::RangeInclusive<usize> = 4..=16;

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn minimum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// One set-up: inputs from the seed, cold build, a service accepting
/// events.
struct SetUp {
    setup_s: f64,
    /// The product's share: `subscribe` x N + `try_rebalance` + `start`.
    build_s: f64,
    /// `BrokerService::start` alone.
    start_ms: f64,
    inputs: Inputs,
    service: BrokerService,
}

fn set_up(spec: &Spec, seed: u64) -> SetUp {
    let t = Instant::now();
    let inputs = generate(spec, seed);
    let tb = Instant::now();
    let state = cold_build(spec, &inputs.rects);
    let ts = Instant::now();
    let service = start(spec, state);
    SetUp {
        setup_s: t.elapsed().as_secs_f64(),
        build_s: tb.elapsed().as_secs_f64(),
        start_ms: ts.elapsed().as_secs_f64() * 1e3,
        inputs,
        service,
    }
}

/// Runs `step` `times.end()` times, or fewer — but at least
/// `times.start()` — when `budget` runs out: a step is only started if
/// the previous one's duration still fits.
fn repeat_within(budget: Duration, times: std::ops::RangeInclusive<usize>, mut step: impl FnMut()) {
    let origin = Instant::now();
    for done in 1..=*times.end() {
        let t = Instant::now();
        step();
        if done >= *times.start() && origin.elapsed() + t.elapsed() > budget {
            return;
        }
    }
}

/// Every block replays the same batches, so sample `i` of every block
/// timed identical work and interference only ever added to it: the
/// floor of swap `i` is its minimum over the blocks.
fn floors(blocks: &[&[f64]]) -> Vec<f64> {
    (0..blocks[0].len())
        .map(|i| minimum(blocks.iter().map(|b| b[i])))
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn untraced(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut slices = Vec::new();
    let mut blocks = Vec::new();

    let first = set_up(spec, seed);
    setups.push(first.setup_s);
    let (inputs, (_, cold)) = (first.inputs, first.service.shutdown());
    let table = oracle_table(spec, &cold, &inputs);
    tally.checks += table.len() as u64;

    // A third of `--seconds` serves, two thirds swap: a slice is a few
    // milliseconds and a swap up to a few hundred, so the swap floors
    // need the repeats. Every round and every block starts from a
    // set-up of its own, which is one more `setup_s` sample.
    repeat_within(Duration::from_secs(seconds) / 3, ROUNDS, || {
        let again = set_up(spec, seed);
        setups.push(again.setup_s);
        let (round, report) = serve_round(spec, again.service, &inputs.pool, None);
        check_round(&mut tally, &report, &table);
        slices.extend(round);
    });
    repeat_within(Duration::from_secs(seconds) * 2 / 3, BLOCKS, || {
        let again = set_up(spec, seed);
        setups.push(again.setup_s);
        blocks.push(swap_block(spec, again.service, &inputs, &mut tally).swap_ms)
    });

    eprintln!(
        "{} set-ups, median {:.4} s; {} slices, median {:.0} events/s; {} blocks, means {:.2?} ms",
        setups.len(),
        median(&setups),
        slices.len(),
        median(&slices),
        blocks.len(),
        blocks.iter().map(|b| mean(b)).collect::<Vec<_>>()
    );
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("events_per_s", slices.iter().copied().fold(0.0, f64::max)),
        (
            "swap_visible_ms_mean",
            mean(&floors(
                &blocks.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            )),
        ),
    ];
    Outcome { metrics, tally }
}

/// Blocks and shadow replays of the traced run.
const TRACED_BLOCKS: usize = 3;

pub fn traced(spec: &Spec, seed: u64) -> Outcome {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let first = set_up(spec, seed);
    let (inputs, (_, cold)) = (first.inputs, first.service.shutdown());
    let pool = inputs.pool.len();

    // The oracle pass is also the timing of the paper-literal matcher.
    let table = tracer.span("matching.match_event", None, || {
        oracle_table(spec, &cold, &inputs)
    });
    tally.checks += table.len() as u64;

    // Peak memory is read after the first pass — one set-up, one swap
    // block, one serve round. Repeats only add allocator fragmentation,
    // which depends on which arena a new thread happens to reuse.
    let mut blocks = vec![swap_block(
        spec,
        start(spec, cold.clone()),
        &inputs,
        &mut tally,
    )];
    let mut first_pass = None;

    // Untraced and traced rounds alternate, so slow drift of the host
    // hits both alike.
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut build_s = vec![first.build_s];
    let mut start_ms = vec![first.start_ms];
    for _ in 0..2 {
        for traced in [false, true] {
            let again = set_up(spec, seed);
            build_s.push(again.build_s);
            start_ms.push(again.start_ms);
            let (round, report) = serve_round(
                spec,
                again.service,
                &inputs.pool,
                traced.then_some(&mut tracer),
            );
            check_round(&mut tally, &report, &table);
            first_pass
                .get_or_insert_with(|| (waste_per_event(&report, &cold, pool), peak_rss_mb()));
            if traced { &mut spanned } else { &mut plain }.extend(round);
        }
    }
    let best = |slices: &[f64]| slices.iter().copied().fold(0.0, f64::max);
    let events_per_s = best(&spanned);

    let (waste, peak_rss) = first_pass.expect("at least one round ran");
    blocks.extend(
        (1..TRACED_BLOCKS)
            .map(|_| swap_block(spec, start(spec, cold.clone()), &inputs, &mut tally)),
    );
    // On a thread of its own, like the service's rebalancer: a fresh
    // thread gets a fresh allocator arena, which decides whether the big
    // clones page-fault.
    let shadows: Vec<_> = (0..TRACED_BLOCKS)
        .map(|_| {
            std::thread::scope(|s| {
                s.spawn(|| layers::shadow_swaps(spec, &cold, &inputs, &mut tracer))
                    .join()
                    .expect("the shadow replay does not panic")
            })
        })
        .collect();
    let hypercells = layers::cold_stages(spec, &inputs, &mut tracer);
    let (served, classes_per_subscriber) = layers::serve_kernels(spec, &cold, &inputs, &mut tracer);

    // The replay is the service's computation: same stats, swap by swap.
    let stats = &blocks[0].stats;
    tally.checks += 1;
    tally.mismatches += u64::from(shadows.iter().any(|s| s != stats));
    let swaps = stats.len();
    let per_swap =
        |f: fn(&RebalanceStats) -> usize| stats.iter().map(f).sum::<usize>() as f64 / swaps as f64;
    let swap_floor = floors(
        &blocks
            .iter()
            .map(|b| b.swap_ms.as_slice())
            .collect::<Vec<_>>(),
    );
    // Stage time per swap, floored over the replays like the swap
    // samples.
    let stage_ms = |name: &str| {
        let samples: Vec<f64> = tracer.durations_ms(name).collect();
        mean(&floors(&samples.chunks(swaps).collect::<Vec<_>>()))
    };
    let stage_sum: f64 = [
        "dynamic.clone",
        "dynamic.apply_ops",
        "dynamic.try_rebalance",
        "dispatch.compile",
        "dispatch.with_subscriptions",
        "validate.check_dispatch_plan",
        "snapshot.publish",
        "dynamic.drop_previous",
    ]
    .iter()
    .map(|s| stage_ms(s))
    .sum();
    let paced_us: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.paced_us.iter().copied())
        .collect();
    let ns_per_event = |name: &str| tracer.min_ms(name) * 1e6 / pool as f64;
    let serve_ns = ns_per_event("dispatch.serve");
    let all_slices: Vec<f64> = plain.iter().chain(&spanned).copied().collect();

    let metrics = vec![
        (
            "service.overhead_ns_per_event",
            1e9 / events_per_s - serve_ns,
        ),
        (
            "service.offer_ns_per_event",
            tracer.total_ms("service.offer_window") * 1e6
                / (spanned.len() * SLICE_WINDOWS * WINDOW) as f64,
        ),
        (
            "service.drain_wait_share",
            tracer.total_ms("service.drain") / tracer.total_ms("service.slice"),
        ),
        ("service.events_per_s_median_slice", median(&all_slices)),
        ("service.cold_build_ms", minimum(build_s.into_iter()) * 1e3),
        ("service.start_ms", minimum(start_ms.into_iter())),
        ("service.peak_rss_mb", peak_rss),
        (
            "service.trace_overhead_share",
            1.0 - events_per_s / best(&plain),
        ),
        ("service.swap_visible_ms_p50", median(&swap_floor)),
        ("service.swap_visible_ms_p90", percentile(&swap_floor, 0.9)),
        ("service.swap_samples", swap_floor.len() as f64),
        ("service.swap_overhead_ms", mean(&swap_floor) - stage_sum),
        ("service.offer_to_decision_us_p50", median(&paced_us)),
        (
            "service.offer_to_decision_us_p99",
            percentile(&paced_us, 0.99),
        ),
        (
            "service.generator_late_ms_max",
            blocks
                .iter()
                .map(|b| b.generator_late_ms_max)
                .fold(0.0, f64::max),
        ),
        ("service.waste_per_event", waste),
        ("service.shed_events", tally.shed as f64),
        ("service.swap_aborts", tally.aborts as f64),
        ("service.rejected_ops", tally.rejected_ops as f64),
        ("dispatch.serve_ns_per_event", serve_ns),
        ("dispatch.compile_ms", stage_ms("dispatch.compile")),
        (
            "dispatch.with_subscriptions_ms",
            stage_ms("dispatch.with_subscriptions"),
        ),
        (
            "dispatch.interested_per_event",
            served.interested as f64 / pool as f64,
        ),
        (
            "dispatch.multicast_share",
            served.multicast as f64 / pool as f64,
        ),
        (
            "batch.serve_batch_ns_per_event",
            ns_per_event("batch.serve_batch"),
        ),
        (
            "matching.match_event_ns_per_event",
            ns_per_event("matching.match_event"),
        ),
        ("matching.oracle_checks", tally.checks as f64),
        ("matching.oracle_mismatches", tally.mismatches as f64),
        ("dynamic.clone_ms", stage_ms("dynamic.clone")),
        ("dynamic.apply_ops_ms", stage_ms("dynamic.apply_ops")),
        (
            "dynamic.try_rebalance_ms",
            stage_ms("dynamic.try_rebalance"),
        ),
        (
            "dynamic.drop_previous_ms",
            stage_ms("dynamic.drop_previous"),
        ),
        (
            "dynamic.incremental_share",
            per_swap(|s| usize::from(s.incremental)),
        ),
        ("dynamic.dirty_cells_per_swap", per_swap(|s| s.dirty_cells)),
        (
            "dynamic.reused_distances_per_swap",
            per_swap(|s| s.reused_distances),
        ),
        ("dynamic.moves_per_swap", per_swap(|s| s.moves)),
        ("framework.build_ms", tracer.min_ms("framework.build")),
        ("framework.hypercells", hypercells as f64),
        ("distance.build_ms", tracer.min_ms("distance.build")),
        ("kmeans.cluster_ms", tracer.min_ms("kmeans.cluster")),
        (
            "validate.check_dispatch_plan_ms",
            stage_ms("validate.check_dispatch_plan"),
        ),
        ("snapshot.publish_us", stage_ms("snapshot.publish") * 1e3),
        ("aggregate.build_ms", tracer.min_ms("aggregate.build")),
        ("aggregate.compile_ms", tracer.min_ms("aggregate.compile")),
        (
            "aggregate.serve_chunk_ns_per_event",
            ns_per_event("aggregate.serve_chunk"),
        ),
        ("aggregate.classes_per_subscriber", classes_per_subscriber),
    ];
    match tracer.write(spec.name) {
        Ok(path) => eprintln!("trace: {} spans in {}", tracer.spans.len(), path.display()),
        Err(e) => tally.broken.push(format!("writing the trace failed: {e}")),
    }
    Outcome { metrics, tally }
}
