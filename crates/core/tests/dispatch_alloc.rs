//! Proves the compiled dispatch path performs ZERO heap allocations
//! per event in steady state.
//!
//! A counting global allocator tallies allocations and deallocations
//! on the measuring thread only (other threads — e.g. the libtest
//! harness or a service's ingest workers — are invisible to the
//! counters). After one warm-up pass grows the scratch buffers to their
//! high-water mark, re-running the whole event stream through
//! `DispatchPlan::serve`, `DispatchPlan::serve_batch`,
//! `AggregatePlan::{serve, serve_chunk}` and
//! `NoLossClustering::match_event` must not allocate at all, and
//! `BrokerService::offer` must allocate nothing and free each offered
//! point on the offering thread. The warm-up passes also hold every
//! decision to the oracle (`oracle::decide`). Per swap, attaching the
//! rectangles to a plan and running both of its audits allocate as
//! often at 2 000 subscribers as at 200.

mod oracle;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use geometry::{Grid, Interval, Point, Rect};
use oracle::decide;
use pubsub_core::{
    AggregatePlan, AggregateScratch, Aggregation, BatchScratch, BrokerService, CellProbability,
    ClusteringAlgorithm, Delivery, DispatchPlan, DispatchScratch, DynamicClustering, GridFramework,
    KMeans, KMeansVariant, NoLossClustering, NoLossConfig, ServiceConfig, Validator,
};
use rand::prelude::*;

struct CountingAllocator;

thread_local! {
    // `const` init: no lazy-init allocation inside the allocator itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
        // SAFETY: forwards the unmodified layout to the system
        // allocator, which upholds the `GlobalAlloc` contract for us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTING.with(|c| {
            if c.get() {
                DEALLOCS.with(|d| d.set(d.get() + 1));
            }
        });
        // SAFETY: `ptr` was returned by `System.alloc`/`System.realloc`
        // (every other method forwards there) with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller guarantees `new_size` is valid per `GlobalAlloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread and
/// returns how many heap allocations (alloc + realloc) and
/// deallocations it performed.
fn count_allocs_and_frees(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|a| a.set(0));
    DEALLOCS.with(|d| d.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), DEALLOCS.with(|d| d.get()))
}

/// How many heap allocations (alloc + realloc) `f` performed on this
/// thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    count_allocs_and_frees(f).0
}

fn random_rect(rng: &mut StdRng) -> Rect {
    let lo = rng.gen_range(0.0..0.95);
    let width = rng.gen_range(0.01..0.05);
    Rect::new(vec![Interval::new(lo, (lo + width).min(1.0)).unwrap()])
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(2002);
    let subs: Vec<Rect> = (0..800).map(|_| random_rect(&mut rng)).collect();
    let grid = Grid::cube(0.0, 1.0, 1, 512).unwrap();
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, Some(400));
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 12);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.15)
        .with_subscriptions(&subs);

    // Off-grid points exercise the unicast fallback too.
    let events: Vec<Point> = (0..2_000)
        .map(|_| Point::new(vec![rng.gen_range(-0.05..1.05)]))
        .collect();

    // Warm-up: every buffer reaches its high-water mark, and the plan
    // must make the oracle's decision on every event.
    let mut scratch = DispatchScratch::new();
    for p in &events {
        let (decision, _) = decide(&fw, &clustering, 0.15, &subs, p);
        assert_eq!(plan.serve(p, &mut scratch), decision, "event at {p:?}");
    }

    let allocs = count_allocs(|| {
        for p in &events {
            std::hint::black_box(plan.serve(p, &mut scratch));
        }
    });
    assert_eq!(
        allocs,
        0,
        "steady-state dispatch performed {allocs} heap allocations over {} events",
        events.len()
    );
}

#[test]
fn steady_state_batched_dispatch_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(2002);
    let subs: Vec<Rect> = (0..800).map(|_| random_rect(&mut rng)).collect();
    let grid = Grid::cube(0.0, 1.0, 1, 512).unwrap();
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, Some(400));
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 12);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.15)
        .with_subscriptions(&subs);

    // Off-grid points exercise the NO_SLOT bucket (R-tree fallback) too.
    let events: Vec<Point> = (0..2_000)
        .map(|_| Point::new(vec![rng.gen_range(-0.05..1.05)]))
        .collect();
    const BATCH: usize = 256;

    // Warm-up pass: buffers reach their high-water mark, and the
    // batched kernel must make the oracle's decision event by event.
    let mut scratch = BatchScratch::new();
    let mut out: Vec<Delivery> = Vec::with_capacity(events.len());
    let run_batches = |scratch: &mut BatchScratch, out: &mut Vec<Delivery>| {
        out.clear();
        for start in (0..events.len()).step_by(BATCH) {
            let end = (start + BATCH).min(events.len());
            plan.serve_batch(start..end, |e| &events[e], scratch, out);
        }
    };
    run_batches(&mut scratch, &mut out);
    for (e, p) in events.iter().enumerate() {
        let (decision, _) = decide(&fw, &clustering, 0.15, &subs, p);
        assert_eq!(out[e], decision, "serve_batch event {e}");
    }

    let allocs = count_allocs(|| run_batches(&mut scratch, &mut out));
    assert_eq!(
        allocs,
        0,
        "steady-state batched dispatch performed {allocs} heap allocations over {} events",
        events.len()
    );

    // A dense 2-D population: every slot holds at least a hundred
    // candidates, so the serve kernel's per-slot mask and the span it
    // reserves past the interested ids for each event are far larger
    // than above. Batches of 1, 64 and 256 events in turn, several
    // hundred batches in all: once warm, the reserve-then-truncate tail
    // may never move the buffer (the counter counts `realloc` too).
    let subs: Vec<Rect> = (0..600)
        .map(|_| {
            Rect::new(
                (0..2)
                    .map(|_| {
                        let centre = rng.gen_range(0.0..1.0);
                        let half = rng.gen_range(0.3..0.45);
                        Interval::new((centre - half).max(0.0), (centre + half).min(1.0)).unwrap()
                    })
                    .collect(),
            )
        })
        .collect();
    let grid = Grid::cube(0.0, 1.0, 2, 8).unwrap();
    let fewest = grid
        .iter()
        .map(|cell| {
            let cell = grid.cell_rect(cell);
            subs.iter().filter(|r| r.intersects(&cell)).count()
        })
        .min()
        .unwrap();
    assert!(fewest >= 100, "sparsest slot holds {fewest} candidates");
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid, &subs, &probs, None);
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 8);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.15)
        .with_subscriptions(&subs);
    let events: Vec<Point> = (0..2_048)
        .map(|_| Point::new(vec![rng.gen_range(-0.02..1.02), rng.gen_range(-0.02..1.02)]))
        .collect();
    let serve_all = |scratch: &mut BatchScratch, out: &mut Vec<Delivery>| {
        for batch in [1usize, 64, 256] {
            out.clear();
            for start in (0..events.len()).step_by(batch) {
                let end = (start + batch).min(events.len());
                plan.serve_batch(start..end, |e| &events[e], scratch, out);
            }
        }
    };
    serve_all(&mut scratch, &mut out);
    for (e, p) in events.iter().enumerate() {
        let (decision, _) = decide(&fw, &clustering, 0.15, &subs, p);
        assert_eq!(out[e], decision, "dense serve_batch event {e}");
    }
    let allocs = count_allocs(|| serve_all(&mut scratch, &mut out));
    assert_eq!(
        allocs, 0,
        "steady-state dense serve_batch performed {allocs} heap allocations"
    );
}

/// A complete framework indexes only the rectangles that overhang its
/// grid, so the cases above meet an empty fallback index off the grid.
/// Here unbounded rectangles (`greater_than`, `at_most`, `all`) overhang
/// it: off-grid and ±∞ events stab a non-empty index, and scalar `serve`
/// and `serve_batch` still allocate nothing once warm.
#[test]
fn steady_state_fallback_over_overhanging_rectangles_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(2002);
    let subs: Vec<Rect> = (0..300)
        .map(|i| {
            Rect::new(
                (0..2)
                    .map(|_| {
                        let x = rng.gen_range(0.0..1.0);
                        match i % 4 {
                            0 => Interval::greater_than(x),
                            1 => Interval::at_most(x),
                            2 => Interval::all(),
                            _ => Interval::new(x * 0.9, x * 0.9 + 0.1).unwrap(),
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    let grid = Grid::cube(0.0, 1.0, 2, 16).unwrap();
    let probs = CellProbability::uniform(&grid);
    let fw = GridFramework::build(grid.clone(), &subs, &probs, None);
    assert!(fw.supports_incremental(), "the framework must be complete");
    let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 6);
    let plan = DispatchPlan::compile(&fw, &clustering)
        .with_threshold(0.15)
        .with_subscriptions(&subs);

    let edges = [f64::NEG_INFINITY, -0.5, 1.5, f64::INFINITY];
    let mut events: Vec<Point> = (0..1_500)
        .map(|_| Point::new(vec![rng.gen_range(-0.3..1.3), rng.gen_range(-0.3..1.3)]))
        .collect();
    events.extend(edges.iter().flat_map(|&x| {
        [
            Point::new(vec![x, 0.5]),
            Point::new(vec![0.5, x]),
            Point::new(vec![x, x]),
        ]
    }));
    let expected: Vec<_> = events
        .iter()
        .map(|p| decide(&fw, &clustering, 0.15, &subs, p))
        .collect();
    let off_grid_hits = events
        .iter()
        .zip(&expected)
        .filter(|(p, (_, set))| grid.cell_of(p).is_none() && !set.is_empty())
        .count();
    assert!(
        off_grid_hits >= 100,
        "{off_grid_hits} off-grid events interest someone"
    );

    // Warm-up: every buffer reaches its high-water mark, and both calls
    // make the oracle's decision over its interested set.
    let mut scratch = DispatchScratch::new();
    for (p, (decision, set)) in events.iter().zip(&expected) {
        assert_eq!(plan.serve(p, &mut scratch), *decision, "event at {p:?}");
        assert!(
            scratch.interested().iter().copied().eq(set.iter()),
            "event at {p:?}"
        );
    }
    const BATCH: usize = 64;
    let mut batch_scratch = BatchScratch::new();
    let mut out: Vec<Delivery> = Vec::with_capacity(events.len());
    let run_batches = |scratch: &mut BatchScratch, out: &mut Vec<Delivery>| {
        out.clear();
        for start in (0..events.len()).step_by(BATCH) {
            let end = (start + BATCH).min(events.len());
            plan.serve_batch(start..end, |e| &events[e], scratch, out);
        }
    };
    run_batches(&mut batch_scratch, &mut out);
    for (e, (decision, _)) in expected.iter().enumerate() {
        assert_eq!(out[e], *decision, "serve_batch event {e}");
    }

    let allocs = count_allocs(|| {
        for p in &events {
            std::hint::black_box(plan.serve(p, &mut scratch));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state serve performed {allocs} heap allocations"
    );
    let allocs = count_allocs(|| run_batches(&mut batch_scratch, &mut out));
    assert_eq!(
        allocs, 0,
        "steady-state serve_batch performed {allocs} heap allocations"
    );
}

/// The aggregated plan runs the same kernel over the class universe:
/// once warm, `serve_chunk` (weighted decisions) and `serve` (which
/// also expands the hit classes' members) allocate nothing, on the grid
/// and off it, where two unbounded classes fill the fallback index.
#[test]
fn steady_state_aggregated_serve_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(2002);
    let mut pool: Vec<Rect> = (0..60).map(|_| random_rect(&mut rng)).collect();
    pool.push(Rect::new(vec![Interval::greater_than(0.97)]));
    pool.push(Rect::new(vec![Interval::at_most(0.02)]));
    let subs: Vec<Rect> = (0..800)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect();
    let grid = Grid::cube(0.0, 1.0, 1, 512).unwrap();
    let probs = CellProbability::uniform(&grid);
    let algorithm = KMeans::new(KMeansVariant::MacQueen);
    let agg = Arc::new(Aggregation::build(&subs));
    let class_fw = agg.build_framework(grid.clone(), &probs, None);
    let plan = AggregatePlan::compile(&class_fw, &algorithm.cluster(&class_fw, 12), 0.15, agg);
    let fw = GridFramework::build(grid, &subs, &probs, None);
    let clustering = algorithm.cluster(&fw, 12);
    let events: Vec<Point> = (0..2_000)
        .map(|_| Point::new(vec![rng.gen_range(-0.05..1.05)]))
        .collect();

    // Warm-up: every buffer reaches its high-water mark, and both calls
    // make the oracle's decision over the concrete population.
    let mut scratch = AggregateScratch::new();
    let expected: Vec<_> = events
        .iter()
        .map(|p| decide(&fw, &clustering, 0.15, &subs, p))
        .collect();
    for (p, (decision, set)) in events.iter().zip(&expected) {
        assert_eq!(plan.serve(p, &mut scratch), *decision, "event at {p:?}");
        assert!(
            scratch.interested().iter().copied().eq(set.iter()),
            "event at {p:?}"
        );
    }
    const CHUNK: usize = 256;
    let mut out: Vec<Delivery> = Vec::with_capacity(events.len());
    let run_chunks = |scratch: &mut AggregateScratch, out: &mut Vec<Delivery>| {
        out.clear();
        for start in (0..events.len()).step_by(CHUNK) {
            let end = (start + CHUNK).min(events.len());
            plan.serve_chunk(start..end, |e| &events[e], out, scratch);
        }
    };
    run_chunks(&mut scratch, &mut out);
    for (e, (decision, _)) in expected.iter().enumerate() {
        assert_eq!(out[e], *decision, "serve_chunk event {e}");
    }
    let off_grid_hits = events
        .iter()
        .zip(&expected)
        .filter(|(p, (_, set))| !(0.0..=1.0).contains(&p[0]) && !set.is_empty())
        .count();
    assert!(
        off_grid_hits >= 10,
        "{off_grid_hits} off-grid events interest someone"
    );

    let allocs = count_allocs(|| {
        for p in &events {
            std::hint::black_box(plan.serve(p, &mut scratch));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state aggregated serve performed {allocs} heap allocations"
    );
    let allocs = count_allocs(|| run_chunks(&mut scratch, &mut out));
    assert_eq!(
        allocs, 0,
        "steady-state serve_chunk performed {allocs} heap allocations"
    );
}

/// Attaching the rectangles and running both audits a swap runs
/// allocate a fixed number of buffers at any population size: the
/// bounds lie flat, so no subscriber costs a heap object of its own.
/// Dropping the plan frees a fixed number of buffers too. (A complete
/// framework with no overhang: the fallback index is empty.)
#[test]
fn attach_and_audit_allocate_the_same_at_any_population_size() {
    let counts = [200usize, 2_000].map(|n| {
        let mut rng = StdRng::seed_from_u64(2002);
        let subs: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng)).collect();
        let grid = Grid::cube(0.0, 1.0, 1, 64).unwrap();
        let probs = CellProbability::uniform(&grid);
        let fw = GridFramework::build(grid, &subs, &probs, None);
        assert!(fw.supports_incremental(), "the framework must be complete");
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, 8);
        let compiled = DispatchPlan::compile(&fw, &clustering);
        let mut attached = None;
        let (allocs, _) = count_allocs_and_frees(|| {
            let plan = compiled.with_subscriptions(&subs);
            let mut v = Validator::new();
            v.check_dispatch_plan(&fw, &clustering, &plan)
                .check_serve_state(&plan, n, |id| subs.get(id));
            attached = Some((plan, v.finish()));
        });
        let (plan, audit) = attached.expect("the counted region ran");
        audit.unwrap();
        let (_, frees) = count_allocs_and_frees(|| drop(plan));
        (allocs, frees)
    });
    assert_eq!(
        counts[0], counts[1],
        "(allocations to attach and audit, frees to drop) at 200 and at 2 000 subscribers"
    );
}

#[test]
fn steady_state_noloss_match_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(77);
    let subs: Vec<Rect> = (0..150).map(|_| random_rect(&mut rng)).collect();
    let sample: Vec<Point> = (0..200)
        .map(|_| Point::new(vec![rng.gen_range(0.0..1.0)]))
        .collect();
    let cfg = NoLossConfig {
        max_rects: 200,
        iterations: 3,
        max_candidates_per_round: 50_000,
    };
    let nl = NoLossClustering::build(&subs, &sample, &cfg, 20);
    assert!(nl.num_groups() > 0);

    let events: Vec<Point> = (0..2_000)
        .map(|_| Point::new(vec![rng.gen_range(-0.05..1.05)]))
        .collect();
    // The fold needs no warm-up: it keeps no buffer.
    let allocs = count_allocs(|| {
        for p in &events {
            std::hint::black_box(nl.match_event(p));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state No-Loss matching performed {allocs} heap allocations"
    );
}

/// The offering thread allocated each offered point, so it frees it: an
/// offer copies the coordinates into the service's preallocated ring
/// and drops the point on return, and the ingest worker frees nothing
/// per event.
#[test]
fn offer_allocates_nothing_and_frees_each_point_on_the_offering_thread() {
    const N: usize = 2_000;
    let mut rng = StdRng::seed_from_u64(2002);
    let grid = Grid::cube(0.0, 1.0, 2, 16).unwrap();
    let probs = CellProbability::uniform(&grid);
    let mut dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), 4);
    for _ in 0..50 {
        let (x, y) = (random_rect(&mut rng), random_rect(&mut rng));
        dynamic.subscribe(Rect::new(vec![x.intervals()[0], y.intervals()[0]]));
    }
    dynamic.try_rebalance().unwrap();
    let service = BrokerService::start(
        dynamic,
        ServiceConfig {
            ingest_threads: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut event = || Point::new(vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);

    // Warm-up: the worker runs, and whatever the first offer and park
    // set up lazily is in place.
    for _ in 0..N {
        service.offer(event());
    }
    service.drain();

    let mut points: Vec<Point> = (0..N).map(|_| event()).collect();
    let (allocs, frees) = count_allocs_and_frees(|| {
        // `drain(..)`, not `into_iter()`: the Vec's own buffer must not
        // be freed inside the counted region.
        for p in points.drain(..) {
            service.offer(p);
        }
    });
    service.drain();
    let (report, _) = service.shutdown();
    assert_eq!(report.delivered, 2 * N as u64);
    assert_eq!(allocs, 0, "{N} offers performed {allocs} heap allocations");
    assert_eq!(
        frees, N as u64,
        "{N} offers freed {frees} buffers on the offering thread"
    );
}
