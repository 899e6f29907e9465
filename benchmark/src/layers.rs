//! Direct single-thread loops around each layer's public functions, on
//! the same inputs the service phases use. Only the traced run calls
//! these; every timed call is a span.

use std::hint::black_box;
use std::sync::Arc;

use geometry::{Interval, Point, Rect};
use pubsub_core::{
    AggregatePlan, AggregateScratch, Aggregation, BatchScratch, ClusteringAlgorithm, Delivery,
    DispatchPlan, DispatchScratch, DynamicClustering, GridFramework, KMeans, KMeansVariant,
    RebalanceStats, SnapshotCell, SubscriptionId, Validator,
};

use crate::trace::Tracer;
use crate::workload::{ChurnOp, Inputs, Spec};

/// Passes over the pool per serve kernel; the best pass is reported,
/// like the best serve round.
const KERNEL_PASSES: usize = 7;
/// Events per `serve_batch` / `serve_chunk` call.
const BATCH: usize = 256;

/// Id-aligned rectangles for `with_subscriptions`, the way the service
/// derives them: a tombstoned slot becomes a degenerate rectangle that
/// contains no event.
fn slot_rects(state: &DynamicClustering) -> Vec<Rect> {
    let empty = Rect::new(
        state
            .framework()
            .grid()
            .bounds()
            .intervals()
            .iter()
            .map(|iv| Interval::new(iv.lo(), iv.lo()).expect("degenerate interval is valid"))
            .collect(),
    );
    state
        .subscription_slots()
        .iter()
        .map(|slot| slot.clone().unwrap_or_else(|| empty.clone()))
        .collect()
}

/// The service's compile stage, one span per public call. Preparing the
/// id-aligned rectangles is counted with `with_subscriptions`, the call
/// it feeds.
fn compile_stages(
    spec: &Spec,
    state: &DynamicClustering,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> DispatchPlan {
    let plan = tracer.span("dispatch.compile", parent, || {
        DispatchPlan::compile(state.framework(), state.clustering()).with_threshold(spec.threshold)
    });
    let plan = tracer.span("dispatch.with_subscriptions", parent, || {
        plan.with_subscriptions(&slot_rects(state))
    });
    tracer.span("validate.check_dispatch_plan", parent, || {
        let mut v = Validator::new();
        v.check_dispatch_plan(state.framework(), state.clustering(), &plan);
        v.finish().expect("the compiled plan passes its audit");
    });
    plan
}

/// The cold build taken apart: framework → distance matrix → K-means.
/// Returns the hyper-cell count.
pub fn cold_stages(spec: &Spec, inputs: &Inputs, tracer: &mut Tracer) -> usize {
    let grid = spec.grid();
    let probs = spec.probs(&grid);
    let fw = tracer.span("framework.build", None, || {
        GridFramework::build(grid, &inputs.rects, &probs, None)
    });
    tracer.span("distance.build", None, || {
        black_box(fw.distance_matrix());
    });
    tracer.span("kmeans.cluster", None, || {
        black_box(KMeans::new(KMeansVariant::MacQueen).cluster(&fw, spec.k));
    });
    fw.hypercells().len()
}

/// Replays the swap-phase batches on the benchmark's own thread, one
/// span per stage of the service's rebalance attempt: clone → apply
/// ops → `try_rebalance` → compile → `with_subscriptions` → audit →
/// publish → commit (which drops the previous state). Returns the
/// per-swap stats, which must equal the service's.
pub fn shadow_swaps(
    spec: &Spec,
    cold: &DynamicClustering,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Vec<RebalanceStats> {
    let mut state = cold.clone();
    // The cell only needs a value to replace; version 0 is not timed.
    let cell = SnapshotCell::new(Arc::new(DispatchPlan::compile(
        state.framework(),
        state.clustering(),
    )));
    inputs
        .batches
        .iter()
        .map(|batch| {
            let swap = tracer.open("swap", None);
            let parent = Some(swap);
            let mut work = tracer.span("dynamic.clone", parent, || state.clone());
            tracer.span("dynamic.apply_ops", parent, || {
                for op in batch {
                    match op {
                        ChurnOp::Subscribe(r) => {
                            work.subscribe(r.clone());
                        }
                        ChurnOp::Unsubscribe(id) => work
                            .unsubscribe(SubscriptionId(*id))
                            .expect("generated ops target live ids"),
                        ChurnOp::Resubscribe(id, r) => work
                            .resubscribe(SubscriptionId(*id), r.clone())
                            .expect("generated ops target live ids"),
                    }
                }
            });
            let stats = tracer.span("dynamic.try_rebalance", parent, || {
                work.try_rebalance().expect("the shadow replay rebalances")
            });
            let plan = Arc::new(compile_stages(spec, &work, tracer, parent));
            tracer.span("snapshot.publish", parent, || cell.publish(plan));
            tracer.span("dynamic.drop_previous", parent, || state = work);
            tracer.close(swap);
            stats
        })
        .collect()
}

/// Exact counts of one pass of a serve kernel over the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    pub interested: u64,
    pub multicast: u64,
}

impl Served {
    fn add(&mut self, decision: Delivery, interested: usize) {
        self.interested += interested as u64;
        self.multicast += u64::from(matches!(decision, Delivery::Multicast { .. }));
    }
}

fn passes(tracer: &mut Tracer, name: &'static str, mut pass: impl FnMut() -> Served) -> Served {
    let mut counts = None;
    for _ in 0..KERNEL_PASSES {
        let got = tracer.span(name, None, &mut pass);
        assert!(
            counts.is_none_or(|c| c == got),
            "{name}: counts differ between passes"
        );
        counts = Some(got);
    }
    counts.expect("at least one pass")
}

/// Scalar, batched and aggregated serve kernels over the pool, plus the
/// aggregation build. Scalar and batched must agree on the exact counts.
/// Returns the counts and the aggregation's classes per subscriber.
pub fn serve_kernels(
    spec: &Spec,
    cold: &DynamicClustering,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> (Served, f64) {
    let pool: &[Point] = &inputs.pool;
    let plan = DispatchPlan::compile(cold.framework(), cold.clustering())
        .with_threshold(spec.threshold)
        .with_subscriptions(&inputs.rects);

    let mut scratch = DispatchScratch::new();
    let scalar = passes(tracer, "dispatch.serve", || {
        let mut served = Served::default();
        for p in pool {
            let decision = plan.serve(black_box(p), &mut scratch);
            served.add(decision, scratch.interested().len());
        }
        served
    });

    let mut scratch = BatchScratch::new();
    let mut out = Vec::with_capacity(BATCH);
    let batched = passes(tracer, "batch.serve_batch", || {
        let mut served = Served::default();
        for start in (0..pool.len()).step_by(BATCH) {
            out.clear();
            let range = start..(start + BATCH).min(pool.len());
            plan.serve_batch(range.clone(), |e| &pool[e], &mut scratch, &mut out);
            for (local, &decision) in out.iter().enumerate() {
                served.add(decision, scratch.interested_of(local).count());
            }
        }
        served
    });
    assert_eq!(scalar, batched, "serve_batch disagrees with serve");

    let agg = Arc::new(tracer.span("aggregate.build", None, || {
        Aggregation::build(&inputs.rects)
    }));
    let agg_plan = tracer.span("aggregate.compile", None, || {
        let grid = spec.grid();
        let probs = spec.probs(&grid);
        let fw = agg.build_framework(grid, &probs, None);
        let clustering = KMeans::new(KMeansVariant::MacQueen).cluster(&fw, spec.k);
        AggregatePlan::compile(&fw, &clustering, spec.threshold, Arc::clone(&agg))
    });
    let mut scratch = AggregateScratch::new();
    // Clustered from K-means' own seeding, not the warm start the cold
    // state got from `DynamicClustering`, so its decisions are compared
    // only between passes.
    passes(tracer, "aggregate.serve_chunk", || {
        let mut served = Served::default();
        for start in (0..pool.len()).step_by(BATCH) {
            out.clear();
            let range = start..(start + BATCH).min(pool.len());
            agg_plan.serve_chunk(range, |e| &pool[e], &mut out, &mut scratch);
            served.multicast += out
                .iter()
                .filter(|d| matches!(d, Delivery::Multicast { .. }))
                .count() as u64;
        }
        served
    });

    (scalar, agg.num_classes() as f64 / agg.num_concrete() as f64)
}
