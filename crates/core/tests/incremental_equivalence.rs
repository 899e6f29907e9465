//! Property-based proof that the incremental churn pipeline is
//! bit-identical to the full-rebuild path.
//!
//! Random subscribe/unsubscribe/resubscribe interleavings are replayed
//! through two [`DynamicClustering`]s that differ only in their dirty
//! threshold — one forced onto the incremental `apply_delta` path, one
//! forced onto the cold full-rebuild path — and through both at
//! `PUBSUB_THREADS` 1 and 8, on a 12-cell 1-D grid and on an 8 × 8 2-D
//! grid. Every rebalance must report the same move count, and the final
//! frameworks and clusterings must agree to the bit (memberships, cell
//! lists, and `f64` probabilities compared via `to_bits`). This is the
//! determinism contract of DESIGN.md §10: the threshold and thread
//! count are pure performance knobs, never observable in results.
//! The proptest inputs stay below `parallel::MIN_PARALLEL_LEN`; one
//! fixed input is large enough to take the parallel branches.

use geometry::{CellId, Grid, Interval, Rect};
use proptest::prelude::*;
use pubsub_core::{
    parallel, CellProbability, DynamicClustering, KMeans, KMeansVariant, SubscriptionId,
};
use rand::prelude::*;

/// One random churn operation; indices are taken modulo the number of
/// issued ids at execution time so every op is valid. A rectangle is
/// one `(lo, hi)` per dimension.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(Vec<(f64, f64)>),
    Unsubscribe(usize),
    Resubscribe(usize, Vec<(f64, f64)>),
    Rebalance,
}

fn rect_strategy(dim: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (0.0..10.0f64, 0.5..3.0f64).prop_map(|(lo, w)| (lo, lo + w)),
        dim,
    )
}

fn op_strategy(dim: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => rect_strategy(dim).prop_map(Op::Subscribe),
        2 => (0usize..64).prop_map(Op::Unsubscribe),
        2 => (0usize..64, rect_strategy(dim)).prop_map(|(i, r)| Op::Resubscribe(i, r)),
        2 => Just(Op::Rebalance),
    ]
}

fn rect(bounds: &[(f64, f64)]) -> Rect {
    Rect::new(
        bounds
            .iter()
            .map(|&(lo, hi)| Interval::new(lo, hi).unwrap())
            .collect(),
    )
}

/// Everything observable about a dynamic clustering after a scenario:
/// per-rebalance move counts plus bit-exact framework and clustering
/// snapshots (probabilities captured as raw bits).
type Snapshot = (
    Vec<usize>,
    Vec<(Vec<CellId>, Vec<usize>, u64)>,
    Vec<(Vec<usize>, Vec<usize>, u64)>,
);

fn run_scenario(grid: &Grid, ops: &[Op], k: usize, max_dirty: f64) -> Snapshot {
    let probs = CellProbability::uniform(grid);
    let mut s =
        DynamicClustering::new(grid.clone(), probs, KMeans::new(KMeansVariant::MacQueen), k)
            .with_max_dirty(max_dirty);
    let mut issued = 0usize;
    let mut moves = Vec::new();
    for op in ops {
        match op {
            Op::Subscribe(r) => {
                s.subscribe(rect(r));
                issued += 1;
            }
            Op::Unsubscribe(i) if issued > 0 => {
                // Errors (already-dead ids) are themselves part of the
                // behaviour both paths must share, so ignore the result.
                let _ = s.unsubscribe(SubscriptionId(i % issued));
            }
            Op::Resubscribe(i, r) if issued > 0 => {
                let _ = s.resubscribe(SubscriptionId(i % issued), rect(r));
            }
            Op::Unsubscribe(_) | Op::Resubscribe(..) => {}
            Op::Rebalance => moves.push(rebalance_checked(&mut s, max_dirty)),
        }
    }
    moves.push(rebalance_checked(&mut s, max_dirty));
    let hypercells = s
        .framework()
        .hypercells()
        .iter()
        .map(|h| {
            (
                h.cells.clone(),
                h.members.iter().collect(),
                h.prob.to_bits(),
            )
        })
        .collect();
    let groups = s
        .clustering()
        .groups()
        .iter()
        .map(|g| {
            (
                g.hypercells.clone(),
                g.members.iter().collect(),
                g.prob.to_bits(),
            )
        })
        .collect();
    (moves, hypercells, groups)
}

/// Rebalances through `try_rebalance`, whose structural audit
/// (`Validator::check_framework` + `check_clustering`) runs in release
/// builds too, then checks that the threshold picked the path it pins.
fn rebalance_checked(s: &mut DynamicClustering, max_dirty: f64) -> usize {
    let stats = s.try_rebalance().expect("rebalance passes its audit");
    assert_eq!(
        stats.incremental,
        max_dirty == f64::INFINITY || stats.changed_slots == 0,
        "threshold {max_dirty} took the wrong path"
    );
    stats.moves
}

/// Force the two maintenance paths: a threshold of +inf accepts every
/// delta incrementally, 0.0 rejects every non-empty delta and falls
/// back to the cold rebuild. Returns the serial snapshot.
fn check_paths_agree(grid: &Grid, ops: &[Op], k: usize) -> Result<Snapshot, TestCaseError> {
    let serial_inc = parallel::with_threads(1, || run_scenario(grid, ops, k, f64::INFINITY));
    let serial_full = parallel::with_threads(1, || run_scenario(grid, ops, k, 0.0));
    let par_inc = parallel::with_threads(8, || run_scenario(grid, ops, k, f64::INFINITY));
    let par_full = parallel::with_threads(8, || run_scenario(grid, ops, k, 0.0));
    // Incremental maintenance is invisible in results...
    prop_assert_eq!(&serial_inc, &serial_full);
    // ...and so is the thread count, on either path.
    prop_assert_eq!(&par_inc, &serial_inc);
    prop_assert_eq!(&par_full, &serial_full);
    Ok(serial_inc)
}

/// The contract at a size where the parallel branches run: 1 000
/// narrow subscriptions on a 256-cell line, a tenth of them on a hot
/// front in the first 2 % of it, folded in by one rebalance (one
/// `apply_delta` of 1 000 added slots on the incremental side), then
/// three epochs that each resubscribe 1 % of the population to fresh
/// hot-front rectangles.
#[test]
fn incremental_equals_full_rebuild_on_the_parallel_branches() -> Result<(), TestCaseError> {
    const N: usize = 1_000;
    const HOT: f64 = 0.02;
    let mut rng = StdRng::seed_from_u64(2002);
    let mut span = |lo: std::ops::Range<f64>, width: std::ops::Range<f64>| {
        let lo = rng.gen_range(lo);
        vec![(lo, (lo + rng.gen_range(width)).min(1.0))]
    };
    let mut ops: Vec<Op> = (0..N)
        .map(|i| {
            if i < N / 10 {
                Op::Subscribe(span(0.0..HOT * 0.6, 0.002..0.005))
            } else {
                Op::Subscribe(span(0.0..0.98, 0.01..0.02))
            }
        })
        .collect();
    ops.push(Op::Rebalance);
    let churners = N / 100;
    for epoch in 0..3 {
        for c in 0..churners {
            let id = (epoch * churners + c) % (N / 10);
            ops.push(Op::Resubscribe(id, span(0.0..HOT * 0.6, 0.002..0.005)));
        }
        ops.push(Op::Rebalance);
    }
    // Both paths must agree after every epoch, not only the last.
    let grid = Grid::cube(0.0, 1.0, 1, 256).unwrap();
    for end in (0..ops.len()).filter(|&i| matches!(ops[i], Op::Rebalance)) {
        let (_, hypercells, _) = check_paths_agree(&grid, &ops[..=end], 16)?;
        prop_assert!(hypercells.len() >= 128, "{} hyper-cells", hypercells.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_full_rebuild_at_any_thread_count(
        ops in prop::collection::vec(op_strategy(1), 1..48),
        k in 1usize..5,
    ) {
        check_paths_agree(&Grid::cube(0.0, 12.0, 1, 12).unwrap(), &ops, k)?;
    }

    /// The same contract where a rectangle covers a block of cells, not
    /// a run: cells sharing a membership vector need not be adjacent
    /// along any one axis, as on every workload of the benchmark.
    #[test]
    fn incremental_equals_full_rebuild_on_a_2d_grid(
        ops in prop::collection::vec(op_strategy(2), 1..48),
        k in 1usize..5,
    ) {
        check_paths_agree(&Grid::cube(0.0, 12.0, 2, 8).unwrap(), &ops, k)?;
    }
}

/// Replays `ops` at `PUBSUB_THREADS` 1 and 8 on an always-incremental
/// clustering, which carries its K-means group state from swap to swap
/// (DESIGN.md §10), and before every rebalance clones a twin set to the
/// full path, which builds that state from scratch whenever the swap
/// folds something in (on an empty delta the twin takes the delta path
/// too, so that swap checks only the no-op fold). Both must report the
/// same moves and bit-equal frameworks and clusterings. In debug
/// builds `rebalance` also holds the carried state, field by field and
/// masses by bits, to a group set built from scratch from the framework
/// and the assignment, and every row to a fresh walk.
fn check_carried(grid: &Grid, ops: &[Op], k: usize) -> Result<(), TestCaseError> {
    let probs = CellProbability::uniform(grid);
    for threads in [1, 8] {
        parallel::with_threads(threads, || {
            let algorithm = KMeans::new(KMeansVariant::MacQueen);
            let mut s = DynamicClustering::new(grid.clone(), probs.clone(), algorithm, k)
                .with_max_dirty(f64::INFINITY);
            let mut issued = 0usize;
            let rebalances = ops.iter().chain([&Op::Rebalance]);
            for op in rebalances {
                match op {
                    Op::Subscribe(r) => {
                        s.subscribe(rect(r));
                        issued += 1;
                    }
                    Op::Unsubscribe(i) if issued > 0 => {
                        let _ = s.unsubscribe(SubscriptionId(i % issued));
                    }
                    Op::Resubscribe(i, r) if issued > 0 => {
                        let _ = s.resubscribe(SubscriptionId(i % issued), rect(r));
                    }
                    Op::Unsubscribe(_) | Op::Resubscribe(..) => {}
                    Op::Rebalance => {
                        let mut scratch = s.clone().with_max_dirty(0.0);
                        let (carried, twin) = (s.rebalance(), scratch.rebalance());
                        prop_assert_eq!(carried, twin, "moves at {} threads", threads);
                        prop_assert_eq!(observe(&s), observe(&scratch));
                    }
                }
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Cells, members and mass of every hyper-cell, then hyper-cells and
/// members of every group, masses as bits.
#[allow(clippy::type_complexity)]
fn observe(
    s: &DynamicClustering,
) -> (
    Vec<(Vec<CellId>, Vec<usize>, u64)>,
    Vec<(Vec<usize>, Vec<usize>)>,
) {
    let hypercells = s.framework().hypercells().iter();
    let groups = s.clustering().groups().iter();
    (
        hypercells
            .map(|h| {
                (
                    h.cells.clone(),
                    h.members.iter().collect(),
                    h.prob.to_bits(),
                )
            })
            .collect(),
        groups
            .map(|g| (g.hypercells.clone(), g.members.iter().collect()))
            .collect(),
    )
}

/// The carried state across the deltas that touch its bookkeeping: a
/// growing universe (every swap subscribes), a tombstone, a delta that
/// empties a hyper-cell (the only subscription of a corner goes), a
/// resubscribe that moves a subscription across the grid, and a swap
/// with nothing to fold in — at K = 1, at K = 3 and at K above the
/// hyper-cell count.
#[test]
fn carried_group_state_survives_every_kind_of_delta() -> Result<(), TestCaseError> {
    let sub = |lo: f64, hi: f64| Op::Subscribe(vec![(lo, hi), (lo, hi)]);
    let mut ops: Vec<Op> = (0..8).map(|i| sub(i as f64, i as f64 + 2.5)).collect();
    ops.push(Op::Subscribe(vec![(11.0, 12.0), (11.0, 12.0)])); // slot 8: a corner alone
    ops.push(Op::Rebalance);
    ops.extend([sub(0.5, 4.0), Op::Unsubscribe(2), Op::Rebalance]);
    ops.extend([sub(3.0, 5.0), Op::Unsubscribe(8), Op::Rebalance]);
    ops.extend([
        Op::Resubscribe(5, vec![(0.0, 1.5), (6.0, 9.0)]),
        Op::Rebalance,
    ]);
    ops.push(Op::Rebalance);
    let grid = Grid::cube(0.0, 12.0, 2, 8).unwrap();
    for k in [1, 3, 1_000] {
        check_carried(&grid, &ops, k)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The carried K-means state against a rebuild after every swap of
    /// a random churn sequence, at K from 1 to past the hyper-cell count.
    #[test]
    fn carried_group_state_equals_a_rebuild(
        ops in prop::collection::vec(op_strategy(2), 1..48),
        k in prop_oneof![Just(1usize), 2usize..6, Just(64usize)],
    ) {
        check_carried(&Grid::cube(0.0, 12.0, 2, 8).unwrap(), &ops, k)?;
    }
}
