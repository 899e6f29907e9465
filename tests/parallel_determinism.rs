//! Thread-count invariance of the parallel pipeline: every fan-out
//! introduced by `pubsub_core::parallel` must be bit-for-bit
//! deterministic — one worker or eight, the framework, the clusterings
//! of all five algorithms, the simulator's delivery breakdowns and the
//! Figure 7 numbers must be identical.
//!
//! The tests force both extremes through the thread-local override
//! (`parallel::with_threads`), so they are meaningful even on a
//! single-CPU machine and regardless of `PUBSUB_THREADS`.

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

use geometry::{Grid, Point, Rect};
use netsim::TransitStubParams;
use oracle::algorithms;
use pubsub_core::parallel::with_threads;
use pubsub_core::{CellProbability, Clustering, GridFramework, NoLossConfig};
use sim::experiments::{fig7, Fig7Config};
use sim::{Evaluator, StockScenario};
use workload::{PredicateDist, Section3Model, StockModel};

fn assignment(fw: &GridFramework, c: &Clustering) -> Vec<usize> {
    (0..fw.hypercells().len())
        .map(|h| c.group_of_hyper(h))
        .collect()
}

#[test]
fn framework_build_is_thread_count_invariant() {
    let model = StockModel::default().with_sizes(150, 60);
    let build = |threads: usize| {
        with_threads(threads, || {
            let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 5);
            sc.framework(300)
        })
    };
    let (a, b) = (build(1), build(8));
    assert_eq!(a.hypercells().len(), b.hypercells().len());
    for (ha, hb) in a.hypercells().iter().zip(b.hypercells()) {
        assert_eq!(ha.cells, hb.cells);
        assert_eq!(ha.members, hb.members);
        assert_eq!(ha.prob.to_bits(), hb.prob.to_bits());
    }
}

#[test]
fn all_five_algorithms_are_thread_count_invariant() {
    let model = StockModel::default().with_sizes(200, 80);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 120, 7);
    let fw = sc.framework(300);
    for alg in algorithms() {
        // Nothing is cached between runs: pairwise grouping builds its
        // distance matrix inside each run (in parallel at 8 workers).
        let run = |threads: usize| with_threads(threads, || alg.cluster(&fw, 12));
        let (c1, c8) = (run(1), run(8));
        assert_eq!(
            assignment(&fw, &c1),
            assignment(&fw, &c8),
            "{} assignments diverged across thread counts",
            alg.name()
        );
        assert_eq!(
            c1.total_expected_waste(&fw).to_bits(),
            c8.total_expected_waste(&fw).to_bits(),
            "{} waste diverged across thread counts",
            alg.name()
        );
    }
}

#[test]
fn fig7_numbers_are_thread_count_invariant() {
    let cfg = Fig7Config {
        model: StockModel::default().with_sizes(150, 80),
        topo: TransitStubParams::paper_100_nodes(),
        density_events: 150,
        ks: vec![4, 12],
        max_cells: 300,
        max_cells_pairs: 150,
        noloss: NoLossConfig {
            max_rects: 150,
            iterations: 2,
            max_candidates_per_round: 30_000,
        },
        seed: 2002,
    };
    let run = |threads: usize| with_threads(threads, || fig7(&cfg));
    let (a, b) = (run(1), run(8));
    assert_eq!(a.baselines.unicast.to_bits(), b.baselines.unicast.to_bits());
    assert_eq!(
        a.baselines.broadcast.to_bits(),
        b.baselines.broadcast.to_bits()
    );
    assert_eq!(a.baselines.ideal.to_bits(), b.baselines.ideal.to_bits());
    assert_eq!(a.series.len(), b.series.len());
    for (sa, sb) in a.series.iter().zip(&b.series) {
        assert_eq!(sa.algorithm, sb.algorithm);
        assert_eq!(sa.mode, sb.mode);
        assert_eq!(sa.points.len(), sb.points.len(), "{}", sa.algorithm);
        for (&(ka, pa), &(kb, pb)) in sa.points.iter().zip(&sb.points) {
            assert_eq!(ka, kb, "{}", sa.algorithm);
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "{} K={} improvement diverged: {} vs {}",
                sa.algorithm,
                ka,
                pa,
                pb
            );
        }
    }
}

/// End-to-end: the numbers the simulator reports for a realistic
/// scenario are bit-identical across thread counts, for all five
/// algorithms. The contract does not depend on the hyper-cell count, so
/// the framework is capped where five cold clusterings (exact pairwise
/// included) stay cheap in the debug profile.
#[test]
fn delivery_breakdown_bits_identical_across_thread_counts() {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(5);
    let topo = netsim::Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
    let model = Section3Model {
        regionalism: 0.4,
        dist: PredicateDist::Uniform,
        num_subscriptions: 150,
        num_events: 80,
    };
    let w = model.generate(&topo, &mut rng);
    let grid = Grid::new(w.bounds.clone(), w.suggested_bins.clone()).unwrap();
    let rects: Vec<Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
    let sample: Vec<Point> = w.events.iter().map(|e| e.point.clone()).collect();
    let probs = CellProbability::empirical(&grid, &sample);
    let fw = GridFramework::build(grid, &rects, &probs, Some(300));

    let clusterings: Vec<Clustering> = algorithms().iter().map(|a| a.cluster(&fw, 10)).collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut ev = Evaluator::new(&topo, &w);
            clusterings
                .iter()
                .map(|c| {
                    let bd = ev.grid_clustering_breakdown(&fw, c, 0.25);
                    (
                        bd.events,
                        bd.multicast_events,
                        bd.unicast_events,
                        bd.multicast_cost.to_bits(),
                        bd.unicast_cost.to_bits(),
                        bd.mean_group_nodes.to_bits(),
                        bd.mean_wasted_nodes.to_bits(),
                        bd.mean_interested_nodes.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(8), "breakdowns diverged across thread counts");
}
