//! Criterion benches of the parallel execution layer: serial
//! (1 worker) vs fanned-out (4 workers) runs of the distance-matrix
//! build and the two all-pairs algorithms. Pairwise Grouping builds the
//! matrix inside every run. MST computes its distances directly and
//! fans its relaxation rows out only from 2 048 hyper-cells up, so at
//! this size its two runs are both serial.
//!
//! The worker count is forced through `parallel::with_threads`, so the
//! comparison is meaningful regardless of `PUBSUB_THREADS`. That the
//! outputs are bit-identical at any worker count is pinned by
//! `tests/parallel_determinism.rs`, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::TransitStubParams;
use pubsub_core::parallel::with_threads;
use pubsub_core::{ClusteringAlgorithm, MstClustering, PairsStrategy, PairwiseGrouping};
use sim::StockScenario;
use workload::StockModel;

const K: usize = 25;
const CELLS: usize = 800;
const THREADS: [usize; 2] = [1, 4];

fn bench_parallel_clustering(c: &mut Criterion) {
    let model = StockModel::default().with_sizes(500, 50);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 300, 77);
    let fw = sc.framework(CELLS);

    let mut group = c.benchmark_group("parallel_speedup");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);

    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("distances", threads),
            &threads,
            |b, &threads| b.iter(|| with_threads(threads, || fw.distance_matrix())),
        );
    }

    let algs: Vec<(&str, Box<dyn ClusteringAlgorithm>)> = vec![
        (
            "pairs",
            Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
        ),
        ("mst", Box::new(MstClustering::new())),
    ];
    for (name, alg) in &algs {
        for threads in THREADS {
            group.bench_with_input(BenchmarkId::new(*name, threads), &threads, |b, &threads| {
                b.iter(|| with_threads(threads, || alg.cluster(&fw, K)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_clustering);
criterion_main!(benches);
