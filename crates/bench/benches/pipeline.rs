//! Criterion benches of the preprocessing pipeline (the static stage
//! behind every figure): workload generation, rasterization +
//! hyper-cell merging, R-tree construction and event matching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geometry::Grid;
use netsim::{Topology, TransitStubParams};
use pubsub_core::{CellProbability, GridFramework};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::StockScenario;
use spatial::RTree;
use workload::StockModel;

fn bench_topology_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generation");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, params) in [
        ("100", TransitStubParams::paper_100_nodes()),
        ("300", TransitStubParams::paper_300_nodes()),
        ("600", TransitStubParams::paper_section51()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &params, |b, p| {
            b.iter(|| Topology::generate(p, &mut StdRng::seed_from_u64(1)))
        });
    }
    group.finish();
}

fn bench_framework_build(c: &mut Criterion) {
    let model = StockModel::default().with_sizes(400, 20);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 200, 3);
    let grid = Grid::new(
        sc.workload.bounds.clone(),
        sc.workload.suggested_bins.clone(),
    )
    .unwrap();
    let probs = CellProbability::empirical(&grid, &sc.density_sample);
    let mut group = c.benchmark_group("framework_build");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("rasterize_merge_rank", |b| {
        b.iter(|| GridFramework::build(grid.clone(), &sc.rects, &probs, Some(500)))
    });
    group.finish();
}

fn bench_rtree(c: &mut Criterion) {
    let model = StockModel::default().with_sizes(1000, 200);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 4);
    let items: Vec<_> = sc
        .rects
        .iter()
        .enumerate()
        .map(|(i, r)| (r.clone(), i))
        .collect();
    let mut group = c.benchmark_group("rtree");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("bulk_load_1000", |b| {
        b.iter(|| RTree::bulk_load(4, items.clone()))
    });
    let tree = RTree::bulk_load(4, items);
    let probes: Vec<_> = sc.workload.events.iter().map(|e| e.point.clone()).collect();
    group.bench_function("stab_200_events", |b| {
        b.iter(|| probes.iter().map(|p| tree.stab(p).len()).sum::<usize>())
    });
    group.finish();
}

/// The R-tree (the paper's R*-tree, substituted) against the
/// brute-force scan, on the same matching workload.
fn bench_index_comparison(c: &mut Criterion) {
    let model = StockModel::default().with_sizes(1000, 200);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 6);
    let items: Vec<_> = sc
        .rects
        .iter()
        .enumerate()
        .map(|(i, r)| (r.clone(), i))
        .collect();
    let rtree = RTree::bulk_load(4, items);
    let probes: Vec<_> = sc.workload.events.iter().map(|e| e.point.clone()).collect();
    let mut group = c.benchmark_group("matching_index_comparison");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("rtree_stab", |b| {
        b.iter(|| probes.iter().map(|p| rtree.stab(p).len()).sum::<usize>())
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|p| sc.rects.iter().filter(|r| r.contains(p)).count())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Broker-tree construction and per-event hop-by-hop delivery.
fn bench_broker(c: &mut Criterion) {
    use broker::BrokerNetwork;
    let model = StockModel::default().with_sizes(500, 100);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 8);
    let subs: Vec<(netsim::NodeId, geometry::Rect)> = sc
        .workload
        .subscriptions
        .iter()
        .map(|s| (s.node, s.rect.clone()))
        .collect();
    let mut group = c.benchmark_group("broker");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("build_500_subs", |b| {
        b.iter(|| BrokerNetwork::build(sc.topo.graph(), &subs))
    });
    let net = BrokerNetwork::build(sc.topo.graph(), &subs);
    group.bench_function("deliver_100_events", |b| {
        b.iter(|| {
            sc.workload
                .events
                .iter()
                .map(|e| net.deliver(e.publisher, &e.point).cost)
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let model = StockModel::default().with_sizes(400, 200);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 200, 5);
    let fw = sc.framework(500);
    let mut group = c.benchmark_group("matching");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("hyper_of_point_200_events", |b| {
        b.iter(|| {
            sc.workload
                .events
                .iter()
                .filter_map(|e| fw.hyper_of_point(&e.point))
                .count()
        })
    });
    group.bench_function("brute_force_interest_200_events", |b| {
        b.iter(|| {
            sc.workload
                .events
                .iter()
                .map(|e| sc.workload.matching_subscriptions(&e.point).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topology_generation,
    bench_framework_build,
    bench_rtree,
    bench_index_comparison,
    bench_broker,
    bench_matching
);
criterion_main!(benches);
