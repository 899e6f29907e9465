//! Criterion benches of the network cost models (the dynamic stage
//! behind Tables 1–2 and the cost axis of every figure): Dijkstra,
//! pruned-SPT multicast, overlay-MST application-level multicast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{NodeId, Router, ShortestPathTree, Topology, TransitStubParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topo(params: &TransitStubParams, seed: u64) -> Topology {
    Topology::generate(params, &mut StdRng::seed_from_u64(seed))
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, params) in [
        ("100", TransitStubParams::paper_100_nodes()),
        ("600", TransitStubParams::paper_section51()),
    ] {
        let t = topo(&params, 1);
        group.bench_with_input(BenchmarkId::from_parameter(name), &t, |b, t| {
            b.iter(|| ShortestPathTree::compute(t.graph(), NodeId(0)))
        });
    }
    group.finish();
}

fn bench_delivery_schemes(c: &mut Criterion) {
    let t = topo(&TransitStubParams::paper_section51(), 2);
    let nodes: Vec<NodeId> = t.stub_nodes().collect();
    let members: Vec<NodeId> = nodes.iter().step_by(7).copied().collect();
    let src = nodes[0];
    // Every tree the queries read is warmed up front, so the timings
    // below measure the cost models, not Dijkstra.
    let mut r = Router::new(t.graph());
    r.warm(members.iter().copied().chain([src]));
    let mut group = c.benchmark_group("delivery_schemes_600_nodes");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("unicast", |b| {
        b.iter(|| r.unicast_cost(src, members.iter().copied()))
    });
    group.bench_function("network_multicast", |b| {
        b.iter(|| r.group_multicast_cost(src, &members))
    });
    group.bench_function("app_level_multicast", |b| {
        b.iter(|| r.app_multicast_cost(src, &members))
    });
    group.bench_function("broadcast", |b| b.iter(|| r.broadcast_cost(src)));
    group.finish();
}

criterion_group!(benches, bench_dijkstra, bench_delivery_schemes);
criterion_main!(benches);
