//! Failure injection: link failures must degrade routing gracefully —
//! costs grow, unreachable receivers are skipped, nothing panics.

use netsim::{
    EdgeId, Fault, FaultSchedule, Graph, NodeId, Router, ShortestPathTree, Topology,
    TransitStubParams,
};
use rand::prelude::*;

/// `g` with `link` down, as the resilience pass routes over it: the
/// same ids, the dead link at `+inf` cost.
fn with_link_down(g: &Graph, link: EdgeId) -> Graph {
    FaultSchedule::new(1)
        .with(0, Fault::LinkDown(link))
        .view_at(g, 0)
        .apply(g)
}

#[test]
fn removing_a_detour_edge_raises_costs_monotonically() {
    // Diamond: 0-1 (1), 1-3 (1), 0-2 (5), 2-3 (5): shortest 0→3 is 2.
    let mut g = Graph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    let fast = g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
    g.add_edge(NodeId(0), NodeId(2), 5.0).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 5.0).unwrap();
    let mut r = Router::new(&g);
    r.warm([NodeId(0)]);
    assert_eq!(r.distance(NodeId(0), NodeId(3)), 2.0);
    // Fail the fast path: traffic reroutes over the expensive side.
    let degraded = with_link_down(&g, fast);
    let mut r = Router::new(&degraded);
    r.warm([NodeId(0)]);
    assert_eq!(r.distance(NodeId(0), NodeId(3)), 10.0);
}

#[test]
fn partition_leaves_unreachable_receivers_out_silently() {
    // Path 0-1-2; failing (1,2) partitions node 2.
    let mut g = Graph::with_nodes(3);
    g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    let cut = g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
    let degraded = with_link_down(&g, cut);
    let spt = ShortestPathTree::compute(&degraded, NodeId(0));
    assert!(!spt.is_reachable(NodeId(2)));
    let mut r = Router::new(&degraded);
    r.warm([NodeId(0)]);
    // Unicast and multicast both skip the unreachable receiver instead
    // of failing; the reachable one is still served.
    assert_eq!(r.unicast_cost(NodeId(0), [NodeId(1), NodeId(2)]), 1.0);
    assert_eq!(
        r.group_multicast_cost(NodeId(0), &[NodeId(1), NodeId(2)]),
        1.0
    );
    // Broadcast (every node a receiver) skips it too.
    let everyone: Vec<NodeId> = degraded.nodes().collect();
    assert_eq!(r.group_multicast_cost(NodeId(0), &everyone), 1.0);
}

#[test]
fn random_non_partitioning_failures_never_reduce_costs() {
    let mut rng = StdRng::seed_from_u64(55);
    let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
    let g = topo.graph();
    let nodes: Vec<NodeId> = topo.stub_nodes().collect();
    let members: Vec<NodeId> = nodes.iter().step_by(11).copied().collect();
    let src = nodes[0];
    let mut base_router = Router::new(g);
    base_router.warm([src]);
    let base_uni = base_router.unicast_cost(src, members.iter().copied());
    let base_tree = base_router.group_multicast_cost(src, &members);
    let mut tested = 0;
    for _ in 0..30 {
        let victim = EdgeId(rng.gen_range(0..g.num_edges()));
        let degraded = with_link_down(g, victim);
        let spt = ShortestPathTree::compute(&degraded, src);
        if !g.nodes().all(|n| spt.is_reachable(n)) {
            continue; // partitions change semantics, covered above
        }
        tested += 1;
        let mut r = Router::new(&degraded);
        r.warm([src]);
        let uni = r.unicast_cost(src, members.iter().copied());
        let tree = r.group_multicast_cost(src, &members);
        assert!(uni >= base_uni - 1e-9, "unicast improved after failure");
        // The pruned-SPT tree uses shortest paths, which only lengthen.
        assert!(
            tree >= base_tree - 1e-9,
            "multicast tree improved after failure"
        );
    }
    assert!(tested > 5, "too few non-partitioning failures sampled");
}
