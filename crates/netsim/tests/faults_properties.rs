//! Property-based tests of degraded routing: for any fault schedule,
//! trees only use live edges, crashed nodes are never delivered to, and
//! degraded paths never beat healthy ones.

use netsim::{
    DegradedView, FaultModel, FaultSchedule, NodeId, Router, ShortestPathTree, Topology,
    TransitStubParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_params() -> TransitStubParams {
    TransitStubParams {
        transit_blocks: 2,
        transit_nodes_per_block: 3,
        stubs_per_transit: 2,
        nodes_per_stub: 4,
        ..Default::default()
    }
}

fn stormy_model(epochs: usize) -> FaultModel {
    FaultModel {
        epochs,
        link_fail: 0.15,
        node_crash: 0.1,
        degrade: 0.2,
        ..FaultModel::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn degraded_trees_use_only_live_edges(seed in 0u64..300, epochs in 1usize..5) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let g = topo.graph();
        let schedule = FaultSchedule::random(g, &stormy_model(epochs), seed ^ 0xfa17);
        for epoch in 0..schedule.num_epochs() {
            let view = schedule.view_at(g, epoch);
            let degraded = view.apply(g);
            for src in topo.stub_nodes().step_by(5) {
                let spt = ShortestPathTree::compute(&degraded, src);
                // Every tree edge is live under the view.
                for e in spt.tree_edges() {
                    prop_assert!(view.edge_live(g, e), "dead edge {e:?} in SPT");
                }
                // Crashed nodes are never reachable, so no scheme ever
                // delivers to them.
                for n in g.nodes() {
                    if !view.node_live(n) && n != src {
                        prop_assert!(!spt.is_reachable(n), "delivered to crashed {n:?}");
                    }
                }
                // Multicast trees are subsets of the SPT: also live-only.
                let members: Vec<NodeId> = topo.stub_nodes().step_by(3).collect();
                for e in spt.multicast_tree_edges(&degraded, members.iter().copied()) {
                    prop_assert!(view.edge_live(g, e));
                }
            }
        }
    }

    #[test]
    fn fallback_cost_never_beats_healthy_path(seed in 0u64..300, epochs in 1usize..4) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let g = topo.graph();
        let schedule = FaultSchedule::random(g, &stormy_model(epochs), seed ^ 0xbeef);
        let view = schedule.view_at(g, schedule.num_epochs() - 1);
        let degraded = view.apply(g);
        let src = NodeId(0);
        let healthy = ShortestPathTree::compute(g, src);
        let broken = ShortestPathTree::compute(&degraded, src);
        // Failures and degradations only remove or inflate edges, so
        // the per-member unicast fallback pays at least the healthy
        // shortest-path cost.
        for n in g.nodes() {
            prop_assert!(
                broken.distance(n) >= healthy.distance(n) - 1e-9,
                "degraded {} < healthy {} for {n:?}",
                broken.distance(n),
                healthy.distance(n)
            );
        }
    }

    #[test]
    fn incremental_invalidation_matches_cold_recompute(seed in 0u64..200, epochs in 2usize..5) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let g = topo.graph();
        let schedule = FaultSchedule::random(g, &stormy_model(epochs), seed ^ 0x5eed);
        let sources: Vec<NodeId> = topo.stub_nodes().step_by(7).collect();
        let targets: Vec<NodeId> = topo.stub_nodes().step_by(4).collect();
        let mut warm = Router::new(g);
        // Warm everything once so later epochs exercise tree retention.
        warm.warm(sources.iter().copied());
        for epoch in 0..schedule.num_epochs() {
            let view = schedule.view_at(g, epoch);
            let t = warm.set_view(view.clone());
            let held = sources.iter().filter(|&&s| warm.spt(s).is_some()).count();
            prop_assert_eq!(t.retained, held);
            // Refill what the view dropped, as the resilience pass does:
            // retained trees must still answer like a cold recompute.
            warm.warm(sources.iter().copied());
            let degraded = view.apply(g);
            let cold = Router::new(&degraded);
            for &s in &sources {
                for &t in &targets {
                    prop_assert_eq!(
                        warm.distance(s, t).to_bits(),
                        cold.distance(s, t).to_bits(),
                        "epoch {} src {:?} dst {:?}", epoch, s, t
                    );
                }
                let warm_cost = warm.group_multicast_cost(s, &targets);
                let cold_cost = cold.group_multicast_cost(s, &targets);
                prop_assert_eq!(warm_cost.to_bits(), cold_cost.to_bits());
            }
        }
    }

    #[test]
    fn healthy_view_is_transparent(seed in 0u64..200) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let g = topo.graph();
        let view = DegradedView::healthy(g);
        prop_assert!(view.is_healthy());
        let applied = view.apply(g);
        for (a, b) in g.edges().iter().zip(applied.edges()) {
            prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
    }
}
