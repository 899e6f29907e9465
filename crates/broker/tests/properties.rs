//! Property tests of the broker overlay: exact matching and sane cost
//! bounds on arbitrary topologies, subscription placements and trees.

use broker::{BrokerNetwork, TreeKind};
use geometry::{Interval, Point, Rect};
use netsim::{FaultModel, FaultSchedule, NodeId, Topology, TransitStubParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_params() -> TransitStubParams {
    TransitStubParams {
        transit_blocks: 2,
        transit_nodes_per_block: 2,
        stubs_per_transit: 2,
        nodes_per_stub: 3,
        ..Default::default()
    }
}

/// Deterministically derive a topology + subscriptions from a seed.
fn scenario(seed: u64, subs: usize) -> (Topology, Vec<(NodeId, Rect)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = Topology::generate(&small_params(), &mut rng);
    let nodes: Vec<NodeId> = topo.stub_nodes().collect();
    let subs: Vec<(NodeId, Rect)> = (0..subs)
        .map(|_| {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let a: f64 = rng.gen_range(0.0..20.0);
            let b: f64 = rng.gen_range(0.0..20.0);
            (node, Rect::new(vec![Interval::from_unordered(a, b)]))
        })
        .collect();
    (topo, subs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delivery_is_exact_on_both_tree_kinds(
        seed in 0u64..300,
        nsubs in 1usize..30,
        x in 0.0..20.0f64,
        pub_pick in 0usize..100,
    ) {
        let (topo, subs) = scenario(seed, nsubs);
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let publisher = nodes[pub_pick % nodes.len()];
        let event = Point::new(vec![x]);
        let expect: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| r.contains(&event))
            .map(|(i, _)| i)
            .collect();
        for kind in [TreeKind::Mst, TreeKind::CoreSpt(topo.stubs()[0].transit)] {
            let net = BrokerNetwork::build_with_tree(topo.graph(), &subs, kind);
            let d = net.deliver(publisher, &event);
            prop_assert_eq!(&d.matched_subscriptions, &expect, "{:?}", kind);
            // Cost bounded by flooding the whole tree; zero when no
            // remote receiver exists.
            prop_assert!(d.cost <= net.tree_cost() + 1e-9);
            let all_local = expect.iter().all(|&i| subs[i].0 == publisher);
            if expect.is_empty() || all_local {
                prop_assert_eq!(d.cost, 0.0, "{:?}", kind);
            }
        }
    }

    #[test]
    fn subscribe_then_deliver_equals_build_from_scratch(
        seed in 0u64..300,
        nsubs in 1usize..20,
        x in 0.0..20.0f64,
    ) {
        let (topo, subs) = scenario(seed, nsubs);
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        // Build with all-but-one, then subscribe the last dynamically.
        let (last, rest) = subs.split_last().unwrap();
        let mut incremental = BrokerNetwork::build(topo.graph(), rest);
        let (id, prop_cost) = incremental.subscribe(last.0, last.1.clone());
        prop_assert_eq!(id, rest.len());
        // A tree over n brokers has n-1 links; each has exactly one
        // direction pointing toward the new home.
        prop_assert_eq!(prop_cost.filters_touched, topo.num_nodes() - 1);
        let from_scratch = BrokerNetwork::build(topo.graph(), &subs);
        let event = Point::new(vec![x]);
        let publisher = nodes[0];
        prop_assert_eq!(
            incremental.deliver(publisher, &event),
            from_scratch.deliver(publisher, &event)
        );
    }

    #[test]
    fn repaired_tree_delivers_to_everyone_reachable(
        seed in 0u64..200,
        nsubs in 1usize..25,
        epochs in 1usize..4,
        x in 0.0..20.0f64,
        pub_pick in 0usize..100,
    ) {
        let (topo, subs) = scenario(seed, nsubs);
        let g = topo.graph();
        let model = FaultModel {
            epochs,
            link_fail: 0.15,
            node_crash: 0.1,
            degrade: 0.1,
            ..FaultModel::default()
        };
        let schedule = FaultSchedule::random(g, &model, seed ^ 0xb40c);
        let view = schedule.view_at(g, schedule.num_epochs() - 1);
        let mut net = BrokerNetwork::build(g, &subs);
        let report = net.repair(g, &view);
        prop_assert!(report.repair_cost >= 0.0);
        prop_assert!(report.repair_cost.is_finite());

        // Live-graph connectivity from the primary seed (the lowest-id
        // live broker) — everything in this set was grafted into the
        // primary tree.
        let primary_seed = match g.nodes().find(|&u| view.node_live(u)) {
            Some(u) => u,
            None => return Ok(()),
        };
        let mut in_primary = vec![false; g.num_nodes()];
        let mut stack = vec![primary_seed];
        in_primary[primary_seed.index()] = true;
        while let Some(u) = stack.pop() {
            for &(v, e) in g.neighbors(u) {
                if view.edge_live(g, e) && !in_primary[v.index()] {
                    in_primary[v.index()] = true;
                    stack.push(v);
                }
            }
        }

        let publisher = nodes_of(&topo)[pub_pick % topo.num_nodes()];
        let event = Point::new(vec![x]);
        let d = net.deliver(publisher, &event);
        // Soundness: only live, matching subscriptions on live brokers.
        for &i in &d.matched_subscriptions {
            prop_assert!(subs[i].1.contains(&event));
            prop_assert!(view.node_live(subs[i].0), "delivered to crashed broker");
        }
        for &r in &d.receivers {
            prop_assert!(view.node_live(r));
        }
        // Completeness within the primary component: a live matching
        // subscription whose home shares the primary component with the
        // publisher must be delivered.
        if view.node_live(publisher) && in_primary[publisher.index()] {
            for (i, (home, rect)) in subs.iter().enumerate() {
                if view.node_live(*home) && in_primary[home.index()] && rect.contains(&event) {
                    prop_assert!(
                        d.matched_subscriptions.contains(&i),
                        "missed reachable subscription {i}"
                    );
                }
            }
        }
        // Costs stay finite and bounded by flooding the repaired forest.
        prop_assert!(d.cost.is_finite());
        prop_assert!(d.cost <= net.tree_cost() + 1e-9);
    }
}

fn nodes_of(topo: &Topology) -> Vec<NodeId> {
    topo.graph().nodes().collect()
}
