//! Property tests of the broker overlay: exact matching and sane cost
//! bounds on arbitrary topologies and subscription placements.

use broker::BrokerNetwork;
use geometry::{Interval, Point, Rect};
use netsim::{NodeId, Topology, TransitStubParams};
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
        let net = BrokerNetwork::build(topo.graph(), &subs);
        let d = net.deliver(publisher, &event);
        prop_assert_eq!(&d.matched_subscriptions, &expect);
        // Cost bounded by flooding the whole tree; zero when no remote
        // receiver exists.
        prop_assert!(d.cost <= net.tree_cost() + 1e-9);
        let all_local = expect.iter().all(|&i| subs[i].0 == publisher);
        if expect.is_empty() || all_local {
            prop_assert_eq!(d.cost, 0.0);
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
}
