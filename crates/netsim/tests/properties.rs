//! Property-based tests of the routing substrate on random topologies.

use netsim::{NodeId, Router, ShortestPathTree, Topology, TransitStubParams};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn triangle_inequality_over_shortest_paths(seed in 0u64..500, a in 0usize..60, b in 0usize..60, c in 0usize..60) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let n = topo.num_nodes();
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        let mut r = Router::new(topo.graph());
        r.warm([a, b, c]);
        let dab = r.distance(a, b);
        let dbc = r.distance(b, c);
        let dac = r.distance(a, c);
        prop_assert!(dac <= dab + dbc + 1e-9, "{dac} > {dab} + {dbc}");
        // Symmetry on undirected graphs.
        prop_assert!((dab - r.distance(b, a)).abs() < 1e-9);
    }

    #[test]
    fn multicast_tree_bounds(seed in 0u64..500, pick in 1usize..20) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let members: Vec<NodeId> = nodes.iter().step_by(pick).copied().collect();
        let src = nodes[0];
        let mut r = Router::new(topo.graph());
        r.warm([src]);
        let uni = r.unicast_cost(src, members.iter().copied());
        let tree = r.group_multicast_cost(src, &members);
        let everyone: Vec<NodeId> = topo.graph().nodes().collect();
        let bcast = r.group_multicast_cost(src, &everyone);
        // Shared tree never costs more than per-receiver unicast...
        prop_assert!(tree <= uni + 1e-9, "tree {tree} > unicast {uni}");
        // ...and never more than flooding everyone.
        prop_assert!(tree <= bcast + 1e-9, "tree {tree} > broadcast {bcast}");
        // The farthest member's distance lower-bounds the tree.
        let spt = ShortestPathTree::compute(topo.graph(), src);
        let far = members
            .iter()
            .map(|&m| spt.distance(m))
            .fold(0.0f64, f64::max);
        prop_assert!(tree >= far - 1e-9, "tree {tree} < farthest member {far}");
    }

    #[test]
    fn app_multicast_decomposition(seed in 0u64..500, pick in 1usize..10) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let members: Vec<NodeId> = nodes.iter().step_by(pick + 1).copied().collect();
        let src = nodes[1 % nodes.len()];
        let mut r = Router::new(topo.graph());
        r.warm(members.iter().copied().chain([src]));
        // Application-level multicast costs entry_cost + overlay_mst_cost.
        // The entry hop is the nearest member's unicast distance.
        let nearest = members
            .iter()
            .map(|&m| r.distance(src, m))
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(r.entry_cost(src, &members), nearest);
        // The member tree spans the members: at least its widest pair,
        // at most the star from the first member. (The sum is NOT
        // always dearer than the dense-mode pruned SPT: the SPT is no
        // Steiner tree, and members clustered far from the publisher
        // can be cheaper to serve member-to-member — proptest found
        // such a case.)
        let mst = r.overlay_mst_cost(&members);
        let widest = members
            .iter()
            .flat_map(|&a| members.iter().map(move |&b| (a, b)))
            .map(|(a, b)| r.distance(a, b))
            .fold(0.0f64, f64::max);
        let star: f64 = members.iter().map(|&m| r.distance(members[0], m)).sum();
        prop_assert!(mst >= widest - 1e-9, "{} < {}", mst, widest);
        prop_assert!(mst <= star + 1e-9, "{} > {}", mst, star);
    }

    #[test]
    fn adding_targets_never_reduces_costs(seed in 0u64..200) {
        let topo = Topology::generate(&small_params(), &mut StdRng::seed_from_u64(seed));
        let nodes: Vec<NodeId> = topo.stub_nodes().collect();
        let src = nodes[0];
        let mut r = Router::new(topo.graph());
        r.warm([src]);
        let mut prev_tree = 0.0f64;
        let mut prev_uni = 0.0f64;
        for take in [2usize, 4, 8, 16] {
            let members: Vec<NodeId> = nodes.iter().take(take).copied().collect();
            let tree = r.group_multicast_cost(src, &members);
            let uni = r.unicast_cost(src, members.iter().copied());
            prop_assert!(tree >= prev_tree - 1e-9);
            prop_assert!(uni >= prev_uni - 1e-9);
            prev_tree = tree;
            prev_uni = uni;
        }
    }
}
