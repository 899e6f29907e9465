//! Content-based routing without multicast groups: the broker-tree
//! architecture (paper §6.6) end to end — build, deliver, churn, and
//! the propagation cost that makes churn expensive in this design.
//!
//! ```text
//! cargo run --release -p pubsub-bench --example broker_overlay
//! ```

use broker::BrokerNetwork;
use geometry::{Interval, Point, Rect};
use netsim::{NodeId, Router, Topology, TransitStubParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(5);
    let topo = Topology::generate(&TransitStubParams::paper_300_nodes(), &mut rng);
    let nodes: Vec<NodeId> = topo.stub_nodes().collect();

    // 200 price-band subscriptions.
    let subs: Vec<(NodeId, Rect)> = (0..200)
        .map(|_| {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let center: f64 = rng.gen_range(10.0..90.0);
            let width: f64 = rng.gen_range(4.0..16.0);
            (
                node,
                Rect::new(vec![Interval::new(
                    center - width / 2.0,
                    center + width / 2.0,
                )
                .expect("ordered bounds")]),
            )
        })
        .collect();
    let mut net = BrokerNetwork::build(topo.graph(), &subs);
    println!(
        "broker network: {} brokers, {} subscriptions, full-tree flood cost {:.0}",
        net.num_brokers(),
        net.num_subscriptions(),
        net.tree_cost()
    );

    // Deliver a burst and compare with unicast on the same events.
    let mut router = Router::new(topo.graph());
    let mut broker_total = 0.0;
    let mut unicast_total = 0.0;
    for _ in 0..100 {
        let publisher = nodes[rng.gen_range(0..nodes.len())];
        let event = Point::new(vec![rng.gen_range(0.0..100.0)]);
        let d = net.deliver(publisher, &event);
        broker_total += d.cost;
        router.warm([publisher]);
        unicast_total += router.unicast_cost(publisher, d.receivers.iter().copied());
    }
    println!(
        "100 events: broker routing cost {broker_total:.0} vs unicast {unicast_total:.0} \
         ({:.0}% saved)",
        100.0 * (1.0 - broker_total / unicast_total.max(1e-9))
    );

    // Churn: every join touches every link of the tree.
    let (_, prop) = net.subscribe(nodes[0], Rect::new(vec![Interval::new(40.0, 60.0)?]));
    println!(
        "one new subscription propagated to {} per-link filters \
         (= every link of the {}-broker tree)",
        prop.filters_touched,
        net.num_brokers()
    );
    println!("that propagation cost is the paper's argument for precomputed");
    println!("multicast groups when subscriptions churn quickly.");
    Ok(())
}
