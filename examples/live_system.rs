//! A live pub-sub system with subscription churn: subscribe, publish,
//! unsubscribe, re-balance — the full dynamic path of the paper
//! (Figure 5 matching + Section 6's dynamic-subscription discussion),
//! decided by a running `BrokerService` and priced by `sim::Evaluator`.
//!
//! ```text
//! cargo run --release -p pubsub-bench --example live_system
//! ```

use geometry::{Grid, Interval, Point, Rect};
use netsim::{NodeId, Router, Topology, TransitStubParams};
use pubsub_core::{
    BrokerService, CellProbability, Delivery, DynamicClustering, KMeans, KMeansVariant,
    ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::Evaluator;
use workload::{Event, Subscription, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let topo = Topology::generate(&TransitStubParams::paper_300_nodes(), &mut rng);
    let nodes: Vec<NodeId> = topo.stub_nodes().collect();

    // Event space: a single "price" attribute 0..100, kept in at most
    // 16 groups by Forgy K-means (the paper's recommended algorithm).
    let grid = Grid::cube(0.0, 100.0, 1, 50)?;
    let probs = CellProbability::uniform(&grid);
    let mut dynamic = DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::Forgy), 16);

    // Phase 1: 150 subscribers with banded price interest. Ids are
    // issued in order (here and by the service), so `slot_nodes` maps a
    // subscription id to its node.
    let mut subscriptions = Vec::new();
    let mut ids = Vec::new();
    for _ in 0..150 {
        let node = nodes[rng.gen_range(0..nodes.len())];
        let center: f64 = rng.gen_range(20.0..80.0);
        let width: f64 = rng.gen_range(5.0..20.0);
        let rect = Rect::new(vec![Interval::new(
            (center - width / 2.0).max(0.0),
            (center + width / 2.0).min(100.0),
        )?]);
        ids.push(dynamic.subscribe(rect.clone()));
        subscriptions.push(Subscription { node, rect });
    }
    let mut slot_nodes: Vec<NodeId> = subscriptions.iter().map(|s| s.node).collect();
    let moves = dynamic.rebalance();
    println!(
        "phase 1: {} subscribers clustered into groups ({moves} re-balancing moves)",
        dynamic.num_subscriptions()
    );

    // A burst of events, priced over the phase-1 population: nothing is
    // unsubscribed yet, so the workload's indices are the slot ids.
    let events: Vec<Event> = (0..200)
        .map(|_| Event {
            publisher: nodes[rng.gen_range(0..nodes.len())],
            point: Point::new(vec![rng.gen_range(0.0..100.0)]),
        })
        .collect();
    let workload = Workload {
        bounds: Rect::new(vec![Interval::new(0.0, 100.0)?]),
        suggested_bins: vec![50],
        subscriptions,
        events,
    };
    let s = Evaluator::new(&topo, &workload).grid_clustering_breakdown(
        dynamic.framework(),
        dynamic.clustering(),
        0.0,
    );
    println!(
        "phase 1 stats: {} events, {} multicast / {} unicast, total cost {:.0}",
        s.events,
        s.multicast_events,
        s.unicast_events,
        s.multicast_cost + s.unicast_cost
    );

    // The service decides the same burst with the same clustering.
    let service = BrokerService::start(dynamic, ServiceConfig::default())?;
    for event in &workload.events {
        service.offer(event.point.clone());
    }
    service.drain();

    // Phase 2: churn — a third of the subscribers leave, new ones join
    // with interest concentrated around 50.
    for id in ids.iter().take(50) {
        service.unsubscribe(*id);
    }
    for _ in 0..60 {
        let node = nodes[rng.gen_range(0..nodes.len())];
        let center: f64 = rng.gen_range(45.0..55.0);
        service.subscribe(Rect::new(vec![Interval::new(center - 5.0, center + 5.0)?]));
        slot_nodes.push(node);
    }
    let swap = service.rebalance()?;
    println!(
        "\nphase 2: churn applied ({} live subscribers); warm re-balance took {} moves",
        swap.subscriptions, swap.stats.moves
    );

    // Events around the new hot spot should now multicast tightly.
    service.offer(Point::new(vec![50.0]));
    let (report, dynamic) = service.shutdown();
    let (burst, hot) = report.records.split_at(workload.events.len());
    let multicast = burst
        .iter()
        .filter(|r| matches!(r.decision, Delivery::Multicast { .. }))
        .count();
    assert_eq!(
        (multicast, burst.len() - multicast),
        (s.multicast_events, s.unicast_events),
        "the service's split differs from the pricing pass's"
    );
    let record = hot[0];
    let Delivery::Multicast { group } = record.decision else {
        return Err("the hot-spot event fell back to unicast".into());
    };
    let mut receivers: Vec<NodeId> = dynamic.clustering().groups()[group]
        .members
        .iter()
        .map(|i| slot_nodes[i])
        .collect();
    receivers.sort_unstable();
    receivers.dedup();
    let cost = Router::new(topo.graph()).group_multicast_cost(nodes[0], &receivers);
    println!(
        "event at price 50: {} interested subscriptions, {} receiver nodes, cost {cost:.0}, group {:?}",
        record.interested,
        receivers.len(),
        Some(group)
    );
    Ok(())
}
