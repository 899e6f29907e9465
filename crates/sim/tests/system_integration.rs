//! Integration tests of the live `PubSubSystem` façade across
//! thresholds and churn.

use geometry::{Grid, Interval, Point, Rect};
use netsim::{NodeId, Topology, TransitStubParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::PubSubSystem;

fn topo() -> Topology {
    Topology::generate(
        &TransitStubParams::paper_100_nodes(),
        &mut StdRng::seed_from_u64(77),
    )
}

fn rect1(lo: f64, hi: f64) -> Rect {
    Rect::new(vec![Interval::new(lo, hi).unwrap()])
}

/// Every interested node is always served.
#[test]
fn every_interested_node_is_served() {
    let t = topo();
    let nodes: Vec<NodeId> = t.stub_nodes().collect();
    let mut rng = StdRng::seed_from_u64(5);
    let subs: Vec<(NodeId, Rect)> = (0..60)
        .map(|_| {
            let n = nodes[rng.gen_range(0..nodes.len())];
            let lo: f64 = rng.gen_range(0.0..15.0);
            (n, rect1(lo, lo + rng.gen_range(1.0..5.0)))
        })
        .collect();
    let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
    let mut sys = PubSubSystem::new(&t, grid, 6);
    for (n, r) in &subs {
        sys.subscribe(*n, r.clone());
    }
    sys.refresh();
    for probe in 0..20 {
        let event = Point::new(vec![probe as f64 + 0.5]);
        let report = sys.publish(nodes[probe % nodes.len()], &event);
        // Receivers ⊇ nodes of interested subscriptions.
        for &i in &report.interested {
            assert!(
                report.receiver_nodes.contains(&subs[i].0),
                "node of interested sub {i} not served"
            );
        }
        assert!(report.cost >= 0.0);
    }
}

/// Churn in the middle of a publish stream keeps the system coherent.
#[test]
fn interleaved_churn_and_publishing() {
    let t = topo();
    let nodes: Vec<NodeId> = t.stub_nodes().collect();
    let grid = Grid::cube(0.0, 20.0, 1, 20).unwrap();
    let mut sys = PubSubSystem::new(&t, grid, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let mut live = Vec::new();
    for round in 0..10 {
        // Some joins...
        for _ in 0..5 {
            let n = nodes[rng.gen_range(0..nodes.len())];
            let lo: f64 = rng.gen_range(0.0..15.0);
            live.push(sys.subscribe(n, rect1(lo, lo + 3.0)));
        }
        // ...some leaves...
        if live.len() > 8 {
            for _ in 0..3 {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                sys.unsubscribe(id).unwrap();
            }
        }
        sys.refresh();
        // ...and a publish burst.
        for _ in 0..5 {
            let report = sys.publish(
                nodes[rng.gen_range(0..nodes.len())],
                &Point::new(vec![rng.gen_range(0.0..20.0)]),
            );
            assert!(report.cost.is_finite(), "round {round}");
        }
        assert_eq!(sys.num_subscriptions(), live.len(), "round {round}");
    }
    assert_eq!(sys.stats().events, 50);
}
