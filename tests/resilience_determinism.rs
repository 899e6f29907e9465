//! Cross-crate guarantees of the failure pipeline: the zero-fault run
//! is a strict no-op (bit-identical costs to the fault-free
//! breakdown), faulty runs partition every interested member exactly
//! once, and everything is thread-count invariant.

use netsim::{FaultModel, FaultSchedule, Topology, TransitStubParams};
use pubsub_core::parallel::with_threads;
use pubsub_core::{CellProbability, ClusteringAlgorithm, GridFramework, KMeans, KMeansVariant};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{Evaluator, ResilienceBreakdown};
use workload::{PredicateDist, Section3Model, Workload};

fn scenario() -> (Topology, Workload) {
    let mut rng = StdRng::seed_from_u64(41);
    let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
    let model = Section3Model {
        regionalism: 0.4,
        dist: PredicateDist::Uniform,
        num_subscriptions: 250,
        num_events: 80,
    };
    let w = model.generate(&topo, &mut rng);
    (topo, w)
}

fn framework(w: &Workload) -> GridFramework {
    let grid = geometry::Grid::new(w.bounds.clone(), w.suggested_bins.clone()).unwrap();
    let rects: Vec<geometry::Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
    let sample: Vec<geometry::Point> = w.events.iter().map(|e| e.point.clone()).collect();
    let probs = CellProbability::empirical(&grid, &sample);
    GridFramework::build(grid, &rects, &probs, Some(2000))
}

fn stormy(epochs: usize) -> FaultModel {
    FaultModel {
        epochs,
        link_fail: 0.12,
        node_crash: 0.05,
        degrade: 0.2,
        ..FaultModel::default()
    }
}

#[test]
fn zero_fault_run_is_bitwise_noop_at_every_thread_count() {
    let (topo, w) = scenario();
    let fw = framework(&w);
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 25);
    let reference = with_threads(1, || {
        let mut ev = Evaluator::new(&topo, &w);
        ev.grid_clustering_breakdown(&fw, &clustering, 0.0)
    });
    for threads in [1, 8] {
        let r = with_threads(threads, || {
            let mut ev = Evaluator::new(&topo, &w);
            ev.resilience_breakdown(&fw, &clustering, 0.0, &FaultSchedule::empty(), 2002)
        });
        assert_eq!(
            r.multicast_cost.to_bits(),
            reference.multicast_cost.to_bits(),
            "multicast cost drifted at {threads} threads"
        );
        assert_eq!(
            r.unicast_cost.to_bits(),
            reference.unicast_cost.to_bits(),
            "unicast cost drifted at {threads} threads"
        );
        assert_eq!(r.multicast_events, reference.multicast_events);
        assert_eq!(r.unicast_events, reference.unicast_events);
        assert_eq!(r.delivered, r.interested);
        assert_eq!(r.dropped + r.fallback_deliveries + r.retry_attempts, 0);
        assert_eq!(r.repair_traffic, 0.0);
        assert_eq!(r.spt_rebuilds, 0);
    }
}

#[test]
fn faulty_run_is_thread_count_invariant() {
    let (topo, w) = scenario();
    let fw = framework(&w);
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 25);
    let schedule = FaultSchedule::random(topo.graph(), &stormy(4), 2002);
    let run = |threads: usize| -> ResilienceBreakdown {
        with_threads(threads, || {
            let mut ev = Evaluator::new(&topo, &w);
            ev.resilience_breakdown(&fw, &clustering, 0.0, &schedule, 2002)
        })
    };
    let one = run(1);
    let eight = run(8);
    // Everything — costs, counts, RNG-driven losses — must be
    // bit-identical regardless of worker count.
    assert_eq!(one, eight);
    assert!(one.faulty_epochs >= 1, "schedule produced no faults");
}

#[test]
fn faulty_runs_partition_the_interested_set() {
    let (topo, w) = scenario();
    let fw = framework(&w);
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 25);
    for seed in [3u64, 17, 2002] {
        let schedule = FaultSchedule::random(topo.graph(), &stormy(3), seed);
        let mut ev = Evaluator::new(&topo, &w);
        let r = ev.resilience_breakdown(&fw, &clustering, 0.0, &schedule, seed);
        assert_eq!(
            r.delivered + r.fallback_deliveries + r.dropped,
            r.interested,
            "seed {seed}: delivered/fallback/dropped must partition the interested set"
        );
        assert!(r.total_cost().is_finite());
        assert!(r.delivery_rate() <= 1.0);
    }
}
