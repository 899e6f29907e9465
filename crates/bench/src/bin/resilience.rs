//! Extension study: delivery under failures. Sweeps the per-epoch link
//! failure rate and reports how much of the interested population each
//! clustering still reaches, at what cost — the degraded-mode behavior
//! the paper's fault-free evaluation leaves open.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin resilience [-- --scale quick|medium|paper]
//! ```
//!
//! `FAULT_SEED` (2002) seeds the topology, workload and fault
//! schedules; the retry policy is `sim`'s constants (`MAX_RETRIES` and
//! the three beside it). All draws go through the workspace's
//! deterministic RNG, so output is bit-identical at any
//! `PUBSUB_THREADS`.

use netsim::{FaultModel, FaultSchedule, Topology, TransitStubParams};
use pubsub_bench::Scale;
use pubsub_core::{
    CellProbability, ClusteringAlgorithm, DynamicClustering, GridFramework, KMeans, KMeansVariant,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{failure_churn, Evaluator, BACKOFF_BASE, LOSS_PROB, MAX_RETRIES};
use workload::{PredicateDist, Section3Model};

/// Seed of the topology, the workload and every fault schedule.
const FAULT_SEED: u64 = 2002;

struct Config {
    topo: TransitStubParams,
    subs: usize,
    events: usize,
    epochs: usize,
    k: usize,
}

fn config(scale: Scale) -> Config {
    match scale {
        Scale::Quick => Config {
            topo: TransitStubParams::paper_100_nodes(),
            subs: 150,
            events: 60,
            epochs: 3,
            k: 15,
        },
        Scale::Medium => Config {
            topo: TransitStubParams::paper_100_nodes(),
            subs: 400,
            events: 200,
            epochs: 5,
            k: 30,
        },
        Scale::Paper => Config {
            topo: TransitStubParams::paper_300_nodes(),
            subs: 1000,
            events: 500,
            epochs: 8,
            k: 50,
        },
    }
}

fn main() {
    let cfg = config(Scale::from_args());

    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    let topo = Topology::generate(&cfg.topo, &mut rng);
    let model = Section3Model {
        regionalism: 0.4,
        dist: PredicateDist::Uniform,
        num_subscriptions: cfg.subs,
        num_events: cfg.events,
    };
    let w = model.generate(&topo, &mut rng);
    let grid = geometry::Grid::new(w.bounds.clone(), w.suggested_bins.clone())
        .expect("workload bounds form a valid grid");
    let rects: Vec<geometry::Rect> = w.subscriptions.iter().map(|s| s.rect.clone()).collect();
    let sample: Vec<geometry::Point> = w.events.iter().map(|e| e.point.clone()).collect();
    let probs = CellProbability::empirical(&grid, &sample);
    let fw = GridFramework::build(grid.clone(), &rects, &probs, Some(2000));
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, cfg.k);

    let mut ev = Evaluator::new(&topo, &w);
    let base = ev.grid_clustering_breakdown(&fw, &clustering, 0.0);

    println!(
        "delivery under failures: {} nodes, {} subscriptions, {} events, {} epochs, K={}",
        topo.num_nodes(),
        cfg.subs,
        cfg.events,
        cfg.epochs,
        cfg.k
    );
    println!(
        "fault seed {FAULT_SEED}; retry policy: max={MAX_RETRIES} loss={LOSS_PROB:.2} \
         backoff={BACKOFF_BASE:.1}"
    );
    println!(
        "fault-free baseline: mean cost {:.1} ({} multicast / {} unicast events)",
        base.mean_cost(),
        base.multicast_events,
        base.unicast_events
    );
    println!();
    println!(
        "{:>9} {:>10} {:>8} {:>9} {:>8} {:>8} {:>9} {:>10} {:>9}",
        "link-fail",
        "delivered%",
        "dropped",
        "fallback",
        "retries",
        "rebuilds",
        "repair",
        "mean-cost",
        "inflate%"
    );
    for &rate in &[0.0, 0.02, 0.05, 0.1, 0.2] {
        let schedule = if rate == 0.0 {
            FaultSchedule::empty()
        } else {
            let fm = FaultModel {
                node_crash: rate / 4.0,
                degrade: rate,
                ..FaultModel::with_link_fail(cfg.epochs, rate)
            };
            FaultSchedule::random(topo.graph(), &fm, FAULT_SEED)
        };
        let r = ev.resilience_breakdown(&fw, &clustering, 0.0, &schedule, FAULT_SEED);
        println!(
            "{:>9.2} {:>10.2} {:>8} {:>9} {:>8} {:>8} {:>9.0} {:>10.1} {:>9.1}",
            rate,
            100.0 * r.delivery_rate(),
            r.dropped,
            r.fallback_deliveries,
            r.retry_attempts,
            r.spt_rebuilds,
            r.repair_traffic,
            r.mean_cost(),
            100.0 * r.inflation_vs(&base),
        );
    }

    // Failure-induced churn: crashes unsubscribe their node's
    // subscriptions and the dynamic clustering rebalances per epoch.
    let fm = FaultModel {
        node_crash: 0.05,
        ..FaultModel::with_link_fail(cfg.epochs, 0.1)
    };
    let schedule = FaultSchedule::random(topo.graph(), &fm, FAULT_SEED);
    let mut dynamic =
        DynamicClustering::new(grid, probs, KMeans::new(KMeansVariant::MacQueen), cfg.k);
    let homes: Vec<_> = w
        .subscriptions
        .iter()
        .map(|s| (dynamic.subscribe(s.rect.clone()), s.node))
        .collect();
    dynamic.rebalance();
    let churn = failure_churn(&mut dynamic, &homes, topo.graph(), &schedule)
        .expect("all churn ids were just issued");
    println!();
    println!(
        "failure churn (link-fail 0.10, crash 0.05): {} crashes forced {} unsubscribes \
         over {} epochs; {} rebalance moves; {} of {} subscriptions survive",
        churn.crashed_nodes,
        churn.forced_unsubscribes,
        churn.epochs,
        churn.rebalance_moves,
        churn.final_subscriptions,
        homes.len()
    );
    println!();
    println!("delivered% counts primary and fallback copies; dropped members had no");
    println!("surviving path. repair is the control traffic of re-installing trees.");
}
