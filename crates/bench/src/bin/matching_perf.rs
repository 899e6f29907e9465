//! Matching throughput (Section 4.6 of the paper: "Matching must \[be\]
//! done efficiently, since the delay caused by the matching algorithm
//! directly affects the maximum throughput of the system").
//!
//! Measures events matched per second for the two engines — brute
//! force and the R-tree subscription index — across subscription counts
//! on the stock workload.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin matching_perf [-- --scale quick|medium|paper]
//! ```

use std::time::Instant;

use netsim::TransitStubParams;
use pubsub_bench::Scale;
use pubsub_core::SubscriptionIndex;
use sim::StockScenario;
use workload::StockModel;

fn main() {
    let (sub_counts, events) = match Scale::from_args() {
        Scale::Quick => (vec![200usize, 500], 2_000usize),
        Scale::Medium => (vec![500usize, 1000, 2000], 10_000),
        Scale::Paper => (vec![1000usize, 2000, 5000, 10000], 20_000),
    };
    println!(
        "{:>7} {:>14} {:>14}   (events matched per second; {} events each)",
        "subs", "brute", "rtree", events
    );
    for &subs in &sub_counts {
        let model = StockModel::default().with_sizes(subs, events);
        let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 31);
        let points: Vec<geometry::Point> =
            sc.workload.events.iter().map(|e| e.point.clone()).collect();
        let index = SubscriptionIndex::build(&sc.rects);

        let time = |f: &dyn Fn(&geometry::Point) -> usize| {
            let start = Instant::now();
            let mut total = 0usize;
            for p in &points {
                total += f(p);
            }
            let secs = start.elapsed().as_secs_f64();
            (points.len() as f64 / secs, total)
        };
        let (brute_eps, brute_total) = time(&|p| sc.rects.iter().filter(|r| r.contains(p)).count());
        let (rtree_eps, rtree_total) = time(&|p| index.matching(p).len());
        assert_eq!(brute_total, rtree_total, "engines disagree");
        println!("{subs:>7} {brute_eps:>14.0} {rtree_eps:>14.0}");
    }
    println!();
    println!("on this workload events match ~10% of all subscriptions, so output");
    println!("size dominates: the R-tree roughly doubles brute-force throughput.");
}
