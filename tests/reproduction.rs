//! Headline-reproduction regression tests.
//!
//! The abstract's claim is read from the committed
//! `results/fig7_medium.txt`, which CI's byte-for-byte gate holds equal
//! to what the `fig7` bin prints, so it runs in milliseconds. The other
//! two re-run the paper's pipeline: the Table 1 crossover at paper
//! scale and Forgy's margin at medium scale, about two seconds together
//! in the debug profile.

use pubsub_core::{ClusteringAlgorithm, KMeans, KMeansVariant};
use sim::experiments::{paper_table1_specs, table_rows};
use sim::{Evaluator, MulticastMode, StockScenario};

/// The improvement % over unicast that `fig7_medium.txt` prints in the
/// `mode` block (`net` or `app`), row `k`, column `algorithm`.
fn fig7_cell(fig7: &str, mode: &str, algorithm: &str, k: usize) -> f64 {
    let block = format!("-- {mode} multicast");
    let mut lines = fig7.lines().skip_while(|l| !l.starts_with(&block)).skip(1);
    let header = lines.next().expect("the block has a header row");
    let column = header
        .split_whitespace()
        .position(|h| h == algorithm)
        .expect("the algorithm has a column");
    let row: Vec<&str> = lines
        .take_while(|l| !l.starts_with("--"))
        .map(|l| l.split_whitespace().collect())
        .find(|cells: &Vec<&str>| cells.first() == Some(&k.to_string().as_str()))
        .expect("K is swept");
    row[column].parse().expect("a numeric cell")
}

#[test]
fn headline_sixty_percent_with_under_100_groups() {
    // The abstract's claim: "An efficiency of 60% to 80% with respect
    // to the ideal solution can be achieved with a small number of
    // multicast groups (less than 100 in our experiments)."
    let fig7 = include_str!("../results/fig7_medium.txt");
    let at_100 = fig7_cell(fig7, "net", "forgy", 100);
    assert!(
        at_100 >= 60.0,
        "Forgy at K=100 reached only {at_100}% (paper: 60-80%)"
    );
}

#[test]
fn unicast_broadcast_crossover_reproduces() {
    let specs = paper_table1_specs();
    let rows = table_rows(0.4, &specs, 200, 1);
    // Dense rows: unicast above broadcast; sparse rows: below.
    let dense = rows
        .iter()
        .find(|r| r.nodes == 100 && r.subscriptions == 5000)
        .unwrap();
    assert!(dense.unicast > dense.broadcast);
    let sparse = rows
        .iter()
        .find(|r| r.nodes == 100 && r.subscriptions == 80)
        .unwrap();
    assert!(sparse.unicast < sparse.broadcast);
}

#[test]
fn forgy_beats_no_clustering_by_a_wide_margin() {
    let model = workload::StockModel::default().with_sizes(1000, 200);
    let sc = StockScenario::generate(
        &model,
        &netsim::TransitStubParams::paper_section51(),
        400,
        2002,
    );
    let fw = sc.framework(2000);
    let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 100);
    let mut ev = Evaluator::new(&sc.topo, &sc.workload);
    let b = ev.baseline_costs();
    let cost = ev.grid_clustering_cost(&fw, &clustering, 0.0, MulticastMode::NetworkSupported);
    let improvement = b.improvement_pct(cost);
    assert!(
        improvement > 70.0,
        "expected >70% improvement at K=100, got {improvement:.1}%"
    );
}
