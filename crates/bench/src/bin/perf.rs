//! Parallel-pipeline benchmark: wall-clock of every clustering
//! algorithm across hyper-cell counts and worker-thread counts, with a
//! bit-identity check of each run against its single-thread reference.
//!
//! Emits `BENCH_parallel.json` (machine-readable; under `target/bench/`, or
//! over the committed `results/` copy with `--record`) and a human table
//! on stdout.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin perf [-- --scale quick|medium|paper] [--record]
//! ```
//!
//! Every timed run starts from a cold shared distance cache
//! ([`GridFramework::with_cold_distance_cache`]), so the matrix build —
//! the dominant parallel section for Pairwise and MST — is included in
//! each measurement. The thread count is forced per run through
//! `parallel::with_threads`, overriding both `PUBSUB_THREADS` and the
//! detected CPU count; on a single-CPU host the >1-thread rows still
//! run (and still must be bit-identical) but show no speedup.

use std::fmt::Write as _;
use std::time::Instant;

use netsim::TransitStubParams;
use pubsub_bench::Scale;
use pubsub_core::parallel::{self, with_threads};
use pubsub_core::{
    Clustering, ClusteringAlgorithm, GridFramework, KMeans, KMeansVariant, MstClustering,
    PairsStrategy, PairwiseGrouping,
};
use sim::StockScenario;
use workload::StockModel;

struct Record {
    algorithm: &'static str,
    cells: usize,
    threads: usize,
    millis: f64,
    identical: bool,
}

fn algorithms() -> Vec<(&'static str, Box<dyn ClusteringAlgorithm>)> {
    vec![
        ("kmeans", Box::new(KMeans::new(KMeansVariant::MacQueen))),
        ("forgy", Box::new(KMeans::new(KMeansVariant::Forgy))),
        ("mst", Box::new(MstClustering::new())),
        (
            "pairs",
            Box::new(PairwiseGrouping::new(PairsStrategy::Exact)),
        ),
        (
            "pairs-approx",
            Box::new(PairwiseGrouping::new(PairsStrategy::Approximate {
                seed: 99,
            })),
        ),
    ]
}

fn assignment(fw: &GridFramework, c: &Clustering) -> Vec<usize> {
    (0..fw.hypercells().len())
        .map(|h| c.group_of_hyper(h))
        .collect()
}

fn main() {
    let scale = Scale::from_args();
    let (cell_counts, thread_counts, subs, events, k) = match scale {
        Scale::Quick => (vec![200usize, 500], vec![1usize, 2, 4], 300, 150, 20),
        Scale::Medium => (
            vec![500usize, 1000, 2000],
            vec![1usize, 2, 4],
            1000,
            300,
            40,
        ),
        Scale::Paper => (
            vec![2000usize, 4000, 6000],
            vec![1usize, 2, 4, 8],
            1000,
            500,
            60,
        ),
    };

    let model = StockModel::default().with_sizes(subs, events);
    let sc = StockScenario::generate(&model, &TransitStubParams::paper_100_nodes(), 100, 2002);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "{:>13} {:>7} {:>8} {:>10} {:>10}   (host has {} hardware thread(s))",
        "algorithm", "cells", "threads", "ms", "identical", host_threads
    );

    let mut records: Vec<Record> = Vec::new();
    for &cells in &cell_counts {
        let fw = sc.framework(cells);
        let actual = fw.hypercells().len();

        // The shared distance-matrix build alone: the section Pairwise
        // and MST spend most of their time in.
        let mut matrix_reference: Option<Vec<u64>> = None;
        for &threads in &thread_counts {
            let cold = fw.with_cold_distance_cache();
            let start = Instant::now();
            with_threads(threads, || {
                cold.distance_matrix();
            });
            let millis = start.elapsed().as_secs_f64() * 1e3;
            let bits: Vec<u64> = cold.distance_matrix().map_or_else(Vec::new, |m| {
                (0..actual)
                    .flat_map(|i| (0..i).map(move |j| (i, j)))
                    .map(|(i, j)| m.get(i, j).to_bits())
                    .collect()
            });
            let identical = match &matrix_reference {
                None => {
                    matrix_reference = Some(bits);
                    true
                }
                Some(reference) => *reference == bits,
            };
            assert!(identical, "distance matrix diverged at {threads} threads");
            println!(
                "{:>13} {actual:>7} {threads:>8} {millis:>10.1} {identical:>10}",
                "distances"
            );
            records.push(Record {
                algorithm: "distances",
                cells: actual,
                threads,
                millis,
                identical,
            });
        }

        for (name, alg) in algorithms() {
            let mut reference: Option<Vec<usize>> = None;
            for &threads in &thread_counts {
                let cold = fw.with_cold_distance_cache();
                let start = Instant::now();
                let clustering = with_threads(threads, || alg.cluster(&cold, k));
                let millis = start.elapsed().as_secs_f64() * 1e3;
                let got = assignment(&fw, &clustering);
                let identical = match &reference {
                    None => {
                        reference = Some(got);
                        true
                    }
                    Some(reference) => *reference == got,
                };
                assert!(
                    identical,
                    "{name} diverged at {threads} threads ({actual} cells)"
                );
                println!("{name:>13} {actual:>7} {threads:>8} {millis:>10.1} {identical:>10}");
                records.push(Record {
                    algorithm: name,
                    cells: actual,
                    threads,
                    millis,
                    identical,
                });
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p pubsub-bench --bin perf -- --scale {}\",",
        match scale {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"default_workers\": {},", parallel::num_threads());
    json.push_str(
        "  \"note\": \"each run starts from a cold distance cache; 'identical' means the \
         assignment (or matrix) is bit-equal to the 1-thread reference\",\n",
    );
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"algorithm\": \"{}\", \"cells\": {}, \"threads\": {}, \"millis\": {:.3}, \"identical\": {}}}",
            r.algorithm, r.cells, r.threads, r.millis, r.identical
        );
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = pubsub_bench::write_bench_json("BENCH_parallel.json", &json);
    println!();
    println!("wrote {} ({} records)", path.display(), records.len());
}
