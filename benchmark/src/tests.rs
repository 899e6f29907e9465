//! Self-tests of the benchmark, at the `--quick` scale:
//! `cargo test --manifest-path benchmark/Cargo.toml`.

use crate::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use crate::phases::{start, swap_block, Tally};
use crate::run::{self, Outcome};
use crate::workload::{find, generate, WORKLOADS};
use crate::{parse_result_line, quartiles, result_line};

/// Metrics that are counts of the inputs and the plan, not timings:
/// the same seed must reproduce them exactly.
const EXACT: [&str; 10] = [
    "service.waste_per_event",
    "dispatch.interested_per_event",
    "dispatch.multicast_share",
    "matching.oracle_checks",
    "dynamic.incremental_share",
    "dynamic.dirty_cells_per_swap",
    "dynamic.reused_distances_per_swap",
    "dynamic.moves_per_swap",
    "framework.hypercells",
    "aggregate.classes_per_subscriber",
];

fn quick(name: &str) -> crate::workload::Spec {
    find(name).expect("a declared workload").quick()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} was not reported"))
        .1
}

fn exact(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .metrics
        .iter()
        .filter(|(n, _)| EXACT.contains(n))
        .map(|(n, v)| (*n, v.to_bits()))
        .collect()
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|(n, _)| *n).collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for spec in WORKLOADS {
        let spec = spec.quick();
        assert_eq!(generate(&spec, 7), generate(&spec, 7), "{}", spec.name);
        assert_ne!(generate(&spec, 7), generate(&spec, 8), "{}", spec.name);
    }
    // swap-bulk differs from swap-trickle in its batches only.
    let (trickle, bulk) = (
        generate(&quick("swap-trickle"), 7),
        generate(&quick("swap-bulk"), 7),
    );
    assert_eq!(trickle.rects, bulk.rects);
    assert_eq!(trickle.pool, bulk.pool);
    assert_ne!(trickle.batches, bulk.batches);
}

#[test]
fn every_block_replays_the_same_swaps() {
    let spec = quick("swap-trickle");
    let inputs = generate(&spec, 3);
    let cold = crate::phases::cold_build(&spec, &inputs.rects);
    let mut tally = Tally::default();
    let a = swap_block(&spec, start(&spec, cold.clone()), &inputs, &mut tally);
    let b = swap_block(&spec, start(&spec, cold), &inputs, &mut tally);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.len(), spec.swaps_per_block);
    assert!(tally.correct(), "{:?}", tally.broken);
}

#[test]
fn untraced_run_reports_the_end_to_end_metrics() {
    let spec = quick("serve-dense");
    let (a, b) = (run::untraced(&spec, 5, 0), run::untraced(&spec, 6, 0));
    assert!(a.tally.correct(), "{:?}", a.tally.broken);
    assert_eq!(
        names(&a),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert!(b.tally.correct(), "{:?}", b.tally.broken);
    assert_eq!(a.tally.checks, b.tally.checks);
    assert!(a.metrics.iter().all(|(_, v)| *v > 0.0 && v.is_finite()));
}

#[test]
fn traced_run_reports_the_per_layer_metrics() {
    let spec = quick("swap-trickle");
    let (a, b) = (run::traced(&spec, 5), run::traced(&spec, 5));
    assert!(a.tally.correct(), "{:?}", a.tally.broken);
    assert_eq!(
        names(&a),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(exact(&a), exact(&b));
    assert_eq!(value(&a, "dynamic.incremental_share"), 1.0);
    assert_eq!(value(&a, "matching.oracle_mismatches"), 0.0);

    let bulk = run::traced(&quick("swap-bulk"), 5);
    assert!(bulk.tally.correct(), "{:?}", bulk.tally.broken);
    assert_eq!(value(&bulk, "dynamic.incremental_share"), 0.0);
}

#[test]
fn benchmark_json_is_the_metric_tables() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with --emit-benchmark-json"
    );

    // The contract's limits on names, units and reasons.
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(name_ok(name) && seen.insert(name), "{name}");
        assert!(unit_ok(unit), "{name}: {unit}");
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn result_line_round_trips() {
    let outcome = Outcome {
        metrics: vec![("setup_s", 0.123456789), ("events_per_s", 654321.5)],
        tally: Tally::default(),
    };
    let parsed = parse_result_line(&result_line(&outcome)).expect("own format parses");
    assert!(parsed.correct);
    assert_eq!(
        parsed.metrics,
        vec![
            ("setup_s".to_string(), 0.123456789),
            ("events_per_s".to_string(), 654321.5)
        ]
    );
}

#[test]
fn quartiles_match_python_statistics() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
}
