//! The metric tables — the one place a metric's name, unit, direction,
//! bound and meaning are written down. `BENCHMARK.json` is generated
//! from these tables (`--emit-benchmark-json`) and a self-test keeps
//! the committed file equal to them.

use crate::workload::WORKLOADS;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "input generation + cold build + BrokerService::start: median of the run's set-ups (one per serve round and per swap block)",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.25,
        what: "4096 events / wall of the best 4-window slice over all serve rounds (closed loop, window 1024)",
    },
    EndToEnd {
        name: "swap_visible_ms_mean",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "mean over the S swaps of a block of each swap's minimum over the blocks (every block replays the same swaps)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the `crates/core` module the name starts with.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SERVE_SPARSE: &str = "events_per_s on serve-sparse; at most a tenth of it on serve-dense";
const SWAP_ANY: &str = "swap_visible_ms_mean on swap-*";
const FAILED: &str = "failed / attempted, everywhere";
const SERVE_DENSE: &str = "events_per_s on serve-dense";
const NEVER: &str = "exact count; must never move";
const SWAP_TRICKLE: &str = "swap_visible_ms_mean on swap-trickle (incremental), not on swap-bulk";
const COLD: &str = "setup_s everywhere; swap_visible_ms_mean on swap-bulk";
const SMALL: &str = "swap_visible_ms_mean (small today; must stay small)";
const AGGREGATE: &str = "events_per_s and setup_s on serve-dense once aggregation is folded into the plan; nothing on serve-sparse";

pub const PER_LAYER: [PerLayer; 46] = [
    layer("service.overhead_ns_per_event", "ns", "lower", SERVE_SPARSE),
    layer("service.offer_ns_per_event", "ns", "lower", SERVE_SPARSE),
    layer("service.drain_wait_share", "ratio", "lower", SERVE_SPARSE),
    layer("service.events_per_s_median_slice", "events/s", "higher", SERVE_SPARSE),
    layer("service.cold_build_ms", "ms", "lower", "setup_s everywhere: its product share (subscribe x N + try_rebalance + start), minimum of 5"),
    layer("service.start_ms", "ms", "lower", "setup_s everywhere"),
    layer("service.peak_rss_mb", "MB", "lower", "nothing timed: VmHWM after one set-up, swap block and serve round; the memo pool on swap-trickle"),
    layer("service.trace_overhead_share", "ratio", "lower", "nothing: traced vs untraced round, the cost of tracing"),
    layer("service.swap_visible_ms_p50", "ms", "lower", SWAP_ANY),
    layer("service.swap_visible_ms_p90", "ms", "lower", SWAP_ANY),
    layer("service.swap_samples", "count", "higher", "nothing: the sample count behind the swap percentiles"),
    layer("service.swap_overhead_ms", "ms", "lower", "swap_visible_ms_mean minus the stage times below"),
    layer("service.offer_to_decision_us_p50", "us", "lower", "event latency beside a running rebalance; not gated (see README)"),
    layer("service.offer_to_decision_us_p99", "us", "lower", "event latency beside a running rebalance; not gated (see README)"),
    layer("service.generator_late_ms_max", "ms", "lower", "nothing: how late the open-loop generator ran"),
    layer("service.waste_per_event", "deliv/event", "lower", "nothing measured here: the paper's expected-waste objective as served, exact for a seed"),
    layer("service.shed_events", "count", "lower", FAILED),
    layer("service.swap_aborts", "count", "lower", FAILED),
    layer("service.rejected_ops", "count", "lower", FAILED),
    layer("dispatch.serve_ns_per_event", "ns", "lower", SERVE_DENSE),
    layer("dispatch.compile_ms", "ms", "lower", "swap_visible_ms_mean (share grows with N) and setup_s"),
    layer("dispatch.with_subscriptions_ms", "ms", "lower", "swap_visible_ms_mean (share grows with N) and setup_s"),
    layer("dispatch.interested_per_event", "count", "lower", NEVER),
    layer("dispatch.multicast_share", "ratio", "higher", NEVER),
    layer("batch.serve_batch_ns_per_event", "ns", "lower", "headroom for events_per_s on serve-dense once the service uses it"),
    layer("matching.match_event_ns_per_event", "ns", "lower", "nothing: the paper-literal baseline"),
    layer("matching.oracle_checks", "count", "higher", FAILED),
    layer("matching.oracle_mismatches", "count", "lower", FAILED),
    layer("dynamic.clone_ms", "ms", "lower", SWAP_ANY),
    layer("dynamic.apply_ops_ms", "ms", "lower", SWAP_ANY),
    layer("dynamic.try_rebalance_ms", "ms", "lower", SWAP_TRICKLE),
    layer("dynamic.drop_previous_ms", "ms", "lower", SWAP_ANY),
    layer("dynamic.incremental_share", "ratio", "higher", "exact: 1 on swap-trickle, 0 on swap-bulk"),
    layer("dynamic.dirty_cells_per_swap", "count", "lower", SWAP_TRICKLE),
    layer("dynamic.reused_distances_per_swap", "count", "higher", "swap_visible_ms_mean and service.peak_rss_mb on swap-trickle (memo pool)"),
    layer("dynamic.moves_per_swap", "count", "lower", SWAP_ANY),
    layer("framework.build_ms", "ms", "lower", COLD),
    layer("framework.hypercells", "count", "lower", COLD),
    layer("distance.build_ms", "ms", "lower", COLD),
    layer("kmeans.cluster_ms", "ms", "lower", COLD),
    layer("validate.check_dispatch_plan_ms", "ms", "lower", SMALL),
    layer("snapshot.publish_us", "us", "lower", SMALL),
    layer("aggregate.build_ms", "ms", "lower", AGGREGATE),
    layer("aggregate.compile_ms", "ms", "lower", AGGREGATE),
    layer("aggregate.serve_chunk_ns_per_event", "ns", "lower", AGGREGATE),
    layer("aggregate.classes_per_subscriber", "ratio", "lower", "exact: <= 0.6 on serve-dense, >= 0.95 on serve-sparse"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .1
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

/// The three tables of `README.md`, as markdown.
pub fn describe() -> String {
    let mut s = String::from(
        "| workload | grid | N | side length | K | threshold | windows/round | S x batch | why |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for w in &WORKLOADS {
        s.push_str(&format!(
            "| `{}` | {g}x{g} | {}{} | {}-{} | {} | {} | {} | {} x {} | {} |\n",
            w.name,
            w.n,
            w.templates.map_or(String::new(), |t| format!(
                ", half Zipf(0.5) from {t} templates"
            )),
            w.side.0,
            w.side.1,
            w.k,
            w.threshold,
            w.windows_per_round,
            w.swaps_per_block,
            w.batch(),
            w.why,
            g = w.grid,
        ));
    }
    s.push_str("\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    s.push_str("\n| layer | metric | unit | better | should move |\n|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        s.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} |\n",
            m.layer(),
            m.name,
            m.unit,
            m.better,
            m.moves
        ));
    }
    s
}
