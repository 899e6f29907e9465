//! Regenerates Table 1 of the paper: unicast / broadcast / ideal
//! multicast costs under degree-0.4 regionalism, across network sizes,
//! subscription counts and predicate distributions.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin table1 [-- --scale quick|medium|paper]
//! ```

use pubsub_bench::Scale;
use sim::experiments::{paper_table1_specs, table_rows};
use sim::report::render_table;

fn main() {
    let scale = Scale::from_args();
    let specs = paper_table1_specs();
    let (specs, events) = match scale {
        Scale::Quick => (specs[..6].to_vec(), 30),
        Scale::Medium => (specs, 100),
        Scale::Paper => (specs, 500),
    };
    let rows = table_rows(0.4, &specs, events, 1);
    print!(
        "{}",
        render_table(
            "Table 1: mean per-event cost, degree-0.4 regionalism",
            &rows
        )
    );
}
