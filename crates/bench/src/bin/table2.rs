//! Regenerates Table 2 of the paper: unicast / broadcast / ideal
//! multicast costs with no regionalism.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin table2 [-- --scale quick|medium|paper]
//! ```

use pubsub_bench::Scale;
use sim::experiments::{paper_table2_specs, table_rows};
use sim::report::render_table;

fn main() {
    let scale = Scale::from_args();
    let specs = paper_table2_specs();
    let (specs, events) = match scale {
        Scale::Quick => (specs[..6].to_vec(), 30),
        Scale::Medium => (specs, 100),
        Scale::Paper => (specs, 500),
    };
    let rows = table_rows(0.0, &specs, events, 2);
    print!(
        "{}",
        render_table("Table 2: mean per-event cost, no regionalism", &rows)
    );
}
