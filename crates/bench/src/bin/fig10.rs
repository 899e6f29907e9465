//! Regenerates Figure 10 of the paper: solution quality and clustering
//! runtime as a function of the number of cells given to each
//! algorithm.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin fig10 [-- --scale quick|medium|paper]
//! ```

use pubsub_bench::Scale;
use sim::experiments::{fig10, Fig10Config};
use sim::report::render_fig10;

fn main() {
    let cfg = match Scale::from_args() {
        Scale::Quick => Fig10Config::quick(),
        Scale::Medium => Fig10Config::medium(),
        Scale::Paper => Fig10Config::paper(),
    };
    let res = fig10(&cfg);
    print!("{}", render_fig10(&res));
}
