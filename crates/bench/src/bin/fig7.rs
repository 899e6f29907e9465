//! Regenerates Figure 7 of the paper: improvement percentage over
//! unicast as a function of the number of multicast groups K, for every
//! clustering algorithm, under network-supported and application-level
//! multicast.
//!
//! ```text
//! cargo run --release -p pubsub-bench --bin fig7 [-- --scale quick|medium|paper]
//! ```

use pubsub_bench::Scale;
use sim::experiments::{fig7, Fig7Config};
use sim::report::render_group_sweep;

fn main() {
    let cfg = match Scale::from_args() {
        Scale::Quick => Fig7Config::quick(),
        Scale::Medium => Fig7Config::medium(),
        Scale::Paper => Fig7Config::paper(),
    };
    let res = fig7(&cfg);
    print!(
        "{}",
        render_group_sweep("Figure 7: improvement vs number of groups", &res)
    );
}
