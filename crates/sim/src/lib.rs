//! End-to-end simulation of content-based pub-sub delivery: ties the
//! network substrate (`netsim`), the workload generators (`workload`)
//! and the clustering algorithms (`pubsub-core`) together, computes the
//! per-event delivery cost of every scheme the paper compares, and
//! regenerates every table and figure of its evaluation.
//!
//! * [`Evaluator`] — per-event costs: unicast, broadcast, ideal
//!   multicast, grid-clustered multicast, No-Loss delivery, under
//!   network-supported and application-level multicast;
//! * [`experiments`] — drivers for Tables 1–2 and
//!   Figures 7–11;
//! * [`report`] — text rendering in the paper's layout.
//!
//! # Example
//!
//! ```no_run
//! use sim::experiments::{fig7, Fig7Config};
//! use sim::report::render_group_sweep;
//!
//! let result = fig7(&Fig7Config::quick());
//! println!("{}", render_group_sweep("Figure 7 (quick)", &result));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delivery;
pub mod experiments;
pub mod report;
mod scenario;
pub mod stats;

pub use delivery::{BaselineCosts, DeliveryBreakdown, Evaluator, MulticastMode};
pub use scenario::StockScenario;
