//! Workload generators reproducing the evaluation models of the
//! ICDCS 2002 subscription-clustering paper.
//!
//! Two models are provided:
//!
//! * [`Section3Model`] — the preliminary-analysis workload (Tables 1–2):
//!   a regional attribute plus three integer value attributes with
//!   uniform or gaussian predicates;
//! * [`StockModel`] — the Section 5.1 evaluation workload (Figures
//!   7–11): `{bst, name, quote, volume}` stock subscriptions with
//!   block-regional name interest, Zipf placement, and 1/4/9-mode
//!   publication mixtures.
//!
//! Supporting distributions ([`Normal`], [`Zipf`], [`Pareto`]) are
//! implemented by hand so each formula is auditable against the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod covering;
mod density;
mod dist;
pub mod io;
mod neardup;
mod placement;
mod section3;
mod stock;
mod types;

pub use covering::{prune_covered, PruneOutcome};
pub use density::{NormalMixture, PublicationDensity};
pub use dist::{DistError, Normal, Pareto, Zipf};
pub use neardup::NearDupModel;
pub use placement::{uniform_stub_placement, zipf_placement};
pub use section3::{PredicateDist, Section3Model};
pub use stock::{PublicationModes, StockModel};
pub use types::{Event, Subscription, Workload};
