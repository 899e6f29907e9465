//! Subscription clustering for content-based publish-subscribe systems.
//!
//! This crate implements the primary contribution of *"Clustering
//! Algorithms for Content-Based Publication-Subscription Systems"*
//! (Riabov, Liu, Wolf, Yu, Zhang — ICDCS 2002): algorithms that
//! precompute a limited number `K` of multicast groups with as much
//! common interest as possible, given the totality of subscribers'
//! interest rectangles.
//!
//! # The grid-based family
//!
//! [`GridFramework`] rasterizes subscriptions onto a regular grid,
//! merges cells with identical subscriber membership into hyper-cells,
//! ranks them by popularity and truncates. Clustering heuristics then
//! partition the hyper-cells under the publication-weighted
//! expected-waste distance ([`expected_waste`]):
//!
//! * [`KMeans`] — MacQueen and Forgy variants (Section 4.2);
//! * [`PairwiseGrouping`] — exact and approximate (secretary-rule)
//!   bottom-up merging (Section 4.3);
//! * [`MstClustering`] — Kruskal/single-linkage components
//!   (Section 4.4).
//!
//! [`GridMatcher`] maps each published event to its cell's group and
//! applies the threshold optimization of Figure 5.
//!
//! # The No-Loss algorithm
//!
//! [`NoLossClustering`] (Section 4.5) clusters *intersections of
//! interest rectangles* instead of grid cells, guaranteeing that every
//! subscriber receiving a multicast is interested in the event.
//!
//! # Example
//!
//! ```
//! use geometry::{Grid, Interval, Rect};
//! use pubsub_core::{
//!     CellProbability, ClusteringAlgorithm, GridFramework, KMeans, KMeansVariant,
//! };
//!
//! // Two interest communities...
//! let subs = vec![
//!     Rect::new(vec![Interval::new(0.0, 4.0)?]),
//!     Rect::new(vec![Interval::new(1.0, 5.0)?]),
//!     Rect::new(vec![Interval::new(7.0, 10.0)?]),
//! ];
//! let grid = Grid::cube(0.0, 10.0, 1, 10)?;
//! let probs = CellProbability::uniform(&grid);
//! let fw = GridFramework::build(grid, &subs, &probs, None);
//! // ...clustered into two multicast groups.
//! let clustering = KMeans::new(KMeansVariant::Forgy).cluster(&fw, 2);
//! assert_eq!(clustering.num_groups(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod batch;
mod clustering;
mod dispatch;
mod distance;
mod dynamic;
mod framework;
mod kmeans;
mod match_index;
mod matching;
mod membership;
mod mst_cluster;
mod noloss;
mod pairs;
pub mod parallel;
mod service;
mod snapshot;
mod validate;
mod waste;

pub use aggregate::{AggregatePlan, AggregateScratch, Aggregation};
pub use batch::BatchScratch;
pub use clustering::{Clustering, ClusteringAlgorithm, Group};
pub use dispatch::{DispatchPlan, DispatchScratch, DENSE_TABLE_MAX_CELLS};
pub use distance::DistanceMatrix;
pub use dynamic::{
    DynamicClustering, DynamicError, RebalanceError, RebalanceStats, SubscriptionId,
};
pub use framework::{CellProbability, DeltaReport, GridFramework, HyperCell};
pub use kmeans::{KMeans, KMeansVariant};
pub use match_index::SubscriptionIndex;
pub use matching::{Delivery, GridMatcher};
pub use membership::BitSet;
pub use mst_cluster::MstClustering;
pub use noloss::{NoLossClustering, NoLossConfig, NoLossRegion};
pub use pairs::{PairsStrategy, PairwiseGrouping};
pub use service::{
    BrokerService, EventRecord, RebalanceAbort, ServiceConfig, ServiceReport, ShedPolicy,
    SwapReport,
};
pub use snapshot::{SnapshotCell, SnapshotReader};
pub use validate::{ValidationError, Validator, Violation};
pub use waste::{expected_waste, popularity};
