//! Network substrate for the ICDCS 2002 subscription-clustering paper:
//! transit-stub topologies, shortest-path routing and the delivery-cost
//! models its evaluation compares (unicast, broadcast, ideal multicast,
//! dense-mode group multicast, application-level multicast).
//!
//! # Example
//!
//! ```
//! use netsim::{Router, Topology, TransitStubParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let topo = Topology::generate(&TransitStubParams::paper_100_nodes(), &mut rng);
//! let nodes: Vec<_> = topo.stub_nodes().take(5).collect();
//! // Warm the publisher's shortest-path tree; every query takes `&self`.
//! let mut router = Router::new(topo.graph());
//! router.warm([nodes[0]]);
//! let unicast = router.unicast_cost(nodes[0], nodes[1..].iter().copied());
//! let ideal = router.group_multicast_cost(nodes[0], &nodes[1..]);
//! assert!(ideal <= unicast);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod load;
mod mst;
mod routing;
mod shortest_path;
mod topology;

pub use graph::{Edge, EdgeId, Graph, GraphError, NodeId};
pub use load::LoadTracker;
pub use mst::{overlay_mst, UnionFind};
pub use routing::Router;
pub use shortest_path::ShortestPathTree;
pub use topology::{CostRange, NodeKind, Stub, StubId, Topology, TopologyStats, TransitStubParams};
