//! Hop-by-hop content-based routing over a broker tree.
//!
//! Section 6 (item 6) of the paper describes the alternative to
//! centralized matching used by several Gryphon papers: "each
//! intermediate node knows about the preferences of its neighbors, and
//! matches each event against its specific data structures to find
//! those neighbors to which the event must be forwarded next."
//!
//! This crate implements that mechanism so the two architectures can
//! be compared on the same workloads:
//!
//! * brokers are the nodes of the network's minimum spanning tree;
//! * each broker stores, per tree neighbor, a spatial index over the
//!   subscription rectangles registered *behind* that neighbor;
//! * a published event starts at its publisher and is forwarded across
//!   exactly those tree edges whose behind-set matches the event.
//!
//! Delivery cost is the sum of traversed edge costs — directly
//! comparable with the unicast / multicast numbers of the main
//! evaluation. The paper notes the operational drawback this crate
//! also exhibits: subscription changes must propagate along the whole
//! tree (`BrokerNetwork::build` is a global operation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod routing_tree;

pub use routing_tree::{BrokerDelivery, BrokerNetwork, BrokerState, Propagation};
