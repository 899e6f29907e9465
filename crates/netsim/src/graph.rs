//! Weighted undirected graphs: the network model `G = (V, E)` with
//! communication costs `c_e ≥ 0` on each edge (Section 2 of the paper).

use std::fmt;

/// Identifier of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An undirected edge with a finite non-negative communication cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Communication cost `c_e ≥ 0`, finite.
    pub cost: f64,
}

/// A weighted undirected graph with adjacency lists.
///
/// # Examples
///
/// ```
/// use netsim::{Graph, NodeId};
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b, 2.5)?;
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.neighbors(a).len(), 1);
/// # Ok::<(), netsim::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// `adj[n]` lists `(neighbor, edge)` pairs.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

/// Error produced by invalid graph operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphError {
    /// A node id was out of range.
    InvalidNode(NodeId),
    /// An edge cost was negative, infinite or NaN.
    InvalidCost(f64),
    /// Self-loops are not allowed in network topologies.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode(n) => write!(f, "node {n} does not exist"),
            GraphError::InvalidCost(c) => {
                write!(f, "edge cost {c} is not a finite non-negative number")
            }
            GraphError::SelfLoop(n) => write!(f, "self-loop at {n} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId(self.adj.len() - 1)
    }

    /// Adds an undirected edge of the given cost.
    ///
    /// Parallel edges are permitted (shortest-path routing simply ignores
    /// the costlier one).
    ///
    /// # Errors
    ///
    /// Rejects unknown endpoints, self-loops, and any cost that is not a
    /// finite non-negative number (negative, `+inf` or NaN).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cost: f64) -> Result<EdgeId, GraphError> {
        if u.0 >= self.adj.len() {
            return Err(GraphError::InvalidNode(u));
        }
        if v.0 >= self.adj.len() {
            return Err(GraphError::InvalidNode(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        // `is_finite` is false for NaN as well as for `±inf`.
        if !cost.is_finite() || cost < 0.0 {
            return Err(GraphError::InvalidCost(cost));
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { u, v, cost });
        self.adj[u.0].push((v, id));
        self.adj[v.0].push((u, id));
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// `(neighbor, edge)` pairs adjacent to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[n.0]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.adj.len()).map(NodeId)
    }

    /// Total cost of all edges.
    pub fn total_cost(&self) -> f64 {
        self.edges.iter().map(|e| e.cost).sum()
    }

    /// Whether the graph is connected (true for the empty graph).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        // lint: allow(no-literal-index): n >= 1 (the empty graph returned above)
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub(crate) fn with_nodes(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::with_nodes(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(e).cost, 1.5);
        assert_eq!(g.neighbors(NodeId(1)).len(), 2);
        assert_eq!(g.total_cost(), 3.5);
    }

    #[test]
    fn invalid_edges_rejected() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(GraphError::InvalidNode(NodeId(5)))
        );
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(0), 1.0),
            Err(GraphError::SelfLoop(NodeId(0)))
        );
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(1), -2.0),
            Err(GraphError::InvalidCost(-2.0))
        );
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(1), f64::INFINITY),
            Err(GraphError::InvalidCost(f64::INFINITY))
        );
        assert!(g.add_edge(NodeId(0), NodeId(1), f64::NAN).is_err());
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        assert!(g.is_connected());
        assert!(Graph::new().is_connected());
        assert!(!Graph::with_nodes(2).is_connected());
    }
}
