//! GT-ITM-style transit-stub topology generation.
//!
//! The paper generates its networks with the GT-ITM package [Zegura,
//! Calvert, Bhattacharjee — Infocom '96] using the transit-stub model:
//! *transit blocks* on top, *stubs* in the middle and nodes at the bottom.
//! This module reimplements that hierarchy:
//!
//! * each transit block contains several interconnected *transit nodes*;
//! * transit blocks are interconnected through random transit-transit
//!   edges;
//! * each transit node attaches a number of *stubs* (access networks);
//! * each stub contains several *stub nodes*, internally connected, with
//!   a gateway link up to its transit node.
//!
//! Substitution note (see `DESIGN.md`): GT-ITM draws random routing
//! weights per edge; we draw uniform costs from per-tier ranges
//! (intra-stub cheapest, inter-block most expensive), which preserves the
//! property the experiments rely on — regional traffic is much cheaper
//! than cross-network traffic.

use std::fmt;

use rand::Rng;

use crate::graph::{Graph, NodeId};

/// Identifier of a stub (access network). The paper's *regional
/// attribute* of a publication is the identifier of its originating stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StubId(pub usize);

impl StubId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stub#{}", self.0)
    }
}

/// Role of a node in the transit-stub hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A transit (backbone) node in the given transit block.
    Transit {
        /// Index of the transit block.
        block: usize,
    },
    /// A stub (access) node.
    Stub {
        /// Index of the transit block the stub hangs off.
        block: usize,
        /// Global stub identifier.
        stub: StubId,
    },
}

/// An inclusive-exclusive uniform cost range for one edge tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRange {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive).
    pub hi: f64,
}

impl CostRange {
    /// Creates a range; `lo` may equal `hi` for a deterministic cost.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid (`lo > hi`, negative, or NaN).
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo >= 0.0 && hi >= lo, "invalid cost range [{lo}, {hi})");
        CostRange { lo, hi }
    }

    fn sample(&self, rng: &mut impl Rng) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// Parameters of the transit-stub generator.
///
/// Defaults reproduce the paper's Section 5.1 network: 3 transit blocks ×
/// 5 transit nodes × 2 stubs per transit node × 20 nodes per stub
/// (615 nodes ≈ "six hundred nodes").
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubParams {
    /// Number of transit blocks (domains).
    pub transit_blocks: usize,
    /// Transit nodes per block.
    pub transit_nodes_per_block: usize,
    /// Stubs attached to each transit node.
    pub stubs_per_transit: usize,
    /// Nodes in each stub.
    pub nodes_per_stub: usize,
    /// Probability of each extra (non-spanning-tree) edge between transit
    /// nodes of the same block.
    pub extra_transit_edge_prob: f64,
    /// Probability of each extra edge between stub nodes of the same
    /// stub.
    pub extra_stub_edge_prob: f64,
    /// Cost range for intra-stub edges (cheapest tier). These are the
    /// access links: raised above `stub_transit_cost`, they model the
    /// paper's §6.2 "higher costs to the last-mile links".
    pub intra_stub_cost: CostRange,
    /// Cost range for stub-gateway-to-transit edges.
    pub stub_transit_cost: CostRange,
    /// Cost range for transit edges within a block.
    pub intra_block_cost: CostRange,
    /// Cost range for transit edges between blocks (most expensive tier).
    pub inter_block_cost: CostRange,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_blocks: 3,
            transit_nodes_per_block: 5,
            stubs_per_transit: 2,
            nodes_per_stub: 20,
            extra_transit_edge_prob: 0.4,
            extra_stub_edge_prob: 0.2,
            intra_stub_cost: CostRange::new(1.0, 5.0),
            stub_transit_cost: CostRange::new(5.0, 10.0),
            intra_block_cost: CostRange::new(10.0, 20.0),
            inter_block_cost: CostRange::new(20.0, 40.0),
        }
    }
}

impl TransitStubParams {
    /// Section 3's 100-node network: one transit block, 4 transit nodes,
    /// 3 stubs per transit node, 8 nodes per stub.
    pub fn paper_100_nodes() -> Self {
        TransitStubParams {
            transit_blocks: 1,
            transit_nodes_per_block: 4,
            stubs_per_transit: 3,
            nodes_per_stub: 8,
            ..Default::default()
        }
    }

    /// Section 3's 300-node network: 5 transit nodes, 3 stubs each, 20
    /// nodes per stub.
    pub fn paper_300_nodes() -> Self {
        TransitStubParams {
            transit_blocks: 1,
            transit_nodes_per_block: 5,
            stubs_per_transit: 3,
            nodes_per_stub: 20,
            ..Default::default()
        }
    }

    /// Section 3's 600-node network: 4 transit nodes, 3 stubs each, 50
    /// nodes per stub.
    pub fn paper_600_nodes() -> Self {
        TransitStubParams {
            transit_blocks: 1,
            transit_nodes_per_block: 4,
            stubs_per_transit: 3,
            nodes_per_stub: 50,
            ..Default::default()
        }
    }

    /// Section 5.1's evaluation network: 3 transit blocks, 5 transit
    /// nodes each, 2 stubs per transit node, 20 nodes per stub.
    pub fn paper_section51() -> Self {
        TransitStubParams::default()
    }
}

/// A stub network: its gateway transit node and member nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stub {
    /// Global identifier.
    pub id: StubId,
    /// Transit block this stub belongs to.
    pub block: usize,
    /// The transit node the stub's gateway connects to.
    pub transit: NodeId,
    /// Stub member nodes.
    pub nodes: Vec<NodeId>,
}

/// A generated transit-stub topology: the weighted graph plus the
/// hierarchy metadata the workload generators need (which block / stub a
/// node belongs to).
#[derive(Debug, Clone)]
pub struct Topology {
    graph: Graph,
    kinds: Vec<NodeKind>,
    stubs: Vec<Stub>,
    /// `blocks[b]` lists the transit nodes of block `b`.
    blocks: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Generates a random transit-stub topology.
    ///
    /// The result is always connected: spanning trees are built first at
    /// every level, with extra edges added probabilistically on top.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero.
    pub fn generate(params: &TransitStubParams, rng: &mut impl Rng) -> Self {
        assert!(params.transit_blocks > 0, "need at least one transit block");
        assert!(
            params.transit_nodes_per_block > 0,
            "need at least one transit node per block"
        );
        assert!(
            params.stubs_per_transit > 0,
            "need at least one stub per transit node"
        );
        assert!(params.nodes_per_stub > 0, "need at least one node per stub");

        let mut graph = Graph::new();
        let mut kinds = Vec::new();
        let mut stubs = Vec::new();
        let mut blocks = Vec::with_capacity(params.transit_blocks);

        // 1. Transit nodes, block by block, with a random connected
        //    intra-block backbone.
        for b in 0..params.transit_blocks {
            let mut block_nodes = Vec::with_capacity(params.transit_nodes_per_block);
            for _ in 0..params.transit_nodes_per_block {
                let n = graph.add_node();
                kinds.push(NodeKind::Transit { block: b });
                block_nodes.push(n);
            }
            // Random spanning tree: attach node i to a random earlier node.
            for i in 1..block_nodes.len() {
                let j = rng.gen_range(0..i);
                let cost = params.intra_block_cost.sample(rng);
                graph
                    .add_edge(block_nodes[i], block_nodes[j], cost)
                    .expect("transit edge endpoints exist");
            }
            // Extra intra-block edges.
            for i in 0..block_nodes.len() {
                for j in (i + 1)..block_nodes.len() {
                    if rng.gen_bool(params.extra_transit_edge_prob)
                        && i + 1 != j
                        && !(i == 0 && j == 1)
                    {
                        let cost = params.intra_block_cost.sample(rng);
                        let _ = graph.add_edge(block_nodes[i], block_nodes[j], cost);
                    }
                }
            }
            blocks.push(block_nodes);
        }

        // 2. Inter-block edges: a spanning tree over blocks plus one
        //    random extra edge per block pair with probability 0.5.
        for b in 1..params.transit_blocks {
            let a = rng.gen_range(0..b);
            let u = blocks[a][rng.gen_range(0..blocks[a].len())];
            let v = blocks[b][rng.gen_range(0..blocks[b].len())];
            let cost = params.inter_block_cost.sample(rng);
            graph
                .add_edge(u, v, cost)
                .expect("inter-block endpoints exist");
        }
        for a in 0..params.transit_blocks {
            for b in (a + 1)..params.transit_blocks {
                if rng.gen_bool(0.5) {
                    let u = blocks[a][rng.gen_range(0..blocks[a].len())];
                    let v = blocks[b][rng.gen_range(0..blocks[b].len())];
                    let cost = params.inter_block_cost.sample(rng);
                    let _ = graph.add_edge(u, v, cost);
                }
            }
        }

        // 3. Stubs: a connected cluster of stub nodes whose gateway (the
        //    first node) links up to its transit node.
        let mut next_stub = 0usize;
        for (b, block) in blocks.iter().enumerate() {
            for &t in block {
                for _ in 0..params.stubs_per_transit {
                    let id = StubId(next_stub);
                    next_stub += 1;
                    let mut nodes = Vec::with_capacity(params.nodes_per_stub);
                    for _ in 0..params.nodes_per_stub {
                        let n = graph.add_node();
                        kinds.push(NodeKind::Stub { block: b, stub: id });
                        nodes.push(n);
                    }
                    // Intra-stub spanning tree.
                    for i in 1..nodes.len() {
                        let j = rng.gen_range(0..i);
                        let cost = params.intra_stub_cost.sample(rng);
                        graph
                            .add_edge(nodes[i], nodes[j], cost)
                            .expect("stub edge endpoints exist");
                    }
                    // Extra intra-stub edges.
                    if nodes.len() > 2 {
                        let extras = (nodes.len() as f64 * params.extra_stub_edge_prob) as usize;
                        for _ in 0..extras {
                            let i = rng.gen_range(0..nodes.len());
                            let j = rng.gen_range(0..nodes.len());
                            if i != j {
                                let cost = params.intra_stub_cost.sample(rng);
                                let _ = graph.add_edge(nodes[i], nodes[j], cost);
                            }
                        }
                    }
                    // Gateway uplink.
                    let cost = params.stub_transit_cost.sample(rng);
                    graph
                        // lint: allow(no-literal-index): every stub has >= 1 node
                        .add_edge(nodes[0], t, cost)
                        .expect("gateway endpoints exist");
                    stubs.push(Stub {
                        id,
                        block: b,
                        transit: t,
                        nodes,
                    });
                }
            }
        }

        debug_assert!(graph.is_connected(), "generated topology must be connected");
        Topology {
            graph,
            kinds,
            stubs,
            blocks,
        }
    }

    /// The underlying weighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The stub containing node `n`, or `None` for transit nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn stub_of(&self, n: NodeId) -> Option<StubId> {
        match self.kinds[n.0] {
            NodeKind::Stub { stub, .. } => Some(stub),
            NodeKind::Transit { .. } => None,
        }
    }

    /// The transit block containing node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn block_of(&self, n: NodeId) -> usize {
        match self.kinds[n.0] {
            NodeKind::Stub { block, .. } | NodeKind::Transit { block } => block,
        }
    }

    /// All stubs.
    pub fn stubs(&self) -> &[Stub] {
        &self.stubs
    }

    /// The stubs of transit block `b`.
    pub fn stubs_in_block(&self, b: usize) -> impl Iterator<Item = &Stub> {
        self.stubs.iter().filter(move |s| s.block == b)
    }

    /// Number of transit blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All stub (non-transit) nodes, in id order.
    pub fn stub_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|&n| matches!(self.kinds[n.0], NodeKind::Stub { .. }))
    }

    /// Cost-weighted distance statistics over a sample of source nodes
    /// (`sample_every` controls density: every `n`-th node is a
    /// source). Exact when `sample_every == 1`.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn distance_stats(&self, sample_every: usize) -> TopologyStats {
        assert!(sample_every > 0, "sample_every must be positive");
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut pairs = 0usize;
        for src in self.graph.nodes().step_by(sample_every) {
            let spt = crate::shortest_path::ShortestPathTree::compute(&self.graph, src);
            for dst in self.graph.nodes() {
                if dst != src && spt.is_reachable(dst) {
                    let d = spt.distance(dst);
                    max = max.max(d);
                    sum += d;
                    pairs += 1;
                }
            }
        }
        TopologyStats {
            diameter: max,
            mean_distance: if pairs == 0 { 0.0 } else { sum / pairs as f64 },
            sampled_sources: self.graph.num_nodes().div_ceil(sample_every),
        }
    }
}

/// Distance statistics of a topology (see [`Topology::distance_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyStats {
    /// Largest sampled shortest-path distance (the cost-weighted
    /// diameter when every node is sampled).
    pub diameter: f64,
    /// Mean shortest-path distance over sampled pairs.
    pub mean_distance: f64,
    /// How many sources were sampled.
    pub sampled_sources: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn node_counts_match_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        for (params, expected) in [
            (TransitStubParams::paper_100_nodes(), 100),
            (TransitStubParams::paper_300_nodes(), 305),
            (TransitStubParams::paper_600_nodes(), 604),
            (TransitStubParams::paper_section51(), 615),
        ] {
            let topo = Topology::generate(&params, &mut rng);
            assert_eq!(topo.num_nodes(), expected);
        }
    }

    #[test]
    fn generated_topology_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..5 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let topo = Topology::generate(&TransitStubParams::default(), &mut rng2);
            assert!(topo.graph().is_connected(), "seed {seed}");
            let _ = rng.gen::<u8>();
        }
    }

    #[test]
    fn hierarchy_metadata_is_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = TransitStubParams::paper_section51();
        let topo = Topology::generate(&params, &mut rng);
        assert_eq!(topo.num_blocks(), 3);
        assert_eq!(topo.stubs().len(), 3 * 5 * 2);
        // Every stub node's metadata points back to its stub.
        for stub in topo.stubs() {
            assert_eq!(stub.nodes.len(), params.nodes_per_stub);
            for &n in &stub.nodes {
                assert_eq!(topo.stub_of(n), Some(stub.id));
                assert_eq!(topo.block_of(n), stub.block);
            }
            // Gateway connects to its transit node.
            assert!(topo
                .graph()
                .neighbors(stub.nodes[0])
                .iter()
                .any(|&(v, _)| v == stub.transit));
        }
        // Transit nodes have no stub.
        for b in 0..topo.num_blocks() {
            for &t in &topo.blocks[b] {
                assert_eq!(topo.stub_of(t), None);
                assert_eq!(topo.block_of(t), b);
            }
        }
        // Stub-node iterator counts all non-transit nodes.
        let stub_count = topo.stub_nodes().count();
        assert_eq!(stub_count, 3 * 5 * 2 * 20);
    }

    #[test]
    fn cost_tiers_are_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = TransitStubParams::default();
        let topo = Topology::generate(&params, &mut rng);
        for e in topo.graph().edges() {
            let (ku, kv) = (topo.kinds[e.u.0], topo.kinds[e.v.0]);
            match (ku, kv) {
                (NodeKind::Stub { stub: a, .. }, NodeKind::Stub { stub: b, .. }) => {
                    assert_eq!(a, b, "stub-stub edges only within a stub");
                    assert!(e.cost >= params.intra_stub_cost.lo);
                    assert!(e.cost < params.intra_stub_cost.hi);
                }
                (NodeKind::Stub { .. }, NodeKind::Transit { .. })
                | (NodeKind::Transit { .. }, NodeKind::Stub { .. }) => {
                    assert!(e.cost >= params.stub_transit_cost.lo);
                    assert!(e.cost < params.stub_transit_cost.hi);
                }
                (NodeKind::Transit { block: a }, NodeKind::Transit { block: b }) => {
                    if a == b {
                        assert!(e.cost >= params.intra_block_cost.lo);
                        assert!(e.cost < params.intra_block_cost.hi);
                    } else {
                        assert!(e.cost >= params.inter_block_cost.lo);
                        assert!(e.cost < params.inter_block_cost.hi);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let t1 = Topology::generate(
            &TransitStubParams::paper_100_nodes(),
            &mut StdRng::seed_from_u64(99),
        );
        let t2 = Topology::generate(
            &TransitStubParams::paper_100_nodes(),
            &mut StdRng::seed_from_u64(99),
        );
        assert_eq!(t1.graph().num_edges(), t2.graph().num_edges());
        for (a, b) in t1.graph().edges().iter().zip(t2.graph().edges()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn distance_stats_are_consistent() {
        let topo = Topology::generate(
            &TransitStubParams::paper_100_nodes(),
            &mut StdRng::seed_from_u64(6),
        );
        let exact = topo.distance_stats(1);
        assert!(exact.diameter > 0.0);
        assert!(exact.mean_distance > 0.0);
        assert!(exact.mean_distance <= exact.diameter);
        assert_eq!(exact.sampled_sources, topo.num_nodes());
        // Sampling can only see a subset: diameter estimate <= exact.
        let sampled = topo.distance_stats(7);
        assert!(sampled.diameter <= exact.diameter + 1e-9);
    }

    #[test]
    fn expensive_last_mile_shrinks_relative_multicast_benefit() {
        use crate::routing::Router;
        // Same structure, two access-cost regimes. With costly access
        // links, every receiver pays its own last mile under any
        // scheme, so the multicast/unicast ratio moves toward 1.
        let cheap = TransitStubParams::paper_100_nodes();
        let pricey = TransitStubParams {
            intra_stub_cost: CostRange::new(15.0, 25.0),
            ..TransitStubParams::paper_100_nodes()
        };
        let mut ratios = Vec::new();
        for params in [cheap, pricey] {
            let topo = Topology::generate(&params, &mut StdRng::seed_from_u64(5));
            let nodes: Vec<NodeId> = topo.stub_nodes().collect();
            let members: Vec<NodeId> = nodes.iter().step_by(5).copied().collect();
            let mut r = Router::new(topo.graph());
            r.warm([nodes[0]]);
            let uni = r.unicast_cost(nodes[0], members.iter().copied());
            let tree = r.group_multicast_cost(nodes[0], &members);
            ratios.push(tree / uni);
        }
        assert!(
            ratios[1] > ratios[0],
            "expensive last mile should reduce relative benefit: {ratios:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_parameters_rejected() {
        let params = TransitStubParams {
            nodes_per_stub: 0,
            ..Default::default()
        };
        let _ = Topology::generate(&params, &mut StdRng::seed_from_u64(0));
    }
}
