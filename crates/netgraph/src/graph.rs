use crate::{GraphError, Result};

/// Identifier of a node (router or virtual endpoint) in a [`Graph`].
///
/// Node ids are dense indices `0..graph.node_count()`, assigned in insertion
/// order by [`GraphBuilder::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an undirected edge (communication link) in a [`Graph`].
///
/// Edge ids are dense indices `0..graph.edge_count()`, assigned in insertion
/// order by [`GraphBuilder::add_edge`]. Passive monitoring devices are
/// installed *on edges*, so most of the placement crate manipulates
/// `EdgeId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct EdgeRecord {
    u: NodeId,
    v: NodeId,
    weight: f64,
}

/// Incremental builder for [`Graph`].
///
/// The builder validates each insertion eagerly: node labels may repeat, but
/// self-loops and non-finite weights are rejected at [`add_edge`] time via
/// the panicking convenience method or reported by [`try_add_edge`].
///
/// [`add_edge`]: GraphBuilder::add_edge
/// [`try_add_edge`]: GraphBuilder::try_add_edge
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<String>,
    edges: Vec<EdgeRecord>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with a human-readable label and returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.into());
        id
    }

    /// Adds `count` nodes labelled `"{prefix}{i}"` and returns their ids.
    pub fn add_nodes(&mut self, prefix: &str, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Adds an undirected edge between `u` and `v` with the given routing
    /// weight, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, unknown nodes or invalid weights; use
    /// [`GraphBuilder::try_add_edge`] for a fallible variant.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> EdgeId {
        self.try_add_edge(u, v, weight).expect("invalid edge")
    }

    /// Fallible variant of [`GraphBuilder::add_edge`].
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<EdgeId> {
        let n = self.labels.len();
        for node in [u, v] {
            if node.index() >= n {
                return Err(GraphError::InvalidNode {
                    node: node.index(),
                    node_count: n,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u.index() });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { u, v, weight });
        Ok(id)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let mut adjacency: Vec<Vec<(EdgeId, NodeId)>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adjacency[e.u.index()].push((id, e.v));
            adjacency[e.v.index()].push((id, e.u));
        }
        // Deterministic neighbor order: sort by (neighbor, edge id) so that
        // algorithms iterating adjacency are reproducible regardless of
        // insertion order.
        for adj in &mut adjacency {
            adj.sort_by_key(|&(e, v)| (v, e));
        }
        Graph {
            labels: self.labels,
            edges: self.edges,
            adjacency,
        }
    }
}

/// An immutable undirected multigraph with labelled nodes and weighted edges.
///
/// This is the network model of the paper's Section 4.1: nodes are routers,
/// edges are links. Routing weights drive shortest-path computation (IGP
/// metric); the *load* of a link (sum of traffic weights crossing it) is a
/// property of a traffic set, not of the graph, and lives in `popgen`.
#[derive(Debug, Clone)]
pub struct Graph {
    labels: Vec<String>,
    edges: Vec<EdgeRecord>,
    adjacency: Vec<Vec<(EdgeId, NodeId)>>,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Label of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this graph.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.index()]
    }

    /// The two endpoints `(u, v)` of an edge, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this graph.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.u, e.v)
    }

    /// The routing weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` does not belong to this graph.
    pub fn weight(&self, edge: EdgeId) -> f64 {
        self.edges[edge.index()].weight
    }

    /// Neighbors of `node` as `(edge, opposite endpoint)` pairs, in
    /// deterministic `(neighbor id, edge id)` order.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this graph.
    pub fn neighbors(&self, node: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adjacency[node.index()]
    }

    /// Degree of `node` (counting parallel edges separately).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Returns `Ok(())` when `node` belongs to this graph.
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::InvalidNode {
                node: node.index(),
                node_count: self.node_count(),
            })
        }
    }

    /// Returns `Ok(())` when `edge` belongs to this graph.
    pub fn check_edge(&self, edge: EdgeId) -> Result<()> {
        if edge.index() < self.edge_count() {
            Ok(())
        } else {
            Err(GraphError::InvalidEdge {
                edge: edge.index(),
                edge_count: self.edge_count(),
            })
        }
    }

    /// Finds an edge between `u` and `v`, if any (the one with the smallest
    /// id when parallel edges exist).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adjacency
            .get(u.index())?
            .iter()
            .filter(|&&(_, w)| w == v)
            .map(|&(e, _)| e)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [EdgeId; 3]) {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let d = b.add_node("c");
        let e0 = b.add_edge(a, c, 1.0);
        let e1 = b.add_edge(c, d, 2.0);
        let e2 = b.add_edge(d, a, 3.0);
        (b.build(), [a, c, d], [e0, e1, e2])
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let (g, nodes, edges) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(nodes.map(|n| n.index()), [0, 1, 2]);
        assert_eq!(edges.map(|e| e.index()), [0, 1, 2]);
    }

    #[test]
    fn endpoints_keep_insertion_order() {
        let (g, [a, b, c], [e0, _, e2]) = triangle();
        assert_eq!(g.endpoints(e0), (a, b));
        assert_eq!(g.endpoints(e2), (c, a));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        assert_eq!(
            b.try_add_edge(a, a, 1.0),
            Err(GraphError::SelfLoop { node: 0 })
        );
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let ghost = NodeId(7);
        assert!(matches!(
            b.try_add_edge(a, ghost, 1.0),
            Err(GraphError::InvalidNode { node: 7, .. })
        ));
    }

    #[test]
    fn rejects_bad_weight() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        assert!(b.try_add_edge(a, c, f64::NAN).is_err());
        assert!(b.try_add_edge(a, c, -1.0).is_err());
        assert!(b.try_add_edge(a, c, f64::INFINITY).is_err());
        assert!(b.try_add_edge(a, c, 0.0).is_ok());
    }

    #[test]
    fn neighbors_are_deterministically_sorted() {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub");
        let n3 = b.add_node("n3");
        let n1 = b.add_node("n1");
        let n2 = b.add_node("n2");
        // Insert in scrambled order.
        b.add_edge(hub, n2, 1.0);
        b.add_edge(hub, n3, 1.0);
        b.add_edge(hub, n1, 1.0);
        let g = b.build();
        let order: Vec<NodeId> = g.neighbors(hub).iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec![n3, n1, n2]); // sorted by node id
    }

    #[test]
    fn parallel_edges_are_supported() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let e0 = b.add_edge(a, c, 1.0);
        let e1 = b.add_edge(a, c, 2.0);
        let g = b.build();
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.find_edge(a, c), Some(e0));
        assert_eq!(g.weight(e1), 2.0);
    }

    #[test]
    fn find_edge_absent() {
        let (g, [a, ..], _) = triangle();
        let mut b = GraphBuilder::new();
        let lone = b.add_node("lone");
        let _ = lone;
        assert_eq!(g.find_edge(a, a), None);
    }

    #[test]
    fn check_node_and_edge_bounds() {
        let (g, ..) = triangle();
        assert!(g.check_node(NodeId(2)).is_ok());
        assert!(g.check_node(NodeId(3)).is_err());
        assert!(g.check_edge(EdgeId(2)).is_ok());
        assert!(g.check_edge(EdgeId(3)).is_err());
    }
}
