use crate::{EdgeId, Graph, GraphError, NodeId, Result};

/// A validated walk through a [`Graph`]: `k` edges chaining `k + 1` nodes.
///
/// Traffics in the paper are *single paths* between two routers (Section
/// 4.1), later generalized to sets of paths (Section 5). `Path` stores both
/// the node sequence and the edge sequence because parallel links make the
/// edge sequence ambiguous given nodes alone, and the placement algorithms
/// work on edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// Builds a path from a node sequence and an edge sequence, validating
    /// against `graph` that consecutive nodes are joined by the matching
    /// edge.
    pub fn new(graph: &Graph, nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(GraphError::MalformedPath("empty node sequence".into()));
        }
        if edges.len() + 1 != nodes.len() {
            return Err(GraphError::MalformedPath(format!(
                "{} nodes require {} edges, got {}",
                nodes.len(),
                nodes.len() - 1,
                edges.len()
            )));
        }
        for &n in &nodes {
            graph.check_node(n)?;
        }
        for (i, &e) in edges.iter().enumerate() {
            graph.check_edge(e)?;
            let (u, v) = graph.endpoints(e);
            let (a, b) = (nodes[i], nodes[i + 1]);
            if !((u == a && v == b) || (u == b && v == a)) {
                return Err(GraphError::MalformedPath(format!(
                    "edge {e} does not join {a} and {b}"
                )));
            }
        }
        Ok(Self { nodes, edges })
    }

    /// Builds a path from a node sequence alone, resolving each hop to the
    /// smallest-id edge joining the pair.
    pub fn from_nodes(graph: &Graph, nodes: Vec<NodeId>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(GraphError::MalformedPath("empty node sequence".into()));
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let e = graph.find_edge(w[0], w[1]).ok_or_else(|| {
                GraphError::MalformedPath(format!("no edge between {} and {}", w[0], w[1]))
            })?;
            edges.push(e);
        }
        Path::new(graph, nodes, edges)
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence, in traversal order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// First node of the path.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of edges (hops).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the path has no edges (a single node).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Sum of routing weights along the path.
    pub fn cost(&self, graph: &Graph) -> f64 {
        self.edges.iter().map(|&e| graph.weight(e)).sum()
    }

    /// `true` when no node repeats (the path is simple / loopless).
    pub fn is_simple(&self) -> bool {
        let mut seen: Vec<NodeId> = self.nodes.clone();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1])
    }

    /// `true` when the path visits `node`.
    pub fn visits(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Concatenates two paths; `self.target()` must equal `other.source()`.
    pub fn concat(&self, graph: &Graph, other: &Path) -> Result<Path> {
        if self.target() != other.source() {
            return Err(GraphError::MalformedPath(format!(
                "cannot concatenate: {} != {}",
                self.target(),
                other.source()
            )));
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Path::new(graph, nodes, edges)
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, "-")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn square() -> (Graph, [NodeId; 4], [EdgeId; 4]) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = b.add_nodes("r", 4);
        let e0 = b.add_edge(n[0], n[1], 1.0);
        let e1 = b.add_edge(n[1], n[2], 1.0);
        let e2 = b.add_edge(n[2], n[3], 1.0);
        let e3 = b.add_edge(n[3], n[0], 1.0);
        (b.build(), [n[0], n[1], n[2], n[3]], [e0, e1, e2, e3])
    }

    #[test]
    fn valid_path_roundtrip() {
        let (g, n, e) = square();
        let p = Path::new(&g, vec![n[0], n[1], n[2]], vec![e[0], e[1]]).unwrap();
        assert_eq!(p.source(), n[0]);
        assert_eq!(p.target(), n[2]);
        assert_eq!(p.len(), 2);
        assert!((p.cost(&g) - 2.0).abs() < 1e-12);
        assert!(p.is_simple());
        assert_eq!(p.edges(), &[e[0], e[1]]);
    }

    #[test]
    fn from_nodes_resolves_edges() {
        let (g, n, e) = square();
        let p = Path::from_nodes(&g, vec![n[0], n[3], n[2]]).unwrap();
        assert_eq!(p.edges(), &[e[3], e[2]]);
    }

    #[test]
    fn rejects_mismatched_edge() {
        let (g, n, e) = square();
        let err = Path::new(&g, vec![n[0], n[1]], vec![e[2]]).unwrap_err();
        assert!(matches!(err, GraphError::MalformedPath(_)));
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let (g, n, e) = square();
        assert!(Path::new(&g, vec![n[0], n[1]], vec![e[0], e[1]]).is_err());
        assert!(Path::new(&g, vec![], vec![]).is_err());
    }

    #[test]
    fn non_simple_path_detected() {
        let (g, n, e) = square();
        let p = Path::new(
            &g,
            vec![n[0], n[1], n[2], n[3], n[0], n[1]],
            vec![e[0], e[1], e[2], e[3], e[0]],
        )
        .unwrap();
        assert!(!p.is_simple());
    }

    #[test]
    fn concat_paths() {
        let (g, n, e) = square();
        let p1 = Path::new(&g, vec![n[0], n[1]], vec![e[0]]).unwrap();
        let p2 = Path::new(&g, vec![n[1], n[2]], vec![e[1]]).unwrap();
        let joined = p1.concat(&g, &p2).unwrap();
        assert_eq!(joined.nodes(), &[n[0], n[1], n[2]]);
        assert!(p2.concat(&g, &p1).is_err());
    }
}
