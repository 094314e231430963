//! Weighted shortest paths with deterministic tie-breaking.
//!
//! The paper routes each traffic on the shortest path between its entry and
//! exit routers (Section 4.4, following \[15\]); routing is *not* assumed
//! symmetric. To keep every experiment reproducible we break distance ties
//! deterministically: among equal-distance relaxations the predecessor with
//! the smaller `(node, edge)` pair wins, so the same graph always yields the
//! same routing regardless of heap ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{EdgeId, Graph, GraphError, NodeId, Path, Result};

/// Outcome of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    /// Predecessor edge and node on a shortest path, `None` for the source
    /// and for unreachable nodes.
    pred: Vec<Option<(EdgeId, NodeId)>>,
}

impl ShortestPathTree {
    /// The source node of this tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node`, `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// Reconstructs the shortest path from the source to `target`.
    pub fn path_to(&self, graph: &Graph, target: NodeId) -> Result<Path> {
        graph.check_node(target)?;
        if !self.dist[target.index()].is_finite() {
            return Err(GraphError::Unreachable {
                source: self.source.index(),
                target: target.index(),
            });
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((e, p)) = self.pred[cur.index()] {
            edges.push(e);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Path::new(graph, nodes, edges)
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (dist, node): reverse the natural order. Distances are
        // finite by construction, so partial_cmp cannot fail.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Dijkstra from `source` over the whole graph.
///
/// Edge weights must be non-negative (enforced at graph construction).
pub fn shortest_path_tree(graph: &Graph, source: NodeId) -> Result<ShortestPathTree> {
    tree_avoiding_until(graph, source, None, &[], &[])
}

/// Shortest path from `source` to `target` that never traverses
/// `forbidden_edges` nor enters `forbidden_nodes` (the source itself may
/// appear in `forbidden_nodes` without effect). It stops as soon as
/// `target` is settled instead of exploring the whole graph. Once a node
/// is popped its distance and predecessor are final and can never be
/// revised (not even by the tie-break rule), so with nothing forbidden
/// the returned path is byte-identical to [`shortest_path_tree`]'s —
/// this only saves the work past the target. Yen's spur computations
/// (one per path node per iteration) and the routed delta chains'
/// re-routes are its callers.
pub fn shortest_path_avoiding(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    forbidden_nodes: &[NodeId],
    forbidden_edges: &[EdgeId],
) -> Result<Path> {
    graph.check_node(target)?;
    tree_avoiding_until(
        graph,
        source,
        Some(target),
        forbidden_nodes,
        forbidden_edges,
    )?
    .path_to(graph, target)
}

fn tree_avoiding_until(
    graph: &Graph,
    source: NodeId,
    stop_at: Option<NodeId>,
    forbidden_nodes: &[NodeId],
    forbidden_edges: &[EdgeId],
) -> Result<ShortestPathTree> {
    graph.check_node(source)?;
    let n = graph.node_count();
    let mut node_blocked = vec![false; n];
    for &v in forbidden_nodes {
        graph.check_node(v)?;
        node_blocked[v.index()] = true;
    }
    let mut edge_blocked = vec![false; graph.edge_count()];
    for &e in forbidden_edges {
        graph.check_edge(e)?;
        edge_blocked[e.index()] = true;
    }

    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<(EdgeId, NodeId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        if stop_at == Some(u) {
            break;
        }
        for &(e, v) in graph.neighbors(u) {
            if edge_blocked[e.index()] || node_blocked[v.index()] || done[v.index()] {
                continue;
            }
            let nd = d + graph.weight(e);
            let cur = dist[v.index()];
            let better = nd < cur - TIE_EPS;
            // Deterministic tie-break: keep the predecessor with the
            // lexicographically smallest (node, edge) pair.
            let tie = (nd - cur).abs() <= TIE_EPS
                && pred[v.index()].is_some_and(|(pe, pu)| (u, e) < (pu, pe));
            if better || tie {
                dist[v.index()] = nd.min(cur);
                pred[v.index()] = Some((e, u));
                heap.push(HeapEntry {
                    dist: dist[v.index()],
                    node: v,
                });
            }
        }
    }

    Ok(ShortestPathTree { source, dist, pred })
}

/// Absolute tolerance under which two path lengths are considered equal for
/// tie-breaking purposes.
const TIE_EPS: f64 = 1e-12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 0 --1-- 1 --1-- 2
    ///  \______5______/
    fn detour() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 3);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[1], n[2], 1.0);
        b.add_edge(n[0], n[2], 5.0);
        (b.build(), n)
    }

    #[test]
    fn prefers_cheaper_two_hop() {
        let (g, n) = detour();
        let p = shortest_path_tree(&g, n[0])
            .unwrap()
            .path_to(&g, n[2])
            .unwrap();
        assert_eq!(p.nodes(), &[n[0], n[1], n[2]]);
        assert!((p.cost(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distances_from_tree() {
        let (g, n) = detour();
        let t = shortest_path_tree(&g, n[0]).unwrap();
        assert_eq!(t.distance(n[0]), Some(0.0));
        assert_eq!(t.distance(n[1]), Some(1.0));
        assert_eq!(t.distance(n[2]), Some(2.0));
    }

    #[test]
    fn unreachable_reported() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let g = b.build();
        let t = shortest_path_tree(&g, a).unwrap();
        assert!(matches!(
            t.path_to(&g, c),
            Err(GraphError::Unreachable {
                source: 0,
                target: 1
            })
        ));
        assert_eq!(t.distance(c), None);
    }

    #[test]
    fn path_to_source_is_trivial() {
        let (g, n) = detour();
        let p = shortest_path_tree(&g, n[0])
            .unwrap()
            .path_to(&g, n[0])
            .unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost routes 0-1-3 and 0-2-3; the tie-break must always
        // pick the same one (via node 1, the smaller id).
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 4);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[0], n[2], 1.0);
        b.add_edge(n[1], n[3], 1.0);
        b.add_edge(n[2], n[3], 1.0);
        let g = b.build();
        for _ in 0..10 {
            let p = shortest_path_tree(&g, n[0])
                .unwrap()
                .path_to(&g, n[3])
                .unwrap();
            assert_eq!(p.nodes()[1], n[1]);
            let q = shortest_path_avoiding(&g, n[0], n[3], &[], &[]).unwrap();
            assert_eq!(q, p, "the early stop must not change the tie-break");
        }
    }

    #[test]
    fn avoiding_edges_forces_detour() {
        let (g, n) = detour();
        let direct = g.find_edge(n[0], n[1]).unwrap();
        let p = shortest_path_avoiding(&g, n[0], n[2], &[], &[direct]).unwrap();
        assert_eq!(p.nodes(), &[n[0], n[2]]);
        assert!((p.cost(&g) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn avoiding_nodes_blocks_route() {
        let (g, n) = detour();
        let p = shortest_path_avoiding(&g, n[0], n[2], &[n[1]], &[]).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 3);
        b.add_edge(n[0], n[1], 0.0);
        b.add_edge(n[1], n[2], 0.0);
        let g = b.build();
        let t = shortest_path_tree(&g, n[0]).unwrap();
        assert_eq!(t.distance(n[2]), Some(0.0));
    }
}
