//! Unweighted traversal: reachability and connectivity.

use std::collections::VecDeque;

use crate::{Graph, NodeId, Result};

/// Returns the set of nodes reachable from `source` (including `source`),
/// as a boolean mask indexed by node id.
pub fn reachable_mask(graph: &Graph, source: NodeId) -> Result<Vec<bool>> {
    graph.check_node(source)?;
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(_, v) in graph.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    Ok(seen)
}

/// `true` when every node is reachable from every other (or the graph is
/// empty).
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    reachable_mask(graph, NodeId(0))
        .map(|mask| mask.iter().all(|&b| b))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_islands() -> Graph {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 5);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[1], n[2], 1.0);
        b.add_edge(n[3], n[4], 1.0);
        b.build()
    }

    #[test]
    fn reachability_respects_islands() {
        let g = two_islands();
        let mask = reachable_mask(&g, NodeId(0)).unwrap();
        assert_eq!(mask, vec![true, true, true, false, false]);
    }

    #[test]
    fn connectivity_flag() {
        let g = two_islands();
        assert!(!is_connected(&g));
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 2);
        b.add_edge(n[0], n[1], 1.0);
        assert!(is_connected(&b.build()));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&GraphBuilder::new().build()));
    }

    #[test]
    fn single_node_graph_is_connected() {
        let mut b = GraphBuilder::new();
        b.add_node("only");
        assert!(is_connected(&b.build()));
    }
}
