//! Yen's algorithm for the k shortest loopless paths.
//!
//! Section 5 of the paper generalizes traffics to *sets* of weighted routes
//! between a source/destination pair ("for the sake of load balancing, the
//! internal routing strategy deployed by the ISP might use several routes").
//! `k_shortest_paths` provides those routes: the `k` cheapest simple paths
//! in increasing cost order, with the same deterministic tie-breaking as
//! [`crate::dijkstra`].

use crate::dijkstra::shortest_path_avoiding;
use crate::{Graph, GraphError, NodeId, Path, Result};

/// Returns up to `k` cheapest loopless paths from `source` to `target`,
/// sorted by increasing cost (ties broken by node sequence).
///
/// Returns an empty vector when `k == 0`, and fewer than `k` paths when the
/// graph does not contain that many simple paths. Errors only on invalid
/// node ids; an unreachable pair yields `Ok(vec![])`.
pub fn k_shortest_paths(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Result<Vec<Path>> {
    graph.check_node(source)?;
    graph.check_node(target)?;
    if k == 0 {
        return Ok(Vec::new());
    }

    let first = match shortest_path_avoiding(graph, source, target, &[], &[]) {
        Ok(p) => p,
        Err(GraphError::Unreachable { .. }) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };

    let mut accepted: Vec<Path> = vec![first];
    // Candidate pool: (cost, node-sequence) keyed paths not yet accepted.
    let mut candidates: Vec<Path> = Vec::new();

    while accepted.len() < k {
        let last = accepted.last().expect("at least one accepted path");
        // Each node of the last accepted path (except the target) is a spur
        // node: reroute from there while avoiding the root prefix and every
        // edge that would recreate an already-accepted path.
        for i in 0..last.nodes().len() - 1 {
            let spur = last.nodes()[i];
            let root_nodes = &last.nodes()[..=i];
            let root_edges = &last.edges()[..i];

            // Edges leaving the spur node along any accepted path sharing
            // this root must be removed.
            let mut spur_banned = Vec::new();
            for p in &accepted {
                if p.nodes().len() > i && p.nodes()[..=i] == *root_nodes {
                    if let Some(&e) = p.edges().get(i) {
                        spur_banned.push(e);
                    }
                }
            }
            // Nodes of the root (except the spur itself) must not be
            // re-entered, keeping spur paths loopless.
            let banned_nodes: Vec<NodeId> = root_nodes[..i]
                .iter()
                .copied()
                .filter(|&v| v != spur)
                .collect();

            // Early-terminating single-pair Dijkstra: identical path to
            // the full spur tree's, without exploring past the target.
            let spur_path =
                match shortest_path_avoiding(graph, spur, target, &banned_nodes, &spur_banned) {
                    Ok(p) => p,
                    Err(GraphError::Unreachable { .. }) => continue,
                    Err(e) => return Err(e),
                };

            let root = Path::new(graph, root_nodes.to_vec(), root_edges.to_vec())?;
            let total = root.concat(graph, &spur_path)?;
            if total.is_simple() && !accepted.contains(&total) && !candidates.contains(&total) {
                candidates.push(total);
            }
        }

        if candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate; tie-break on the node sequence so
        // the output order is deterministic.
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.cost(graph)
                    .partial_cmp(&b.cost(graph))
                    .expect("finite costs")
                    .then_with(|| a.nodes().cmp(b.nodes()))
            })
            .map(|(i, _)| i)
            .expect("non-empty candidates");
        accepted.push(candidates.swap_remove(best));
    }

    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Classic Yen example: diamond with a costly direct edge.
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 4);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[1], n[3], 1.0);
        b.add_edge(n[0], n[2], 2.0);
        b.add_edge(n[2], n[3], 2.0);
        b.add_edge(n[0], n[3], 10.0);
        (b.build(), n)
    }

    #[test]
    fn returns_paths_in_cost_order() {
        let (g, n) = diamond();
        let paths = k_shortest_paths(&g, n[0], n[3], 3).unwrap();
        assert_eq!(paths.len(), 3);
        let costs: Vec<f64> = paths.iter().map(|p| p.cost(&g)).collect();
        assert_eq!(costs, vec![2.0, 4.0, 10.0]);
        assert!(paths.iter().all(|p| p.is_simple()));
    }

    #[test]
    fn k_zero_returns_nothing() {
        let (g, n) = diamond();
        assert!(k_shortest_paths(&g, n[0], n[3], 0).unwrap().is_empty());
    }

    #[test]
    fn saturates_when_fewer_paths_exist() {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 2);
        b.add_edge(n[0], n[1], 1.0);
        let g = b.build();
        let paths = k_shortest_paths(&g, n[0], n[1], 5).unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn unreachable_pair_yields_empty() {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 2);
        let g = b.build();
        assert!(k_shortest_paths(&g, n[0], n[1], 3).unwrap().is_empty());
    }

    #[test]
    fn paths_are_distinct() {
        let (g, n) = diamond();
        let paths = k_shortest_paths(&g, n[0], n[3], 3).unwrap();
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert_ne!(paths[i], paths[j]);
            }
        }
    }

    #[test]
    fn handles_parallel_edges() {
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("r", 2);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[0], n[1], 2.0);
        let g = b.build();
        let paths = k_shortest_paths(&g, n[0], n[1], 4).unwrap();
        // Two single-hop paths using different parallel edges.
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0].edges(), paths[1].edges());
    }

    #[test]
    fn grid_path_counts() {
        // 3x3 grid: the 6 monotone staircase paths from corner to corner
        // cost 4; asking for 6 must return six cost-4 simple paths.
        let mut b = GraphBuilder::new();
        let n = b.add_nodes("g", 9);
        let at = |r: usize, c: usize| n[3 * r + c];
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    b.add_edge(at(r, c), at(r, c + 1), 1.0);
                }
                if r + 1 < 3 {
                    b.add_edge(at(r, c), at(r + 1, c), 1.0);
                }
            }
        }
        let g = b.build();
        let paths = k_shortest_paths(&g, at(0, 0), at(2, 2), 6).unwrap();
        assert_eq!(paths.len(), 6);
        assert!(paths.iter().all(|p| (p.cost(&g) - 4.0).abs() < 1e-12));
    }
}
