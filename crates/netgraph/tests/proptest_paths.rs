//! Property tests for the graph substrate: shortest paths agree with
//! Floyd–Warshall, k-shortest paths are sorted/simple/distinct, and
//! traversal invariants hold on random graphs.

use netgraph::{bfs, dijkstra, ksp, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Random connected-ish graph: `n` nodes, a spanning chain plus extra
/// random edges with weights in [0.1, 10].
fn graphs() -> impl Strategy<Value = Graph> {
    (2usize..=9).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 0..=12);
        let chain_w = proptest::collection::vec(0.1f64..10.0, n - 1);
        (chain_w, extra).prop_map(move |(cw, extra)| {
            let mut b = GraphBuilder::new();
            let nodes = b.add_nodes("v", n);
            for (i, w) in cw.into_iter().enumerate() {
                b.add_edge(nodes[i], nodes[i + 1], w);
            }
            for (u, v, w) in extra {
                if u != v {
                    b.add_edge(nodes[u], nodes[v], w);
                }
            }
            b.build()
        })
    })
}

/// Dense all-pairs distances by Floyd–Warshall, as the oracle.
fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for i in 0..n {
        d[i][i] = 0.0;
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let w = g.weight(e);
        if w < d[u.index()][v.index()] {
            d[u.index()][v.index()] = w;
            d[v.index()][u.index()] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let alt = d[i][k] + d[k][j];
                if alt < d[i][j] {
                    d[i][j] = alt;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dijkstra_matches_floyd_warshall(g in graphs()) {
        let oracle = floyd_warshall(&g);
        for s in g.nodes() {
            let tree = dijkstra::shortest_path_tree(&g, s).unwrap();
            for t in g.nodes() {
                let want = oracle[s.index()][t.index()];
                match tree.distance(t) {
                    Some(d) => prop_assert!((d - want).abs() < 1e-9,
                        "{s}->{t}: dijkstra {d} vs fw {want}"),
                    None => prop_assert!(want.is_infinite()),
                }
            }
        }
    }

    #[test]
    fn shortest_path_is_valid_and_tight(g in graphs()) {
        let oracle = floyd_warshall(&g);
        let s = NodeId(0);
        for t in g.nodes() {
            if oracle[0][t.index()].is_finite() {
                let p = dijkstra::shortest_path(&g, s, t).unwrap();
                prop_assert_eq!(p.source(), s);
                prop_assert_eq!(p.target(), t);
                prop_assert!((p.cost(&g) - oracle[0][t.index()]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ksp_sorted_simple_distinct(g in graphs(), k in 1usize..=5) {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let (s, t) = (nodes[0], nodes[nodes.len() - 1]);
        let paths = ksp::k_shortest_paths(&g, s, t, k).unwrap();
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].cost(&g) <= w[1].cost(&g) + 1e-9, "sorted by cost");
            prop_assert!(w[0] != w[1], "distinct");
        }
        for p in &paths {
            prop_assert!(p.is_simple());
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
        }
        // First path must be a shortest path.
        if let Some(first) = paths.first() {
            let d = dijkstra::distance(&g, s, t).unwrap();
            prop_assert!((first.cost(&g) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn bfs_reachability_consistent_with_dijkstra(g in graphs()) {
        let s = NodeId(0);
        let mask = bfs::reachable_mask(&g, s).unwrap();
        let tree = dijkstra::shortest_path_tree(&g, s).unwrap();
        for v in g.nodes() {
            prop_assert_eq!(mask[v.index()], tree.distance(v).is_some());
        }
    }
}
