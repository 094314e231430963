//! The paper's exact beacon program (Section 6.1) against an independent
//! oracle. On random connected graphs with random candidate sets,
//! `place_beacons_ilp` must prove a beacon count equal to the minimum
//! vertex cover of the probe graph restricted to the candidates, found by
//! enumerating candidate subsets — code that shares nothing with `milp`.

use netgraph::{Graph, GraphBuilder, NodeId};
use placement::active::{compute_probes, place_beacons_ilp, ProbeSet};
use proptest::prelude::*;

/// A random connected graph on `n` nodes plus a candidate mask.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    /// Node `i + 1` hangs off node `parents[i] % (i + 1)`: a spanning tree.
    parents: Vec<usize>,
    /// Extra links `(u, v)`; self-loops and repeats are skipped.
    extra: Vec<(usize, usize)>,
    /// Bit `i` set = node `i` is a candidate beacon (about 3 in 4 are).
    mask: u32,
}

fn cases() -> impl Strategy<Value = Case> {
    (6usize..=14).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..1 << 16, n - 1),
            proptest::collection::vec((0..n, 0..n), 0..=2 * n),
            0u32..1 << n,
            0u32..1 << n,
        )
            .prop_map(move |(parents, extra, a, b)| Case {
                n,
                parents,
                extra,
                mask: a | b,
            })
    })
}

fn build(case: &Case) -> Graph {
    let mut b = GraphBuilder::new();
    let nodes = b.add_nodes("r", case.n);
    let mut links = Vec::new();
    for (i, &p) in case.parents.iter().enumerate() {
        links.push((p % (i + 1), i + 1));
    }
    for &(u, v) in &case.extra {
        links.push((u.min(v), u.max(v)));
    }
    let mut seen = Vec::new();
    for (u, v) in links {
        if u != v && !seen.contains(&(u, v)) {
            seen.push((u, v));
            b.add_edge(nodes[u], nodes[v], 1.0);
        }
    }
    b.build()
}

/// The fewest candidates touching every probe, by enumerating every
/// subset of `candidates`.
fn min_vertex_cover(probes: &ProbeSet, candidates: &[NodeId]) -> usize {
    let picked = |subset: u32, node: NodeId| {
        candidates
            .iter()
            .position(|&c| c == node)
            .is_some_and(|i| subset >> i & 1 == 1)
    };
    (0u32..1 << candidates.len())
        .filter(|&subset| {
            probes
                .probes
                .iter()
                .all(|p| picked(subset, p.u) || picked(subset, p.v))
        })
        .map(u32::count_ones)
        .min()
        .expect("all candidates cover every probe") as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn beacon_ilp_matches_subset_oracle(case in cases()) {
        let g = build(&case);
        let candidates: Vec<NodeId> =
            g.nodes().filter(|v| case.mask >> v.index() & 1 == 1).collect();
        let probes = compute_probes(&g, &candidates);
        let ilp = place_beacons_ilp(&g, &probes, &candidates);
        prop_assert!(ilp.proven_optimal, "{:?}", case);
        prop_assert!(ilp.covers(&probes), "{:?}", case);
        prop_assert_eq!(ilp.len(), min_vertex_cover(&probes, &candidates), "{:?}", case);
    }
}
