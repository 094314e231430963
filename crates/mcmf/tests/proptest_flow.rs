//! Property tests for the flow crate: min-cost flow at unlimited demand
//! routes the min cut on random networks (checked against a brute-force
//! cut enumeration), costs are consistent and monotone in the routed
//! volume, and conservation always holds.

use mcmf::mincost::min_cost_flow;
use mcmf::{FlowNetwork, NodeRef};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomNet {
    nodes: usize,
    arcs: Vec<(usize, usize, f64, f64)>, // (from, to, cap, cost)
}

fn networks() -> impl Strategy<Value = RandomNet> {
    (3usize..=7).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.5f64..8.0, 0.0f64..5.0), 2..=14)
            .prop_map(move |arcs| RandomNet { nodes: n, arcs })
    })
}

fn build(rn: &RandomNet) -> FlowNetwork {
    let mut net = FlowNetwork::new(rn.nodes);
    for &(u, v, cap, cost) in &rn.arcs {
        if u != v {
            net.add_arc(NodeRef(u as u32), NodeRef(v as u32), cap, cost);
        }
    }
    net
}

/// Brute-force min s-t cut over all node bipartitions.
fn brute_min_cut(rn: &RandomNet, s: usize, t: usize) -> f64 {
    let n = rn.nodes;
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        if mask >> s & 1 == 0 || mask >> t & 1 == 1 {
            continue; // s must be on the source side, t on the sink side
        }
        let mut cut = 0.0;
        for &(u, v, cap, _) in &rn.arcs {
            if u != v && mask >> u & 1 == 1 && mask >> v & 1 == 0 {
                cut += cap;
            }
        }
        best = best.min(cut);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mincost_flow_conserves_and_prices_consistently(rn in networks(), demand in 0.1f64..6.0) {
        let s = NodeRef(0);
        let t = NodeRef(rn.nodes as u32 - 1);
        let mut net = build(&rn);
        let r = min_cost_flow(&mut net, s, t, demand);
        prop_assert!(r.flow <= demand + 1e-9);
        let net_flow = net.check_conservation(s, t).unwrap();
        prop_assert!((net_flow - r.flow).abs() < 1e-6);
        prop_assert!((net.flow_cost() - r.cost).abs() < 1e-6);
        // Cost must be non-negative with non-negative arc costs.
        prop_assert!(r.cost >= -1e-9);
    }

    /// By max-flow = min-cut, a min-cost flow asked for unlimited demand
    /// routes exactly the brute-force min cut.
    #[test]
    fn mincost_never_exceeds_maxflow(rn in networks()) {
        let (s, t) = (0, rn.nodes - 1);
        let mut net = build(&rn);
        let r = min_cost_flow(&mut net, NodeRef(s as u32), NodeRef(t as u32), f64::MAX);
        let cut = brute_min_cut(&rn, s, t);
        prop_assert!((r.flow - cut).abs() < 1e-6, "min-cost max-flow {} vs cut {cut}", r.flow);
        net.check_conservation(NodeRef(s as u32), NodeRef(t as u32)).unwrap();
    }

    #[test]
    fn more_demand_never_cheaper(rn in networks()) {
        let s = NodeRef(0);
        let t = NodeRef(rn.nodes as u32 - 1);
        let mut net1 = build(&rn);
        let r1 = min_cost_flow(&mut net1, s, t, 1.0);
        let mut net2 = build(&rn);
        let r2 = min_cost_flow(&mut net2, s, t, 3.0);
        if (r2.flow - 3.0).abs() < 1e-9 && (r1.flow - 1.0).abs() < 1e-9 {
            prop_assert!(r2.cost >= r1.cost - 1e-9, "cost is monotone in routed volume");
        }
    }
}
