//! The Minimum Edge Cost Flow (MECF) auxiliary graph of the paper's
//! Section 4.3 (Figure 5).
//!
//! Construction (Theorem 2): given edges `E = 0..num_edges` and weighted
//! traffics `D`, each a volume plus the edges its path traverses,
//!
//! 1. one node `w_e` per edge `e ∈ E`, one node `w_t` per traffic `t ∈ D`,
//!    plus a source `S` and sink `T`;
//! 2. arcs `(S, w_e)` of unbounded capacity — these are the *fixed-charge*
//!    arcs whose binary cost encodes installing a device on `e`;
//! 3. arcs `(w_e, w_t)` of unbounded capacity and zero cost whenever the
//!    path of traffic `t` uses edge `e`;
//! 4. arcs `(w_t, T)` of capacity `v_t` (the traffic volume) and zero cost.
//!
//! Routing `k · Σ v_t` units from `S` to `T` while paying for each used
//! `(S, w_e)` arc solves `PPM(k)`. The graph takes any per-unit cost on
//! the `(S, w_e)` arcs; the `placement` crate solves the fixed-charge
//! objective and the paper's flow greedy (cost `1/load(e)`) on top of it.
//! Traffics are plain index lists, so this crate depends on no graph or
//! traffic crate.

use crate::network::FlowNetwork;
use crate::{ArcId, NodeRef};

/// The built auxiliary graph with handles onto its structured arcs.
#[derive(Debug, Clone)]
pub struct MecfGraph {
    /// The underlying flow network.
    pub net: FlowNetwork,
    /// Source `S`.
    pub source: NodeRef,
    /// Sink `T`.
    pub sink: NodeRef,
    /// `(S, w_e)` arc per edge — flow here means "monitored on e".
    pub edge_arcs: Vec<ArcId>,
    /// `(w_t, T)` arc per traffic — flow here means "volume of t monitored".
    pub traffic_arcs: Vec<ArcId>,
}

/// Builds the auxiliary graph of `num_edges` edges and the `(volume,
/// edges traversed)` traffics, with the given per-unit cost on each
/// `(S, w_e)` arc (zero cost everywhere else, per the paper). Edge lists
/// must be duplicate-free.
pub fn build_mecf(
    num_edges: usize,
    traffics: &[(f64, Vec<usize>)],
    edge_cost: &[f64],
) -> MecfGraph {
    assert_eq!(edge_cost.len(), num_edges, "one cost per edge required");
    let ne = num_edges;
    let nt = traffics.len();
    // Layout: 0 = S, 1 = T, 2..2+ne = w_e, 2+ne.. = w_t.
    let mut net = FlowNetwork::new(2 + ne + nt);
    let source = NodeRef(0);
    let sink = NodeRef(1);
    let we = |e: usize| NodeRef((2 + e) as u32);
    let wt = |t: usize| NodeRef((2 + ne + t) as u32);

    let edge_arcs: Vec<ArcId> = (0..ne)
        .map(|e| net.add_arc(source, we(e), f64::INFINITY, edge_cost[e]))
        .collect();
    let mut traffic_arcs = Vec::with_capacity(nt);
    for (t, (v, edges)) in traffics.iter().enumerate() {
        for &e in edges {
            assert!(e < ne, "traffic {t} references edge {e} out of range");
            net.add_arc(we(e), wt(t), f64::INFINITY, 0.0);
        }
        traffic_arcs.push(net.add_arc(wt(t), sink, *v, 0.0));
    }

    MecfGraph {
        net,
        source,
        sink,
        edge_arcs,
        traffic_arcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 counter-example: four traffics, two of weight 2
    /// sharing a heavy link of load 4, and two side links of load 3 that
    /// together cover everything.
    ///
    /// Edges: 0 = heavy (t0, t1), 1 = left (t0, t2), 2 = right (t1, t3),
    /// 3, 4 = light tails (t2), (t3).
    fn figure3_like() -> Vec<(f64, Vec<usize>)> {
        vec![
            (2.0, vec![0, 1]),
            (2.0, vec![0, 2]),
            (1.0, vec![1, 3]),
            (1.0, vec![2, 4]),
        ]
    }

    #[test]
    fn mecf_graph_shape() {
        let g = build_mecf(5, &figure3_like(), &[1.0; 5]);
        assert_eq!(g.net.node_count(), 2 + 5 + 4);
        // 5 edge arcs + 8 incidence arcs + 4 traffic arcs.
        assert_eq!(g.net.arc_count(), 5 + 8 + 4);
        assert_eq!(g.edge_arcs.len(), 5);
        assert_eq!(g.traffic_arcs.len(), 4);
        // (w_t, T) capacities carry the volumes.
        assert_eq!(g.net.arc_capacity(g.traffic_arcs[0]), 2.0);
        assert_eq!(g.net.arc_capacity(g.traffic_arcs[2]), 1.0);
    }

    #[test]
    fn zero_k_selects_nothing() {
        // PPM(0) routes `0 · Σ v_t` units, so no (S, w_e) arc carries flow
        // and no device is selected.
        let inst = figure3_like();
        let loads = [4.0, 3.0, 3.0, 1.0, 1.0];
        let costs: Vec<f64> = loads.iter().map(|l| 1.0 / l).collect();
        let mut g = build_mecf(5, &inst, &costs);
        let (k, total): (f64, f64) = (0.0, inst.iter().map(|(v, _)| v).sum());
        let r = crate::mincost::min_cost_flow(&mut g.net, g.source, g.sink, k * total);
        assert_eq!(r.flow, 0.0);
        assert!(g.edge_arcs.iter().all(|&a| g.net.flow(a) == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge_reference() {
        build_mecf(1, &[(1.0, vec![3])], &[1.0]);
    }
}
