//! Minimum-cost flow by successive shortest paths with node potentials.
//!
//! The first potential vector comes from a Bellman–Ford pass (costs may be
//! negative in general networks); afterwards every augmentation uses
//! Dijkstra on reduced costs, which are non-negative by induction. This is
//! the polynomial workhorse behind the paper's Section 5.4: *"it is worthy
//! to note that this problem can be expressed as a minimum cost flow problem
//! for which efficient polynomial time algorithms are available without the
//! need of linear programming anymore."*

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::network::FlowNetwork;
use crate::{NodeRef, FLOW_EPS};

/// Outcome of a min-cost flow computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Units actually routed (≤ the request when the network saturates).
    pub flow: f64,
    /// Total cost `Σ flow(a) · cost(a)` of the routed flow.
    pub cost: f64,
}

/// Routes up to `demand` units from `source` to `sink` at minimum cost,
/// in place. Returns the routed amount and its cost.
///
/// The routed amount is `min(demand, max-flow)`; callers needing an exact
/// demand should compare [`FlowResult::flow`] against it.
///
/// # Panics
///
/// Panics when `demand` is negative or NaN, or on out-of-range nodes.
pub fn min_cost_flow(
    net: &mut FlowNetwork,
    source: NodeRef,
    sink: NodeRef,
    demand: f64,
) -> FlowResult {
    assert!(
        !demand.is_nan() && demand >= 0.0,
        "demand must be non-negative"
    );
    assert!(source.index() < net.node_count(), "source out of range");
    assert!(sink.index() < net.node_count(), "sink out of range");
    let n = net.node_count();
    let mut routed = 0.0f64;
    let mut cost = 0.0f64;
    if demand <= FLOW_EPS || source == sink {
        return FlowResult {
            flow: 0.0,
            cost: 0.0,
        };
    }

    // Initial potentials via Bellman–Ford over residual arcs (handles
    // negative arc costs; all-zero when costs are non-negative would also
    // work but this is uniform).
    let mut pot = vec![0.0f64; n];
    for _ in 0..n {
        let mut any = false;
        for u in 0..n {
            for &ai in &net.adj[u] {
                let a = &net.arcs[ai as usize];
                if a.cap > FLOW_EPS && pot[u] + a.cost < pot[a.to as usize] - 1e-12 {
                    pot[a.to as usize] = pot[u] + a.cost;
                    any = true;
                }
            }
        }
        if !any {
            break;
        }
    }

    #[derive(PartialEq)]
    struct Entry {
        d: f64,
        u: u32,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> Ordering {
            o.d.partial_cmp(&self.d)
                .unwrap_or(Ordering::Equal)
                .then_with(|| o.u.cmp(&self.u))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }

    while routed < demand - FLOW_EPS {
        // Dijkstra with reduced costs.
        let mut dist = vec![f64::INFINITY; n];
        let mut pred: Vec<Option<u32>> = vec![None; n]; // arc used to reach
        let mut done = vec![false; n];
        dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            d: 0.0,
            u: source.0,
        });
        while let Some(Entry { d, u }) = heap.pop() {
            if done[u as usize] {
                continue;
            }
            done[u as usize] = true;
            for &ai in &net.adj[u as usize] {
                let a = &net.arcs[ai as usize];
                if a.cap <= FLOW_EPS || done[a.to as usize] {
                    continue;
                }
                let rc = a.cost + pot[u as usize] - pot[a.to as usize];
                let nd = d + rc.max(0.0); // clamp tiny negatives from fp noise
                if nd < dist[a.to as usize] - 1e-12 {
                    dist[a.to as usize] = nd;
                    pred[a.to as usize] = Some(ai);
                    heap.push(Entry { d: nd, u: a.to });
                }
            }
        }

        if !dist[sink.index()].is_finite() {
            break; // saturated
        }

        // Update potentials.
        for u in 0..n {
            if dist[u].is_finite() {
                pot[u] += dist[u];
            }
        }

        // Bottleneck along the augmenting path.
        let mut push = demand - routed;
        let mut v = sink.0;
        while v != source.0 {
            let ai = pred[v as usize].expect("path exists");
            push = push.min(net.arcs[ai as usize].cap);
            v = net.arcs[(ai ^ 1) as usize].to;
        }
        debug_assert!(push > FLOW_EPS);

        // Apply.
        let mut v = sink.0;
        while v != source.0 {
            let ai = pred[v as usize].expect("path exists");
            if net.arcs[ai as usize].cap.is_finite() {
                net.arcs[ai as usize].cap -= push;
            }
            net.arcs[(ai ^ 1) as usize].cap += push;
            cost += push * net.arcs[ai as usize].cost;
            v = net.arcs[(ai ^ 1) as usize].to;
        }
        routed += push;
    }

    FlowResult { flow: routed, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;

    fn n(i: u32) -> NodeRef {
        NodeRef(i)
    }

    #[test]
    fn prefers_cheap_path() {
        // Two parallel routes: cost 1 with cap 3, cost 5 with cap 10.
        let mut net = FlowNetwork::new(2);
        net.add_arc(n(0), n(1), 3.0, 1.0);
        net.add_arc(n(0), n(1), 10.0, 5.0);
        let r = min_cost_flow(&mut net, n(0), n(1), 5.0);
        assert_eq!(r.flow, 5.0);
        assert_eq!(r.cost, 3.0 * 1.0 + 2.0 * 5.0);
    }

    #[test]
    fn partial_when_saturated() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(n(0), n(1), 2.0, 1.0);
        let r = min_cost_flow(&mut net, n(0), n(1), 10.0);
        assert_eq!(r.flow, 2.0);
        assert_eq!(r.cost, 2.0);
    }

    #[test]
    fn zero_demand() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(n(0), n(1), 2.0, 1.0);
        let r = min_cost_flow(&mut net, n(0), n(1), 0.0);
        assert_eq!(
            r,
            FlowResult {
                flow: 0.0,
                cost: 0.0
            }
        );
    }

    #[test]
    fn classic_mcmf() {
        // s->1 cap 2 cost 1; s->2 cap 2 cost 2; 1->t cap 2 cost 2;
        // 2->t cap 2 cost 1; 1->2 cap 1 cost 0.
        // Best 3 units: s->1->t (2 @3)? Let's check: unit costs:
        // s1t = 3, s2t = 3, s1->2->t = 2. Route 1 via s1-12-2t = 2,
        // then s1t has cap 1 left (s->1 cap 2, one used) cost 3,
        // and s2t cost 3 cap 2.
        // For 3 units: 1 @2 + 2 @3 = 8.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (n(0), n(1), n(2), n(3));
        net.add_arc(s, a, 2.0, 1.0);
        net.add_arc(s, b, 2.0, 2.0);
        net.add_arc(a, t, 2.0, 2.0);
        net.add_arc(b, t, 2.0, 1.0);
        net.add_arc(a, b, 1.0, 0.0);
        let r = min_cost_flow(&mut net, s, t, 3.0);
        assert_eq!(r.flow, 3.0);
        assert!((r.cost - 8.0).abs() < 1e-9, "cost = {}", r.cost);
        net.check_conservation(s, t).unwrap();
    }

    #[test]
    fn negative_costs_handled() {
        // A negative-cost arc must be preferred.
        let mut net = FlowNetwork::new(3);
        net.add_arc(n(0), n(1), 1.0, -2.0);
        net.add_arc(n(1), n(2), 1.0, 1.0);
        net.add_arc(n(0), n(2), 1.0, 0.5);
        let r = min_cost_flow(&mut net, n(0), n(2), 2.0);
        assert_eq!(r.flow, 2.0);
        assert!((r.cost - (-1.0 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn infinite_capacity_arcs() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(n(0), n(1), f64::INFINITY, 1.0);
        net.add_arc(n(1), n(2), 5.0, 0.0);
        let r = min_cost_flow(&mut net, n(0), n(2), 4.0);
        assert_eq!(r.flow, 4.0);
        assert_eq!(r.cost, 4.0);
    }

    #[test]
    fn flow_matches_network_accounting() {
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (n(0), n(1), n(2), n(3));
        net.add_arc(s, a, 5.0, 1.0);
        net.add_arc(a, b, 5.0, 1.0);
        net.add_arc(b, t, 5.0, 1.0);
        let r = min_cost_flow(&mut net, s, t, 2.5);
        assert_eq!(r.flow, 2.5);
        assert!((net.flow_cost() - r.cost).abs() < 1e-9);
        assert!((net.check_conservation(s, t).unwrap() - 2.5).abs() < 1e-9);
    }
}
