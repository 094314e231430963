use crate::FLOW_EPS;

/// Index of a node in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef(pub u32);

/// Index of a *forward* arc in a [`FlowNetwork`] (as returned by
/// [`FlowNetwork::add_arc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub u32);

impl NodeRef {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ArcId {
    /// Dense index of this arc among forward arcs.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Internal arc storage. Arcs come in (forward, reverse) pairs at positions
/// `2i` and `2i + 1`; `arc ^ 1` is the residual twin.
#[derive(Debug, Clone)]
pub(crate) struct RawArc {
    pub to: u32,
    /// Remaining residual capacity.
    pub cap: f64,
    /// Per-unit cost (negated on the reverse arc).
    pub cost: f64,
}

/// A directed flow network with real-valued capacities and linear costs.
///
/// Capacities may be [`f64::INFINITY`] (the paper's auxiliary graph uses
/// unbounded arcs everywhere except the `(w_t, T)` volume caps).
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    pub(crate) arcs: Vec<RawArc>,
    /// Out-arc indices (into `arcs`) per node — includes reverse arcs.
    pub(crate) adj: Vec<Vec<u32>>,
    /// Original capacity of each forward arc (for flow reconstruction).
    pub(crate) orig_cap: Vec<f64>,
}

impl FlowNetwork {
    /// Creates a network with `nodes` isolated nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            arcs: Vec::new(),
            adj: vec![Vec::new(); nodes],
            orig_cap: Vec::new(),
        }
    }

    /// Adds one more node, returning its reference.
    pub fn add_node(&mut self) -> NodeRef {
        self.adj.push(Vec::new());
        NodeRef(self.adj.len() as u32 - 1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of forward arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len() / 2
    }

    /// Adds a directed arc `from → to` with the given capacity (may be
    /// `f64::INFINITY`) and per-unit cost, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes, negative/NaN capacity, or non-finite
    /// cost.
    pub fn add_arc(&mut self, from: NodeRef, to: NodeRef, cap: f64, cost: f64) -> ArcId {
        assert!(from.index() < self.adj.len(), "from node out of range");
        assert!(to.index() < self.adj.len(), "to node out of range");
        assert!(
            !cap.is_nan() && cap >= 0.0,
            "capacity must be non-negative, got {cap}"
        );
        assert!(cost.is_finite(), "cost must be finite, got {cost}");
        let fwd = self.arcs.len() as u32;
        self.arcs.push(RawArc {
            to: to.0,
            cap,
            cost,
        });
        self.arcs.push(RawArc {
            to: from.0,
            cap: 0.0,
            cost: -cost,
        });
        self.adj[from.index()].push(fwd);
        self.adj[to.index()].push(fwd + 1);
        self.orig_cap.push(cap);
        ArcId(fwd / 2)
    }

    /// Flow currently on forward arc `arc` (original capacity minus residual).
    ///
    /// Infinite-capacity arcs report the reverse arc's residual, which
    /// equals the pushed flow.
    pub fn flow(&self, arc: ArcId) -> f64 {
        let fwd = arc.index() * 2;
        let pushed = self.arcs[fwd + 1].cap;
        if pushed.abs() < FLOW_EPS {
            0.0
        } else {
            pushed
        }
    }

    /// Endpoints `(from, to)` of forward arc `arc`.
    pub fn arc_endpoints(&self, arc: ArcId) -> (NodeRef, NodeRef) {
        let fwd = arc.index() * 2;
        (NodeRef(self.arcs[fwd + 1].to), NodeRef(self.arcs[fwd].to))
    }

    /// Original capacity of forward arc `arc`.
    pub fn arc_capacity(&self, arc: ArcId) -> f64 {
        self.orig_cap[arc.index()]
    }

    /// Total cost of the current flow: `Σ flow(a) · cost(a)`.
    pub fn flow_cost(&self) -> f64 {
        (0..self.arc_count())
            .map(|i| self.flow(ArcId(i as u32)) * self.arcs[2 * i].cost)
            .sum()
    }

    /// Checks flow conservation at every node except `source` and `sink`;
    /// returns the net outflow at `source` (= net inflow at `sink`).
    pub fn check_conservation(&self, source: NodeRef, sink: NodeRef) -> Result<f64, String> {
        let n = self.node_count();
        let mut net = vec![0.0f64; n];
        for i in 0..self.arc_count() {
            let f = self.flow(ArcId(i as u32));
            let (u, v) = self.arc_endpoints(ArcId(i as u32));
            net[u.index()] -= f;
            net[v.index()] += f;
        }
        for (i, &b) in net.iter().enumerate() {
            if i != source.index() && i != sink.index() && b.abs() > 1e-6 {
                return Err(format!("conservation violated at node {i}: net {b}"));
            }
        }
        if (net[source.index()] + net[sink.index()]).abs() > 1e-6 {
            return Err(format!(
                "source/sink imbalance: {} vs {}",
                net[source.index()],
                net[sink.index()]
            ));
        }
        Ok(-net[source.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_bookkeeping() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(NodeRef(0), NodeRef(1), 5.0, 2.0);
        assert_eq!(net.arc_count(), 1);
        assert_eq!(net.arc_endpoints(a), (NodeRef(0), NodeRef(1)));
        assert_eq!(net.arc_capacity(a), 5.0);
        assert_eq!(net.flow(a), 0.0);
    }

    #[test]
    fn add_node_extends() {
        let mut net = FlowNetwork::new(1);
        let n = net.add_node();
        assert_eq!(n, NodeRef(1));
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn rejects_negative_capacity() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(NodeRef(0), NodeRef(1), -1.0, 0.0);
    }

    #[test]
    fn infinite_capacity_allowed() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(NodeRef(0), NodeRef(1), f64::INFINITY, 1.0);
        assert_eq!(net.arc_capacity(a), f64::INFINITY);
    }
}
