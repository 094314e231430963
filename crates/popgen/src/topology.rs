//! Two-level POP topology generation (paper Section 2, Figure 2).

use netgraph::{bfs, Graph, GraphBuilder, NodeId};

/// Role of a node inside a generated POP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Core router attached to inter-POP links.
    Backbone,
    /// Intermediate router between customers and the backbone.
    Access,
    /// Virtual node standing for a customer network attached below an
    /// access router. Sources/sinks traffic; not a router of the POP.
    Customer,
    /// Virtual node standing for a peering link / another ISP, attached to
    /// a backbone router. Sources/sinks traffic; not a router of the POP.
    Peer,
}

/// Parameters of the POP generator.
///
/// The construction is deterministic given the spec (randomness only enters
/// through the traffic generator): backbone routers form a ring plus
/// `chords` shortcut links; the first `dual_homed` access routers connect
/// to two consecutive backbone routers and the rest to one; customer
/// endpoints are spread round-robin below the access routers and peer
/// endpoints round-robin on the backbone.
#[derive(Debug, Clone)]
pub struct PopSpec {
    /// Number of backbone routers (≥ 1).
    pub backbone: usize,
    /// Number of access routers.
    pub access: usize,
    /// Number of shortcut links added across the backbone ring
    /// (`bb_i — bb_{i + ⌊B/2⌋}` for `i = 0..chords`).
    pub chords: usize,
    /// How many access routers get two backbone uplinks (the rest get one).
    pub dual_homed: usize,
    /// Total number of virtual customer endpoints (below access routers).
    pub customers: usize,
    /// Total number of virtual peer endpoints (on backbone routers).
    pub peers: usize,
}

impl PopSpec {
    /// A deliberately small POP (5 routers, 12 links, 30 traffics) for
    /// tests and for the fixed-charge `PPME` MILP, whose loose LP bound
    /// makes 27-binary instances expensive to *prove* optimal.
    pub fn small() -> Self {
        Self {
            backbone: 2,
            access: 3,
            chords: 0,
            dual_homed: 2,
            customers: 5,
            peers: 1,
        }
    }

    /// The paper's 10-router POP: 10 routers, 27 links, 12 traffic
    /// endpoints hence `12 × 11 = 132` traffics (Figure 7).
    pub fn paper_10() -> Self {
        Self {
            backbone: 3,
            access: 7,
            chords: 0,
            dual_homed: 5,
            customers: 10,
            peers: 2,
        }
    }

    /// The paper's 15-router POP: 15 routers, 71 links, 45 traffic
    /// endpoints hence `45 × 44 = 1980` traffics (Figure 8).
    pub fn paper_15() -> Self {
        Self {
            backbone: 5,
            access: 10,
            chords: 1,
            dual_homed: 10,
            customers: 40,
            peers: 5,
        }
    }

    /// A 29-router POP for the active-monitoring experiment of Figure 10
    /// (the paper does not report its link count).
    pub fn paper_29() -> Self {
        Self {
            backbone: 7,
            access: 22,
            chords: 3,
            dual_homed: 15,
            customers: 30,
            peers: 5,
        }
    }

    /// An 80-router POP for the active-monitoring experiment of Figure 11.
    pub fn paper_80() -> Self {
        Self {
            backbone: 16,
            access: 64,
            chords: 8,
            dual_homed: 40,
            customers: 60,
            peers: 10,
        }
    }

    /// A 20-router POP between the paper's Figure 8 instance and the
    /// 29-router active-monitoring POP: the first rung of the ROADMAP's
    /// 20–25+ router ladder for the exact passive solvers.
    pub fn scale_20() -> Self {
        Self {
            backbone: 6,
            access: 14,
            chords: 2,
            dual_homed: 10,
            customers: 44,
            peers: 6,
        }
    }

    /// A 25-router POP — the second rung of the 20–25+ router ladder;
    /// 56 traffic endpoints hence `56 × 55 = 3080` traffics, half again
    /// past the Figure 8 scale.
    pub fn scale_25() -> Self {
        Self {
            backbone: 7,
            access: 18,
            chords: 3,
            dual_homed: 12,
            customers: 50,
            peers: 6,
        }
    }

    /// A 50-router POP — the third rung of the scaling ladder, double the
    /// `scale_25` rung: 66 traffic endpoints hence `66 × 65 = 4290`
    /// traffics. Prices the enriched MIP search (cuts + reliability
    /// branching + parallel node pool) past the paper's own instances.
    pub fn scale_50() -> Self {
        Self {
            backbone: 12,
            access: 38,
            chords: 5,
            dual_homed: 24,
            customers: 58,
            peers: 8,
        }
    }

    /// A 100-router POP — the fourth rung, between `scale_50` and the
    /// paper's closing 150-router claim (the exact solve is
    /// minutes-scale); `PopSpec::large_150` remains the generation-only
    /// end point.
    pub fn scale_100() -> Self {
        Self {
            backbone: 18,
            access: 82,
            chords: 9,
            dual_homed: 52,
            customers: 72,
            peers: 12,
        }
    }

    /// A 150-router POP — the paper's Section 7 closes with "we are also
    /// currently testing our solution on larger POPs, with at least 150
    /// routers"; this preset backs the `xp_scale_150` experiment.
    pub fn large_150() -> Self {
        Self {
            backbone: 25,
            access: 125,
            chords: 12,
            dual_homed: 80,
            customers: 90,
            peers: 15,
        }
    }

    /// Total number of routers (backbone + access).
    pub fn router_count(&self) -> usize {
        self.backbone + self.access
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics when `backbone == 0`, or when `dual_homed > access`, or when
    /// `access > 0` is required (customers need access routers).
    pub fn build(&self) -> Pop {
        assert!(self.backbone >= 1, "need at least one backbone router");
        assert!(
            self.dual_homed <= self.access,
            "dual_homed exceeds access count"
        );
        assert!(
            self.customers == 0 || self.access > 0,
            "customers need access routers"
        );

        let mut b = GraphBuilder::new();
        let mut roles = Vec::new();

        let bb: Vec<NodeId> = (0..self.backbone)
            .map(|i| {
                roles.push(NodeRole::Backbone);
                b.add_node(format!("bb{i}"))
            })
            .collect();
        let ac: Vec<NodeId> = (0..self.access)
            .map(|i| {
                roles.push(NodeRole::Access);
                b.add_node(format!("ac{i}"))
            })
            .collect();

        // Backbone ring (degenerates gracefully for 1 or 2 routers).
        match self.backbone {
            0 | 1 => {}
            2 => {
                b.add_edge(bb[0], bb[1], 1.0);
            }
            n => {
                for i in 0..n {
                    b.add_edge(bb[i], bb[(i + 1) % n], 1.0);
                }
            }
        }
        // Chords across the ring.
        if self.backbone >= 4 {
            let half = self.backbone / 2;
            for i in 0..self.chords.min(self.backbone) {
                let u = bb[i % self.backbone];
                let v = bb[(i + half) % self.backbone];
                if u != v {
                    b.add_edge(u, v, 1.0);
                }
            }
        }

        // Access uplinks: primary is round-robin; dual-homed routers also
        // connect to the next backbone router.
        for (i, &a) in ac.iter().enumerate() {
            let primary = bb[i % self.backbone];
            b.add_edge(a, primary, 1.0);
            if i < self.dual_homed && self.backbone >= 2 {
                let secondary = bb[(i + 1) % self.backbone];
                b.add_edge(a, secondary, 1.0);
            }
        }

        // Virtual endpoints.
        let mut endpoints = Vec::new();
        for i in 0..self.customers {
            roles.push(NodeRole::Customer);
            let c = b.add_node(format!("cust{i}"));
            b.add_edge(c, ac[i % self.access], 1.0);
            endpoints.push(c);
        }
        for i in 0..self.peers {
            roles.push(NodeRole::Peer);
            let p = b.add_node(format!("peer{i}"));
            b.add_edge(p, bb[i % self.backbone], 1.0);
            endpoints.push(p);
        }

        let graph = b.build();
        debug_assert!(bfs::is_connected(&graph), "generated POP must be connected");
        Pop {
            graph,
            roles,
            backbone: bb,
            access: ac,
            endpoints,
        }
    }
}

/// A generated POP: the graph plus role annotations and structured node
/// lists.
#[derive(Debug, Clone)]
pub struct Pop {
    /// The underlying undirected graph (routers + virtual endpoints).
    pub graph: Graph,
    /// Role per node, indexed by [`NodeId::index`].
    pub roles: Vec<NodeRole>,
    /// Backbone routers.
    pub backbone: Vec<NodeId>,
    /// Access routers.
    pub access: Vec<NodeId>,
    /// Virtual traffic endpoints (customers then peers).
    pub endpoints: Vec<NodeId>,
}

impl Pop {
    /// All routers (backbone + access) — the candidate beacon locations of
    /// the active-monitoring problem.
    pub fn routers(&self) -> Vec<NodeId> {
        self.backbone
            .iter()
            .chain(self.access.iter())
            .copied()
            .collect()
    }

    /// Role of a node.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// `true` when the node is a router (not a virtual endpoint).
    pub fn is_router(&self, node: NodeId) -> bool {
        matches!(self.role(node), NodeRole::Backbone | NodeRole::Access)
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.backbone.len() + self.access.len()
    }

    /// The router-only subgraph (virtual endpoints stripped), used by the
    /// active-monitoring experiments where probes travel between routers.
    ///
    /// Returns the subgraph plus the mapping `new node → old node`.
    pub fn router_subgraph(&self) -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let mut old_of_new = Vec::new();
        let mut new_of_old = vec![None; self.graph.node_count()];
        for v in self.graph.nodes() {
            if self.is_router(v) {
                let nv = b.add_node(self.graph.label(v));
                new_of_old[v.index()] = Some(nv);
                old_of_new.push(v);
            }
        }
        for e in self.graph.edges() {
            let (u, v) = self.graph.endpoints(e);
            if let (Some(nu), Some(nv)) = (new_of_old[u.index()], new_of_old[v.index()]) {
                b.add_edge(nu, nv, self.graph.weight(e));
            }
        }
        (b.build(), old_of_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_10_matches_figure_7_instance() {
        let spec = PopSpec::paper_10();
        let pop = spec.build();
        assert_eq!(pop.router_count(), 10, "10 routers");
        assert_eq!(pop.graph.edge_count(), 27, "27 links");
        let eps = pop.endpoints.len();
        assert_eq!(eps * (eps - 1), 132, "132 traffics");
    }

    #[test]
    fn paper_15_matches_figure_8_instance() {
        let spec = PopSpec::paper_15();
        let pop = spec.build();
        assert_eq!(pop.router_count(), 15, "15 routers");
        assert_eq!(pop.graph.edge_count(), 71, "71 links");
        let eps = pop.endpoints.len();
        assert_eq!(eps * (eps - 1), 1980, "1980 traffics");
    }

    #[test]
    fn paper_29_and_80_have_right_router_counts() {
        assert_eq!(PopSpec::paper_29().build().router_count(), 29);
        assert_eq!(PopSpec::paper_80().build().router_count(), 80);
    }

    #[test]
    fn scale_ladder_router_counts_and_traffic_growth() {
        assert_eq!(PopSpec::scale_20().build().router_count(), 20);
        assert_eq!(PopSpec::scale_25().build().router_count(), 25);
        let p50 = PopSpec::scale_50().build();
        assert_eq!(p50.router_count(), 50);
        let eps50 = p50.endpoints.len();
        assert_eq!(eps50 * (eps50 - 1), 4290, "4290 traffics at rung 50");
        let p100 = PopSpec::scale_100().build();
        assert_eq!(p100.router_count(), 100);
        // Strictly growing endpoint counts keep the ladder meaningful.
        assert!(p100.endpoints.len() > eps50);
    }

    #[test]
    fn generated_pops_are_connected() {
        for spec in [
            PopSpec::paper_10(),
            PopSpec::paper_15(),
            PopSpec::paper_29(),
            PopSpec::paper_80(),
            PopSpec::scale_50(),
            PopSpec::scale_100(),
        ] {
            assert!(netgraph::bfs::is_connected(&spec.build().graph));
        }
    }

    #[test]
    fn roles_are_consistent() {
        let pop = PopSpec::paper_10().build();
        for v in pop.graph.nodes() {
            match pop.role(v) {
                NodeRole::Backbone => assert!(pop.backbone.contains(&v)),
                NodeRole::Access => assert!(pop.access.contains(&v)),
                NodeRole::Customer | NodeRole::Peer => assert!(pop.endpoints.contains(&v)),
            }
        }
    }

    #[test]
    fn endpoints_have_degree_one() {
        let pop = PopSpec::paper_15().build();
        for &e in &pop.endpoints {
            assert_eq!(
                pop.graph.degree(e),
                1,
                "virtual endpoints hang off one link"
            );
        }
    }

    #[test]
    fn router_subgraph_strips_endpoints() {
        let pop = PopSpec::paper_10().build();
        let (sub, map) = pop.router_subgraph();
        assert_eq!(sub.node_count(), 10);
        assert_eq!(map.len(), 10);
        // 27 total - 12 endpoint links = 15 router links.
        assert_eq!(sub.edge_count(), 15);
        assert!(netgraph::bfs::is_connected(&sub));
        for (new_idx, &old) in map.iter().enumerate() {
            assert_eq!(
                sub.label(netgraph::NodeId(new_idx as u32)),
                pop.graph.label(old)
            );
        }
    }

    #[test]
    fn tiny_pop_edge_cases() {
        let spec = PopSpec {
            backbone: 1,
            access: 1,
            chords: 0,
            dual_homed: 0,
            customers: 2,
            peers: 1,
        };
        let pop = spec.build();
        assert_eq!(pop.router_count(), 2);
        assert!(netgraph::bfs::is_connected(&pop.graph));

        let two_bb = PopSpec {
            backbone: 2,
            access: 0,
            chords: 0,
            dual_homed: 0,
            customers: 0,
            peers: 2,
        };
        let pop2 = two_bb.build();
        assert_eq!(pop2.graph.edge_count(), 3); // bb link + 2 peer links
    }

    #[test]
    #[should_panic(expected = "dual_homed exceeds access")]
    fn invalid_spec_panics() {
        PopSpec {
            backbone: 2,
            access: 1,
            chords: 0,
            dual_homed: 3,
            customers: 0,
            peers: 0,
        }
        .build();
    }
}
