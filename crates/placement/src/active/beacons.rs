//! Beacon placement: given the probe set Φ, choose the fewest beacons such
//! that every probe has a beacon at one of its extremities (paper Section
//! 6.1).
//!
//! Three strategies, matching the three curves of Figures 9–11:
//!
//! * [`place_beacons_thiran`] — the heuristic of \[15\]: repeatedly pick an
//!   *arbitrary* useful candidate (here: smallest id, which is what an
//!   implementation without optimization effort does), remove the probes
//!   it can send, repeat;
//! * [`place_beacons_greedy`] — the paper's improved greedy: pick the
//!   candidate that can send the most remaining probes first;
//! * [`place_beacons_ilp`] — the paper's exact `0–1` program:
//!
//! ```text
//! minimize   Σ_i y_i
//! subject to y_i = 0                 ∀ i ∈ V \ V_B
//!            y_{ϕ_u} + y_{ϕ_v} ≥ 1   ∀ ϕ ∈ Φ
//!            y_i ∈ {0, 1}
//! ```

use milp::{Cmp, MipOptions, Model, Sense, SolveStatus, VarId, VarKind};
use netgraph::{Graph, NodeId};

use crate::active::probes::ProbeSet;
use crate::setcover::{greedy_set_cover, SetCoverInstance};

/// A beacon placement with provenance.
#[derive(Debug, Clone)]
pub struct BeaconPlacement {
    /// Selected beacon nodes, sorted by id.
    pub beacons: Vec<NodeId>,
    /// `true` for the ILP when branch-and-bound completed.
    pub proven_optimal: bool,
}

impl BeaconPlacement {
    fn new(mut beacons: Vec<NodeId>, proven: bool) -> Self {
        beacons.sort_unstable();
        beacons.dedup();
        Self {
            beacons,
            proven_optimal: proven,
        }
    }

    /// Number of beacons placed.
    pub fn len(&self) -> usize {
        self.beacons.len()
    }

    /// `true` when no beacon is needed (empty Φ).
    pub fn is_empty(&self) -> bool {
        self.beacons.is_empty()
    }

    /// Verifies that every probe of `probes` has an endpoint among the
    /// placed beacons.
    pub fn covers(&self, probes: &ProbeSet) -> bool {
        probes
            .probes
            .iter()
            .all(|p| self.beacons.contains(&p.u) || self.beacons.contains(&p.v))
    }
}

/// The arbitrary-pick heuristic of \[15\]: take the smallest-id candidate
/// that is an endpoint of at least one remaining probe, remove the probes
/// it can send, repeat.
pub fn place_beacons_thiran(probes: &ProbeSet, candidates: &[NodeId]) -> BeaconPlacement {
    let mut remaining: Vec<&crate::active::Probe> = probes.probes.iter().collect();
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    let mut beacons = Vec::new();
    while !remaining.is_empty() {
        let pick = sorted
            .iter()
            .copied()
            .find(|&c| remaining.iter().any(|p| p.u == c || p.v == c))
            .expect("probe endpoints are candidates");
        beacons.push(pick);
        remaining.retain(|p| p.u != pick && p.v != pick);
    }
    BeaconPlacement::new(beacons, false)
}

/// The paper's improved greedy: pick the candidate generating the most
/// remaining probes first ("we can select the beacon that will generate the
/// greatest number of probes first, then remove these probes from the set
/// of probes, and so on"). This is [`greedy_set_cover`] with one set per
/// candidate — the probes it is an endpoint of — so ties go to the
/// smaller node id.
///
/// # Panics
///
/// Panics when some probe has no candidate endpoint.
pub fn place_beacons_greedy(probes: &ProbeSet, candidates: &[NodeId]) -> BeaconPlacement {
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    let sets = sorted
        .iter()
        .map(|&c| {
            let sends = |i: &usize| probes.probes[*i].u == c || probes.probes[*i].v == c;
            (0..probes.len()).filter(sends).collect()
        })
        .collect();
    let cover = greedy_set_cover(&SetCoverInstance::unweighted(probes.len(), sets))
        .expect("probe endpoints are candidates");
    BeaconPlacement::new(cover.selection.iter().map(|&i| sorted[i]).collect(), false)
}

/// The exact ILP of Section 6.1 (a restricted minimum vertex cover over
/// the probe endpoints). `graph` provides the full vertex set `V` so the
/// forbidden-vertex constraints `y_i = 0, i ∈ V \ V_B` can be stated as in
/// the paper.
pub fn place_beacons_ilp(
    graph: &Graph,
    probes: &ProbeSet,
    candidates: &[NodeId],
) -> BeaconPlacement {
    let (m, ys) = beacon_model(graph, probes, candidates);
    let sol = m
        .solve_mip(&MipOptions::default(), None)
        .and_then(|(out, _)| out.into_solution())
        .expect("vertex cover over probe endpoints is feasible");
    let beacons: Vec<NodeId> = graph
        .nodes()
        .filter(|v| sol.is_one(ys[v.index()], 1e-4))
        .collect();
    BeaconPlacement::new(beacons, sol.status == SolveStatus::Optimal)
}

/// The program [`place_beacons_ilp`] solves, with its `y_i` per vertex.
fn beacon_model(graph: &Graph, probes: &ProbeSet, candidates: &[NodeId]) -> (Model, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let ys: Vec<VarId> = graph
        .nodes()
        .map(|v| m.add_var(format!("y_{}", v.index()), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    // y_i = 0 for i ∉ V_B.
    for v in graph.nodes() {
        if !candidates.contains(&v) {
            m.fix_var(ys[v.index()], 0.0);
        }
    }
    // y_u + y_v ≥ 1 per probe.
    for p in &probes.probes {
        m.add_constr(
            vec![(ys[p.u.index()], 1.0), (ys[p.v.index()], 1.0)],
            Cmp::Ge,
            1.0,
        );
    }
    (m, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::compute_probes;
    use milp::MipOutcome;
    use netgraph::GraphBuilder;
    use popgen::{FamilySpec, PopSpec};

    /// A star: probes between leaves all pass the hub but their endpoints
    /// are leaves, so beacon counts differ sharply between strategies.
    fn star(leaves: usize) -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub");
        let ls: Vec<NodeId> = (0..leaves).map(|i| b.add_node(format!("l{i}"))).collect();
        for &l in &ls {
            b.add_edge(hub, l, 1.0);
        }
        let mut all = vec![hub];
        all.extend(&ls);
        (b.build(), all)
    }

    #[test]
    fn all_strategies_cover_all_probes() {
        let pop = PopSpec::paper_15().build();
        let (g, _) = pop.router_subgraph();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let probes = compute_probes(&g, &candidates);
        assert!(!probes.is_empty());
        for placement in [
            place_beacons_thiran(&probes, &candidates),
            place_beacons_greedy(&probes, &candidates),
            place_beacons_ilp(&g, &probes, &candidates),
        ] {
            assert!(placement.covers(&probes));
        }
    }

    #[test]
    fn ilp_never_worse_than_heuristics() {
        let pop = PopSpec::paper_15().build();
        let (g, _) = pop.router_subgraph();
        let all: Vec<NodeId> = g.nodes().collect();
        for size in [4, 8, 12, 15] {
            let candidates = &all[..size];
            let probes = compute_probes(&g, candidates);
            let thiran = place_beacons_thiran(&probes, candidates);
            let greedy = place_beacons_greedy(&probes, candidates);
            let ilp = place_beacons_ilp(&g, &probes, candidates);
            assert!(ilp.proven_optimal);
            assert!(ilp.len() <= greedy.len(), "|V_B| = {size}");
            assert!(ilp.len() <= thiran.len(), "|V_B| = {size}");
        }
    }

    #[test]
    fn waxman_30_beacon_ilp_fits_a_small_work_budget() {
        // Every node LP re-solves from its parent's basis, so this search
        // proves 19 beacons in about 1.6k work units. With cold node LPs
        // it spends about 18.2k and trips the budget.
        let mut spec = FamilySpec::canonical("waxman", 30, 15).expect("known family");
        spec.density = 0.7;
        let (g, _) = spec.build(222).expect("valid spec").router_subgraph();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let probes = compute_probes(&g, &candidates);
        let (m, _) = beacon_model(&g, &probes, &candidates);
        let opts = MipOptions {
            work_budget: Some(3_000),
            ..Default::default()
        };
        match m.solve_mip(&opts, None) {
            Ok((MipOutcome::Complete(s), _)) => {
                assert_eq!(s.status, SolveStatus::Optimal);
                assert_eq!(s.objective, 19.0, "work {}", s.work);
            }
            other => panic!("beacon ILP did not complete in budget: {other:?}"),
        }
    }

    #[test]
    fn star_graph_hub_is_not_an_endpoint() {
        // Probes join leaves; with all nodes candidates, the ILP must pick
        // about half the leaves (vertex cover of the probe graph).
        let (g, all) = star(4);
        let probes = compute_probes(&g, &all);
        let ilp = place_beacons_ilp(&g, &probes, &all);
        assert!(ilp.covers(&probes));
        // The hub covers no probe (it is never an extremity here): the
        // greedy pile-up baits Thiran into more beacons than the ILP.
        let thiran = place_beacons_thiran(&probes, &all);
        assert!(thiran.len() >= ilp.len());
    }

    #[test]
    fn empty_probe_set_places_nothing() {
        let (g, all) = star(3);
        let probes = compute_probes(&g, &all[..1]); // single candidate, no probes
        assert!(probes.is_empty());
        assert!(place_beacons_thiran(&probes, &all[..1]).is_empty());
        assert!(place_beacons_greedy(&probes, &all[..1]).is_empty());
        assert!(place_beacons_ilp(&g, &probes, &all[..1]).is_empty());
    }

    #[test]
    fn non_candidates_never_selected() {
        let pop = PopSpec::paper_10().build();
        let (g, _) = pop.router_subgraph();
        let all: Vec<NodeId> = g.nodes().collect();
        let candidates = &all[..5];
        let probes = compute_probes(&g, candidates);
        for placement in [
            place_beacons_thiran(&probes, candidates),
            place_beacons_greedy(&probes, candidates),
            place_beacons_ilp(&g, &probes, candidates),
        ] {
            for b in &placement.beacons {
                assert!(candidates.contains(b));
            }
        }
    }

    #[test]
    fn greedy_beats_thiran_on_a_crafted_instance() {
        // Path 0-1-2-3-4; candidates all. Probes (0,1),(0,2),(3,4) say —
        // construct via probe set directly to control the shape.
        let (g, _) = star(1); // placeholder graph; probes built by hand
        let mk = |u: u32, v: u32| crate::active::Probe {
            u: NodeId(u.min(v)),
            v: NodeId(u.max(v)),
            edges: vec![],
        };
        let probes = ProbeSet {
            probes: vec![mk(0, 1), mk(1, 2), mk(1, 3), mk(0, 4)],
            covered: vec![],
            uncoverable: vec![],
        };
        let candidates: Vec<NodeId> = (0..5).map(NodeId).collect();
        let thiran = place_beacons_thiran(&probes, &candidates);
        let greedy = place_beacons_greedy(&probes, &candidates);
        // Thiran picks node 0 first (smallest id, covers 2 probes), then 1
        // (covers 2): 2 beacons. Greedy picks 1 (3 probes) then 0: also 2.
        // Both cover; greedy must not be worse.
        assert!(greedy.len() <= thiran.len());
        let _ = g;
    }
}
