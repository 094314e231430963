//! Measurement campaigns — the paper's third future-work item (Section 7):
//! *"we are investigating on solutions for measurement campaign, where the
//! operator of a POP or an AS can modify the routing strategy in order to
//! maximize the monitoring ratio, given a set of already installed
//! measurement points. For this last perspective, the flow-based model is
//! expected to apply perfectly."*
//!
//! Model: the deployment is fixed; for each traffic the operator may pick
//! **one** route among a small candidate set (the `K` shortest loopless
//! paths — deviating further would violate the IGP's service quality). A
//! traffic is monitored when its chosen route crosses an installed link.
//! Maximize the monitored volume; optionally bound the total *stretch*
//! (extra routed cost versus the shortest path) the campaign may introduce.
//!
//! Two solvers:
//!
//! * [`campaign_greedy`] — for each unmonitored traffic independently, pick
//!   the cheapest candidate route that crosses a monitor (no global budget
//!   coupling: optimal when `max_total_stretch` is infinite);
//! * [`campaign_exact`] — 0–1 program choosing one route per traffic under
//!   the global stretch budget (knapsack-coupled, solved by `milp`).

use milp::{Cmp, MipOptions, Model, Sense, SolveStatus, VarId, VarKind};
use netgraph::{ksp, Graph, NodeId};
use popgen::TrafficSet;

/// One traffic of the campaign problem with its candidate routes.
#[derive(Debug, Clone)]
pub struct CampaignTraffic {
    /// Entry endpoint (for reporting).
    pub src: NodeId,
    /// Exit endpoint.
    pub dst: NodeId,
    /// Bandwidth.
    pub volume: f64,
    /// Candidate routes as `(edge indices, routing cost)`; index 0 is the
    /// current (shortest) route.
    pub routes: Vec<(Vec<usize>, f64)>,
}

/// A campaign instance: fixed monitors plus per-traffic route choices.
#[derive(Debug, Clone)]
pub struct CampaignProblem {
    /// Installed monitors (mask over edges).
    pub installed: Vec<bool>,
    /// The traffics with their candidate routes.
    pub traffics: Vec<CampaignTraffic>,
    /// Upper bound on `Σ_t v_t · (cost(chosen_t) − cost(shortest_t))`;
    /// `f64::INFINITY` disables the budget.
    pub max_total_stretch: f64,
}

impl CampaignProblem {
    /// Builds the problem from a routed traffic set: each traffic gets its
    /// `k_routes` shortest loopless paths as candidates.
    pub fn new(
        graph: &Graph,
        ts: &TrafficSet,
        installed: Vec<bool>,
        k_routes: usize,
        max_total_stretch: f64,
    ) -> Self {
        assert_eq!(installed.len(), graph.edge_count(), "one flag per link");
        assert!(k_routes >= 1, "need at least the current route");
        let traffics = ts
            .traffics
            .iter()
            .map(|t| {
                let paths =
                    ksp::k_shortest_paths(graph, t.src, t.dst, k_routes).expect("valid endpoints");
                let routes = paths
                    .into_iter()
                    .map(|p| {
                        let cost = p.cost(graph);
                        (p.edges().iter().map(|e| e.index()).collect(), cost)
                    })
                    .collect();
                CampaignTraffic {
                    src: t.src,
                    dst: t.dst,
                    volume: t.volume,
                    routes,
                }
            })
            .collect();
        Self {
            installed,
            traffics,
            max_total_stretch,
        }
    }

    /// `true` when route `r` of traffic `t` crosses an installed monitor.
    pub fn route_monitored(&self, t: usize, r: usize) -> bool {
        self.traffics[t].routes[r]
            .0
            .iter()
            .any(|&e| self.installed[e])
    }

    /// Volume-weighted stretch of assigning route `r` to traffic `t`.
    pub fn stretch(&self, t: usize, r: usize) -> f64 {
        let tr = &self.traffics[t];
        tr.volume * (tr.routes[r].1 - tr.routes[0].1).max(0.0)
    }

    /// Monitored volume and total stretch of a route assignment.
    pub fn evaluate(&self, assignment: &[usize]) -> (f64, f64) {
        assert_eq!(
            assignment.len(),
            self.traffics.len(),
            "one route per traffic"
        );
        let mut monitored = 0.0;
        let mut stretch = 0.0;
        for (t, &r) in assignment.iter().enumerate() {
            assert!(
                r < self.traffics[t].routes.len(),
                "route index out of range"
            );
            if self.route_monitored(t, r) {
                monitored += self.traffics[t].volume;
            }
            stretch += self.stretch(t, r);
        }
        (monitored, stretch)
    }

    /// Total volume of the instance.
    pub fn total_volume(&self) -> f64 {
        self.traffics.iter().map(|t| t.volume).sum()
    }
}

/// Result of a campaign optimization.
#[derive(Debug, Clone)]
pub struct CampaignSolution {
    /// Chosen route index per traffic (0 = keep the current route).
    pub assignment: Vec<usize>,
    /// Monitored volume under the assignment.
    pub monitored: f64,
    /// Volume-weighted total stretch introduced.
    pub total_stretch: f64,
    /// Whether the solver proved optimality (greedy reports `true` only in
    /// the uncoupled, budget-free case where it *is* optimal).
    pub proven_optimal: bool,
}

/// Greedy campaign: every traffic whose current route is unmonitored moves
/// to its cheapest-stretch monitored candidate, if any. With an infinite
/// stretch budget the per-traffic choices are independent, so this is
/// optimal; under a finite budget moves are applied in increasing
/// stretch-per-volume order until the budget runs out (a heuristic).
pub fn campaign_greedy(prob: &CampaignProblem) -> CampaignSolution {
    let n = prob.traffics.len();
    let mut assignment = vec![0usize; n];
    // Candidate moves: (stretch, volume, traffic, route).
    let mut moves: Vec<(f64, f64, usize, usize)> = Vec::new();
    for t in 0..n {
        if prob.route_monitored(t, 0) {
            continue; // already monitored in place
        }
        let best = (0..prob.traffics[t].routes.len())
            .filter(|&r| prob.route_monitored(t, r))
            .map(|r| (prob.stretch(t, r), r))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite stretch"));
        if let Some((s, r)) = best {
            moves.push((s, prob.traffics[t].volume, t, r));
        }
    }
    // Cheapest stretch per monitored volume first.
    moves.sort_by(|a, b| {
        (a.0 / a.1.max(1e-12))
            .partial_cmp(&(b.0 / b.1.max(1e-12)))
            .expect("finite")
    });
    let mut budget = prob.max_total_stretch;
    for (s, _, t, r) in moves {
        if s <= budget {
            assignment[t] = r;
            budget -= s;
        }
    }
    let (monitored, total_stretch) = prob.evaluate(&assignment);
    CampaignSolution {
        assignment,
        monitored,
        total_stretch,
        proven_optimal: prob.max_total_stretch.is_infinite(),
    }
}

/// Exact campaign: one binary per (traffic, candidate route), exactly one
/// route per traffic, maximize monitored volume subject to the stretch
/// budget.
pub fn campaign_exact(prob: &CampaignProblem) -> CampaignSolution {
    let mut m = Model::new(Sense::Maximize);
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(prob.traffics.len());
    let mut budget_terms: Vec<(VarId, f64)> = Vec::new();
    for (t, tr) in prob.traffics.iter().enumerate() {
        let mut row = Vec::with_capacity(tr.routes.len());
        for r in 0..tr.routes.len() {
            let gain = if prob.route_monitored(t, r) {
                tr.volume
            } else {
                0.0
            };
            let y = m.add_var(format!("y_t{t}_r{r}"), VarKind::Binary, 0.0, 1.0, gain);
            let s = prob.stretch(t, r);
            if s > 0.0 {
                budget_terms.push((y, s));
            }
            row.push(y);
        }
        let one: Vec<_> = row.iter().map(|&y| (y, 1.0)).collect();
        m.add_constr(one, Cmp::Eq, 1.0);
        vars.push(row);
    }
    if prob.max_total_stretch.is_finite() {
        m.add_constr(budget_terms, Cmp::Le, prob.max_total_stretch);
    }
    let sol = m
        .solve_mip(&MipOptions::default(), None)
        .and_then(|(out, _)| out.into_solution())
        .expect("choosing route 0 everywhere is feasible");
    let assignment: Vec<usize> = vars
        .iter()
        .map(|row| {
            row.iter()
                .position(|&y| sol.is_one(y, 1e-4))
                .expect("exactly-one constraint guarantees a pick")
        })
        .collect();
    let (monitored, total_stretch) = prob.evaluate(&assignment);
    CampaignSolution {
        assignment,
        monitored,
        total_stretch,
        proven_optimal: sol.status == SolveStatus::Optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PpmInstance;
    use crate::solve::exact_ppm;
    use popgen::{PopSpec, TrafficSpec};

    fn setup(k: f64) -> (popgen::Pop, TrafficSet, Vec<bool>) {
        // Seed 1 is a case where the shortest-path deployment leaves
        // recapturable traffic on alternate routes (verified below).
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 1);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let sol = exact_ppm(&inst, k).unwrap();
        let mut installed = vec![false; pop.graph.edge_count()];
        for &e in &sol.edges {
            installed[e] = true;
        }
        (pop, ts, installed)
    }

    #[test]
    fn rerouting_strictly_improves_coverage() {
        // Devices placed for 80%: some traffics are unmonitored on their
        // shortest route, and alternative routes recapture part of them.
        let (pop, ts, installed) = setup(0.8);
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 3, f64::INFINITY);
        let before = prob.evaluate(&vec![0; prob.traffics.len()]).0;
        let after = campaign_greedy(&prob);
        assert!(
            after.monitored > before + 1e-9,
            "campaign should recapture volume: {before} -> {}",
            after.monitored
        );
        assert!(after.proven_optimal);
    }

    #[test]
    fn greedy_is_optimal_without_budget() {
        let (pop, ts, installed) = setup(0.75);
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 3, f64::INFINITY);
        let g = campaign_greedy(&prob);
        let e = campaign_exact(&prob);
        assert!((g.monitored - e.monitored).abs() < 1e-6);
    }

    #[test]
    fn exact_beats_greedy_under_tight_budget() {
        let (pop, ts, installed) = setup(0.75);
        let free = CampaignProblem::new(&pop.graph, &ts, installed.clone(), 3, f64::INFINITY);
        let unconstrained = campaign_greedy(&free);
        // Allow only a fifth of the unconstrained stretch.
        let budget = unconstrained.total_stretch / 5.0;
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 3, budget);
        let g = campaign_greedy(&prob);
        let e = campaign_exact(&prob);
        assert!(g.total_stretch <= budget + 1e-9);
        assert!(e.total_stretch <= budget + 1e-9);
        assert!(
            e.monitored + 1e-6 >= g.monitored,
            "exact dominates the heuristic"
        );
    }

    #[test]
    fn zero_budget_keeps_current_routes() {
        let (pop, ts, installed) = setup(0.8);
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 3, 0.0);
        let g = campaign_greedy(&prob);
        // Only zero-stretch moves (equal-cost alternates) are allowed.
        assert_eq!(g.total_stretch, 0.0);
        let e = campaign_exact(&prob);
        assert!(e.total_stretch <= 1e-9);
    }

    #[test]
    fn full_deployment_needs_no_campaign() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 13);
        let installed = vec![true; pop.graph.edge_count()];
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 2, f64::INFINITY);
        let g = campaign_greedy(&prob);
        assert!(
            g.assignment.iter().all(|&r| r == 0),
            "everything already monitored"
        );
        assert!((g.monitored - prob.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn evaluate_checks_arity() {
        let (pop, ts, installed) = setup(0.8);
        let prob = CampaignProblem::new(&pop.graph, &ts, installed, 2, f64::INFINITY);
        let result = std::panic::catch_unwind(|| prob.evaluate(&[0]));
        assert!(result.is_err(), "wrong arity must panic");
    }
}
