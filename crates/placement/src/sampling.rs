//! `PPME(h, k)` — passive monitoring with packet sampling (paper Section
//! 5, Linear Program 3).
//!
//! Devices now carry a **setup cost** `cost_i(e)` and an **exploitation
//! cost** `cost_e(e)·r_e` proportional to the sampling ratio `r_e ∈ [0, 1]`
//! assigned to the device on link `e`. Traffics may be multi-routed (a set
//! of weighted paths between the same endpoints, Section 5's load-balanced
//! setting), each traffic `t` has a minimum monitoring ratio `h_t ≤ k`, and
//! the global ratio `k` must still be met:
//!
//! ```text
//! minimize    Σ_e cost_i(e)·x_e + cost_e(e)·r_e
//! subject to  Σ_{e ∈ p} r_e ≥ δ_p                    ∀ p ∈ P
//!             x_e ≥ r_e                               ∀ e ∈ E
//!             Σ_{p ∈ P_t} δ_p·v_p ≥ h_t·Σ_{p ∈ P_t} v_p   ∀ t
//!             Σ_{p ∈ P} δ_p·v_p ≥ k·Σ_{p ∈ P} v_p
//!             δ_p, r_e ∈ [0, 1],  x_e ∈ {0, 1}
//! ```
//!
//! The model of \[22\] is a mixed *non-linear* program; the paper stresses
//! that this MILP form solves much faster. Cascaded devices on one path
//! accumulate their rates additively (the packet-marking reading discussed
//! in Section 5.2).

use milp::{Cmp, Model, Sense, SolveStatus, VarId, VarKind};
use netgraph::Graph;
use popgen::{MultiTraffic, TrafficSet};

use crate::passive::{Deployment, ExactModel, ExactOptions};

/// One routed path of a (possibly multi-routed) traffic.
#[derive(Debug, Clone)]
pub struct SamplingPath {
    /// Edge indices this path traverses (duplicate-free).
    pub edges: Vec<usize>,
    /// Volume carried by this path (`v_p`).
    pub volume: f64,
    /// Index of the traffic this path belongs to.
    pub traffic: usize,
}

/// A `PPME(h, k)` problem instance.
#[derive(Debug, Clone)]
pub struct SamplingProblem {
    /// Number of candidate links.
    pub num_edges: usize,
    /// All paths `P = ∪_t P_t`.
    pub paths: Vec<SamplingPath>,
    /// Number of traffics (`max(traffic) + 1`).
    pub num_traffics: usize,
    /// Per-traffic minimum monitoring ratio `h_t` (must satisfy `h_t ≤ k`).
    pub h: Vec<f64>,
    /// Global monitoring ratio `k`.
    pub k: f64,
    /// Setup cost `cost_i(e)` per link.
    pub setup_cost: Vec<f64>,
    /// Exploitation cost `cost_e(e)` per link (per unit of sampling ratio).
    pub exploit_cost: Vec<f64>,
}

impl SamplingProblem {
    /// Builds a problem from multi-routed traffics with uniform `h` and
    /// explicit costs.
    ///
    /// # Panics
    ///
    /// Panics when cost vectors have the wrong length, `k ∉ [0, 1]`, or
    /// `h > k` (the paper requires `h_t ≤ k`).
    pub fn from_multi(
        graph: &Graph,
        traffics: &[MultiTraffic],
        h: f64,
        k: f64,
        setup_cost: Vec<f64>,
        exploit_cost: Vec<f64>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&k), "k must lie in [0, 1], got {k}");
        assert!((0.0..=1.0).contains(&h), "h must lie in [0, 1], got {h}");
        assert!(h <= k + 1e-12, "h_t must not exceed k (paper Section 5)");
        assert_eq!(
            setup_cost.len(),
            graph.edge_count(),
            "one setup cost per link"
        );
        assert_eq!(
            exploit_cost.len(),
            graph.edge_count(),
            "one exploitation cost per link"
        );
        let mut paths = Vec::new();
        for (t, mt) in traffics.iter().enumerate() {
            for (path, share) in &mt.routes {
                paths.push(SamplingPath {
                    edges: path.edges().iter().map(|e| e.index()).collect(),
                    volume: mt.volume * share,
                    traffic: t,
                });
            }
        }
        Self {
            num_edges: graph.edge_count(),
            paths,
            num_traffics: traffics.len(),
            h: vec![h; traffics.len()],
            k,
            setup_cost,
            exploit_cost,
        }
    }

    /// Builds a single-path problem from a routed [`TrafficSet`] (each
    /// traffic is its own path), as used by the dynamic controller.
    pub fn from_traffic_set(
        graph: &Graph,
        ts: &TrafficSet,
        h: f64,
        k: f64,
        setup_cost: Vec<f64>,
        exploit_cost: Vec<f64>,
    ) -> Self {
        assert!(h <= k + 1e-12, "h_t must not exceed k (paper Section 5)");
        assert_eq!(setup_cost.len(), graph.edge_count());
        assert_eq!(exploit_cost.len(), graph.edge_count());
        let paths = ts
            .traffics
            .iter()
            .enumerate()
            .map(|(t, tr)| SamplingPath {
                edges: tr.path.edges().iter().map(|e| e.index()).collect(),
                volume: tr.volume,
                traffic: t,
            })
            .collect();
        Self {
            num_edges: graph.edge_count(),
            paths,
            num_traffics: ts.traffics.len(),
            h: vec![h; ts.traffics.len()],
            k,
            setup_cost,
            exploit_cost,
        }
    }

    /// Uniform unit setup / half-unit exploitation costs, a convenient
    /// default for experiments.
    pub fn uniform_costs(num_edges: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![1.0; num_edges], vec![0.5; num_edges])
    }

    /// Total volume over all paths.
    pub fn total_volume(&self) -> f64 {
        self.paths.iter().map(|p| p.volume).sum()
    }

    /// Volume of one traffic (over its paths).
    pub fn traffic_volume(&self, t: usize) -> f64 {
        self.paths
            .iter()
            .filter(|p| p.traffic == t)
            .map(|p| p.volume)
            .sum()
    }

    /// Monitored volume of every path under sampling rates `r`
    /// (`v_p · min(1, Σ_{e ∈ p} r_e)` — cascaded rates accumulate).
    pub fn monitored_volumes(&self, rates: &[f64]) -> Vec<f64> {
        self.paths
            .iter()
            .map(|p| {
                let r: f64 = p.edges.iter().map(|&e| rates[e]).sum();
                p.volume * r.min(1.0)
            })
            .collect()
    }

    /// Total monitored volume under rates `r`.
    pub fn total_monitored(&self, rates: &[f64]) -> f64 {
        self.monitored_volumes(rates).iter().sum()
    }

    /// Checks a `(installed, rates)` pair against all constraints with
    /// tolerance `tol`; returns a description of the first violation.
    pub fn check_solution(
        &self,
        installed: &[bool],
        rates: &[f64],
        tol: f64,
    ) -> Result<(), String> {
        if installed.len() != self.num_edges || rates.len() != self.num_edges {
            return Err("wrong arity".into());
        }
        for e in 0..self.num_edges {
            if rates[e] < -tol || rates[e] > 1.0 + tol {
                return Err(format!("rate r_{e} = {} outside [0, 1]", rates[e]));
            }
            if rates[e] > tol && !installed[e] {
                return Err(format!("sampling on link {e} without a device"));
            }
        }
        let mon = self.monitored_volumes(rates);
        for t in 0..self.num_traffics {
            let vt = self.traffic_volume(t);
            let mt: f64 = self
                .paths
                .iter()
                .zip(&mon)
                .filter(|(p, _)| p.traffic == t)
                .map(|(_, m)| m)
                .sum();
            if mt + tol * vt.max(1.0) < self.h[t] * vt {
                return Err(format!(
                    "traffic {t} monitored {mt} < h·v = {}",
                    self.h[t] * vt
                ));
            }
        }
        let total = self.total_volume();
        let covered: f64 = mon.iter().sum();
        if covered + tol * total.max(1.0) < self.k * total {
            return Err(format!(
                "global coverage {covered} < k·V = {}",
                self.k * total
            ));
        }
        Ok(())
    }
}

/// A solution to `PPME(h, k)`.
#[derive(Debug, Clone)]
pub struct PpmeSolution {
    /// Device installed on each link.
    pub installed: Vec<bool>,
    /// Sampling ratio per link (0 where no device).
    pub rates: Vec<f64>,
    /// Monitored share `δ_p` per path.
    pub deltas: Vec<f64>,
    /// `Σ cost_i(e)·x_e`.
    pub setup_cost: f64,
    /// `Σ cost_e(e)·r_e`.
    pub exploit_cost: f64,
    /// Whether branch-and-bound proved optimality.
    pub proven_optimal: bool,
}

impl PpmeSolution {
    /// Total objective value.
    pub fn total_cost(&self) -> f64 {
        self.setup_cost + self.exploit_cost
    }

    /// Number of installed devices.
    pub fn device_count(&self) -> usize {
        self.installed.iter().filter(|&&b| b).count()
    }
}

/// Builds Linear Program 3. Returns the model and the `(x, r, δ)` variable
/// blocks.
pub fn build_lp3(prob: &SamplingProblem) -> (Model, Vec<VarId>, Vec<VarId>, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..prob.num_edges)
        .map(|e| {
            m.add_var(
                format!("x_e{e}"),
                VarKind::Binary,
                0.0,
                1.0,
                prob.setup_cost[e],
            )
        })
        .collect();
    let rs: Vec<VarId> = (0..prob.num_edges)
        .map(|e| {
            m.add_var(
                format!("r_e{e}"),
                VarKind::Continuous,
                0.0,
                1.0,
                prob.exploit_cost[e],
            )
        })
        .collect();
    let ds: Vec<VarId> = (0..prob.paths.len())
        .map(|p| m.add_var(format!("delta_p{p}"), VarKind::Continuous, 0.0, 1.0, 0.0))
        .collect();

    // Σ_{e ∈ p} r_e − δ_p ≥ 0.
    for (p, path) in prob.paths.iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = path.edges.iter().map(|&e| (rs[e], 1.0)).collect();
        terms.push((ds[p], -1.0));
        m.add_constr(terms, Cmp::Ge, 0.0);
    }
    // x_e ≥ r_e.
    for e in 0..prob.num_edges {
        m.add_constr(vec![(xs[e], 1.0), (rs[e], -1.0)], Cmp::Ge, 0.0);
    }
    // Per-traffic floors.
    for t in 0..prob.num_traffics {
        let vt = prob.traffic_volume(t);
        if vt <= 0.0 || prob.h[t] <= 0.0 {
            continue;
        }
        let terms: Vec<(VarId, f64)> = prob
            .paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.traffic == t)
            .map(|(i, p)| (ds[i], p.volume))
            .collect();
        m.add_constr(terms, Cmp::Ge, prob.h[t] * vt);
    }
    // Global coverage.
    let terms: Vec<(VarId, f64)> = prob
        .paths
        .iter()
        .enumerate()
        .map(|(i, p)| (ds[i], p.volume))
        .collect();
    m.add_constr(terms, Cmp::Ge, prob.k * prob.total_volume());

    (m, xs, rs, ds)
}

/// Solves `PPME(h, k)` to optimality (subject to the node limit and the
/// optional relative gap of [`ExactOptions`]).
///
/// Returns `None` when the instance is infeasible (some traffic cannot meet
/// its floor even with every link monitored at rate 1).
///
/// The fixed-charge structure (pay `cost_i(e)` as soon as `r_e > 0`) gives
/// the LP relaxation a loose bound, so the MIP is seeded with a full-cover
/// incumbent: the optimal `PPM(1)` devices at sampling rate 1, which
/// satisfies every floor. On larger instances prefer a nonzero
/// [`ExactOptions::rel_gap`] (e.g. `0.02`) — branch-and-bound without
/// strong cuts closes the last percent slowly.
pub fn solve_ppme(prob: &SamplingProblem, opts: &ExactOptions) -> Option<PpmeSolution> {
    let (mut model, xs, rs, ds) = build_lp3(prob);

    if let Some(warm) = full_cover_incumbent(prob, opts) {
        model.set_initial_solution(warm);
    }

    let sol = match model
        .solve_mip(&opts.mip(None), None)
        .and_then(|(out, _)| out.into_solution())
    {
        Ok(s) => s,
        Err(milp::SolverError::Infeasible) => return None,
        Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
    };
    let installed: Vec<bool> = xs.iter().map(|&x| sol.is_one(x, 1e-4)).collect();
    let rates: Vec<f64> = rs.iter().map(|&r| sol.value(r).clamp(0.0, 1.0)).collect();
    let deltas: Vec<f64> = ds.iter().map(|&d| sol.value(d).clamp(0.0, 1.0)).collect();
    let setup_cost: f64 = installed
        .iter()
        .zip(&prob.setup_cost)
        .filter(|(i, _)| **i)
        .map(|(_, c)| c)
        .sum();
    let exploit_cost: f64 = rates
        .iter()
        .zip(&prob.exploit_cost)
        .map(|(r, c)| r * c)
        .sum();
    Some(PpmeSolution {
        installed,
        rates,
        deltas,
        setup_cost,
        exploit_cost,
        proven_optimal: sol.status == SolveStatus::Optimal,
    })
}

/// Builds a feasible LP3 assignment from the optimal `PPM(1)` cover with
/// all devices sampling at rate 1 — `δ_p = 1` for every coverable path, so
/// all floors and the global target hold whenever full cover is possible.
/// Variable layout must match [`build_lp3`]: `x` block, `r` block, `δ`
/// block.
fn full_cover_incumbent(prob: &SamplingProblem, opts: &ExactOptions) -> Option<Vec<f64>> {
    let inst = crate::instance::PpmInstance::new(
        prob.num_edges,
        prob.paths
            .iter()
            .map(|p| (p.volume, p.edges.clone()))
            .collect(),
    );
    // Keep the inner PPM solve cheap: it only seeds the incumbent. The
    // one LP 2 solve at a gap other than the default, so it runs the
    // kernel directly rather than through a `SolveRequest`.
    let inner = ExactOptions {
        max_nodes: 2_000,
        rel_gap: opts.rel_gap.max(1e-9),
        ..ExactOptions::default()
    };
    let cover =
        ExactModel::solve_min_devices(&mut None, Deployment::fresh(&inst), 1.0, &inner.mip(None))
            .unbudgeted()
            .or_else(|| crate::passive::greedy_adaptive(&inst, 1.0))?;
    let mut values = vec![0.0; prob.num_edges * 2 + prob.paths.len()];
    for &e in &cover.edges {
        values[e] = 1.0; // x_e
        values[prob.num_edges + e] = 1.0; // r_e
    }
    for (i, path) in prob.paths.iter().enumerate() {
        let covered = path.edges.iter().any(|&e| cover.edges.contains(&e));
        values[2 * prob.num_edges + i] = if covered { 1.0 } else { 0.0 };
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgen::{PopSpec, TrafficSpec};

    fn small_problem(h: f64, k: f64) -> SamplingProblem {
        // Figure-3-like instance with explicit paths (single-routed).
        SamplingProblem {
            num_edges: 5,
            paths: vec![
                SamplingPath {
                    edges: vec![0, 1],
                    volume: 2.0,
                    traffic: 0,
                },
                SamplingPath {
                    edges: vec![0, 2],
                    volume: 2.0,
                    traffic: 1,
                },
                SamplingPath {
                    edges: vec![1, 3],
                    volume: 1.0,
                    traffic: 2,
                },
                SamplingPath {
                    edges: vec![2, 4],
                    volume: 1.0,
                    traffic: 3,
                },
            ],
            num_traffics: 4,
            h: vec![h; 4],
            k,
            setup_cost: vec![1.0; 5],
            exploit_cost: vec![0.5; 5],
        }
    }

    #[test]
    fn full_coverage_solution_is_valid() {
        let prob = small_problem(0.0, 1.0);
        let s = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        prob.check_solution(&s.installed, &s.rates, 1e-6).unwrap();
        assert!(s.proven_optimal);
        // Full coverage needs rates summing to >= 1 on every path; two
        // devices at rate 1 on links 1 and 2 do it: cost 2 + 1.0.
        assert!(
            (s.total_cost() - 3.0).abs() < 1e-5,
            "cost = {}",
            s.total_cost()
        );
    }

    #[test]
    fn partial_coverage_is_cheaper() {
        let prob_full = small_problem(0.0, 1.0);
        let prob_part = small_problem(0.0, 0.6);
        let full = solve_ppme(&prob_full, &ExactOptions::default()).unwrap();
        let part = solve_ppme(&prob_part, &ExactOptions::default()).unwrap();
        assert!(part.total_cost() < full.total_cost());
        prob_part
            .check_solution(&part.installed, &part.rates, 1e-6)
            .unwrap();
    }

    #[test]
    fn sampling_rates_can_be_fractional() {
        // k = 0.5 with cheap exploitation: sampling part of the heavy link
        // beats full-rate monitoring.
        let prob = small_problem(0.0, 0.5);
        let s = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        let frac = s.rates.iter().any(|&r| r > 1e-6 && r < 1.0 - 1e-6);
        assert!(
            frac,
            "expected a fractional sampling rate, got {:?}",
            s.rates
        );
    }

    #[test]
    fn per_traffic_floor_enforced() {
        // k = 0.5 could ignore the light traffics entirely, but h = 0.4
        // forces some sampling on every traffic's path.
        let prob = small_problem(0.4, 0.5);
        let s = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        prob.check_solution(&s.installed, &s.rates, 1e-6).unwrap();
        let mon = prob.monitored_volumes(&s.rates);
        for t in 0..4 {
            let mt: f64 = prob
                .paths
                .iter()
                .zip(&mon)
                .filter(|(p, _)| p.traffic == t)
                .map(|(_, m)| m)
                .sum();
            assert!(mt + 1e-6 >= 0.4 * prob.traffic_volume(t), "traffic {t}");
        }
    }

    #[test]
    fn devices_follow_rates() {
        let prob = small_problem(0.0, 0.8);
        let s = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        for e in 0..prob.num_edges {
            if s.rates[e] > 1e-6 {
                assert!(s.installed[e], "rate without device on link {e}");
            }
        }
    }

    #[test]
    fn multi_routed_problem_from_pop() {
        let pop = PopSpec::small().build();
        let multi = TrafficSpec::default().generate_multi(&pop, 5, 2);
        let (ci, ce) = SamplingProblem::uniform_costs(pop.graph.edge_count());
        let prob = SamplingProblem::from_multi(&pop.graph, &multi, 0.1, 0.6, ci, ce);
        assert!(
            prob.paths.len() > prob.num_traffics,
            "multi-routing adds paths"
        );
        let s = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        prob.check_solution(&s.installed, &s.rates, 1e-5).unwrap();
    }

    #[test]
    #[should_panic(expected = "h_t must not exceed k")]
    fn h_above_k_rejected() {
        let pop = PopSpec::small().build();
        let multi = TrafficSpec::default().generate_multi(&pop, 5, 1);
        let (ci, ce) = SamplingProblem::uniform_costs(pop.graph.edge_count());
        SamplingProblem::from_multi(&pop.graph, &multi, 0.9, 0.5, ci, ce);
    }

    #[test]
    fn check_solution_catches_violations() {
        let prob = small_problem(0.0, 1.0);
        // No devices, no rates: global coverage violated.
        assert!(prob.check_solution(&[false; 5], &[0.0; 5], 1e-9).is_err());
        // Rate without device.
        assert!(prob
            .check_solution(&[false; 5], &[1.0, 0.0, 0.0, 0.0, 0.0], 1e-9)
            .is_err());
        // Valid: devices+rate 1 on links 1 and 2.
        let installed = [false, true, true, false, false];
        let rates = [0.0, 1.0, 1.0, 0.0, 0.0];
        prob.check_solution(&installed, &rates, 1e-9).unwrap();
    }
}
