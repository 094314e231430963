//! `PPME*(x, h, k)` — re-optimizing sampling rates under dynamic traffic
//! (paper Section 5.4).
//!
//! Once devices are installed they cannot move ("it implies human
//! maintenance on each router"), but sampling ratios can track the traffic.
//! With the `x_e` fixed, Linear Program 3 loses its binaries and becomes a
//! plain LP solvable in polynomial time ([`reoptimize_rates`]). The paper
//! also notes the problem "can be expressed as a minimum cost flow
//! problem"; that form relaxes the per-device rate into per-traffic
//! attribution and may miss the per-traffic floors, so the LP is the one
//! solver here. The threshold controller runs it:
//!
//! ```text
//! 1. While Σ δ_p v_p ≥ T · Σ v_p:  wait;
//! 2. When it drops below:          recompute PPME*(x, h, k), update rates;
//! 3. Goto 1.
//! ```

use milp::{Cmp, Model, Sense, SolverError, VarId, VarKind};
use popgen::dynamic::TrafficProcess;

use crate::sampling::SamplingProblem;

/// Re-optimized sampling rates for a fixed deployment.
#[derive(Debug, Clone)]
pub struct RatesSolution {
    /// Sampling ratio per link (0 on links without a device).
    pub rates: Vec<f64>,
    /// `Σ cost_e(e) · r_e`.
    pub exploit_cost: f64,
    /// Monitored volume achieved under the rate semantics.
    pub monitored: f64,
}

/// Solves `PPME*(x, h, k)` exactly as an LP: minimize the exploitation cost
/// of the installed devices subject to the per-traffic floors and the
/// global `k` target. Returns `None` when the installed set cannot reach
/// the floors at any rates.
pub fn reoptimize_rates(prob: &SamplingProblem, installed: &[bool]) -> Option<RatesSolution> {
    assert_eq!(installed.len(), prob.num_edges, "one flag per link");
    let mut m = Model::new(Sense::Minimize);
    let rs: Vec<VarId> = (0..prob.num_edges)
        .map(|e| {
            let hi = if installed[e] { 1.0 } else { 0.0 };
            m.add_var(
                format!("r_e{e}"),
                VarKind::Continuous,
                0.0,
                hi,
                prob.exploit_cost[e],
            )
        })
        .collect();
    let ds: Vec<VarId> = (0..prob.paths.len())
        .map(|p| m.add_var(format!("delta_p{p}"), VarKind::Continuous, 0.0, 1.0, 0.0))
        .collect();
    for (p, path) in prob.paths.iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = path.edges.iter().map(|&e| (rs[e], 1.0)).collect();
        terms.push((ds[p], -1.0));
        m.add_constr(terms, Cmp::Ge, 0.0);
    }
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
    let terms: Vec<(VarId, f64)> = prob
        .paths
        .iter()
        .enumerate()
        .map(|(i, p)| (ds[i], p.volume))
        .collect();
    m.add_constr(terms, Cmp::Ge, prob.k * prob.total_volume());

    let sol = match m.solve_lp() {
        Ok(s) => s,
        Err(SolverError::Infeasible) => return None,
        Err(e) => panic!("LP solver failed unexpectedly: {e}"),
    };
    let rates: Vec<f64> = rs.iter().map(|&r| sol.value(r).clamp(0.0, 1.0)).collect();
    let exploit_cost = rates
        .iter()
        .zip(&prob.exploit_cost)
        .map(|(r, c)| r * c)
        .sum();
    let monitored = prob.total_monitored(&rates);
    Some(RatesSolution {
        rates,
        exploit_cost,
        monitored,
    })
}

/// Configuration of the Section 5.4 threshold controller.
#[derive(Debug, Clone)]
pub struct ControllerSpec {
    /// Global target `k` restored at each re-optimization.
    pub k: f64,
    /// Per-traffic floor `h` used at re-optimization.
    pub h: f64,
    /// Tolerance threshold `T < k`: re-optimize when coverage drops below
    /// `T · V`.
    pub threshold: f64,
}

/// One step of the controller trace.
#[derive(Debug, Clone)]
pub struct ControllerStep {
    /// Process step index (1-based).
    pub step: usize,
    /// Coverage fraction observed *before* any action this step.
    pub coverage_before: f64,
    /// Whether the controller re-optimized at this step.
    pub reoptimized: bool,
    /// Coverage fraction after the action (equals `coverage_before` when
    /// no action was taken).
    pub coverage_after: f64,
    /// Exploitation cost of the rates in force after the step.
    pub exploit_cost: f64,
}

/// Full trace of a controller run.
#[derive(Debug, Clone)]
pub struct ControllerTrace {
    /// Per-step records.
    pub steps: Vec<ControllerStep>,
    /// Number of re-optimizations performed.
    pub reoptimizations: usize,
}

/// Runs the threshold controller for `steps` steps of the traffic process.
///
/// `installed` is the fixed deployment (`x` in `PPME*(x, h, k)`); the
/// controller starts from freshly optimized rates, then at each step
/// recomputes achieved coverage under the *new* volumes and re-optimizes
/// only when it falls below `T · V`.
///
/// # Panics
///
/// Panics when `threshold ≥ k` (the paper requires `T < k`) or when the
/// initial problem is infeasible for the installed set.
pub fn run_controller(
    process: &mut TrafficProcess,
    graph: &netgraph::Graph,
    installed: &[bool],
    spec: &ControllerSpec,
    setup_cost: Vec<f64>,
    exploit_cost: Vec<f64>,
    steps: usize,
) -> ControllerTrace {
    assert!(spec.threshold < spec.k, "tolerance threshold T must be < k");
    let build = |ts: &popgen::TrafficSet| {
        SamplingProblem::from_traffic_set(
            graph,
            ts,
            spec.h,
            spec.k,
            setup_cost.clone(),
            exploit_cost.clone(),
        )
    };

    let prob0 = build(process.current());
    let mut rates = reoptimize_rates(&prob0, installed)
        .expect("initial PPME*(x, h, k) must be feasible for the installed set")
        .rates;

    let mut trace = ControllerTrace {
        steps: Vec::with_capacity(steps),
        reoptimizations: 0,
    };
    for _ in 0..steps {
        process.step();
        let prob = build(process.current());
        let total = prob.total_volume();
        let before = if total > 0.0 {
            prob.total_monitored(&rates) / total
        } else {
            1.0
        };
        let mut reoptimized = false;
        if before < spec.threshold {
            if let Some(r) = reoptimize_rates(&prob, installed) {
                rates = r.rates;
                reoptimized = true;
                trace.reoptimizations += 1;
            }
            // When infeasible (the traffic drifted past what the installed
            // devices can see) keep the old rates: the operator would be
            // alerted; the trace shows coverage staying low.
        }
        let after = if total > 0.0 {
            prob.total_monitored(&rates) / total
        } else {
            1.0
        };
        let cost = rates
            .iter()
            .zip(&prob.exploit_cost)
            .map(|(r, c)| r * c)
            .sum();
        trace.steps.push(ControllerStep {
            step: process.steps(),
            coverage_before: before,
            reoptimized,
            coverage_after: after,
            exploit_cost: cost,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingPath;
    use popgen::dynamic::DynamicSpec;
    use popgen::{PopSpec, TrafficSpec};

    fn small_problem(k: f64) -> SamplingProblem {
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
            h: vec![0.0; 4],
            k,
            setup_cost: vec![1.0; 5],
            exploit_cost: vec![0.5; 5],
        }
    }

    #[test]
    fn reoptimize_meets_target() {
        let prob = small_problem(0.9);
        let installed = vec![true, true, true, false, false];
        let r = reoptimize_rates(&prob, &installed).unwrap();
        assert!(r.monitored + 1e-6 >= 0.9 * prob.total_volume());
        prob.check_solution(&installed, &r.rates, 1e-6).unwrap();
    }

    #[test]
    fn reoptimize_infeasible_when_devices_missing() {
        let prob = small_problem(1.0);
        // Only the heavy link installed: traffics 2 and 3 unreachable.
        let installed = vec![true, false, false, false, false];
        assert!(reoptimize_rates(&prob, &installed).is_none());
        // But 4/6 of the volume is reachable.
        let prob2 = small_problem(4.0 / 6.0);
        assert!(reoptimize_rates(&prob2, &installed).is_some());
    }

    #[test]
    fn rates_zero_on_uninstalled_links() {
        let prob = small_problem(0.8);
        let installed = vec![true, true, true, false, false];
        let r = reoptimize_rates(&prob, &installed).unwrap();
        assert_eq!(r.rates[3], 0.0);
        assert_eq!(r.rates[4], 0.0);
    }

    #[test]
    fn controller_maintains_coverage() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let ne = pop.graph.edge_count();

        // Install devices from an exact PPM solve at k = 0.95.
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        let sol = crate::solve::exact_ppm(&inst, 0.95).unwrap();
        let mut installed = vec![false; ne];
        for &e in &sol.edges {
            installed[e] = true;
        }

        let spec = ControllerSpec {
            k: 0.9,
            h: 0.0,
            threshold: 0.85,
        };
        let mut process = TrafficProcess::new(ts, DynamicSpec::default(), 11);
        let trace = run_controller(
            &mut process,
            &pop.graph,
            &installed,
            &spec,
            vec![1.0; ne],
            vec![0.5; ne],
            30,
        );
        assert_eq!(trace.steps.len(), 30);
        // Whenever the controller acted and the problem stayed feasible,
        // coverage returns to >= k.
        for s in &trace.steps {
            if s.reoptimized {
                assert!(
                    s.coverage_after + 1e-6 >= spec.threshold.min(spec.k),
                    "step {} after reopt: {}",
                    s.step,
                    s.coverage_after
                );
            }
        }
    }

    #[test]
    fn controller_reoptimizes_under_drift() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let ne = pop.graph.edge_count();
        let installed = vec![true; ne]; // full deployment: always feasible
        let spec = ControllerSpec {
            k: 0.95,
            h: 0.0,
            threshold: 0.93,
        };
        let drift = DynamicSpec {
            shift_probability: 0.5,
            ..Default::default()
        };
        let mut process = TrafficProcess::new(ts, drift, 7);
        let trace = run_controller(
            &mut process,
            &pop.graph,
            &installed,
            &spec,
            vec![1.0; ne],
            vec![0.5; ne],
            40,
        );
        assert!(
            trace.reoptimizations > 0,
            "drift must trigger re-optimizations"
        );
        // After every re-optimization coverage is restored to >= k.
        for s in trace.steps.iter().filter(|s| s.reoptimized) {
            assert!(s.coverage_after + 1e-6 >= spec.k);
        }
    }

    #[test]
    #[should_panic(expected = "T must be < k")]
    fn controller_rejects_threshold_at_k() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let ne = pop.graph.edge_count();
        let mut process = TrafficProcess::new(ts, DynamicSpec::default(), 1);
        let spec = ControllerSpec {
            k: 0.9,
            h: 0.0,
            threshold: 0.9,
        };
        run_controller(
            &mut process,
            &pop.graph,
            &vec![true; ne],
            &spec,
            vec![1.0; ne],
            vec![0.5; ne],
            1,
        );
    }
}
