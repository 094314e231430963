//! Cross-crate integration tests for `PPME(h, k)` and the dynamic
//! controller: sampling solutions validate end-to-end, the LP/flow
//! re-optimizers relate correctly, and the controller repairs coverage.

use popmon::placement::dynamic::{
    reoptimize_rates, reoptimize_rates_flow, run_controller, ControllerSpec,
};
use popmon::placement::instance::PpmInstance;
use popmon::placement::passive::ExactOptions;
use popmon::placement::sampling::{solve_ppme, SamplingProblem};
use popmon::placement::solve::{solve_instance, SolveRequest};
use popmon::popgen::dynamic::{DynamicSpec, TrafficProcess};
use popmon::popgen::{PopSpec, TrafficSpec};

#[test]
fn ppme_solution_validates_and_beats_naive_full_rate() {
    let pop = PopSpec::small().build();
    let multi = TrafficSpec::default().generate_multi(&pop, 1, 2);
    let ne = pop.graph.edge_count();
    let (ci, ce) = SamplingProblem::uniform_costs(ne);
    let prob = SamplingProblem::from_multi(&pop.graph, &multi, 0.1, 0.8, ci, ce);
    let sol = solve_ppme(&prob, &ExactOptions::default()).unwrap();
    prob.check_solution(&sol.installed, &sol.rates, 1e-5)
        .unwrap();

    // Naive alternative: same devices, all at rate 1 — must cost at least
    // as much in exploitation.
    let naive_exploit: f64 = sol
        .installed
        .iter()
        .zip(&prob.exploit_cost)
        .filter(|(i, _)| **i)
        .map(|(_, c)| c)
        .sum();
    assert!(sol.exploit_cost <= naive_exploit + 1e-6);
}

#[test]
fn ppme_cost_monotone_in_k() {
    let pop = PopSpec::small().build();
    let multi = TrafficSpec::default().generate_multi(&pop, 2, 2);
    let ne = pop.graph.edge_count();
    let mut last = 0.0f64;
    for k in [0.4, 0.6, 0.8, 0.95] {
        let (ci, ce) = SamplingProblem::uniform_costs(ne);
        let prob = SamplingProblem::from_multi(&pop.graph, &multi, 0.0, k, ci, ce);
        let sol = solve_ppme(&prob, &ExactOptions::default()).unwrap();
        assert!(
            sol.total_cost() + 1e-6 >= last,
            "optimal cost must not decrease with k (k = {k})"
        );
        last = sol.total_cost();
    }
}

#[test]
fn reoptimizers_agree_on_their_bound_relation() {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 3);
    let ne = pop.graph.edge_count();
    let (ci, ce) = SamplingProblem::uniform_costs(ne);
    let prob = SamplingProblem::from_traffic_set(&pop.graph, &ts, 0.0, 0.9, ci, ce);
    let installed = vec![true; ne];
    let lp = reoptimize_rates(&prob, &installed).unwrap();
    let flow = reoptimize_rates_flow(&prob, &installed).unwrap();
    // Volume-attribution semantics is a relaxation: its cost lower-bounds
    // the per-device-rate LP optimum.
    assert!(flow.exploit_cost <= lp.exploit_cost + 1e-6);
    // The LP rates genuinely achieve the target in the rate semantics.
    assert!(lp.monitored + 1e-6 >= 0.9 * prob.total_volume());
}

#[test]
fn controller_end_to_end_on_exact_deployment() {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 4);
    let ne = pop.graph.edge_count();
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let placed = solve_instance(&inst, &SolveRequest::ppm(0.95))
        .unwrap()
        .into_ppm()
        .unwrap();
    let mut installed = vec![false; ne];
    for &e in &placed.edges {
        installed[e] = true;
    }

    let spec = ControllerSpec {
        k: 0.9,
        h: 0.0,
        threshold: 0.85,
    };
    let drift = DynamicSpec {
        shift_probability: 0.3,
        ..Default::default()
    };
    let mut process = TrafficProcess::new(ts, drift, 21);
    let trace = run_controller(
        &mut process,
        &pop.graph,
        &installed,
        &spec,
        vec![1.0; ne],
        vec![0.5; ne],
        25,
    );
    assert_eq!(trace.steps.len(), 25);
    // Invariant: the controller only acts below the threshold, and its
    // action (when feasible) restores at least k.
    for s in &trace.steps {
        if s.coverage_before >= spec.threshold {
            assert!(
                !s.reoptimized,
                "no action above the threshold (step {})",
                s.step
            );
        }
        if s.reoptimized {
            assert!(s.coverage_after + 1e-6 >= s.coverage_before);
        }
    }
}

#[test]
fn single_path_ppme_specializes_to_ppm_structure() {
    // With exploitation cost 0 and h = 0, PPME device placement solves the
    // same covering problem as PPM: the optimal device count matches.
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 5);
    let ne = pop.graph.edge_count();
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let k = 0.85;

    let ppm = solve_instance(&inst, &SolveRequest::ppm(k))
        .unwrap()
        .into_ppm()
        .unwrap();
    let prob =
        SamplingProblem::from_traffic_set(&pop.graph, &ts, 0.0, k, vec![1.0; ne], vec![0.0; ne]);
    let ppme = solve_ppme(&prob, &ExactOptions::default()).unwrap();
    assert_eq!(
        ppm.device_count(),
        ppme.device_count(),
        "zero-exploitation PPME must match PPM's optimal device count"
    );
}
