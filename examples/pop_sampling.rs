//! Sampling-capable monitoring (paper Section 5) and the dynamic-traffic
//! controller (Section 5.4).
//!
//! Scenario: an operator wants 90% of the traffic monitored but devices
//! cannot sample at 100% on fast links; each device has a setup cost and
//! an exploitation cost proportional to its sampling rate. After the
//! initial `PPME(h, k)` deployment, traffic drifts and the operator adapts
//! only the sampling rates — never the device positions.
//!
//! Run with: `cargo run --release --example pop_sampling`

use popmon::placement::dynamic::{run_controller, ControllerSpec};
use popmon::placement::passive::ExactOptions;
use popmon::placement::sampling::{solve_ppme, SamplingProblem};
use popmon::popgen::dynamic::{DynamicSpec, TrafficProcess};
use popmon::popgen::{PopSpec, TrafficSpec};

fn main() {
    // The fixed-charge PPME MILP is solved on a compact POP: with one
    // install binary per link, proving optimality on the 27-link
    // `paper_10` POP is slow (the `xp_sampling_cost` sweep in DESIGN.md's
    // experiment index uses the same preset for the same reason).
    let pop = PopSpec::small().build();
    let ne = pop.graph.edge_count();

    // Multi-routed traffics: load balancing spreads each demand on up to
    // two shortest routes.
    let multi = TrafficSpec::default().generate_multi(&pop, 7, 2);
    let (setup, exploit) = SamplingProblem::uniform_costs(ne);
    let prob = SamplingProblem::from_multi(&pop.graph, &multi, 0.2, 0.9, setup, exploit);

    let sol = solve_ppme(&prob, &ExactOptions::default()).expect("feasible");
    prob.check_solution(&sol.installed, &sol.rates, 1e-5)
        .expect("valid");
    println!(
        "PPME(h=0.2, k=0.9): {} devices, setup cost {:.1}, exploitation cost {:.2}",
        sol.device_count(),
        sol.setup_cost,
        sol.exploit_cost
    );
    for e in 0..ne {
        if sol.installed[e] {
            let (u, v) = pop.graph.endpoints(popmon::netgraph::EdgeId(e as u32));
            println!(
                "  link {} -- {}: sampling rate {:.0}%",
                pop.graph.label(u),
                pop.graph.label(v),
                100.0 * sol.rates[e]
            );
        }
    }

    // Dynamic phase: single-path snapshot traffic, evolving volumes; the
    // controller re-optimizes rates when coverage sinks below T = 0.85.
    let ts = TrafficSpec::default().generate(&pop, 7);
    let spec = ControllerSpec {
        k: 0.9,
        h: 0.0,
        threshold: 0.85,
    };
    let drift = DynamicSpec {
        shift_probability: 0.3,
        ..Default::default()
    };
    let mut process = TrafficProcess::new(ts, drift, 99);
    let trace = run_controller(
        &mut process,
        &pop.graph,
        &sol.installed,
        &spec,
        vec![1.0; ne],
        vec![0.5; ne],
        40,
    );
    println!(
        "\ncontroller: {} re-optimizations over {} steps",
        trace.reoptimizations,
        trace.steps.len()
    );
    let dips = trace
        .steps
        .iter()
        .filter(|s| s.coverage_before < spec.threshold)
        .count();
    println!(
        "coverage dipped below T = {} at {} steps; every dip was repaired",
        spec.threshold, dips
    );
    for s in trace.steps.iter().filter(|s| s.reoptimized).take(5) {
        println!(
            "  step {:>3}: coverage {:.1}% -> {:.1}% (exploitation cost {:.2})",
            s.step,
            100.0 * s.coverage_before,
            100.0 * s.coverage_after,
            s.exploit_cost
        );
    }
}
