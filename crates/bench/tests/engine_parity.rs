//! Parity regression: the engine-backed experiment sweeps must produce
//! **byte-identical** reports whether they run serially or across a worker
//! pool. This is the determinism contract every future perf PR has to
//! keep.

use engine::Engine;
use popgen::PopSpec;
use popmon_bench::scenarios;

#[test]
fn campaign_sweep_parallel_matches_serial() {
    // The small preset keeps the exact campaign MIP cheap; the 10-router
    // sweep is the binary's job, not the regression suite's.
    let pop = PopSpec::small().build();
    let budgets = [0u32, 50, 100];
    let serial = scenarios::campaign_report(&Engine::serial(), &pop, &budgets, 2);
    let parallel = scenarios::campaign_report(&Engine::with_threads(4), &pop, &budgets, 2);
    assert!(Engine::with_threads(4).threads() >= 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // Sanity: one row per budget point, header intact.
    assert_eq!(serial.rows.len(), budgets.len());
    assert!(serial.header.starts_with("budget_percent,"));
}

#[test]
fn dynamic_traffic_parallel_matches_serial() {
    let pop = PopSpec::paper_10().build();
    let (serial, s_out) = scenarios::dynamic_traffic_report(&Engine::serial(), &pop, 3, 8);
    let (parallel, p_out) = scenarios::dynamic_traffic_report(&Engine::with_threads(3), &pop, 3, 8);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.rows.len(), 3 * 8, "3 seeds x 8 steps, seed-major");
    for (a, b) in s_out.iter().zip(&p_out) {
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.reoptimizations, b.reoptimizations);
    }
}

#[test]
fn active_sweep_parallel_matches_serial() {
    let pop = PopSpec::small().build();
    let (graph, _) = pop.router_subgraph();
    let sizes: Vec<usize> = (2..=graph.node_count()).collect();
    let serial = scenarios::active_report(&Engine::serial(), &graph, &sizes, 2);
    let parallel = scenarios::active_report(&Engine::with_threads(4), &graph, &sizes, 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(
        serial.rows.len(),
        graph.node_count() - 1,
        "|V_B| sweeps 2..=n"
    );
}

#[test]
fn fig7_sweep_parallel_matches_serial() {
    let pop = PopSpec::paper_10().build();
    let serial = scenarios::fig7_report(&Engine::serial(), &pop, &[80, 90], 2);
    let parallel = scenarios::fig7_report(&Engine::with_threads(4), &pop, &[80, 90], 2);
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "fig7 must be thread-count invariant"
    );
    assert_eq!(serial.rows.len(), 2);
}

#[test]
fn fig8_sweep_parallel_matches_serial() {
    let pop = PopSpec::paper_15().build();
    // k = 75% closes in well under a second; the heavier points belong to
    // the binary.
    let opts = placement::passive::ExactOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let serial = scenarios::fig8_report(&Engine::serial(), &pop, &[75], 1, &opts);
    let parallel = scenarios::fig8_report(&Engine::with_threads(4), &pop, &[75], 1, &opts);
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "fig8 must be thread-count invariant"
    );
}

#[test]
fn mecf_ablation_parallel_matches_serial() {
    let pop = PopSpec::paper_10().build();
    let serial = scenarios::mecf_ablation_report(&Engine::serial(), &pop, &[75, 90], 2);
    let parallel = scenarios::mecf_ablation_report(&Engine::with_threads(4), &pop, &[75, 90], 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn cascade_parallel_matches_serial() {
    let pop = PopSpec::small().build();
    let serial = scenarios::cascade_report(&Engine::serial(), &pop, &[50, 80], 2);
    let parallel = scenarios::cascade_report(&Engine::with_threads(4), &pop, &[50, 80], 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn sampling_cost_parallel_matches_serial() {
    let pop = PopSpec::small().build();
    let points = [(0u32, 50u32), (20, 60)];
    let opts = placement::passive::ExactOptions {
        rel_gap: 0.02,
        ..Default::default()
    };
    let serial = scenarios::sampling_cost_report(&Engine::serial(), &pop, &points, 2, &opts);
    let parallel =
        scenarios::sampling_cost_report(&Engine::with_threads(4), &pop, &points, 2, &opts);
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn incremental_sweeps_parallel_match_serial() {
    let pop = PopSpec::paper_10().build();
    let serial = scenarios::incremental_report(&Engine::serial(), &pop, &[90, 100], 2);
    let parallel = scenarios::incremental_report(&Engine::with_threads(4), &pop, &[90, 100], 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    let serial = scenarios::budget_gain_report(&Engine::serial(), &pop, &[1, 3], 2);
    let parallel = scenarios::budget_gain_report(&Engine::with_threads(4), &pop, &[1, 3], 2);
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn topology_families_parallel_matches_serial() {
    use popmon_bench::scenarios::FamilyPoint;
    // One point per family plus a second density so cross-point RNG
    // interference would surface; every column is deterministic (the
    // exact solver is node-bounded, never wall-clock-bounded).
    let mut points = Vec::new();
    for family in ["waxman", "ba", "hier"] {
        for density_pct in [60u32, 100] {
            points.push(FamilyPoint {
                family,
                routers: 10,
                density_pct,
            });
        }
    }
    let opts = scenarios::family_exact_options();
    let serial = scenarios::topology_families_report(&Engine::serial(), &points, 2, 0.9, &opts);
    let parallel =
        scenarios::topology_families_report(&Engine::with_threads(4), &points, 2, 0.9, &opts);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.rows.len(), points.len());
    assert!(serial.header.starts_with("family,"));
}

#[test]
fn resilience_parallel_matches_serial() {
    use popmon_bench::scenarios::ResiliencePoint;
    // Two families x two intensities: per-seed chains walk a family's
    // whole intensity group through one warm DeltaInstance, so a
    // thread-count-dependent chain split would surface here.
    let mut points = Vec::new();
    for family in ["waxman", "ba"] {
        for rate_pct in [5u32, 30] {
            points.push(ResiliencePoint {
                family,
                routers: 10,
                rate_pct,
            });
        }
    }
    let serial = scenarios::resilience_report(&Engine::serial(), &points, 2, 24);
    let parallel = scenarios::resilience_report(&Engine::with_threads(4), &points, 2, 24);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.rows.len(), points.len());
    assert!(serial.header.starts_with("family,"));
}

#[test]
fn pipeline_stages_parallel_match_serial_values() {
    use popgen::TrafficSpec;
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 0);
    let opts = placement::passive::ExactOptions::default();
    let serial =
        scenarios::pipeline_stage_report(&Engine::serial(), &pop, &ts, 0.9, &opts).to_csv();
    let parallel =
        scenarios::pipeline_stage_report(&Engine::with_threads(4), &pop, &ts, 0.9, &opts).to_csv();
    assert_eq!(serial, parallel);
}
