//! Chain-equals-fresh regression: a [`DeltaInstance`] walking a sweep
//! grid (warm-started solves, one model per structure) must reproduce the
//! device counts of cold solves, point for point, on the seed-0 state of
//! each experiment grid.
//!
//! This is the correctness half of the warm-start layer's contract (the
//! speed half is `popbench`'s `serve_whatif` workload): the chains reuse
//! *bases*, never answers, so every proven-optimal count must agree with
//! a fresh [`solve_instance`] or, once a base is installed, with a fresh
//! chain per grid point — the cold solves scenarios.rs used to make per
//! grid point.

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::passive::PpmSolution;
use placement::solve::{solve_instance, SolveRequest};
use popgen::{PopSpec, TrafficSpec};

fn seed0_instance() -> PpmInstance {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 0);
    PpmInstance::from_traffic(&pop.graph, &ts)
}

/// A cold exact `PPM(k)` solve, nothing installed.
fn fresh_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    solve_instance(inst, &SolveRequest::ppm(k))
        .unwrap()
        .into_ppm()
}

/// A fresh chain with `installed` pinned: its first solve is cold.
fn fresh_chain(inst: &PpmInstance, installed: &[usize]) -> DeltaInstance {
    let mut chain = DeltaInstance::from_instance(inst);
    chain.try_set_installed(installed).unwrap();
    chain
}

/// The fig7 k-grid: chained exact solves vs. fresh [`solve_instance`].
#[test]
fn fig7_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let mut chain = DeltaInstance::from_instance(&inst);
    for k_pct in [75u32, 80, 85, 90, 95, 100] {
        let k = k_pct as f64 / 100.0;
        let chained = chain
            .solve(&SolveRequest::ppm(k))
            .unwrap()
            .into_ppm()
            .expect("coverable");
        let fresh = fresh_ppm(&inst, k).expect("coverable");
        assert_eq!(
            chained.device_count(),
            fresh.device_count(),
            "chained exact diverged from fresh at k = {k_pct}%"
        );
        assert!(chained.proven_optimal && fresh.proven_optimal);
        assert!(inst.is_feasible(&chained.edges, k));
    }
}

/// The xp_incremental upgrade grid: a frozen `PPM(0.8)` base, chained
/// re-targets vs. a fresh chain with the base pinned at every higher k.
#[test]
fn incremental_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let base = fresh_ppm(&inst, 0.8).expect("PPM(0.8) feasible");

    let mut chain = DeltaInstance::from_instance(&inst);
    chain.try_set_installed(&base.edges).unwrap();
    for k_pct in [85u32, 90, 95, 100] {
        let k = k_pct as f64 / 100.0;
        let chained = chain
            .solve(&SolveRequest::ppm(k))
            .unwrap()
            .into_ppm()
            .expect("feasible");
        let fresh = fresh_chain(&inst, &base.edges)
            .solve(&SolveRequest::ppm(k))
            .unwrap()
            .into_ppm()
            .expect("feasible");
        assert_eq!(
            chained.device_count(),
            fresh.device_count(),
            "chained incremental diverged from fresh at k = {k_pct}%"
        );
        for &e in &base.edges {
            assert!(chained.edges.contains(&e), "installed device {e} must stay");
        }
        assert!(inst.is_feasible(&chained.edges, k));
    }
}

/// The xp_incremental buy-devices grid: chained budget solves vs. a fresh
/// chain per point over the extras grid on top of the `PPM(0.8)` base.
#[test]
fn budget_grid_chain_matches_fresh() {
    let inst = seed0_instance();
    let base = fresh_ppm(&inst, 0.8).expect("PPM(0.8) feasible");

    let mut chain = DeltaInstance::from_instance(&inst);
    chain.try_set_installed(&base.edges).unwrap();
    for extra in [1usize, 2, 3, 4, 5] {
        let chained = chain
            .solve(&SolveRequest::budget(extra))
            .unwrap()
            .into_budget()
            .expect("budget");
        let fresh = fresh_chain(&inst, &base.edges)
            .solve(&SolveRequest::budget(extra))
            .unwrap()
            .into_budget()
            .expect("budget");
        assert!(
            (chained.coverage - fresh.coverage).abs() < 1e-6,
            "chained budget diverged from fresh at extra = {extra}: {} vs {}",
            chained.coverage,
            fresh.coverage
        );
        assert!(chained.proven_optimal && fresh.proven_optimal);
    }
}
