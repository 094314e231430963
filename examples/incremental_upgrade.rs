//! Incremental deployment (paper Sections 1 and 4.3): an operator already
//! runs a monitoring deployment and wants to (a) know what a coverage
//! upgrade costs when installed taps cannot move, and (b) estimate the
//! gain of buying a few more devices before committing budget.
//!
//! Both are exact solve requests on a [`DeltaInstance`] with the installed
//! base pinned: one walks the coverage targets, one the device budgets,
//! each re-solving warm from the previous point.
//!
//! Run with: `cargo run --release --example incremental_upgrade`

use popmon::placement::delta::DeltaInstance;
use popmon::placement::instance::PpmInstance;
use popmon::placement::solve::{solve_instance, SolveRequest};
use popmon::popgen::{PopSpec, TrafficSpec};

fn main() {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 123);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let ppm = |chain: &mut DeltaInstance, k: f64| {
        chain
            .solve(&SolveRequest::ppm(k))
            .expect("valid request")
            .into_ppm()
            .expect("feasible")
    };

    // Year one: the operator deployed an optimal k = 0.8 architecture.
    let base = solve_instance(&inst, &SolveRequest::ppm(0.8))
        .expect("valid request")
        .into_ppm()
        .expect("feasible");
    println!(
        "installed base: {} devices covering {:.1}% of the traffic",
        base.device_count(),
        100.0 * base.coverage_fraction()
    );

    // Year two: upgrade targets, devices cannot move.
    let mut pinned = DeltaInstance::from_instance(&inst);
    pinned
        .try_set_installed(&base.edges)
        .expect("base links are in range");
    let mut scratch_chain = DeltaInstance::from_instance(&inst);
    println!("\nupgrade cost (installed devices are pinned):");
    println!("  target | total devices | from-scratch optimum | pin penalty");
    for k_pct in [90, 95, 100] {
        let k = k_pct as f64 / 100.0;
        let inc = ppm(&mut pinned, k);
        let scratch = ppm(&mut scratch_chain, k);
        println!(
            "    {k_pct}%  |      {:>2}       |          {:>2}          |     {}",
            inc.device_count(),
            scratch.device_count(),
            inc.device_count() - scratch.device_count()
        );
    }

    // Procurement: what does each extra device buy?
    println!("\nexpected gain of buying devices (placed optimally on the base):");
    let before = inst.coverage(&base.edges);
    for extra in 1..=4usize {
        let after = pinned
            .solve(&SolveRequest::budget(extra))
            .expect("valid request")
            .into_budget()
            .expect("budget request");
        let gain = (after.coverage - before).max(0.0);
        println!(
            "  +{extra} device(s): +{:.1} volume -> {:.1}% coverage",
            gain,
            100.0 * after.coverage_fraction()
        );
    }
}
