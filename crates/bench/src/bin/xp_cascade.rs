//! Section 7 extension: the price of non-coordinated (cascade) sampling.
//!
//! Linear Program 3's additive rate model assumes packet marking; without
//! it, devices sample independently and overlapping rates waste samples
//! (`1 − Π(1−r)` < `Σ r`). This experiment compares, across `k`, the
//! optimal additive-model cost against the independent-sampling solver of
//! `placement::cascade`, reporting the overhead the refined model reveals.
//!
//! The sweep runs through the scenario engine (`POPMON_THREADS` workers,
//! all cores by default) with the per-seed multi-routed traffic built once
//! and shared by all k-points; the CSV is byte-identical to a serial run
//! (CI diffs a serial and a 4-worker run). The
//! crafted-overlap demonstration below it is deterministic and unswept.

use placement::cascade::{independent_monitored, solve_ppme_cascade};
use placement::passive::ExactOptions;
use placement::sampling::{solve_ppme, SamplingPath, SamplingProblem};
use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(3);
    let pop = PopSpec::small().build();
    let r = popmon_bench::scenarios::cascade_report(
        &engine::Engine::from_env(),
        &pop,
        &[40, 50, 60, 70, 80, 90],
        args.seeds,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());

    // Crafted overlap demonstration: two links, three paths. Per-traffic
    // floors force BOTH devices to high rates (h = 0.7 on the single-link
    // paths), so the shared path {0, 1} reads Σr = 1.4 additively but only
    // 1 − 0.3² = 0.91 under independent sampling — the overlap waste the
    // paper's Section 7 asks to model. At k = 0.8 the additive optimum
    // under-covers in reality and the cascade solver must pay extra.
    println!();
    println!("crafted_overlap,additive_cost,cascade_cost,overhead_percent,additive_true_coverage");
    let prob = SamplingProblem {
        num_edges: 2,
        paths: vec![
            SamplingPath {
                edges: vec![0, 1],
                volume: 10.0,
                traffic: 0,
            },
            SamplingPath {
                edges: vec![0],
                volume: 10.0,
                traffic: 1,
            },
            SamplingPath {
                edges: vec![1],
                volume: 10.0,
                traffic: 2,
            },
        ],
        num_traffics: 3,
        h: vec![0.7; 3],
        k: 0.8,
        setup_cost: vec![1.0; 2],
        exploit_cost: vec![2.0; 2],
    };
    let additive = solve_ppme(&prob, &ExactOptions::default()).expect("feasible");
    let cascade = solve_ppme_cascade(&prob, &ExactOptions::default()).expect("feasible");
    let actual = independent_monitored(&prob, &additive.rates);
    println!(
        "shared_links,{:.2},{:.2},{:.1},{:.1}",
        additive.total_cost(),
        cascade.total_cost(),
        100.0 * (cascade.total_cost() - additive.total_cost()) / additive.total_cost(),
        100.0 * actual / prob.total_volume(),
    );
}
