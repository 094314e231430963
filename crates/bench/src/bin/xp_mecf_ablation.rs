//! Section 4.3 ablation: the greedy family against the exact ILP.
//!
//! The paper's MECF view says the classical greedy *is* a min-cost flow on
//! the relaxed auxiliary graph. This experiment compares, on the 10-router
//! POP across `k`, the four solvers the framework provides:
//! static decreasing-load greedy, adaptive (set-cover) greedy, the MECF
//! flow greedy, and the exact ILP — device counts averaged over seeds.
//!
//! The sweep runs through the scenario engine (`POPMON_THREADS` workers,
//! all cores by default); each seed's chain builds its instance once for
//! all k-points, and the CSV is byte-identical to a serial run.

use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(10);
    let pop = PopSpec::paper_10().build();
    let r = popmon_bench::scenarios::mecf_ablation_report(
        &engine::Engine::from_env(),
        &pop,
        &[60, 70, 75, 80, 85, 90, 95, 100],
        args.seeds,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
