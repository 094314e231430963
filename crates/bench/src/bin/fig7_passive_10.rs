//! Figure 7: passive device placement on the 10-router POP
//! (27 links, 132 traffics).
//!
//! X-axis: percentage of monitored traffic (75–100%); Y-axis: number of
//! devices, for the decreasing-load greedy and the exact ILP. The paper
//! averages 20 seeded runs; pass `--seeds 20` to match (default 10).
//!
//! Expected shape (paper): the ILP curve is near-linear up to 95% and
//! jumps hard at 100% ("we need twice more devices to monitor extra 5%");
//! the greedy uses about twice as many devices.
//!
//! The sweep runs through the scenario engine: k × seed cases fan out
//! across `POPMON_THREADS` workers (all cores by default), each seed's
//! chain builds its instance once for all k-points, and the CSV is
//! byte-identical to a serial run (`tests/engine_parity.rs`).

use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(10);
    let pop = PopSpec::paper_10().build();
    let r = popmon_bench::scenarios::fig7_report(
        &engine::Engine::from_env(),
        &pop,
        &[75, 80, 85, 90, 95, 100],
        args.seeds,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
