//! Section 5.4 experiment: the threshold controller under evolving
//! traffic.
//!
//! Devices are placed once (exact `PPM(0.95)` on the initial matrix);
//! volumes then follow the geometric random walk with drastic shift events
//! of `popgen::dynamic`. The controller re-optimizes the sampling rates
//! (`PPME*(x, h, k)`, a pure LP) whenever coverage drops below the
//! tolerance threshold `T`.
//!
//! One trajectory runs per seed in `0..--seeds` (default 1); trajectories
//! fan out across the scenario engine's worker pool and traces are printed
//! seed-major. Output: one row per step — seed, coverage before/after,
//! whether the controller acted, and the exploitation cost of the rates in
//! force. A summary line per seed on stderr reports the re-optimization
//! count (the paper's point: adapting rates is cheap; moving devices is
//! not).

use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(1);
    let steps = (60.0 * args.scale) as usize;
    let pop = PopSpec::paper_10().build();

    let (report, outcomes) = popmon_bench::scenarios::dynamic_traffic_report(
        &engine::Engine::from_env(),
        &pop,
        args.seeds,
        steps,
    );
    popmon_bench::emit_reports(&[&report], args.out.as_deref());
    for (seed, o) in outcomes.iter().enumerate() {
        eprintln!(
            "# seed {seed}: installed {} devices for k = 0.95; reoptimizations: {} / {} steps",
            o.devices, o.reoptimizations, o.steps
        );
    }
}
