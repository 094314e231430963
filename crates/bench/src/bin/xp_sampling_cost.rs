//! Section 5 extension experiment: `PPME(h, k)` setup + exploitation cost
//! as the global target `k` sweeps, on the compact `PopSpec::small` POP
//! (5 routers) with multi-routed traffics (2 routes per pair).
//!
//! The paper describes Linear Program 3 but does not plot it; this
//! experiment records the cost structure its MILP produces. The
//! fixed-charge MILP is solved with a 2% relative gap tolerance on the
//! small preset because proving optimality on the 27-link `paper_10` POP
//! is slow. The setup cost
//! is a staircase (devices are discrete) while the exploitation cost grows
//! smoothly with `k`, and a per-traffic floor `h` raises the baseline.
//!
//! The (h, k) grid runs through the scenario engine (`POPMON_THREADS`
//! workers, all cores by default); the per-seed multi-routed traffic is
//! built once and shared by all grid points, and the CSV is
//! byte-identical to a serial run.

use placement::passive::ExactOptions;
use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(3);
    let pop = PopSpec::small().build();
    let mut points: Vec<(u32, u32)> = Vec::new();
    for &h_pct in &[0u32, 20] {
        for k_pct in [40, 50, 60, 70, 80, 90, 95] {
            if h_pct <= k_pct {
                points.push((h_pct, k_pct));
            }
        }
    }
    let opts = ExactOptions {
        rel_gap: 0.02,
        ..Default::default()
    };
    let r = popmon_bench::scenarios::sampling_cost_report(
        &engine::Engine::from_env(),
        &pop,
        &points,
        args.seeds,
        &opts,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
