//! Figure 8: passive device placement on the 15-router POP
//! (71 links, 1980 traffics).
//!
//! X-axis: percentage of monitored traffic (75–100%); Y-axis: number of
//! devices, for the decreasing-load greedy and the exact solver. At this
//! scale the exact solver is the MECF branch-and-bound (min-cost-flow
//! bounds — the "branching algorithm" of the paper's Section 4.3); the
//! generic LP 2 MIP would sit on ~1000-row simplex solves per node. Each
//! solve gets a 50,000-node budget; the `proven_fraction` column reports how
//! many seeded runs closed the search (unproven rows are upper bounds from
//! the best incumbent). The paper averages 20 seeds; default here is 3 —
//! pass `--seeds 20` to match.
//!
//! Expected shape (paper): three regimes — linear 75–85%, steeper 85–95%,
//! then a sharp jump at 100%; devices range from ~16 to ~41 and the
//! greedy/exact gap is smaller than on the 10-router POP.
//!
//! The sweep runs through the scenario engine (`POPMON_THREADS` workers,
//! all cores by default); the CSV is byte-identical to a serial run.

use placement::passive::ExactOptions;
use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(3);
    let pop = PopSpec::paper_15().build();
    let opts = ExactOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let r = popmon_bench::scenarios::fig8_report(
        &engine::Engine::from_env(),
        &pop,
        &[75, 80, 85, 90, 95, 100],
        args.seeds,
        &opts,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
