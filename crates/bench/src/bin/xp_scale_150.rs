//! Section 7 extension: "we are also currently testing our solution on
//! larger POPs, with at least 150 routers."
//!
//! Runs the whole pipeline once on the 150-router preset and reports the
//! sizes: passive placement (greedy + MECF branch-and-bound at k = 0.9)
//! and active monitoring (probes + all three placements with the full
//! router set as candidates).
//!
//! The passive and active halves are independent, so they run as two jobs
//! on the scenario engine's worker pool (`POPMON_THREADS` workers, all
//! cores by default): with two or more workers the exact
//! branch-and-bound overlaps the active half, which computes the probe
//! set Φ and the ILP beacon placement once each. Row order is fixed
//! regardless of completion order, and CI diffs a serial and a 4-worker
//! run.
//!
//! The branch-and-bound stops at 200,000 nodes without proving its
//! incumbent optimal; a ten-times larger budget ends with the same
//! unproven 34 devices at roughly ten times the run time.

use placement::passive::ExactOptions;
use popgen::{PopSpec, TrafficSpec};

fn main() {
    let args = popmon_bench::parse_args(1);
    let spec = PopSpec::large_150();
    let pop = spec.build();
    let mut out = String::new();
    out.push_str("metric,value\n");
    out.push_str(&format!("routers,{}\n", pop.router_count()));
    out.push_str(&format!("links,{}\n", pop.graph.edge_count()));

    let ts = TrafficSpec::default().generate(&pop, 0);
    out.push_str(&format!("traffics,{}\n", ts.len()));

    let opts = ExactOptions {
        max_nodes: 200_000,
        ..Default::default()
    };
    let report = popmon_bench::scenarios::pipeline_stage_report(
        &engine::Engine::from_env(),
        &pop,
        &ts,
        0.9,
        &opts,
    );
    for row in &report.rows {
        out.push_str(row);
        out.push('\n');
    }
    popmon_bench::emit_text(&out, args.out.as_deref());
}
