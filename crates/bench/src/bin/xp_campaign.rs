//! Section 7 extension: measurement campaigns — re-route traffic to
//! maximize the monitored ratio for a fixed deployment.
//!
//! Protocol: place an optimal `PPM(k0)` deployment on the 10-router POP,
//! then sweep the allowed stretch budget (as a fraction of the budget the
//! unconstrained campaign would use) and report the coverage recaptured by
//! the greedy and exact campaign solvers with 3 candidate routes per
//! traffic.
//!
//! The sweep runs through the scenario engine: budget × seed cases fan out
//! across `POPMON_THREADS` workers (all cores by default), the per-seed
//! deployment is solved once and shared by all budget points, and the report is
//! byte-identical to a serial run (`tests/engine_parity.rs`).

use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(5);
    let pop = PopSpec::paper_10().build();
    let budgets = [0u32, 10, 25, 50, 100];
    let r = popmon_bench::scenarios::campaign_report(
        &engine::Engine::from_env(),
        &pop,
        &budgets,
        args.seeds,
    );
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
