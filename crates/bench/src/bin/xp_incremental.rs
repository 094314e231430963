//! Sections 1 / 4.3 experiment: incremental deployment and the expected
//! gain of buying devices.
//!
//! Protocol: place an optimal deployment for `k = 0.8` on the 10-router
//! POP, then (a) compute how many *additional* devices each higher target
//! needs when the installed devices cannot move, versus a from-scratch
//! optimal deployment; (b) report the coverage gain of buying 1..5 extra
//! devices placed optimally on top of the base.
//!
//! Both sections run through the scenario engine (`POPMON_THREADS`
//! workers, all cores by default); each seed's chain solves the
//! `PPM(0.8)` base once for every point of a section. The CSV is
//! byte-identical to a serial run.

use popgen::PopSpec;

fn main() {
    let args = popmon_bench::parse_args(5);
    let pop = PopSpec::paper_10().build();
    let engine = engine::Engine::from_env();
    let up =
        popmon_bench::scenarios::incremental_report(&engine, &pop, &[85, 90, 95, 100], args.seeds);
    let gain =
        popmon_bench::scenarios::budget_gain_report(&engine, &pop, &[1, 2, 3, 4, 5], args.seeds);
    popmon_bench::emit_reports(&[&up, &gain], args.out.as_deref());
}
