//! Monte-Carlo resilience campaigns across the topology families: for
//! every `family × size × SRLG-intensity` grid point, a seeded failure
//! ensemble (correlated SRLG group faults + independent link faults +
//! diurnal demand perturbation) scores two rival placements of equal
//! device count — the failure-blind deterministic exact `PPM(0.9)`
//! optimum and the ensemble-aware `greedy_expected` — head to head on
//! expected, p99-tail, and worst-case coverage.
//!
//! Every scenario is walked through one warm `DeltaInstance` chain per
//! `(family, size, seed)` (fail / scale / score / restore — never a cold
//! rebuild).
//!
//! `--scale S` multiplies the instance sizes; `--seeds N` averages seeded
//! instances per point. Runs through the scenario engine (`POPMON_THREADS`
//! workers, all cores by default); every column is deterministic, so the
//! CSV is byte-identical for any thread count (`tests/engine_parity.rs`,
//! with seed-0 rows pinned in `tests/golden_figures.rs`).

use popmon_bench::scenarios::{self, ResiliencePoint};

fn main() {
    let args = popmon_bench::parse_args(3);
    let routers = (((12f64) * args.scale).round() as usize).max(6);
    let rates = [0u32, 5, 15, 30];
    let mut points = Vec::new();
    for family in ["waxman", "ba", "hier"] {
        for &rate_pct in &rates {
            points.push(ResiliencePoint {
                family,
                routers,
                rate_pct,
            });
        }
    }
    let r = scenarios::resilience_report(&engine::Engine::from_env(), &points, args.seeds, 64);
    popmon_bench::emit_reports(&[&r], args.out.as_deref());
}
