//! Golden regression tests pinning the deterministic seed-0 outputs of the
//! passive placement figures (the `fig7_passive_10` / `fig8_passive_15`
//! logic), so future solver refactors cannot silently change the paper's
//! reproduced results.
//!
//! The pinned integers were produced by the frozen seed-0 pipeline:
//! `TrafficSpec::default().generate(&pop, 0)` through the in-tree `rand`
//! shim (xoshiro256** / SplitMix64 — platform-independent), then the
//! greedy and exact passive solvers. If a change moves any of these
//! numbers, either it introduced a bug or it deliberately changed solver /
//! generator semantics — in the latter case re-derive the constants with
//! `cargo run --release -p popmon-bench --bin fig7_passive_10 -- --seeds 1`
//! (and fig8), and say so in the changelog.

use engine::Engine;
use placement::instance::PpmInstance;
use placement::passive::{greedy_static, solve_ppm_mecf_bb, ExactOptions};
use placement::solve::{solve_instance, SolveRequest};
use popgen::{PopSpec, TrafficSpec};
use popmon_bench::scenarios;

/// Figure 7 (10-router POP, 27 links, 132 traffics), seed 0: greedy and
/// exact ILP device counts over the paper's k sweep.
#[test]
fn fig7_passive_10_golden_seed0() {
    let pop = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop, 0);
    assert_eq!(pop.graph.edge_count(), 27, "paper_10 POP has 27 links");
    assert_eq!(ts.len(), 132, "paper_10 traffic matrix has 132 traffics");

    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let golden = [
        (75, 8, 4),
        (80, 8, 5),
        (85, 10, 5),
        (90, 13, 6),
        (95, 15, 7),
        (100, 18, 11),
    ];
    for (k_pct, greedy_want, ilp_want) in golden {
        let k = k_pct as f64 / 100.0;
        let g = greedy_static(&inst, k).expect("coverable");
        assert_eq!(
            g.device_count(),
            greedy_want,
            "fig7 greedy device count moved at k = {k_pct}%"
        );
        assert!(inst.is_feasible(&g.edges, k));
        let ilp = solve_instance(&inst, &SolveRequest::ppm(k))
            .unwrap()
            .into_ppm()
            .expect("feasible");
        assert_eq!(
            ilp.device_count(),
            ilp_want,
            "fig7 exact device count moved at k = {k_pct}%"
        );
        assert!(inst.is_feasible(&ilp.edges, k));
        assert!(
            ilp.proven_optimal,
            "fig7 exact solve must close at k = {k_pct}%"
        );
    }
}

/// Figure 8 (15-router POP, 71 links, 1980 traffics), seed 0: the greedy
/// sweep plus one proven exact point (k = 75%, where the MECF
/// branch-and-bound closes quickly; the slower unproven points belong to
/// the binary, not the regression suite).
#[test]
fn fig8_passive_15_golden_seed0() {
    let pop = PopSpec::paper_15().build();
    let ts = TrafficSpec::default().generate(&pop, 0);
    assert_eq!(pop.graph.edge_count(), 71, "paper_15 POP has 71 links");
    assert_eq!(ts.len(), 1980, "paper_15 traffic matrix has 1980 traffics");

    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let golden_greedy = [(75, 13), (80, 14), (85, 15), (90, 18), (95, 32), (100, 57)];
    for (k_pct, want) in golden_greedy {
        let k = k_pct as f64 / 100.0;
        let g = greedy_static(&inst, k).expect("coverable");
        assert_eq!(
            g.device_count(),
            want,
            "fig8 greedy device count moved at k = {k_pct}%"
        );
        assert!(inst.is_feasible(&g.edges, k));
    }

    let opts = ExactOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let s = solve_ppm_mecf_bb(&inst, 0.75, &opts).expect("feasible");
    assert_eq!(
        s.device_count(),
        9,
        "fig8 exact device count moved at k = 75%"
    );
    assert!(
        s.proven_optimal,
        "fig8 exact k = 75% must close within the node budget"
    );
    assert!(inst.is_feasible(&s.edges, 0.75));
}

/// Figure 7 at the report level: the full engine-backed sweep, seed 0,
/// every column. Complements the
/// solver-level pins above by also freezing the CSV rendering.
#[test]
fn fig7_report_golden_seed0() {
    let pop = PopSpec::paper_10().build();
    let r = scenarios::fig7_report(&Engine::serial(), &pop, &[75, 80, 85, 90, 95, 100], 1);
    assert_eq!(
        r.rows,
        [
            "75,8.00,4.00,0.00,0.00",
            "80,8.00,5.00,0.00,0.00",
            "85,10.00,5.00,0.00,0.00",
            "90,13.00,6.00,0.00,0.00",
            "95,15.00,7.00,0.00,0.00",
            "100,18.00,11.00,0.00,0.00",
        ],
        "fig7 seed-0 report rows moved"
    );
}

/// Figure 8 at the report level, seed 0, on the two k-points the MECF
/// branch-and-bound closes quickly (the slower unproven points belong to
/// the binary, not the regression suite).
#[test]
fn fig8_report_golden_seed0() {
    let pop = PopSpec::paper_15().build();
    let opts = ExactOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let r = scenarios::fig8_report(&Engine::serial(), &pop, &[75, 80], 1, &opts);
    assert_eq!(
        r.rows,
        ["75,13.00,9.00,1.00", "80,14.00,10.00,1.00"],
        "fig8 seed-0 report rows moved"
    );
}

/// Figure 9 (15-router POP), seed 0: the full `|V_B|` sweep — Thiran,
/// greedy, and ILP beacon counts plus the probe-set size per point.
#[test]
fn fig9_active_15_golden_seed0() {
    let pop = PopSpec::paper_15().build();
    let (graph, _) = pop.router_subgraph();
    let sizes: Vec<usize> = (2..=graph.node_count()).collect();
    let r = scenarios::active_report(&Engine::serial(), &graph, &sizes, 1);
    assert_eq!(
        r.rows,
        [
            "2,1.00,1.00,1.00,1.0",
            "3,2.00,2.00,2.00,3.0",
            "4,2.00,2.00,2.00,2.0",
            "5,4.00,2.00,2.00,4.0",
            "6,4.00,3.00,3.00,6.0",
            "7,4.00,3.00,3.00,6.0",
            "8,4.00,3.00,3.00,7.0",
            "9,6.00,5.00,4.00,8.0",
            "10,6.00,4.00,4.00,9.0",
            "11,6.00,5.00,5.00,10.0",
            "12,7.00,6.00,6.00,11.0",
            "13,10.00,6.00,6.00,13.0",
            "14,10.00,7.00,7.00,12.0",
            "15,10.00,8.00,7.00,13.0",
        ],
        "fig9 seed-0 beacon counts moved"
    );
}

/// Figures 10 and 11 (29- and 80-router POPs), seed 0: representative
/// `|V_B|` points of each sweep (a case depends only on its own
/// `(size, seed)`, so these rows are byte-identical to the full sweep's).
#[test]
fn fig10_fig11_active_golden_seed0() {
    let (g29, _) = PopSpec::paper_29().build().router_subgraph();
    let r29 = scenarios::active_report(&Engine::serial(), &g29, &[10, 20, 29], 1);
    assert_eq!(
        r29.rows,
        [
            "10,6.00,5.00,5.00,11.0",
            "20,10.00,8.00,7.00,13.0",
            "29,16.00,11.00,11.00,19.0"
        ],
        "fig10 seed-0 beacon counts moved"
    );

    let (g80, _) = PopSpec::paper_80().build().router_subgraph();
    let r80 = scenarios::active_report(&Engine::serial(), &g80, &[10, 40, 80], 1);
    assert_eq!(
        r80.rows,
        [
            "10,4.00,4.00,4.00,10.0",
            "40,19.00,18.00,16.00,26.0",
            "80,39.00,33.00,33.00,53.0"
        ],
        "fig11 seed-0 beacon counts moved"
    );
}

/// The MECF ablation (section 4.3), seed 0: all five solvers across the
/// full k sweep on the 10-router POP.
#[test]
fn mecf_ablation_golden_seed0() {
    let pop = PopSpec::paper_10().build();
    let r = scenarios::mecf_ablation_report(
        &Engine::serial(),
        &pop,
        &[60, 70, 75, 80, 85, 90, 95, 100],
        1,
    );
    assert_eq!(
        r.rows,
        [
            "60,4.00,3.00,4.00,3.00,3.00",
            "70,7.00,4.00,7.00,4.00,4.00",
            "75,8.00,4.00,8.00,4.00,4.00",
            "80,8.00,5.00,8.00,5.00,5.00",
            "85,10.00,5.00,9.00,5.00,5.00",
            "90,13.00,6.00,10.00,6.00,6.00",
            "95,15.00,7.00,12.00,7.00,7.00",
            "100,18.00,11.00,14.00,11.00,11.00",
        ],
        "mecf ablation seed-0 device counts moved"
    );
}

/// The cascade experiment (section 7 extension), seed 0: additive vs.
/// independent-sampling costs across k on the small POP.
#[test]
fn cascade_golden_seed0() {
    let pop = PopSpec::small().build();
    let r = scenarios::cascade_report(&Engine::serial(), &pop, &[40, 50, 60, 70, 80, 90], 1);
    assert_eq!(
        r.rows,
        [
            "40,1.21,1.21,0.0,40.0",
            "50,1.27,1.27,0.0,50.0",
            "60,1.32,1.32,0.0,60.0",
            "70,1.37,1.37,0.0,70.0",
            "80,1.42,1.42,0.0,80.0",
            "90,1.48,1.48,0.0,90.0",
        ],
        "cascade seed-0 costs moved"
    );
}

/// The PPME(h,k) cost sweep (section 5 extension), seed 0: device counts
/// and the setup/exploit cost split over the (h, k) grid.
#[test]
fn sampling_cost_golden_seed0() {
    let pop = PopSpec::small().build();
    let points: Vec<(u32, u32)> =
        [(0u32, 40u32), (0, 60), (0, 80), (0, 95), (20, 40), (20, 80)].to_vec();
    let opts = ExactOptions {
        rel_gap: 0.02,
        ..Default::default()
    };
    let r = scenarios::sampling_cost_report(&Engine::serial(), &pop, &points, 1, &opts);
    assert_eq!(
        r.rows,
        [
            "40,0,1.00,1.00,0.21,1.21",
            "60,0,1.00,1.00,0.32,1.32",
            "80,0,1.00,1.00,0.42,1.42",
            "95,0,2.00,2.00,0.63,2.63",
            "40,20,5.00,5.00,0.50,5.50",
            "80,20,5.00,5.00,0.71,5.71",
        ],
        "sampling-cost seed-0 rows moved"
    );
}

/// The incremental-deployment experiment, seed 0: frozen-device upgrade
/// totals and the buy-devices coverage gains.
#[test]
fn incremental_golden_seed0() {
    let pop = PopSpec::paper_10().build();
    let up = scenarios::incremental_report(&Engine::serial(), &pop, &[85, 90, 95, 100], 1);
    assert_eq!(
        up.rows,
        [
            "upgrade_to_k,85,5.00,5.00,0.00",
            "upgrade_to_k,90,6.00,6.00,0.00",
            "upgrade_to_k,95,7.00,7.00,0.00",
            "upgrade_to_k,100,11.00,11.00,0.00",
        ],
        "incremental seed-0 upgrade rows moved"
    );
    let gain = scenarios::budget_gain_report(&Engine::serial(), &pop, &[1, 3, 5], 1);
    assert_eq!(
        gain.rows,
        [
            "buy_devices,1,39.07,91.60,0",
            "buy_devices,3,75.33,97.13,0",
            "buy_devices,5,89.45,99.28,0",
        ],
        "incremental seed-0 gain rows moved"
    );
}

/// The instance-space sweep (`xp_topology_families`), seed 0: one small
/// instance per family. These rows freeze the *generators* (Waxman /
/// Barabási–Albert / hierarchical ISP edge sampling and the gravity
/// traffic model) on top of the solvers: a moved row means family
/// generation or solver semantics changed and must be re-derived
/// deliberately (`cargo run --release -p popmon-bench --bin
/// xp_topology_families -- --seeds 1`).
#[test]
fn topology_families_golden_seed0() {
    use popmon_bench::scenarios::FamilyPoint;
    let points = [
        FamilyPoint {
            family: "waxman",
            routers: 10,
            density_pct: 60,
        },
        FamilyPoint {
            family: "ba",
            routers: 10,
            density_pct: 60,
        },
        FamilyPoint {
            family: "hier",
            routers: 10,
            density_pct: 60,
        },
    ];
    let opts = scenarios::family_exact_options();
    let r = scenarios::topology_families_report(&Engine::serial(), &points, 1, 0.9, &opts);
    assert_eq!(
        r.rows,
        [
            "waxman,10,60,19.0,3.00,3.00,4.00",
            "ba,10,60,20.0,3.00,3.00,5.00",
            "hier,10,60,22.0,3.00,3.00,6.00",
        ],
        "family sweep seed-0 rows moved"
    );
}

/// The resilience campaign sweep (`xp_resilience`), seed 0: the shipped
/// binary's full default grid. These rows freeze the SRLG failure
/// sampler, the diurnal demand perturbation, the warm-chain ensemble
/// scorer, and both rival placements (the deterministic exact `PPM(0.9)`
/// optimum and the ensemble-aware `greedy_expected`) on top of the
/// family generators. They also pin the sweep's headline claim: the
/// stochastic-aware greedy beats the failure-blind optimum on expected
/// coverage wherever failures actually bite (e.g. every family at
/// `rate_pct = 15`). Re-derive deliberately with `cargo run --release
/// -p popmon-bench --bin xp_resilience -- --seeds 1`.
#[test]
fn resilience_golden_seed0() {
    use popmon_bench::scenarios::ResiliencePoint;
    let mut points = Vec::new();
    for family in ["waxman", "ba", "hier"] {
        for rate_pct in [0u32, 5, 15, 30] {
            points.push(ResiliencePoint {
                family,
                routers: 12,
                rate_pct,
            });
        }
    }
    let r = scenarios::resilience_report(&Engine::serial(), &points, 1, 64);
    assert_eq!(
        r.rows,
        [
            "waxman,12,0,3.00,0.9050,0.6119,0.6119,0.9050,0.6119,0.6119",
            "waxman,12,5,3.00,0.8778,0.3093,0.3093,0.8778,0.3093,0.3093",
            "waxman,12,15,3.00,0.7962,0.0000,0.0000,0.8031,0.3235,0.3235",
            "waxman,12,30,3.00,0.5979,0.0000,0.0000,0.6171,0.0000,0.0000",
            "ba,12,0,3.00,0.9020,0.7778,0.7778,0.9020,0.7778,0.7778",
            "ba,12,5,3.00,0.8358,0.0000,0.0000,0.8543,0.3896,0.3896",
            "ba,12,15,3.00,0.6679,0.0000,0.0000,0.7475,0.0000,0.0000",
            "ba,12,30,3.00,0.6060,0.0000,0.0000,0.6692,0.0000,0.0000",
            "hier,12,0,3.00,0.9043,0.6090,0.6090,0.9043,0.6090,0.6090",
            "hier,12,5,3.00,0.8812,0.3948,0.3948,0.8907,0.3948,0.3948",
            "hier,12,15,3.00,0.8037,0.2015,0.2015,0.8134,0.3390,0.3390",
            "hier,12,30,3.00,0.6432,0.0000,0.0000,0.6509,0.0000,0.0000",
        ],
        "resilience sweep seed-0 rows moved"
    );
    // The acceptance claim, asserted structurally rather than by eye:
    // at every 15%-intensity point the ensemble-aware greedy's expected
    // coverage strictly beats the deterministic optimum's.
    for row in r.rows.iter().filter(|row| row.contains(",15,")) {
        let cols: Vec<&str> = row.split(',').collect();
        let det: f64 = cols[4].parse().expect("det_expected parses");
        let sto: f64 = cols[7].parse().expect("sto_expected parses");
        assert!(
            sto > det,
            "stochastic greedy must beat the deterministic optimum at 15%: {row}"
        );
    }
}

/// The traffic generator itself is part of the figures' determinism
/// contract: same seed, same matrix; different seeds, different matrices.
#[test]
fn traffic_generation_is_deterministic() {
    let pop = PopSpec::paper_10().build();
    let a = TrafficSpec::default().generate(&pop, 7);
    let b = TrafficSpec::default().generate(&pop, 7);
    let c = TrafficSpec::default().generate(&pop, 8);
    let volumes = |ts: &popgen::TrafficSet| -> Vec<u64> {
        ts.traffics.iter().map(|t| t.volume.to_bits()).collect()
    };
    assert_eq!(
        volumes(&a),
        volumes(&b),
        "same seed must reproduce the same matrix"
    );
    assert_ne!(volumes(&a), volumes(&c), "different seeds must differ");
}
