//! Differential testing over the open instance space: random family
//! instances (Waxman / Barabási–Albert / hierarchical ISP) with gravity
//! traffic, checked against the `PPM(k)` coverage invariant and the
//! greedy-vs-exact ordering — the bnb-vs-exhaustive pattern of
//! `coin-select`, applied to placement. Complements
//! `proptest_passive.rs`, which draws abstract supports; here the
//! instances come from *routed topologies*, end to end.

use placement::instance::PpmInstance;
use placement::passive::{greedy_static, PpmSolution};
use placement::solve::{solve_instance, SolveRequest};
use popgen::{FamilySpec, GravitySpec, Pop, TrafficSet};
use proptest::prelude::*;

/// An exact `PPM(k)` solve with default knobs; `None` when unreachable.
fn exact_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    solve_instance(inst, &SolveRequest::ppm(k))
        .expect("valid request")
        .into_ppm()
}

/// Strategy: a seeded random family instance, small enough that the exact
/// ILP stays cheap across 256 cases.
fn family_instances() -> impl Strategy<Value = (FamilySpec, u64)> {
    (
        0usize..3,
        6usize..=12,
        3usize..=6,
        0.25f64..=1.0,
        0u64..1000,
    )
        .prop_map(|(fam, routers, endpoints, density, seed)| {
            let name = ["waxman", "ba", "hier"][fam];
            let mut spec = FamilySpec::canonical(name, routers, endpoints).expect("known family");
            spec.density = density;
            (spec, seed)
        })
}

fn build(spec: &FamilySpec, seed: u64) -> (Pop, TrafficSet, PpmInstance) {
    let pop = spec.build(seed).expect("strategy emits valid specs");
    let ts = GravitySpec::default().generate(&pop, seed);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    (pop, ts, inst)
}

/// Volume of the traffics whose routed path crosses at least one tapped
/// link — recomputed from the raw paths, independently of
/// `PpmInstance::coverage`, so the invariant check shares no code with
/// the solvers it polices.
fn covered_volume_from_paths(ts: &TrafficSet, tapped: &[usize]) -> f64 {
    let mut is_tapped = vec![false; tapped.iter().max().map_or(0, |&e| e + 1)];
    for &e in tapped {
        is_tapped[e] = true;
    }
    ts.traffics
        .iter()
        .filter(|t| {
            t.path
                .edges()
                .iter()
                .any(|e| is_tapped.get(e.index()).copied().unwrap_or(false))
        })
        .map(|t| t.volume)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coverage invariant: in any `PPM(k)` solution on a random family
    /// instance, the flows counted as monitored each cross a tapped link,
    /// and their volume meets the target — verified from the routed paths
    /// themselves. At `k = 1` this means *every* flow crosses a tap.
    #[test]
    fn solutions_cover_k_of_the_volume(case in family_instances(), k_pct in 50u32..=100) {
        let (spec, seed) = case;
        let (_pop, ts, inst) = build(&spec, seed);
        let k = k_pct as f64 / 100.0;
        let total = ts.total_volume();

        let g = greedy_static(&inst, k).expect("every family flow crosses >= 1 link");
        let covered = covered_volume_from_paths(&ts, &g.edges);
        prop_assert!(
            covered + 1e-9 >= k * total,
            "greedy taps {:?} cover {covered} < k*V = {} on {spec} seed {seed}",
            g.edges, k * total
        );

        let e = exact_ppm(&inst, k).expect("feasible");
        let covered = covered_volume_from_paths(&ts, &e.edges);
        prop_assert!(
            covered + 1e-9 >= k * total,
            "exact taps {:?} cover {covered} < k*V = {} on {spec} seed {seed}",
            e.edges, k * total
        );

        if k_pct == 100 {
            let tapped: Vec<bool> = {
                let mut m = vec![false; inst.num_edges];
                for &edge in &e.edges { m[edge] = true; }
                m
            };
            for t in &ts.traffics {
                prop_assert!(
                    t.path.edges().iter().any(|edge| tapped[edge.index()]),
                    "at k = 1 every routed flow must cross a tapped link ({spec} seed {seed})"
                );
            }
        }
    }

    /// Ordering invariant: greedy device count >= exact device count,
    /// never lower (the coin-select greedy-vs-bnb pattern).
    #[test]
    fn greedy_never_beats_exact(case in family_instances(), k_pct in 50u32..=100) {
        let (spec, seed) = case;
        let (_pop, _ts, inst) = build(&spec, seed);
        let k = k_pct as f64 / 100.0;
        let g = greedy_static(&inst, k).expect("coverable");
        let e = exact_ppm(&inst, k).expect("feasible");
        prop_assert!(e.proven_optimal, "the exact ILP must close on these small instances");
        prop_assert!(
            e.device_count() <= g.device_count(),
            "exact {} beats greedy {} the wrong way on {spec} seed {seed}",
            e.device_count(), g.device_count()
        );
        prop_assert!(inst.is_feasible(&g.edges, k));
        prop_assert!(inst.is_feasible(&e.edges, k));
    }
}
