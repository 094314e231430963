//! Property-based tests over the whole stack (proptest).
//!
//! These pin the load-bearing invariants: the MIP solver agrees with brute
//! force on random covering instances, Theorem 1's reduction preserves
//! optima, greedy solutions are always feasible and within the Slavík
//! bound, and flows conserve.

use proptest::prelude::*;

use popmon::milp::{Cmp, MipOptions, Model, Sense, VarKind};
use popmon::placement::instance::PpmInstance;
use popmon::placement::passive::{
    brute_force_ppm, flow_greedy_ppm, greedy_adaptive, greedy_static,
};
use popmon::placement::reduction::{msc_to_ppm, ppm_solution_to_msc, ppm_to_msc};
use popmon::placement::setcover::{brute_force_cover, slavik_bound, SetCoverInstance};
use popmon::placement::solve::{solve_instance, SolveRequest};

/// Strategy: a random small PPM instance (≤ 8 edges, ≤ 10 traffics, every
/// traffic crossing 1–3 edges).
fn ppm_instances() -> impl Strategy<Value = PpmInstance> {
    (2usize..=8).prop_flat_map(|ne| {
        let traffic = (1.0f64..10.0, proptest::collection::vec(0..ne, 1..=3));
        proptest::collection::vec(traffic, 1..=10).prop_map(move |ts| PpmInstance::new(ne, ts))
    })
}

/// Strategy: a random small set-cover instance where every element is
/// coverable.
fn msc_instances() -> impl Strategy<Value = SetCoverInstance> {
    // Kept small: the MSC -> PPM gadget has one edge per set plus two per
    // intersecting pair, and the brute-force PPM oracle caps at 20 edges.
    (2usize..=5, 2usize..=4).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0..n, 1..=n), m).prop_map(
            move |mut sets| {
                // Guarantee coverability: set 0 covers everything.
                sets[0] = (0..n).collect();
                SetCoverInstance::unweighted(n, sets)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_ppm_matches_brute_force(inst in ppm_instances(), k_pct in 10u32..=100) {
        let k = k_pct as f64 / 100.0;
        let exact = solve_instance(&inst, &SolveRequest::ppm(k)).unwrap().into_ppm();
        let brute = brute_force_ppm(&inst, k);
        match (exact, brute) {
            (Some(e), Some(b)) => {
                prop_assert_eq!(e.device_count(), b.device_count());
                prop_assert!(inst.is_feasible(&e.edges, k));
            }
            (None, None) => {}
            (e, b) => prop_assert!(
                false,
                "feasibility disagreement: exact {:?} vs brute {:?}",
                e.map(|s| s.edges), b.map(|s| s.edges)
            ),
        }
    }

    #[test]
    fn greedy_is_feasible_and_bounded(inst in ppm_instances()) {
        // Full cover when possible.
        if let Some(g) = greedy_adaptive(&inst, 1.0) {
            prop_assert!(inst.is_feasible(&g.edges, 1.0));
            let opt = brute_force_ppm(&inst, 1.0).expect("greedy found one, so must brute");
            let bound = slavik_bound(inst.traffics.len()).max(1.0);
            prop_assert!(
                g.device_count() as f64 <= bound * opt.device_count() as f64 + 1e-9,
                "greedy {} vs opt {} exceeds Slavik bound {}",
                g.device_count(), opt.device_count(), bound
            );
        }
        if let Some(g) = greedy_static(&inst, 0.5) {
            prop_assert!(inst.is_feasible(&g.edges, 0.5));
        }
    }

    #[test]
    fn theorem1_roundtrip_preserves_optimum(msc in msc_instances()) {
        let gadget = msc_to_ppm(&msc);
        let opt_msc = brute_force_cover(&msc, msc.total_weight()).expect("coverable");
        let opt_ppm = brute_force_ppm(&gadget.instance, 1.0).expect("coverable");
        // Theorem 1: the optima coincide.
        prop_assert_eq!(opt_msc.len(), opt_ppm.device_count());
        // And mapping the PPM optimum back gives a valid cover of the same
        // size or smaller (replacement can merge picks).
        let back = ppm_solution_to_msc(&gadget, &opt_ppm.edges);
        prop_assert!(back.len() <= opt_ppm.device_count());
        let covered = msc.covered_weight(&back);
        prop_assert!((covered - msc.total_weight()).abs() < 1e-9,
            "mapped-back selection must be a full cover");
    }

    #[test]
    fn reverse_reduction_preserves_coverage(inst in ppm_instances(), k_pct in 10u32..=100) {
        let msc = ppm_to_msc(&inst);
        prop_assert_eq!(msc.total_weight(), inst.total_volume());
        let target = k_pct as f64 / 100.0 * inst.total_volume();
        let sel: Vec<usize> = (0..inst.num_edges).step_by(2).collect();
        // Covered weight in MSC equals coverage in PPM for any selection.
        prop_assert!((msc.covered_weight(&sel) - inst.coverage(&sel)).abs() < 1e-9);
        let _ = target;
    }

    #[test]
    fn milp_binary_cover_matches_exhaustive(
        rows in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..=4), 1..=6)
    ) {
        // min Σx s.t. per row Σ_{i ∈ row} x_i >= 1 over 6 binaries:
        // a tiny vertex-coverish MIP checked against 2^6 enumeration.
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = (0..6)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, 1.0))
            .collect();
        for row in &rows {
            let mut r = row.clone();
            r.sort_unstable();
            r.dedup();
            let terms: Vec<_> = r.iter().map(|&i| (xs[i], 1.0)).collect();
            m.add_constr(terms, Cmp::Ge, 1.0);
        }
        let sol = m
            .solve_mip(&MipOptions::default(), None)
            .and_then(|(out, _)| out.into_solution())
            .expect("always feasible: all ones works");
        // Exhaustive check.
        let mut best = usize::MAX;
        for mask in 0u32..64 {
            let ok = rows.iter().all(|row| row.iter().any(|&i| mask >> i & 1 == 1));
            if ok {
                best = best.min(mask.count_ones() as usize);
            }
        }
        prop_assert_eq!(sol.objective.round() as usize, best);
    }

    #[test]
    fn lp_respects_bounds_and_constraints(
        costs in proptest::collection::vec(-5.0f64..5.0, 4),
        rhs in 0.5f64..3.0,
    ) {
        // min c·x s.t. Σx >= rhs, x in [0,1]^4 — always feasible when
        // rhs <= 4; solution must verify via the model checker.
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_var(format!("x{i}"), VarKind::Continuous, 0.0, 1.0, c))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
        m.add_constr(terms, Cmp::Ge, rhs);
        let sol = m.solve_lp().expect("feasible");
        prop_assert!(m.check_feasible(&sol.values, 1e-6).is_ok());
        // Optimality spot check: objective can't beat taking the cheapest
        // variables greedily to fill rhs.
        let mut sorted = costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut need = rhs;
        let mut lb = 0.0;
        for c in sorted {
            // Negative costs are always taken fully (they help).
            if c < 0.0 { lb += c; need -= 1.0; }
            else if need > 0.0 { let take = need.min(1.0); lb += c * take; need -= take; }
        }
        prop_assert!(sol.objective <= lb + 1e-6 || (sol.objective - lb).abs() < 1e-6);
    }

    #[test]
    fn flow_conservation_on_random_mecf(inst in ppm_instances(), k_pct in 10u32..=100) {
        let k = k_pct as f64 / 100.0;
        if let Some(sol) = flow_greedy_ppm(&inst, k) {
            // The flow-greedy selection covers the flow it routed, k·V.
            prop_assert!(sol.coverage + 1e-9 >= k * inst.total_volume() - 1e-9);
        }
    }
}
