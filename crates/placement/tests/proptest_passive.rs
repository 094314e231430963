//! Property tests for passive placement: the greedy and exact solvers
//! must *agree* on small random instances — same feasibility verdict,
//! exact never beaten, greedy sandwiched by the Slavík bound, and the two
//! exact solvers (LP 2 branch & bound vs. the MECF flow-bound branch &
//! bound) returning the same optimum. Runs alongside the substrate suites
//! (`netgraph/tests/proptest_paths.rs`, `mcmf/tests/proptest_flow.rs`).
//!
//! It also pins the one-pass static greedy bitwise against the textbook
//! loop it replaced (kept below as a reference): same picks, same
//! coverage and total-volume bits, same `None` verdicts — unconstrained,
//! and under installed and failed links.

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::passive::{
    brute_force_ppm, greedy_adaptive, greedy_static, solve_ppm_exact, solve_ppm_mecf_bb,
    ExactOptions, PpmSolution,
};
use placement::setcover::slavik_bound;
use placement::solve::{greedy_constrained, SolveOutcome, SolveRequest};
use popgen::{PopSpec, TrafficSpec};
use proptest::prelude::*;
use proptest::rng::TestRng;

/// Strategy: a random small PPM instance (≤ 8 edges, ≤ 10 traffics, every
/// traffic crossing 1–3 edges).
fn ppm_instances() -> impl Strategy<Value = PpmInstance> {
    (2usize..=8).prop_flat_map(|ne| {
        let traffic = (1.0f64..10.0, proptest::collection::vec(0..ne, 1..=3));
        proptest::collection::vec(traffic, 1..=10).prop_map(move |ts| PpmInstance::new(ne, ts))
    })
}

/// Reference: the static greedy as the textbook loop — rescan every
/// traffic's support for each picked edge.
fn reference_greedy_static(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    assert!(
        k.is_finite() && (0.0..=1.0 + 1e-12).contains(&k),
        "monitoring fraction k must lie in [0, 1], got {k}"
    );
    let total = inst.total_volume();
    let target = k * total;
    let loads = inst.edge_loads();
    let mut order: Vec<usize> = (0..inst.num_edges).collect();
    // Decreasing load; ties on the smaller edge index for determinism.
    order.sort_by(|&a, &b| {
        loads[b]
            .partial_cmp(&loads[a])
            .expect("finite loads")
            .then(a.cmp(&b))
    });

    let mut covered = vec![false; inst.traffics.len()];
    let mut covered_w = 0.0f64;
    let mut picked = Vec::new();
    let tol = 1e-9 * total.max(1.0);
    for e in order {
        if covered_w + tol >= target {
            break;
        }
        if loads[e] <= 0.0 {
            break; // only empty edges remain
        }
        picked.push(e);
        for (t, (v, support)) in inst.traffics.iter().enumerate() {
            if !covered[t] && support.contains(&e) {
                covered[t] = true;
                covered_w += v;
            }
        }
    }
    if covered_w + tol < target {
        return None;
    }
    Some(PpmSolution::from_edges(inst, picked, false))
}

/// Reference: the constrained greedy on a masked copy of the instance.
fn reference_greedy_constrained(
    inst: &PpmInstance,
    installed: &[usize],
    disabled: &[usize],
    k: f64,
) -> Option<PpmSolution> {
    if installed.is_empty() && disabled.is_empty() {
        return reference_greedy_static(inst, k);
    }
    let live: Vec<usize> = installed
        .iter()
        .copied()
        .filter(|e| disabled.binary_search(e).is_err())
        .collect();
    let target = k * inst.total_volume();
    let base = inst.coverage(&live);
    if base + 1e-9 >= target {
        return Some(PpmSolution::from_edges(inst, live, false));
    }
    // Residual instance: traffics already covered by the live installed
    // set drop out; the rest lose their failed links (a support that
    // empties becomes uncoverable, as in routed failures).
    let residual: Vec<(f64, Vec<usize>)> = inst
        .traffics
        .iter()
        .filter(|(_, s)| !s.iter().any(|e| live.binary_search(e).is_ok()))
        .map(|(v, s)| {
            (
                *v,
                s.iter()
                    .copied()
                    .filter(|e| disabled.binary_search(e).is_err())
                    .collect(),
            )
        })
        .collect();
    let masked = PpmInstance::new(inst.num_edges, residual);
    let sub_total = masked.total_volume();
    if sub_total <= 0.0 {
        return None;
    }
    let k_residual = ((target - base) / sub_total).min(1.0);
    let picked = reference_greedy_static(&masked, k_residual)?;
    let mut edges = live;
    edges.extend(&picked.edges);
    edges.sort_unstable();
    edges.dedup();
    Some(PpmSolution::from_edges(inst, edges, false))
}

/// Asserts two greedy answers are the same to the bit.
fn assert_same_greedy(got: Option<PpmSolution>, want: Option<PpmSolution>, what: &str) {
    match (got, want) {
        (Some(g), Some(w)) => {
            assert_eq!(g.edges, w.edges, "{what}: picks");
            assert_eq!(
                g.coverage.to_bits(),
                w.coverage.to_bits(),
                "{what}: coverage"
            );
            assert_eq!(
                g.total_volume.to_bits(),
                w.total_volume.to_bits(),
                "{what}: total volume"
            );
            assert_eq!(g.proven_optimal, w.proven_optimal, "{what}: proven");
        }
        (None, None) => {}
        (g, w) => panic!("{what}: one-pass {g:?} vs reference {w:?}"),
    }
}

/// Strategy: a random instance with zero volumes, empty supports and
/// duplicate support edges (volumes often integral, so loads tie).
fn rough_instances() -> impl Strategy<Value = PpmInstance> {
    (1usize..=9).prop_flat_map(|ne| {
        let volume = (0u32..=3, 0.0f64..10.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => x.floor(),
            _ => x,
        });
        let traffic = (volume, proptest::collection::vec(0..ne, 0..=4));
        proptest::collection::vec(traffic, 0..=12).prop_map(move |ts| PpmInstance::new(ne, ts))
    })
}

/// Strategy: a sorted, duplicate-free link set of up to three draws.
fn link_sets() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..9, 0..=3).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Strategy: `k ∈ [0, 1]`, with both ends drawn on purpose.
fn fractions() -> impl Strategy<Value = f64> {
    (0u32..=5, 0.0f64..=1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    })
}

/// The `k` values where a greedy's device count (`usize::MAX` for `None`)
/// steps up, each with the float just below it. There `covered + tol`
/// meets the target to the last bit, so a change in the order the
/// covered volumes are summed shows up as a different step.
fn knife_edges(count: impl Fn(f64) -> usize) -> Vec<f64> {
    let top = 1.0f64.to_bits();
    let last = count(1.0);
    let (mut from, mut reached) = (0u64, count(0.0));
    let mut ks = Vec::new();
    while reached < last {
        // The smallest `k` in (from, 1] whose count exceeds `reached`.
        let (mut lo, mut hi) = (from, top);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if count(f64::from_bits(mid)) > reached {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        ks.extend([f64::from_bits(lo), f64::from_bits(hi)]);
        reached = count(f64::from_bits(hi));
        from = hi;
    }
    ks
}

/// The one-pass greedy against the reference on seeded paper_15 what-if
/// chains — fail, restore, `scale_demand` and `set_installed` — through
/// both [`greedy_constrained`] and the chain's own greedy solve. The
/// unrouted chain keeps traffic on its failed links; the routed one
/// re-routes it away.
#[test]
fn one_pass_greedy_matches_reference_on_a_paper15_chain() {
    let pop = PopSpec::paper_15().build();
    let ts = TrafficSpec::default().generate(&pop, 1);
    let chains = [
        DeltaInstance::from_traffic(&pop.graph, &ts),
        DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts)),
    ];
    for mut delta in chains {
        let links = delta.num_edges();
        let mut rng = TestRng::from_seed(15);
        let mut failed: Vec<usize> = Vec::new();
        for step in 0..32 {
            match step % 4 {
                0 => {
                    let e = rng.usize_in(0, links - 1);
                    delta.try_fail_link(e).unwrap();
                    failed.push(e);
                }
                1 if !failed.is_empty() => {
                    let e = failed.remove(rng.usize_in(0, failed.len() - 1));
                    delta.try_restore_link(e).unwrap();
                }
                2 => {
                    let t = rng.usize_in(0, delta.traffic_count() - 1);
                    let factor = [0.0, 0.5, 1.75, 3.0][rng.usize_in(0, 3)];
                    delta.try_scale_demand(t, factor).unwrap();
                }
                _ => {
                    let n = rng.usize_in(0, 4);
                    let installed: Vec<usize> =
                        (0..n).map(|_| rng.usize_in(0, links - 1)).collect();
                    delta.try_set_installed(&installed).unwrap();
                }
            }
            for k in [0.0, 0.3, 0.7, 0.9, 0.97, 1.0, rng.next_f64()] {
                let want = reference_greedy_constrained(
                    delta.instance(),
                    delta.installed(),
                    delta.disabled(),
                    k,
                );
                let got =
                    greedy_constrained(delta.instance(), delta.installed(), delta.disabled(), k);
                let what = format!("routed {}, step {step}, k = {k}", delta.is_routed());
                assert_same_greedy(got, want.clone(), &what);
                let served = match delta.solve(&SolveRequest::ppm(k).greedy()).unwrap() {
                    SolveOutcome::Ppm(sol) => Some(sol),
                    SolveOutcome::Unreachable => None,
                    other => panic!("{what}: unexpected greedy outcome {other:?}"),
                };
                assert_same_greedy(served, want, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The one-pass static and constrained greedies equal the reference
    /// loops bitwise on rough instances, with random installed and failed
    /// links (out-of-range draws dropped), at a random `k` and at every
    /// knife edge of the reference.
    #[test]
    fn one_pass_greedy_matches_reference(
        inst in rough_instances(),
        installed in link_sets(),
        disabled in link_sets(),
        k in fractions(),
    ) {
        let n = inst.num_edges;
        let installed: Vec<usize> = installed.into_iter().filter(|&e| e < n).collect();
        let disabled: Vec<usize> = disabled.into_iter().filter(|&e| e < n).collect();
        let count = |sol: Option<PpmSolution>| sol.map_or(usize::MAX, |s| s.device_count());
        let mut ks = knife_edges(|k| count(reference_greedy_static(&inst, k)));
        ks.push(k);
        for &k in &ks {
            assert_same_greedy(
                greedy_static(&inst, k),
                reference_greedy_static(&inst, k),
                &format!("static, k = {k:e}"),
            );
        }
        let mut ks = knife_edges(|k| {
            count(reference_greedy_constrained(&inst, &installed, &disabled, k))
        });
        ks.push(k);
        for &k in &ks {
            assert_same_greedy(
                greedy_constrained(&inst, &installed, &disabled, k),
                reference_greedy_constrained(&inst, &installed, &disabled, k),
                &format!("constrained, k = {k:e}, installed {installed:?}, disabled {disabled:?}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Greedy and exact agree on feasibility, and when both find a
    /// solution the exact count is a true lower bound with greedy inside
    /// the Slavík approximation envelope.
    #[test]
    fn greedy_and_exact_agree(inst in ppm_instances(), k_pct in 10u32..=100) {
        let k = k_pct as f64 / 100.0;
        let exact = solve_ppm_exact(&inst, k, &ExactOptions::default());
        let greedy = greedy_adaptive(&inst, k);
        match (exact, greedy) {
            (Some(e), Some(g)) => {
                prop_assert!(inst.is_feasible(&e.edges, k));
                prop_assert!(inst.is_feasible(&g.edges, k));
                prop_assert!(
                    e.device_count() <= g.device_count(),
                    "exact {} must not exceed greedy {}",
                    e.device_count(), g.device_count()
                );
                let bound = slavik_bound(inst.traffics.len()).max(1.0);
                prop_assert!(
                    g.device_count() as f64 <= bound * e.device_count() as f64 + 1e-9,
                    "greedy {} vs exact {} breaks the Slavik bound {}",
                    g.device_count(), e.device_count(), bound
                );
            }
            (None, None) => {} // both consider the target unreachable
            (e, g) => prop_assert!(
                false,
                "feasibility disagreement: exact {:?} vs greedy {:?}",
                e.map(|s| s.edges), g.map(|s| s.edges)
            ),
        }
    }

    /// The static greedy variant is also feasible whenever it answers,
    /// and never beats the exact optimum.
    #[test]
    fn greedy_static_is_sound(inst in ppm_instances(), k_pct in 10u32..=100) {
        let k = k_pct as f64 / 100.0;
        if let Some(g) = greedy_static(&inst, k) {
            prop_assert!(inst.is_feasible(&g.edges, k));
            let e = solve_ppm_exact(&inst, k, &ExactOptions::default())
                .expect("greedy's witness proves feasibility");
            prop_assert!(e.device_count() <= g.device_count());
        }
    }

    /// Both exact solvers and the brute-force oracle agree on the
    /// optimal device count.
    #[test]
    fn exact_solvers_agree_with_brute_force(inst in ppm_instances(), k_pct in 10u32..=100) {
        let k = k_pct as f64 / 100.0;
        let opts = ExactOptions::default();
        let lp2 = solve_ppm_exact(&inst, k, &opts);
        let mecf = solve_ppm_mecf_bb(&inst, k, &opts);
        let brute = brute_force_ppm(&inst, k);
        match (lp2, mecf, brute) {
            (Some(a), Some(b), Some(c)) => {
                prop_assert!(a.proven_optimal && b.proven_optimal);
                prop_assert_eq!(a.device_count(), c.device_count());
                prop_assert_eq!(b.device_count(), c.device_count());
            }
            (None, None, None) => {}
            (a, b, c) => prop_assert!(
                false,
                "solver feasibility disagreement: lp2 {:?} mecf {:?} brute {:?}",
                a.map(|s| s.edges), b.map(|s| s.edges), c.map(|s| s.edges)
            ),
        }
    }
}
