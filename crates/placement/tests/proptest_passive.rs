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
//!
//! It pins the incremental flow-bound branch-and-bound bitwise against
//! the per-node-rescan search it replaced (also kept below), on rough
//! random instances and on seeded paper_15 instances.
//!
//! And it checks the constrained exact kernels — the exact and budget
//! solves of a warm chain and of a fresh chain per query — against subset
//! enumeration over the free links, an oracle that shares no code with
//! `milp`.

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::passive::{
    brute_force_ppm, greedy_adaptive, greedy_static, solve_ppm_mecf_bb, ExactOptions, PpmSolution,
};
use placement::setcover::slavik_bound;
use placement::solve::{solve_instance, SolveOutcome, SolveRequest};
use popgen::{PopSpec, TrafficSpec};
use proptest::prelude::*;
use proptest::rng::TestRng;

/// An exact `PPM(k)` solve with default knobs; `None` when unreachable.
fn exact_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    solve_instance(inst, &SolveRequest::ppm(k))
        .expect("valid request")
        .into_ppm()
}

/// A chain's greedy `PPM(k)` answer; `None` when unreachable.
fn chain_greedy(delta: &mut DeltaInstance, k: f64, what: &str) -> Option<PpmSolution> {
    match delta.solve(&SolveRequest::ppm(k).greedy()).unwrap() {
        SolveOutcome::Ppm(sol) => Some(sol),
        SolveOutcome::Unreachable => None,
        other => panic!("{what}: unexpected greedy outcome {other:?}"),
    }
}

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
/// the chain's own greedy solve. The unrouted chain keeps traffic on its
/// failed links; the routed one re-routes it away.
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
                let what = format!("routed {}, step {step}, k = {k}", delta.is_routed());
                let served = chain_greedy(&mut delta, k, &what);
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
    /// knife edge of the reference. The constrained greedy runs as a
    /// chain's greedy solve.
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
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&installed).unwrap();
        for &e in &disabled {
            delta.try_fail_link(e).unwrap();
        }
        for &k in &ks {
            let what = format!("constrained, k = {k:e}, installed {installed:?}, disabled {disabled:?}");
            assert_same_greedy(
                chain_greedy(&mut delta, k, &what),
                reference_greedy_constrained(&inst, &installed, &disabled, k),
                &what,
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
        let exact = exact_ppm(&inst, k);
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
            let e = exact_ppm(&inst, k)
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
        let lp2 = exact_ppm(&inst, k);
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

/// Strategy: an instance with at most 10 links and integral volumes (0–5,
/// so every coverage is an integer and no grid target sits within float
/// noise of a reachable one), empty supports included.
fn oracle_instances() -> impl Strategy<Value = PpmInstance> {
    (1usize..=10).prop_flat_map(|ne| {
        let traffic = (
            (0u32..=5).prop_map(f64::from),
            proptest::collection::vec(0..ne, 0..=3),
        );
        proptest::collection::vec(traffic, 0..=8).prop_map(move |ts| PpmInstance::new(ne, ts))
    })
}

/// Subset enumeration over the free links (neither installed nor
/// failed): for every subset, its size and the volume covered by the live
/// installed links plus the subset. Plain Rust throughout.
struct SubsetOracle {
    inst: PpmInstance,
    live: Vec<usize>,
    subsets: Vec<(usize, f64)>,
    total: f64,
}

/// The volume of the traffics of `inst` that cross a link marked in `on`.
fn covered(inst: &PpmInstance, on: &[bool]) -> f64 {
    inst.traffics
        .iter()
        .filter(|(_, s)| s.iter().any(|&e| on[e]))
        .map(|(v, _)| v)
        .sum()
}

impl SubsetOracle {
    fn new(inst: &PpmInstance, installed: &[usize], disabled: &[usize]) -> Self {
        let live: Vec<usize> = installed
            .iter()
            .copied()
            .filter(|e| !disabled.contains(e))
            .collect();
        let free: Vec<usize> = (0..inst.num_edges)
            .filter(|e| !installed.contains(e) && !disabled.contains(e))
            .collect();
        let subsets = (0u32..1 << free.len())
            .map(|bits| {
                let mut on = vec![false; inst.num_edges];
                for &e in &live {
                    on[e] = true;
                }
                for (i, &e) in free.iter().enumerate() {
                    on[e] |= bits >> i & 1 == 1;
                }
                (bits.count_ones() as usize, covered(inst, &on))
            })
            .collect();
        let total = inst.traffics.iter().map(|(v, _)| v).sum();
        SubsetOracle {
            inst: inst.clone(),
            live,
            subsets,
            total,
        }
    }

    /// The fewest free links reaching `k` of the total volume, if any.
    fn min_devices(&self, k: f64) -> Option<usize> {
        let target = k * self.total;
        self.subsets
            .iter()
            .filter(|&&(_, c)| c + 1e-6 >= target)
            .map(|&(n, _)| n)
            .min()
    }

    /// The most volume at most `budget` free links can add to the live
    /// installed ones.
    fn max_coverage(&self, budget: usize) -> f64 {
        self.subsets
            .iter()
            .filter(|&&(n, _)| n <= budget)
            .map(|&(_, c)| c)
            .fold(0.0, f64::max)
    }

    /// Checks a minimum-device answer: the live installed links plus
    /// exactly the oracle's count of free ones, nothing failed, proven.
    fn check_min_devices(&self, got: Option<PpmSolution>, k: f64, disabled: &[usize], what: &str) {
        match (got, self.min_devices(k)) {
            (Some(sol), Some(m)) => {
                assert!(sol.proven_optimal, "{what}: unproven");
                assert!(
                    self.live.iter().all(|e| sol.edges.contains(e)),
                    "{what}: {:?} drops a live installed link of {:?}",
                    sol.edges,
                    self.live
                );
                assert!(
                    sol.edges.iter().all(|e| !disabled.contains(e)),
                    "{what}: {:?} uses a failed link",
                    sol.edges
                );
                assert_eq!(
                    sol.device_count(),
                    self.live.len() + m,
                    "{what}: {:?}",
                    sol.edges
                );
                assert!(sol.coverage + 1e-6 >= k * self.total, "{what}: infeasible");
            }
            (None, None) => {}
            (got, want) => panic!("{what}: solver {got:?} vs oracle {want:?} new links"),
        }
    }

    /// Checks a budget answer: the live installed links plus at most
    /// `budget` free ones, each of which raises the coverage, nothing
    /// failed, the oracle's coverage, proven.
    fn check_max_coverage(&self, sol: &PpmSolution, budget: usize, disabled: &[usize], what: &str) {
        assert!(sol.proven_optimal, "{what}: unproven");
        assert!(
            self.live.iter().all(|e| sol.edges.contains(e)),
            "{what}: {:?} drops a live installed link of {:?}",
            sol.edges,
            self.live
        );
        assert!(
            sol.edges.iter().all(|e| !disabled.contains(e)),
            "{what}: {:?} uses a failed link",
            sol.edges
        );
        assert!(
            sol.edges.len() <= self.live.len() + budget,
            "{what}: {:?}",
            sol.edges
        );
        assert!(
            (sol.coverage - self.max_coverage(budget)).abs() < 1e-6,
            "{what}: coverage {} vs oracle {}",
            sol.coverage,
            self.max_coverage(budget)
        );
        let mut on = vec![false; self.inst.num_edges];
        for &e in &sol.edges {
            on[e] = true;
        }
        let with = covered(&self.inst, &on);
        for &e in sol.edges.iter().filter(|e| !self.live.contains(e)) {
            on[e] = false;
            assert!(
                covered(&self.inst, &on) < with,
                "{what}: {:?} lists link {e}, which adds no coverage",
                sol.edges
            );
            on[e] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The constrained exact kernels against subset enumeration: one warm
    /// chain — solved once plain, then a demand doubled, the installed
    /// set and the failed links applied as in-place repairs — alternating
    /// exact solves over a `k` grid with budget solves 0–3, and a fresh
    /// chain per query with the installed set alone, whose first solve
    /// builds the model cold.
    #[test]
    fn constrained_exact_kernels_match_subset_oracle(
        inst in oracle_instances(),
        installed in link_sets(),
        disabled in link_sets(),
    ) {
        let n = inst.num_edges;
        let installed: Vec<usize> = installed.into_iter().filter(|&e| e < n).collect();
        let disabled: Vec<usize> = disabled.into_iter().filter(|&e| e < n).collect();
        let grid = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];

        let mut delta = DeltaInstance::from_instance(&inst);
        delta.solve(&SolveRequest::ppm(0.5)).unwrap();
        if !inst.traffics.is_empty() {
            delta.try_scale_demand(0, 2.0).unwrap();
        }
        delta.try_set_installed(&installed).unwrap();
        for &e in &disabled {
            delta.try_fail_link(e).unwrap();
        }
        let inst = delta.instance().clone();
        let oracle = SubsetOracle::new(&inst, &installed, &disabled);
        for (i, &k) in grid.iter().enumerate() {
            let what = format!("chain exact, k = {k}, installed {installed:?}, disabled {disabled:?}");
            let got = match delta.solve(&SolveRequest::ppm(k)).unwrap() {
                SolveOutcome::Ppm(sol) => Some(sol),
                SolveOutcome::Unreachable => None,
                other => panic!("{what}: unexpected outcome {other:?}"),
            };
            oracle.check_min_devices(got, k, &disabled, &what);
            let budget = i % 4;
            let what = format!("chain budget {budget}, installed {installed:?}, disabled {disabled:?}");
            let sol = delta.solve(&SolveRequest::budget(budget)).unwrap().into_budget();
            oracle.check_max_coverage(&sol.expect("budget outcome"), budget, &disabled, &what);
        }

        let oracle = SubsetOracle::new(&inst, &installed, &[]);
        let fresh = || {
            let mut fresh = DeltaInstance::from_instance(&inst);
            fresh.try_set_installed(&installed).unwrap();
            fresh
        };
        for &k in &grid {
            let what = format!("fresh exact, k = {k}, installed {installed:?}");
            let got = fresh().solve(&SolveRequest::ppm(k)).unwrap().into_ppm();
            oracle.check_min_devices(got, k, &[], &what);
        }
        for budget in 0..=3 {
            let what = format!("fresh budget {budget}, installed {installed:?}");
            let sol = fresh().solve(&SolveRequest::budget(budget)).unwrap().into_budget();
            oracle.check_max_coverage(&sol.expect("budget outcome"), budget, &[], &what);
        }
    }
}

/// Reference: the flow-bound branch-and-bound as it was before the bound
/// became incremental — every node carries a full edge-state copy and
/// re-scans every traffic's support, then sorts the knapsack items by
/// comparison. Kept verbatim so the incremental search can be checked
/// against it bit for bit.
mod reference_mecf_bb {
    use placement::instance::PpmInstance;
    use placement::passive::{greedy_adaptive, greedy_static, ExactOptions, PpmSolution};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum EdgeState {
        Free,
        Installed,
        Forbidden,
    }

    /// Exact `PPM(k)` via branch-and-bound with min-cost-flow bounds.
    ///
    /// Same contract as an exact `SolveRequest::ppm` solve (which uses the
    /// LP 2 MIP): returns `None` when the target is unreachable, and a
    /// [`PpmSolution`] with `proven_optimal` reflecting whether the search
    /// completed within the node limit. Preferred for large instances (the
    /// Figure 8 scale); the MIP route is kept for cross-validation.
    pub fn solve_ppm_mecf_bb(
        inst: &PpmInstance,
        k: f64,
        opts: &ExactOptions,
    ) -> Option<PpmSolution> {
        assert!(
            k.is_finite() && (0.0..=1.0 + 1e-12).contains(&k),
            "monitoring fraction k must lie in [0, 1], got {k}"
        );
        let target = k * inst.total_volume();
        if target > inst.max_coverage_fraction() * inst.total_volume() + 1e-9 {
            return None;
        }
        let merged = inst.merged();
        let loads = merged.edge_loads();
        let ne = merged.num_edges;

        // Edge → traffics index, built once: the incremental redundancy prune
        // walks it at every incumbent instead of recomputing coverage.
        let mut edge_traffics: Vec<Vec<u32>> = vec![Vec::new(); ne];
        for (t, (_, support)) in merged.traffics.iter().enumerate() {
            for &e in support {
                edge_traffics[e].push(t as u32);
            }
        }

        // Initial incumbent from the greedy pair.
        let mut incumbent: Option<Vec<usize>> =
            match (greedy_static(inst, k), greedy_adaptive(inst, k)) {
                (Some(a), Some(b)) => Some(if a.device_count() <= b.device_count() {
                    a.edges
                } else {
                    b.edges
                }),
                (a, b) => a.or(b).map(|s| s.edges),
            };

        // DFS over edge fixings. Each node re-evaluates the flow bound.
        struct Frame {
            state: Vec<EdgeState>,
            installed: usize,
        }
        let mut stack = vec![Frame {
            state: vec![EdgeState::Free; ne],
            installed: 0,
        }];
        let mut nodes = 0usize;
        let mut proven = true;

        // Scratch buffers reused across every node's flow bound: the bound is
        // called once per node, and per-node allocation of the item list and
        // the per-edge flow table dominated small-instance profiles.
        let mut items: Vec<(f64, f64, usize)> = Vec::with_capacity(merged.traffics.len());
        let mut with_flow: Vec<(bool, f64)> = vec![(false, 0.0); ne];

        while let Some(frame) = stack.pop() {
            if nodes >= opts.max_nodes {
                proven = false;
                break;
            }
            nodes += 1;

            let best = incumbent.as_ref().map(|e| e.len()).unwrap_or(usize::MAX);
            if frame.installed + 1 > best {
                continue; // even one more device cannot improve
            }

            // Flow bound for this node.
            let Some((bound_frac, routed)) = flow_bound(
                &merged,
                &loads,
                &frame.state,
                target,
                &mut items,
                &mut with_flow,
            ) else {
                continue; // target unreachable under these fixings
            };
            let flow_edges = &with_flow;
            let bound = frame.installed + (bound_frac - 1e-9).ceil().max(0.0) as usize;
            if bound >= best {
                continue;
            }

            // Free incumbent: installed ∪ free-with-flow edges cover the target
            // (the flow routed `target` units through exactly those arcs).
            if routed + 1e-6 >= target {
                let mut cover: Vec<usize> = (0..ne)
                    .filter(|&e| frame.state[e] == EdgeState::Installed || flow_edges[e].0)
                    .collect();
                prune_redundant(&merged, &loads, &edge_traffics, &mut cover, target);
                if cover.len() < best {
                    incumbent = Some(cover);
                }
            }
            let best = incumbent.as_ref().map(|e| e.len()).unwrap_or(usize::MAX);
            if bound >= best {
                continue;
            }

            // Branch on the most fractional free edge of the relaxation
            // (usage ratio flow/load closest to 1/2, ties toward heavier
            // load): saturated or unused edges are already integral there, so
            // splitting on them wastes a level.
            let branch_edge = (0..ne)
                .filter(|&e| frame.state[e] == EdgeState::Free && flow_edges[e].1 > 1e-9)
                .max_by(|&a, &b| {
                    let score = |e: usize| {
                        let frac = (flow_edges[e].1 / loads[e]).clamp(0.0, 1.0);
                        let centrality = 1.0 - (frac - 0.5).abs(); // 1 at 1/2
                        (centrality, loads[e])
                    };
                    let (ca, la) = score(a);
                    let (cb, lb) = score(b);
                    ca.partial_cmp(&cb)
                        .expect("finite")
                        .then(la.partial_cmp(&lb).expect("finite"))
                        .then(b.cmp(&a))
                });
            let Some(e) = branch_edge else {
                continue; // no free edge carries flow: the cover above is it
            };

            // Down child (forbid e) pushed first so the up child (install e,
            // plunging toward covers) is explored first.
            let mut down = frame.state.clone();
            down[e] = EdgeState::Forbidden;
            stack.push(Frame {
                state: down,
                installed: frame.installed,
            });
            let mut up = frame.state;
            up[e] = EdgeState::Installed;
            stack.push(Frame {
                state: up,
                installed: frame.installed + 1,
            });
        }

        incumbent.map(|edges| PpmSolution::from_edges(inst, edges, proven))
    }

    /// Computes the min-cost-flow bound for a node analytically.
    ///
    /// Because every `(S, w_e)` and `(w_e, w_t)` arc of the auxiliary graph is
    /// *uncapacitated*, the min-cost flow decomposes per traffic: a unit of
    /// traffic `t` is cheapest through `argmin_{e ∈ p_t, e allowed} cost(e)`
    /// with `cost = 0` on installed edges and `1/load(e)` on free ones; the
    /// optimal flow is then the fractional knapsack "monitor the cheapest
    /// traffics first until `k·V`". This gives the exact same value as running
    /// successive shortest paths, in `O(Σ|p_t| + T log T)` — microseconds per
    /// node instead of a full flow solve. (The equivalence is unit-tested
    /// against [`mcmf::mincost::min_cost_flow`] below.)
    ///
    /// Returns the fractional device bound over free edges and the routed
    /// volume, filling `with_flow` with a `(carries flow, flow amount)` pair
    /// per edge; `None` when the target cannot be routed. `items` and
    /// `with_flow` are caller-owned scratch buffers reused across nodes.
    fn flow_bound(
        inst: &PpmInstance,
        loads: &[f64],
        state: &[EdgeState],
        target: f64,
        items: &mut Vec<(f64, f64, usize)>,
        with_flow: &mut Vec<(bool, f64)>,
    ) -> Option<(f64, f64)> {
        let ne = inst.num_edges;
        with_flow.clear();
        with_flow.resize(ne, (false, 0.0));
        if target <= 1e-12 {
            return Some((0.0, 0.0));
        }

        // Cheapest allowed edge per traffic; ties prefer the heavier load so
        // flow consolidates onto fewer edges (better incumbents).
        items.clear();
        for (v, support) in &inst.traffics {
            let mut best: Option<(f64, usize)> = None;
            for &e in support {
                let cost = match state[e] {
                    EdgeState::Forbidden => continue,
                    EdgeState::Installed => 0.0,
                    EdgeState::Free => {
                        if loads[e] > 1e-12 {
                            1.0 / loads[e]
                        } else {
                            continue;
                        }
                    }
                };
                let better = match best {
                    None => true,
                    Some((bc, be)) => {
                        cost < bc - 1e-15 || ((cost - bc).abs() <= 1e-15 && loads[e] > loads[be])
                    }
                };
                if better {
                    best = Some((cost, e));
                }
            }
            if let Some((c, e)) = best {
                items.push((c, *v, e));
            }
        }

        let coverable: f64 = items.iter().map(|&(_, v, _)| v).sum();
        if coverable + 1e-6 < target {
            return None;
        }

        // Fractional knapsack: cheapest unit costs first.
        items.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
        let mut routed = 0.0f64;
        let mut cost = 0.0f64;
        for &(c, v, e) in items.iter() {
            if routed + 1e-12 >= target {
                break;
            }
            let take = v.min(target - routed);
            routed += take;
            cost += c * take;
            if state[e] == EdgeState::Free {
                with_flow[e].0 = true;
                with_flow[e].1 += take;
            }
        }
        Some((cost, routed))
    }

    /// Drops redundant edges from a cover, greedily, preferring to drop
    /// low-load edges first; keeps the cover feasible for `target`.
    ///
    /// Incremental: per-traffic cover counts plus the `edge_traffics` index
    /// turn each trial drop into a walk over that edge's own traffics instead
    /// of a full coverage recomputation — `O(Σ_{e∈cover} |traffics(e)|)` per
    /// incumbent instead of `O(|cover| · Σ_t |p_t|)`, and this runs at nearly
    /// every node of the search.
    fn prune_redundant(
        inst: &PpmInstance,
        loads: &[f64],
        edge_traffics: &[Vec<u32>],
        cover: &mut Vec<usize>,
        target: f64,
    ) {
        // How many cover edges each traffic currently routes through, and the
        // total volume covered (traffics with count ≥ 1).
        let mut cnt = vec![0u32; inst.traffics.len()];
        for &e in cover.iter() {
            for &t in &edge_traffics[e] {
                cnt[t as usize] += 1;
            }
        }
        let mut covered: f64 = inst
            .traffics
            .iter()
            .zip(&cnt)
            .filter(|&(_, &c)| c > 0)
            .map(|((v, _), _)| *v)
            .sum();

        let mut order: Vec<usize> = (0..cover.len()).collect();
        order.sort_by(|&i, &j| {
            loads[cover[i]]
                .partial_cmp(&loads[cover[j]])
                .expect("finite")
        });
        let mut keep: Vec<bool> = vec![true; cover.len()];
        for &i in &order {
            let e = cover[i];
            // Volume lost if e is dropped: traffics covered only by e.
            let loss: f64 = edge_traffics[e]
                .iter()
                .filter(|&&t| cnt[t as usize] == 1)
                .map(|&t| inst.traffics[t as usize].0)
                .sum();
            if covered - loss + 1e-9 >= target {
                keep[i] = false;
                covered -= loss;
                for &t in &edge_traffics[e] {
                    cnt[t as usize] -= 1;
                }
            }
        }
        *cover = cover
            .iter()
            .enumerate()
            .filter(|&(j, _)| keep[j])
            .map(|(_, &e)| e)
            .collect();
    }
}

/// Strategy: a random instance for the flow-bound search, up to 14 links
/// and 24 traffics: zero volumes, empty supports, links no traffic
/// crosses (zero load), and integral volumes often enough that link loads
/// — and so the bound's `1/load` costs and their `1e-15` tie rule — tie.
fn search_instances() -> impl Strategy<Value = PpmInstance> {
    (1usize..=14).prop_flat_map(|ne| {
        let volume = (0u32..=4, 0.0f64..10.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 | 2 => (x / 3.0).floor(),
            3 => x.floor(),
            _ => x,
        });
        let traffic = (volume, proptest::collection::vec(0..ne, 0..=5));
        proptest::collection::vec(traffic, 0..=24).prop_map(move |ts| PpmInstance::new(ne, ts))
    })
}

/// Asserts the incremental search and the reference agree to the bit at
/// each node limit: edges, `proven_optimal` and coverage bits.
fn assert_mecf_bb_matches_reference(inst: &PpmInstance, k: f64, limits: &[usize], what: &str) {
    for &max_nodes in limits {
        let opts = ExactOptions {
            max_nodes,
            ..Default::default()
        };
        let got = solve_ppm_mecf_bb(inst, k, &opts);
        let want = reference_mecf_bb::solve_ppm_mecf_bb(inst, k, &opts);
        let key = |s: &PpmSolution| (s.edges.clone(), s.proven_optimal, s.coverage.to_bits());
        assert_eq!(
            got.as_ref().map(key),
            want.as_ref().map(key),
            "{what}, max_nodes {max_nodes}"
        );
    }
}

/// The incremental search on seeded paper_15 instances: against the
/// reference, and against answers recorded from the per-node-rescan search
/// before the bound became incremental (edges, proven flag, coverage bits;
/// both stop at the 2,000-node limit).
#[test]
fn incremental_flow_bound_matches_reference_on_paper15() {
    let pop = PopSpec::paper_15().build();
    let ts = TrafficSpec::default().generate(&pop, 1);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let pins: [(f64, &[usize], u64); 2] = [
        (
            0.8,
            &[5, 8, 12, 13, 15, 16, 20, 22, 23, 25],
            0x40b3_aef8_d563_8ef5,
        ),
        (
            0.9,
            &[5, 6, 8, 10, 12, 13, 16, 18, 20, 22, 23, 25, 69],
            0x40b6_2c23_47e3_a234,
        ),
    ];
    for (k, edges, coverage) in pins {
        let opts = ExactOptions {
            max_nodes: 2000,
            ..Default::default()
        };
        let sol = solve_ppm_mecf_bb(&inst, k, &opts).expect("reachable");
        assert_eq!(sol.edges, edges, "k = {k}");
        assert!(!sol.proven_optimal, "k = {k}");
        assert_eq!(sol.coverage.to_bits(), coverage, "k = {k}");
        let what = format!("paper_15 seed 1, k = {k}");
        assert_mecf_bb_matches_reference(&inst, k, &[1, 7, 50, 2000], &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The incremental flow-bound search equals the per-node-rescan
    /// reference bitwise on random instances, at a random `k` and at the
    /// usual grid, with node limits that stop the search at its root,
    /// early, mid-way and (on these sizes) never.
    #[test]
    fn incremental_flow_bound_matches_reference(inst in search_instances(), k in fractions()) {
        for k in [k, 0.5, 0.8, 0.95, 1.0] {
            let what = format!("k = {k:e}, {inst:?}");
            assert_mecf_bb_matches_reference(&inst, k, &[1, 7, 50, 50_000], &what);
        }
    }
}
