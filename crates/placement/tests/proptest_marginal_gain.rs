//! Differential testing of the marginal-gain greedies that run
//! `setcover`'s kernel against the hand-rolled loops they replaced (kept
//! below as references): the ensemble greedy
//! ([`placement::resilience::greedy_expected`]) and the beacon greedy
//! ([`placement::active::place_beacons_greedy`]) must match bit for bit,
//! panics included, and the budget fallback (reached through a budgeted
//! solve that trips before any incumbent) may differ from its reference
//! only where the reference added a device that covers nothing new —
//! every device the fallback adds covers volume the live installed
//! devices do not.
//!
//! Instances are random family topologies with gravity traffic; the
//! ensembles come from the real `popgen::FailureModel` sampler.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netgraph::NodeId;
use placement::active::{compute_probes, place_beacons_greedy, ProbeSet};
use placement::resilience::greedy_expected;
use placement::{DegradeReason, DeltaInstance, PpmInstance, PpmSolution};
use placement::{SolveOutcome, SolveRequest};
use popgen::failure::Scenario;
use popgen::{DynamicSpec, FailureModel, FailureSpec, FamilySpec, GravitySpec};
use proptest::prelude::*;

/// Reference: the ensemble greedy as a dense loop — per pick, rescan
/// every live scenario's uncovered traffics on every link.
fn reference_greedy_expected(
    base: &PpmInstance,
    base_disabled: &[usize],
    scenarios: &[Scenario],
    budget: usize,
) -> Vec<usize> {
    let num_edges = base.num_edges;
    let t_count = base.traffics.len();
    let s_count = scenarios.len();

    let base_vol: Vec<f64> = base.traffics.iter().map(|&(v, _)| v).collect();
    let mut vols: Vec<Vec<f64>> = Vec::with_capacity(s_count);
    let mut totals: Vec<f64> = Vec::with_capacity(s_count);
    let mut dead: Vec<Vec<bool>> = Vec::with_capacity(s_count);
    for s in scenarios {
        let mut v = base_vol.clone();
        for &(t, f) in &s.demand_factors {
            v[t] *= f;
        }
        totals.push(v.iter().sum());
        vols.push(v);
        let mut d = vec![false; num_edges];
        for &e in base_disabled.iter().chain(&s.failed_links) {
            if e < num_edges {
                d[e] = true;
            }
        }
        dead.push(d);
    }
    let mut touch: Vec<Vec<u32>> = vec![Vec::new(); num_edges];
    for (t, (_, support)) in base.traffics.iter().enumerate() {
        for &e in support {
            touch[e].push(t as u32);
        }
    }

    let mut covered = vec![false; s_count * t_count];
    let mut chosen_mask = vec![false; num_edges];
    let mut chosen = Vec::new();
    for _ in 0..budget {
        let mut best: Option<(usize, f64)> = None;
        for e in 0..num_edges {
            if chosen_mask[e] || touch[e].is_empty() {
                continue;
            }
            let mut gain = 0.0f64;
            for s in 0..s_count {
                if dead[s][e] || totals[s] <= 0.0 {
                    continue;
                }
                let row = &covered[s * t_count..(s + 1) * t_count];
                for &t in &touch[e] {
                    if !row[t as usize] {
                        gain += vols[s][t as usize] / totals[s];
                    }
                }
            }
            // Strict improvement: ties keep the smallest link index.
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((e, gain));
            }
        }
        let Some((e, gain)) = best else { break };
        if gain <= 0.0 {
            break;
        }
        chosen_mask[e] = true;
        chosen.push(e);
        for s in 0..s_count {
            if dead[s][e] {
                continue;
            }
            for &t in &touch[e] {
                covered[s * t_count + t as usize] = true;
            }
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Reference: the beacon greedy as a rescan loop — per pick, count every
/// candidate's remaining probes. Returns the sorted beacons.
fn reference_place_beacons_greedy(probes: &ProbeSet, candidates: &[NodeId]) -> Vec<NodeId> {
    let mut remaining: Vec<&placement::active::Probe> = probes.probes.iter().collect();
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    let mut beacons = Vec::new();
    while !remaining.is_empty() {
        let (pick, count) = sorted
            .iter()
            .copied()
            .map(|c| (c, remaining.iter().filter(|p| p.u == c || p.v == c).count()))
            .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
            .expect("candidates non-empty while probes remain");
        assert!(count > 0, "probe endpoints are candidates");
        beacons.push(pick);
        remaining.retain(|p| p.u != pick && p.v != pick);
    }
    beacons.sort_unstable();
    beacons.dedup();
    beacons
}

/// Reference: the budget fallback as a trial loop — per pick, recompute
/// the whole coverage with each free link added.
fn reference_greedy_budget(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    disabled: &[usize],
) -> PpmSolution {
    let mut edges: Vec<usize> = installed
        .iter()
        .copied()
        .filter(|e| disabled.binary_search(e).is_err())
        .collect();
    let mut coverage = inst.coverage(&edges);
    for _ in 0..budget {
        let mut best: Option<(usize, f64)> = None;
        for e in 0..inst.num_edges {
            if disabled.binary_search(&e).is_ok() || edges.contains(&e) {
                continue;
            }
            let mut trial = edges.clone();
            trial.push(e);
            let gain = inst.coverage(&trial) - coverage;
            if gain > best.map_or(0.0, |(_, g)| g) {
                best = Some((e, gain));
            }
        }
        let Some((e, gain)) = best else { break };
        edges.push(e);
        coverage += gain;
    }
    PpmSolution::from_edges(inst, edges, false)
}

/// `Some(answer)`, or `None` when `f` panics.
fn unless_panics<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The sorted, duplicate-free links that `draws` pick out of `n`.
fn links(draws: &[u32], n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = draws.iter().map(|&d| d as usize % n).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The nodes of `all` whose bit is set in `mask`.
fn subset(all: &[NodeId], mask: u32) -> Vec<NodeId> {
    all.iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, &v)| v)
        .collect()
}

/// Strategy: a seeded family instance (6–12 routers), a failure-model
/// configuration with a sampling seed and ensemble size, link draws for
/// the installed and failed sets, and two candidate masks.
#[allow(clippy::type_complexity)]
fn cases() -> impl Strategy<
    Value = (
        (FamilySpec, u64),
        (FailureSpec, bool, u64, usize),
        (Vec<u32>, Vec<u32>),
        (u32, u32),
    ),
> {
    let family = (
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
        });
    let failure = (
        (1usize..=6, 0.0f64..=0.5, 0.0f64..=0.3, 0.0f64..=0.2),
        (0u32..2, 0u64..1000, 1usize..=12),
    )
        .prop_map(
            |((groups, group_rate, link_rate, churn), (dynamic, seed, count))| {
                let spec = FailureSpec {
                    groups,
                    group_rate,
                    link_rate,
                    churn,
                };
                spec.validate().expect("strategy emits valid specs");
                (spec, dynamic == 1, seed, count)
            },
        );
    let draws = || proptest::collection::vec(0u32..1000, 0..=4);
    (
        family,
        failure,
        (draws(), draws()),
        (0u32..1 << 12, 0u32..1 << 12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The three greedies against their references on one random family
    /// instance: the ensemble greedy with and without base-failed links at
    /// budgets 0–6, the beacon greedy over random and full candidate sets,
    /// and the budget fallback under random installed and failed links.
    #[test]
    fn marginal_gain_greedies_match_reference(case in cases()) {
        let ((family, seed), (fspec, dynamic, sample_seed, count), (inst_draws, fail_draws), (a, b)) =
            case;
        let pop = family.build(seed).expect("strategy emits valid specs");
        let inst = PpmInstance::from_traffic(&pop.graph, &GravitySpec::default().generate(&pop, seed));
        let n = inst.num_edges;
        let installed = links(&inst_draws, n);
        let disabled = links(&fail_draws, n);
        let what = format!("{family} seed {seed}, installed {installed:?}, disabled {disabled:?}");

        let model = FailureModel::try_new(&pop, &fspec).expect("valid spec");
        let dspec = DynamicSpec::default();
        let scenarios = model
            .sample_scenarios(inst.traffics.len(), dynamic.then_some(&dspec), count, sample_seed)
            .expect("valid sampling request");
        for base_disabled in [&[][..], &disabled] {
            for budget in 0..=6 {
                let got = greedy_expected(&inst, base_disabled, &scenarios, budget)
                    .expect("validated inputs");
                let want = reference_greedy_expected(&inst, base_disabled, &scenarios, budget);
                prop_assert_eq!(got, want, "greedy_expected, budget {}, {}", budget, what);
            }
        }

        let (g, _) = pop.router_subgraph();
        let all: Vec<NodeId> = g.nodes().collect();
        for (probes_from, beacons_from) in [(a, a), (a, b), (u32::MAX, u32::MAX), (a, u32::MAX)] {
            let probes = compute_probes(&g, &subset(&all, probes_from));
            let candidates = subset(&all, beacons_from);
            let got = unless_panics(|| place_beacons_greedy(&probes, &candidates).beacons);
            let want = unless_panics(|| reference_place_beacons_greedy(&probes, &candidates));
            prop_assert_eq!(got, want, "beacons, masks {:#x}/{:#x}, {}", probes_from, beacons_from, what);
        }

        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&installed).unwrap();
        for &e in &disabled {
            delta.try_fail_link(e).unwrap();
        }
        for budget in 0..=6 {
            let req = SolveRequest::budget(budget).with_work_budget(0);
            let SolveOutcome::Degraded { partial, reason: DegradeReason::GreedyFallback, .. } =
                delta.solve(&req).unwrap()
            else {
                panic!("budget {budget}: a zero work budget trips before any incumbent, {what}");
            };
            let got = partial.into_budget().expect("budget outcome");
            let live: Vec<usize> = installed.iter().copied().filter(|e| !disabled.contains(e)).collect();
            let base = inst.coverage(&live);
            for &e in got.edges.iter().filter(|e| !live.contains(e)) {
                let with: Vec<usize> = live.iter().copied().chain([e]).collect();
                prop_assert!(
                    inst.coverage(&with) > base,
                    "greedy_budget {}: {:?} adds link {}, which covers nothing new, {}", budget, got.edges, e, what
                );
            }
            let want = reference_greedy_budget(&inst, budget, &installed, &disabled);
            if got.edges != want.edges {
                // The reference may add a device whose trial "gain" is
                // float noise; the kernel stops before it.
                prop_assert!(
                    got.edges.iter().all(|e| want.edges.contains(e)),
                    "greedy_budget {}: {:?} vs reference {:?}, {}", budget, got.edges, want.edges, what
                );
                prop_assert_eq!(
                    got.coverage.to_bits(), want.coverage.to_bits(),
                    "greedy_budget {}: an extra reference pick covers something, {}", budget, what
                );
            }
        }
    }
}
