//! Monte-Carlo resilience campaigns: scoring a fixed placement over a
//! sampled failure ensemble through one warm delta chain.
//!
//! The paper places devices against a single static topology and traffic
//! matrix; a production fleet sees correlated link failures (SRLGs) and
//! demand churn. This module evaluates how a placement *holds up*: each
//! scenario of a [`popgen::failure`] ensemble is walked through a
//! [`DeltaInstance`] chain — [`DeltaInstance::try_fail_link`] per failed
//! link, [`DeltaInstance::try_scale_demand`] per demand factor — scored, and
//! rolled back ([`DeltaInstance::try_restore_link`] +
//! [`DeltaInstance::try_set_demand`] with the recorded base volume, an exact
//! float reset), so a thousand scenarios cost incremental updates, never
//! a cold rebuild.
//!
//! **Exactness contract** (proven by `tests/proptest_resilience.rs`): on
//! unrouted chains, [`score_ensemble`] is *bitwise* equal to
//! [`score_ensemble_cold`], which builds an independent [`PpmInstance`]
//! per scenario. The warm path tracks, per traffic, how many live placed
//! devices sit on its support (an integer — exact under increments), and
//! recomputes the covered/total volume sums in original traffic order,
//! the same float summation sequence as [`PpmInstance::coverage`] /
//! [`PpmInstance::total_volume`]. Scenario volumes are `base * factor`
//! in both paths, and the reset restores the recorded base bits.
//!
//! On *routed* chains failures re-route the crossing traffics, so
//! supports change and incremental counters do not apply: the scorer
//! falls back to re-scoring the whole re-routed instance per scenario
//! (same chain, same reset contract, documented slow path).
//!
//! [`greedy_expected`] is the stochastic-aware counterpart of the
//! paper's greedy: it picks devices maximizing *expected coverage over
//! the sampled ensemble* — a device on a frequently-failing link earns
//! its keep only in the scenarios where it survives — for head-to-head
//! comparison against the deterministic optimum (the `xp_resilience`
//! sweep).

use popgen::failure::Scenario;

use crate::delta::DeltaInstance;
use crate::instance::PpmInstance;
use crate::setcover::{greedy_max_cover, SetCoverInstance};
use crate::solve::PlacementError;

/// One scenario's outcome for the scored placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScore {
    /// Covered fraction of the scenario's total volume (`1.0` when the
    /// scenario has no volume at all).
    pub coverage: f64,
    /// Placed devices still alive (not on a failed or disabled link).
    pub live_devices: usize,
}

/// Ensemble-level summary of a placement under failure.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleScore {
    /// Mean covered fraction over the ensemble, in scenario order.
    pub expected_coverage: f64,
    /// The 1%-tail coverage: with scenarios sorted by coverage ascending,
    /// the value at index `⌊(n − 1) / 100⌋` (the 10th-worst of 1000; the
    /// worst case for ensembles under 101 scenarios).
    pub p99_tail: f64,
    /// The minimum coverage over the ensemble.
    pub worst_case: f64,
    /// Per-scenario outcomes, in ensemble order.
    pub per_scenario: Vec<ScenarioScore>,
}

/// Validates ensemble inputs against the instance dimensions: placement
/// edges in range; per scenario, failed links strictly ascending and in
/// range, demand factors strictly ascending by traffic, in range, finite
/// and non-negative. Nothing is mutated on rejection.
fn validate(
    num_edges: usize,
    traffic_count: usize,
    placement: &[usize],
    scenarios: &[Scenario],
) -> Result<(), PlacementError> {
    if scenarios.is_empty() {
        return Err(PlacementError::new(
            "scenarios",
            "need at least one scenario".to_string(),
        ));
    }
    if let Some(&e) = placement.iter().find(|&&e| e >= num_edges) {
        return Err(PlacementError::new(
            "placement",
            format!("link {e} out of range (instance has {num_edges} links)"),
        ));
    }
    for (i, s) in scenarios.iter().enumerate() {
        for (j, &e) in s.failed_links.iter().enumerate() {
            if e >= num_edges {
                return Err(PlacementError::new(
                    "scenario",
                    format!("scenario {i}: link {e} out of range (instance has {num_edges} links)"),
                ));
            }
            if j > 0 && s.failed_links[j - 1] >= e {
                return Err(PlacementError::new(
                    "scenario",
                    format!("scenario {i}: failed links must be strictly ascending"),
                ));
            }
        }
        for (j, &(t, f)) in s.demand_factors.iter().enumerate() {
            if t >= traffic_count {
                return Err(PlacementError::new(
                    "scenario",
                    format!(
                        "scenario {i}: traffic {t} out of range (instance has {traffic_count} traffics)"
                    ),
                ));
            }
            if j > 0 && s.demand_factors[j - 1].0 >= t {
                return Err(PlacementError::new(
                    "scenario",
                    format!("scenario {i}: demand factors must be strictly ascending by traffic"),
                ));
            }
            if !f.is_finite() || f < 0.0 {
                return Err(PlacementError::new(
                    "scenario",
                    format!("scenario {i}: factor must be finite and >= 0, got {f}"),
                ));
            }
        }
    }
    Ok(())
}

/// Folds per-scenario outcomes into the ensemble summary (see the field
/// docs for the exact definitions). `per` must be non-empty.
fn summarize(per: Vec<ScenarioScore>) -> EnsembleScore {
    let n = per.len();
    let expected = per.iter().map(|p| p.coverage).sum::<f64>() / n as f64;
    let worst = per.iter().map(|p| p.coverage).fold(f64::INFINITY, f64::min);
    let mut sorted: Vec<f64> = per.iter().map(|p| p.coverage).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    EnsembleScore {
        expected_coverage: expected,
        p99_tail: sorted[(n - 1) / 100],
        worst_case: worst,
        per_scenario: per,
    }
}

/// The covered fraction: `covered / total`, or `1.0` for an all-zero
/// scenario (nothing to cover).
fn fraction(covered: f64, total: f64) -> f64 {
    if total > 0.0 {
        covered / total
    } else {
        1.0
    }
}

/// Scores a fixed `placement` over a failure ensemble through `delta`'s
/// warm chain, leaving the chain in its entry state (same failures, same
/// volumes — bit-exact) when it returns.
///
/// Links already failed on the chain stay failed in every scenario (a
/// scenario re-failing one is a no-op, not a double fault), and devices
/// on them are dead throughout. On unrouted chains the result is bitwise
/// equal to [`score_ensemble_cold`]; routed chains take the documented
/// re-scoring slow path.
///
/// Past the up-front validation the only error is a scaled demand that
/// overflows to infinity; it returns with that scenario's earlier deltas
/// still applied to the chain.
pub fn score_ensemble(
    delta: &mut DeltaInstance,
    placement: &[usize],
    scenarios: &[Scenario],
) -> Result<EnsembleScore, PlacementError> {
    validate(
        delta.num_edges(),
        delta.traffic_count(),
        placement,
        scenarios,
    )?;
    let mut placed: Vec<usize> = placement.to_vec();
    placed.sort_unstable();
    placed.dedup();
    if delta.is_routed() {
        return score_routed(delta, &placed, scenarios);
    }

    let base = delta.instance();
    let num_edges = base.num_edges;
    let t_count = base.traffics.len();
    let mut placed_mask = vec![false; num_edges];
    for &e in &placed {
        placed_mask[e] = true;
    }
    let mut base_disabled_mask = vec![false; num_edges];
    for &e in delta.disabled() {
        base_disabled_mask[e] = true;
    }
    // Per traffic: how many placed, currently-live devices sit on its
    // support. Integer, so incremental fail/restore updates are exact.
    let mut hits = vec![0u32; t_count];
    // Per placed edge: the traffics whose support contains it.
    let mut touch: Vec<Vec<u32>> = vec![Vec::new(); num_edges];
    for (t, (_, support)) in base.traffics.iter().enumerate() {
        for &e in support {
            if placed_mask[e] {
                touch[e].push(t as u32);
                if !base_disabled_mask[e] {
                    hits[t] += 1;
                }
            }
        }
    }
    let live_base = placed.iter().filter(|&&e| !base_disabled_mask[e]).count();
    // The entry volumes, restored after every scenario, and the current
    // ones, mirroring the chain's own state.
    let base_vol: Vec<f64> = base.traffics.iter().map(|&(v, _)| v).collect();
    let mut vol = base_vol.clone();

    let mut per = Vec::with_capacity(scenarios.len());
    let mut newly_failed: Vec<usize> = Vec::new();
    for s in scenarios {
        for &(t, f) in &s.demand_factors {
            delta.try_scale_demand(t, f)?;
            // The same multiply the chain just did — and the same one the
            // cold path does — so the bits agree.
            vol[t] *= f;
        }
        newly_failed.clear();
        let mut dead_placed = 0usize;
        for &e in &s.failed_links {
            if base_disabled_mask[e] {
                continue; // already failed on the chain: no double fault
            }
            let rerouted = delta.try_fail_link(e)?;
            debug_assert_eq!(rerouted, 0, "unrouted chains never re-route");
            newly_failed.push(e);
            if placed_mask[e] {
                dead_placed += 1;
                for &t in &touch[e] {
                    hits[t as usize] -= 1;
                }
            }
        }
        // Covered/total volume sums in original traffic order — the exact
        // float sequence of `PpmInstance::coverage` / `total_volume`,
        // including `Sum`'s `-0.0` starting point (an empty covered set
        // must yield the same `-0.0` the cold path produces).
        let mut covered = -0.0f64;
        let mut total = -0.0f64;
        for (t, &v) in vol.iter().enumerate() {
            total += v;
            if hits[t] > 0 {
                covered += v;
            }
        }
        per.push(ScenarioScore {
            coverage: fraction(covered, total),
            live_devices: live_base - dead_placed,
        });
        // Roll back: restores re-enable the links, try_set_demand writes the
        // recorded base volume back bit-exactly.
        for &e in &newly_failed {
            let rerouted = delta.try_restore_link(e)?;
            debug_assert_eq!(rerouted, 0, "unrouted chains never re-route");
            if placed_mask[e] {
                for &t in &touch[e] {
                    hits[t as usize] += 1;
                }
            }
        }
        for &(t, _) in &s.demand_factors {
            delta.try_set_demand(t, base_vol[t])?;
            vol[t] = base_vol[t];
        }
    }
    Ok(summarize(per))
}

/// The routed slow path: mutate, score the whole instance, roll back. The
/// chain's delta-aware re-routing still makes this cheaper than cold
/// rebuilds (only crossing traffics re-route on each failure), but the
/// incremental counters of the unrouted path do not apply once supports
/// move.
fn score_routed(
    delta: &mut DeltaInstance,
    placed: &[usize],
    scenarios: &[Scenario],
) -> Result<EnsembleScore, PlacementError> {
    let base_volumes: Vec<f64> = (0..delta.traffic_count())
        .map(|t| delta.demand(t))
        .collect();
    let base_disabled: Vec<usize> = delta.disabled().to_vec();
    let mut per = Vec::with_capacity(scenarios.len());
    let mut newly_failed: Vec<usize> = Vec::new();
    for s in scenarios {
        for &(t, f) in &s.demand_factors {
            delta.try_scale_demand(t, f)?;
        }
        newly_failed.clear();
        for &e in &s.failed_links {
            if base_disabled.binary_search(&e).is_ok() {
                continue;
            }
            delta.try_fail_link(e)?;
            newly_failed.push(e);
        }
        let inst = delta.instance();
        let live: Vec<usize> = placed
            .iter()
            .copied()
            .filter(|e| delta.disabled().binary_search(e).is_err())
            .collect();
        per.push(ScenarioScore {
            coverage: fraction(inst.coverage(&live), inst.total_volume()),
            live_devices: live.len(),
        });
        for &e in &newly_failed {
            delta.try_restore_link(e)?;
        }
        for &(t, _) in &s.demand_factors {
            delta.try_set_demand(t, base_volumes[t])?;
        }
    }
    Ok(summarize(per))
}

/// The cold-rebuild reference: an independent [`PpmInstance`] per
/// scenario, no chain, no incremental state. This is the differential
/// oracle for [`score_ensemble`] on unrouted chains (bitwise-equal
/// scores, checked by `tests/proptest_resilience.rs`). `base_disabled`
/// must be sorted.
pub fn score_ensemble_cold(
    base: &PpmInstance,
    base_disabled: &[usize],
    placement: &[usize],
    scenarios: &[Scenario],
) -> Result<EnsembleScore, PlacementError> {
    validate(base.num_edges, base.traffics.len(), placement, scenarios)?;
    let mut placed: Vec<usize> = placement.to_vec();
    placed.sort_unstable();
    placed.dedup();
    let mut per = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let mut traffics = base.traffics.clone();
        for &(t, f) in &s.demand_factors {
            traffics[t].0 *= f;
        }
        let inst = PpmInstance::new(base.num_edges, traffics);
        let live: Vec<usize> = placed
            .iter()
            .copied()
            .filter(|e| {
                base_disabled.binary_search(e).is_err() && s.failed_links.binary_search(e).is_err()
            })
            .collect();
        per.push(ScenarioScore {
            coverage: fraction(inst.coverage(&live), inst.total_volume()),
            live_devices: live.len(),
        });
    }
    Ok(summarize(per))
}

/// Stochastic-aware greedy: picks up to `budget` devices maximizing the
/// summed covered *fraction* over the sampled ensemble (equivalently, the
/// expected coverage), accounting for device death — a device on link `e`
/// contributes nothing in scenarios where `e` fails or is in
/// `base_disabled`. It is [`greedy_max_cover`] over one element per
/// (scenario, traffic), weighted by the traffic's share of that
/// scenario's volume: gains within `1e-9 ·` the ensemble's total weight
/// tie and go to the smaller link index, and the build stops early when
/// no device adds coverage. Returns the chosen links, ascending.
///
/// This is the head-to-head rival of the deterministic optimum in the
/// `xp_resilience` sweep: on a static instance (empty scenarios'
/// failures) it degenerates to the classic greedy ordering.
pub fn greedy_expected(
    base: &PpmInstance,
    base_disabled: &[usize],
    scenarios: &[Scenario],
    budget: usize,
) -> Result<Vec<usize>, PlacementError> {
    validate(base.num_edges, base.traffics.len(), &[], scenarios)?;
    let num_edges = base.num_edges;
    let t_count = base.traffics.len();

    // Element `s · T + t` is traffic `t` in scenario `s`. Link `e`'s set
    // lists, scenario by scenario, the traffics on it in traffic order, so
    // each gain sums the same fractions in the same order as a dense scan.
    let mut weights = Vec::with_capacity(scenarios.len() * t_count);
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); num_edges];
    let mut touch: Vec<Vec<usize>> = vec![Vec::new(); num_edges];
    for (t, (_, support)) in base.traffics.iter().enumerate() {
        for &e in support {
            touch[e].push(t);
        }
    }
    let mut dead = vec![false; num_edges];
    for (s, scenario) in scenarios.iter().enumerate() {
        let mut vol: Vec<f64> = base.traffics.iter().map(|&(v, _)| v).collect();
        for &(t, f) in &scenario.demand_factors {
            vol[t] *= f;
        }
        let total: f64 = vol.iter().sum();
        weights.extend(
            vol.iter()
                .map(|v| if total > 0.0 { v / total } else { 0.0 }),
        );
        dead.fill(false);
        for &e in base_disabled.iter().chain(&scenario.failed_links) {
            if e < num_edges {
                dead[e] = true;
            }
        }
        for e in (0..num_edges).filter(|&e| !dead[e]) {
            sets[e].extend(touch[e].iter().map(|&t| s * t_count + t));
        }
    }
    let mut chosen = greedy_max_cover(&SetCoverInstance::new(weights, sets), budget).selection;
    chosen.sort_unstable();
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;

    fn scenario(failed: &[usize], factors: &[(usize, f64)]) -> Scenario {
        Scenario {
            failed_links: failed.to_vec(),
            demand_factors: factors.to_vec(),
        }
    }

    #[test]
    fn warm_matches_cold_bitwise_on_figure3() {
        let inst = fixture_figure3();
        let scenarios = vec![
            scenario(&[], &[]),
            scenario(&[1], &[(0, 2.5)]),
            scenario(&[0, 2], &[(1, 0.25), (3, 10.0)]),
            scenario(&[1, 2, 3], &[(2, 0.0)]),
            scenario(&[4], &[(0, 1.0 / 3.0), (2, 7.5)]),
        ];
        for placement in [vec![1, 2], vec![0], vec![], vec![0, 1, 2, 3, 4]] {
            let mut delta = DeltaInstance::from_instance(&inst);
            let warm = score_ensemble(&mut delta, &placement, &scenarios).unwrap();
            let cold = score_ensemble_cold(&inst, &[], &placement, &scenarios).unwrap();
            assert_eq!(warm.per_scenario.len(), cold.per_scenario.len());
            for (w, c) in warm.per_scenario.iter().zip(&cold.per_scenario) {
                assert_eq!(w.coverage.to_bits(), c.coverage.to_bits());
                assert_eq!(w.live_devices, c.live_devices);
            }
            assert_eq!(
                warm.expected_coverage.to_bits(),
                cold.expected_coverage.to_bits()
            );
            assert_eq!(warm.p99_tail.to_bits(), cold.p99_tail.to_bits());
            assert_eq!(warm.worst_case.to_bits(), cold.worst_case.to_bits());
            // The chain is back in its entry state.
            assert!(delta.disabled().is_empty());
            for (t, &(v, _)) in inst.traffics.iter().enumerate() {
                assert_eq!(delta.demand(t).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn base_failures_persist_across_scenarios() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_fail_link(1).unwrap();
        // Scenario re-failing link 1 must not double-fault or restore it.
        let scenarios = vec![scenario(&[1], &[]), scenario(&[], &[])];
        let warm = score_ensemble(&mut delta, &[1, 2], &scenarios).unwrap();
        let cold = score_ensemble_cold(&inst, &[1], &[1, 2], &scenarios).unwrap();
        for (w, c) in warm.per_scenario.iter().zip(&cold.per_scenario) {
            assert_eq!(w.coverage.to_bits(), c.coverage.to_bits());
            assert_eq!(w.live_devices, c.live_devices);
        }
        assert_eq!(delta.disabled(), &[1], "entry failure must survive");
    }

    #[test]
    fn routed_scoring_matches_fresh_chain_replay() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 0);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        let placement = vec![0, 3, 7];
        let scenarios = vec![
            scenario(&[2], &[(0, 3.0)]),
            scenario(&[], &[(1, 0.5)]),
            scenario(&[0, 5], &[]),
        ];
        let warm = score_ensemble(&mut delta, &placement, &scenarios).unwrap();
        assert!(delta.disabled().is_empty(), "chain must reset");
        for (i, s) in scenarios.iter().enumerate() {
            // Independent fresh chain per scenario: the cold reference for
            // routed instances (supports re-route around failures).
            let mut fresh = DeltaInstance::from_traffic(&pop.graph, &ts);
            for &(t, f) in &s.demand_factors {
                fresh.try_scale_demand(t, f).unwrap();
            }
            for &e in &s.failed_links {
                fresh.try_fail_link(e).unwrap();
            }
            let inst = fresh.instance();
            let live: Vec<usize> = placement
                .iter()
                .copied()
                .filter(|e| fresh.disabled().binary_search(e).is_err())
                .collect();
            let want = inst.coverage(&live) / inst.total_volume();
            assert_eq!(
                warm.per_scenario[i].coverage.to_bits(),
                want.to_bits(),
                "scenario {i}"
            );
            assert_eq!(warm.per_scenario[i].live_devices, live.len());
        }
        // And the chain still answers like new after the campaign.
        let replay = DeltaInstance::from_traffic(&pop.graph, &ts);
        let a = delta.instance();
        let b = replay.instance();
        for (x, y) in a.traffics.iter().zip(&b.traffics) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn summary_definitions() {
        let inst = fixture_figure3();
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| scenario(if i == 3 { &[1, 2] } else { &[] }, &[]))
            .collect();
        let mut delta = DeltaInstance::from_instance(&inst);
        let score = score_ensemble(&mut delta, &[1, 2], &scenarios).unwrap();
        // Links 1 and 2 cover everything; scenario 3 kills both.
        assert_eq!(score.worst_case, 0.0);
        assert_eq!(score.p99_tail, 0.0, "n < 101: tail is the worst case");
        assert!((score.expected_coverage - 0.75).abs() < 1e-12);
        assert_eq!(score.per_scenario[3].live_devices, 0);
    }

    #[test]
    fn greedy_expected_degenerates_to_static_greedy_without_failures() {
        let inst = fixture_figure3();
        let scenarios = vec![scenario(&[], &[])];
        let picked = greedy_expected(&inst, &[], &scenarios, 2).unwrap();
        // Figure 3's full cover: links 1 and 2 (each covering two
        // traffics' volume after link 0's tie loses on index order —
        // greedy picks 0 first at volume 4, then 1 and 2 tie at 1 each).
        let on_static = crate::passive::greedy_static(&inst, 1.0).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0], *on_static.edges.first().unwrap());
    }

    #[test]
    fn greedy_expected_avoids_failing_links() {
        let inst = fixture_figure3();
        // Link 0 carries the most volume but fails in every scenario:
        // the stochastic greedy must not waste a device on it.
        let scenarios = vec![scenario(&[0], &[]), scenario(&[0], &[])];
        let picked = greedy_expected(&inst, &[], &scenarios, 2).unwrap();
        assert!(!picked.contains(&0), "dead link picked: {picked:?}");
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn validation_is_typed_and_mutation_free() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let cases = [
            (vec![9], vec![scenario(&[], &[])], "placement"),
            (vec![0], vec![], "scenarios"),
            (vec![0], vec![scenario(&[9], &[])], "scenario"),
            (vec![0], vec![scenario(&[2, 1], &[])], "scenario"),
            (vec![0], vec![scenario(&[], &[(9, 1.0)])], "scenario"),
            (vec![0], vec![scenario(&[], &[(0, -1.0)])], "scenario"),
            (
                vec![0],
                vec![scenario(&[], &[(1, 1.0), (1, 2.0)])],
                "scenario",
            ),
        ];
        for (placement, scenarios, field) in cases {
            let err = score_ensemble(&mut delta, &placement, &scenarios).unwrap_err();
            assert_eq!(err.field, field, "{placement:?} / {scenarios:?}");
            let err = score_ensemble_cold(&inst, &[], &placement, &scenarios).unwrap_err();
            assert_eq!(err.field, field);
        }
        assert!(delta.disabled().is_empty());
    }
}
