//! Exact `PPM(k)` via the paper's MIP formulations.
//!
//! * [`build_lp2`] / [`solve_ppm_exact`] — Linear Program 2, the compact
//!   formulation: binary `x_e` (device on link `e`), fractional `δ_t`
//!   (share of traffic `t` monitored), constraints
//!   `Σ_{e ∈ p_t} x_e ≥ δ_t` and `Σ_t δ_t·v_t ≥ k·Σ_t v_t`.
//! * [`build_lp1`] / [`solve_ppm_mecf`] — Linear Program 1, the arc-path
//!   MECF formulation with explicit flow variables `f_t^e`; bigger but kept
//!   for cross-validation (Theorem 2 says both solve the same problem).
//!
//! The exact solver first merges identical-support traffics (halving the
//! row count on symmetric-routing instances), then always warm-starts the
//! MIP with the best greedy solution so branch-and-bound prunes from the
//! start.

use milp::{Cmp, MipOptions, Model, Sense, VarId, VarKind};

use crate::instance::PpmInstance;
use crate::passive::{greedy_adaptive, greedy_static, selected_edges, PpmSolution};
use crate::solve::Anytime;

/// Options for the exact batch solvers. A deterministic work budget is a
/// [`crate::solve::SolveRequest`] knob, not one of these: the request path
/// reports a tripped budget as [`crate::solve::SolveOutcome::Degraded`].
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Node limit handed to branch-and-bound.
    pub max_nodes: usize,
    /// Optional wall-clock limit (host-dependent; reproducible callers
    /// leave it `None`).
    pub time_limit: Option<std::time::Duration>,
    /// Relative optimality gap at which the search may stop early
    /// (default: prove optimality). Useful for the fixed-charge `PPME`
    /// MILP whose LP bound is loose.
    pub rel_gap: f64,
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            time_limit: None,
            rel_gap: 1e-9,
        }
    }
}

/// Builds Linear Program 2 for `inst` at fraction `k` (of the instance's
/// own total volume).
///
/// Returns the model and the `x_e` variable per edge (the `δ_t` variables
/// follow in order but are internal). The generic building block behind
/// the exact solver and the incremental/budget variants.
pub fn build_lp2(inst: &PpmInstance, k: f64) -> (Model, Vec<VarId>) {
    build_lp2_target(inst, k * inst.total_volume())
}

/// [`build_lp2`] with an explicit coverage target in absolute volume.
///
/// This matters when solving a *merged* instance: merging drops
/// uncoverable (empty-support) traffics, so `k · merged.total_volume()`
/// would silently weaken the requirement; the exact solvers always pass
/// `k · V` of the original instance.
pub fn build_lp2_target(inst: &PpmInstance, target_volume: f64) -> (Model, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let mut coverage_terms = Vec::with_capacity(inst.traffics.len());
    for (t, (v, support)) in inst.traffics.iter().enumerate() {
        let d = m.add_var(format!("delta_t{t}"), VarKind::Continuous, 0.0, 1.0, 0.0);
        // Σ_{e ∈ p_t} x_e - δ_t ≥ 0
        let mut terms: Vec<(VarId, f64)> = support.iter().map(|&e| (xs[e], 1.0)).collect();
        terms.push((d, -1.0));
        m.add_constr(terms, Cmp::Ge, 0.0);
        coverage_terms.push((d, *v));
    }
    // Σ_t δ_t v_t ≥ target
    m.add_constr(coverage_terms, Cmp::Ge, target_volume);
    (m, xs)
}

/// Builds Linear Program 1 (arc-path MECF form) for `inst` at fraction `k`.
///
/// Variables: `x_e` binary and one `f_t^e ≥ 0` per (traffic, edge on its
/// path). Constraints follow the paper verbatim:
/// `Σ_{t ∈ π_e} f_t^e ≤ x_e · Σ_{t ∈ π_e} v_t` (pay for the arc),
/// `Σ_{e ∈ p_t} f_t^e ≤ v_t` (volume cap), and the flow request
/// `Σ_t Σ_e f_t^e ≥ k·V`.
pub fn build_lp1(inst: &PpmInstance, k: f64) -> (Model, Vec<VarId>) {
    build_lp1_target(inst, k * inst.total_volume())
}

/// [`build_lp1`] with an explicit coverage target in absolute volume (see
/// [`build_lp2_target`] for why).
pub fn build_lp1_target(inst: &PpmInstance, target_volume: f64) -> (Model, Vec<VarId>) {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<VarId> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let loads = inst.edge_loads();
    // f_t^e variables, grouped per edge for the capacity rows.
    let mut per_edge: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_edges];
    let mut request = Vec::new();
    for (t, (v, support)) in inst.traffics.iter().enumerate() {
        let mut per_traffic = Vec::with_capacity(support.len());
        for &e in support {
            let f = m.add_var(format!("f_t{t}_e{e}"), VarKind::Continuous, 0.0, *v, 0.0);
            per_edge[e].push((f, 1.0));
            per_traffic.push((f, 1.0));
            request.push((f, 1.0));
        }
        // Σ_{e ∈ p_t} f_t^e ≤ v_t
        m.add_constr(per_traffic, Cmp::Le, *v);
    }
    for (e, mut terms) in per_edge.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        // Σ_{t ∈ π_e} f_t^e - x_e·load(e) ≤ 0
        terms.push((xs[e], -loads[e]));
        m.add_constr(terms, Cmp::Le, 0.0);
    }
    m.add_constr(request, Cmp::Ge, target_volume);
    (m, xs)
}

/// Solves `PPM(k)` exactly through Linear Program 2.
///
/// Returns `None` when the target is unreachable (uncoverable traffic
/// exceeds `1 - k`).
pub fn solve_ppm_exact(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    solve_with(inst, k, opts, None, Formulation::Lp2).unbudgeted()
}

/// Solves `PPM(k)` exactly through the arc-path Linear Program 1 (slower;
/// used for cross-validation against LP 2).
pub fn solve_ppm_mecf(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    solve_with(inst, k, opts, None, Formulation::Lp1).unbudgeted()
}

/// Nodes evaluated per batch-synchronous round of the MIP search. A fixed
/// constant (not a function of the worker count) so the branch-and-bound
/// trajectory — and therefore every solution and CSV derived from it — is
/// identical whether the node LPs run on 1 thread or 16.
const EXACT_NODE_BATCH: usize = 8;

/// Which of the paper's two MIP formulations to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Formulation {
    /// Linear Program 2 (compact x/δ form) — the default.
    Lp2,
    /// Linear Program 1 (arc-path MECF form) — cross-validation.
    Lp1,
}

/// The one-shot exact LP2 kernel under the anytime contract, for the
/// unified dispatcher ([`crate::solve::solve_instance`]).
pub(crate) fn solve_ppm_exact_anytime(
    inst: &PpmInstance,
    k: f64,
    opts: &ExactOptions,
    work_budget: Option<u64>,
) -> Anytime<Option<PpmSolution>> {
    solve_with(inst, k, opts, work_budget, Formulation::Lp2)
}

fn solve_with(
    inst: &PpmInstance,
    k: f64,
    opts: &ExactOptions,
    work_budget: Option<u64>,
    formulation: Formulation,
) -> Anytime<Option<PpmSolution>> {
    assert!(
        k.is_finite() && (0.0..=1.0 + 1e-12).contains(&k),
        "monitoring fraction k must lie in [0, 1], got {k}"
    );
    // The coverage target is k of the ORIGINAL volume; merging only drops
    // traffics that cannot be covered anyway, and the target must not
    // weaken with them.
    let target = k * inst.total_volume();
    if target > inst.max_coverage_fraction() * inst.total_volume() + 1e-9 {
        return Anytime::Done(None);
    }
    let merged = inst.merged();
    let (mut model, xs) = match formulation {
        Formulation::Lp2 => build_lp2_target(&merged, target),
        Formulation::Lp1 => build_lp1_target(&merged, target),
    };

    install_greedy_incumbent(&mut model, &xs, inst, &merged, k);

    let mip_opts = MipOptions {
        max_nodes: opts.max_nodes,
        time_limit: opts.time_limit,
        rel_gap: opts.rel_gap,
        // Solve node LPs in parallel (POPMON_THREADS-aware). The batch
        // size is a FIXED constant, never derived from the thread count:
        // search decisions depend only on the batch, so CSV and golden
        // outputs stay byte-identical at any `threads` setting.
        threads: 0,
        node_batch: EXACT_NODE_BATCH,
        work_budget,
    };
    let outcome = match model.solve_mip(&mip_opts, None) {
        Ok((out, _)) => out,
        Err(milp::SolverError::Infeasible) => return Anytime::Done(None),
        Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
    };
    Anytime::from_mip(outcome, |sol, proven| {
        let solution = PpmSolution::from_edges(inst, selected_edges(&xs, sol), proven);
        debug_assert!(
            inst.is_feasible(&solution.edges, k),
            "exact solver produced an infeasible selection: coverage {} < {}",
            solution.coverage,
            target
        );
        Some(solution)
    })
}

/// Seeds `model` with the better of the two greedy solutions on the
/// original instance (which carries the correct target semantics) as the
/// branch-and-bound's initial incumbent. Shared by the one-shot exact
/// solver and the warm-started sweep chains of [`crate::delta`].
pub(crate) fn install_greedy_incumbent(
    model: &mut Model,
    xs: &[VarId],
    inst: &PpmInstance,
    merged: &PpmInstance,
    k: f64,
) {
    let warm = match (greedy_static(inst, k), greedy_adaptive(inst, k)) {
        (Some(a), Some(b)) => Some(if a.device_count() <= b.device_count() {
            a
        } else {
            b
        }),
        (a, b) => a.or(b),
    };
    if let Some(w) = warm {
        let mut values = vec![0.0; model.var_count()];
        for &e in &w.edges {
            values[xs[e].index()] = 1.0;
        }
        // Set δ_t consistently: for LP2 the δs are the covered
        // indicator; for LP1 (flow variables) skip the warm start.
        let mut var = inst_delta_offset(model, xs);
        if let Some(delta_start) = var.take() {
            for (t, (_, support)) in merged.traffics.iter().enumerate() {
                let covered = support.iter().any(|&e| w.edges.contains(&e));
                values[delta_start + t] = if covered { 1.0 } else { 0.0 };
            }
            model.set_initial_solution(values);
        }
    }
}

/// For LP2-shaped models the δ variables start right after the x block;
/// detect that by name so the warm start can fill them. Returns `None` for
/// LP1-shaped models (flow variables), where warm starts are skipped.
fn inst_delta_offset(model: &Model, xs: &[VarId]) -> Option<usize> {
    let first = xs.len();
    if first < model.var_count() && model.var_name(model.var(first)).starts_with("delta") {
        Some(first)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::passive::brute_force_ppm;

    #[test]
    fn figure3_optimum_is_two() {
        let inst = fixture_figure3();
        let s = solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).unwrap();
        assert_eq!(
            s.device_count(),
            2,
            "optimal solution uses the two load-3 links"
        );
        assert_eq!(s.edges, vec![1, 2]);
        assert!(s.proven_optimal);
    }

    #[test]
    fn lp1_agrees_with_lp2_on_figure3() {
        let inst = fixture_figure3();
        for k in [0.5, 0.75, 1.0] {
            let a = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
            let b = solve_ppm_mecf(&inst, k, &ExactOptions::default()).unwrap();
            assert_eq!(a.device_count(), b.device_count(), "k = {k}");
        }
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let instances = vec![
            fixture_figure3(),
            crate::instance::PpmInstance::new(
                4,
                vec![
                    (3.0, vec![0]),
                    (2.0, vec![1, 2]),
                    (2.0, vec![2, 3]),
                    (1.0, vec![0, 3]),
                ],
            ),
        ];
        for inst in instances {
            for k in [0.4, 0.7, 0.9, 1.0] {
                let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
                let brute = brute_force_ppm(&inst, k).unwrap();
                assert_eq!(
                    exact.device_count(),
                    brute.device_count(),
                    "k = {k}, exact {:?} vs brute {:?}",
                    exact.edges,
                    brute.edges
                );
            }
        }
    }

    #[test]
    fn exact_never_beaten_by_greedy() {
        let inst = fixture_figure3();
        for k in [0.5, 0.8, 1.0] {
            let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
            for g in [
                crate::passive::greedy_static(&inst, k).unwrap(),
                crate::passive::greedy_adaptive(&inst, k).unwrap(),
            ] {
                assert!(exact.device_count() <= g.device_count());
            }
            assert!(inst.is_feasible(&exact.edges, k));
        }
    }

    #[test]
    fn unreachable_target_returns_none() {
        let inst = crate::instance::PpmInstance::new(1, vec![(1.0, vec![0]), (1.0, vec![])]);
        assert!(solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).is_none());
        assert!(solve_ppm_exact(&inst, 0.5, &ExactOptions::default()).is_some());
    }

    #[test]
    fn zero_k_is_empty_solution() {
        let inst = fixture_figure3();
        let s = solve_ppm_exact(&inst, 0.0, &ExactOptions::default()).unwrap();
        assert_eq!(s.device_count(), 0);
    }

    #[test]
    fn pop_instance_exact_beats_greedy_weakly() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 17);
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        let k = 0.9;
        let exact = solve_ppm_exact(&inst, k, &ExactOptions::default()).unwrap();
        let greedy = crate::passive::greedy_static(&inst, k).unwrap();
        assert!(inst.is_feasible(&exact.edges, k));
        assert!(exact.device_count() <= greedy.device_count());
        assert!(exact.proven_optimal);
    }
}
