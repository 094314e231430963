//! Deployment variants of `PPM(k)` enabled by the MIP formulation
//! (paper Sections 1 and 4.3):
//!
//! * **incremental** — "from a set of already installed devices that cannot
//!   move, compute the best way to position a new set of monitors": the
//!   installed `x_e` are fixed to 1 and the MIP minimizes the added count;
//! * **budget** — "finding the best positioning of a limited number of
//!   devices": maximize the monitored volume subject to `Σ x_e ≤ B`;
//! * **expected gain** — "the estimation of the expected gain in buying one
//!   or a set of new devices": the budget problem on top of an installed
//!   base, reported as the coverage delta.

use milp::{Cmp, MipOptions, Model, Sense, SolveStatus, VarId, VarKind};

use crate::instance::PpmInstance;
use crate::passive::{build_lp2_target, selected_edges, ExactOptions, PpmSolution};
use crate::solve::{greedy_budget, Anytime};

/// Solution of the budget-constrained maximum-coverage problem.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSolution {
    /// All selected edges (including the pre-installed ones).
    pub edges: Vec<usize>,
    /// Volume covered.
    pub coverage: f64,
    /// Total volume of the instance.
    pub total_volume: f64,
    /// Whether the MIP proved optimality.
    pub proven_optimal: bool,
}

impl BudgetSolution {
    /// Builds a solution from a device set (ascending), computing its
    /// coverage on `inst`.
    pub(crate) fn from_edges(inst: &PpmInstance, edges: Vec<usize>, proven: bool) -> Self {
        BudgetSolution {
            coverage: inst.coverage(&edges),
            total_volume: inst.total_volume(),
            proven_optimal: proven,
            edges,
        }
    }

    /// Fraction of the total volume covered.
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_volume > 0.0 {
            self.coverage / self.total_volume
        } else {
            0.0
        }
    }
}

/// Minimum number of *additional* devices to reach coverage `k`, given
/// `installed` devices that cannot move. Returns the complete placement
/// (installed + new). `None` when the target is unreachable.
pub fn solve_incremental(
    inst: &PpmInstance,
    k: f64,
    installed: &[usize],
    opts: &ExactOptions,
) -> Option<PpmSolution> {
    let merged = inst.merged();
    // Target is k of the ORIGINAL volume (merging drops uncoverable mass).
    let (mut model, xs) = build_lp2_target(&merged, k * inst.total_volume());
    for &e in installed {
        assert!(e < inst.num_edges, "installed edge {e} out of range");
        model.fix_var(xs[e], 1.0);
        // Installed devices are sunk cost: exclude from the objective so
        // the solver minimizes only the new devices.
        model.set_cost(xs[e], 0.0);
    }
    let mip_opts = MipOptions {
        max_nodes: opts.max_nodes,
        time_limit: opts.time_limit,
        ..Default::default()
    };
    let sol = match model
        .solve_mip(&mip_opts, None)
        .and_then(|(out, _)| out.into_solution())
    {
        Ok(s) => s,
        Err(milp::SolverError::Infeasible) => return None,
        Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
    };
    Some(PpmSolution::from_edges(
        inst,
        selected_edges(&xs, &sol),
        sol.status == SolveStatus::Optimal,
    ))
}

/// Builds the maximum-coverage (budget) MIP over a merged instance:
/// maximize `Σ δ_t v_t` with `δ_t ≤ Σ_{e∈p_t} x_e` and a device budget
/// row over the non-installed edges. The budget row is the **last**
/// constraint with a placeholder RHS of 0 — callers set the actual budget
/// with [`Model::set_rhs`], which is what lets the warm-started chains of
/// [`crate::delta`] walk a budget grid on one model.
pub(crate) fn build_budget_model(merged: &PpmInstance, installed: &[usize]) -> (Model, Vec<VarId>) {
    let mut model = Model::new(Sense::Maximize);
    let xs: Vec<VarId> = (0..merged.num_edges)
        .map(|e| model.add_var(format!("x_e{e}"), VarKind::Binary, 0.0, 1.0, 0.0))
        .collect();
    let mut budget_terms = Vec::new();
    for (e, &x) in xs.iter().enumerate() {
        if installed.contains(&e) {
            model.fix_var(x, 1.0);
        } else {
            budget_terms.push((x, 1.0));
        }
    }
    // Objective: Σ δ_t v_t; constraints δ_t ≤ Σ_{e∈p_t} x_e.
    for (t, (v, support)) in merged.traffics.iter().enumerate() {
        let d = model.add_var(format!("delta_t{t}"), VarKind::Continuous, 0.0, 1.0, *v);
        let mut terms: Vec<(VarId, f64)> = support.iter().map(|&e| (xs[e], 1.0)).collect();
        terms.push((d, -1.0));
        model.add_constr(terms, Cmp::Ge, 0.0);
    }
    model.add_constr(budget_terms, Cmp::Le, 0.0);
    (model, xs)
}

/// Maximum-coverage placement of at most `budget` new devices on top of
/// `installed` ones (pass `&[]` for a fresh deployment).
pub fn solve_budget(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    opts: &ExactOptions,
) -> BudgetSolution {
    solve_budget_anytime(inst, budget, installed, opts, None).unbudgeted()
}

/// The one-shot budget kernel under the anytime contract, for the unified
/// dispatcher ([`crate::solve::solve_instance`]).
pub(crate) fn solve_budget_anytime(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    opts: &ExactOptions,
    work_budget: Option<u64>,
) -> Anytime<BudgetSolution> {
    let merged = inst.merged();
    let (mut model, xs) = build_budget_model(&merged, installed);
    let budget_row = model.constr(model.constr_count() - 1);
    model.set_rhs(budget_row, budget as f64);

    let mip_opts = MipOptions {
        max_nodes: opts.max_nodes,
        time_limit: opts.time_limit,
        work_budget,
        ..Default::default()
    };
    let outcome = match model.solve_mip(&mip_opts, None) {
        Ok((outcome, _)) => outcome,
        // The node limit closed the search before any incumbent landed.
        Err(milp::SolverError::NodeLimitNoSolution { .. }) => {
            let mut base = installed.to_vec();
            base.sort_unstable();
            base.dedup();
            return Anytime::Done(greedy_budget(inst, budget, &base, &[]));
        }
        Err(e) => panic!("budget problem is always feasible: {e:?}"),
    };
    Anytime::from_mip(outcome, |sol, proven| {
        BudgetSolution::from_edges(inst, selected_edges(&xs, sol), proven)
    })
}

/// Expected coverage gain (absolute volume) from buying `extra` devices on
/// top of `installed` — the paper's "estimation of the expected gain in
/// buying one or a set of new devices".
pub fn expected_gain(
    inst: &PpmInstance,
    installed: &[usize],
    extra: usize,
    opts: &ExactOptions,
) -> f64 {
    let before = inst.coverage(installed);
    let after = solve_budget(inst, extra, installed, opts).coverage;
    (after - before).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;

    #[test]
    fn incremental_respects_installed() {
        let inst = fixture_figure3();
        // Pre-install the greedy-bait heavy link 0; completing to k=1 needs
        // 2 more (links 3/4 or 1/2 pick up the weight-1 traffics).
        let s = solve_incremental(&inst, 1.0, &[0], &ExactOptions::default()).unwrap();
        assert!(s.edges.contains(&0), "installed device must stay");
        assert_eq!(
            s.device_count(),
            3,
            "two new devices on top of the installed one"
        );
        assert!(inst.is_feasible(&s.edges, 1.0));
    }

    #[test]
    fn incremental_with_empty_base_matches_exact() {
        let inst = fixture_figure3();
        let a = solve_incremental(&inst, 1.0, &[], &ExactOptions::default()).unwrap();
        let b = crate::passive::solve_ppm_exact(&inst, 1.0, &ExactOptions::default()).unwrap();
        assert_eq!(a.device_count(), b.device_count());
    }

    #[test]
    fn budget_zero_covers_installed_only() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 0, &[0], &ExactOptions::default());
        assert_eq!(s.edges, vec![0]);
        assert_eq!(s.coverage, 4.0);
    }

    #[test]
    fn budget_one_fresh_takes_heaviest() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 1, &[], &ExactOptions::default());
        assert_eq!(s.edges.len(), 1);
        assert_eq!(
            s.coverage, 4.0,
            "best single edge covers the two weight-2 traffics"
        );
    }

    #[test]
    fn budget_two_fresh_covers_everything() {
        let inst = fixture_figure3();
        let s = solve_budget(&inst, 2, &[], &ExactOptions::default());
        assert_eq!(s.coverage, 6.0);
        assert!((s.coverage_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_monotone() {
        let inst = fixture_figure3();
        let mut last = 0.0;
        for b in 0..=3 {
            let s = solve_budget(&inst, b, &[], &ExactOptions::default());
            assert!(s.coverage + 1e-9 >= last);
            last = s.coverage;
        }
    }

    #[test]
    fn expected_gain_decreases_with_base() {
        let inst = fixture_figure3();
        let fresh = expected_gain(&inst, &[], 1, &ExactOptions::default());
        let on_top = expected_gain(&inst, &[0], 1, &ExactOptions::default());
        assert_eq!(fresh, 4.0);
        // With edge 0 installed, one more device adds at most 2.0 (one of
        // the weight-1 traffics via links 1/2... link 1 adds t2 (1.0) and
        // t0 already covered; link 2 likewise).
        assert!(on_top <= 2.0 + 1e-9);
        assert!(on_top > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incremental_rejects_bad_edge() {
        solve_incremental(&fixture_figure3(), 1.0, &[99], &ExactOptions::default());
    }
}
