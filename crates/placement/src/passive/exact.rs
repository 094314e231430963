//! Exact `PPM(k)` via the paper's MIP formulations.
//!
//! * [`build_lp2`] / [`ExactModel`] — Linear Program 2, the compact
//!   formulation: binary `x_e` (device on link `e`), fractional `δ_t`
//!   (share of traffic `t` monitored), constraints
//!   `Σ_{e ∈ p_t} x_e ≥ δ_t` and `Σ_t δ_t·v_t ≥ k·Σ_t v_t`.
//! * [`build_lp1`] / [`solve_ppm_mecf`] — Linear Program 1, the arc-path
//!   MECF formulation with explicit flow variables `f_t^e`; bigger but kept
//!   for cross-validation (Theorem 2 says both solve the same problem).
//!
//! Every LP 2 and budget solve goes through one crate-private
//! [`ExactModel`]: [`crate::solve::solve_instance`] and
//! [`crate::delta::DeltaInstance::solve`] answer a
//! [`crate::solve::SolveRequest`] with it, and `sampling`'s inner `PPM(1)`
//! cover calls it directly at its own gap. It merges identical-support
//! traffics (halving the row count on symmetric-routing instances), fixes
//! installed and failed links, seeds the MIP with the best greedy solution
//! on plain instances so branch-and-bound prunes from the start, and reads
//! the placement back.

use std::collections::HashMap;

use milp::{
    Cmp, ConstrId, MipOptions, MipWarmStart, Model, Sense, SolveStatus, SolverError, VarId, VarKind,
};

use crate::instance::PpmInstance;
use crate::passive::{assert_fraction, greedy_incumbent, selected_edges, PpmSolution};
use crate::solve::{greedy_budget, Anytime};

/// Options for the exact solvers that sit outside the
/// [`crate::solve::SolveRequest`] path: node limit and gap. They are taken
/// by [`solve_ppm_mecf_bb`](crate::passive::solve_ppm_mecf_bb), the LP 1
/// reference [`solve_ppm_mecf`], `PPME` ([`crate::sampling::solve_ppme`])
/// and `sampling`'s inner LP 2 cover. A request maps its node budget onto
/// these defaults, so every LP 2 and budget solve it runs uses the
/// default gap; a deterministic work budget is a
/// [`crate::solve::SolveRequest`] knob, not one of these, and a tripped
/// one is reported as [`crate::solve::SolveOutcome::Degraded`].
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Node limit handed to branch-and-bound.
    pub max_nodes: usize,
    /// Always `None`: no exact search reads a clock. The type has no
    /// other value; the field stays only so that struct literals which
    /// still write `time_limit: None` compile, and goes with them.
    pub time_limit: Option<std::convert::Infallible>,
    /// Relative optimality gap at which the search may stop early
    /// (default: prove optimality). Useful for the fixed-charge `PPME`
    /// MILP whose LP bound is loose. An answer that a looser gap than the
    /// default stopped is not reported proven optimal.
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
/// follow in order but are internal). The same program the exact LP 2
/// solves build over the merged instance.
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

/// Builds the maximum-coverage (budget) MIP over a merged instance:
/// maximize `Σ δ_t v_t` with `δ_t ≤ Σ_{e∈p_t} x_e` and a device budget
/// row over the non-installed edges. The budget row is the **last**
/// constraint with a placeholder RHS of 0 — [`ExactModel`] sets the
/// actual budget with [`Model::set_rhs`], which is what lets the
/// warm-started chains of [`crate::delta`] walk a budget grid on one
/// model.
fn build_budget_model(merged: &PpmInstance, installed: &[usize]) -> (Model, Vec<VarId>) {
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

/// Drops, in ascending link order, each new (not installed) device of a
/// budget answer whose removal leaves no positive-volume traffic of
/// `at.inst` uncovered. The budget model gives devices no cost, so an
/// optimum may switch on a free link that covers nothing the others do
/// not. The covered traffics stay the same, so the coverage does too, to
/// the bit.
fn drop_idle_devices(at: Deployment<'_>, mut edges: Vec<usize>) -> Vec<usize> {
    let traffics = &at.inst.traffics;
    // How many selected devices sit on each traffic.
    let mut cover: Vec<usize> = traffics
        .iter()
        .map(|(_, s)| edges.iter().filter(|e| s.contains(e)).count())
        .collect();
    edges.retain(|&e| {
        if at.installed.binary_search(&e).is_ok() {
            return true;
        }
        let crosses = |(v, s): &(f64, Vec<usize>)| *v > 0.0 && s.contains(&e);
        let needed = traffics
            .iter()
            .zip(&cover)
            .any(|(t, &c)| crosses(t) && c == 1);
        if !needed {
            for (t, c) in traffics.iter().zip(&mut cover) {
                if crosses(t) {
                    *c -= 1;
                }
            }
        }
        needed
    });
    edges
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

/// Solves `PPM(k)` exactly through the arc-path Linear Program 1 (slower;
/// used for cross-validation against LP 2).
pub fn solve_ppm_mecf(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    assert_fraction(k);
    let target = coverage_target(inst, k)?;
    let (model, xs) = build_lp1_target(&inst.merged(), target);
    let sol = match model
        .solve_mip(&opts.mip(None), None)
        .and_then(|(out, _)| out.into_solution())
    {
        Ok(sol) => sol,
        Err(SolverError::Infeasible) => return None,
        Err(e) => panic!("MIP solver failed unexpectedly: {e}"),
    };
    let proven = sol.status == SolveStatus::Optimal;
    Some(PpmSolution::from_edges(
        inst,
        selected_edges(&xs, &sol),
        proven,
    ))
}

/// The coverage target `k·V` in absolute volume, or `None` when the
/// uncoverable (empty-support) traffic makes it unreachable. The target is
/// `k` of the ORIGINAL volume: merging only drops traffics that cannot be
/// covered anyway, and the target must not weaken with them.
pub(super) fn coverage_target(inst: &PpmInstance, k: f64) -> Option<f64> {
    let target = k * inst.total_volume();
    (target <= inst.max_coverage_fraction() * inst.total_volume() + 1e-9).then_some(target)
}

impl ExactOptions {
    /// The MIP search of an exact PPM solve, one-shot or chained: these
    /// limits and gap under `work_budget`.
    pub(crate) fn mip(&self, work_budget: Option<u64>) -> MipOptions {
        MipOptions {
            max_nodes: self.max_nodes,
            rel_gap: self.rel_gap,
            work_budget,
        }
    }
}

/// The constrained state an exact solve answers for: the original
/// (unmerged) instance, the pre-installed devices (`x_e = 1` at zero cost —
/// the paper's incremental-deployment setting) and the failed links
/// (`x_e = 0`; failure beats installation). Both link lists are sorted and
/// duplicate-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deployment<'a> {
    pub(crate) inst: &'a PpmInstance,
    pub(crate) installed: &'a [usize],
    pub(crate) disabled: &'a [usize],
}

impl<'a> Deployment<'a> {
    /// Nothing installed, nothing failed.
    pub(crate) fn fresh(inst: &'a PpmInstance) -> Self {
        Deployment {
            inst,
            installed: &[],
            disabled: &[],
        }
    }
}

/// The exact `PPM` program of one [`Deployment`]: Linear Program 2
/// (minimum devices for a coverage target) or the budget model (maximum
/// coverage for a device budget), built over the merged instance.
///
/// The one owner of how these programs are built, constrained, seeded,
/// solved and read back, and of their variable layout: the `x_e` block,
/// then one `δ_g` per merged group. One-shot solves build a throwaway
/// model; [`crate::delta::DeltaInstance`] keeps one of each kind,
/// re-targets it along a grid ([`Model::set_rhs`] on the goal row),
/// repairs it in place after volume and link deltas
/// ([`ExactModel::refresh_volumes`], [`ExactModel::sync_edge`]), and
/// re-solves from the previous point's root basis.
#[derive(Debug)]
pub(crate) struct ExactModel {
    /// The merged instance the model was built over; its volumes follow
    /// [`ExactModel::refresh_volumes`].
    merged: PpmInstance,
    model: Model,
    xs: Vec<VarId>,
    /// The last solve's root basis, the next solve's warm start.
    warm: Option<MipWarmStart>,
    /// The coverage-target (LP 2) or device-budget row: the model's last.
    goal_row: ConstrId,
}

impl ExactModel {
    /// Minimum devices covering fraction `k` (already validated) of `at`'s
    /// total volume, on the LP 2 model in `slot` — built there first when
    /// the slot is empty. Plain deployments seed the greedy incumbent.
    /// `Done(None)` when the target is unreachable.
    pub(crate) fn solve_min_devices(
        slot: &mut Option<Self>,
        at: Deployment<'_>,
        k: f64,
        opts: &MipOptions,
    ) -> Anytime<Option<PpmSolution>> {
        let Some(target) = coverage_target(at.inst, k) else {
            return Anytime::Done(None);
        };
        let this = slot.get_or_insert_with(|| Self::min_devices(at));
        this.model.set_rhs(this.goal_row, target);
        if at.installed.is_empty() && at.disabled.is_empty() {
            this.seed_greedy(at.inst, k);
        }
        this.solve(
            opts,
            |edges, proven| {
                let solution = PpmSolution::from_edges(at.inst, edges, proven);
                debug_assert!(
                    at.inst.is_feasible(&solution.edges, k),
                    "exact solver produced an infeasible selection: coverage {} < {target}",
                    solution.coverage
                );
                Some(solution)
            },
            |e| matches!(e, SolverError::Infeasible).then_some(None),
        )
    }

    /// Maximum coverage with at most `budget` new devices on top of `at`'s
    /// live installed ones, on the budget model in `slot` — built there
    /// first when the slot is empty. Every answer, complete or
    /// interrupted, lists only new devices that raise its coverage
    /// ([`drop_idle_devices`]). When the node limit closes the search
    /// before any incumbent lands, the greedy ([`greedy_budget`]) answers.
    pub(crate) fn solve_max_coverage(
        slot: &mut Option<Self>,
        at: Deployment<'_>,
        budget: usize,
        opts: &MipOptions,
    ) -> Anytime<PpmSolution> {
        let this = slot.get_or_insert_with(|| Self::max_coverage(at));
        this.model.set_rhs(this.goal_row, budget as f64);
        this.solve(
            opts,
            |edges, proven| PpmSolution::from_edges(at.inst, drop_idle_devices(at, edges), proven),
            |e| {
                matches!(e, SolverError::NodeLimitNoSolution { .. })
                    .then(|| greedy_budget(at.inst, budget, at.installed, at.disabled))
            },
        )
    }

    /// Linear Program 2 with a placeholder target of 0.
    fn min_devices(at: Deployment<'_>) -> Self {
        let merged = at.inst.merged();
        let (mut model, xs) = build_lp2_target(&merged, 0.0);
        // Installed devices are sunk cost: only new devices count.
        for &e in at.installed {
            model.fix_var(xs[e], 1.0);
            model.set_cost(xs[e], 0.0);
        }
        for &e in at.disabled {
            model.fix_var(xs[e], 0.0);
        }
        Self::new(merged, model, xs)
    }

    /// The budget model with a placeholder budget of 0.
    fn max_coverage(at: Deployment<'_>) -> Self {
        let merged = at.inst.merged();
        let (mut model, xs) = build_budget_model(&merged, at.installed);
        // Failure beats installation: a device on a failed link is dead.
        for &e in at.disabled {
            model.fix_var(xs[e], 0.0);
        }
        Self::new(merged, model, xs)
    }

    fn new(merged: PpmInstance, model: Model, xs: Vec<VarId>) -> Self {
        let goal_row = model.constr(model.constr_count() - 1);
        ExactModel {
            merged,
            model,
            xs,
            warm: None,
            goal_row,
        }
    }

    /// `δ_g`, the covered share of merged group `g`.
    fn delta(&self, g: usize) -> VarId {
        self.model.var(self.xs.len() + g)
    }

    /// Runs the MIP from the stored warm start (keeping the new one) and
    /// reads the placement back: `answer(edges, proven)` for a solution,
    /// `recover(error)` for the errors the caller expects. Any other error
    /// is a bug.
    fn solve<T>(
        &mut self,
        opts: &MipOptions,
        answer: impl Fn(Vec<usize>, bool) -> T,
        recover: impl FnOnce(&SolverError) -> Option<T>,
    ) -> Anytime<T> {
        match self.model.solve_mip(opts, self.warm.as_ref()) {
            Ok((outcome, warm)) => {
                if warm.is_some() {
                    self.warm = warm;
                }
                let xs = &self.xs;
                Anytime::from_mip(outcome, |sol, proven| {
                    answer(selected_edges(xs, sol), proven)
                })
            }
            Err(e) => match recover(&e) {
                Some(answer) => Anytime::Done(answer),
                None => panic!("MIP solver failed unexpectedly: {e}"),
            },
        }
    }

    /// Seeds the LP 2 model with the better of the two greedy solutions on
    /// the original instance (which carries the correct target semantics)
    /// as branch-and-bound's initial incumbent.
    fn seed_greedy(&mut self, inst: &PpmInstance, k: f64) {
        let Some(w) = greedy_incumbent(inst, k) else {
            return;
        };
        let mut values = vec![0.0; self.model.var_count()];
        for &e in &w.edges {
            values[self.xs[e].index()] = 1.0;
        }
        // δ_g is group g's covered indicator.
        for (g, (_, support)) in self.merged.traffics.iter().enumerate() {
            let covered = support.iter().any(|&e| w.edges.contains(&e));
            values[self.delta(g).index()] = if covered { 1.0 } else { 0.0 };
        }
        self.model.set_initial_solution(values);
    }

    /// After a volume-only delta on `inst`, repairs the LP 2 coverage row
    /// in place: the identical-support groups are unchanged, only their
    /// summed volumes moved, so one [`Model::set_constr`] brings the model
    /// back in sync and the warm basis survives. Returns `false` — the
    /// model is then stale and must be dropped — when some traffic's
    /// support no longer maps onto the merged groups (the structural case).
    pub(crate) fn refresh_volumes(&mut self, inst: &PpmInstance) -> bool {
        let index: HashMap<&[usize], usize> = self
            .merged
            .traffics
            .iter()
            .enumerate()
            .map(|(g, (_, s))| (s.as_slice(), g))
            .collect();
        // Re-derive each group's volume exactly as `PpmInstance::merged`
        // would: skip zero-volume/uncoverable traffics, sum the rest in
        // original traffic order (merge_traffics stable-sorts, so within a
        // group the summation order — hence the float — is identical).
        let mut vols = vec![0.0f64; index.len()];
        for (v, s) in &inst.traffics {
            if *v <= 0.0 || s.is_empty() {
                continue;
            }
            match index.get(s.as_slice()) {
                Some(&g) => vols[g] += v,
                None => return false,
            }
        }
        let terms = vols
            .iter()
            .enumerate()
            .map(|(g, &v)| (self.delta(g), v))
            .collect();
        self.model.set_constr(self.goal_row, terms);
        for (group, v) in self.merged.traffics.iter_mut().zip(vols) {
            group.0 = v;
        }
        true
    }

    /// Re-syncs the LP 2 model's `x_e` after link `e` changed installed or
    /// disabled status, reproducing exactly the state a rebuild would set
    /// up: installed devices are fixed to 1 at zero cost, failure beats
    /// installation (fixed to 0, cost as the rebuild leaves it), free
    /// links are binary at unit cost. Both lists sorted.
    pub(crate) fn sync_edge(&mut self, installed: &[usize], disabled: &[usize], e: usize) {
        let x = self.xs[e];
        let installed = installed.binary_search(&e).is_ok();
        if disabled.binary_search(&e).is_ok() {
            self.model.set_cost(x, if installed { 0.0 } else { 1.0 });
            self.model.fix_var(x, 0.0);
        } else if installed {
            self.model.set_cost(x, 0.0);
            self.model.fix_var(x, 1.0);
        } else {
            self.model.set_cost(x, 1.0);
            self.model.set_bounds(x, 0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::passive::brute_force_ppm;
    use crate::solve::exact_ppm;

    #[test]
    fn figure3_optimum_is_two() {
        let inst = fixture_figure3();
        let s = exact_ppm(&inst, 1.0).unwrap();
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
            let a = exact_ppm(&inst, k).unwrap();
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
                let exact = exact_ppm(&inst, k).unwrap();
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
            let exact = exact_ppm(&inst, k).unwrap();
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
        assert!(exact_ppm(&inst, 1.0).is_none());
        assert!(exact_ppm(&inst, 0.5).is_some());
    }

    #[test]
    fn zero_k_is_empty_solution() {
        let inst = fixture_figure3();
        let s = exact_ppm(&inst, 0.0).unwrap();
        assert_eq!(s.device_count(), 0);
    }

    #[test]
    fn a_loose_gap_stops_early_and_is_never_proven() {
        use popgen::{PopSpec, TrafficSpec};

        // Both roots are fractional, so at `rel_gap: 1.0` the search stops
        // at its first incumbent within 100% of the bound: a worse answer
        // than the default gap proves, reported unproven. Requests always
        // run the default gap; `sampling`'s inner cover is the one caller
        // that passes its own.
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 1);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let tight = ExactOptions::default().mip(None);
        let loose = ExactOptions {
            rel_gap: 1.0,
            ..ExactOptions::default()
        }
        .mip(None);
        let fresh = Deployment::fresh(&inst);
        let based = Deployment {
            installed: &[3, 5],
            ..fresh
        };

        let budget = |opts| ExactModel::solve_max_coverage(&mut None, fresh, 4, opts).unbudgeted();
        let (a, b) = (budget(&loose), budget(&tight));
        assert!(b.proven_optimal);
        assert!(!a.proven_optimal, "budget at rel_gap 1.0 claims optimality");
        assert!(a.coverage < b.coverage, "budget ignored rel_gap");

        let devices = |opts| {
            ExactModel::solve_min_devices(&mut None, based, 0.9, opts)
                .unbudgeted()
                .expect("reachable")
        };
        let (a, b) = (devices(&loose), devices(&tight));
        assert!(b.proven_optimal);
        assert!(
            !a.proven_optimal,
            "incremental at rel_gap 1.0 claims optimality"
        );
        assert!(
            a.device_count() > b.device_count(),
            "incremental ignored rel_gap"
        );
    }

    #[test]
    fn pop_instance_exact_beats_greedy_weakly() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 17);
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        let k = 0.9;
        let exact = exact_ppm(&inst, k).unwrap();
        let greedy = crate::passive::greedy_static(&inst, k).unwrap();
        assert!(inst.is_feasible(&exact.edges, k));
        assert!(exact.device_count() <= greedy.device_count());
        assert!(exact.proven_optimal);
    }
}
