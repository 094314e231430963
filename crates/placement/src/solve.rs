//! The unified solve API: one typed request/outcome pair for every
//! placement entry point.
//!
//! [`SolveRequest`] → [`SolveOutcome`] is how the one-shot dispatchers
//! ([`solve_instance`], [`solve_apm`]), the warm chains
//! ([`DeltaInstance::solve`]) and the `popmond` service's wire queries
//! solve: the request carries the objective (`PPM(k)` or `APM`), the
//! method (greedy or exact) and the solver knobs; the outcome is one enum
//! over the passive [`PpmSolution`] (which answers target and budget
//! solves alike) and the active [`ApmSolution`]. Validation
//! ([`SolveRequest::validate`]) happens once, with typed
//! [`PlacementError`]s, before any solver state is touched. A work budget
//! enters only here, and a tripped one is reported as
//! [`SolveOutcome::Degraded`].
//!
//! It is the only public way to run an exact LP 2 or budget solve. A
//! fresh solve is [`solve_instance`]; one with installed or failed links
//! builds a [`DeltaInstance`], applies them
//! ([`DeltaInstance::try_set_installed`], [`DeltaInstance::try_fail_link`])
//! and calls [`DeltaInstance::solve`]. See DESIGN.md § "The solve API".
//!
//! [`DeltaInstance`]: crate::delta::DeltaInstance
//! [`DeltaInstance::solve`]: crate::delta::DeltaInstance::solve
//! [`DeltaInstance::try_set_installed`]: crate::delta::DeltaInstance::try_set_installed
//! [`DeltaInstance::try_fail_link`]: crate::delta::DeltaInstance::try_fail_link

use std::fmt;

use milp::{MipOutcome, Solution, SolveStatus};
use netgraph::{Graph, NodeId};

use crate::active::{compute_probes, place_beacons_greedy, place_beacons_ilp};
use crate::instance::PpmInstance;
use crate::passive::{
    decreasing_load_picks, greedy_static, Deployment, ExactModel, ExactOptions, PpmSolution,
};
use crate::reduction::ppm_to_msc;
use crate::setcover::greedy_max_cover;

/// Typed validation error for placement requests and mutations — the
/// `placement`-side counterpart of `popgen::SpecError`: a stable field
/// name plus a human-readable reason, rendered as one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementError {
    /// The offending parameter.
    pub field: &'static str,
    /// Why the value was rejected.
    pub message: String,
}

impl PlacementError {
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        PlacementError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.message)
    }
}

impl std::error::Error for PlacementError {}

/// What a solve optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Passive monitoring: minimum devices covering fraction `k` of the
    /// traffic (`PPM(k)`), or maximum coverage under a device budget when
    /// [`SolveRequest::device_budget`] is set (ignores `k`).
    Ppm {
        /// Coverage fraction target, `∈ [0, 1]`.
        k: f64,
    },
    /// Active monitoring: beacon placement on a router graph.
    Apm,
}

/// Which solver family answers the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// The paper's greedy (PPM: decreasing-load greedy; APM: improved
    /// greedy beacon placement). Never proven optimal.
    Greedy,
    /// Exact MIP/ILP under the request's node budget.
    Exact,
}

impl SolveMethod {
    /// Stable wire token for the method (`greedy` / `exact`).
    pub fn as_str(self) -> &'static str {
        match self {
            SolveMethod::Greedy => "greedy",
            SolveMethod::Exact => "exact",
        }
    }
}

/// A validated solve request: objective, method, and the solver knobs
/// (defaults match [`ExactOptions`]). Nothing it runs reads the wall
/// clock: exact solves are bounded by nodes and work units, and run to
/// [`ExactOptions`]' default gap with the greedy incumbent installed on
/// plain instances.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// What to optimize.
    pub objective: Objective,
    /// Greedy or exact.
    pub method: SolveMethod,
    /// Branch-and-bound node budget for exact solves (≥ 1).
    pub node_budget: usize,
    /// `Some(b)`: maximum-coverage placement of at most `b` new devices
    /// (the budget variant) instead of minimum devices at target `k`.
    /// Exact PPM only.
    pub device_budget: Option<usize>,
    /// Deterministic work budget for exact solves (simplex iterations +
    /// refactorizations + branch-and-bound nodes). `None` (the default)
    /// runs to the node and gap limits; `Some(units)` makes the solve
    /// *anytime*: when the budget
    /// trips, the dispatcher returns [`SolveOutcome::Degraded`] carrying
    /// the partial exact answer (or a greedy fallback) instead of
    /// blocking until branch-and-bound finishes.
    pub work_budget: Option<u64>,
}

impl SolveRequest {
    fn with_objective(objective: Objective) -> Self {
        SolveRequest {
            objective,
            method: SolveMethod::Exact,
            node_budget: ExactOptions::default().max_nodes,
            device_budget: None,
            work_budget: None,
        }
    }

    /// An exact `PPM(k)` request with default knobs.
    pub fn ppm(k: f64) -> Self {
        Self::with_objective(Objective::Ppm { k })
    }

    /// An exact budget request: maximum coverage with at most `budget`
    /// new devices (`k` is ignored by budget solves).
    pub fn budget(budget: usize) -> Self {
        let mut req = Self::ppm(1.0);
        req.device_budget = Some(budget);
        req
    }

    /// An exact `APM` request with default knobs.
    pub fn apm() -> Self {
        Self::with_objective(Objective::Apm)
    }

    /// Switches the request to the greedy method.
    pub fn greedy(mut self) -> Self {
        self.method = SolveMethod::Greedy;
        self
    }

    /// Switches the request to the exact method.
    pub fn exact(mut self) -> Self {
        self.method = SolveMethod::Exact;
        self
    }

    /// Sets the branch-and-bound node budget.
    pub fn with_node_budget(mut self, node_budget: usize) -> Self {
        self.node_budget = node_budget;
        self
    }

    /// Caps the exact solve at `units` deterministic work units (see
    /// [`SolveRequest::work_budget`]): the solve becomes *anytime* and may
    /// return [`SolveOutcome::Degraded`].
    pub fn with_work_budget(mut self, units: u64) -> Self {
        self.work_budget = Some(units);
        self
    }

    /// The request's knobs as the kernels' [`ExactOptions`] (the work
    /// budget travels separately).
    fn exact_options(&self) -> ExactOptions {
        ExactOptions {
            max_nodes: self.node_budget,
            ..ExactOptions::default()
        }
    }

    /// Validates the request with typed errors (the same bounds the
    /// solvers assert, minus any instance-dependent checks).
    pub fn validate(&self) -> Result<(), PlacementError> {
        if let Objective::Ppm { k } = self.objective {
            // Mirrors the solver tolerance: sweeps may land a float hair
            // above 1.
            if !k.is_finite() || !(0.0..=1.0 + 1e-12).contains(&k) {
                return Err(PlacementError::new(
                    "k",
                    format!("monitoring fraction must lie in [0, 1], got {k}"),
                ));
            }
        }
        if self.node_budget == 0 {
            return Err(PlacementError::new(
                "node_budget",
                "must be at least 1".to_string(),
            ));
        }
        if self.device_budget.is_some() {
            if self.objective == Objective::Apm {
                return Err(PlacementError::new(
                    "device_budget",
                    "budget solves are PPM-only".to_string(),
                ));
            }
            if self.method == SolveMethod::Greedy {
                return Err(PlacementError::new(
                    "device_budget",
                    "budget solves use the exact method".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// An active (beacon) placement on a router graph, with the probe-phase
/// counters the service reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ApmSolution {
    /// Beacon node indices (in the solved graph's numbering), ascending.
    pub beacons: Vec<usize>,
    /// Number of probes in the computed probe set.
    pub probes: usize,
    /// Links the probe set covers.
    pub covered_links: usize,
    /// Links in the solved (router) graph.
    pub router_links: usize,
    /// `true` when the ILP proved optimality (greedy never does).
    pub proven_optimal: bool,
}

/// Why a budget-tripped solve came back [`SolveOutcome::Degraded`] with
/// the answer it did — the degradation reason that rides the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Branch-and-bound was interrupted holding an incumbent: the partial
    /// exact answer is returned (feasible, optimality unproven).
    PartialExact,
    /// The budget tripped before any incumbent existed: the paper's
    /// greedy supplied the answer instead.
    GreedyFallback,
}

impl DegradeReason {
    /// Stable wire token for the reason (`partial_exact` /
    /// `greedy_fallback`).
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::PartialExact => "partial_exact",
            DegradeReason::GreedyFallback => "greedy_fallback",
        }
    }
}

/// The outcome of a unified solve: one enum over [`PpmSolution`] and
/// [`ApmSolution`], plus the explicit infeasible case.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome {
    /// The coverage target is unreachable on this instance.
    Unreachable,
    /// A passive (tap) placement.
    Ppm(PpmSolution),
    /// A budget-constrained maximum-coverage placement.
    Budget(PpmSolution),
    /// An active (beacon) placement.
    Apm(ApmSolution),
    /// An anytime solve whose work budget tripped before proven
    /// optimality: the best answer available plus the anytime record
    /// (`bound ≤ optimal ≤ partial` in the solve's objective sense).
    Degraded {
        /// The degraded answer — a [`SolveOutcome::Ppm`],
        /// [`SolveOutcome::Budget`], or [`SolveOutcome::Unreachable`]
        /// (when even the greedy fallback cannot reach the target); never
        /// itself `Degraded`.
        partial: Box<SolveOutcome>,
        /// Where the answer came from.
        reason: DegradeReason,
        /// Deterministic work units spent when the budget tripped.
        work_spent: u64,
        /// Dual bound proven before interruption, in the solve's own
        /// objective sense (a lower bound on the device count for PPM, an
        /// upper bound on the coverage for budget solves). Infinite when
        /// the budget tripped before the root relaxation finished.
        bound: f64,
    },
}

impl SolveOutcome {
    /// The placement of a finished `PPM(k)` solve: `Some` for
    /// [`SolveOutcome::Ppm`] only (`None` also for `Unreachable` and
    /// `Degraded`).
    pub fn into_ppm(self) -> Option<PpmSolution> {
        match self {
            SolveOutcome::Ppm(sol) => Some(sol),
            _ => None,
        }
    }

    /// The placement of a finished budget solve: `Some` for
    /// [`SolveOutcome::Budget`] only.
    pub fn into_budget(self) -> Option<PpmSolution> {
        match self {
            SolveOutcome::Budget(sol) => Some(sol),
            _ => None,
        }
    }
}

/// Kernel-level anytime result: the finished answer, or the record of a
/// work-budget interruption with whatever incumbent survived. Mapped onto
/// [`SolveOutcome::Degraded`] by the unified dispatchers.
#[derive(Debug, Clone)]
pub(crate) enum Anytime<T> {
    /// The solve ran to its normal end (no budget, or it never tripped).
    Done(T),
    /// The work budget tripped mid-search.
    Cut {
        /// Best incumbent at interruption, if any.
        incumbent: Option<T>,
        /// Dual bound proven so far, in the solve's objective sense.
        bound: f64,
        /// Work units spent when the budget tripped.
        work_spent: u64,
    },
}

impl<T> Anytime<T> {
    /// The one `MipOutcome` → `Anytime` mapping: `answer(solution,
    /// proven)` reads a placement off a MIP solution. A complete solve is
    /// proven when optimal; an interrupted incumbent never is.
    pub(crate) fn from_mip(outcome: MipOutcome, answer: impl Fn(&Solution, bool) -> T) -> Self {
        match outcome {
            MipOutcome::Complete(sol) => {
                Anytime::Done(answer(&sol, sol.status == SolveStatus::Optimal))
            }
            MipOutcome::Interrupted {
                incumbent,
                bound,
                work_spent,
            } => Anytime::Cut {
                incumbent: incumbent.map(|sol| answer(&sol, false)),
                bound,
                work_spent,
            },
        }
    }

    /// The answer of a solve run without a work budget, which cannot be
    /// cut.
    pub(crate) fn unbudgeted(self) -> T {
        match self {
            Anytime::Done(answer) => answer,
            Anytime::Cut { .. } => unreachable!("a solve without a work budget was interrupted"),
        }
    }
}

/// The one mapping from a kernel attempt onto the outcome surface:
/// `answer` turns a kernel answer into an outcome, and `fallback` (the
/// paper's greedy on the same constrained state) answers when the budget
/// tripped before any incumbent existed.
fn outcome<T>(
    attempt: Anytime<T>,
    answer: impl Fn(T) -> SolveOutcome,
    fallback: impl FnOnce() -> SolveOutcome,
) -> SolveOutcome {
    match attempt {
        Anytime::Done(s) => answer(s),
        Anytime::Cut {
            incumbent,
            bound,
            work_spent,
        } => {
            let (partial, reason) = match incumbent {
                Some(s) => (answer(s), DegradeReason::PartialExact),
                None => (fallback(), DegradeReason::GreedyFallback),
            };
            SolveOutcome::Degraded {
                partial: Box::new(partial),
                reason,
                work_spent,
                bound,
            }
        }
    }
}

/// Solves a one-shot PPM request on a static instance, nothing installed
/// and nothing failed, through the same dispatch as
/// [`DeltaInstance::solve`] on throwaway models: the exact LP 2 or budget
/// program, or [`greedy_static`], under the request's knobs. APM requests
/// are rejected here — they need a router graph, not an edge-support
/// instance; use [`solve_apm`].
///
/// [`DeltaInstance::solve`]: crate::delta::DeltaInstance::solve
pub fn solve_instance(
    inst: &PpmInstance,
    req: &SolveRequest,
) -> Result<SolveOutcome, PlacementError> {
    solve_ppm_request(req, Deployment::fresh(inst), &mut None, &mut None)
}

/// An exact `PPM(k)` solve with default knobs on a fresh instance: the
/// tests' shorthand for [`solve_instance`] with [`SolveRequest::ppm`].
/// `None` when the target is unreachable.
#[cfg(test)]
pub(crate) fn exact_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    solve_instance(inst, &SolveRequest::ppm(k))
        .expect("valid request")
        .into_ppm()
}

/// The one PPM request dispatch behind [`solve_instance`] and
/// [`DeltaInstance::solve`]: validate, then budget / exact / greedy on
/// `at`, then the outcome mapping with the paper's greedy on the same
/// constrained state as the degradation fallback. `exact` and `budget`
/// are the caller's minimum-device and budget [`ExactModel`] slots (empty
/// ones for one-shot solves). Both kinds run the one
/// [`ExactOptions::mip`] search.
///
/// [`DeltaInstance::solve`]: crate::delta::DeltaInstance::solve
pub(crate) fn solve_ppm_request(
    req: &SolveRequest,
    at: Deployment<'_>,
    exact: &mut Option<ExactModel>,
    budget: &mut Option<ExactModel>,
) -> Result<SolveOutcome, PlacementError> {
    req.validate()?;
    let Objective::Ppm { k } = req.objective else {
        return Err(PlacementError::new(
            "objective",
            "APM solves need a router graph; use solve_apm".to_string(),
        ));
    };
    let search = req.exact_options().mip(req.work_budget);
    let (inst, installed, disabled) = (at.inst, at.installed, at.disabled);
    if let Some(devices) = req.device_budget {
        let attempt = ExactModel::solve_max_coverage(budget, at, devices, &search);
        return Ok(outcome(attempt, SolveOutcome::Budget, || {
            SolveOutcome::Budget(greedy_budget(inst, devices, installed, disabled))
        }));
    }
    let attempt = match req.method {
        SolveMethod::Exact => ExactModel::solve_min_devices(exact, at, k, &search),
        SolveMethod::Greedy => Anytime::Done(greedy_constrained(inst, installed, disabled, k)),
    };
    let ppm = |s: Option<PpmSolution>| s.map_or(SolveOutcome::Unreachable, SolveOutcome::Ppm);
    Ok(outcome(attempt, ppm, || {
        ppm(greedy_constrained(inst, installed, disabled, k))
    }))
}

/// Solves an APM request on a (router) graph: probe computation followed
/// by greedy or ILP beacon placement, every node a candidate.
pub fn solve_apm(graph: &Graph, req: &SolveRequest) -> Result<SolveOutcome, PlacementError> {
    req.validate()?;
    if req.objective != Objective::Apm {
        return Err(PlacementError::new(
            "objective",
            "solve_apm answers APM requests only".to_string(),
        ));
    }
    let candidates: Vec<NodeId> = graph.nodes().collect();
    let probes = compute_probes(graph, &candidates);
    let placement = match req.method {
        SolveMethod::Greedy => place_beacons_greedy(&probes, &candidates),
        SolveMethod::Exact => place_beacons_ilp(graph, &probes, &candidates),
    };
    Ok(SolveOutcome::Apm(ApmSolution {
        beacons: placement.beacons.iter().map(|b| b.index()).collect(),
        probes: probes.len(),
        covered_links: probes.covered.iter().filter(|&&c| c).count(),
        router_links: graph.edge_count(),
        proven_optimal: placement.proven_optimal,
    }))
}

/// The paper's decreasing-load greedy, lifted to a constrained state:
/// pre-installed devices contribute their coverage for free (dead ones on
/// failed links do not — failure beats installation, matching
/// [`DeltaInstance::solve`]), failed links can never host a device,
/// and the greedy covers the residual target on the traffics the live
/// installed set leaves uncovered. `installed` and `disabled` must be
/// sorted. Its public form is a greedy [`DeltaInstance::solve`].
///
/// [`DeltaInstance::solve`]: crate::delta::DeltaInstance::solve
pub(crate) fn greedy_constrained(
    inst: &PpmInstance,
    installed: &[usize],
    disabled: &[usize],
    k: f64,
) -> Option<PpmSolution> {
    if installed.is_empty() && disabled.is_empty() {
        return greedy_static(inst, k);
    }
    let mut dead = vec![false; inst.num_edges];
    for &e in disabled {
        if let Some(d) = dead.get_mut(e) {
            *d = true;
        }
    }
    let live: Vec<usize> = installed.iter().copied().filter(|&e| !dead[e]).collect();
    let mut live_mask = vec![false; inst.num_edges];
    for &e in &live {
        live_mask[e] = true;
    }
    // Traffics already covered by the live installed set drop out; the
    // rest lose their failed links (a support that empties becomes
    // uncoverable, as in routed failures). Both sums run in traffic
    // order, as `PpmInstance::coverage` and `total_volume` do.
    let skip: Vec<bool> = inst
        .traffics
        .iter()
        .map(|(_, s)| s.iter().any(|&e| live_mask[e]))
        .collect();
    let volumes = |covered: bool| -> f64 {
        inst.traffics
            .iter()
            .zip(&skip)
            .filter(|&(_, &skipped)| skipped == covered)
            .map(|((v, _), _)| *v)
            .sum()
    };
    let target = k * inst.total_volume();
    let base = volumes(true);
    if base + 1e-9 >= target {
        return Some(PpmSolution::from_edges(inst, live, false));
    }
    let sub_total = volumes(false);
    if sub_total <= 0.0 {
        return None;
    }
    let k_residual = ((target - base) / sub_total).min(1.0);
    let picked = decreasing_load_picks(inst, &skip, &dead, sub_total, k_residual * sub_total)?;
    let mut edges = live;
    edges.extend(picked);
    Some(PpmSolution::from_edges(inst, edges, false))
}

/// The greedy counterpart of the budget MIP, used as the degradation
/// fallback: live installed devices contribute their coverage for free
/// (failure beats installation), then up to `budget` new devices are
/// added one at a time by best marginal coverage gain
/// ([`greedy_max_cover`]), skipping installed and failed links. Gains
/// within `1e-9 ·` the uncovered volume tie and go to the smaller link
/// index; the build stops early when no link adds coverage. Never proven
/// optimal. `installed` and `disabled` must be sorted.
pub(crate) fn greedy_budget(
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
    let mut msc = ppm_to_msc(inst);
    for (w, (_, support)) in msc.weights.iter_mut().zip(&inst.traffics) {
        if support.iter().any(|e| edges.binary_search(e).is_ok()) {
            *w = 0.0;
        }
    }
    // `disabled` is not range-checked on this path.
    for &e in installed.iter().chain(disabled) {
        if let Some(set) = msc.sets.get_mut(e) {
            set.clear();
        }
    }
    edges.extend(greedy_max_cover(&msc, budget).selection);
    PpmSolution::from_edges(inst, edges, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaInstance;

    fn figure3() -> PpmInstance {
        PpmInstance::new(
            5,
            vec![
                (2.0, vec![0, 1]),
                (2.0, vec![0, 2]),
                (1.0, vec![1, 3]),
                (1.0, vec![2, 4]),
            ],
        )
    }

    #[test]
    fn unified_request_matches_the_kernels() {
        let inst = figure3();
        let search = ExactOptions::default().mip(None);
        let fresh = || Deployment::fresh(&inst);
        for k in [0.5, 0.75, 1.0] {
            let unified = solve_instance(&inst, &SolveRequest::ppm(k)).unwrap();
            let kernel = ExactModel::solve_min_devices(&mut None, fresh(), k, &search)
                .unbudgeted()
                .unwrap();
            let SolveOutcome::Ppm(sol) = unified else {
                panic!("expected a PPM outcome");
            };
            assert_eq!(sol.device_count(), kernel.device_count(), "k = {k}");

            let unified = solve_instance(&inst, &SolveRequest::ppm(k).greedy()).unwrap();
            let kernel = greedy_static(&inst, k).unwrap();
            let SolveOutcome::Ppm(sol) = unified else {
                panic!("expected a PPM outcome");
            };
            assert_eq!(sol.edges, kernel.edges, "k = {k}");
        }
        for b in 0..=3 {
            let unified = solve_instance(&inst, &SolveRequest::budget(b)).unwrap();
            let kernel =
                ExactModel::solve_max_coverage(&mut None, fresh(), b, &search).unbudgeted();
            let SolveOutcome::Budget(sol) = unified else {
                panic!("expected a budget outcome");
            };
            assert_eq!(sol.coverage.to_bits(), kernel.coverage.to_bits(), "b = {b}");
        }
    }

    #[test]
    fn node_limit_without_incumbent_falls_back_to_greedy_budget() {
        use popgen::{PopSpec, TrafficSpec};

        // One node closes the search before the budget MIP finds an
        // incumbent; the answer is the greedy on the same state, unproven.
        let pop = PopSpec::paper_15().build();
        let ts = TrafficSpec::default().generate(&pop, 1);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let req = SolveRequest::budget(3).with_node_budget(1);
        let want = greedy_budget(&inst, 3, &[], &[]);
        assert!(!want.edges.is_empty());
        let one_shot = solve_instance(&inst, &req).unwrap();
        let chained = DeltaInstance::from_instance(&inst).solve(&req).unwrap();
        for out in [one_shot, chained] {
            assert_eq!(out, SolveOutcome::Budget(want.clone()));
        }
    }

    #[test]
    fn greedy_budget_adds_only_devices_that_raise_coverage() {
        use popgen::{FamilySpec, GravitySpec};

        // No traffic crosses link 1. A greedy that re-summed the whole
        // coverage per trial link saw a one-ulp "gain" there and put a
        // device on it; the marginal-gain kernel stops after link 16.
        let spec = FamilySpec::canonical("hier", 11, 3).expect("known family");
        let pop = spec.build(110).expect("valid spec");
        let inst =
            PpmInstance::from_traffic(&pop.graph, &GravitySpec::default().generate(&pop, 110));
        let (installed, disabled) = ([0], [4, 10, 12]);
        assert!(inst
            .traffics
            .iter()
            .all(|(_, support)| !support.contains(&1)));
        let sol = greedy_budget(&inst, 6, &installed, &disabled);
        assert_eq!(sol.edges, vec![0, 16]);
        for &e in sol.edges.iter().filter(|e| !installed.contains(e)) {
            let without: Vec<usize> = sol.edges.iter().copied().filter(|&f| f != e).collect();
            assert!(
                inst.coverage(&without) < sol.coverage,
                "link {e} adds nothing"
            );
        }
    }

    /// The search-dependent bits of a PPM outcome: work spent and bound
    /// bits (degraded answers only), the placement's edges, and whether it
    /// is proven optimal.
    fn search_bits(out: &SolveOutcome) -> (Option<u64>, Option<u64>, Vec<usize>, bool) {
        match out {
            SolveOutcome::Ppm(sol) => (None, None, sol.edges.clone(), sol.proven_optimal),
            SolveOutcome::Degraded {
                partial,
                work_spent,
                bound,
                ..
            } => {
                let SolveOutcome::Ppm(sol) = partial.as_ref() else {
                    panic!("expected a partial placement, got {partial:?}");
                };
                let bound = Some(bound.to_bits());
                (
                    Some(*work_spent),
                    bound,
                    sol.edges.clone(),
                    sol.proven_optimal,
                )
            }
            other => panic!("expected a PPM outcome, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_one_shot_and_chained_solves_keep_their_search_bits() {
        use popgen::{PopSpec, TrafficSpec};

        // One request, one MIP search: a one-shot solve and a chain's first
        // link return the same outcome at every budget. The 4,000-unit row
        // pins the work and edges the chain recorded before the two paths
        // shared one search. The unbudgeted row runs on paper_10: an
        // unbudgeted paper_15 solve at this k takes seconds even in a
        // release build.
        let inst_of = |spec: PopSpec| {
            let pop = spec.build();
            PpmInstance::from_traffic(&pop.graph, &TrafficSpec::default().generate(&pop, 1))
        };
        let paper_15 = inst_of(PopSpec::paper_15());
        let paper_10 = inst_of(PopSpec::paper_10());
        for (inst, budget) in [
            (&paper_15, Some(2_000)),
            (&paper_15, Some(4_000)),
            (&paper_10, None),
        ] {
            let mut req = SolveRequest::ppm(0.95);
            req.work_budget = budget;
            let one_shot = solve_instance(inst, &req).unwrap();
            let chained = DeltaInstance::from_instance(inst).solve(&req).unwrap();
            let bits = search_bits(&one_shot);
            assert_eq!(bits, search_bits(&chained), "budget {budget:?}");
            assert_eq!(one_shot, chained, "budget {budget:?}");
            if budget == Some(4_000) {
                let edges = vec![
                    0, 4, 5, 8, 10, 12, 14, 15, 16, 18, 20, 22, 24, 25, 29, 38, 56, 67, 68, 69, 70,
                ];
                assert_eq!(bits, (Some(4_570), Some(14.0f64.to_bits()), edges, false));
            }
        }
    }

    #[test]
    fn validation_rejects_bad_requests() {
        for (req, field) in [
            (SolveRequest::ppm(1.5), "k"),
            (SolveRequest::ppm(f64::NAN), "k"),
            (SolveRequest::ppm(0.5).with_node_budget(0), "node_budget"),
            (SolveRequest::budget(2).greedy(), "device_budget"),
            (
                {
                    let mut r = SolveRequest::apm();
                    r.device_budget = Some(1);
                    r
                },
                "device_budget",
            ),
        ] {
            assert_eq!(req.validate().unwrap_err().field, field, "{req:?}");
        }
        let inst = figure3();
        assert_eq!(
            solve_instance(&inst, &SolveRequest::apm())
                .unwrap_err()
                .field,
            "objective"
        );
    }

    #[test]
    fn apm_solves_on_a_small_graph() {
        use netgraph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let nodes = b.add_nodes("r", 4);
        b.add_edge(nodes[0], nodes[1], 1.0);
        b.add_edge(nodes[1], nodes[2], 1.0);
        b.add_edge(nodes[2], nodes[3], 1.0);
        let graph = b.build();
        for req in [SolveRequest::apm(), SolveRequest::apm().greedy()] {
            let SolveOutcome::Apm(sol) = solve_apm(&graph, &req).unwrap() else {
                panic!("expected an APM outcome");
            };
            assert!(!sol.beacons.is_empty());
            assert_eq!(sol.router_links, 3);
        }
        assert_eq!(
            solve_apm(&graph, &SolveRequest::ppm(0.5))
                .unwrap_err()
                .field,
            "objective"
        );
    }
}
