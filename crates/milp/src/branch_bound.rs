//! Branch-and-bound driver on top of the simplex, enforcing integrality.
//!
//! The search is one serial **best-first** loop: each step pops the open
//! node with the least bound (deeper and fresher first on ties, so the
//! search plunges), solves its LP relaxation, and merges the result —
//! incumbent update, pseudocost observations, cut rows and child
//! insertion — before the next pop. The search tree is a pure function of
//! the model and the options: no thread runs below the caller, so the
//! node sequence, incumbent trajectory and final solution replay
//! bit-for-bit.
//!
//! The model is always presolved first, and the bound is rounded up
//! (`ceil`) whenever the objective is integral over integer solutions —
//! every nonzero cost on an integer variable, with an integral coefficient.
//!
//! The root relaxation is tightened with **cutting planes** (see
//! [`crate::cuts`]): up to [`CUT_ROUNDS`] violated rounds, each appended
//! with [`Model::add_constr`] and re-solved from the previous basis — the
//! warm-start row-extension path makes each re-solve a short dual repair
//! of just the violated rows instead of a cold solve.
//!
//! Branching is **reliability branching**: candidates are scored by the
//! two-sided pseudocost rule, but a direction with fewer than
//! [`RELIABILITY`] real observations is not trusted — the best
//! [`STRONG_CANDS`] such candidates are strong-branched (their child LPs
//! actually solved) and the measured degradations recorded, seeding the
//! pseudocosts with truth before the cheap estimates take over.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use crate::model::{fnv_step, Cmp, Model, Sense, FNV_OFFSET};
use crate::simplex::{self, LpWarmStart};
use crate::{cuts, presolve, tol};
use crate::{Result, Solution, SolveStatus, SolverError};

/// Cut rows accepted per separation round (most violated first).
const CUTS_PER_ROUND: usize = 16;
/// Separation rounds at the root; each appends the violated rows and
/// re-solves the root LP from its previous basis.
const CUT_ROUNDS: usize = 4;
/// Reliability threshold η: a pseudocost direction with fewer than η real
/// observations is distrusted, and the candidate strong-branched instead.
const RELIABILITY: u32 = 4;
/// Maximum branching candidates strong-branched per node.
const STRONG_CANDS: usize = 8;
/// Open nodes that may hold a factorized basis snapshot. When children
/// would push the count past it, the open nodes that pop last give up
/// their factorization (down to half the cap): they keep the basic set
/// and refactorize it when popped, so the open queue's snapshot memory
/// stays bounded however wide the search grows, while the plunge the
/// search is on keeps its factors.
const SNAPSHOT_CAP: usize = 4;

/// Tuning knobs for [`Model::solve_mip`].
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Relative optimality gap at which the search stops early. A search
    /// stopped within a gap looser than the default proves nothing: it
    /// reports [`SolveStatus::Feasible`] with its gap.
    pub rel_gap: f64,
    /// Cooperative **work budget** in deterministic work units (simplex
    /// iterations + basis refactorizations + branch-and-bound nodes).
    /// Exhaustion is a pure function of the search trajectory — identical
    /// budgets produce bitwise-identical results on any host — and
    /// [`Model::solve_mip`] returns the best incumbent and dual bound
    /// found as [`MipOutcome::Interrupted`] instead of an error. `None`
    /// (the default) disables the budget entirely. The search checks the
    /// budget before each node, and every LP of that node — its
    /// relaxation, cut re-solves and strong-branch probes — runs under the
    /// work that remained when the node began, checked every 64th simplex
    /// iteration. So the budget can be overshot, by a bounded amount that
    /// depends only on the search.
    pub work_budget: Option<u64>,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            rel_gap: 1e-9,
            work_budget: None,
        }
    }
}

/// Result of a MIP solve ([`Model::solve_mip`]).
///
/// The **anytime contract**: for a minimization model,
/// `bound ≤ optimal ≤ incumbent.objective` whenever an incumbent exists
/// (for maximization the inequalities flip — `bound` is then an upper
/// bound). Both sides tighten monotonically with larger budgets, and a
/// budget at least as large as the uninterrupted solve's
/// [`Solution::work`] reproduces that solve bitwise.
#[derive(Debug, Clone)]
pub enum MipOutcome {
    /// The search ran to its natural end under the budget: a proven
    /// optimum, or a feasible solution stopped by `max_nodes` or `rel_gap`
    /// ([`SolveStatus::Feasible`], with its gap).
    Complete(Solution),
    /// The work budget tripped mid-search. The best incumbent found so
    /// far (if any) and the sharpest dual bound proven are preserved —
    /// an interrupted solve still yields an answer with a quality
    /// certificate, never just an error.
    Interrupted {
        /// Best integer-feasible solution found before interruption, with
        /// its [`Solution::gap`] measured against `bound`. `None` when
        /// the budget tripped before any incumbent landed.
        incumbent: Option<Solution>,
        /// Dual bound in the model's own sense: no integer solution can
        /// beat it (minimization: `optimal ≥ bound`). `-inf`/`+inf` when
        /// even the root relaxation was interrupted.
        bound: f64,
        /// Work units actually spent (may overshoot the budget by the
        /// documented bounded amount).
        work_spent: u64,
    },
}

impl MipOutcome {
    /// The solution carried by this outcome: the complete solution, or
    /// the interrupted incumbent when one exists.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            MipOutcome::Complete(s) => Some(s),
            MipOutcome::Interrupted { incumbent, .. } => incumbent.as_ref(),
        }
    }

    /// The complete solution, or the budget trip as
    /// [`SolverError::Interrupted`]. For callers that set no
    /// [`MipOptions::work_budget`] (where no trip can happen) or that
    /// treat a trip as a failure.
    pub fn into_solution(self) -> Result<Solution> {
        match self {
            MipOutcome::Complete(s) => Ok(s),
            MipOutcome::Interrupted { work_spent, .. } => {
                Err(SolverError::Interrupted { work_spent })
            }
        }
    }
}

/// Cross-solve warm-start state returned by [`Model::solve_mip`]: the
/// optimal basis of the root relaxation (over the *presolved* model),
/// reusable as the root start of the next solve in a perturbation chain.
/// Reuse is guarded by [`LpWarmStart`]'s shape *and* coefficient
/// fingerprint check — presolve may fix different variables (and thus
/// emit structurally different reduced models) at different chain points,
/// and such a stale basis is silently ignored in favor of a cold root
/// solve rather than trusted. The captured basis predates this solve's own
/// cut rows, so the next link's un-cut model accepts it.
#[derive(Debug, Clone)]
pub struct MipWarmStart {
    root: LpWarmStart,
}

/// Simplex counters of the search, summed over every node LP, cut
/// re-solve and strong-branch probe.
#[derive(Debug, Clone, Copy, Default)]
struct LpCounts {
    iterations: usize,
    dual_flips: usize,
    warm_fallbacks: usize,
}

impl LpCounts {
    fn add(&mut self, s: &Solution) {
        self.iterations += s.iterations;
        self.dual_flips += s.dual_flips;
        self.warm_fallbacks += s.warm_fallbacks;
    }
}

/// One open node: a set of bound changes relative to the root model.
#[derive(Debug)]
struct Node {
    /// Lower bound (minimization) inherited from the parent LP.
    bound: f64,
    depth: usize,
    /// Insertion sequence; later insertions win ties so the up-branch
    /// (pushed last) is plunged first — in covering problems the `x = 1`
    /// side reaches feasible incumbents sooner.
    seq: usize,
    /// `(var index, lo, hi)` overrides.
    changes: Vec<(usize, f64, f64)>,
    /// Parent's LP basis (shared by both children; `None` when it still
    /// held an artificial column), stripped of its factorization past
    /// [`SNAPSHOT_CAP`].
    basis: Option<Arc<LpWarmStart>>,
    /// The branching that created this node: `(variable, up branch,
    /// fractional distance moved)`, used to update that variable's
    /// pseudocost once this node's LP solves.
    branched: Option<(usize, bool, f64)>,
    /// Raw (unstrengthened) parent LP objective, the reference point for
    /// the pseudocost degradation measurement.
    parent_obj: f64,
}

/// Observed per-unit objective degradations of branching a variable up /
/// down, seeded with the variable's |objective coefficient| until a real
/// observation lands. Drives the branching score: prefer the variable
/// whose *weaker* branch direction still moves the bound the most (the
/// min rule — both children must make progress), so plunges tighten the
/// bound faster and the best-first queue prunes earlier.
#[derive(Debug, Clone, Copy)]
struct PseudoCost {
    up_sum: f64,
    up_n: u32,
    down_sum: f64,
    down_n: u32,
    prior: f64,
}

impl PseudoCost {
    fn new(prior: f64) -> Self {
        Self {
            up_sum: 0.0,
            up_n: 0,
            down_sum: 0.0,
            down_n: 0,
            prior: prior.abs().max(1e-6),
        }
    }

    fn observe(&mut self, up: bool, per_unit: f64) {
        if up {
            self.up_sum += per_unit;
            self.up_n += 1;
        } else {
            self.down_sum += per_unit;
            self.down_n += 1;
        }
    }

    fn up(&self) -> f64 {
        if self.up_n > 0 {
            self.up_sum / self.up_n as f64
        } else {
            self.prior
        }
    }

    fn down(&self) -> f64 {
        if self.down_n > 0 {
            self.down_sum / self.down_n as f64
        } else {
            self.prior
        }
    }

    /// Branching score at the given floor/ceil distances: the guaranteed
    /// two-sided bound degradation (min rule — both children must move).
    fn score(&self, down_dist: f64, up_dist: f64) -> f64 {
        (self.down() * down_dist).min(self.up() * up_dist)
    }
}

/// Best-first ordering with depth then recency tie-breaking (deeper and
/// fresher first → plunging).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.depth == other.depth && self.seq == other.seq
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound on top.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether every feasible integer solution has an integral objective:
/// each variable with a nonzero cost is integer with an integral cost
/// coefficient. Such bounds may be rounded up for stronger pruning.
fn integral_objective(model: &Model) -> bool {
    model
        .vars
        .iter()
        .all(|v| v.cost == 0.0 || (v.integer && v.cost.fract() == 0.0))
}

/// Whether a node with lower bound `bound` is closed by the incumbent:
/// either the bound cannot improve on the incumbent at the objective's own
/// scale, or the remaining gap is within the requested tolerance. The gap
/// goes through [`tol::rel_gap`] — scale-relative with a magnitude-safe
/// denominator — so `best ≈ 0`, negative objectives, and unbounded node
/// bounds all prune correctly.
fn closed_by(incumbent: &Option<(f64, Vec<f64>)>, bound: f64, rel_gap: f64) -> bool {
    incumbent.as_ref().is_some_and(|(best, _)| {
        bound >= *best - tol::obj_eps(*best) || tol::rel_gap(*best, bound) <= rel_gap
    })
}

/// [`closed_by`], also keeping in `gap_closed` the least bound of the
/// nodes that only a gap looser than the default closed: their subtrees
/// go unexplored, so no optimality is proven below that bound.
fn close(
    incumbent: &Option<(f64, Vec<f64>)>,
    bound: f64,
    rel_gap: f64,
    gap_closed: &mut f64,
) -> bool {
    if !closed_by(incumbent, bound, rel_gap) {
        return false;
    }
    if !closed_by(incumbent, bound, MipOptions::default().rel_gap) {
        *gap_closed = gap_closed.min(bound);
    }
    true
}

/// Structural fingerprint of a cut row, for duplicate suppression across
/// separation sites (a node solved before a sibling's cut landed can
/// re-separate the identical row).
fn cut_fp(cut: &cuts::Cut) -> u64 {
    let mut h = FNV_OFFSET;
    for &(v, c) in &cut.terms {
        h = fnv_step(h, v.index() as u64);
        h = fnv_step(h, c.to_bits());
    }
    h = fnv_step(h, cut.rhs.to_bits());
    fnv_step(
        h,
        match cut.cmp {
            Cmp::Le => 0,
            Cmp::Eq => 1,
            Cmp::Ge => 2,
        },
    )
}

/// Appends the not-yet-seen cuts to both the root and the node model
/// (kept row-identical for the whole search); returns how many landed.
fn append_cuts(
    root_model: &mut Model,
    node_model: &mut Model,
    found: &[cuts::Cut],
    seen: &mut HashSet<u64>,
) -> usize {
    let mut added = 0;
    for cut in found {
        if !seen.insert(cut_fp(cut)) {
            continue;
        }
        root_model.add_constr(cut.terms.clone(), cut.cmp, cut.rhs);
        node_model.add_constr(cut.terms.clone(), cut.cmp, cut.rhs);
        added += 1;
    }
    added
}

/// The branch-and-bound search behind [`Model::solve_mip`]. See
/// [`MipOutcome`] for the anytime contract; with
/// [`MipOptions::work_budget`] unset this never returns
/// [`MipOutcome::Interrupted`]. `warm` seeds the root LP basis from a
/// previous solve of a perturbed sibling model; the returned
/// [`MipWarmStart`] carries this solve's root basis onward (or `None` when
/// the root LP never produced a reusable basis).
pub(crate) fn solve(
    model: &Model,
    opts: &MipOptions,
    warm: Option<&MipWarmStart>,
) -> Result<(MipOutcome, Option<MipWarmStart>)> {
    // Work on a minimization copy to keep bound logic single-signed.
    let maximize = matches!(model.sense, Sense::Maximize);
    let mut work = model.clone();
    if maximize {
        work.sense = Sense::Minimize;
        for v in &mut work.vars {
            v.cost = -v.cost;
        }
    }

    let pre = presolve::presolve(&work)?;
    let mut root_model = pre.model.clone();

    let int_vars: Vec<usize> = root_model
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(i, _)| i)
        .collect();

    let integral_obj = integral_objective(&root_model);
    let strengthen = |b: f64| {
        if integral_obj {
            (b - tol::int_eps(b)).ceil()
        } else {
            b
        }
    };

    let finish = |values_reduced: Vec<f64>,
                  status: SolveStatus,
                  gap: f64,
                  counts: LpCounts,
                  nodes: usize,
                  work: u64|
     -> Solution {
        let values = pre.expand(&values_reduced);
        let objective = model.objective_value(&values);
        Solution {
            values,
            objective,
            status,
            gap,
            iterations: counts.iterations,
            dual_flips: counts.dual_flips,
            warm_fallbacks: counts.warm_fallbacks,
            nodes,
            work,
        }
    };

    // Initial incumbent from the user-supplied warm start, when feasible.
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-sense obj, reduced values)
    if let Some(init) = &model.initial {
        if model.check_feasible(init, crate::FEAS_TOL).is_ok() {
            let obj = work.objective_value(init);
            incumbent = Some((obj, pre.reduce(init)));
        }
    }

    let mut counts = LpCounts::default();
    let mut nodes_explored = 0usize;
    // Deterministic work-unit ledger: one unit per node popped for
    // solving, plus every LP call's true cost — successful, infeasible,
    // tripped, or failed. A pure function of the search trajectory, so
    // budget trips replay bitwise; and complete (no outcome uncounted), so
    // feeding a finished solve's own `Solution::work` back as the budget
    // reproduces it without a trip.
    let mut work_spent = 0u64;
    let mut interrupted = false;
    let mut open = BinaryHeap::new();
    let mut seq = 0usize;
    // Open nodes holding a factorized snapshot (see [`SNAPSHOT_CAP`]).
    // Nodes re-queued by a budget trip are not counted: the search ends
    // with them.
    let mut factored_open = usize::from(warm.is_some());
    open.push(Node {
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq,
        changes: Vec::new(),
        basis: warm.map(|w| Arc::new(w.root.clone())),
        branched: None,
        parent_obj: f64::NEG_INFINITY,
    });
    // Pseudocosts over the reduced model's variables, objective-seeded.
    let mut pseudo: Vec<PseudoCost> = root_model
        .vars
        .iter()
        .map(|v| PseudoCost::new(v.cost))
        .collect();

    let mut node_model = root_model.clone();
    let mut proven = true;
    // Least bound of the nodes closed only by a loose `rel_gap` (see
    // [`close`]); infinite while every closed node was closed by its bound.
    let mut gap_closed = f64::INFINITY;
    let mut root_basis_out: Option<MipWarmStart> = None;
    let mut seen_cuts: HashSet<u64> = HashSet::new();

    while let Some(node) = open.pop() {
        if holds_factors(&node) {
            factored_open -= 1;
        }
        if close(&incumbent, node.bound, opts.rel_gap, &mut gap_closed) {
            continue;
        }
        let work_tripped = opts.work_budget.is_some_and(|b| work_spent >= b);
        if work_tripped || nodes_explored >= opts.max_nodes {
            // Return the node so the final gap sees its bound.
            open.push(node);
            proven = false;
            interrupted = work_tripped;
            break;
        }
        nodes_explored += 1;
        work_spent += 1;
        // The node's LP budget: the work remaining once the node is
        // charged, shared by its relaxation, its cut re-solves and its
        // strong-branch probes. A trip surfaces as `Err(Interrupted)`.
        let lp_budget = opts.work_budget.map(|b| b.saturating_sub(work_spent));

        // The root's basis seeds the next chain link; every node's seeds
        // its children, cut re-solves and strong-branch probes.
        apply(&mut node_model, &node.changes);
        let mut lp_work = 0u64;
        let lp = simplex::solve(&node_model, node.basis.as_deref(), lp_budget, &mut lp_work);
        restore(&mut node_model, &root_model, &node.changes);
        // Charge the LP's true cost first, whatever its outcome — an
        // infeasible node's closing certificate burns pivots that the
        // ledger must see, or a rerun with this solve's own reported work
        // as its budget would trip inside the uncounted work.
        work_spent += lp_work;
        let (mut sol, mut basis) = match lp {
            Ok(lp) => lp,
            Err(SolverError::Infeasible) => continue, // node closed
            // A node LP that tripped the budget goes back on the queue
            // (its bound must count in the final dual bound), and the
            // search ends here.
            Err(SolverError::Interrupted { .. }) => {
                open.push(node);
                interrupted = true;
                break;
            }
            Err(e) => return Err(e),
        };
        counts.add(&sol);

        // Pseudocost update: how much did branching this variable in
        // this direction degrade the relaxation, per unit of
        // fractional distance?
        if let Some((bj, up, delta)) = node.branched {
            if delta > tol::int_eps(delta) && node.parent_obj.is_finite() {
                let per_unit = ((sol.objective - node.parent_obj) / delta).max(0.0);
                pseudo[bj].observe(up, per_unit);
            }
        }

        // Root: capture the chain warm-start first (pre-cut, so the
        // next chain link's un-cut model accepts it), then tighten
        // the relaxation with rounds of cutting planes, re-solving
        // from the previous basis via the row-extension warm path.
        if node.depth == 0 {
            root_basis_out = basis.clone().map(|root| MipWarmStart { root });
            let mut infeasible_by_cuts = false;
            let mut tripped_in_cuts = false;
            for _ in 0..CUT_ROUNDS {
                let found = cuts::separate(&root_model, &sol.values, CUTS_PER_ROUND);
                if append_cuts(&mut root_model, &mut node_model, &found, &mut seen_cuts) == 0 {
                    break;
                }
                let mut cut_work = 0u64;
                let lp2 = simplex::solve(&node_model, basis.as_ref(), lp_budget, &mut cut_work);
                work_spent += cut_work;
                match lp2 {
                    Ok((s2, b2)) => {
                        counts.add(&s2);
                        sol = s2;
                        basis = b2;
                    }
                    // Valid cuts only exclude integer-infeasible
                    // regions: an infeasible cut relaxation proves
                    // the MIP itself has no integer point.
                    Err(SolverError::Infeasible) => {
                        infeasible_by_cuts = true;
                        break;
                    }
                    // Budget tripped inside a separation re-solve.
                    Err(SolverError::Interrupted { .. }) => {
                        tripped_in_cuts = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if infeasible_by_cuts {
                continue;
            }
            if tripped_in_cuts {
                // Terminal by design: expanding this node from a
                // partially tightened relaxation would put the search
                // on a different trajectory than a larger budget —
                // the anytime monotonicity guarantee (bigger budgets
                // never worsen the incumbent) requires every trip to
                // stop the search at a shared-prefix point. The last
                // fully solved relaxation is still a valid bound.
                let bound = strengthen(sol.objective);
                open.push(Node { bound, ..node });
                interrupted = true;
                break;
            }
        }

        let bound = strengthen(sol.objective);
        if close(&incumbent, bound, opts.rel_gap, &mut gap_closed) {
            continue;
        }

        // ---- expansion, under this node's bounds ----
        apply(&mut node_model, &node.changes);

        // Fractional branching candidates with floor/ceil distances.
        let mut cands: Vec<(usize, f64, f64)> = Vec::new();
        for &j in &int_vars {
            let x = sol.values[j];
            if !tol::is_int(x) {
                cands.push((j, x - x.floor(), x.ceil() - x));
            }
        }

        let lp_arc = basis.map(Arc::new);

        // Reliability branching: strong-branch the top-ranked
        // candidates whose pseudocosts are not yet trusted, feeding
        // the measured degradations back into the estimates. An
        // infeasible probe direction makes its variable the forced
        // choice — branching there closes one child instantly.
        let mut forced: Option<usize> = None;
        let mut probe_tripped = false;
        if !cands.is_empty() {
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by(|&a, &b| cand_cmp(&pseudo, &cands[a], &cands[b]));
            'probing: for &ci in order.iter().take(STRONG_CANDS) {
                let (j, dd, ud) = cands[ci];
                for up in [false, true] {
                    let (obs, dist) = if up {
                        (pseudo[j].up_n, ud)
                    } else {
                        (pseudo[j].down_n, dd)
                    };
                    if obs >= RELIABILITY {
                        continue;
                    }
                    let x = sol.values[j];
                    let (plo, phi) = (node_model.vars[j].lo, node_model.vars[j].hi);
                    if up {
                        node_model.vars[j].lo = x.ceil();
                    } else {
                        node_model.vars[j].hi = x.floor();
                    }
                    let mut probe_work = 0u64;
                    let probe =
                        simplex::solve(&node_model, lp_arc.as_deref(), lp_budget, &mut probe_work)
                            .map(|(s, _)| s);
                    node_model.vars[j].lo = plo;
                    node_model.vars[j].hi = phi;
                    work_spent += probe_work;
                    match probe {
                        Ok(ps) => {
                            counts.add(&ps);
                            pseudo[j].observe(up, ((ps.objective - sol.objective) / dist).max(0.0));
                        }
                        Err(SolverError::Infeasible) => {
                            forced = Some(j);
                            break 'probing;
                        }
                        // Budget trip inside a probe: end the search
                        // at this shared-prefix point (see the
                        // root-cut trip) — branching from half-made
                        // pseudocost observations would diverge from
                        // the larger-budget trajectory.
                        Err(SolverError::Interrupted { .. }) => {
                            probe_tripped = true;
                            break 'probing;
                        }
                        // Numerical trouble in a probe is advisory
                        // only — skip the observation (its work is
                        // still on the ledger).
                        Err(_) => {}
                    }
                }
            }
        }
        if probe_tripped {
            restore(&mut node_model, &root_model, &node.changes);
            open.push(Node { bound, ..node });
            interrupted = true;
            break;
        }

        let mut branch_var: Option<usize> = forced;
        if branch_var.is_none() && !cands.is_empty() {
            let mut best = 0usize;
            for ci in 1..cands.len() {
                if cand_cmp(&pseudo, &cands[ci], &cands[best]) == Ordering::Less {
                    best = ci;
                }
            }
            branch_var = Some(cands[best].0);
        }

        // Tolerance-integral LP optimum: snap the integer variables to
        // exact integers and re-verify against the node's true
        // (unscaled) bounds and rows before accepting. A value
        // integral only to within the scale-relative tolerance can
        // round onto an infeasible point; such a candidate must not
        // become the incumbent.
        let mut integral_candidate: Option<Vec<f64>> = None;
        if branch_var.is_none() {
            let mut snapped = sol.values.clone();
            for &j in &int_vars {
                let v = &node_model.vars[j];
                snapped[j] = snapped[j].round().clamp(v.lo, v.hi);
            }
            if node_model.check_feasible(&snapped, crate::FEAS_TOL).is_ok() {
                integral_candidate = Some(snapped);
            } else if let Some(&j) = int_vars.iter().max_by(|&&a, &&b| {
                let fa = (sol.values[a] - sol.values[a].round()).abs();
                let fb = (sol.values[b] - sol.values[b].round()).abs();
                fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
            }) {
                let x = sol.values[j];
                if (x - x.round()).abs() > tol::FIX_REL {
                    // Rounding broke feasibility but there is real
                    // fractionality left: branch on it instead.
                    branch_var = Some(j);
                } else {
                    // Exactly integral yet infeasible on re-check —
                    // drop the node, and stop claiming a proven
                    // optimum since its subtree goes unexplored.
                    proven = false;
                }
            }
        }

        match branch_var {
            None => {
                if let Some(snapped) = integral_candidate {
                    let obj = node_model.objective_value(&snapped);
                    if incumbent
                        .as_ref()
                        .is_none_or(|(best, _)| obj < *best - tol::obj_eps(*best))
                    {
                        incumbent = Some((obj, snapped));
                    }
                }
            }
            Some(j) => {
                // Try a cheap rounding heuristic for an incumbent.
                if let Some(rounded) = round_heuristic(&node_model, &sol.values, &int_vars) {
                    let obj = node_model.objective_value(&rounded);
                    if incumbent
                        .as_ref()
                        .is_none_or(|(best, _)| obj < *best - tol::obj_eps(*best))
                    {
                        incumbent = Some((obj, rounded));
                    }
                }
                let x = sol.values[j];
                let (lo, hi) = (node_model.vars[j].lo, node_model.vars[j].hi);
                let mut down = node.changes.clone();
                down.push((j, lo, x.floor()));
                let mut up = node.changes.clone();
                up.push((j, x.ceil(), hi));
                if lp_arc.is_some() {
                    if factored_open + 2 > SNAPSHOT_CAP {
                        factored_open = strip_factors(&mut open, SNAPSHOT_CAP / 2);
                    }
                    factored_open += 2;
                }
                seq += 1;
                open.push(Node {
                    bound,
                    depth: node.depth + 1,
                    seq,
                    changes: down,
                    basis: lp_arc.clone(),
                    branched: Some((j, false, x - x.floor())),
                    parent_obj: sol.objective,
                });
                seq += 1;
                open.push(Node {
                    bound,
                    depth: node.depth + 1,
                    seq,
                    changes: up,
                    basis: lp_arc,
                    branched: Some((j, true, x.ceil() - x)),
                    parent_obj: sol.objective,
                });
            }
        }

        restore(&mut node_model, &root_model, &node.changes);
    }

    let best_open_bound = open
        .peek()
        .map_or(f64::INFINITY, |n| n.bound)
        .min(gap_closed);

    if interrupted {
        // Anytime surface: best incumbent + sharpest dual bound proven.
        // The dual bound is the least open-node bound, capped by the
        // incumbent (open nodes at or above the incumbent would have been
        // pruned at pop time); the root node re-queued with its -inf
        // bound correctly reports "nothing proven yet".
        let bound_min = match &incumbent {
            Some((obj, _)) => best_open_bound.min(*obj),
            None => best_open_bound,
        };
        let bound = if maximize { -bound_min } else { bound_min };
        let incumbent_sol = incumbent.map(|(obj, values)| {
            let gap = tol::rel_gap(obj, bound_min.min(obj));
            finish(
                values,
                SolveStatus::Feasible,
                gap,
                counts,
                nodes_explored,
                work_spent,
            )
        });
        return Ok((
            MipOutcome::Interrupted {
                incumbent: incumbent_sol,
                bound,
                work_spent,
            },
            root_basis_out,
        ));
    }

    match incumbent {
        Some((obj, values)) => {
            // Exhausted: every node was explored or closed by its bound.
            let exhausted = proven && open.is_empty() && gap_closed == f64::INFINITY;
            let gap = if exhausted {
                0.0
            } else {
                tol::rel_gap(obj, best_open_bound.min(obj))
            };
            // A stop within a looser requested gap is not a proof.
            let proof_gap = opts.rel_gap.min(MipOptions::default().rel_gap);
            let status = if exhausted || gap <= proof_gap {
                SolveStatus::Optimal
            } else {
                SolveStatus::Feasible
            };
            let gap = if status == SolveStatus::Optimal {
                0.0
            } else {
                gap
            };
            Ok((
                MipOutcome::Complete(finish(
                    values,
                    status,
                    gap,
                    counts,
                    nodes_explored,
                    work_spent,
                )),
                root_basis_out,
            ))
        }
        None => {
            if proven {
                Err(SolverError::Infeasible)
            } else {
                Err(SolverError::NodeLimitNoSolution {
                    nodes: nodes_explored,
                })
            }
        }
    }
}

/// Whether an open node carries a factorized basis snapshot.
fn holds_factors(node: &Node) -> bool {
    node.basis.as_ref().is_some_and(|b| b.has_factors())
}

/// Strips the factorization from all but the `keep` open nodes that pop
/// first (see [`SNAPSHOT_CAP`]); returns how many still hold one.
fn strip_factors(open: &mut BinaryHeap<Node>, keep: usize) -> usize {
    let mut nodes = std::mem::take(open).into_vec();
    let mut held: Vec<usize> = (0..nodes.len())
        .filter(|&i| holds_factors(&nodes[i]))
        .collect();
    // Heap order: the greatest node pops first.
    held.sort_unstable_by(|&a, &b| nodes[b].cmp(&nodes[a]));
    for &i in held.iter().skip(keep) {
        let lean = nodes[i]
            .basis
            .as_ref()
            .map(|b| Arc::new(b.without_factors()));
        nodes[i].basis = lean;
    }
    *open = BinaryHeap::from(nodes);
    held.len().min(keep)
}

/// Candidate ordering for branching: higher pseudocost score first, then
/// most fractional (distance of the fractional part to ½), then lowest
/// index — a deterministic total order.
fn cand_cmp(pseudo: &[PseudoCost], a: &(usize, f64, f64), b: &(usize, f64, f64)) -> Ordering {
    let sa = pseudo[a.0].score(a.1, a.2);
    let sb = pseudo[b.0].score(b.1, b.2);
    sb.partial_cmp(&sa)
        .unwrap_or(Ordering::Equal)
        .then_with(|| {
            let fa = (a.1 - 0.5).abs();
            let fb = (b.1 - 0.5).abs();
            fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
        })
        .then_with(|| a.0.cmp(&b.0))
}

/// Applies a node's `(var, lo, hi)` overrides to `node_model`.
fn apply(node_model: &mut Model, changes: &[(usize, f64, f64)]) {
    for &(j, lo, hi) in changes {
        node_model.vars[j].lo = lo;
        node_model.vars[j].hi = hi;
    }
}

/// Resets the variables a node overrode to the root model's bounds.
fn restore(node_model: &mut Model, root: &Model, changes: &[(usize, f64, f64)]) {
    for &(j, _, _) in changes {
        node_model.vars[j].lo = root.vars[j].lo;
        node_model.vars[j].hi = root.vars[j].hi;
    }
}

/// Rounds the integer variables of an LP solution and accepts the result
/// when it is feasible for `model`. Tries nearest-integer rounding first,
/// then ceiling — the latter almost always lands feasible on the covering
/// programs of the placement crate (`Σ x ≥ …` rows only grow).
fn round_heuristic(model: &Model, values: &[f64], int_vars: &[usize]) -> Option<Vec<f64>> {
    let snap = |f: fn(f64) -> f64| {
        let mut rounded = values.to_vec();
        for &j in int_vars {
            let v = &model.vars[j];
            rounded[j] = f(rounded[j]).clamp(v.lo, v.hi);
        }
        model
            .check_feasible(&rounded, crate::FEAS_TOL)
            .ok()
            .map(|_| rounded)
    };
    snap(f64::round).or_else(|| snap(|x| (x - tol::int_eps(x)).ceil()))
}

#[cfg(test)]
mod tests {
    use crate::{
        Cmp, MipOptions, Model, Result, Sense, Solution, SolveStatus, SolverError, VarKind,
    };

    /// An unbudgeted solve's solution.
    fn mip(m: &Model, opts: &MipOptions) -> Result<Solution> {
        m.solve_mip(opts, None)
            .and_then(|(out, _)| out.into_solution())
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c (17)
        // vs b + c (20, weight 6 ok) -> optimum 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 10.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, 13.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0, 7.0);
        m.add_constr(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj = {}", s.objective);
        assert!(s.is_one(b, 1e-6) && s.is_one(c, 1e-6));
    }

    #[test]
    fn set_cover_triangle_needs_two() {
        // LP relaxation gives 1.5; the MIP must find 2.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, 1.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(a, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn loose_gap_stop_is_not_optimal() {
        // The triangle cover seeded with the all-ones cover (3): at
        // `rel_gap: 1.0` the root's bound 2 is within the gap, so the
        // search stops on the seed. That proves nothing, so the status is
        // `Feasible` with the root gap; at the default gap the same model
        // is solved to its optimum 2.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, 1.0);
        let c = m.add_var("c", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(a, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
        m.add_constr(vec![(b, 1.0), (c, 1.0)], Cmp::Ge, 1.0);
        m.set_initial_solution(vec![1.0; 3]);
        let loose = MipOptions {
            rel_gap: 1.0,
            ..MipOptions::default()
        };
        let s = mip(&m, &loose).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6, "obj = {}", s.objective);
        assert_eq!(s.status, SolveStatus::Feasible);
        assert!(
            (s.gap - crate::tol::rel_gap(3.0, 2.0)).abs() < 1e-12,
            "gap = {}",
            s.gap
        );
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 2x + y, x integer in [0,10], y continuous >= 0,
        // x + y >= 3.5  -> x = 0, y = 3.5? cost 3.5. x=1,y=2.5 -> 4.5. So 3.5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.5);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert!((s.objective - 3.5).abs() < 1e-6);
        assert!(s.value(x).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x, 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 2.0)], Cmp::Le, 5.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        assert_eq!(
            mip(&m, &MipOptions::default()).unwrap_err(),
            SolverError::Infeasible
        );
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer variables: solve_mip must behave like solve_lp.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 1.0)], Cmp::Ge, 2.5);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert!((s.objective - 2.5).abs() < 1e-9);
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, 1.0))
            .collect();
        // Each consecutive pair must have one selected.
        for w in vars.windows(2) {
            m.add_constr(vec![(w[0], 1.0), (w[1], 1.0)], Cmp::Ge, 1.0);
        }
        m.set_initial_solution(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        // Optimal vertex cover of a path of 6 nodes (5 edges) costs 2? No:
        // pairs (0,1),(1,2),(2,3),(3,4),(4,5): picking x1, x3 covers the
        // first four; (4,5) needs x4 or x5 -> 3 total.
        assert!((s.objective - 3.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn node_limit_reports_feasible_with_gap() {
        // An equipartition-flavoured instance that needs some branching.
        let weights = [31.0, 27.0, 23.0, 19.0, 17.0, 13.0, 11.0, 7.0, 5.0, 3.0];
        let total: f64 = weights.iter().sum();
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, w))
            .collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        m.add_constr(terms, Cmp::Le, total / 2.0 - 0.5);
        let opts = MipOptions {
            max_nodes: 1,
            ..Default::default()
        };
        match mip(&m, &opts) {
            Ok(s) => {
                // Root produced an incumbent via rounding; gap may be positive.
                assert!(s.objective <= total / 2.0);
            }
            Err(SolverError::NodeLimitNoSolution { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        // With a generous budget it must prove optimality.
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 77.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn fixed_binaries_respected_incremental_style() {
        // Paper's incremental deployment: pre-install x0 and ask for the
        // best completion.
        let mut m = Model::new(Sense::Minimize);
        let x0 = m.add_var("x0", VarKind::Binary, 0.0, 1.0, 1.0);
        let x1 = m.add_var("x1", VarKind::Binary, 0.0, 1.0, 1.0);
        let x2 = m.add_var("x2", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x1, 1.0), (x2, 1.0)], Cmp::Ge, 1.0);
        m.fix_var(x0, 1.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert!(s.is_one(x0, 1e-9));
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_with_integers() {
        // x + y = 7, x - y = 1 over integers -> x=4, y=3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 100.0, 1.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 100.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 7.0);
        m.add_constr(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    /// A 0–1 covering program as plain data: a cost per variable and rows
    /// `Σ_{j ∈ row} x_j ≥ 1`.
    struct Cover {
        costs: Vec<f64>,
        rows: Vec<Vec<usize>>,
    }

    impl Cover {
        fn model(&self) -> Model {
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = self
                .costs
                .iter()
                .enumerate()
                .map(|(i, &c)| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, c))
                .collect();
            for row in &self.rows {
                m.add_constr(row.iter().map(|&j| (vars[j], 1.0)).collect(), Cmp::Ge, 1.0);
            }
            m
        }

        /// The optimum by enumerating every subset — an oracle that shares
        /// no code with the solver.
        fn brute_force(&self) -> f64 {
            let n = self.costs.len();
            let picked = |mask: u32, j: usize| mask >> j & 1 == 1;
            (0u32..1 << n)
                .filter(|&mask| {
                    self.rows
                        .iter()
                        .all(|row| row.iter().any(|&j| picked(mask, j)))
                })
                .map(|mask| {
                    (0..n)
                        .filter(|&j| picked(mask, j))
                        .map(|j| self.costs[j])
                        .sum()
                })
                .fold(f64::INFINITY, f64::min)
        }
    }

    /// A small set-cover family: `n` binaries costing 1–3, and one row per
    /// variable over it and two strided neighbours.
    fn cover_instance(n: usize, stride: usize) -> Cover {
        Cover {
            costs: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
            rows: (0..n)
                .map(|i| vec![i, (i + stride) % n, (i + 2 * stride + 1) % n])
                .collect(),
        }
    }

    /// The search proves the oracle's optimum on `cover`.
    fn assert_matches_subset_oracle(cover: &Cover) {
        let want = cover.brute_force();
        let got = mip(&cover.model(), &MipOptions::default()).unwrap();
        assert_eq!(got.status, SolveStatus::Optimal);
        assert!(
            (got.objective - want).abs() < 1e-6,
            "n={}: solver {} vs subsets {want}",
            cover.costs.len(),
            got.objective
        );
    }

    #[test]
    fn cyclic_cover_matches_subset_oracle() {
        // Presolve must not change the proven optimum of a cyclic cover.
        assert_matches_subset_oracle(&Cover {
            costs: vec![1.0; 8],
            rows: (0..8).map(|i| vec![i, (i + 2) % 8, (i + 5) % 8]).collect(),
        });
    }

    #[test]
    fn shipped_engine_matches_subset_oracle() {
        // Cuts and reliability branching must not change proven optima —
        // only how fast the proof goes.
        for (n, stride) in [(8, 2), (11, 3), (13, 4)] {
            assert_matches_subset_oracle(&cover_instance(n, stride));
        }
        // Vertex covers of odd cycles: the LP sits at all-½, so the
        // search has to branch.
        for n in [7, 9, 13] {
            assert_matches_subset_oracle(&Cover {
                costs: vec![1.0; n],
                rows: (0..n).map(|i| vec![i, (i + 1) % n]).collect(),
            });
        }
    }

    #[test]
    fn zero_and_negative_objectives_prune_correctly() {
        // Optimal objective exactly 0 (the old relative-gap denominator's
        // worst case) and a negative-objective variant: both must close.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Binary, 0.0, 1.0, -1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - (-1.0)).abs() < 1e-9);

        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", VarKind::Binary, 0.0, 1.0, 1.0);
        let b = m.add_var("b", VarKind::Binary, 0.0, 1.0, -1.0);
        m.add_constr(vec![(a, 1.0), (b, -1.0)], Cmp::Ge, 0.0);
        let s = mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.objective.abs() < 1e-9, "obj = {}", s.objective);
    }
}
