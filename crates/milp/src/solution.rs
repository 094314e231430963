use crate::VarId;

/// Quality of the solution returned by a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal (within tolerances).
    Optimal,
    /// Feasible but optimality was not proven (a node limit or a loose
    /// `rel_gap` stopped the search); the associated bound gap is stored
    /// in [`Solution::gap`].
    Feasible,
}

/// A primal solution of an LP or MIP.
#[derive(Debug, Clone)]
pub struct Solution {
    /// One value per model variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Objective value in the model's own sense (i.e. already negated back
    /// for maximization problems).
    pub objective: f64,
    /// Whether optimality was proven.
    pub status: SolveStatus,
    /// Relative optimality gap `|objective - bound| / max(1, |objective|)`;
    /// zero for [`SolveStatus::Optimal`].
    pub gap: f64,
    /// Simplex iterations performed (summed over branch-and-bound nodes).
    pub iterations: usize,
    /// Dual-simplex bound flips: breakpoints the long-step ratio test
    /// passed, each a boxed column moved bound-to-bound within one
    /// iteration. Not counted in `iterations` (every dual iteration is a
    /// pivot). Summed like `iterations`, and (like `work`) including those
    /// of a warm attempt that was abandoned to the cold solve.
    pub dual_flips: usize,
    /// Warm starts abandoned to the cold two-phase solve (numerical
    /// trouble, an uncertifiable repair, or the dual phase's iteration
    /// guard), summed like `iterations`.
    pub warm_fallbacks: usize,
    /// Branch-and-bound nodes explored (1 for pure LPs).
    pub nodes: usize,
    /// Deterministic work units spent producing this solution: simplex
    /// iterations + basis refactorizations (+ branch-and-bound nodes for
    /// MIP solves). This is the unit [`crate::MipOptions::work_budget`]
    /// meters, so `work` from an uninterrupted solve is a sufficient
    /// budget to reproduce it bitwise.
    pub work: u64,
}

impl Solution {
    /// Value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// `true` when variable `v` is within `tol` of 1 — convenience for the
    /// 0–1 placement variables used throughout the paper.
    pub fn is_one(&self, v: VarId, tol: f64) -> bool {
        (self.value(v) - 1.0).abs() <= tol
    }
}
