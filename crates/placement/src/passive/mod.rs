//! `PPM(k)` solvers: greedy heuristics and exact MIPs (paper Sections
//! 4.3–4.4). The deployment variants — incremental, budget, expected
//! gain — are [`crate::solve::SolveRequest`]s on a
//! [`crate::delta::DeltaInstance`].

mod brute;
mod exact;
mod greedy;
mod mecf_bb;

pub use brute::brute_force_ppm;
pub use exact::{
    build_lp1, build_lp1_target, build_lp2, build_lp2_target, solve_ppm_mecf, ExactOptions,
};
pub(crate) use exact::{Deployment, ExactModel};
pub(crate) use greedy::{decreasing_load_picks, greedy_incumbent};
pub use greedy::{flow_greedy_ppm, greedy_adaptive, greedy_static};
pub use mecf_bb::solve_ppm_mecf_bb;

use milp::{Solution, VarId};

use crate::instance::PpmInstance;

/// Panics unless `k` is a coverage fraction in `[0, 1]` (sweeps may land
/// a float hair above 1).
fn assert_fraction(k: f64) {
    assert!(
        k.is_finite() && (0.0..=1.0 + 1e-12).contains(&k),
        "monitoring fraction k must lie in [0, 1], got {k}"
    );
}

/// The edges whose device variable `xs[e]` is one in `sol`, ascending.
pub(crate) fn selected_edges(xs: &[VarId], sol: &Solution) -> Vec<usize> {
    (0..xs.len()).filter(|&e| sol.is_one(xs[e], 1e-4)).collect()
}

/// A passive placement: the selected monitor links plus bookkeeping. It
/// answers both `PPM(k)` and its budget variant (maximum coverage with a
/// limited number of devices).
#[derive(Debug, Clone, PartialEq)]
pub struct PpmSolution {
    /// Selected edge indices, sorted.
    pub edges: Vec<usize>,
    /// Volume covered by the selection.
    pub coverage: f64,
    /// Total volume `V` of the instance.
    pub total_volume: f64,
    /// `true` when the solution is proven optimal (exact solvers with a
    /// completed search); heuristics always report `false`.
    pub proven_optimal: bool,
}

impl PpmSolution {
    /// Builds a solution from a device set, computing its coverage on
    /// `inst` (sorts and deduplicates the edges).
    pub fn from_edges(inst: &PpmInstance, mut edges: Vec<usize>, proven: bool) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let coverage = inst.coverage(&edges);
        Self {
            edges,
            coverage,
            total_volume: inst.total_volume(),
            proven_optimal: proven,
        }
    }

    /// Number of monitoring devices used.
    pub fn device_count(&self) -> usize {
        self.edges.len()
    }

    /// Fraction of the total volume covered (0 when the instance is empty).
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_volume > 0.0 {
            self.coverage / self.total_volume
        } else {
            0.0
        }
    }
}
