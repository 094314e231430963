//! The Partial Passive Monitoring instance (paper Section 4.1).
//!
//! > INSTANCE: `k ∈ (0, 1]`, `G = (V, E)` a graph, `D = {(p_i, v_i)}` a set
//! > of weighted paths (traffics). `V = Σ v_i` is the total bandwidth.
//! >
//! > SOLUTION: a subset `E' ⊆ E` such that the sum of the weights of the
//! > paths that cross a selected edge is at least `k·V`.
//! >
//! > MEASURE: cardinality of `E'`.

use netgraph::Graph;
use popgen::TrafficSet;

/// A `PPM(k)` instance: candidate edges and weighted traffic supports.
///
/// The instance stores, for each traffic, its volume and the *support*
/// (set of edge indices its path traverses). The graph itself is not
/// needed by the solvers — only the edge-path incidence matters — which is
/// exactly the observation behind Theorem 1.
#[derive(Debug, Clone, Default)]
pub struct PpmInstance {
    /// Number of candidate edges (`|E|`).
    pub num_edges: usize,
    /// `(volume v_t, sorted duplicate-free support)` per traffic.
    pub traffics: Vec<(f64, Vec<usize>)>,
}

impl PpmInstance {
    /// Builds an instance from explicit supports.
    ///
    /// # Panics
    ///
    /// Panics when a support references an edge `≥ num_edges` or a volume
    /// is negative/NaN.
    pub fn new(num_edges: usize, traffics: Vec<(f64, Vec<usize>)>) -> Self {
        let mut cleaned = Vec::with_capacity(traffics.len());
        for (v, mut support) in traffics {
            assert!(
                v.is_finite() && v >= 0.0,
                "volume must be finite and >= 0, got {v}"
            );
            support.sort_unstable();
            support.dedup();
            if let Some(&max) = support.last() {
                assert!(
                    max < num_edges,
                    "support references edge {max} >= {num_edges}"
                );
            }
            cleaned.push((v, support));
        }
        Self {
            num_edges,
            traffics: cleaned,
        }
    }

    /// Builds the instance from a routed traffic matrix (the normal path in
    /// the experiments: `popgen` generates, this adapts).
    pub fn from_traffic(graph: &Graph, ts: &TrafficSet) -> Self {
        let traffics = ts
            .traffics
            .iter()
            .map(|t| {
                (
                    t.volume,
                    t.path.edges().iter().map(|e| e.index()).collect::<Vec<_>>(),
                )
            })
            .collect();
        Self::new(graph.edge_count(), traffics)
    }

    /// Total bandwidth `V`.
    pub fn total_volume(&self) -> f64 {
        self.traffics.iter().map(|&(v, _)| v).sum()
    }

    /// Load per edge.
    pub fn edge_loads(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.num_edges];
        for (v, support) in &self.traffics {
            for &e in support {
                load[e] += v;
            }
        }
        load
    }

    /// Total volume of the traffics covered by `selected` (edge indices).
    pub fn coverage(&self, selected: &[usize]) -> f64 {
        let mut mask = vec![false; self.num_edges];
        for &e in selected {
            mask[e] = true;
        }
        self.traffics
            .iter()
            .filter(|(_, support)| support.iter().any(|&e| mask[e]))
            .map(|&(v, _)| v)
            .sum()
    }

    /// `true` when `selected` meets the `k` coverage target (with a small
    /// relative tolerance to absorb floating-point noise).
    pub fn is_feasible(&self, selected: &[usize], k: f64) -> bool {
        self.coverage(selected) + 1e-9 >= k * self.total_volume() - 1e-9
    }

    /// Merges traffics with identical supports, summing volumes, and drops
    /// zero-volume and empty-support traffics. Solvers call this first: on
    /// the 15-router POP it typically halves the row count of the MIP
    /// (forward and return paths share supports when routing is symmetric).
    ///
    /// Solutions of the merged instance are identical — coverage of any
    /// edge set is preserved by construction. Empty-support traffics can
    /// never be covered, so they are excluded from the objective and the
    /// caller should account for them via [`PpmInstance::uncoverable_volume`]
    /// on the *original* instance.
    pub fn merged(&self) -> PpmInstance {
        let mut sorted: Vec<(Vec<usize>, f64)> = self
            .traffics
            .iter()
            .filter(|(v, support)| *v > 0.0 && !support.is_empty())
            .map(|(v, support)| (support.clone(), *v))
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut merged: Vec<(f64, Vec<usize>)> = Vec::new();
        for (support, v) in sorted {
            match merged.last_mut() {
                Some((lv, ls)) if *ls == support => *lv += v,
                _ => merged.push((v, support)),
            }
        }
        PpmInstance {
            num_edges: self.num_edges,
            traffics: merged,
        }
    }

    /// Volume of traffics whose support is empty (entry = exit router, or
    /// degenerate paths) — impossible to monitor on any link.
    pub fn uncoverable_volume(&self) -> f64 {
        self.traffics
            .iter()
            .filter(|(_, support)| support.is_empty())
            .map(|&(v, _)| v)
            .sum()
    }

    /// The maximum achievable coverage fraction (1 minus the uncoverable
    /// share); `PPM(k)` is infeasible beyond this.
    pub fn max_coverage_fraction(&self) -> f64 {
        let total = self.total_volume();
        if total <= 0.0 {
            return 1.0;
        }
        1.0 - self.uncoverable_volume() / total
    }
}

/// The paper's Figure 3 instance (greedy picks 3 devices, optimum is 2),
/// shared across tests in this crate.
#[cfg(test)]
pub(crate) fn fixture_figure3() -> PpmInstance {
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

#[cfg(test)]
mod tests {
    use super::*;
    use popgen::{PopSpec, TrafficSpec};

    fn figure3() -> PpmInstance {
        fixture_figure3()
    }

    #[test]
    fn totals_and_loads() {
        let inst = figure3();
        assert_eq!(inst.total_volume(), 6.0);
        assert_eq!(inst.edge_loads(), vec![4.0, 3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn coverage_and_feasibility() {
        let inst = figure3();
        assert_eq!(inst.coverage(&[0]), 4.0);
        assert_eq!(inst.coverage(&[1, 2]), 6.0);
        assert!(inst.is_feasible(&[1, 2], 1.0));
        assert!(!inst.is_feasible(&[0], 1.0));
        assert!(inst.is_feasible(&[0], 4.0 / 6.0));
    }

    #[test]
    fn merge_combines_identical_supports() {
        let inst = PpmInstance::new(
            3,
            vec![
                (1.0, vec![0, 1]),
                (2.0, vec![1, 0]), // same support, different order
                (3.0, vec![2]),
                (0.0, vec![0]), // zero volume dropped
                (4.0, vec![]),  // empty support dropped
            ],
        );
        let m = inst.merged();
        assert_eq!(m.traffics.len(), 2);
        assert_eq!(m.total_volume(), 6.0);
        assert_eq!(inst.uncoverable_volume(), 4.0);
        assert!((inst.max_coverage_fraction() - 6.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_coverage() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let merged = inst.merged();
        assert!(
            merged.traffics.len() < inst.traffics.len(),
            "merging should shrink"
        );
        for sel in [vec![0], vec![1, 5], vec![0, 3, 7, 20]] {
            assert!((inst.coverage(&sel) - merged.coverage(&sel)).abs() < 1e-6);
        }
    }

    #[test]
    fn from_traffic_matches_edge_loads() {
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        assert_eq!(inst.num_edges, 27);
        assert_eq!(inst.traffics.len(), 132);
        let from_ts = ts.edge_loads(&pop.graph);
        let from_inst = inst.edge_loads();
        for (a, b) in from_ts.iter().zip(&from_inst) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "support references edge")]
    fn rejects_out_of_range_support() {
        PpmInstance::new(2, vec![(1.0, vec![5])]);
    }

    #[test]
    fn dedups_support() {
        let inst = PpmInstance::new(3, vec![(1.0, vec![2, 2, 0, 0])]);
        assert_eq!(inst.traffics[0].1, vec![0, 2]);
    }
}
