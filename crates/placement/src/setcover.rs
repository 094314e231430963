//! Minimum (Partial) Set Cover: the combinatorial kernel of Section 4.2.
//!
//! The paper proves `PPM(1) ≡ MSC` (Theorem 1) and leans on two classical
//! results: the greedy algorithm is a `(ln n − ln ln n + O(1))`
//! approximation (Slavík), and no polynomial algorithm does better than
//! `(1 − ε) ln n` unless NP ⊂ DTIME(n^{log log n}) (Feige). This module
//! holds the workspace's one marginal-gain greedy — repeatedly pick the
//! set adding the most still-uncovered element weight — in two forms:
//! the *partial* cover ([`greedy_partial_cover`]: reach a target weight
//! with the fewest sets; plain MSC at target = total weight) and the
//! *max coverage* greedy ([`greedy_max_cover`]: cover the most weight
//! with at most `budget` sets). Link placement (Section 4.3), the probe
//! cover and beacon placement (Section 6.1), the budget fallback and the
//! ensemble greedy all run it.

/// A (partial, weighted-element) set cover instance.
#[derive(Debug, Clone)]
pub struct SetCoverInstance {
    /// Weight per element (paper: traffic volumes; classical MSC: all 1).
    pub weights: Vec<f64>,
    /// The candidate sets, as duplicate-free element index lists.
    pub sets: Vec<Vec<usize>>,
}

impl SetCoverInstance {
    /// Builds and validates an instance.
    ///
    /// # Panics
    ///
    /// Panics when a set references an element out of range or a weight is
    /// negative/NaN.
    pub fn new(weights: Vec<f64>, sets: Vec<Vec<usize>>) -> Self {
        for &w in &weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
        }
        let n = weights.len();
        let mut cleaned = Vec::with_capacity(sets.len());
        for mut s in sets {
            s.sort_unstable();
            s.dedup();
            if let Some(&max) = s.last() {
                assert!(max < n, "set references element {max} >= {n}");
            }
            cleaned.push(s);
        }
        Self {
            weights,
            sets: cleaned,
        }
    }

    /// Unweighted instance (all element weights 1).
    pub fn unweighted(num_elements: usize, sets: Vec<Vec<usize>>) -> Self {
        Self::new(vec![1.0; num_elements], sets)
    }

    /// Total element weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Weight covered by a selection of set indices.
    pub fn covered_weight(&self, selection: &[usize]) -> f64 {
        let mut covered = vec![false; self.weights.len()];
        for &s in selection {
            for &e in &self.sets[s] {
                covered[e] = true;
            }
        }
        covered
            .iter()
            .zip(&self.weights)
            .filter(|(c, _)| **c)
            .map(|(_, w)| w)
            .sum()
    }

    /// The maximum weight any selection can cover (elements in no set are
    /// uncoverable).
    pub fn max_coverable_weight(&self) -> f64 {
        let mut coverable = vec![false; self.weights.len()];
        for s in &self.sets {
            for &e in s {
                coverable[e] = true;
            }
        }
        coverable
            .iter()
            .zip(&self.weights)
            .filter(|(c, _)| **c)
            .map(|(_, w)| w)
            .sum()
    }
}

/// Result of the greedy partial cover.
#[derive(Debug, Clone)]
pub struct GreedyCover {
    /// Selected set indices, in pick order.
    pub selection: Vec<usize>,
    /// Weight covered by the selection.
    pub covered: f64,
}

/// The greedy's gain tolerance: a set must add more than this, and gains
/// within it tie.
fn tolerance(inst: &SetCoverInstance) -> f64 {
    1e-9 * inst.total_weight().max(1.0)
}

/// The marginal-gain loop: pick the unused set covering the most
/// still-uncovered weight until `target` weight is covered, `max_picks`
/// sets are picked, or no set adds more than `tol`. Gains within `tol`
/// tie, and ties go to the smaller set index.
fn greedy_picks(inst: &SetCoverInstance, target: f64, max_picks: usize) -> GreedyCover {
    let mut covered = vec![false; inst.weights.len()];
    let mut covered_w = 0.0f64;
    let mut selection = Vec::new();
    let tol = tolerance(inst);
    let mut used = vec![false; inst.sets.len()];
    while selection.len() < max_picks && covered_w + tol < target {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in inst.sets.iter().enumerate() {
            if used[i] {
                continue;
            }
            let gain: f64 = s
                .iter()
                .filter(|&&e| !covered[e])
                .map(|&e| inst.weights[e])
                .sum();
            if gain > tol && best.is_none_or(|(_, g)| gain > g + tol) {
                best = Some((i, gain));
            }
        }
        let Some((pick, gain)) = best else { break };
        used[pick] = true;
        selection.push(pick);
        covered_w += gain;
        for &e in &inst.sets[pick] {
            covered[e] = true;
        }
    }
    GreedyCover {
        selection,
        covered: covered_w,
    }
}

/// Greedy partial cover: repeatedly pick the set covering the most
/// still-uncovered weight until `target` weight is covered.
///
/// Returns `None` when the target exceeds the coverable weight. A set must
/// add more than `1e-9 ·` the total weight, and ties within that go to the
/// smaller set index, so the output is deterministic.
pub fn greedy_partial_cover(inst: &SetCoverInstance, target: f64) -> Option<GreedyCover> {
    let tol = tolerance(inst);
    if target > inst.max_coverable_weight() + tol {
        return None;
    }
    let g = greedy_picks(inst, target, usize::MAX);
    if g.covered + tol < target {
        return None; // only on numeric pathologies
    }
    Some(g)
}

/// Greedy maximum coverage: the same picks as [`greedy_partial_cover`],
/// but up to `budget` sets, stopping early once no set adds more than
/// `1e-9 ·` the total weight.
pub fn greedy_max_cover(inst: &SetCoverInstance, budget: usize) -> GreedyCover {
    greedy_picks(inst, f64::INFINITY, budget)
}

/// Full-cover convenience wrapper (`MSC`): greedy until everything
/// coverable is covered; `None` if some positive-weight element is in no
/// set.
pub fn greedy_set_cover(inst: &SetCoverInstance) -> Option<GreedyCover> {
    let total = inst.total_weight();
    if inst.max_coverable_weight() + 1e-12 < total {
        return None;
    }
    greedy_partial_cover(inst, total)
}

/// The Slavík guarantee for greedy set cover on `n` elements:
/// `ln n − ln ln n + 0.78`; greedy never uses more than this factor times
/// the optimum (for n large enough; the constant is Slavík's).
pub fn slavik_bound(num_elements: usize) -> f64 {
    if num_elements < 2 {
        return 1.0;
    }
    let n = num_elements as f64;
    (n.ln() - n.ln().ln() + 0.78).max(1.0)
}

/// Exhaustive minimum partial cover for small instances (tests and bound
/// checking): the smallest selection covering at least `target` weight,
/// ties broken toward the lexicographically smallest bitmask.
///
/// Returns `None` when no selection reaches the target. Exponential:
/// callers must keep `sets.len() ≤ 20`.
pub fn brute_force_cover(inst: &SetCoverInstance, target: f64) -> Option<Vec<usize>> {
    let m = inst.sets.len();
    assert!(m <= 20, "brute force limited to 20 sets, got {m}");
    let tol = 1e-9 * inst.total_weight().max(1.0);
    let mut best: Option<(u32, u32)> = None; // (cardinality, mask)
    for mask in 0u32..(1u32 << m) {
        let count = mask.count_ones();
        if best.is_some_and(|(c, _)| count >= c) {
            continue;
        }
        let selection: Vec<usize> = (0..m).filter(|i| mask >> i & 1 == 1).collect();
        if inst.covered_weight(&selection) + tol >= target {
            best = Some((count, mask));
            if count == 0 {
                break;
            }
        }
    }
    best.map(|(_, mask)| (0..m).filter(|i| mask >> i & 1 == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> SetCoverInstance {
        // Elements {0,1,2}; sets {0,1}, {1,2}, {0,2}: optimum 2, LP 1.5.
        SetCoverInstance::unweighted(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]])
    }

    #[test]
    fn greedy_covers_triangle_with_two() {
        let inst = triangle();
        let g = greedy_set_cover(&inst).unwrap();
        assert_eq!(g.selection.len(), 2);
        assert_eq!(g.covered, 3.0);
    }

    #[test]
    fn brute_force_triangle() {
        let inst = triangle();
        let b = brute_force_cover(&inst, 3.0).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn partial_cover_needs_fewer_sets() {
        let inst = triangle();
        let g = greedy_partial_cover(&inst, 2.0).unwrap();
        assert_eq!(g.selection.len(), 1);
        assert!(g.covered >= 2.0);
    }

    #[test]
    fn weighted_greedy_prefers_heavy_elements() {
        let inst = SetCoverInstance::new(vec![10.0, 1.0, 1.0], vec![vec![0], vec![1, 2]]);
        let g = greedy_partial_cover(&inst, 10.0).unwrap();
        assert_eq!(g.selection, vec![0]);
    }

    #[test]
    fn impossible_cover_detected() {
        // Element 2 in no set.
        let inst = SetCoverInstance::unweighted(3, vec![vec![0], vec![1]]);
        assert!(greedy_set_cover(&inst).is_none());
        assert!(greedy_partial_cover(&inst, 3.0).is_none());
        assert!(greedy_partial_cover(&inst, 2.0).is_some());
    }

    #[test]
    fn zero_target_selects_nothing() {
        let inst = triangle();
        let g = greedy_partial_cover(&inst, 0.0).unwrap();
        assert!(g.selection.is_empty());
    }

    #[test]
    fn greedy_is_worse_than_optimal_on_classic_family() {
        // Classic greedy trap on 6 elements: the optimal cover is
        // A = {0,1,4} with B = {2,3,5}, but the bait set X = {0,1,2,3}
        // is bigger than either, so greedy picks X first and then still
        // needs A and B (one new element each): 3 sets vs optimum 2.
        let inst = SetCoverInstance::unweighted(
            6,
            vec![
                vec![0, 1, 2, 3], // bait
                vec![0, 1, 4],    // optimal half
                vec![2, 3, 5],    // optimal half
            ],
        );
        let g = greedy_set_cover(&inst).unwrap();
        let b = brute_force_cover(&inst, 6.0).unwrap();
        assert_eq!(b.len(), 2);
        assert!(
            g.selection.len() >= 3,
            "greedy should be baited: {:?}",
            g.selection
        );
        // ... but within the Slavík bound.
        assert!((g.selection.len() as f64) <= slavik_bound(6) * b.len() as f64);
    }

    #[test]
    fn slavik_bound_sane() {
        assert_eq!(slavik_bound(1), 1.0);
        assert!(slavik_bound(100) > 1.0);
        assert!(slavik_bound(1000) > slavik_bound(100));
        // ln(1000) - ln ln(1000) + 0.78 ≈ 5.75
        assert!((slavik_bound(1000) - 5.755).abs() < 0.1);
    }

    #[test]
    fn brute_force_partial_target() {
        let inst = SetCoverInstance::new(
            vec![5.0, 4.0, 3.0, 2.0],
            vec![vec![0], vec![1], vec![2], vec![3], vec![2, 3]],
        );
        // Cover >= 9 weight: {0,1} does it with 2 sets; single best set is 5.
        let b = brute_force_cover(&inst, 9.0).unwrap();
        assert_eq!(b.len(), 2);
        let b2 = brute_force_cover(&inst, 5.0).unwrap();
        assert_eq!(b2.len(), 1);
        assert!(brute_force_cover(&inst, 15.0).is_none());
    }

    #[test]
    fn empty_instance() {
        let inst = SetCoverInstance::unweighted(0, vec![]);
        let g = greedy_set_cover(&inst).unwrap();
        assert!(g.selection.is_empty());
        assert_eq!(brute_force_cover(&inst, 0.0), Some(vec![]));
        assert!(greedy_max_cover(&inst, 3).selection.is_empty());
    }

    #[test]
    fn max_cover_stops_at_the_budget_or_when_nothing_is_left() {
        let inst = SetCoverInstance::new(
            vec![5.0, 4.0, 3.0, 0.0],
            vec![vec![3], vec![0], vec![1, 2], vec![2], vec![1]],
        );
        // Set 0 holds only a zero-weight element: never picked.
        let g = greedy_max_cover(&inst, 1);
        assert_eq!(g.selection, vec![2]);
        assert_eq!(g.covered, 7.0);
        let g = greedy_max_cover(&inst, 10);
        assert_eq!(g.selection, vec![2, 1]);
        assert_eq!(g.covered, 12.0);
        assert!(greedy_max_cover(&inst, 0).selection.is_empty());
    }

    #[test]
    fn max_cover_ties_go_to_the_smaller_index() {
        // Sets 1 and 2 add the same weight up to a rounding error.
        let inst = SetCoverInstance::new(vec![0.3, 0.1, 0.2], vec![vec![], vec![0], vec![1, 2]]);
        assert_ne!(0.3f64, 0.1 + 0.2);
        assert_eq!(greedy_max_cover(&inst, 1).selection, vec![1]);
        // The partial cover runs the same loop.
        assert_eq!(greedy_partial_cover(&inst, 0.3).unwrap().selection, vec![1]);
    }
}
