//! Exhaustive `PPM(k)` for small instances — the ground truth used by the
//! tests and property tests to validate the MIP and the heuristics.

use crate::instance::PpmInstance;
use crate::passive::{assert_fraction, PpmSolution};
use crate::reduction::ppm_to_msc;
use crate::setcover::brute_force_cover;

/// Finds a minimum-cardinality edge set covering at least `k·V` by
/// exhaustive search over the (≤ 20) edges.
///
/// Returns `None` when no edge set reaches the target.
pub fn brute_force_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    assert_fraction(k);
    let msc = ppm_to_msc(inst);
    let target = k * inst.total_volume();
    let selection = brute_force_cover(&msc, target)?;
    Some(PpmSolution::from_edges(inst, selection, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;

    #[test]
    fn figure3_brute_force() {
        let inst = fixture_figure3();
        let s = brute_force_ppm(&inst, 1.0).unwrap();
        assert_eq!(s.device_count(), 2);
        assert!(s.proven_optimal);
    }

    #[test]
    fn partial_targets_monotone_in_k() {
        let inst = fixture_figure3();
        let mut last = 0;
        for k in [0.2, 0.5, 0.7, 0.9, 1.0] {
            let s = brute_force_ppm(&inst, k).unwrap();
            assert!(s.device_count() >= last, "device count monotone in k");
            last = s.device_count();
        }
    }

    #[test]
    fn impossible_target() {
        let inst = PpmInstance::new(1, vec![(1.0, vec![0]), (3.0, vec![])]);
        assert!(brute_force_ppm(&inst, 0.9).is_none());
        assert_eq!(brute_force_ppm(&inst, 0.25).unwrap().device_count(), 1);
    }
}
