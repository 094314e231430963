//! Deployment variants of `PPM(k)` enabled by the MIP formulation
//! (paper Sections 1 and 4.3):
//!
//! * **incremental** — "from a set of already installed devices that cannot
//!   move, compute the best way to position a new set of monitors": the
//!   installed `x_e` are fixed to 1 and the MIP minimizes the added count;
//! * **budget** — "finding the best positioning of a limited number of
//!   devices": maximize the monitored volume subject to `Σ x_e ≤ B`,
//!   answered with the same [`PpmSolution`] as `PPM(k)`;
//! * **expected gain** — "the estimation of the expected gain in buying one
//!   or a set of new devices": the budget problem on top of an installed
//!   base, reported as the coverage delta.

use crate::instance::PpmInstance;
use crate::passive::{Deployment, ExactModel, ExactOptions, PpmSolution};

/// Minimum number of *additional* devices to reach coverage `k`, given
/// `installed` devices that cannot move. Returns the complete placement
/// (installed + new). `None` when the target is unreachable.
pub fn solve_incremental(
    inst: &PpmInstance,
    k: f64,
    installed: &[usize],
    opts: &ExactOptions,
) -> Option<PpmSolution> {
    let installed = sorted_links(installed);
    for &e in &installed {
        assert!(e < inst.num_edges, "installed edge {e} out of range");
    }
    let at = Deployment {
        installed: &installed,
        ..Deployment::fresh(inst)
    };
    ExactModel::solve_min_devices(&mut None, at, k, &opts.mip(None)).unbudgeted()
}

/// Maximum-coverage placement of at most `budget` new devices on top of
/// `installed` ones (pass `&[]` for a fresh deployment). The placement
/// lists every selected edge, the installed ones included.
pub fn solve_budget(
    inst: &PpmInstance,
    budget: usize,
    installed: &[usize],
    opts: &ExactOptions,
) -> PpmSolution {
    let installed = sorted_links(installed);
    let at = Deployment {
        installed: &installed,
        ..Deployment::fresh(inst)
    };
    ExactModel::solve_max_coverage(&mut None, at, budget, &opts.mip(None)).unbudgeted()
}

/// `links` sorted and deduplicated, as a [`Deployment`] holds them.
fn sorted_links(links: &[usize]) -> Vec<usize> {
    let mut links = links.to_vec();
    links.sort_unstable();
    links.dedup();
    links
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
    fn a_loose_gap_stops_early_and_is_never_proven() {
        use popgen::{PopSpec, TrafficSpec};

        // Both roots are fractional, so at `rel_gap: 1.0` the search stops
        // at its first incumbent within 100% of the bound: a worse answer
        // than the default gap proves, reported unproven.
        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 1);
        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let tight = ExactOptions::default();
        let loose = ExactOptions {
            rel_gap: 1.0,
            ..ExactOptions::default()
        };

        let (a, b) = (
            solve_budget(&inst, 4, &[], &loose),
            solve_budget(&inst, 4, &[], &tight),
        );
        assert!(b.proven_optimal);
        assert!(!a.proven_optimal, "budget at rel_gap 1.0 claims optimality");
        assert!(a.coverage < b.coverage, "budget ignored rel_gap");

        let (a, b) = (
            solve_incremental(&inst, 0.9, &[3, 5], &loose).unwrap(),
            solve_incremental(&inst, 0.9, &[3, 5], &tight).unwrap(),
        );
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
    #[should_panic(expected = "out of range")]
    fn incremental_rejects_bad_edge() {
        solve_incremental(&fixture_figure3(), 1.0, &[99], &ExactOptions::default());
    }
}
