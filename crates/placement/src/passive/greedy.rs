//! The greedy heuristics for `PPM(k)`.
//!
//! Three variants, all from the paper:
//!
//! * [`greedy_static`] — "the greedy approach that selects links in
//!   decreasing weight order" (Section 4.4): sort edges by initial load
//!   once, add until the target is met. This is the baseline plotted in
//!   Figures 7 and 8.
//! * [`greedy_adaptive`] — the set-cover greedy ("always choose the edge
//!   which permits to monitor the larger volume of traffic not monitored
//!   yet", Section 4.3), which carries the Slavík guarantee.
//! * [`flow_greedy_ppm`] — a min-cost flow on the MECF auxiliary graph
//!   (built by `mcmf`) with `1/load(e)` arc costs, which the paper shows
//!   formalizes the greedy family (Section 4.3 "Heuristics").

use mcmf::mecf::build_mecf;
use mcmf::mincost::min_cost_flow;
use mcmf::FLOW_EPS;

use crate::instance::PpmInstance;
use crate::passive::{assert_fraction, PpmSolution};
use crate::reduction::ppm_to_msc;
use crate::setcover::greedy_partial_cover;

/// Static decreasing-load greedy. Returns `None` when even all edges
/// cannot reach the target (uncoverable traffic).
///
/// One pass: O(Σ|support| + E log E) (see [`decreasing_load_picks`]).
pub fn greedy_static(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    assert_fraction(k);
    let total = inst.total_volume();
    let skip = vec![false; inst.traffics.len()];
    let dead = vec![false; inst.num_edges];
    let picked = decreasing_load_picks(inst, &skip, &dead, total, k * total)?;
    Some(PpmSolution::from_edges(inst, picked, false))
}

/// The decreasing-load greedy's picks, in pick order, on `inst` restricted
/// to the traffics `skip` leaves in and with the `dead` links carrying no
/// load; `None` when every pick together stays short of `target`. `total`
/// is the volume of the kept traffics, summed in traffic order.
///
/// The picks are a prefix of the load order, so a traffic is covered by
/// the first picked edge on its support. Bucketing the kept traffics by
/// that edge's rank (a counting sort, stable in traffic order) and adding
/// each bucket's volumes pick by pick replays the textbook loop's
/// `covered += v` sequence exactly — rescanning every support per pick —
/// at O(Σ|support| + E log E) instead of O(picks·Σ|support|).
pub(crate) fn decreasing_load_picks(
    inst: &PpmInstance,
    skip: &[bool],
    dead: &[bool],
    total: f64,
    target: f64,
) -> Option<Vec<usize>> {
    let kept = || {
        inst.traffics
            .iter()
            .enumerate()
            .filter(|&(t, _)| !skip[t])
            .map(|(_, (v, support))| (*v, support.iter().copied().filter(|&e| !dead[e])))
    };
    let mut loads = vec![0.0f64; inst.num_edges];
    for (v, support) in kept() {
        for e in support {
            loads[e] += v;
        }
    }
    let mut order: Vec<usize> = (0..inst.num_edges).collect();
    // Decreasing load; ties on the smaller edge index for determinism.
    order.sort_by(|&a, &b| {
        loads[b]
            .partial_cmp(&loads[a])
            .expect("finite loads")
            .then(a.cmp(&b))
    });
    // Only loaded edges are ever picked.
    let pickable = order.partition_point(|&e| loads[e] > 0.0);
    let mut rank = vec![usize::MAX; inst.num_edges];
    for (r, &e) in order[..pickable].iter().enumerate() {
        rank[e] = r;
    }
    // Per kept traffic: its volume and the rank of its first pickable
    // edge (`usize::MAX` when none is).
    let first: Vec<(f64, usize)> = kept()
        .map(|(v, support)| (v, support.map(|e| rank[e]).min().unwrap_or(usize::MAX)))
        .collect();
    let mut start = vec![0usize; pickable + 1];
    for &(_, r) in &first {
        if r < pickable {
            start[r + 1] += 1;
        }
    }
    for r in 0..pickable {
        start[r + 1] += start[r];
    }
    let mut next = start.clone();
    let mut bucketed = vec![0.0f64; start[pickable]];
    for &(v, r) in &first {
        if r < pickable {
            bucketed[next[r]] = v;
            next[r] += 1;
        }
    }

    let mut covered_w = 0.0f64;
    let mut picked = Vec::new();
    let tol = 1e-9 * total.max(1.0);
    for (r, &e) in order[..pickable].iter().enumerate() {
        if covered_w + tol >= target {
            break;
        }
        picked.push(e);
        for v in &bucketed[start[r]..start[r + 1]] {
            covered_w += v;
        }
    }
    if covered_w + tol < target {
        return None;
    }
    Some(picked)
}

/// Adaptive (set-cover) greedy: repeatedly pick the edge covering the most
/// uncovered volume.
pub fn greedy_adaptive(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    assert_fraction(k);
    let msc = ppm_to_msc(inst);
    let target = k * inst.total_volume();
    let g = greedy_partial_cover(&msc, target)?;
    Some(PpmSolution::from_edges(inst, g.selection, false))
}

/// The paper's flow greedy: a min-cost flow of `k·V` units on the MECF
/// auxiliary graph ([`mcmf::mecf::build_mecf`]) with `(S, w_e)` cost
/// `1/load(e)` per monitored unit, selecting every edge whose arc carries
/// flow. Returns `None` when even monitoring every edge cannot route the
/// target.
pub fn flow_greedy_ppm(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    assert_fraction(k);
    let demand = k * inst.total_volume();
    if demand <= FLOW_EPS {
        return Some(PpmSolution::from_edges(inst, Vec::new(), false));
    }
    // Cost 1/load: heavily loaded links are cheap per monitored unit.
    // Unused links get an effectively prohibitive (but finite) cost.
    let costs: Vec<f64> = inst
        .edge_loads()
        .iter()
        .map(|&l| if l > FLOW_EPS { 1.0 / l } else { 1e12 })
        .collect();
    let mut g = build_mecf(inst.num_edges, &inst.traffics, &costs);
    let res = min_cost_flow(&mut g.net, g.source, g.sink, demand);
    if res.flow + FLOW_EPS < demand {
        return None;
    }
    let edges = (0..inst.num_edges)
        .filter(|&e| g.net.flow(g.edge_arcs[e]) > FLOW_EPS)
        .collect();
    Some(PpmSolution::from_edges(inst, edges, false))
}

/// The better of [`greedy_static`] and [`greedy_adaptive`] (fewer
/// devices; the static one on a tie): the exact searches' initial
/// incumbent.
pub(crate) fn greedy_incumbent(inst: &PpmInstance, k: f64) -> Option<PpmSolution> {
    match (greedy_static(inst, k), greedy_adaptive(inst, k)) {
        (Some(a), Some(b)) => Some(if a.device_count() <= b.device_count() {
            a
        } else {
            b
        }),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;

    #[test]
    fn figure3_static_greedy_needs_three() {
        // The paper's counter-example: greedy takes the load-4 link first,
        // then needs two more; the optimum is the two load-3 links.
        let inst = fixture_figure3();
        let g = greedy_static(&inst, 1.0).unwrap();
        assert_eq!(g.device_count(), 3, "greedy is baited into 3 devices");
        assert!(g.coverage >= 6.0 - 1e-9);
        assert!(!g.proven_optimal);
    }

    #[test]
    fn figure3_adaptive_also_baited() {
        // The adaptive greedy also starts with the load-4 link here.
        let inst = fixture_figure3();
        let g = greedy_adaptive(&inst, 1.0).unwrap();
        assert_eq!(g.device_count(), 3);
    }

    #[test]
    fn partial_target_needs_fewer() {
        let inst = fixture_figure3();
        // 4/6 of the volume: the single heavy link suffices.
        let g = greedy_static(&inst, 4.0 / 6.0).unwrap();
        assert_eq!(g.device_count(), 1);
        assert_eq!(g.edges, vec![0]);
        let a = greedy_adaptive(&inst, 4.0 / 6.0).unwrap();
        assert_eq!(a.device_count(), 1);
    }

    #[test]
    fn flow_greedy_feasible() {
        let inst = fixture_figure3();
        for k in [0.5, 0.8, 1.0] {
            let f = flow_greedy_ppm(&inst, k).unwrap();
            assert!(
                inst.is_feasible(&f.edges, k),
                "flow greedy feasible at k={k}"
            );
        }
    }

    #[test]
    fn flow_greedy_full_monitoring_covers_everything() {
        let inst = fixture_figure3();
        let f = flow_greedy_ppm(&inst, 1.0).expect("feasible");
        assert!((f.coverage - 6.0).abs() < 1e-9);
        assert!(inst.coverage(&f.edges) >= 6.0 - 1e-9);
    }

    #[test]
    fn flow_greedy_prefers_loaded_link() {
        // At k = 4/6 the heavy link alone suffices and is the cheapest per
        // unit, so the flow greedy must select exactly edge 0.
        let inst = fixture_figure3();
        let f = flow_greedy_ppm(&inst, 4.0 / 6.0).unwrap();
        assert_eq!(f.edges, vec![0]);
    }

    #[test]
    fn flow_greedy_empty_instance() {
        let inst = PpmInstance::new(3, vec![]);
        let f = flow_greedy_ppm(&inst, 1.0).unwrap();
        assert!(f.edges.is_empty());
        assert_eq!(f.coverage, 0.0);
    }

    #[test]
    fn zero_k_selects_nothing() {
        let inst = fixture_figure3();
        assert_eq!(greedy_static(&inst, 0.0).unwrap().device_count(), 0);
        assert_eq!(greedy_adaptive(&inst, 0.0).unwrap().device_count(), 0);
        assert_eq!(flow_greedy_ppm(&inst, 0.0).unwrap().device_count(), 0);
    }

    #[test]
    fn uncoverable_target_is_none() {
        let inst = crate::instance::PpmInstance::new(
            2,
            vec![(1.0, vec![0]), (1.0, vec![])], // second traffic uncoverable
        );
        assert!(greedy_static(&inst, 1.0).is_none());
        assert!(greedy_adaptive(&inst, 1.0).is_none());
        assert!(greedy_static(&inst, 0.5).is_some());
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn rejects_bad_k() {
        greedy_static(&fixture_figure3(), 1.5);
    }

    #[test]
    fn coverage_fraction_reported() {
        let inst = fixture_figure3();
        let g = greedy_static(&inst, 4.0 / 6.0).unwrap();
        assert!((g.coverage_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }
}
