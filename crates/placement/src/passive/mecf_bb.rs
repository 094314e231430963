//! Flow-based branch-and-bound for `PPM(k)` — the "branching algorithm"
//! the paper's Section 4.3 says the MECF framework enables.
//!
//! The observation: under branching, the linear relaxation of the arc-path
//! program (LP 1) is *exactly a minimum-cost flow* on the auxiliary graph:
//!
//! * an edge fixed **installed** contributes a free arc `(S, w_e)`;
//! * an edge fixed **forbidden** loses its arc;
//! * a free edge keeps cost `1/load(e)` per routed unit, so a fully used
//!   free edge costs exactly one device.
//!
//! `bound(node) = |installed| + ⌈mincostflow(k·V)⌉` is a valid lower bound
//! (any feasible completion routes each covered traffic through one of its
//! selected edges, paying at most one per device). Every arc out of `S`
//! and into a traffic node is uncapacitated, so the flow is computed
//! analytically — each traffic's cheapest allowed edge, then a fractional
//! knapsack up to `k·V` (see `mcmf`'s [`FlowBound`]) — instead of by a
//! flow or simplex solve. Every node also yields a feasible incumbent for
//! free: the installed edges plus the free edges carrying flow form a
//! cover.
//!
//! The search is incremental: a depth-first child differs from its parent
//! in one edge, so the bound keeps the per-traffic cheapest-edge choices
//! for the whole search and re-scans only the traffics crossing an edge
//! whose state changed at the next node. This module keeps the search
//! itself: the frames, the branching rule and the redundancy prune.

use mcmf::mecf::{EdgeState, FlowBound};

use crate::instance::PpmInstance;
use crate::passive::exact::coverage_target;
use crate::passive::{assert_fraction, greedy_incumbent, ExactOptions, PpmSolution};

/// Exact `PPM(k)` via branch-and-bound with min-cost-flow bounds.
///
/// Same contract as an exact [`crate::solve::SolveRequest::ppm`] solve
/// (which uses the LP 2 MIP): returns `None` when the target is
/// unreachable, and a [`PpmSolution`] with `proven_optimal` reflecting
/// whether the search completed within the node limit.
///
/// Its bound is LP 1's relaxation, which charges a link only for the
/// share of its load routed through it, while LP 2 counts a selected link
/// for every traffic that crosses it. So it is not the route for large
/// instances: on the 150-router POP (seed 0) the root flow bound is 9.60
/// and LP 2's is 31.14. Its nodes are cheap on small and mid-size POPs,
/// and it is the exact solver of fig8, `xp_scale_150`,
/// `xp_topology_families`, `popmon_cli passive` and popbench's
/// `batch_sweep`, and the Section 4.3 branching algorithm that
/// `xp_mecf_ablation` measures; the LP 2 MIP answers every other
/// production exact solve.
pub fn solve_ppm_mecf_bb(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    assert_fraction(k);
    let target = coverage_target(inst, k)?;
    let merged = inst.merged();
    let ne = merged.num_edges;
    let mut fb = FlowBound::new(ne, &merged.traffics);

    // Initial incumbent from the greedy pair.
    let mut incumbent: Option<Vec<usize>> = greedy_incumbent(inst, k).map(|s| s.edges);

    // DFS over edge fixings. A frame is its parent's fixings (the first
    // `depth` entries of the bound's trail when it is popped) plus one
    // more, so frames carry that one decision rather than a state copy.
    struct Frame {
        depth: usize,
        fix: Option<(usize, EdgeState)>,
        installed: usize,
    }
    let mut stack = vec![Frame {
        depth: 0,
        fix: None,
        installed: 0,
    }];
    let mut nodes = 0usize;
    let mut proven = true;
    let mut cover: Vec<usize> = Vec::new();
    let mut prune = Prune::default();

    while let Some(frame) = stack.pop() {
        if nodes >= opts.max_nodes {
            proven = false;
            break;
        }
        nodes += 1;

        let best = incumbent.as_ref().map(|e| e.len()).unwrap_or(usize::MAX);
        if frame.installed + 1 > best {
            continue; // even one more device cannot improve
        }

        // Flow bound for this node.
        fb.goto(frame.depth, frame.fix);
        let Some((bound_frac, routed)) = fb.evaluate(target) else {
            continue; // target unreachable under these fixings
        };
        let (state, flow_edges, loads) = (fb.state(), fb.with_flow(), fb.loads());
        let bound = frame.installed + (bound_frac - 1e-9).ceil().max(0.0) as usize;
        if bound >= best {
            continue;
        }

        // Free incumbent: installed ∪ free-with-flow edges cover the target
        // (the flow routed `target` units through exactly those arcs).
        if routed + 1e-6 >= target {
            cover.clear();
            cover.extend((0..ne).filter(|&e| state[e] == EdgeState::Installed || flow_edges[e].0));
            prune.run(fb.volumes(), loads, fb.edge_traffics(), &mut cover, target);
            if cover.len() < best {
                incumbent = Some(cover.clone());
            }
        }
        let best = incumbent.as_ref().map(|e| e.len()).unwrap_or(usize::MAX);
        if bound >= best {
            continue;
        }

        // Branch on the most fractional free edge of the relaxation
        // (usage ratio flow/load closest to 1/2, ties toward heavier
        // load): saturated or unused edges are already integral there, so
        // splitting on them wastes a level.
        let branch_edge = (0..ne)
            .filter(|&e| state[e] == EdgeState::Free && flow_edges[e].1 > 1e-9)
            .max_by(|&a, &b| {
                let score = |e: usize| {
                    let frac = (flow_edges[e].1 / loads[e]).clamp(0.0, 1.0);
                    let centrality = 1.0 - (frac - 0.5).abs(); // 1 at 1/2
                    (centrality, loads[e])
                };
                let (ca, la) = score(a);
                let (cb, lb) = score(b);
                ca.partial_cmp(&cb)
                    .expect("finite")
                    .then(la.partial_cmp(&lb).expect("finite"))
                    .then(b.cmp(&a))
            });
        let Some(e) = branch_edge else {
            continue; // no free edge carries flow: the cover above is it
        };

        // Down child (forbid e) pushed first so the up child (install e,
        // plunging toward covers) is explored first.
        let depth = fb.trail().len();
        stack.push(Frame {
            depth,
            fix: Some((e, EdgeState::Forbidden)),
            installed: frame.installed,
        });
        stack.push(Frame {
            depth,
            fix: Some((e, EdgeState::Installed)),
            installed: frame.installed + 1,
        });
    }

    incumbent.map(|edges| PpmSolution::from_edges(inst, edges, proven))
}

/// Scratch buffers of the redundancy prune, reused across incumbents.
#[derive(Default)]
struct Prune {
    cnt: Vec<u32>,
    order: Vec<usize>,
    keep: Vec<bool>,
}

impl Prune {
    /// Drops redundant edges from a cover, greedily, preferring to drop
    /// low-load edges first; keeps the cover feasible for `target`.
    ///
    /// Incremental: per-traffic cover counts plus the `edge_traffics`
    /// index turn each trial drop into a walk over that edge's own
    /// traffics instead of a full coverage recomputation —
    /// `O(Σ_{e∈cover} |traffics(e)|)` per incumbent instead of
    /// `O(|cover| · Σ_t |p_t|)`, and this runs at nearly every node of the
    /// search.
    fn run(
        &mut self,
        volumes: &[f64],
        loads: &[f64],
        edge_traffics: &[Vec<u32>],
        cover: &mut Vec<usize>,
        target: f64,
    ) {
        let Self { cnt, order, keep } = self;
        // How many cover edges each traffic currently routes through, and
        // the total volume covered (traffics with count ≥ 1).
        cnt.clear();
        cnt.resize(volumes.len(), 0);
        for &e in cover.iter() {
            for &t in &edge_traffics[e] {
                cnt[t as usize] += 1;
            }
        }
        let mut covered: f64 = volumes
            .iter()
            .zip(cnt.iter())
            .filter(|&(_, &c)| c > 0)
            .map(|(v, _)| *v)
            .sum();

        // Ascending load, ties in cover order (what a stable sort gives).
        order.clear();
        order.extend(0..cover.len());
        order.sort_unstable_by(|&i, &j| {
            loads[cover[i]]
                .partial_cmp(&loads[cover[j]])
                .expect("finite")
                .then(i.cmp(&j))
        });
        keep.clear();
        keep.resize(cover.len(), true);
        for &i in order.iter() {
            let e = cover[i];
            // Volume lost if e is dropped: traffics covered only by e.
            let loss: f64 = edge_traffics[e]
                .iter()
                .filter(|&&t| cnt[t as usize] == 1)
                .map(|&t| volumes[t as usize])
                .sum();
            if covered - loss + 1e-9 >= target {
                keep[i] = false;
                covered -= loss;
                for &t in &edge_traffics[e] {
                    cnt[t as usize] -= 1;
                }
            }
        }
        let mut kept = keep.iter();
        cover.retain(|_| *kept.next().expect("one flag per edge"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::solve::exact_ppm;

    #[test]
    fn figure3_optimum() {
        let inst = fixture_figure3();
        let s = solve_ppm_mecf_bb(&inst, 1.0, &ExactOptions::default()).unwrap();
        assert_eq!(s.device_count(), 2);
        assert!(s.proven_optimal);
        assert!(inst.is_feasible(&s.edges, 1.0));
    }

    #[test]
    fn agrees_with_lp2_mip_on_pop() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 7);
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        for k in [0.6, 0.8, 0.9, 0.95, 1.0] {
            let a = solve_ppm_mecf_bb(&inst, k, &ExactOptions::default()).unwrap();
            let b = exact_ppm(&inst, k).unwrap();
            assert!(a.proven_optimal && b.proven_optimal);
            assert_eq!(a.device_count(), b.device_count(), "k = {k}");
            assert!(inst.is_feasible(&a.edges, k));
        }
    }

    #[test]
    fn agrees_with_brute_force_small() {
        let inst = crate::instance::PpmInstance::new(
            6,
            vec![
                (4.0, vec![0, 1]),
                (3.0, vec![1, 2]),
                (2.0, vec![2, 3]),
                (2.0, vec![3, 4]),
                (1.0, vec![4, 5]),
                (1.0, vec![0, 5]),
            ],
        );
        for k_pct in [30, 50, 70, 90, 100] {
            let k = k_pct as f64 / 100.0;
            let a = solve_ppm_mecf_bb(&inst, k, &ExactOptions::default()).unwrap();
            let b = crate::passive::brute_force_ppm(&inst, k).unwrap();
            assert_eq!(a.device_count(), b.device_count(), "k = {k}");
        }
    }

    #[test]
    fn unreachable_target_is_none() {
        let inst = crate::instance::PpmInstance::new(1, vec![(1.0, vec![0]), (1.0, vec![])]);
        assert!(solve_ppm_mecf_bb(&inst, 1.0, &ExactOptions::default()).is_none());
        assert!(solve_ppm_mecf_bb(&inst, 0.5, &ExactOptions::default()).is_some());
    }

    /// The node's bound by an independent route: the linear relaxation of
    /// LP 1 (the arc-path program), solved by `milp`'s simplex with each
    /// installed link fixed to 1 and each forbidden link to 0. Its
    /// optimum is `|installed| + Σ_free flow_e/load(e)` over the same
    /// flows, so the free part is the analytic bound. `None` when the LP
    /// is infeasible (`target` cannot be routed).
    fn lp1_bound(inst: &PpmInstance, state: &[EdgeState], target: f64) -> Option<f64> {
        let (mut model, xs) = crate::passive::build_lp1_target(inst, target);
        let mut installed = 0;
        for (e, &x) in xs.iter().enumerate() {
            match state[e] {
                EdgeState::Installed => {
                    model.set_bounds(x, 1.0, 1.0);
                    installed += 1;
                }
                EdgeState::Forbidden => model.set_bounds(x, 0.0, 0.0),
                EdgeState::Free => {}
            }
        }
        match model.solve_lp() {
            Ok(sol) => Some(sol.objective - installed as f64),
            Err(milp::SolverError::Infeasible) => None,
            Err(e) => panic!("LP 1 relaxation failed: {e}"),
        }
    }

    #[test]
    fn analytic_bound_matches_real_min_cost_flow() {
        // The knapsack decomposition must equal the min-cost flow on the
        // same auxiliary graph (uncapacitated (S, w_e) arcs), computed as
        // the LP 1 relaxation by the simplex, at the root and at every
        // node of random walks over the fixings — which also checks that
        // the incrementally re-scanned cheapest-edge cache matches the
        // walk's current state.
        let paper = popgen::PopSpec::paper_10().build();
        let family = popgen::FamilySpec::waxman(30, 10)
            .build(3)
            .expect("valid spec");
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut checked, mut unreachable) = (0, 0);
        for (pop, seed) in [(&paper, 4), (&family, 5)] {
            let ts = popgen::TrafficSpec::default().generate(pop, seed);
            let inst = PpmInstance::from_traffic(&pop.graph, &ts).merged();
            let mut fb = FlowBound::new(inst.num_edges, &inst.traffics);
            for k in [0.3, 0.6, 0.9] {
                let target = k * inst.total_volume();
                let (analytic, routed) = fb.evaluate(target).expect("coverable");
                assert!((routed - target).abs() < 1e-6);
                let lp = lp1_bound(&inst, fb.state(), target).expect("routable");
                assert!(
                    (analytic - lp).abs() < 1e-6,
                    "k = {k}: analytic {analytic} vs LP 1 {lp}"
                );
            }
            for _ in 0..300 {
                // Mostly plunge, sometimes back up to a random depth of
                // the trail; then fix one more edge, as the search does.
                let len = fb.trail().len();
                let depth = match next(10) {
                    _ if len == inst.num_edges => next(len),
                    0 => next(len + 1),
                    _ => len,
                };
                let free: Vec<usize> = (0..inst.num_edges)
                    .filter(|e| !fb.trail()[..depth].contains(e))
                    .collect();
                let e = free[next(free.len())];
                let s = if next(4) == 0 {
                    EdgeState::Installed
                } else {
                    EdgeState::Forbidden
                };
                fb.goto(depth, Some((e, s)));
                let target = [0.3, 0.6, 0.9, 1.0][next(4)] * inst.total_volume();
                let analytic = fb.evaluate(target);
                let lp = lp1_bound(&inst, fb.state(), target);
                match (analytic, lp) {
                    (Some((a, routed)), Some(f)) => {
                        assert!((routed - target).abs() < 1e-6);
                        assert!((a - f).abs() < 1e-6, "analytic {a} vs LP 1 {f}");
                        checked += 1;
                    }
                    (None, None) => unreachable += 1,
                    (a, f) => panic!("analytic {a:?} vs LP 1 {f:?} at {:?}", fb.trail()),
                }
            }
        }
        assert!(
            checked > 100 && unreachable > 10,
            "{checked} / {unreachable}"
        );
    }

    #[test]
    fn zero_k_empty() {
        let inst = fixture_figure3();
        let s = solve_ppm_mecf_bb(&inst, 0.0, &ExactOptions::default()).unwrap();
        assert_eq!(s.device_count(), 0);
    }

    #[test]
    fn node_limit_returns_feasible() {
        let pop = popgen::PopSpec::paper_10().build();
        let ts = popgen::TrafficSpec::default().generate(&pop, 2);
        let inst = crate::instance::PpmInstance::from_traffic(&pop.graph, &ts);
        let opts = ExactOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let s = solve_ppm_mecf_bb(&inst, 0.9, &opts).unwrap();
        assert!(inst.is_feasible(&s.edges, 0.9));
        // With a single node the search cannot be complete unless the
        // incumbent already matched the bound.
        let full = solve_ppm_mecf_bb(&inst, 0.9, &ExactOptions::default()).unwrap();
        assert!(s.device_count() >= full.device_count());
    }
}
