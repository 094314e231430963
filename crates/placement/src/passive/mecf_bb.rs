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
//! knapsack up to `k·V` (see [`FlowBound`]) — instead of by a flow or
//! simplex solve. Every node also yields a feasible incumbent for free:
//! the installed edges plus the free edges carrying flow form a cover.
//!
//! The search is incremental: a depth-first child differs from its parent
//! in one edge, so the per-traffic cheapest-edge choices are cached for
//! the whole search and only the traffics crossing an edge whose state
//! changed are re-scanned at the next node.

use crate::instance::PpmInstance;
use crate::passive::exact::coverage_target;
use crate::passive::{assert_fraction, greedy_incumbent, ExactOptions, PpmSolution};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeState {
    Free,
    Installed,
    Forbidden,
}

/// Exact `PPM(k)` via branch-and-bound with min-cost-flow bounds.
///
/// Same contract as an exact [`crate::solve::SolveRequest::ppm`] solve
/// (which uses the LP 2 MIP): returns `None` when the target is
/// unreachable, and a
/// [`PpmSolution`] with `proven_optimal` reflecting whether the search
/// completed within the node limit. Preferred for large instances (the
/// Figure 8 scale); the MIP route is kept for cross-validation.
pub fn solve_ppm_mecf_bb(inst: &PpmInstance, k: f64, opts: &ExactOptions) -> Option<PpmSolution> {
    assert_fraction(k);
    let target = coverage_target(inst, k)?;
    let merged = inst.merged();
    let ne = merged.num_edges;
    let mut fb = FlowBound::new(&merged);

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
        let (state, flow_edges, loads) = (&fb.state, &fb.with_flow, &fb.loads);
        let bound = frame.installed + (bound_frac - 1e-9).ceil().max(0.0) as usize;
        if bound >= best {
            continue;
        }

        // Free incumbent: installed ∪ free-with-flow edges cover the target
        // (the flow routed `target` units through exactly those arcs).
        if routed + 1e-6 >= target {
            cover.clear();
            cover.extend((0..ne).filter(|&e| state[e] == EdgeState::Installed || flow_edges[e].0));
            prune.run(&fb.volumes, loads, &fb.edge_traffics, &mut cover, target);
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
        let depth = fb.trail.len();
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

/// The min-cost-flow bound of the search's current node, kept
/// incrementally across nodes.
///
/// Because every `(S, w_e)` and `(w_e, w_t)` arc of the auxiliary graph is
/// *uncapacitated*, the min-cost flow decomposes per traffic: a unit of
/// traffic `t` is cheapest through `argmin_{e ∈ p_t, e allowed} cost(e)`
/// with `cost = 0` on installed edges and `1/load(e)` on free ones; the
/// optimal flow is then the fractional knapsack "monitor the cheapest
/// traffics first until `k·V`". This gives the exact same value as running
/// successive shortest paths. (The equivalence is unit-tested against
/// [`mcmf::mincost::min_cost_flow`] below, under random fixings.)
///
/// Per node, [`FlowBound::evaluate`] re-scans only the traffics crossing
/// an edge whose state changed since the previous evaluation —
/// `O(Σ_{e changed} Σ_{t ∋ e} |p_t|)` — and lays the knapsack items out by
/// a counting sort over precomputed cost ranks, `O(T + E)`.
struct FlowBound<'a> {
    traffics: &'a [(f64, Vec<usize>)],
    /// Traffic volumes, and their sum in traffic order.
    volumes: Vec<f64>,
    total: f64,
    loads: Vec<f64>,
    /// Edge → traffics crossing it; also walked by the redundancy prune.
    edge_traffics: Vec<Vec<u32>>,
    /// Knapsack sort key of a free edge: the rank of its cost `1/load`
    /// among all distinct costs and the installed cost `0`, which has
    /// rank 0. Equal costs share a rank, so a stable counting sort by rank
    /// orders the items exactly as a stable comparison sort by cost would.
    rank: Vec<u32>,
    state: Vec<EdgeState>,
    /// The edges fixed on the path to the current node, in branching
    /// order.
    trail: Vec<usize>,
    /// Edges whose state changed since the last evaluation (may repeat).
    dirty: Vec<usize>,
    /// Each traffic's cheapest allowed edge `(cost, edge)` under `state`
    /// (as of the last evaluation), `None` when none is allowed; its sort
    /// key ([`BLOCKED`] for `None`); the traffics per key; and how many
    /// traffics have no allowed edge.
    cheapest: Vec<Option<(f64, usize)>>,
    key: Vec<u32>,
    per_key: Vec<u32>,
    blocked: usize,
    /// Per-traffic stamp de-duplicating re-scans within one evaluation.
    scanned: Vec<u64>,
    epoch: u64,
    /// Counting-sort scratch: per-key slots, and the knapsack items
    /// `(cost, volume, edge)` in cost order.
    slot: Vec<u32>,
    items: Vec<(f64, f64, usize)>,
    /// Per edge: whether it carries flow, and how much.
    with_flow: Vec<(bool, f64)>,
}

/// Sort key of a traffic without an allowed edge.
const BLOCKED: u32 = u32::MAX;

impl<'a> FlowBound<'a> {
    /// The bound at the root: every edge free.
    fn new(inst: &'a PpmInstance) -> Self {
        let ne = inst.num_edges;
        let nt = inst.traffics.len();
        let loads = inst.edge_loads();
        let mut edge_traffics: Vec<Vec<u32>> = vec![Vec::new(); ne];
        for (t, (_, support)) in inst.traffics.iter().enumerate() {
            for &e in support {
                edge_traffics[e].push(t as u32);
            }
        }
        let cost = |e: usize| (loads[e] > 1e-12).then(|| 1.0 / loads[e]);
        let mut costs: Vec<f64> = (0..ne).filter_map(cost).collect();
        costs.push(0.0);
        costs.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
        costs.dedup();
        let rank = (0..ne)
            .map(|e| cost(e).map_or(0, |c| costs.partition_point(|&x| x < c) as u32))
            .collect();
        let volumes: Vec<f64> = inst.traffics.iter().map(|&(v, _)| v).collect();
        let mut fb = Self {
            traffics: &inst.traffics,
            total: volumes.iter().sum(),
            volumes,
            loads,
            edge_traffics,
            rank,
            state: vec![EdgeState::Free; ne],
            trail: Vec::new(),
            dirty: Vec::new(),
            cheapest: vec![None; nt],
            key: vec![BLOCKED; nt],
            per_key: vec![0; costs.len()],
            blocked: nt,
            scanned: vec![0; nt],
            epoch: 0,
            slot: vec![0; costs.len()],
            items: Vec::with_capacity(nt),
            with_flow: vec![(false, 0.0); ne],
        };
        for t in 0..nt {
            fb.rescan(t);
        }
        fb
    }

    /// Moves to the node whose fixings are the first `depth` of the
    /// current trail plus `fix`.
    fn goto(&mut self, depth: usize, fix: Option<(usize, EdgeState)>) {
        while self.trail.len() > depth {
            let e = self.trail.pop().expect("non-empty trail");
            self.state[e] = EdgeState::Free;
            self.dirty.push(e);
        }
        if let Some((e, s)) = fix {
            self.state[e] = s;
            self.trail.push(e);
            self.dirty.push(e);
        }
    }

    /// Re-scans traffic `t`'s support under the current state, moving it
    /// to its new sort key.
    fn rescan(&mut self, t: usize) {
        let best = cheapest_edge(&self.traffics[t].1, &self.state, &self.loads);
        let key = match best {
            None => BLOCKED,
            Some((_, e)) if self.state[e] == EdgeState::Installed => 0,
            Some((_, e)) => self.rank[e],
        };
        match self.key[t] {
            BLOCKED => self.blocked -= 1,
            k => self.per_key[k as usize] -= 1,
        }
        match key {
            BLOCKED => self.blocked += 1,
            k => self.per_key[k as usize] += 1,
        }
        self.cheapest[t] = best;
        self.key[t] = key;
    }

    /// Computes the bound at the current node: the fractional device
    /// bound over free edges and the routed volume, filling `with_flow`;
    /// `None` when the target cannot be routed.
    fn evaluate(&mut self, target: f64) -> Option<(f64, f64)> {
        self.with_flow.fill((false, 0.0));
        if target <= 1e-12 {
            return Some((0.0, 0.0));
        }

        // Re-scan the traffics that cross a changed edge.
        self.epoch += 1;
        while let Some(e) = self.dirty.pop() {
            for i in 0..self.edge_traffics[e].len() {
                let t = self.edge_traffics[e][i] as usize;
                if self.scanned[t] != self.epoch {
                    self.scanned[t] = self.epoch;
                    self.rescan(t);
                }
            }
        }

        let Self {
            volumes,
            state,
            cheapest,
            key,
            per_key,
            slot,
            items,
            with_flow,
            ..
        } = self;
        let coverable: f64 = if self.blocked == 0 {
            self.total
        } else {
            volumes
                .iter()
                .zip(cheapest.iter())
                .filter_map(|(&v, c)| c.map(|_| v))
                .sum()
        };
        if coverable + 1e-6 < target {
            return None;
        }

        // Fractional knapsack: cheapest unit costs first, ties in traffic
        // order (a stable counting sort by cost rank).
        let mut sum = 0;
        for (s, &n) in slot.iter_mut().zip(per_key.iter()) {
            (*s, sum) = (sum, sum + n);
        }
        items.resize(sum as usize, (0.0, 0.0, 0));
        for (t, &k) in key.iter().enumerate() {
            if let Some((c, e)) = cheapest[t] {
                let s = &mut slot[k as usize];
                items[*s as usize] = (c, volumes[t], e);
                *s += 1;
            }
        }
        let mut routed = 0.0f64;
        let mut cost = 0.0f64;
        for &(c, v, e) in items.iter() {
            if routed + 1e-12 >= target {
                break;
            }
            let take = v.min(target - routed);
            routed += take;
            cost += c * take;
            if state[e] == EdgeState::Free {
                with_flow[e].0 = true;
                with_flow[e].1 += take;
            }
        }
        Some((cost, routed))
    }
}

/// The cheapest allowed edge of one traffic's support: cost 0 when
/// installed, `1/load` when free (edges without load are skipped), and
/// forbidden edges skipped. Ties prefer the heavier load so flow
/// consolidates onto fewer edges (better incumbents).
fn cheapest_edge(support: &[usize], state: &[EdgeState], loads: &[f64]) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for &e in support {
        let cost = match state[e] {
            EdgeState::Forbidden => continue,
            EdgeState::Installed => 0.0,
            EdgeState::Free => {
                if loads[e] > 1e-12 {
                    1.0 / loads[e]
                } else {
                    continue;
                }
            }
        };
        let better = match best {
            None => true,
            Some((bc, be)) => {
                cost < bc - 1e-15 || ((cost - bc).abs() <= 1e-15 && loads[e] > loads[be])
            }
        };
        if better {
            best = Some((cost, e));
        }
    }
    best
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

    /// The min-cost flow of the node's auxiliary graph, solved by
    /// successive shortest paths: installed arcs cost nothing, forbidden
    /// arcs (and free arcs of load-less edges, which the bound skips) are
    /// removed, free arcs cost `1/load`. `None` when `target` cannot be
    /// routed.
    fn ssp_bound(inst: &PpmInstance, state: &[EdgeState], target: f64) -> Option<f64> {
        let loads = inst.edge_loads();
        let allowed = |e: usize| match state[e] {
            EdgeState::Installed => true,
            EdgeState::Forbidden => false,
            EdgeState::Free => loads[e] > 1e-12,
        };
        let traffics: Vec<(f64, Vec<usize>)> = inst
            .traffics
            .iter()
            .map(|(v, support)| {
                (
                    *v,
                    support.iter().copied().filter(|&e| allowed(e)).collect(),
                )
            })
            .collect();
        let costs: Vec<f64> = (0..inst.num_edges)
            .map(|e| match state[e] {
                EdgeState::Free if allowed(e) => 1.0 / loads[e],
                _ => 0.0,
            })
            .collect();
        let mut g = mcmf::mecf::build_mecf(inst.num_edges, &traffics, &costs);
        let r = mcmf::mincost::min_cost_flow(&mut g.net, g.source, g.sink, target);
        (r.flow + 1e-6 >= target).then_some(r.cost)
    }

    #[test]
    fn analytic_bound_matches_real_min_cost_flow() {
        // The knapsack decomposition must equal the SSP min-cost flow on
        // the same auxiliary graph (uncapacitated (S, w_e) arcs), at the
        // root and at every node of random walks over the fixings — which
        // also checks that the incrementally re-scanned cheapest-edge
        // cache matches the walk's current state.
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
            let mut fb = FlowBound::new(&inst);
            for k in [0.3, 0.6, 0.9] {
                let target = k * inst.total_volume();
                let (analytic, routed) = fb.evaluate(target).expect("coverable");
                assert!((routed - target).abs() < 1e-6);
                let ssp = ssp_bound(&inst, &fb.state, target).expect("routable");
                assert!(
                    (analytic - ssp).abs() < 1e-6,
                    "k = {k}: analytic {analytic} vs flow {ssp}"
                );
            }
            for _ in 0..300 {
                // Mostly plunge, sometimes back up to a random depth of
                // the trail; then fix one more edge, as the search does.
                let len = fb.trail.len();
                let depth = match next(10) {
                    _ if len == inst.num_edges => next(len),
                    0 => next(len + 1),
                    _ => len,
                };
                let free: Vec<usize> = (0..inst.num_edges)
                    .filter(|e| !fb.trail[..depth].contains(e))
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
                let ssp = ssp_bound(&inst, &fb.state, target);
                match (analytic, ssp) {
                    (Some((a, routed)), Some(f)) => {
                        assert!((routed - target).abs() < 1e-6);
                        assert!((a - f).abs() < 1e-6, "analytic {a} vs flow {f}");
                        checked += 1;
                    }
                    (None, None) => unreachable += 1,
                    (a, f) => panic!("analytic {a:?} vs flow {f:?} at {:?}", fb.trail),
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
