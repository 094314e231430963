//! The Minimum Edge Cost Flow (MECF) auxiliary graph of the paper's
//! Section 4.3 (Figure 5), and its min-cost-flow relaxation.
//!
//! Construction (Theorem 2): given edges `E = 0..num_edges` and weighted
//! traffics `D`, each a volume plus the edges its path traverses,
//!
//! 1. one node `w_e` per edge `e ∈ E`, one node `w_t` per traffic `t ∈ D`,
//!    plus a source `S` and sink `T`;
//! 2. arcs `(S, w_e)` of unbounded capacity — these are the *fixed-charge*
//!    arcs whose binary cost encodes installing a device on `e`;
//! 3. arcs `(w_e, w_t)` of unbounded capacity and zero cost whenever the
//!    path of traffic `t` uses edge `e`;
//! 4. arcs `(w_t, T)` of capacity `v_t` (the traffic volume) and zero cost.
//!
//! Routing `k · Σ v_t` units from `S` to `T` while paying for each used
//! `(S, w_e)` arc solves `PPM(k)`. Under edge fixings its linear
//! relaxation is a plain min-cost flow:
//!
//! * an edge fixed **installed** contributes a free arc `(S, w_e)`;
//! * an edge fixed **forbidden** loses its arc;
//! * a free edge keeps cost `1/load(e)` per routed unit, so a fully used
//!   free edge costs exactly one device.
//!
//! [`FlowBound`] computes that flow in closed form rather than building
//! the graph. Traffics are plain index lists, so this crate depends on no
//! graph or traffic crate.

/// The fixing of one edge in the relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Undecided: the `(S, w_e)` arc costs `1/load(e)` per unit.
    Free,
    /// A device is installed: the arc is free.
    Installed,
    /// No device: the arc is removed.
    Forbidden,
}

/// The min-cost flow of the relaxation at the current edge fixings, kept
/// incrementally across fixings.
///
/// Because every `(S, w_e)` and `(w_e, w_t)` arc of the auxiliary graph is
/// *uncapacitated*, the min-cost flow decomposes per traffic: a unit of
/// traffic `t` is cheapest through `argmin_{e ∈ p_t, e allowed} cost(e)`
/// with `cost = 0` on installed edges and `1/load(e)` on free ones; the
/// optimal flow is then the fractional knapsack "monitor the cheapest
/// traffics first until `k·V`". This is the optimum of the flow problem,
/// not an estimate: `placement`'s `mecf_bb` tests check it against the
/// simplex optimum of the relaxed arc-path LP under random fixings.
///
/// The fixings form a trail, as in a depth-first search: [`goto`] pops
/// back to a prefix of it and fixes one more edge. Per call,
/// [`evaluate`] re-scans only the traffics crossing an edge whose state
/// changed since the previous evaluation —
/// `O(Σ_{e changed} Σ_{t ∋ e} |p_t|)` — and lays the knapsack items out by
/// a counting sort over precomputed cost ranks, `O(T + E)`.
///
/// [`goto`]: FlowBound::goto
/// [`evaluate`]: FlowBound::evaluate
pub struct FlowBound<'a> {
    traffics: &'a [(f64, Vec<usize>)],
    /// Traffic volumes, and their sum in traffic order.
    volumes: Vec<f64>,
    total: f64,
    loads: Vec<f64>,
    /// Edge → traffics crossing it.
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
    /// Per free edge: whether the knapsack routed a traffic through it,
    /// and the volume it carries.
    with_flow: Vec<(bool, f64)>,
}

/// Sort key of a traffic without an allowed edge.
const BLOCKED: u32 = u32::MAX;

impl<'a> FlowBound<'a> {
    /// The relaxation of `num_edges` edges and the `(volume, edges
    /// traversed)` traffics at the root: every edge free.
    ///
    /// # Panics
    ///
    /// Panics when a traffic references an edge `≥ num_edges`.
    pub fn new(num_edges: usize, traffics: &'a [(f64, Vec<usize>)]) -> Self {
        let ne = num_edges;
        let nt = traffics.len();
        let mut loads = vec![0.0; ne];
        let mut edge_traffics: Vec<Vec<u32>> = vec![Vec::new(); ne];
        for (t, (v, support)) in traffics.iter().enumerate() {
            for &e in support {
                assert!(e < ne, "traffic {t} references edge {e} out of range");
                loads[e] += v;
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
        let volumes: Vec<f64> = traffics.iter().map(|&(v, _)| v).collect();
        let mut fb = Self {
            traffics,
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
    #[inline]
    pub fn goto(&mut self, depth: usize, fix: Option<(usize, EdgeState)>) {
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

    /// Routes `target` units at the current fixings: returns the flow's
    /// cost (the fractional device count over free edges) and the routed
    /// volume, and fills [`with_flow`](Self::with_flow); `None` when the
    /// target cannot be routed.
    ///
    /// Inlined into callers in other crates: the branch-and-bound calls it
    /// once per node, and out of line fig8's search spent about 17% more
    /// CPU time (release build, 2-core x86-64 VM).
    #[inline]
    pub fn evaluate(&mut self, target: f64) -> Option<(f64, f64)> {
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

    /// Per edge, as of the last [`evaluate`](Self::evaluate): whether the
    /// knapsack routed a traffic through it, and how much volume it
    /// carries. Only free edges are recorded. The flag is also set by a
    /// zero-volume traffic, so an edge can be flagged with no flow.
    pub fn with_flow(&self) -> &[(bool, f64)] {
        &self.with_flow
    }

    /// The current state of every edge.
    pub fn state(&self) -> &[EdgeState] {
        &self.state
    }

    /// The edges fixed on the path to the current node, in fixing order.
    pub fn trail(&self) -> &[usize] {
        &self.trail
    }

    /// Per-edge load: the summed volume of the traffics crossing it.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Per-traffic volume.
    pub fn volumes(&self) -> &[f64] {
        &self.volumes
    }

    /// Edge → the traffics crossing it, in traffic order.
    pub fn edge_traffics(&self) -> &[Vec<u32>] {
        &self.edge_traffics
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 3 counter-example: four traffics, two of weight 2
    /// sharing a heavy link of load 4, and two side links of load 3 that
    /// together cover everything.
    ///
    /// Edges: 0 = heavy (t0, t1), 1 = left (t0, t2), 2 = right (t1, t3),
    /// 3, 4 = light tails (t2), (t3).
    fn figure3_like() -> Vec<(f64, Vec<usize>)> {
        vec![
            (2.0, vec![0, 1]),
            (2.0, vec![0, 2]),
            (1.0, vec![1, 3]),
            (1.0, vec![2, 4]),
        ]
    }

    #[test]
    fn mecf_graph_shape() {
        // The auxiliary graph as the bound stores it: one (w_e, w_t) arc
        // per support entry, (w_t, T) capacities carrying the volumes, and
        // every edge free at the root.
        let inst = figure3_like();
        let fb = FlowBound::new(5, &inst);
        assert_eq!(fb.edge_traffics().len(), 5);
        let arcs: usize = fb.edge_traffics().iter().map(Vec::len).sum();
        assert_eq!(arcs, 8);
        assert_eq!(fb.edge_traffics()[0], vec![0, 1]);
        assert_eq!(fb.volumes(), &[2.0, 2.0, 1.0, 1.0]);
        assert_eq!(fb.loads(), &[4.0, 3.0, 3.0, 1.0, 1.0]);
        assert!(fb.state().iter().all(|&s| s == EdgeState::Free));
        assert!(fb.trail().is_empty());
    }

    #[test]
    fn zero_k_selects_nothing() {
        // PPM(0) routes `0 · Σ v_t` units, so no (S, w_e) arc carries flow
        // and no device is selected.
        let inst = figure3_like();
        let mut fb = FlowBound::new(5, &inst);
        assert_eq!(fb.evaluate(0.0), Some((0.0, 0.0)));
        assert!(fb.with_flow().iter().all(|&f| f == (false, 0.0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edge_reference() {
        FlowBound::new(1, &[(1.0, vec![3])]);
    }
}
