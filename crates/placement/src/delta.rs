//! Delta-aware instances: sweep grids as chains of perturbations.
//!
//! Every sweep of the experiment suite re-solves near-identical `PPM`
//! programs: the coverage target `k` walks a grid over one traffic
//! matrix, a budget grows device by device, a link fails and everything
//! else stays put. [`DeltaInstance`] represents that directly — one
//! mutable instance plus a chain of deltas — instead of a fresh
//! [`PpmInstance`] per grid point, and threads two kinds of reuse through
//! the solves:
//!
//! * **warm-started exact solves** — the chain keeps one minimum-device
//!   (LP 2) and one budget model of the crate's single exact kernel,
//!   `passive::ExactModel` — the one [`solve_instance`] builds and throws
//!   away — built once per instance structure. Successive grid points
//!   only move a right-hand side ([`milp::Model::set_rhs`]) and
//!   re-optimize from the previous point's root basis with the dual
//!   simplex ([`milp::Model::solve_mip`]'s warm start), with
//!   branch-and-bound nodes reusing their parent's basis; volume and link
//!   deltas repair the minimum-device model in place. This module only
//!   decides whether a delta repairs or drops a model; how a model is
//!   built, constrained, seeded, solved and read back is the kernel's;
//! * **delta-aware re-routing** — in routed mode each traffic keeps its
//!   one shortest path `p_t` (the paper's routing), and failing a link
//!   re-runs one Dijkstra ([`netgraph::dijkstra::shortest_path_avoiding`],
//!   banning every failed link) only for the traffics whose path crossed
//!   it. Banning a link cannot shorten any other path, so a path that
//!   avoids it stays shortest; restoring a failed link can, so a restore
//!   re-routes every routed traffic.
//!
//! Results are *identical* to cold solves — the chains reuse bases,
//! never answers: a proven-optimal device count is the unique optimum
//! either way (pinned by `tests/delta_chain.rs` on the seed-0 sweeps
//! against [`solve_instance`] for fresh points and against a fresh
//! chain per point once a base is installed). Both paths run the one
//! serial search, so a budgeted solve stops at the same point on either
//! (pinned by
//! `solve::tests::budgeted_one_shot_and_chained_solves_keep_their_search_bits`).
//! Since both paths share the kernel, "chain equals fresh solve" cannot
//! catch a model-building bug; `tests/proptest_passive.rs` checks both
//! against subset enumeration.
//!
//! [`solve_instance`]: crate::solve::solve_instance

use netgraph::dijkstra::shortest_path_avoiding;
use netgraph::{EdgeId, Graph, GraphError, NodeId};
use popgen::TrafficSet;

use crate::instance::PpmInstance;
use crate::passive::{Deployment, ExactModel};
use crate::solve::{solve_ppm_request, PlacementError, SolveOutcome, SolveRequest};

/// Routed backing for link toggles: the graph and each traffic's
/// endpoints. The ban list is `DeltaInstance::disabled`, and each routed
/// traffic's current path is its support.
#[derive(Debug, Clone)]
struct Routing {
    graph: Graph,
    /// Aligned with the instance's traffics across flow insertions and
    /// removals: each traffic's `(source, target)`, `None` for flows added
    /// with an explicit support, which are not endpoint-routed and never
    /// re-route.
    ends: Vec<Option<(NodeId, NodeId)>>,
}

/// A `PPM` instance under a chain of deltas (see the module docs).
///
/// Structural mutations (flows added/removed, demands scaled, links
/// toggled) invalidate the cached models; coverage-target and budget
/// moves ride the warm-start chain. Every mutation validates its
/// arguments first and rejects bad ones with a [`PlacementError`],
/// mutating nothing — the `popmond` service maps these straight onto its
/// wire errors.
#[derive(Debug, Default)]
pub struct DeltaInstance {
    /// The current *original* (unmerged) instance the solvers' coverage
    /// semantics are defined on. Every mutation keeps its supports sorted
    /// and duplicate-free, as [`PpmInstance::new`] would leave them.
    inst: PpmInstance,
    /// Pre-installed devices (`x_e` fixed to 1 at zero cost — the paper's
    /// incremental-deployment setting).
    installed: Vec<usize>,
    /// Links that cannot host a device (`x_e` fixed to 0).
    disabled: Vec<usize>,
    routing: Option<Routing>,
    /// The minimum-device (LP 2) model: rebuilt when the instance
    /// structure changes, repaired in place after volume-only and
    /// re-route-free link deltas, re-targeted and warm-started along a
    /// grid otherwise — so the warm chain survives what-if streams, not
    /// just `k` grids.
    exact_cache: Option<ExactModel>,
    /// The budget model: it bakes the installed set and the volumes into
    /// its structure, so every mutation drops it.
    budget_cache: Option<ExactModel>,
}

impl DeltaInstance {
    /// Starts a chain from an existing instance (no routed backing: link
    /// failures only disable device placement, they cannot re-route),
    /// normalized as [`PpmInstance::new`] normalizes it.
    ///
    /// # Panics
    ///
    /// Panics where [`PpmInstance::new`] does.
    pub fn from_instance(inst: &PpmInstance) -> Self {
        DeltaInstance {
            inst: PpmInstance::new(inst.num_edges, inst.traffics.clone()),
            ..Default::default()
        }
    }

    /// Starts a *routed* chain: volumes and endpoints come from `ts`, and
    /// every traffic is routed on `graph` by this instance along its
    /// deterministic shortest path. Link failures and restores re-route it
    /// (see [`DeltaInstance::try_fail_link`]).
    ///
    /// # Panics
    ///
    /// Panics when `ts` references nodes outside `graph`.
    pub fn from_traffic(graph: &Graph, ts: &TrafficSet) -> Self {
        Self::try_from_traffic(graph, ts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DeltaInstance::from_traffic`]: a typed error
    /// instead of a panic when `ts` references nodes outside `graph`.
    pub fn try_from_traffic(graph: &Graph, ts: &TrafficSet) -> Result<Self, PlacementError> {
        let mut traffics = Vec::with_capacity(ts.traffics.len());
        let mut ends = Vec::with_capacity(ts.traffics.len());
        for t in &ts.traffics {
            graph
                .check_node(t.src)
                .and_then(|()| graph.check_node(t.dst))
                .map_err(|e| {
                    PlacementError::new("traffic", format!("endpoints outside the graph: {e}"))
                })?;
            traffics.push((t.volume, route(graph, t.src, t.dst, &[])));
            ends.push(Some((t.src, t.dst)));
        }
        Ok(DeltaInstance {
            inst: PpmInstance {
                num_edges: graph.edge_count(),
                traffics,
            },
            routing: Some(Routing {
                graph: graph.clone(),
                ends,
            }),
            ..Default::default()
        })
    }

    /// The current instance (the exact state the chained solves are
    /// answering for), lent without a copy. The borrow ends at the next
    /// mutation; `.clone()` it for a snapshot that must outlive one.
    pub fn instance(&self) -> &PpmInstance {
        &self.inst
    }

    /// Number of traffics currently in the instance.
    pub fn traffic_count(&self) -> usize {
        self.inst.traffics.len()
    }

    /// Number of links in the instance.
    pub fn num_edges(&self) -> usize {
        self.inst.num_edges
    }

    /// The pre-installed device set (sorted, deduplicated).
    pub fn installed(&self) -> &[usize] {
        &self.installed
    }

    /// The currently failed links (sorted).
    pub fn disabled(&self) -> &[usize] {
        &self.disabled
    }

    /// `true` for routed chains (built by [`DeltaInstance::from_traffic`]),
    /// where link toggles re-route the crossing traffics. Unrouted chains
    /// keep every support fixed, which is what lets the resilience scorer
    /// track coverage incrementally.
    pub fn is_routed(&self) -> bool {
        self.routing.is_some()
    }

    /// The current demand volume of flow `t`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range flow index.
    pub fn demand(&self, t: usize) -> f64 {
        self.inst.traffics[t].0
    }

    /// Adds a flow and returns its index.
    ///
    /// When the support matches an existing identical-support group of the
    /// cached exact model (or is uncoverable), the model is repaired in
    /// place — one coverage-row update — and the warm chain survives; a
    /// genuinely new support drops the cache.
    ///
    /// Rejects a negative or non-finite volume and an out-of-range support
    /// edge, mutating nothing.
    pub fn try_add_flow(
        &mut self,
        volume: f64,
        support: Vec<usize>,
    ) -> Result<usize, PlacementError> {
        check_volume(volume)?;
        for &e in &support {
            self.check_link("support", e)?;
        }
        let mut support = support;
        support.sort_unstable();
        support.dedup();
        self.budget_cache = None;
        if let Some(routing) = self.routing.as_mut() {
            // Explicit-support flows are not endpoint-routed: they keep
            // their support verbatim across link toggles.
            routing.ends.push(None);
        }
        self.inst.traffics.push((volume, support));
        self.refresh_exact_volumes();
        Ok(self.inst.traffics.len() - 1)
    }

    /// Removes flow `t` (indices above `t` shift down, as in `Vec::remove`).
    /// A volume-only repair on the cached exact model: the warm chain
    /// survives (the emptied group's coverage weight drops, its row stays).
    pub fn try_remove_flow(&mut self, t: usize) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        self.budget_cache = None;
        if let Some(routing) = self.routing.as_mut() {
            routing.ends.remove(t);
        }
        self.inst.traffics.remove(t);
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Scales the demand of flow `t` by `factor`. A volume-only repair on
    /// the cached exact model: the warm chain survives. Rejects a scaled
    /// volume that is negative or not finite, mutating nothing.
    pub fn try_scale_demand(&mut self, t: usize, factor: f64) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        let v = self.inst.traffics[t].0 * factor;
        if !v.is_finite() || v < 0.0 {
            return Err(PlacementError::new(
                "factor",
                format!("scaled volume must be finite and >= 0, got {v}"),
            ));
        }
        self.budget_cache = None;
        self.inst.traffics[t].0 = v;
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Sets the demand of flow `t` to an absolute `volume`. The exact-reset
    /// sibling of [`DeltaInstance::try_scale_demand`]: scaling back by
    /// `1/f` does not round-trip in floating point, so chains that must
    /// restore a bit-exact base state (the resilience scorer between
    /// scenarios) set the recorded base volume instead. A volume-only
    /// repair on the cached exact model: the warm chain survives.
    pub fn try_set_demand(&mut self, t: usize, volume: f64) -> Result<(), PlacementError> {
        self.check_traffic(t)?;
        check_volume(volume)?;
        self.budget_cache = None;
        self.inst.traffics[t].0 = volume;
        self.refresh_exact_volumes();
        Ok(())
    }

    /// Replaces the pre-installed device set (edges fixed to 1 at zero
    /// cost — the paper's incremental deployment: exact solves count only
    /// new devices, budget solves add at most the budget on top). A
    /// bound/cost repair on the cached exact model: only the edges whose
    /// status changed are touched and the warm chain survives.
    pub fn try_set_installed(&mut self, installed: &[usize]) -> Result<(), PlacementError> {
        for &e in installed {
            self.check_link("installed", e)?;
        }
        let mut new: Vec<usize> = installed.to_vec();
        new.sort_unstable();
        new.dedup();
        let old = std::mem::replace(&mut self.installed, new);
        // The budget model bakes the installed set into its structure.
        self.budget_cache = None;
        if let Some(cache) = self.exact_cache.as_mut() {
            for &e in old.iter().chain(&self.installed) {
                if old.binary_search(&e).is_ok() != self.installed.binary_search(&e).is_ok() {
                    cache.sync_edge(&self.installed, &self.disabled, e);
                }
            }
        }
        Ok(())
    }

    /// Fails link `e`: no device may sit on it — even a pre-installed one
    /// (failure beats installation in both the exact and the budget
    /// solves of [`DeltaInstance::solve`]) — and, in routed mode, every
    /// live routed traffic whose path crossed it is re-routed on the
    /// shortest path avoiding every failed link (traffics disconnected by
    /// the failures keep their volume with an empty support, i.e. become
    /// uncoverable, and no later failure re-routes them). Returns how many
    /// traffics were re-routed: live routed traffics only, never a removed
    /// flow or one added with an explicit support. Failing an
    /// already-failed link re-routes nothing.
    ///
    /// When nothing re-routes (unrouted chains, or no traffic crossed the
    /// link), this is a pure bound repair on the cached exact model —
    /// `x_e` fixed to 0 — and the next solve is an incremental dual-simplex
    /// re-optimization, not a cold rebuild.
    pub fn try_fail_link(&mut self, e: usize) -> Result<usize, PlacementError> {
        self.check_link("link", e)?;
        let rerouted = match self.disabled.binary_search(&e) {
            Ok(_) => 0,
            Err(at) => {
                self.disabled.insert(at, e);
                self.reroute(|support| support.binary_search(&e).is_ok())
            }
        };
        self.relink(e, rerouted);
        Ok(rerouted)
    }

    /// Restores a failed link. In routed mode that is an *improving*
    /// change, which can shorten any path, so every live routed traffic is
    /// re-routed against the remaining failures. Returns the number of
    /// re-routed traffics, counted as [`DeltaInstance::try_fail_link`]
    /// counts them; restoring a live link re-routes nothing. Like
    /// [`DeltaInstance::try_fail_link`], a re-route-free restore keeps the
    /// warm chain alive.
    pub fn try_restore_link(&mut self, e: usize) -> Result<usize, PlacementError> {
        self.check_link("link", e)?;
        let rerouted = match self.disabled.binary_search(&e) {
            Ok(at) => {
                self.disabled.remove(at);
                self.reroute(|_| true)
            }
            Err(_) => 0,
        };
        self.relink(e, rerouted);
        Ok(rerouted)
    }

    /// After a toggle of link `e` that re-routed `rerouted` traffics:
    /// repairs the cached exact model in place when nothing re-routed
    /// (drops it otherwise — the merged group structure is stale).
    fn relink(&mut self, e: usize, rerouted: usize) {
        self.budget_cache = None;
        if rerouted > 0 {
            self.exact_cache = None;
        } else if let Some(cache) = self.exact_cache.as_mut() {
            cache.sync_edge(&self.installed, &self.disabled, e);
        }
    }

    /// Checks that link `e`, given as `field`, exists.
    fn check_link(&self, field: &'static str, e: usize) -> Result<(), PlacementError> {
        if e >= self.inst.num_edges {
            return Err(PlacementError::new(
                field,
                format!(
                    "link {e} out of range (instance has {} links)",
                    self.inst.num_edges
                ),
            ));
        }
        Ok(())
    }

    /// Checks that flow `t` exists.
    fn check_traffic(&self, t: usize) -> Result<(), PlacementError> {
        if t >= self.inst.traffics.len() {
            return Err(PlacementError::new(
                "traffic",
                format!(
                    "traffic {t} out of range (instance has {} traffics)",
                    self.inst.traffics.len()
                ),
            ));
        }
        Ok(())
    }

    /// Re-routes every routed traffic whose support `stale` flags against
    /// the current failure set and returns how many it re-routed; no-op
    /// without routing.
    fn reroute(&mut self, stale: impl Fn(&[usize]) -> bool) -> usize {
        let Some(routing) = self.routing.as_ref() else {
            return 0;
        };
        let banned: Vec<EdgeId> = self.disabled.iter().map(|&e| EdgeId(e as u32)).collect();
        let mut rerouted = 0;
        for (t, ends) in self.inst.traffics.iter_mut().zip(&routing.ends) {
            if let Some((src, dst)) = *ends {
                if stale(&t.1) {
                    t.1 = route(&routing.graph, src, dst, &banned);
                    rerouted += 1;
                }
            }
        }
        rerouted
    }

    /// After a volume-only delta, repairs the cached exact model's coverage
    /// row in place ([`ExactModel::refresh_volumes`]) so its warm basis
    /// survives, or drops it when some traffic's support no longer maps
    /// onto the cached groups (the structural case).
    fn refresh_exact_volumes(&mut self) {
        if let Some(cache) = self.exact_cache.as_mut() {
            if !cache.refresh_volumes(&self.inst) {
                self.exact_cache = None;
            }
        }
    }

    /// Solves a unified request on the chain's current state — the one
    /// solve method of a chain, and the one the `popmond` service routes
    /// through. Exact solves ride the warm chain, on the same kernel and
    /// dispatch as [`crate::solve::solve_instance`] but with the serial
    /// search; greedy solves run the paper's decreasing-load greedy on
    /// the borrowed instance, with the live installed devices' coverage
    /// free and no device on a failed link — the only public form of that
    /// constrained greedy. APM requests are rejected (they need a router
    /// graph; use [`crate::solve::solve_apm`]).
    ///
    /// With [`SolveRequest::work_budget`] set the exact solves are
    /// *anytime*: a tripped budget yields [`SolveOutcome::Degraded`] with
    /// the incumbent or the matching greedy (constrained or budget)
    /// fallback on the same constrained state.
    pub fn solve(&mut self, req: &SolveRequest) -> Result<SolveOutcome, PlacementError> {
        let at = Deployment {
            inst: &self.inst,
            installed: &self.installed,
            disabled: &self.disabled,
        };
        solve_ppm_request(req, at, &mut self.exact_cache, &mut self.budget_cache)
    }
}

/// Rejects a negative or non-finite volume.
fn check_volume(volume: f64) -> Result<(), PlacementError> {
    if !volume.is_finite() || volume < 0.0 {
        return Err(PlacementError::new(
            "volume",
            format!("volume must be finite and >= 0, got {volume}"),
        ));
    }
    Ok(())
}

/// The sorted support of the shortest `src`→`dst` path avoiding `banned`
/// (empty when the failures disconnect the pair). The endpoints and the
/// banned links must belong to `graph`.
fn route(graph: &Graph, src: NodeId, dst: NodeId, banned: &[EdgeId]) -> Vec<usize> {
    match shortest_path_avoiding(graph, src, dst, &[], banned) {
        Ok(p) => {
            let mut s: Vec<usize> = p.edges().iter().map(|e| e.index()).collect();
            s.sort_unstable();
            s.dedup();
            s
        }
        Err(GraphError::Unreachable { .. }) => Vec::new(),
        Err(e) => panic!("routing on checked ids failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixture_figure3;
    use crate::passive::PpmSolution;
    use crate::solve::exact_ppm;

    /// The sorted support of a fresh shortest `src`→`dst` route avoiding
    /// every link in `failed` (empty when disconnected): the routed
    /// chains' ground truth.
    fn fresh_support(graph: &Graph, src: NodeId, dst: NodeId, failed: &[usize]) -> Vec<usize> {
        let banned: Vec<EdgeId> = failed.iter().map(|&e| EdgeId(e as u32)).collect();
        match netgraph::dijkstra::shortest_path_avoiding(graph, src, dst, &[], &banned) {
            Ok(p) => {
                let mut s: Vec<usize> = p.edges().iter().map(|e| e.index()).collect();
                s.sort_unstable();
                s.dedup();
                s
            }
            Err(_) => Vec::new(),
        }
    }

    /// An exact `PPM(k)` solve on the chain with default knobs.
    fn chain_ppm(delta: &mut DeltaInstance, k: f64) -> Option<PpmSolution> {
        delta.solve(&SolveRequest::ppm(k)).unwrap().into_ppm()
    }

    /// A budget solve on the chain with default knobs.
    fn chain_budget(delta: &mut DeltaInstance, devices: usize) -> PpmSolution {
        let out = delta.solve(&SolveRequest::budget(devices)).unwrap();
        out.into_budget().expect("budget request")
    }

    /// A fresh chain on `inst` with `installed` in place: its first solve
    /// builds the model cold, like a one-shot solve.
    fn fresh_chain(inst: &PpmInstance, installed: &[usize]) -> DeltaInstance {
        let mut delta = DeltaInstance::from_instance(inst);
        delta.try_set_installed(installed).unwrap();
        delta
    }

    /// Minimum devices reaching `k` with `installed` pinned, cold.
    fn fresh_incremental(inst: &PpmInstance, k: f64, installed: &[usize]) -> Option<PpmSolution> {
        chain_ppm(&mut fresh_chain(inst, installed), k)
    }

    /// Maximum coverage of `devices` new devices on top of `installed`,
    /// cold.
    fn fresh_budget(inst: &PpmInstance, devices: usize, installed: &[usize]) -> PpmSolution {
        chain_budget(&mut fresh_chain(inst, installed), devices)
    }

    #[test]
    fn incremental_respects_installed() {
        let inst = fixture_figure3();
        // Pre-install the greedy-bait heavy link 0; completing to k=1 needs
        // 2 more (links 3/4 or 1/2 pick up the weight-1 traffics).
        let s = fresh_incremental(&inst, 1.0, &[0]).unwrap();
        assert!(s.edges.contains(&0), "installed device must stay");
        assert_eq!(
            s.device_count(),
            3,
            "two new devices on top of the installed one"
        );
        assert!(inst.is_feasible(&s.edges, 1.0));
    }

    #[test]
    fn incremental_rejects_bad_edge() {
        let mut delta = DeltaInstance::from_instance(&fixture_figure3());
        let err = delta.try_set_installed(&[99]).unwrap_err();
        assert_eq!(err.field, "installed");
        assert!(err.message.contains("out of range"), "{err}");
        assert!(
            delta.installed().is_empty(),
            "a rejected set changes nothing"
        );
    }

    #[test]
    fn budget_zero_covers_installed_only() {
        let inst = fixture_figure3();
        let s = fresh_budget(&inst, 0, &[0]);
        assert_eq!(s.edges, vec![0]);
        assert_eq!(s.coverage, 4.0);
    }

    #[test]
    fn budget_one_fresh_takes_heaviest() {
        let inst = fixture_figure3();
        let s = fresh_budget(&inst, 1, &[]);
        assert_eq!(s.edges.len(), 1);
        assert_eq!(
            s.coverage, 4.0,
            "best single edge covers the two weight-2 traffics"
        );
    }

    #[test]
    fn budget_two_fresh_covers_everything() {
        let inst = fixture_figure3();
        let s = fresh_budget(&inst, 2, &[]);
        assert_eq!(s.coverage, 6.0);
        assert!((s.coverage_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_monotone() {
        let inst = fixture_figure3();
        let mut last = 0.0;
        for b in 0..=3 {
            let s = fresh_budget(&inst, b, &[]);
            assert!(s.coverage + 1e-9 >= last);
            last = s.coverage;
        }
    }

    #[test]
    fn expected_gain_decreases_with_base() {
        let inst = fixture_figure3();
        // The paper's expected gain of buying one device: the budget
        // optimum on top of the base minus the base's own coverage.
        let gain = |installed: &[usize]| {
            fresh_budget(&inst, 1, installed).coverage - inst.coverage(installed)
        };
        assert_eq!(gain(&[]), 4.0);
        // With edge 0 installed, one more device adds at most 2.0 (link 1
        // adds t2 (1.0) with t0 already covered; link 2 likewise).
        let on_top = gain(&[0]);
        assert!(on_top <= 2.0 + 1e-9);
        assert!(on_top > 0.0);
    }

    #[test]
    fn budget_answers_list_only_devices_that_raise_coverage() {
        // The budget model gives devices no cost, so its optimum may also
        // switch on link 0, which covers nothing links 1, 3 and 4 miss.
        let inst = PpmInstance::new(
            5,
            vec![
                (3.0, vec![]),
                (0.0, vec![1, 3]),
                (5.0, vec![0, 4]),
                (5.0, vec![0, 1]),
                (0.0, vec![]),
                (0.0, vec![4]),
                (4.0, vec![1, 4]),
            ],
        );
        let s = fresh_budget(&inst, 3, &[3]);
        assert_eq!(s.edges, vec![1, 3, 4]);
        assert_eq!(s.coverage, 14.0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn chain_matches_one_shot_on_figure3() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        for k in [0.5, 0.75, 0.9, 1.0] {
            let chained = chain_ppm(&mut delta, k).unwrap();
            let fresh = exact_ppm(&inst, k).unwrap();
            assert_eq!(chained.device_count(), fresh.device_count(), "k = {k}");
            assert!(inst.is_feasible(&chained.edges, k));
            assert!(chained.proven_optimal);
        }
    }

    #[test]
    fn chain_matches_incremental_with_installed_base() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&[0]).unwrap();
        for k in [0.75, 1.0] {
            let chained = chain_ppm(&mut delta, k).unwrap();
            let fresh = fresh_incremental(&inst, k, &[0]).unwrap();
            assert_eq!(chained.device_count(), fresh.device_count(), "k = {k}");
            assert!(chained.edges.contains(&0), "installed device must stay");
        }
    }

    #[test]
    fn budget_chain_matches_one_shot() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        for b in 0..=3 {
            let chained = chain_budget(&mut delta, b);
            let fresh = fresh_budget(&inst, b, &[]);
            assert!(
                (chained.coverage - fresh.coverage).abs() < 1e-9,
                "budget = {b}"
            );
        }
    }

    #[test]
    fn structural_deltas_invalidate_and_stay_exact() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let _ = chain_ppm(&mut delta, 1.0).unwrap();

        // Scale one demand, add a flow, remove a flow — after each delta
        // the chained answer must equal the one-shot answer on the
        // materialized instance.
        delta.try_scale_demand(0, 3.0).unwrap();
        let t = delta.try_add_flow(2.5, vec![3, 4]).unwrap();
        let a = chain_ppm(&mut delta, 0.9).unwrap();
        let fresh = exact_ppm(delta.instance(), 0.9).unwrap();
        assert_eq!(a.device_count(), fresh.device_count());

        delta.try_remove_flow(t).unwrap();
        let b = chain_ppm(&mut delta, 0.9).unwrap();
        let fresh = exact_ppm(delta.instance(), 0.9).unwrap();
        assert_eq!(b.device_count(), fresh.device_count());
    }

    #[test]
    fn disabled_link_is_never_selected() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let free = chain_ppm(&mut delta, 1.0).unwrap();
        assert_eq!(free.edges, vec![1, 2]);
        // Unrouted mode: failing link 1 only forbids the device there.
        delta.try_fail_link(1).unwrap();
        let constrained = chain_ppm(&mut delta, 1.0).unwrap();
        assert!(!constrained.edges.contains(&1));
        assert!(delta.instance().is_feasible(&constrained.edges, 1.0));
        assert!(constrained.device_count() >= free.device_count());
    }

    #[test]
    fn failing_an_installed_link_kills_its_device_in_both_solvers() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        delta.try_set_installed(&[1]).unwrap();
        delta.try_fail_link(1).unwrap();
        // Exact: the dead device is gone and the cover must rebuild
        // around it.
        let exact = chain_ppm(&mut delta, 1.0).unwrap();
        assert!(
            !exact.edges.contains(&1),
            "failed link must not host a device"
        );
        assert!(inst.is_feasible(&exact.edges, 1.0));
        // Budget: same precedence — with budget 0 nothing can be placed
        // and the dead installed device contributes no coverage.
        let b = chain_budget(&mut delta, 0);
        assert!(
            b.edges.is_empty(),
            "dead installed device must not count, got {:?}",
            b.edges
        );
        assert_eq!(b.coverage, 0.0);
    }

    #[test]
    fn volume_deltas_keep_the_warm_chain_alive() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let _ = chain_ppm(&mut delta, 1.0).unwrap();
        assert!(delta.exact_cache.is_some());

        // Scale, re-add an existing support group, remove — all volume-only
        // repairs: the cached model must survive every one of them.
        delta.try_scale_demand(0, 2.5).unwrap();
        assert!(delta.exact_cache.is_some(), "scale must repair in place");
        let support = delta.inst.traffics[1].1.clone();
        let t = delta.try_add_flow(1.5, support).unwrap();
        assert!(
            delta.exact_cache.is_some(),
            "existing-group add_flow must repair in place"
        );
        delta.try_remove_flow(t).unwrap();
        assert!(delta.exact_cache.is_some(), "remove must repair in place");

        // And the repaired model answers exactly like a cold solve.
        let chained = chain_ppm(&mut delta, 0.9).unwrap();
        let fresh = exact_ppm(delta.instance(), 0.9).unwrap();
        assert_eq!(chained.device_count(), fresh.device_count());
        assert!(delta.instance().is_feasible(&chained.edges, 0.9));

        // A genuinely new support group is structural: cache dropped.
        delta.try_add_flow(1.0, vec![0, 3]).unwrap();
        assert!(
            delta.exact_cache.is_none(),
            "new support group must drop the cache"
        );
        let chained = chain_ppm(&mut delta, 0.9).unwrap();
        let fresh = exact_ppm(delta.instance(), 0.9).unwrap();
        assert_eq!(chained.device_count(), fresh.device_count());
    }

    #[test]
    fn unrouted_link_toggles_keep_the_warm_chain_alive() {
        let inst = fixture_figure3();
        let mut delta = DeltaInstance::from_instance(&inst);
        let _ = chain_ppm(&mut delta, 1.0).unwrap();

        // Unrouted fail/restore never re-routes: pure bound repairs.
        delta.try_fail_link(1).unwrap();
        assert!(delta.exact_cache.is_some(), "fail must repair in place");
        let a = chain_ppm(&mut delta, 1.0).unwrap();
        let fresh = exact_ppm(delta.instance(), 1.0).unwrap();
        // The fresh solve has no disabled set; compare against the chained
        // invariant instead: feasible, link excluded, optimal.
        assert!(!a.edges.contains(&1));
        assert!(delta.instance().is_feasible(&a.edges, 1.0));
        assert!(a.device_count() >= fresh.device_count());

        delta.try_restore_link(1).unwrap();
        assert!(delta.exact_cache.is_some(), "restore must repair in place");
        let b = chain_ppm(&mut delta, 1.0).unwrap();
        let cold = exact_ppm(delta.instance(), 1.0).unwrap();
        assert_eq!(b.device_count(), cold.device_count());

        // set_installed is a cost/bound repair on the changed edges only.
        delta.try_set_installed(&[0]).unwrap();
        assert!(
            delta.exact_cache.is_some(),
            "set_installed must repair in place"
        );
        let c = chain_ppm(&mut delta, 1.0).unwrap();
        let cold = fresh_incremental(delta.instance(), 1.0, &[0]).unwrap();
        assert_eq!(c.device_count(), cold.device_count());
        assert!(c.edges.contains(&0));
        delta.try_set_installed(&[]).unwrap();
        let d = chain_ppm(&mut delta, 1.0).unwrap();
        let cold = exact_ppm(delta.instance(), 1.0).unwrap();
        assert_eq!(d.device_count(), cold.device_count());
    }

    #[test]
    fn long_mixed_chain_tracks_cold_solves_exactly() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::small().build();
        let inst = {
            let ts = TrafficSpec::default().generate(&pop, 7);
            PpmInstance::from_traffic(&pop.graph, &ts)
        };
        let mut delta = DeltaInstance::from_instance(&inst);
        let k = 0.8;
        let _ = chain_ppm(&mut delta, k);

        // A what-if stream: every answer must equal the cold solve on the
        // materialized instance (the service's determinism contract).
        let m = inst.num_edges;
        type Mutation = Box<dyn Fn(&mut DeltaInstance)>;
        let script: Vec<Mutation> = vec![
            Box::new(|d| {
                d.try_fail_link(0).unwrap();
            }),
            Box::new(|d| d.try_scale_demand(2, 1.75).unwrap()),
            Box::new(move |d| {
                d.try_fail_link(m - 1).unwrap();
            }),
            Box::new(|d| {
                d.try_restore_link(0).unwrap();
            }),
            Box::new(|d| d.try_set_installed(&[1, 3]).unwrap()),
            Box::new(|d| d.try_scale_demand(0, 0.25).unwrap()),
            Box::new(move |d| {
                d.try_restore_link(m - 1).unwrap();
            }),
            Box::new(|d| d.try_set_installed(&[]).unwrap()),
        ];
        for (step, mutate) in script.iter().enumerate() {
            mutate(&mut delta);
            let chained = chain_ppm(&mut delta, k);
            // The cold reference replays the same mutation prefix on a
            // fresh chain, so its first solve builds the model from
            // scratch — the service-vs-batch contract in miniature.
            let mut replay = DeltaInstance::from_instance(&inst);
            for m in &script[..=step] {
                m(&mut replay);
            }
            let cold = chain_ppm(&mut replay, k);
            // Warm and cold may land on different optimal vertices, so the
            // contract is the optimum value plus feasibility — byte-equal
            // placements are only promised for identical call sequences
            // (the service-vs-batch harness checks that stronger form).
            match (chained, cold) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.device_count(), b.device_count(), "step {step}");
                    let snapshot = delta.instance();
                    assert!(snapshot.is_feasible(&a.edges, k), "step {step}");
                    assert!(snapshot.is_feasible(&b.edges, k), "step {step}");
                }
                (None, None) => {}
                (a, b) => panic!("step {step}: chained {a:?} vs cold {b:?}"),
            }
            // A cold anchor with no mutation history: a fresh chain on the
            // materialized instance, where no link is failed.
            if delta.disabled.is_empty() {
                let installed = delta.installed.clone();
                if let Some(b) = fresh_incremental(delta.instance(), k, &installed) {
                    let a = chain_ppm(&mut delta, k).unwrap();
                    assert_eq!(a.device_count(), b.device_count(), "step {step}");
                }
            }
        }
        assert!(
            delta.exact_cache.is_some(),
            "the whole unrouted chain must ride one cached model"
        );
    }

    #[test]
    fn every_mutation_keeps_the_lent_instance_normalized() {
        use popgen::{PopSpec, TrafficSpec};

        // The lent instance skips `PpmInstance::new`, so every mutation
        // must leave supports sorted and duplicate-free on its own.
        let pop = PopSpec::small().build();
        let ts = TrafficSpec::default().generate(&pop, 5);
        let chains = [
            DeltaInstance::from_traffic(&pop.graph, &ts),
            DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts)),
        ];
        for mut delta in chains {
            let check = |d: &DeltaInstance, after: &str| {
                let lent = d.instance();
                let normalized = PpmInstance::new(lent.num_edges, lent.traffics.clone());
                let routed = d.is_routed();
                assert_eq!(lent.num_edges, normalized.num_edges, "{after}, {routed}");
                assert_eq!(lent.traffics, normalized.traffics, "{after}, {routed}");
            };
            let m = delta.num_edges();
            let heavy = delta.instance().traffics[0].1[0];
            delta
                .try_add_flow(2.0, vec![m - 1, 0, m - 1, 2, 0])
                .unwrap();
            check(&delta, "add_flow");
            delta.try_fail_link(heavy).unwrap();
            check(&delta, "fail_link");
            delta.try_scale_demand(1, 2.5).unwrap();
            check(&delta, "scale_demand");
            delta.try_set_demand(2, 0.0).unwrap();
            check(&delta, "set_demand");
            delta.try_set_installed(&[3, 1, 3]).unwrap();
            check(&delta, "set_installed");
            delta.try_remove_flow(0).unwrap();
            check(&delta, "remove_flow");
            delta.try_restore_link(heavy).unwrap();
            check(&delta, "restore_link");
        }
    }

    #[test]
    fn routed_mode_reroutes_only_crossing_traffics() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 0);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);

        // Unfailed routed supports must match the generator's own routing.
        let fresh = PpmInstance::from_traffic(&pop.graph, &ts);
        let routed = delta.instance();
        assert_eq!(routed.num_edges, fresh.num_edges);
        for (a, b) in routed.traffics.iter().zip(&fresh.traffics) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1, b.1, "deterministic tie-breaking must agree");
        }

        // Fail the most loaded link: only its crossing traffics re-route.
        let loads = fresh.edge_loads();
        let heavy = (0..loads.len())
            .max_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .unwrap();
        let crossing = fresh
            .traffics
            .iter()
            .filter(|(_, s)| s.contains(&heavy))
            .count();
        let recomputed = delta.try_fail_link(heavy).unwrap();
        assert_eq!(
            recomputed, crossing,
            "exactly the crossing traffics re-route"
        );
        let after = delta.instance();
        assert!(after.traffics.iter().all(|(_, s)| !s.contains(&heavy)));

        // And the graph-level ground truth: every re-routed support is the
        // shortest path avoiding the failed link.
        for (i, t) in ts.traffics.iter().enumerate() {
            let want = fresh_support(&pop.graph, t.src, t.dst, &[heavy]);
            assert_eq!(after.traffics[i].1, want, "traffic {i}");
        }
    }

    #[test]
    fn routed_flow_churn_keeps_pair_alignment() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::small().build();
        let ts = TrafficSpec::default().generate(&pop, 3);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        assert!(delta.traffic_count() >= 3, "fixture too small for churn");

        // Remove a middle flow, then add one with an explicit support;
        // the surviving endpoint-routed traffics must keep re-routing
        // against their own endpoints (an earlier design indexed a
        // separate per-pair route cache with post-churn traffic indices).
        delta.try_remove_flow(1).unwrap();
        let added = delta.try_add_flow(4.0, vec![0, 1]).unwrap();
        let mut endpoints: Vec<_> = ts.traffics.iter().map(|t| (t.src, t.dst)).collect();
        endpoints.remove(1);

        let heavy = delta.instance().traffics[0].1[0];
        delta.try_fail_link(heavy).unwrap();
        let after = delta.instance();
        assert_eq!(
            after.traffics[added].1,
            vec![0, 1],
            "explicit-support flows never re-route"
        );
        for (i, &(src, dst)) in endpoints.iter().enumerate() {
            assert_eq!(
                after.traffics[i].1,
                fresh_support(&pop.graph, src, dst, &[heavy]),
                "routed traffic {i} after churn + failure"
            );
        }

        // Restoring is an improving change (full recompute): alignment
        // must survive that path too.
        delta.try_restore_link(heavy).unwrap();
        let restored = delta.instance();
        for (i, &(src, dst)) in endpoints.iter().enumerate() {
            assert_eq!(
                restored.traffics[i].1,
                fresh_support(&pop.graph, src, dst, &[]),
                "routed traffic {i} after restore"
            );
        }
        assert_eq!(restored.traffics[added].1, vec![0, 1]);
    }

    #[test]
    fn delta_matches_full_recompute_as_bans_grow() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 2);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        // Fail links one by one, each on some live route: after every
        // failure each support must equal a fresh route against the whole
        // failure set, while only the crossing traffics re-route.
        for step in 0..4 {
            let inst = delta.instance();
            let e = inst.traffics[7 * step].1[0];
            let crossing = inst.traffics.iter().filter(|(_, s)| s.contains(&e)).count();
            let rerouted = delta.try_fail_link(e).unwrap();
            assert_eq!(rerouted, crossing, "step {step}");
            assert!(rerouted < delta.traffic_count(), "step {step}: no reuse");
            let after = delta.instance();
            for (i, t) in ts.traffics.iter().enumerate() {
                let want = fresh_support(&pop.graph, t.src, t.dst, delta.disabled());
                assert_eq!(after.traffics[i].1, want, "step {step}, traffic {i}");
            }
        }
        assert_eq!(delta.disabled().len(), 4, "four distinct links failed");
    }

    #[test]
    fn disconnection_is_cached_and_correct() {
        use popgen::Traffic;

        // Edge 0 is the only link to n[1]; edge 1 the only one to n[2].
        let mut b = netgraph::GraphBuilder::new();
        let n = b.add_nodes("r", 3);
        b.add_edge(n[0], n[1], 1.0);
        b.add_edge(n[0], n[2], 1.0);
        let g = b.build();
        let traffic = |dst: NodeId| Traffic {
            src: n[0],
            dst,
            volume: 1.0,
            path: netgraph::Path::from_nodes(&g, vec![n[0], dst]).unwrap(),
        };
        let ts = TrafficSet {
            traffics: vec![traffic(n[1]), traffic(n[2])],
        };
        let mut delta = DeltaInstance::from_traffic(&g, &ts);
        assert_eq!(delta.try_fail_link(0).unwrap(), 1);
        assert!(delta.instance().traffics[0].1.is_empty(), "disconnected");
        assert_eq!(delta.instance().traffics[1].1, vec![1]);
        // A further failure must neither resurrect nor count the dead
        // traffic: only the one crossing edge 1 re-routes.
        assert_eq!(delta.try_fail_link(1).unwrap(), 1);
        assert!(delta.instance().traffics[0].1.is_empty());
        assert!(delta.instance().traffics[1].1.is_empty());
        // Failing an already-failed link re-routes nothing.
        assert_eq!(delta.try_fail_link(0).unwrap(), 0);
    }

    #[test]
    fn lifting_a_ban_recomputes_everything_and_stays_exact() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 4);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        let a = delta.instance().traffics[0].1[0];
        delta.try_fail_link(a).unwrap();
        let b = delta.instance().traffics[1].1[0];
        delta.try_fail_link(b).unwrap();
        // An explicit-support flow never re-routes, so it is not counted.
        let added = delta.try_add_flow(1.0, vec![a]).unwrap();

        // Restoring a failed link may shorten any route: every routed
        // traffic re-routes, against the failures that remain.
        assert_eq!(delta.try_restore_link(a).unwrap(), ts.traffics.len());
        for (i, t) in ts.traffics.iter().enumerate() {
            let want = fresh_support(&pop.graph, t.src, t.dst, &[b]);
            assert_eq!(delta.instance().traffics[i].1, want, "traffic {i}");
        }
        assert_eq!(delta.instance().traffics[added].1, vec![a]);
        // Restoring a live link re-routes nothing.
        assert_eq!(delta.try_restore_link(a).unwrap(), 0);
    }

    #[test]
    fn removed_flows_are_not_counted_as_rerouted() {
        use popgen::{PopSpec, TrafficSpec};

        let pop = PopSpec::paper_10().build();
        let ts = TrafficSpec::default().generate(&pop, 0);
        let mut delta = DeltaInstance::from_traffic(&pop.graph, &ts);
        let e = delta.instance().traffics[0].1[0];
        delta.try_fail_link(e).unwrap();
        delta.try_remove_flow(0).unwrap();
        let live = delta.traffic_count();
        assert_eq!(live, 131);
        // The re-route counts cover live routed traffics only: a restore
        // re-routes all of them, and a failure the ones crossing it.
        assert_eq!(delta.try_restore_link(e).unwrap(), live);
        let crossing = delta
            .instance()
            .traffics
            .iter()
            .filter(|(_, s)| s.contains(&e))
            .count();
        assert_eq!(crossing, 15);
        assert_eq!(delta.try_fail_link(e).unwrap(), crossing);
    }
}
