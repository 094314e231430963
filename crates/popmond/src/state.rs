//! The resident service: the instance cache, warm delta chains, and
//! per-instance solve coalescing.
//!
//! [`Service`] is the whole daemon behind one thread-safe entry point,
//! [`Service::handle_line`]: the TCP layer ([`crate::server`]) is a thin
//! transport around it, and the differential test harness drives the same
//! entry point directly — so "service response" and "batch replay
//! response" are produced by the same code over *different solver state*
//! (a long-lived warm chain vs a freshly built one), which is exactly the
//! equivalence under test.
//!
//! ## Cache layout
//!
//! Instances live in one mutex-guarded `id → Arc<Slot>` map (first insert
//! wins). The map lock is held only to look up, insert, evict or snapshot
//! slots — never while an instance is built or solved — so the
//! `max_instances` cap is exact and `list` sees one consistent set. Each
//! slot holds the immutable topology plus a mutex-guarded `SlotState`:
//! the instance's [`DeltaInstance`] warm chain, a version counter bumped
//! by every mutation, and a solve memo emptied by every mutation. A solve
//! locks the slot, so identical concurrent queries serialize onto one
//! solver run: the first computes and stores, the rest hit the memo — that
//! is the coalescing contract, and it is deterministic because the memo
//! key is the full canonical query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::resilience::score_ensemble;
use placement::solve::{self, PlacementError, SolveOutcome, SolveRequest};
use popgen::{
    fileio, DynamicSpec, FailureModel, FailureSpec, FamilySpec, GravitySpec, Pop, PopSpec,
    SpecError, TrafficSet, TrafficSpec,
};

use crate::json::Value;
use crate::protocol::{self, Error, Mode, Page, Request, SolveQuery, WhatIf};

/// Maps a typed `popgen` spec error onto the wire's one-line error
/// contract (keeping the field/reason structure instead of re-stringifying
/// an opaque blob).
fn spec_error(e: SpecError) -> Error {
    Error::new("bad_spec", format!("invalid {}: {}", e.field, e.message))
}

/// Maps a typed `placement` error onto the wire's one-line error contract:
/// index-shaped fields keep the `bad_index` code (and their messages are
/// byte-identical to the ones this service always emitted); everything
/// else is a `bad_request`.
fn map_placement_error(e: PlacementError) -> Error {
    let code = match e.field {
        "link" | "traffic" | "support" | "installed" | "placement" => "bad_index",
        _ => "bad_request",
    };
    Error::new(code, e.message)
}

/// Immutable facts about a loaded instance.
struct SlotMeta {
    pop: Pop,
    routed: bool,
    /// Where the instance came from (`"document"` or the spec line).
    origin: String,
}

/// The mutable half of a slot, guarded by one mutex: the warm chain and
/// its coalescing memo.
struct SlotState {
    delta: DeltaInstance,
    /// Bumped by every mutation.
    version: u64,
    mutations: u64,
    /// Solver invocations actually performed.
    solves: u64,
    /// Responses served from the per-version memo instead of a solve.
    coalesced: u64,
    /// Passive solves answered at this version, keyed by
    /// [`protocol::query_key`]; emptied on every mutation.
    memo: HashMap<String, Arc<SolveOutcome>>,
    /// Active-monitoring answers: the router topology never mutates, so
    /// this map survives version bumps.
    apm_memo: HashMap<String, Arc<SolveOutcome>>,
}

struct Slot {
    meta: SlotMeta,
    state: Mutex<SlotState>,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Hard cap on resident instances; loads beyond it get `cache_full`.
    pub max_instances: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_instances: 256 }
    }
}

/// One response line plus the shutdown signal.
pub struct Reply {
    /// The JSON response, newline excluded.
    pub text: String,
    /// `true` after a `shutdown` request: the transport should stop.
    pub shutdown: bool,
}

impl Reply {
    fn ok(text: String) -> Self {
        Reply {
            text,
            shutdown: false,
        }
    }
}

/// The resident placement service (see the module docs).
pub struct Service {
    instances: Mutex<HashMap<String, Arc<Slot>>>,
    config: ServiceConfig,
    requests: AtomicU64,
}

impl Service {
    /// Creates an empty service.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            instances: Mutex::new(HashMap::new()),
            config,
            requests: AtomicU64::new(0),
        }
    }

    /// Handles one request line and produces one response line. Never
    /// panics on untrusted input: malformed requests become typed errors,
    /// and validation happens before any state is touched.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if line.len() > protocol::MAX_LINE {
            return Reply::ok(
                Error::new(
                    "oversized_line",
                    format!(
                        "request of {} bytes exceeds the {} byte limit",
                        line.len(),
                        protocol::MAX_LINE
                    ),
                )
                .to_json(),
            );
        }
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => return Reply::ok(e.to_json()),
        };
        match request {
            Request::Load { id, doc, routed } => Reply::ok(self.load_document(id, &doc, routed)),
            Request::LoadSpec {
                id,
                spec,
                seed,
                routed,
            } => Reply::ok(self.load_spec(id, &spec, seed, routed)),
            Request::Solve { id, query, page } => Reply::ok(self.solve(&id, &query, page)),
            Request::WhatIf {
                id,
                action,
                resolve,
                page,
            } => Reply::ok(self.whatif(&id, &action, resolve.as_ref(), page)),
            Request::ScoreEnsemble {
                id,
                failure,
                dynamic,
                scenarios,
                seed,
                placement,
                page,
            } => Reply::ok(self.score_ensemble(
                &id,
                &failure,
                dynamic.as_deref(),
                scenarios,
                seed,
                placement,
                page,
            )),
            Request::Inspect { id } => Reply::ok(self.inspect(&id)),
            Request::List => Reply::ok(self.list()),
            Request::Stats => Reply::ok(self.stats()),
            Request::Health => Reply::ok(self.health()),
            Request::Evict { id } => Reply::ok(self.evict(&id)),
            Request::Shutdown => Reply {
                text: Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("op".into(), Value::Str("shutdown".into())),
                ])
                .to_json(),
                shutdown: true,
            },
        }
    }

    /// Total requests handled (all connections).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of resident instances.
    pub fn instance_count(&self) -> usize {
        self.instances().len()
    }

    /// The instance map, locked.
    fn instances(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Slot>>> {
        self.instances.lock().expect("instance map poisoned")
    }

    // ---- loads ----------------------------------------------------------

    fn load_document(&self, id: String, doc: &str, routed: bool) -> String {
        let (pop, ts) = match fileio::parse(doc) {
            Ok(x) => x,
            Err(e) => return Error::new("bad_document", e.to_string()).to_json(),
        };
        self.insert(id, pop, ts, routed, "document".to_string())
    }

    fn load_spec(&self, id: String, spec: &str, seed: u64, routed: bool) -> String {
        let preset = |s: PopSpec| {
            let pop = s.build();
            let ts = TrafficSpec::default().generate(&pop, seed);
            (pop, ts)
        };
        let (pop, ts) = match spec {
            "small" => preset(PopSpec::small()),
            "paper_10" => preset(PopSpec::paper_10()),
            "paper_15" => preset(PopSpec::paper_15()),
            "paper_29" => preset(PopSpec::paper_29()),
            "paper_80" => preset(PopSpec::paper_80()),
            "scale_20" => preset(PopSpec::scale_20()),
            "scale_25" => preset(PopSpec::scale_25()),
            "scale_50" => preset(PopSpec::scale_50()),
            "scale_100" => preset(PopSpec::scale_100()),
            "large_150" => preset(PopSpec::large_150()),
            line => {
                let family: FamilySpec = match line.parse() {
                    Ok(f) => f,
                    Err(e) => return spec_error(e).to_json(),
                };
                let pop = match family.build(seed) {
                    Ok(p) => p,
                    Err(e) => return spec_error(e).to_json(),
                };
                let ts = GravitySpec::default().generate(&pop, seed);
                (pop, ts)
            }
        };
        self.insert(id, pop, ts, routed, spec.to_string())
    }

    /// First-insert-wins slot creation: the instance is built outside the
    /// map lock, and a concurrent load of the same id keeps whichever slot
    /// landed first — both callers get a response describing the stored
    /// slot. The cap check and the insert share one lock, so the cache
    /// never holds more than `max_instances` slots.
    fn insert(&self, id: String, pop: Pop, ts: TrafficSet, routed: bool, origin: String) -> String {
        let delta = if routed {
            DeltaInstance::from_traffic(&pop.graph, &ts)
        } else {
            DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts))
        };
        let slot = Arc::new(Slot {
            meta: SlotMeta {
                pop,
                routed,
                origin,
            },
            state: Mutex::new(SlotState {
                delta,
                version: 0,
                mutations: 0,
                solves: 0,
                coalesced: 0,
                memo: HashMap::new(),
                apm_memo: HashMap::new(),
            }),
        });
        let (stored, created) = {
            let mut instances = self.instances();
            match instances.get(&id) {
                Some(existing) => (existing.clone(), false),
                None => {
                    if instances.len() >= self.config.max_instances {
                        return Error::new(
                            "cache_full",
                            format!(
                                "instance cache holds {} of {} slots",
                                instances.len(),
                                self.config.max_instances
                            ),
                        )
                        .to_json();
                    }
                    instances.insert(id.clone(), slot.clone());
                    (slot, true)
                }
            }
        };
        let state = stored.state.lock().expect("slot poisoned");
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("load".into())),
            ("id".into(), Value::Str(id)),
            ("created".into(), Value::Bool(created)),
            ("routed".into(), Value::Bool(stored.meta.routed)),
            (
                "links".into(),
                Value::Num(stored.meta.pop.graph.edge_count() as f64),
            ),
            (
                "routers".into(),
                Value::Num(stored.meta.pop.routers().len() as f64),
            ),
            (
                "traffics".into(),
                Value::Num(state.delta.traffic_count() as f64),
            ),
            ("version".into(), Value::Num(state.version as f64)),
        ])
        .to_json()
    }

    fn get(&self, id: &str) -> Result<Arc<Slot>, Error> {
        self.instances()
            .get(id)
            .cloned()
            .ok_or_else(|| Error::new("no_such_instance", format!("no instance {id:?}")))
    }

    // ---- solves ---------------------------------------------------------

    fn solve(&self, id: &str, query: &SolveQuery, page: Page) -> String {
        let slot = match self.get(id) {
            Ok(s) => s,
            Err(e) => return e.to_json(),
        };
        let mut state = slot.state.lock().expect("slot poisoned");
        let outcome = run_solve(&slot.meta, &mut state, query);
        let mut fields = vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("solve".into())),
            ("id".into(), Value::Str(id.to_string())),
        ];
        fields.extend(solve_fields(&state, query, &outcome, page));
        Value::Obj(fields).to_json()
    }

    fn whatif(
        &self,
        id: &str,
        action: &WhatIf,
        resolve: Option<&SolveQuery>,
        page: Page,
    ) -> String {
        let slot = match self.get(id) {
            Ok(s) => s,
            Err(e) => return e.to_json(),
        };
        let mut state = slot.state.lock().expect("slot poisoned");
        // The fallible `DeltaInstance` mutators validate against the live
        // instance *before* mutating, so a rejected request cannot poison
        // the chain; their typed errors map onto the wire contract.
        let applied: Result<(&str, usize), PlacementError> = match action {
            WhatIf::FailLink(e) => state.delta.try_fail_link(*e).map(|r| ("fail_link", r)),
            WhatIf::RestoreLink(e) => state
                .delta
                .try_restore_link(*e)
                .map(|r| ("restore_link", r)),
            WhatIf::ScaleDemand { t, factor } => state
                .delta
                .try_scale_demand(*t, *factor)
                .map(|()| ("scale_demand", 0)),
            WhatIf::AddFlow { volume, support } => state
                .delta
                .try_add_flow(*volume, support.clone())
                .map(|_| ("add_flow", 0)),
            WhatIf::RemoveFlow(t) => state.delta.try_remove_flow(*t).map(|()| ("remove_flow", 0)),
            WhatIf::SetInstalled(installed) => state
                .delta
                .try_set_installed(installed)
                .map(|()| ("set_installed", 0)),
        };
        let (name, rerouted) = match applied {
            Ok(x) => x,
            Err(e) => return map_placement_error(e).to_json(),
        };
        state.version += 1;
        state.mutations += 1;
        state.memo.clear();
        let mut fields = vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("whatif".into())),
            ("id".into(), Value::Str(id.to_string())),
            ("action".into(), Value::Str(name.into())),
            ("version".into(), Value::Num(state.version as f64)),
            ("rerouted".into(), Value::Num(rerouted as f64)),
            (
                "traffics".into(),
                Value::Num(state.delta.traffic_count() as f64),
            ),
        ];
        if let Some(query) = resolve {
            let outcome = run_solve(&slot.meta, &mut state, query);
            fields.push((
                "resolve".into(),
                Value::Obj(solve_fields(&state, query, &outcome, page)),
            ));
        }
        Value::Obj(fields).to_json()
    }

    // ---- resilience -----------------------------------------------------

    /// Scores a placement over a seeded failure ensemble through the
    /// slot's resident delta chain. The chain is mutated scenario by
    /// scenario and restored to its entry state before the lock drops, so
    /// the instance version does not change and cached solves stay valid.
    #[allow(clippy::too_many_arguments)]
    fn score_ensemble(
        &self,
        id: &str,
        failure: &str,
        dynamic: Option<&str>,
        scenarios: usize,
        seed: u64,
        placement: Option<Vec<usize>>,
        page: Page,
    ) -> String {
        let slot = match self.get(id) {
            Ok(s) => s,
            Err(e) => return e.to_json(),
        };
        let fspec: FailureSpec = match failure.parse() {
            Ok(f) => f,
            Err(e) => return spec_error(e).to_json(),
        };
        let dspec: Option<DynamicSpec> = match dynamic {
            None => None,
            Some(line) => match line.parse() {
                Ok(d) => Some(d),
                Err(e) => return spec_error(e).to_json(),
            },
        };
        let model = match FailureModel::try_new(&slot.meta.pop, &fspec) {
            Ok(m) => m,
            Err(e) => return spec_error(e).to_json(),
        };
        let mut state = slot.state.lock().expect("slot poisoned");
        let ensemble = match model.sample_scenarios(
            state.delta.traffic_count(),
            dspec.as_ref(),
            scenarios,
            seed,
        ) {
            Ok(s) => s,
            Err(e) => return spec_error(e).to_json(),
        };
        let mut placed = placement.unwrap_or_else(|| state.delta.installed().to_vec());
        placed.sort_unstable();
        placed.dedup();
        let score = match score_ensemble(&mut state.delta, &placed, &ensemble) {
            Ok(s) => s,
            Err(e) => return map_placement_error(e).to_json(),
        };
        let n = score.per_scenario.len();
        let pages = n.div_ceil(page.page_size).max(1);
        let start = page.page.saturating_mul(page.page_size).min(n);
        let end = (start + page.page_size).min(n);
        let rows: Vec<Value> = score.per_scenario[start..end]
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("coverage".into(), Value::Num(s.coverage)),
                    ("live_devices".into(), Value::Num(s.live_devices as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("score_ensemble".into())),
            ("id".into(), Value::Str(id.to_string())),
            ("version".into(), Value::Num(state.version as f64)),
            ("scenarios".into(), Value::Num(n as f64)),
            ("devices".into(), Value::Num(placed.len() as f64)),
            (
                "expected_coverage".into(),
                Value::Num(score.expected_coverage),
            ),
            ("p99_tail".into(), Value::Num(score.p99_tail)),
            ("worst_case".into(), Value::Num(score.worst_case)),
            ("page".into(), Value::Num(page.page as f64)),
            ("pages".into(), Value::Num(pages as f64)),
            ("rows".into(), Value::Arr(rows)),
        ])
        .to_json()
    }

    // ---- introspection --------------------------------------------------

    fn inspect(&self, id: &str) -> String {
        let slot = match self.get(id) {
            Ok(s) => s,
            Err(e) => return e.to_json(),
        };
        let state = slot.state.lock().expect("slot poisoned");
        let inst = state.delta.instance();
        let pop = &slot.meta.pop;
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("inspect".into())),
            ("id".into(), Value::Str(id.to_string())),
            ("origin".into(), Value::Str(slot.meta.origin.clone())),
            ("routed".into(), Value::Bool(slot.meta.routed)),
            ("routers".into(), Value::Num(pop.routers().len() as f64)),
            ("endpoints".into(), Value::Num(pop.endpoints.len() as f64)),
            ("links".into(), Value::Num(pop.graph.edge_count() as f64)),
            ("traffics".into(), Value::Num(inst.traffics.len() as f64)),
            ("total_volume".into(), Value::Num(inst.total_volume())),
            (
                "max_coverage_fraction".into(),
                Value::Num(inst.max_coverage_fraction()),
            ),
            ("version".into(), Value::Num(state.version as f64)),
            ("mutations".into(), Value::Num(state.mutations as f64)),
            ("solves".into(), Value::Num(state.solves as f64)),
            ("coalesced".into(), Value::Num(state.coalesced as f64)),
            (
                "installed".into(),
                Value::Arr(
                    state
                        .delta
                        .installed()
                        .iter()
                        .map(|&e| Value::Num(e as f64))
                        .collect(),
                ),
            ),
            (
                "disabled".into(),
                Value::Arr(
                    state
                        .delta
                        .disabled()
                        .iter()
                        .map(|&e| Value::Num(e as f64))
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }

    fn list(&self) -> String {
        // Snapshot under the map lock; slot states are read after it is
        // released, so a long solve on one slot never blocks the map.
        let mut rows: Vec<(String, Arc<Slot>)> = self
            .instances()
            .iter()
            .map(|(id, slot)| (id.clone(), slot.clone()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let instances: Vec<Value> = rows
            .into_iter()
            .map(|(id, slot)| {
                let state = slot.state.lock().expect("slot poisoned");
                Value::Obj(vec![
                    ("id".into(), Value::Str(id)),
                    ("routed".into(), Value::Bool(slot.meta.routed)),
                    (
                        "links".into(),
                        Value::Num(slot.meta.pop.graph.edge_count() as f64),
                    ),
                    (
                        "traffics".into(),
                        Value::Num(state.delta.traffic_count() as f64),
                    ),
                    ("version".into(), Value::Num(state.version as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("list".into())),
            ("instances".into(), Value::Arr(instances)),
        ])
        .to_json()
    }

    fn stats(&self) -> String {
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("stats".into())),
            ("instances".into(), Value::Num(self.instance_count() as f64)),
            ("requests".into(), Value::Num(self.request_count() as f64)),
        ])
        .to_json()
    }

    fn health(&self) -> String {
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("health".into())),
            ("status".into(), Value::Str("ok".into())),
            ("instances".into(), Value::Num(self.instance_count() as f64)),
            (
                "max_instances".into(),
                Value::Num(self.config.max_instances as f64),
            ),
            ("requests".into(), Value::Num(self.request_count() as f64)),
        ])
        .to_json()
    }

    fn evict(&self, id: &str) -> String {
        let existed = self.instances().remove(id).is_some();
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("evict".into())),
            ("id".into(), Value::Str(id.to_string())),
            ("existed".into(), Value::Bool(existed)),
        ])
        .to_json()
    }
}

/// Runs (or coalesces) one solve under the slot lock. The memo key is the
/// canonical query, and every mutation empties the passive memo, so a
/// repeat of a query already answered at this version returns the stored
/// outcome — the coalescing path — and a query after a mutation misses.
fn run_solve(meta: &SlotMeta, state: &mut SlotState, query: &SolveQuery) -> Arc<SolveOutcome> {
    let key = protocol::query_key(query);
    let memo = match query.mode {
        Mode::Ppm => &state.memo,
        Mode::Apm => &state.apm_memo,
    };
    if let Some(hit) = memo.get(&key) {
        let hit = Arc::clone(hit);
        state.coalesced += 1;
        return hit;
    }
    state.solves += 1;
    let outcome = Arc::new(match query.mode {
        Mode::Ppm => solve_ppm(state, query),
        Mode::Apm => solve_apm(meta, query),
    });
    let memo = match query.mode {
        Mode::Ppm => &mut state.memo,
        Mode::Apm => &mut state.apm_memo,
    };
    memo.insert(key, Arc::clone(&outcome));
    outcome
}

fn solve_ppm(state: &mut SlotState, query: &SolveQuery) -> SolveOutcome {
    let mut req = SolveRequest::ppm(query.k).with_node_budget(query.max_nodes);
    req.method = query.method;
    // An anytime budget (explicit, or mapped from a deadline) turns the
    // exact solve into a degradable one; unset budgets leave the request
    // — and hence the whole solve trajectory — byte-identical to before.
    if let Some(units) = query.effective_budget() {
        req = req.with_work_budget(units);
    }
    state
        .delta
        .solve(&req)
        .expect("protocol-validated queries are solver-valid")
}

fn solve_apm(meta: &SlotMeta, query: &SolveQuery) -> SolveOutcome {
    let (graph, _) = meta.pop.router_subgraph();
    let mut req = SolveRequest::apm();
    req.method = query.method;
    solve::solve_apm(&graph, &req).expect("APM requests carry no instance-dependent knobs")
}

/// Formats a solve outcome into response fields, applying pagination to
/// the placement list (the full outcome stays cached; only the view is
/// windowed).
fn solve_fields(
    state: &SlotState,
    query: &SolveQuery,
    outcome: &SolveOutcome,
    page: Page,
) -> Vec<(String, Value)> {
    let mut fields = vec![
        (
            "mode".into(),
            Value::Str(
                match query.mode {
                    Mode::Ppm => "ppm",
                    Mode::Apm => "apm",
                }
                .into(),
            ),
        ),
        ("method".into(), Value::Str(query.method.as_str().into())),
        ("version".into(), Value::Num(state.version as f64)),
    ];
    if query.mode == Mode::Ppm {
        fields.push(("k".into(), Value::Num(query.k)));
    }
    match outcome {
        SolveOutcome::Degraded {
            partial,
            reason,
            work_spent,
            bound,
        } => {
            // The partial answer is formatted exactly like a complete one
            // (same fields, same order), then the degradation record is
            // appended — a client that ignores the extra fields sees a
            // plain answer; one that reads them gets the anytime contract
            // (`bound ≤ optimal ≤ answer` in the solve's objective sense).
            outcome_fields(&mut fields, partial, page);
            fields.push(("degraded".into(), Value::Bool(true)));
            fields.push(("degrade_reason".into(), Value::Str(reason.as_str().into())));
            fields.push(("work_spent".into(), Value::Num(*work_spent as f64)));
            // A non-finite bound (budget tripped before the root
            // relaxation finished) renders as `null`.
            fields.push(("bound".into(), Value::Num(*bound)));
        }
        other => outcome_fields(&mut fields, other, page),
    }
    fields
}

/// The non-degraded outcome arms of [`solve_fields`] (a `Degraded`
/// outcome formats its partial answer through here first).
fn outcome_fields(fields: &mut Vec<(String, Value)>, outcome: &SolveOutcome, page: Page) {
    let paged = |items: &[usize]| -> (Value, Value, Value, Value) {
        let pages = items.len().div_ceil(page.page_size).max(1);
        let start = page.page.saturating_mul(page.page_size).min(items.len());
        let end = (start + page.page_size).min(items.len());
        (
            Value::Num(items.len() as f64),
            Value::Num(page.page as f64),
            Value::Num(pages as f64),
            Value::Arr(
                items[start..end]
                    .iter()
                    .map(|&e| Value::Num(e as f64))
                    .collect(),
            ),
        )
    };
    match outcome {
        SolveOutcome::Unreachable => {
            fields.push(("feasible".into(), Value::Bool(false)));
        }
        // Target solves and (internal) budget solves: identical field set,
        // identical order.
        SolveOutcome::Ppm(sol) | SolveOutcome::Budget(sol) => {
            let (count, pg, pages, placement) = paged(&sol.edges);
            fields.push(("feasible".into(), Value::Bool(true)));
            fields.push(("devices".into(), count));
            fields.push(("page".into(), pg));
            fields.push(("pages".into(), pages));
            fields.push(("placement".into(), placement));
            fields.push(("coverage".into(), Value::Num(sol.coverage)));
            fields.push(("total_volume".into(), Value::Num(sol.total_volume)));
            fields.push(("proven_optimal".into(), Value::Bool(sol.proven_optimal)));
        }
        SolveOutcome::Apm(sol) => {
            let (count, pg, pages, placement) = paged(&sol.beacons);
            fields.push(("feasible".into(), Value::Bool(true)));
            fields.push(("beacons".into(), count));
            fields.push(("page".into(), pg));
            fields.push(("pages".into(), pages));
            fields.push(("placement".into(), placement));
            fields.push(("probes".into(), Value::Num(sol.probes as f64)));
            fields.push(("covered_links".into(), Value::Num(sol.covered_links as f64)));
            fields.push(("router_links".into(), Value::Num(sol.router_links as f64)));
            fields.push(("proven_optimal".into(), Value::Bool(sol.proven_optimal)));
        }
        // A partial answer is documented never to be `Degraded` itself;
        // recursing keeps this total without panicking on the invariant.
        SolveOutcome::Degraded { partial, .. } => outcome_fields(fields, partial, page),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    fn line(s: &Service, req: &str) -> Value {
        let reply = s.handle_line(req);
        crate::json::parse(&reply.text).expect("responses are valid JSON")
    }

    #[test]
    fn load_solve_and_coalesce() {
        let s = service();
        let r = line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("created").unwrap().as_bool(), Some(true));

        let a = s.handle_line(r#"{"op":"solve","id":"a","k":0.8}"#).text;
        let b = s.handle_line(r#"{"op":"solve","id":"a","k":0.8}"#).text;
        assert_eq!(a, b, "repeat query must coalesce onto the same bytes");
        let ins = line(&s, r#"{"op":"inspect","id":"a"}"#);
        assert_eq!(ins.get("solves").unwrap().as_f64(), Some(1.0));
        assert_eq!(ins.get("coalesced").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn whatif_bumps_version_and_resolves() {
        let s = service();
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        let r = line(
            &s,
            r#"{"op":"whatif","id":"a","action":"fail_link","link":0,"resolve":{"k":0.7}}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("version").unwrap().as_f64(), Some(1.0));
        let resolve = r.get("resolve").unwrap();
        assert_eq!(resolve.get("version").unwrap().as_f64(), Some(1.0));
        // The failed link never hosts a device.
        if resolve.get("feasible").unwrap().as_bool() == Some(true) {
            let placement = resolve.get("placement").unwrap().as_arr().unwrap();
            assert!(placement.iter().all(|v| v.as_f64() != Some(0.0)));
        }
    }

    #[test]
    fn typed_errors_leave_state_untouched() {
        let s = service();
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        let before = s.handle_line(r#"{"op":"inspect","id":"a"}"#).text;
        for (req, code) in [
            (r#"{"op":"solve","id":"nope","k":0.5}"#, "no_such_instance"),
            (
                r#"{"op":"whatif","id":"a","action":"fail_link","link":9999}"#,
                "bad_index",
            ),
            (
                r#"{"op":"whatif","id":"a","action":"remove_flow","traffic":9999}"#,
                "bad_index",
            ),
            (
                r#"{"op":"load_spec","id":"b","spec":"nonsense family"}"#,
                "bad_spec",
            ),
            (r#"{"op":"load","id":"c","doc":"garbage"}"#, "bad_document"),
        ] {
            let r = line(&s, req);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{req}");
            assert_eq!(
                r.get("error").unwrap().get("code").unwrap().as_str(),
                Some(code),
                "{req}"
            );
        }
        let after = s.handle_line(r#"{"op":"inspect","id":"a"}"#).text;
        assert_eq!(before, after, "failed requests must not mutate the slot");
    }

    #[test]
    fn greedy_constrained_respects_failures_and_installed() {
        let s = service();
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":3}"#);
        line(
            &s,
            r#"{"op":"whatif","id":"a","action":"fail_link","link":2}"#,
        );
        line(
            &s,
            r#"{"op":"whatif","id":"a","action":"set_installed","installed":[1]}"#,
        );
        let r = line(&s, r#"{"op":"solve","id":"a","method":"greedy","k":0.6}"#);
        if r.get("feasible").unwrap().as_bool() == Some(true) {
            let placement = r.get("placement").unwrap().as_arr().unwrap();
            assert!(
                placement.iter().all(|v| v.as_f64() != Some(2.0)),
                "greedy must not place on the failed link"
            );
            assert!(
                placement.iter().any(|v| v.as_f64() == Some(1.0)),
                "greedy must keep the installed device"
            );
        }
    }

    #[test]
    fn pagination_windows_the_placement() {
        let s = service();
        line(
            &s,
            r#"{"op":"load_spec","id":"a","spec":"paper_10","seed":1}"#,
        );
        let full = line(&s, r#"{"op":"solve","id":"a","k":1.0}"#);
        let n = full.get("devices").unwrap().as_u64().unwrap() as usize;
        assert!(n >= 2, "paper_10 at k=1 needs several devices, got {n}");
        let mut seen = Vec::new();
        let mut page = 0;
        loop {
            let r = line(
                &s,
                &format!(r#"{{"op":"solve","id":"a","k":1.0,"page":{page},"page_size":1}}"#),
            );
            assert_eq!(r.get("pages").unwrap().as_u64(), Some(n as u64));
            let items = r.get("placement").unwrap().as_arr().unwrap().to_vec();
            if page >= n {
                assert!(items.is_empty());
                break;
            }
            assert_eq!(items.len(), 1);
            seen.push(items[0].as_u64().unwrap() as usize);
            page += 1;
        }
        let all: Vec<usize> = full
            .get("placement")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap() as usize)
            .collect();
        assert_eq!(seen, all, "page walk must reconstruct the full placement");
    }

    #[test]
    fn score_ensemble_is_seeded_and_leaves_the_chain_intact() {
        let s = service();
        line(
            &s,
            r#"{"op":"load_spec","id":"a","spec":"paper_10","seed":1}"#,
        );
        let before = s.handle_line(r#"{"op":"inspect","id":"a"}"#).text;
        let req = r#"{"op":"score_ensemble","id":"a","failure":"srlg groups=4 group_rate=0.3 link_rate=0.05","dynamic":"dynamic","scenarios":20,"seed":7,"placement":[0,1,2]}"#;
        let a = s.handle_line(req).text;
        let b = s.handle_line(req).text;
        assert_eq!(a, b, "same spec and seed must reproduce the ensemble");
        let r = crate::json::parse(&a).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("scenarios").unwrap().as_f64(), Some(20.0));
        assert_eq!(r.get("devices").unwrap().as_f64(), Some(3.0));
        assert_eq!(r.get("rows").unwrap().as_arr().unwrap().len(), 20);
        let expected = r.get("expected_coverage").unwrap().as_f64().unwrap();
        let worst = r.get("worst_case").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&expected) && worst <= expected + 1e-12);
        // The campaign mutates the chain scenario by scenario but must
        // hand it back untouched: same version, same inspect bytes.
        let after = s.handle_line(r#"{"op":"inspect","id":"a"}"#).text;
        assert_eq!(before, after, "a campaign must not leak chain state");
        // A different seed yields a different ensemble (same shape).
        let c = s
            .handle_line(
                r#"{"op":"score_ensemble","id":"a","failure":"srlg groups=4 group_rate=0.3 link_rate=0.05","dynamic":"dynamic","scenarios":20,"seed":8,"placement":[0,1,2]}"#,
            )
            .text;
        assert_ne!(a, c);
    }

    #[test]
    fn score_ensemble_pages_rows_and_rejects_bad_specs() {
        let s = service();
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        // Default placement: the installed set (empty here) — worst case
        // covers nothing unless total volume is zero under failures.
        let r = line(
            &s,
            r#"{"op":"score_ensemble","id":"a","failure":"srlg","scenarios":5,"page_size":2}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("devices").unwrap().as_f64(), Some(0.0));
        assert_eq!(r.get("pages").unwrap().as_f64(), Some(3.0));
        assert_eq!(r.get("rows").unwrap().as_arr().unwrap().len(), 2);
        for (req, code) in [
            (
                r#"{"op":"score_ensemble","id":"nope","failure":"srlg","scenarios":1}"#,
                "no_such_instance",
            ),
            (
                r#"{"op":"score_ensemble","id":"a","failure":"srlg groups=0","scenarios":1}"#,
                "bad_spec",
            ),
            (
                r#"{"op":"score_ensemble","id":"a","failure":"srlg","dynamic":"dynamic jitter=7","scenarios":1}"#,
                "bad_spec",
            ),
            (
                r#"{"op":"score_ensemble","id":"a","failure":"srlg","scenarios":1,"placement":[9999]}"#,
                "bad_index",
            ),
        ] {
            let r = line(&s, req);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{req}");
            assert_eq!(
                r.get("error").unwrap().get("code").unwrap().as_str(),
                Some(code),
                "{req}"
            );
        }
    }

    #[test]
    fn budgeted_solve_degrades_and_coalesces_deterministically() {
        let s = service();
        line(
            &s,
            r#"{"op":"load_spec","id":"a","spec":"paper_10","seed":1}"#,
        );
        // A one-unit budget trips at the first work check: either a
        // partial exact answer or the greedy fallback answers, and the
        // degradation record is on the wire.
        let req = r#"{"op":"solve","id":"a","method":"exact","k":0.9,"budget":1}"#;
        let a = s.handle_line(req).text;
        let b = s.handle_line(req).text;
        assert_eq!(a, b, "budgeted repeats must coalesce onto the same bytes");
        let r = crate::json::parse(&a).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("degraded").unwrap().as_bool(), Some(true));
        let reason = r.get("degrade_reason").unwrap().as_str().unwrap();
        assert!(
            reason == "partial_exact" || reason == "greedy_fallback",
            "{reason}"
        );
        assert!(r.get("work_spent").unwrap().as_u64().unwrap() >= 1);
        // A deadline-shaped request degrades through the same machinery.
        let r = line(
            &s,
            r#"{"op":"solve","id":"a","method":"exact","k":0.9,"deadline_ms":1}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        // An unbudgeted solve of the same query carries no degradation
        // fields at all — the legacy response shape is untouched.
        let r = line(&s, r#"{"op":"solve","id":"a","method":"exact","k":0.9}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert!(r.get("degraded").is_none());
        assert!(r.get("work_spent").is_none());
    }

    #[test]
    fn health_reports_liveness_without_touching_instances() {
        let s = service();
        let r = line(&s, r#"{"op":"health"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(r.get("instances").unwrap().as_f64(), Some(0.0));
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        let r = line(&s, r#"{"op":"health"}"#);
        assert_eq!(r.get("instances").unwrap().as_f64(), Some(1.0));
        assert_eq!(r.get("max_instances").unwrap().as_f64(), Some(256.0));
    }

    #[test]
    fn evict_and_cache_cap() {
        let s = Service::new(ServiceConfig { max_instances: 1 });
        line(&s, r#"{"op":"load_spec","id":"a","spec":"small","seed":1}"#);
        let r = line(&s, r#"{"op":"load_spec","id":"b","spec":"small","seed":1}"#);
        assert_eq!(
            r.get("error").unwrap().get("code").unwrap().as_str(),
            Some("cache_full")
        );
        let r = line(&s, r#"{"op":"evict","id":"a"}"#);
        assert_eq!(r.get("existed").unwrap().as_bool(), Some(true));
        let r = line(&s, r#"{"op":"load_spec","id":"b","spec":"small","seed":1}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
    }
}
