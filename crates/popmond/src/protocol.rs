//! Wire protocol: request grammar, validation, and typed errors.
//!
//! One request per line, one response per line, both compact JSON objects
//! (see `DESIGN.md` § "The popmond service" for the full grammar). Every
//! failure is a typed one-line error —
//! `{"ok":false,"error":{"code":C,"message":M}}` — and never tears down
//! the connection or the instance it addressed: requests are validated
//! *before* any state is touched, so a rejected mutation leaves the
//! instance exactly as it was.

use crate::json::Value;

/// Upper bound on a request line (bytes, newline excluded). Longer lines
/// are answered with an `oversized_line` error and drained.
pub const MAX_LINE: usize = 1 << 20;

/// Default page size for placement lists in responses.
pub const DEFAULT_PAGE_SIZE: usize = 64;

/// Largest accepted `page_size`.
pub const MAX_PAGE_SIZE: usize = 4096;

/// Default node budget for exact solves (matches
/// `placement::passive::ExactOptions::default`).
pub const DEFAULT_MAX_NODES: usize = 50_000;

/// Largest accepted per-request node budget.
pub const MAX_MAX_NODES: usize = 5_000_000;

/// Largest accepted ensemble size for a `score_ensemble` request.
pub const MAX_SCENARIOS: usize = 4096;

/// Deterministic deadline calibration: work units granted per millisecond
/// of a requested `deadline_ms`. This is a *fixed constant*, not a
/// measured rate — a deadline-shaped request maps to exactly the same
/// [`SolveQuery::effective_budget`] on every machine and run, so service
/// behavior under deadlines stays reproducible in tests. The value is
/// sized so that single-digit-millisecond deadlines already admit the
/// root relaxation on the paper-scale instances.
///
/// The solver's measured rate is far lower. Since a work unit became a
/// real dual pivot, `milp.units_per_ms` on the benchmark's
/// `serve_whatif` workload reads about 130–145 units/ms (seed 1, 25 s,
/// traced, on a 2-core x86-64 VM). A `deadline_ms` therefore runs about
/// 14–15× longer than its face value. Changing the constant would change
/// deadline semantics, and the benchmark reads it, so it stays.
pub const WORK_UNITS_PER_MS: u64 = 2_000;

/// Back-off hint (milliseconds) attached to `overloaded` shed errors.
pub const RETRY_AFTER_MS: u64 = 50;

/// A typed protocol error: a short machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Stable machine-readable code (`parse`, `bad_request`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Client back-off hint, only set on `overloaded` shed errors.
    pub retry_after_ms: Option<u64>,
}

impl Error {
    /// Builds an error with the given code.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Error {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Builds the `overloaded` shed error with its back-off hint: every
    /// request-processing slot is busy and the waiting queue is at its
    /// cap, so the request was refused *without* touching any state.
    pub fn overloaded(retry_after_ms: u64) -> Self {
        Error {
            code: "overloaded",
            message: format!(
                "all request slots busy and the queue is full; retry in {retry_after_ms} ms"
            ),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Serializes to the one-line error response.
    pub fn to_json(&self) -> String {
        let mut inner = vec![
            ("code".into(), Value::Str(self.code.into())),
            ("message".into(), Value::Str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            inner.push(("retry_after_ms".into(), Value::Num(ms as f64)));
        }
        Value::Obj(vec![
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::Obj(inner)),
        ])
        .to_json()
    }
}

/// Which optimization a `solve` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Passive monitoring: tap placement on links (`PPM(k)`).
    Ppm,
    /// Active monitoring: beacon placement on the router subgraph.
    Apm,
}

/// Which solver a `solve` asks for: the unified solve API's method,
/// under the wire's name.
pub use placement::solve::SolveMethod as Method;

/// A fully validated solve query (the solve-cache key is derived from
/// exactly these fields).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveQuery {
    /// PPM or APM.
    pub mode: Mode,
    /// Greedy or exact.
    pub method: Method,
    /// Coverage fraction for PPM (ignored by APM).
    pub k: f64,
    /// Branch-and-bound node budget for exact solves.
    pub max_nodes: usize,
    /// Optional anytime work budget (deterministic solver work units);
    /// exhausting it degrades the solve instead of failing it.
    pub budget: Option<u64>,
    /// Optional wall-clock deadline, mapped onto a work budget through
    /// [`WORK_UNITS_PER_MS`] — a *deterministic* proxy, never a timer.
    pub deadline_ms: Option<u64>,
}

impl SolveQuery {
    /// The work budget the solver actually runs under: the explicit
    /// `budget`, the deadline mapped through [`WORK_UNITS_PER_MS`], or
    /// the tighter of the two when both are set. `None` means unbounded —
    /// the byte-identical legacy behavior.
    pub fn effective_budget(&self) -> Option<u64> {
        let from_deadline = self
            .deadline_ms
            .map(|ms| ms.saturating_mul(WORK_UNITS_PER_MS).max(1));
        match (self.budget, from_deadline) {
            (Some(b), Some(d)) => Some(b.min(d)),
            (b, d) => b.or(d),
        }
    }
}

/// Pagination of the placement list in a solve response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// Zero-based page index.
    pub page: usize,
    /// Entries per page.
    pub page_size: usize,
}

/// A what-if mutation, validated for shape (range checks against the
/// target instance happen in the service layer, which knows the sizes).
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIf {
    /// Fail a link: forbid devices on it and re-route crossing traffics
    /// (routed instances).
    FailLink(usize),
    /// Restore a previously failed link.
    RestoreLink(usize),
    /// Multiply one traffic's demand.
    ScaleDemand {
        /// Traffic index.
        t: usize,
        /// Multiplier (finite, and the scaled volume must stay ≥ 0).
        factor: f64,
    },
    /// Add a flow with the given volume and link support.
    AddFlow {
        /// Volume (finite, ≥ 0).
        volume: f64,
        /// Link indices the flow crosses.
        support: Vec<usize>,
    },
    /// Remove traffic `t` (indices above shift down).
    RemoveFlow(usize),
    /// Replace the pre-installed device set.
    SetInstalled(Vec<usize>),
}

/// A parsed, shape-validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load an instance from a `popgen::fileio` document.
    Load {
        /// Instance id (cache key).
        id: String,
        /// The document text.
        doc: String,
        /// Route traffic on the topology (enables re-routing on link
        /// failure) instead of taking supports as given.
        routed: bool,
    },
    /// Load an instance from a named preset or a `FamilySpec` line.
    LoadSpec {
        /// Instance id (cache key).
        id: String,
        /// Preset name (`small`, `paper_15`, …) or family line
        /// (`"waxman routers=30 …"`).
        spec: String,
        /// Generator seed.
        seed: u64,
        /// As in [`Request::Load`].
        routed: bool,
    },
    /// Solve on the current state of an instance.
    Solve {
        /// Instance id.
        id: String,
        /// The query.
        query: SolveQuery,
        /// Placement-list pagination.
        page: Page,
    },
    /// Mutate an instance, optionally re-solving in the same request.
    WhatIf {
        /// Instance id.
        id: String,
        /// The mutation.
        action: WhatIf,
        /// Optional embedded re-solve after the mutation.
        resolve: Option<SolveQuery>,
        /// Pagination for the embedded solve.
        page: Page,
    },
    /// Score a fixed placement over a seeded failure ensemble sampled on
    /// the instance's topology, walking every scenario through the
    /// resident delta chain (the chain comes back in its entry state).
    ScoreEnsemble {
        /// Instance id.
        id: String,
        /// `FailureSpec` line (`"srlg groups=8 group_rate=0.05 …"`).
        failure: String,
        /// Optional `DynamicSpec` line enabling demand perturbation
        /// (`"dynamic jitter=0.1 …"`).
        dynamic: Option<String>,
        /// Ensemble size, `∈ [1, MAX_SCENARIOS]`.
        scenarios: usize,
        /// Sampling seed.
        seed: u64,
        /// Placement to score; defaults to the instance's installed set.
        placement: Option<Vec<usize>>,
        /// Pagination for the per-scenario rows.
        page: Page,
    },
    /// Summarize an instance (topology, traffic, chain counters).
    Inspect {
        /// Instance id.
        id: String,
    },
    /// List resident instances.
    List,
    /// Global service counters.
    Stats,
    /// Liveness/readiness probe: cheap, touches no instance state, and
    /// never sheds (the transport answers it even under overload).
    Health,
    /// Drop an instance from the cache.
    Evict {
        /// Instance id.
        id: String,
    },
    /// Stop the server after responding.
    Shutdown,
}

fn bad(msg: impl Into<String>) -> Error {
    Error::new("bad_request", msg)
}

fn req_str(v: &Value, key: &str) -> Result<String, Error> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn opt_bool(v: &Value, key: &str, default: bool) -> Result<bool, Error> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(format!("field {key:?} must be a boolean"))),
    }
}

fn opt_index(v: &Value, key: &str, default: usize) -> Result<usize, Error> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .map(|u| u as usize)
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn req_index(v: &Value, key: &str) -> Result<usize, Error> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer")))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, Error> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_f64()
        .ok_or_else(|| bad(format!("field {key:?} must be a number")))
}

fn index_list(v: &Value, key: &str) -> Result<Vec<usize>, Error> {
    let arr = v
        .get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_arr()
        .ok_or_else(|| bad(format!("field {key:?} must be an array")))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .map(|u| u as usize)
                .ok_or_else(|| bad(format!("field {key:?} must hold non-negative integers")))
        })
        .collect()
}

fn parse_page(v: &Value) -> Result<Page, Error> {
    let page = opt_index(v, "page", 0)?;
    let page_size = opt_index(v, "page_size", DEFAULT_PAGE_SIZE)?;
    if page_size == 0 || page_size > MAX_PAGE_SIZE {
        return Err(bad(format!(
            "page_size must be in [1, {MAX_PAGE_SIZE}], got {page_size}"
        )));
    }
    Ok(Page { page, page_size })
}

fn parse_query(v: &Value) -> Result<SolveQuery, Error> {
    let mode = match v.get("mode").map(|m| m.as_str()) {
        None => Mode::Ppm,
        Some(Some("ppm")) => Mode::Ppm,
        Some(Some("apm")) => Mode::Apm,
        Some(other) => {
            return Err(bad(format!(
                "mode must be \"ppm\" or \"apm\", got {other:?}"
            )))
        }
    };
    let method = match v.get("method").map(|m| m.as_str()) {
        None => Method::Exact,
        Some(Some("greedy")) => Method::Greedy,
        Some(Some("exact")) => Method::Exact,
        Some(other) => {
            return Err(bad(format!(
                "method must be \"greedy\" or \"exact\", got {other:?}"
            )))
        }
    };
    let k = match mode {
        // k is meaningless for APM; pin it so the cache key is canonical.
        Mode::Apm => 0.0,
        Mode::Ppm => {
            let k = req_f64(v, "k")?;
            if !k.is_finite() || !(0.0..=1.0).contains(&k) {
                return Err(bad(format!("k must lie in [0, 1], got {k}")));
            }
            k
        }
    };
    let max_nodes = opt_index(v, "max_nodes", DEFAULT_MAX_NODES)?;
    if max_nodes == 0 || max_nodes > MAX_MAX_NODES {
        return Err(bad(format!(
            "max_nodes must be in [1, {MAX_MAX_NODES}], got {max_nodes}"
        )));
    }
    let opt_u64_min1 = |key: &str| -> Result<Option<u64>, Error> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => match x.as_u64() {
                Some(n) if n >= 1 => Ok(Some(n)),
                _ => Err(bad(format!("field {key:?} must be a positive integer"))),
            },
        }
    };
    Ok(SolveQuery {
        mode,
        method,
        k,
        max_nodes,
        budget: opt_u64_min1("budget")?,
        deadline_ms: opt_u64_min1("deadline_ms")?,
    })
}

fn parse_whatif(v: &Value) -> Result<WhatIf, Error> {
    let action = req_str(v, "action")?;
    match action.as_str() {
        "fail_link" => Ok(WhatIf::FailLink(req_index(v, "link")?)),
        "restore_link" => Ok(WhatIf::RestoreLink(req_index(v, "link")?)),
        "scale_demand" => {
            let factor = req_f64(v, "factor")?;
            if !factor.is_finite() || factor < 0.0 {
                return Err(bad(format!("factor must be finite and >= 0, got {factor}")));
            }
            Ok(WhatIf::ScaleDemand {
                t: req_index(v, "traffic")?,
                factor,
            })
        }
        "add_flow" => {
            let volume = req_f64(v, "volume")?;
            if !volume.is_finite() || volume < 0.0 {
                return Err(bad(format!("volume must be finite and >= 0, got {volume}")));
            }
            Ok(WhatIf::AddFlow {
                volume,
                support: index_list(v, "support")?,
            })
        }
        "remove_flow" => Ok(WhatIf::RemoveFlow(req_index(v, "traffic")?)),
        "set_installed" => Ok(WhatIf::SetInstalled(index_list(v, "installed")?)),
        other => Err(bad(format!("unknown what-if action {other:?}"))),
    }
}

/// Parses and shape-validates one request line.
pub fn parse_request(line: &str) -> Result<Request, Error> {
    let v = crate::json::parse(line).map_err(|e| Error::new("parse", e))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(Error::new("parse", "request must be a JSON object"));
    }
    let op = req_str(&v, "op")?;
    match op.as_str() {
        "load" => Ok(Request::Load {
            id: req_str(&v, "id")?,
            doc: req_str(&v, "doc")?,
            routed: opt_bool(&v, "routed", false)?,
        }),
        "load_spec" => Ok(Request::LoadSpec {
            id: req_str(&v, "id")?,
            spec: req_str(&v, "spec")?,
            seed: match v.get("seed") {
                None => 0,
                Some(s) => s
                    .as_u64()
                    .ok_or_else(|| bad("field \"seed\" must be a non-negative integer"))?,
            },
            routed: opt_bool(&v, "routed", false)?,
        }),
        "solve" => Ok(Request::Solve {
            id: req_str(&v, "id")?,
            query: parse_query(&v)?,
            page: parse_page(&v)?,
        }),
        "whatif" => {
            let resolve = match v.get("resolve") {
                None => None,
                Some(r) if matches!(r, Value::Obj(_)) => Some(parse_query(r)?),
                Some(_) => return Err(bad("field \"resolve\" must be an object")),
            };
            Ok(Request::WhatIf {
                id: req_str(&v, "id")?,
                action: parse_whatif(&v)?,
                resolve,
                page: parse_page(&v)?,
            })
        }
        "score_ensemble" => {
            let scenarios = req_index(&v, "scenarios")?;
            if scenarios == 0 || scenarios > MAX_SCENARIOS {
                return Err(bad(format!(
                    "scenarios must be in [1, {MAX_SCENARIOS}], got {scenarios}"
                )));
            }
            Ok(Request::ScoreEnsemble {
                id: req_str(&v, "id")?,
                failure: req_str(&v, "failure")?,
                dynamic: match v.get("dynamic") {
                    None => None,
                    Some(d) => Some(
                        d.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("field \"dynamic\" must be a string"))?,
                    ),
                },
                scenarios,
                seed: match v.get("seed") {
                    None => 0,
                    Some(s) => s
                        .as_u64()
                        .ok_or_else(|| bad("field \"seed\" must be a non-negative integer"))?,
                },
                placement: match v.get("placement") {
                    None => None,
                    Some(_) => Some(index_list(&v, "placement")?),
                },
                page: parse_page(&v)?,
            })
        }
        "inspect" => Ok(Request::Inspect {
            id: req_str(&v, "id")?,
        }),
        "list" => Ok(Request::List),
        "stats" => Ok(Request::Stats),
        "health" => Ok(Request::Health),
        "evict" => Ok(Request::Evict {
            id: req_str(&v, "id")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(Error::new("unknown_op", format!("unknown op {other:?}"))),
    }
}

/// Canonical cache-key text for a solve query: every field pinned, so two
/// requests that differ only in spelling (defaulted vs explicit fields)
/// coalesce onto the same cached outcome. The anytime fields are
/// appended *only when set*, so keys for unbudgeted queries are
/// byte-identical to the ones this service has always produced (existing
/// memo behavior and golden transcripts are untouched).
pub fn query_key(q: &SolveQuery) -> String {
    let mut key = format!(
        "mode={};method={};k={};max_nodes={}",
        match q.mode {
            Mode::Ppm => "ppm",
            Mode::Apm => "apm",
        },
        q.method.as_str(),
        q.k.to_bits(),
        q.max_nodes
    );
    if let Some(b) = q.budget {
        key.push_str(&format!(";budget={b}"));
    }
    if let Some(d) = q.deadline_ms {
        key.push_str(&format!(";deadline_ms={d}"));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_solve_request() {
        let r = parse_request(
            r#"{"op":"solve","id":"x","mode":"ppm","method":"exact","k":0.8,"page":1,"page_size":10}"#,
        )
        .unwrap();
        match r {
            Request::Solve { id, query, page } => {
                assert_eq!(id, "x");
                assert_eq!(query.mode, Mode::Ppm);
                assert_eq!(query.method, Method::Exact);
                assert_eq!(query.k, 0.8);
                assert_eq!(query.max_nodes, DEFAULT_MAX_NODES);
                assert_eq!(
                    page,
                    Page {
                        page: 1,
                        page_size: 10
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn defaulted_and_explicit_queries_share_a_key() {
        let a = parse_request(r#"{"op":"solve","id":"x","k":0.8}"#).unwrap();
        let b = parse_request(
            r#"{"op":"solve","id":"x","mode":"ppm","method":"exact","k":0.8,"max_nodes":50000}"#,
        )
        .unwrap();
        let (Request::Solve { query: qa, .. }, Request::Solve { query: qb, .. }) = (a, b) else {
            panic!("not solves");
        };
        assert_eq!(query_key(&qa), query_key(&qb));
    }

    #[test]
    fn rejects_out_of_range_k_and_bad_shapes() {
        for (line, code) in [
            (r#"{"op":"solve","id":"x","k":1.5}"#, "bad_request"),
            (r#"{"op":"solve","id":"x","k":-0.1}"#, "bad_request"),
            (r#"{"op":"solve","id":"x"}"#, "bad_request"),
            (r#"{"op":"solve","k":0.5}"#, "bad_request"),
            (r#"{"op":"frobnicate"}"#, "unknown_op"),
            (r#"{"id":"x"}"#, "bad_request"),
            (
                r#"{"op":"solve","id":"x","k":0.5,"page_size":0}"#,
                "bad_request",
            ),
            (r#"{"op":"whatif","id":"x","action":"warp"}"#, "bad_request"),
            (
                r#"{"op":"whatif","id":"x","action":"scale_demand","traffic":0,"factor":-1}"#,
                "bad_request",
            ),
            (r#"not json"#, "parse"),
            (r#"[1,2]"#, "parse"),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code, code, "{line}");
        }
    }

    #[test]
    fn whatif_with_embedded_resolve() {
        let r = parse_request(
            r#"{"op":"whatif","id":"x","action":"fail_link","link":3,"resolve":{"k":0.9}}"#,
        )
        .unwrap();
        match r {
            Request::WhatIf {
                action, resolve, ..
            } => {
                assert_eq!(action, WhatIf::FailLink(3));
                assert_eq!(resolve.unwrap().k, 0.9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_a_score_ensemble_request() {
        let r = parse_request(
            r#"{"op":"score_ensemble","id":"x","failure":"srlg groups=4","dynamic":"dynamic jitter=0.2","scenarios":100,"seed":7,"placement":[0,3],"page_size":16}"#,
        )
        .unwrap();
        match r {
            Request::ScoreEnsemble {
                id,
                failure,
                dynamic,
                scenarios,
                seed,
                placement,
                page,
            } => {
                assert_eq!(id, "x");
                assert_eq!(failure, "srlg groups=4");
                assert_eq!(dynamic.as_deref(), Some("dynamic jitter=0.2"));
                assert_eq!(scenarios, 100);
                assert_eq!(seed, 7);
                assert_eq!(placement, Some(vec![0, 3]));
                assert_eq!(
                    page,
                    Page {
                        page: 0,
                        page_size: 16
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: no dynamic, seed 0, installed-set placement.
        let r = parse_request(r#"{"op":"score_ensemble","id":"x","failure":"srlg","scenarios":1}"#)
            .unwrap();
        match r {
            Request::ScoreEnsemble {
                dynamic,
                seed,
                placement,
                ..
            } => {
                assert_eq!(dynamic, None);
                assert_eq!(seed, 0);
                assert_eq!(placement, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        for line in [
            r#"{"op":"score_ensemble","id":"x","failure":"srlg","scenarios":0}"#,
            r#"{"op":"score_ensemble","id":"x","failure":"srlg","scenarios":5000}"#,
            r#"{"op":"score_ensemble","id":"x","scenarios":1}"#,
            r#"{"op":"score_ensemble","id":"x","failure":"srlg","scenarios":1,"dynamic":7}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().code,
                "bad_request",
                "{line}"
            );
        }
    }

    #[test]
    fn error_renders_as_one_line_json() {
        let e = Error::new("bad_index", "link 99 out of range");
        let s = e.to_json();
        assert_eq!(
            s,
            r#"{"ok":false,"error":{"code":"bad_index","message":"link 99 out of range"}}"#
        );
        assert!(!s.contains('\n'));
    }

    #[test]
    fn overloaded_error_carries_the_retry_hint() {
        let s = Error::overloaded(50).to_json();
        assert!(s.contains(r#""code":"overloaded""#), "{s}");
        assert!(s.contains(r#""retry_after_ms":50"#), "{s}");
        assert!(!s.contains('\n'));
    }

    #[test]
    fn parses_budget_and_deadline_and_keeps_unset_keys_identical() {
        let q = |line: &str| -> SolveQuery {
            match parse_request(line).unwrap() {
                Request::Solve { query, .. } => query,
                other => panic!("unexpected {other:?}"),
            }
        };
        let plain = q(r#"{"op":"solve","id":"x","k":0.8}"#);
        assert_eq!(plain.effective_budget(), None);
        // Unset anytime fields leave the cache key byte-identical to the
        // historical four-field form.
        assert!(
            !query_key(&plain).contains("budget"),
            "{}",
            query_key(&plain)
        );

        let b = q(r#"{"op":"solve","id":"x","k":0.8,"budget":4096}"#);
        assert_eq!(b.effective_budget(), Some(4096));
        assert!(query_key(&b).ends_with(";budget=4096"));
        assert_ne!(query_key(&plain), query_key(&b));

        // A deadline maps through the fixed calibration constant, and the
        // tighter of budget/deadline wins.
        let d = q(r#"{"op":"solve","id":"x","k":0.8,"deadline_ms":3}"#);
        assert_eq!(d.effective_budget(), Some(3 * WORK_UNITS_PER_MS));
        let both = q(r#"{"op":"solve","id":"x","k":0.8,"budget":10,"deadline_ms":3}"#);
        assert_eq!(both.effective_budget(), Some(10));
        assert!(query_key(&both).ends_with(";budget=10;deadline_ms=3"));

        for line in [
            r#"{"op":"solve","id":"x","k":0.8,"budget":0}"#,
            r#"{"op":"solve","id":"x","k":0.8,"budget":-4}"#,
            r#"{"op":"solve","id":"x","k":0.8,"deadline_ms":0}"#,
            r#"{"op":"solve","id":"x","k":0.8,"deadline_ms":1.5}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().code,
                "bad_request",
                "{line}"
            );
        }
    }

    #[test]
    fn parses_health() {
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
    }
}
