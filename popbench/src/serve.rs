//! The two workloads served by a `popmond` daemon over loopback.
//!
//! A *round* starts a fresh daemon, sends the set-up lines (loads and
//! priming; timed as `setup_s`), then the measured stream on one
//! closed-loop connection, and shuts the daemon down. Each round of a run
//! has its own inputs, drawn from the run's seed and the round number, so
//! one run averages over many instances; the number of rounds is fixed
//! by `--seconds`, so every count of a run repeats exactly.
//!
//! The traced run drives one round with spans, then replays the same
//! lines in-process through `Service::handle_line` beside one mirror
//! `DeltaInstance` per session, timing each layer the benchmark can call.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::resilience::score_ensemble;
use placement::solve::{self, SolveOutcome, SolveRequest};
use popgen::{DynamicSpec, FailureModel, FailureSpec, Pop, TrafficSpec};
use popmond::json::{self, Value};
use popmond::protocol::{self, Method, Mode, Request, SolveQuery, WhatIf};
use popmond::{Service, ServiceConfig};

use crate::check;
use crate::daemon::Daemon;
use crate::gen::{preset_pop, ServeInputs, SessionDef};
use crate::milp_adapter;
use crate::stats::{self, beyond_p99, median, percentile, MIN_BEYOND_P99};
use crate::trace::Tracer;
use crate::{Metrics, Report};

/// One daemon round.
struct Round {
    setup_s: f64,
    stream_s: f64,
    latencies_ms: Vec<f64>,
    rss_mb: f64,
    setup_resps: Vec<String>,
    resps: Vec<String>,
}

/// Runs one round. With a tracer, each request is a `serve.request` span
/// holding its `serve.call` and `serve.check` spans, and the stream time
/// includes the inline checks.
fn round(
    inputs: &ServeInputs,
    popmond: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(popmond)?;
    let mut client = daemon.connect()?;
    let setup_resps = inputs
        .setup
        .iter()
        .map(|line| client.call(line))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut latencies_ms = Vec::with_capacity(inputs.stream.len());
    let mut resps = Vec::with_capacity(inputs.stream.len());
    let t1 = Instant::now();
    for (j, line) in inputs.stream.iter().enumerate() {
        match tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                resps.push(client.call(line)?);
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Some(tr) => {
                let req = j as u64 + 1;
                let root = tr.begin("serve.request", req);
                let t = Instant::now();
                let resp = tr.span("serve.call", req, || client.call(line))?;
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let _ = tr.span("serve.check", req, || check::check(line, &resp));
                tr.end(root);
                resps.push(resp);
            }
        }
    }
    let stream_s = t1.elapsed().as_secs_f64();
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown(client)?;
    Ok(Round {
        setup_s,
        stream_s,
        latencies_ms,
        rss_mb,
        setup_resps,
        resps,
    })
}

/// Answer checks over a whole round.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    exact: u64,
    degraded: u64,
    devices: u64,
    work_units: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Checks the round's answers; only the measured stream counts
    /// towards `exact`, `degraded` and the sums.
    fn round(&mut self, inputs: &ServeInputs, r: &Round) {
        for (line, resp) in inputs.setup.iter().zip(&r.setup_resps) {
            self.attempted += 1;
            if let Err(e) = check::check(line, resp) {
                self.fail(format!("set-up {line}: {e}"));
            }
        }
        for (line, resp) in inputs.stream.iter().zip(&r.resps) {
            self.attempted += 1;
            match check::check(line, resp) {
                Ok(c) => {
                    self.exact += c.exact as u64;
                    self.degraded += c.degraded as u64;
                    self.devices += c.devices;
                    self.work_units += c.work_spent;
                }
                Err(e) => self.fail(format!("{line}: {e}")),
            }
        }
    }
}

/// The untraced run: `rounds` rounds, round `r` on `inputs(r)`. A run
/// whose latency samples leave fewer than [`MIN_BEYOND_P99`] beyond the
/// p99 is refused.
pub fn end_to_end(
    name: &str,
    inputs: impl Fn(u64) -> ServeInputs,
    rounds: u64,
    popmond: &Path,
    notes: &mut Vec<String>,
) -> Result<Report, String> {
    let mut tally = Tally::default();
    let (mut setups, mut rss, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream_s = 0.0;
    let mut round_ops = Vec::new();
    for r in 0..rounds {
        let inputs = inputs(r);
        let round = round(&inputs, popmond, None)?;
        tally.round(&inputs, &round);
        setups.push(round.setup_s);
        rss.push(round.rss_mb);
        stream_s += round.stream_s;
        round_ops.push(format!(
            "{:.0}",
            inputs.stream.len() as f64 / round.stream_s
        ));
        latencies.extend(round.latencies_ms);
    }
    if beyond_p99(latencies.len()) < MIN_BEYOND_P99 {
        return Err(format!(
            "refused: {} latency samples leave {} beyond p99 (need {MIN_BEYOND_P99})",
            latencies.len(),
            beyond_p99(latencies.len())
        ));
    }
    notes.push(format!(
        "{name}: {rounds} rounds (ops/s per round: {}); latency samples={} ({} beyond p99); setup samples={}",
        round_ops.join(" "),
        latencies.len(),
        beyond_p99(latencies.len()),
        setups.len()
    ));
    if let Some(why) = &tally.first_failure {
        notes.push(format!("check failed: {why}"));
    }
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert("ops_per_s", latencies.len() as f64 / stream_s);
    m.insert("latency_p50_ms", median(&latencies));
    m.insert("latency_p99_ms", percentile(&latencies, 99.0));
    m.insert(
        "ok_frac",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
    );
    m.insert(
        "degraded_frac",
        tally.degraded as f64 / tally.exact.max(1) as f64,
    );
    m.insert("peak_rss_mb", median(&rss));
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// The traced run: an untraced round, a traced round, then the
/// in-process replay with the mirror.
pub fn traced(
    name: &str,
    inputs: &ServeInputs,
    popmond: &Path,
    notes: &mut Vec<String>,
    spans_out: &Path,
) -> Result<Report, String> {
    let plain = round(inputs, popmond, None)?;
    let mut tr = Tracer::default();
    let traced = round(inputs, popmond, Some(&mut tr))?;
    let mut tally = Tally::default();
    tally.round(inputs, &traced);
    let n = inputs.stream.len() as f64;
    notes.push(format!(
        "{name}: tracing overhead: traced ops_per_s={:.1} untraced ops_per_s={:.1}",
        n / traced.stream_s,
        n / plain.stream_s
    ));

    let mut replay = Replay::default();
    replay.run(inputs, &traced.resps, &mut tr, &mut tally)?;
    std::fs::write(
        spans_out,
        tr.to_jsonl().map_err(|e| format!("trace: {e:?}"))?,
    )
    .map_err(|e| format!("writing {}: {e}", spans_out.display()))?;
    notes.push(format!(
        "{name}: {} spans written to {}",
        tr.spans().len(),
        spans_out.display()
    ));
    if let Some(why) = &tally.first_failure {
        notes.push(format!("check failed: {why}"));
    }

    let stream = |span: &str| -> Vec<u64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == span && s.req > 0)
            .map(|s| s.dur())
            .collect()
    };
    let handle = stream("popmond.state.handle_line");
    let mirrored: HashMap<u64, u64> = [
        "placement.delta.solve",
        "placement.delta.mutate",
        "placement.resilience.score",
        "placement.solve.apm",
    ]
    .iter()
    .flat_map(|&name| tr.per_request(name))
    .fold(HashMap::new(), |mut acc, (req, ns)| {
        *acc.entry(req).or_insert(0) += ns;
        acc
    });
    let self_us: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "popmond.state.handle_line" && s.req > 0)
        .map(|s| (s.dur() as f64 - *mirrored.get(&s.req).unwrap_or(&0) as f64) / 1e3)
        .collect();
    let solve_ns = stream("placement.delta.solve");
    let root_lp: Vec<u64> = stream("milp.root_lp");

    let mut m = Metrics::new();
    // Paired per request: the same line's wire latency (untraced round)
    // minus its in-process handling time.
    let transport_us: Vec<f64> = plain
        .latencies_ms
        .iter()
        .zip(&handle)
        .map(|(ms, &ns)| ms * 1e3 - ns as f64 / 1e3)
        .collect();
    m.insert("popmond.server.transport_us", median(&transport_us));
    m.insert(
        "popmond.protocol.parse_us",
        stats::median_ns(&stream("popmond.protocol.parse_request"), 1e3),
    );
    m.insert(
        "popmond.json.parse_us",
        stats::median_ns(&stream("popmond.json.parse"), 1e3),
    );
    m.insert(
        "popmond.json.encode_us",
        stats::median_ns(&stream("popmond.json.encode"), 1e3),
    );
    m.insert(
        "popmond.json.response_bytes",
        replay.response_bytes as f64 / n,
    );
    m.insert(
        "popmond.state.handle_us.p50",
        stats::median_ns(&handle, 1e3),
    );
    m.insert(
        "popmond.state.handle_us.p99",
        stats::percentile_ns(&handle, 99.0, 1e3),
    );
    m.insert("popmond.state.self_us", median(&self_us));
    m.insert("popmond.state.memo_hit_ratio", replay.memo_hit_ratio);
    m.insert(
        "placement.delta.solve_ms.p50",
        stats::median_ns(&solve_ns, 1e6),
    );
    m.insert(
        "placement.delta.solve_ms.p99",
        stats::percentile_ns(&solve_ns, 99.0, 1e6),
    );
    m.insert(
        "placement.delta.mutate_us",
        stats::median_ns(&stream("placement.delta.mutate"), 1e3),
    );
    m.insert("placement.delta.rerouted", replay.rerouted as f64);
    m.insert(
        "placement.resilience.score_ms",
        stats::median_ns(&stream("placement.resilience.score"), 1e6),
    );
    // Batch-only layers: no cold LP2, flow-bound or static greedy call.
    m.insert("placement.solve.lp2_ms", 0.0);
    m.insert("placement.passive.mecf_bb_ms", 0.0);
    m.insert("placement.greedy_us", 0.0);
    m.insert(
        "placement.solve.apm_ms",
        stats::median_ns(&stream("placement.solve.apm"), 1e6),
    );
    m.insert(
        "placement.instance_ms",
        stats::median_ns(&tr.durations("placement.instance"), 1e6),
    );
    m.insert("placement.devices", tally.devices as f64);
    m.insert("milp.root_lp.iters", replay.root_lp_iters as f64);
    m.insert("milp.root_lp.ms", stats::median_ns(&root_lp, 1e6));
    m.insert(
        "milp.root_lp.us_per_iter",
        if replay.root_lp_iters == 0 {
            0.0
        } else {
            root_lp.iter().sum::<u64>() as f64 / 1e3 / replay.root_lp_iters as f64
        },
    );
    m.insert("milp.work_units", tally.work_units as f64);
    m.insert(
        "milp.units_per_ms",
        if replay.degraded_ns == 0 {
            0.0
        } else {
            replay.degraded_work as f64 / (replay.degraded_ns as f64 / 1e6)
        },
    );
    m.insert(
        "popgen.build_ms",
        stats::median_ns(&tr.durations("popgen.build"), 1e6),
    );
    m.insert(
        "popgen.traffic_ms",
        stats::median_ns(&tr.durations("popgen.traffic"), 1e6),
    );
    notes.push(format!(
        "{name}: milp.units_per_ms={:.1} on degraded mirror solves (popmond maps deadlines at WORK_UNITS_PER_MS={})",
        m["milp.units_per_ms"],
        protocol::WORK_UNITS_PER_MS
    ));
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// One mirrored session: the same instance the daemon holds, mutated and
/// solved through the same public calls.
struct MirrorSession {
    pop: Pop,
    delta: DeltaInstance,
    /// PPM answers at the current version, by canonical query key.
    memo: HashMap<String, SolveOutcome>,
    /// APM answers (the router graph never changes).
    apm_memo: HashMap<String, SolveOutcome>,
}

/// The in-process replay and its mirror.
#[derive(Default)]
struct Replay {
    sessions: HashMap<String, MirrorSession>,
    response_bytes: u64,
    rerouted: u64,
    root_lp_iters: u64,
    degraded_work: u64,
    degraded_ns: u64,
    memo_hit_ratio: f64,
}

/// A solve answer reduced to what the service and the mirror must agree
/// on; floats compare by bits.
#[derive(Debug, PartialEq)]
struct Answer {
    feasible: bool,
    placement: Vec<u64>,
    coverage: Option<u64>,
    proven: Option<bool>,
    degraded: Option<(u64, Option<u64>)>,
}

fn answer_of(outcome: &SolveOutcome) -> Answer {
    let mut a = match outcome {
        SolveOutcome::Degraded { partial, .. } => answer_of(partial),
        SolveOutcome::Unreachable => Answer {
            feasible: false,
            placement: Vec::new(),
            coverage: None,
            proven: None,
            degraded: None,
        },
        SolveOutcome::Ppm(s) => Answer {
            feasible: true,
            placement: s.edges.iter().map(|&e| e as u64).collect(),
            coverage: Some(s.coverage.to_bits()),
            proven: Some(s.proven_optimal),
            degraded: None,
        },
        SolveOutcome::Budget(s) => Answer {
            feasible: true,
            placement: s.edges.iter().map(|&e| e as u64).collect(),
            coverage: Some(s.coverage.to_bits()),
            proven: Some(s.proven_optimal),
            degraded: None,
        },
        SolveOutcome::Apm(s) => Answer {
            feasible: true,
            placement: s.beacons.iter().map(|&b| b as u64).collect(),
            coverage: None,
            proven: Some(s.proven_optimal),
            degraded: None,
        },
    };
    if let SolveOutcome::Degraded {
        work_spent, bound, ..
    } = outcome
    {
        a.degraded = Some((*work_spent, bound.is_finite().then(|| bound.to_bits())));
    }
    a
}

fn answer_in(v: &Value) -> Answer {
    let feasible = v.get("feasible").and_then(Value::as_bool) == Some(true);
    Answer {
        feasible,
        placement: v
            .get("placement")
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default(),
        coverage: v.get("coverage").and_then(Value::as_f64).map(f64::to_bits),
        proven: v.get("proven_optimal").and_then(Value::as_bool),
        degraded: (v.get("degraded").and_then(Value::as_bool) == Some(true)).then(|| {
            (
                v.get("work_spent").and_then(Value::as_u64).unwrap_or(0),
                v.get("bound").and_then(Value::as_f64).map(f64::to_bits),
            )
        }),
    }
}

/// The request the service builds for a wire query (see
/// `popmond::state`), rebuilt from the same public pieces.
fn solve_request(q: &SolveQuery) -> SolveRequest {
    let req = match q.mode {
        Mode::Ppm => SolveRequest::ppm(q.k).with_node_budget(q.max_nodes),
        Mode::Apm => SolveRequest::apm(),
    };
    let req = match q.method {
        Method::Greedy => req.greedy(),
        Method::Exact => req.exact(),
    };
    match (q.mode, q.effective_budget()) {
        (Mode::Ppm, Some(units)) => req.with_work_budget(units),
        _ => req,
    }
}

impl Replay {
    fn load(&mut self, s: &SessionDef, tr: &mut Tracer) {
        let pop = tr.span("popgen.build", 0, || preset_pop(s.preset));
        let ts = tr.span("popgen.traffic", 0, || {
            TrafficSpec::default().generate(&pop, s.seed)
        });
        let delta = tr.span("placement.instance", 0, || {
            if s.routed {
                DeltaInstance::from_traffic(&pop.graph, &ts)
            } else {
                DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts))
            }
        });
        self.sessions.insert(
            s.id.clone(),
            MirrorSession {
                pop,
                delta,
                memo: HashMap::new(),
                apm_memo: HashMap::new(),
            },
        );
    }

    fn run(
        &mut self,
        inputs: &ServeInputs,
        daemon_resps: &[String],
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let service = Service::new(ServiceConfig::default());
        for s in &inputs.sessions {
            self.load(s, tr);
        }
        for line in &inputs.setup {
            let reply = service.handle_line(line);
            let v = json::parse(&reply.text).map_err(|e| format!("set-up reply: {e}"))?;
            let req = protocol::parse_request(line).map_err(|e| e.message)?;
            if let Err(e) = self.mirror(&req, &v, tr, 0, false) {
                tally.fail(format!("mirror, set-up {line}: {e}"));
            }
        }
        for (j, (line, daemon)) in inputs.stream.iter().zip(daemon_resps).enumerate() {
            let req_id = j as u64 + 1;
            let root = tr.begin("replay.request", req_id);
            let req = tr.span("popmond.protocol.parse_request", req_id, || {
                protocol::parse_request(line)
            });
            let reply = tr.span("popmond.state.handle_line", req_id, || {
                service.handle_line(line)
            });
            let parsed = tr.span("popmond.json.parse", req_id, || json::parse(&reply.text));
            let v = parsed.map_err(|e| format!("in-process reply: {e}"))?;
            let encoded = tr.span("popmond.json.encode", req_id, || v.to_json());
            self.response_bytes += reply.text.len() as u64;
            let req = req.map_err(|e| e.message)?;
            let mirrored = self.mirror(&req, &v, tr, req_id, true);
            tr.end(root);
            if reply.text != *daemon {
                tally.fail(format!("{line}: daemon and in-process answers differ"));
            }
            if encoded != reply.text {
                tally.fail(format!("{line}: JSON re-encoding changed the answer"));
            }
            if let Err(e) = mirrored {
                tally.fail(format!("mirror, {line}: {e}"));
            }
        }
        let (mut solves, mut coalesced) = (0.0, 0.0);
        for s in &inputs.sessions {
            let v = json::parse(
                &service
                    .handle_line(&format!(r#"{{"op":"inspect","id":"{}"}}"#, s.id))
                    .text,
            )?;
            solves += v.get("solves").and_then(Value::as_f64).unwrap_or(0.0);
            coalesced += v.get("coalesced").and_then(Value::as_f64).unwrap_or(0.0);
        }
        self.memo_hit_ratio = coalesced / (solves + coalesced).max(1.0);
        Ok(())
    }

    /// Solves `q` on session `id` unless the service would answer it from
    /// its memo, in which case the stored answer comes back.
    fn solve(
        &mut self,
        id: &str,
        q: &SolveQuery,
        tr: &mut Tracer,
        req_id: u64,
        probe: bool,
    ) -> Result<SolveOutcome, String> {
        let s = self
            .sessions
            .get_mut(id)
            .ok_or_else(|| format!("no mirror for {id}"))?;
        let key = protocol::query_key(q);
        let memo = match q.mode {
            Mode::Ppm => &s.memo,
            Mode::Apm => &s.apm_memo,
        };
        if let Some(hit) = memo.get(&key) {
            return Ok(hit.clone());
        }
        let request = solve_request(q);
        let outcome = match q.mode {
            Mode::Ppm => {
                let t = Instant::now();
                let out = tr.span("placement.delta.solve", req_id, || s.delta.solve(&request));
                let ns = t.elapsed().as_nanos() as u64;
                let out = out.map_err(|e| e.message)?;
                if let SolveOutcome::Degraded { work_spent, .. } = &out {
                    if probe {
                        self.degraded_work += work_spent;
                        self.degraded_ns += ns;
                    }
                }
                out
            }
            Mode::Apm => {
                let (graph, _) = s.pop.router_subgraph();
                tr.span("placement.solve.apm", req_id, || {
                    solve::solve_apm(&graph, &request)
                })
                .map_err(|e| e.message)?
            }
        };
        if probe && q.mode == Mode::Ppm && q.method == Method::Exact {
            let inst = s.delta.instance();
            let root = tr.span("milp.root_lp", req_id, || {
                milp_adapter::lp2_root(&inst, q.k)
            })?;
            self.root_lp_iters += root.iterations as u64;
        }
        match q.mode {
            Mode::Ppm => s.memo.insert(key, outcome.clone()),
            Mode::Apm => s.apm_memo.insert(key, outcome.clone()),
        };
        Ok(outcome)
    }

    /// Applies one request to the mirror and compares with the service's
    /// answer `v`.
    fn mirror(
        &mut self,
        req: &Request,
        v: &Value,
        tr: &mut Tracer,
        req_id: u64,
        probe: bool,
    ) -> Result<(), String> {
        let compare = |outcome: &SolveOutcome, fields: &Value| {
            let (want, got) = (answer_of(outcome), answer_in(fields));
            if want == got {
                Ok(())
            } else {
                Err(format!("mirror {want:?} but service {got:?}"))
            }
        };
        match req {
            Request::Solve { id, query, .. } => {
                let outcome = self.solve(id, query, tr, req_id, probe)?;
                compare(&outcome, v)
            }
            Request::WhatIf {
                id,
                action,
                resolve,
                ..
            } => {
                let s = self
                    .sessions
                    .get_mut(id.as_str())
                    .ok_or_else(|| format!("no mirror for {id}"))?;
                let rerouted = tr
                    .span("placement.delta.mutate", req_id, || match action {
                        WhatIf::FailLink(e) => s.delta.try_fail_link(*e),
                        WhatIf::RestoreLink(e) => s.delta.try_restore_link(*e),
                        WhatIf::ScaleDemand { t, factor } => {
                            s.delta.try_scale_demand(*t, *factor).map(|()| 0)
                        }
                        other => panic!("the benchmark sends no {other:?}"),
                    })
                    .map_err(|e| e.message)?;
                s.memo.clear();
                self.rerouted += rerouted as u64;
                if v.get("rerouted").and_then(Value::as_u64) != Some(rerouted as u64) {
                    return Err(format!("mirror re-routed {rerouted} traffics"));
                }
                match resolve {
                    Some(q) => {
                        let outcome = self.solve(id, q, tr, req_id, probe)?;
                        compare(&outcome, v.get("resolve").ok_or("no resolve answer")?)
                    }
                    None => Ok(()),
                }
            }
            Request::ScoreEnsemble {
                id,
                failure,
                dynamic,
                scenarios,
                seed,
                placement,
                ..
            } => {
                let s = self
                    .sessions
                    .get_mut(id.as_str())
                    .ok_or_else(|| format!("no mirror for {id}"))?;
                let score = tr.span("placement.resilience.score", req_id, || {
                    let fspec: FailureSpec = failure.parse().map_err(|e| format!("{e:?}"))?;
                    let dspec: Option<DynamicSpec> = match dynamic {
                        Some(line) => Some(line.parse().map_err(|e| format!("{e:?}"))?),
                        None => None,
                    };
                    let model =
                        FailureModel::try_new(&s.pop, &fspec).map_err(|e| format!("{e:?}"))?;
                    let ensemble = model
                        .sample_scenarios(
                            s.delta.traffic_count(),
                            dspec.as_ref(),
                            *scenarios,
                            *seed,
                        )
                        .map_err(|e| format!("{e:?}"))?;
                    let mut placed = placement.clone().unwrap_or_default();
                    placed.sort_unstable();
                    placed.dedup();
                    score_ensemble(&mut s.delta, &placed, &ensemble).map_err(|e| e.message)
                })?;
                let bits = |key: &str| v.get(key).and_then(Value::as_f64).map(f64::to_bits);
                let want = [score.expected_coverage, score.p99_tail, score.worst_case]
                    .map(|x| Some(x.to_bits()));
                if want
                    == [
                        bits("expected_coverage"),
                        bits("p99_tail"),
                        bits("worst_case"),
                    ]
                {
                    Ok(())
                } else {
                    Err("ensemble scores differ".into())
                }
            }
            _ => Ok(()),
        }
    }
}
