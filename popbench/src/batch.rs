//! `batch_sweep`: the paper's cold pipeline on one thread, no daemon.
//!
//! Set-up builds the whole grid (pops, routed traffic, `PpmInstance`s
//! and router subgraphs). A *pass* solves every case once: greedy, LP2
//! under the work budget and the flow-bound branch-and-bound under its
//! node budget on every (paper_10 instance, k); greedy and flow-bound on
//! every (family instance, k); greedy and exact APM on every family
//! router graph. A sweep user waits for the whole pass, so the latency
//! metrics are taken over pass times, not over single solves.

use std::time::Instant;

use netgraph::Graph;
use placement::passive::{greedy_static, solve_ppm_mecf_bb, ExactOptions};
use placement::solve::{solve_apm, solve_instance, SolveOutcome, SolveRequest};
use placement::{PpmInstance, PpmSolution};
use popgen::{GravitySpec, PopSpec, TrafficSpec};

use crate::daemon::peak_rss_mb;
use crate::gen::{BatchGrid, EXACT_BUDGET, FAMILY_K_PERCENTS, FIG7_K_PERCENTS, MECF_MAX_NODES};
use crate::milp_adapter;
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::{Metrics, Report};

/// One built instance of the grid.
struct Built {
    label: String,
    inst: PpmInstance,
    /// Router subgraph, for the APM solves (family instances only).
    routers: Option<Graph>,
}

fn build(grid: &BatchGrid, tr: &mut Tracer) -> Vec<Built> {
    let mut out = Vec::new();
    let instance = |tr: &mut Tracer, graph: &Graph, ts: &popgen::TrafficSet| {
        tr.span("placement.instance", 0, || {
            let inst = PpmInstance::from_traffic(graph, ts);
            std::hint::black_box(inst.merged());
            inst
        })
    };
    let paper = tr.span("popgen.build", 0, || PopSpec::paper_10().build());
    for case in &grid.paper {
        let ts = tr.span("popgen.traffic", 0, || {
            TrafficSpec::default().generate(&paper, case.seed)
        });
        out.push(Built {
            label: format!("paper_10 seed={}", case.seed),
            inst: instance(tr, &paper.graph, &ts),
            routers: None,
        });
    }
    for case in &grid.families {
        let pop = tr
            .span("popgen.build", 0, || case.spec.build(case.seed))
            .expect("canonical family specs are valid");
        let ts = tr.span("popgen.traffic", 0, || {
            GravitySpec::default().generate(&pop, case.seed)
        });
        out.push(Built {
            label: format!("{} seed={}", case.spec, case.seed),
            inst: instance(tr, &pop.graph, &ts),
            routers: Some(pop.router_subgraph().0),
        });
    }
    out
}

/// What one pass answered and every check it failed.
#[derive(Debug, Default)]
struct Pass {
    solves: u64,
    exact: u64,
    degraded: u64,
    devices: u64,
    work_units: u64,
    /// Work and time (ns) of the degraded LP2 solves.
    degraded_work: u64,
    degraded_ns: u64,
    /// Device count per exact answer, in grid order.
    answers: Vec<usize>,
    /// Fewest devices any exact solver answered per (case, k percent).
    best: std::collections::BTreeMap<(usize, u32), usize>,
    failures: Vec<String>,
}

impl Pass {
    fn covers(&mut self, what: &str, inst: &PpmInstance, s: &PpmSolution, k: f64) {
        let target = k * inst.total_volume();
        let got = inst.coverage(&s.edges);
        if got < target * (1.0 - 1e-9) - 1e-9 {
            self.failures
                .push(format!("{what}: coverage {got} below k·V = {target}"));
        }
    }

    fn not_above_greedy(&mut self, what: &str, exact: usize, greedy: usize) {
        if exact > greedy {
            self.failures.push(format!(
                "{what}: exact {exact} devices above greedy {greedy}"
            ));
        }
    }
}

fn mecf_options() -> ExactOptions {
    ExactOptions {
        max_nodes: MECF_MAX_NODES,
        time_limit: None,
        ..ExactOptions::default()
    }
}

/// Solves every case once, checking every answer.
fn pass(built: &[Built], tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    for (case, b) in built.iter().enumerate() {
        let req = case as u64 + 1;
        let ks: &[u32] = if b.routers.is_none() {
            &FIG7_K_PERCENTS
        } else {
            &FAMILY_K_PERCENTS
        };
        for &pct in ks {
            let k = pct as f64 / 100.0;
            let what = format!("{} k={k}", b.label);
            let Some(greedy) = tr.span("placement.greedy", req, || greedy_static(&b.inst, k))
            else {
                p.failures.push(format!("{what}: greedy found no cover"));
                continue;
            };
            p.solves += 1;
            p.covers(&what, &b.inst, &greedy, k);

            let mut proven = Vec::new();
            if b.routers.is_none() {
                let request = SolveRequest::ppm(k).exact().with_work_budget(EXACT_BUDGET);
                let t = Instant::now();
                let out = tr.span("placement.solve.lp2", req, || {
                    solve_instance(&b.inst, &request)
                });
                let ns = t.elapsed().as_nanos() as u64;
                p.solves += 1;
                p.exact += 1;
                let (sol, degraded) = match out {
                    Ok(SolveOutcome::Ppm(s)) => (s, false),
                    Ok(SolveOutcome::Degraded {
                        partial,
                        work_spent,
                        ..
                    }) => match *partial {
                        SolveOutcome::Ppm(s) => {
                            p.work_units += work_spent;
                            p.degraded_work += work_spent;
                            p.degraded_ns += ns;
                            (s, true)
                        }
                        other => {
                            p.failures
                                .push(format!("{what}: LP2 degraded to {other:?}"));
                            continue;
                        }
                    },
                    other => {
                        p.failures.push(format!("{what}: LP2 answered {other:?}"));
                        continue;
                    }
                };
                p.degraded += (degraded || !sol.proven_optimal) as u64;
                p.covers(&format!("{what} LP2"), &b.inst, &sol, k);
                p.not_above_greedy(&what, sol.device_count(), greedy.device_count());
                if sol.proven_optimal {
                    proven.push(sol.device_count());
                }
                p.devices += sol.device_count() as u64;
                p.answers.push(sol.device_count());
                p.best.insert((case, pct), sol.device_count());
            }

            let opts = mecf_options();
            let Some(sol) = tr.span("placement.passive.mecf_bb", req, || {
                solve_ppm_mecf_bb(&b.inst, k, &opts)
            }) else {
                p.failures.push(format!("{what}: mecf_bb found no cover"));
                continue;
            };
            p.solves += 1;
            p.exact += 1;
            p.degraded += !sol.proven_optimal as u64;
            p.covers(&format!("{what} mecf_bb"), &b.inst, &sol, k);
            p.not_above_greedy(&what, sol.device_count(), greedy.device_count());
            if sol.proven_optimal {
                proven.push(sol.device_count());
            }
            if proven.windows(2).any(|w| w[0] != w[1]) {
                p.failures
                    .push(format!("{what}: proven optima disagree: {proven:?}"));
            }
            p.devices += sol.device_count() as u64;
            p.answers.push(sol.device_count());
            let best = p.best.entry((case, pct)).or_insert(usize::MAX);
            *best = (*best).min(sol.device_count());
        }

        if let Some(graph) = &b.routers {
            let greedy = tr.span("placement.apm_greedy", req, || {
                solve_apm(graph, &SolveRequest::apm().greedy())
            });
            let exact = tr.span("placement.solve.apm", req, || {
                solve_apm(graph, &SolveRequest::apm())
            });
            match (greedy, exact) {
                (Ok(SolveOutcome::Apm(g)), Ok(SolveOutcome::Apm(e))) => {
                    p.solves += 2;
                    p.exact += 1;
                    p.degraded += !e.proven_optimal as u64;
                    p.not_above_greedy(
                        &format!("{} APM", b.label),
                        e.beacons.len(),
                        g.beacons.len(),
                    );
                    if e.covered_links != e.router_links {
                        p.failures
                            .push(format!("{} APM: probes miss links", b.label));
                    }
                    p.devices += e.beacons.len() as u64;
                    p.answers.push(e.beacons.len());
                }
                other => p
                    .failures
                    .push(format!("{} APM answered {other:?}", b.label)),
            }
        }
    }
    p
}

/// The untraced run: `passes` rounds of set-up and pass, pass `r` over
/// the grid `grid(r)`.
pub fn end_to_end(
    grid: impl Fn(u64) -> BatchGrid,
    passes: u64,
    notes: &mut Vec<String>,
) -> Result<Report, String> {
    let mut tr = Tracer::disabled();
    let (mut setups, mut pass_ms) = (Vec::new(), Vec::new());
    let (mut solves, mut exact, mut degraded, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut first_failure = None;
    for r in 0..passes {
        let grid = grid(r);
        let t = Instant::now();
        let built = build(&grid, &mut tr);
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let p = pass(&built, &mut tr);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        solves += p.solves;
        exact += p.exact;
        degraded += p.degraded;
        failed += p.failures.len() as u64;
        if first_failure.is_none() {
            first_failure = p.failures.first().cloned();
        }
    }
    notes.push(format!(
        "batch_sweep: {passes} passes, {solves} solves ({exact} exact, {degraded} degraded); setup samples={}",
        setups.len()
    ));
    if let Some(why) = &first_failure {
        notes.push(format!("check failed: {why}"));
    }
    let attempted = solves + failed;
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert(
        "ops_per_s",
        solves as f64 / (pass_ms.iter().sum::<f64>() / 1e3),
    );
    m.insert("latency_p50_ms", median(&pass_ms));
    m.insert("latency_p99_ms", percentile(&pass_ms, 99.0));
    m.insert("ok_frac", solves as f64 / attempted as f64);
    m.insert("degraded_frac", degraded as f64 / exact.max(1) as f64);
    m.insert("peak_rss_mb", peak_rss_mb("/proc/self/status")?);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// The traced run: one untraced pass for the overhead comparison, then
/// set-up and a pass with spans, then the LP2 root relaxations.
pub fn traced(
    grid: &BatchGrid,
    notes: &mut Vec<String>,
    spans_out: &std::path::Path,
) -> Result<Report, String> {
    let built = build(grid, &mut Tracer::disabled());
    let t = Instant::now();
    let plain = pass(&built, &mut Tracer::disabled());
    let plain_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::default();
    let setup = tr.begin("batch.setup", 0);
    let built = build(grid, &mut tr);
    tr.end(setup);
    let t = Instant::now();
    let root = tr.begin("batch.pass", 0);
    let p = pass(&built, &mut tr);
    tr.end(root);
    let traced_s = t.elapsed().as_secs_f64();
    notes.push(format!(
        "batch_sweep: tracing overhead: traced ops_per_s={:.1} untraced ops_per_s={:.1}",
        p.solves as f64 / traced_s,
        plain.solves as f64 / plain_s
    ));

    let mut failures = p.failures.clone();
    if plain.answers != p.answers {
        failures.push("traced and untraced passes answered differently".into());
    }
    // Root relaxations of every LP2 case, checked as lower bounds on the
    // proven optimum the pass found.
    let mut iters = 0u64;
    for (case, b) in built
        .iter()
        .enumerate()
        .filter(|(_, b)| b.routers.is_none())
    {
        for &pct in &FIG7_K_PERCENTS {
            let k = pct as f64 / 100.0;
            let lp = tr.span("milp.root_lp", case as u64 + 1, || {
                milp_adapter::lp2_root(&b.inst, k)
            })?;
            iters += lp.iterations as u64;
            if let Some(&best) = p.best.get(&(case, pct)) {
                if lp.objective > best as f64 + 1e-6 {
                    failures.push(format!(
                        "{} k={k}: root LP {} above an answer of {best}",
                        b.label, lp.objective
                    ));
                }
            }
        }
    }
    std::fs::write(
        spans_out,
        tr.to_jsonl().map_err(|e| format!("trace: {e:?}"))?,
    )
    .map_err(|e| format!("writing {}: {e}", spans_out.display()))?;
    notes.push(format!(
        "batch_sweep: {} spans written to {}",
        tr.spans().len(),
        spans_out.display()
    ));
    if let Some(why) = failures.first() {
        notes.push(format!("check failed: {why}"));
    }

    let ms = |name: &str| stats::median_ns(&tr.durations(name), 1e6);
    let root_ns: u64 = tr.durations("milp.root_lp").iter().sum();
    let mut m = Metrics::new();
    for name in [
        "popmond.server.transport_us",
        "popmond.protocol.parse_us",
        "popmond.json.parse_us",
        "popmond.json.encode_us",
        "popmond.json.response_bytes",
        "popmond.state.handle_us.p50",
        "popmond.state.handle_us.p99",
        "popmond.state.self_us",
        "popmond.state.memo_hit_ratio",
        "placement.delta.solve_ms.p50",
        "placement.delta.solve_ms.p99",
        "placement.delta.mutate_us",
        "placement.delta.rerouted",
        "placement.resilience.score_ms",
    ] {
        // No daemon, no service and no delta chain run in this workload.
        m.insert(name, 0.0);
    }
    m.insert("placement.solve.lp2_ms", ms("placement.solve.lp2"));
    m.insert(
        "placement.passive.mecf_bb_ms",
        ms("placement.passive.mecf_bb"),
    );
    m.insert("placement.solve.apm_ms", ms("placement.solve.apm"));
    m.insert(
        "placement.greedy_us",
        stats::median_ns(&tr.durations("placement.greedy"), 1e3),
    );
    m.insert("placement.instance_ms", ms("placement.instance"));
    m.insert("placement.devices", p.devices as f64);
    m.insert("milp.root_lp.iters", iters as f64);
    m.insert("milp.root_lp.ms", ms("milp.root_lp"));
    m.insert(
        "milp.root_lp.us_per_iter",
        root_ns as f64 / 1e3 / iters.max(1) as f64,
    );
    m.insert("milp.work_units", p.work_units as f64);
    m.insert(
        "milp.units_per_ms",
        p.degraded_work as f64 / (p.degraded_ns.max(1) as f64 / 1e6),
    );
    m.insert("popgen.build_ms", ms("popgen.build"));
    m.insert("popgen.traffic_ms", ms("popgen.traffic"));
    notes.push(format!(
        "batch_sweep: milp.units_per_ms={:.1} on degraded LP2 solves (popmond maps deadlines at WORK_UNITS_PER_MS={})",
        m["milp.units_per_ms"],
        popmond::protocol::WORK_UNITS_PER_MS
    ));
    let failed = failures.len() as u64;
    Ok(Report {
        correct: failed == 0,
        attempted: p.solves + plain.solves + failed,
        failed,
        metrics: m,
    })
}
