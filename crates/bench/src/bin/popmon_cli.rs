//! `popmon-cli` — plan a monitoring deployment from a topology file.
//!
//! The operator-facing entry point: feed it a topology + traffic document
//! in the `popgen::fileio` text format (convertible from Rocketfuel-style
//! data) and get device placements back as CSV.
//!
//! ```text
//! popmon_cli passive  <file> [k]          # tap placement (default k = 0.95)
//! popmon_cli sampling <file> [k] [h]      # PPME(h, k) with unit costs
//! popmon_cli active   <file>              # beacon placement on the routers
//! popmon_cli generate [routers]           # emit a preset POP document
//! popmon_cli family   <spec> [seed]       # emit a random-family document
//! popmon_cli inspect  <file>              # summarize a topology document
//! ```
//!
//! `family` takes a `popgen::families::FamilySpec` line, e.g.
//! `"waxman routers=30 endpoints=15 density=0.6"` — see `popgen::families`
//! for the full key set per family.

use std::process::ExitCode;

use placement::active::{
    assign_probes_greedy, compute_probes, place_beacons_greedy, place_beacons_ilp,
    place_beacons_thiran,
};
use placement::instance::PpmInstance;
use placement::passive::{greedy_static, solve_ppm_mecf_bb, ExactOptions};
use placement::sampling::{solve_ppme, SamplingProblem};
use popgen::{fileio, Pop, PopSpec, TrafficSet, TrafficSpec};

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().collect();
    let usage = || {
        eprintln!(
            "usage: popmon_cli <passive|sampling|active|inspect> <topology-file> [args] \
             | popmon_cli generate [routers] | popmon_cli family <spec> [seed] \
             (document-emitting commands accept --out PATH)"
        );
        ExitCode::from(2)
    };
    // `--out PATH` may appear anywhere; strip it before positional parsing.
    let out: Option<String> = match argv.iter().position(|a| a == "--out") {
        None => None,
        Some(i) if i + 1 < argv.len() => {
            let path = argv.remove(i + 1);
            argv.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("error: --out needs a path");
            return usage();
        }
    };
    let Some(cmd) = argv.get(1) else {
        return usage();
    };

    match cmd.as_str() {
        "family" => {
            let Some(spec_line) = argv.get(2) else {
                return usage();
            };
            let spec: popgen::FamilySpec = match spec_line.parse() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    eprintln!("example: popmon_cli family \"waxman routers=30 endpoints=15 density=0.6\" 7");
                    return ExitCode::FAILURE;
                }
            };
            let seed: u64 = match argv.get(3).map(|s| s.parse()) {
                None => 0,
                Some(Ok(s)) => s,
                Some(Err(_)) => {
                    eprintln!("error: seed must be a non-negative integer");
                    return ExitCode::FAILURE;
                }
            };
            match popgen::families::emit_document(&spec, seed) {
                Ok(doc) => emit(&doc, out.as_deref()),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "generate" => {
            let routers: usize = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
            let spec = match routers {
                0..=7 => PopSpec::small(),
                8..=12 => PopSpec::paper_10(),
                13..=20 => PopSpec::paper_15(),
                21..=50 => PopSpec::paper_29(),
                51..=100 => PopSpec::paper_80(),
                _ => PopSpec::large_150(),
            };
            let pop = spec.build();
            let ts = TrafficSpec::default().generate(&pop, 42);
            emit(&fileio::serialize(&pop, &ts), out.as_deref())
        }
        "passive" | "sampling" | "active" | "inspect" => {
            let Some(path) = argv.get(2) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (pop, ts) = match fileio::parse(&text) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd.as_str() {
                "passive" => passive(&pop, &ts, parse_f64(&argv, 3, 0.95)),
                "sampling" => sampling(
                    &pop,
                    &ts,
                    parse_f64(&argv, 3, 0.9),
                    parse_f64(&argv, 4, 0.0),
                ),
                "inspect" => inspect(&pop, &ts, out.as_deref()),
                _ => active(&pop),
            }
        }
        _ => usage(),
    }
}

/// Routes document output through the experiment binaries' fallible
/// emitter: an unwritable `--out` path (or a closed stdout pipe) is a
/// one-line error and exit code 1, never a panic.
fn emit(text: &str, out: Option<&str>) -> ExitCode {
    match popmon_bench::try_emit_text(text, out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_f64(argv: &[String], idx: usize, default: f64) -> f64 {
    argv.get(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn passive(pop: &Pop, ts: &TrafficSet, k: f64) -> ExitCode {
    let inst = PpmInstance::from_traffic(&pop.graph, ts);
    eprintln!(
        "# passive placement: {} links, {} traffics, k = {k}",
        inst.num_edges,
        inst.traffics.len()
    );
    let Some(greedy) = greedy_static(&inst, k) else {
        eprintln!("error: target unreachable (uncoverable traffic exceeds 1 - k)");
        return ExitCode::FAILURE;
    };
    let opts = ExactOptions {
        max_nodes: 1_000_000,
        ..Default::default()
    };
    let exact = solve_ppm_mecf_bb(&inst, k, &opts).expect("greedy succeeded, so must B&B");
    eprintln!(
        "# greedy: {} devices; exact: {} devices{}",
        greedy.device_count(),
        exact.device_count(),
        if exact.proven_optimal {
            " (proven optimal)"
        } else {
            " (best found)"
        }
    );
    println!("link_u,link_v");
    for &e in &exact.edges {
        let (u, v) = pop.graph.endpoints(netgraph::EdgeId(e as u32));
        println!("{},{}", pop.graph.label(u), pop.graph.label(v));
    }
    ExitCode::SUCCESS
}

fn sampling(pop: &Pop, ts: &TrafficSet, k: f64, h: f64) -> ExitCode {
    let ne = pop.graph.edge_count();
    let (ci, ce) = SamplingProblem::uniform_costs(ne);
    let prob = SamplingProblem::from_traffic_set(&pop.graph, ts, h, k, ci, ce);
    let opts = ExactOptions {
        max_nodes: 200_000,
        rel_gap: 0.02,
        ..Default::default()
    };
    let Some(sol) = solve_ppme(&prob, &opts) else {
        eprintln!("error: PPME(h = {h}, k = {k}) is infeasible on this input");
        return ExitCode::FAILURE;
    };
    if let Err(e) = prob.check_solution(&sol.installed, &sol.rates, 1e-5) {
        eprintln!("internal error: produced an invalid plan: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "# PPME(h = {h}, k = {k}): {} devices, setup {:.2}, exploitation {:.2}{}",
        sol.device_count(),
        sol.setup_cost,
        sol.exploit_cost,
        if sol.proven_optimal {
            ""
        } else {
            " (within 2% of optimal)"
        }
    );
    println!("link_u,link_v,sampling_rate_percent");
    for e in 0..ne {
        if sol.installed[e] {
            let (u, v) = pop.graph.endpoints(netgraph::EdgeId(e as u32));
            println!(
                "{},{},{:.1}",
                pop.graph.label(u),
                pop.graph.label(v),
                100.0 * sol.rates[e]
            );
        }
    }
    ExitCode::SUCCESS
}

/// Summarizes a topology document: tier sizes, link stats, traffic mass,
/// and how hard the monitoring problem it encodes is (load concentration,
/// uncoverable share). CSV `metric,value` rows for scripting.
fn inspect(pop: &Pop, ts: &TrafficSet, out: Option<&str>) -> ExitCode {
    use std::fmt::Write as _;
    let g = &pop.graph;
    let inst = PpmInstance::from_traffic(g, ts);
    let router_degrees: Vec<usize> = pop
        .backbone
        .iter()
        .chain(pop.access.iter())
        .map(|&r| g.degree(r))
        .collect();
    let max_deg = router_degrees.iter().copied().max().unwrap_or(0);
    let mean_deg = if router_degrees.is_empty() {
        0.0
    } else {
        router_degrees.iter().sum::<usize>() as f64 / router_degrees.len() as f64
    };
    let loads = inst.edge_loads();
    let total = inst.total_volume();
    let top_load = loads.iter().cloned().fold(0.0, f64::max);
    let mut doc = String::new();
    let _ = writeln!(doc, "metric,value");
    let _ = writeln!(doc, "backbone_routers,{}", pop.backbone.len());
    let _ = writeln!(doc, "access_routers,{}", pop.access.len());
    let _ = writeln!(doc, "endpoints,{}", pop.endpoints.len());
    let _ = writeln!(doc, "links,{}", g.edge_count());
    let _ = writeln!(doc, "router_degree_mean,{mean_deg:.2}");
    let _ = writeln!(doc, "router_degree_max,{max_deg}");
    let _ = writeln!(doc, "traffics,{}", ts.len());
    let _ = writeln!(doc, "total_volume,{total:.3}");
    let _ = writeln!(
        doc,
        "top_link_load_fraction,{:.4}",
        if total > 0.0 { top_load / total } else { 0.0 }
    );
    let _ = writeln!(
        doc,
        "max_coverage_fraction,{:.4}",
        inst.max_coverage_fraction()
    );
    emit(&doc, out)
}

fn active(pop: &Pop) -> ExitCode {
    let (graph, _) = pop.router_subgraph();
    let candidates: Vec<_> = graph.nodes().collect();
    let probes = compute_probes(&graph, &candidates);
    eprintln!(
        "# active monitoring: {} routers, {} probes cover {}/{} router links",
        graph.node_count(),
        probes.len(),
        probes.covered.iter().filter(|&&c| c).count(),
        graph.edge_count()
    );
    let thiran = place_beacons_thiran(&probes, &candidates);
    let greedy = place_beacons_greedy(&probes, &candidates);
    let ilp = place_beacons_ilp(&graph, &probes, &candidates);
    eprintln!(
        "# beacons: Thiran[15] {}, greedy {}, ILP {}{}",
        thiran.len(),
        greedy.len(),
        ilp.len(),
        if ilp.proven_optimal {
            " (proven optimal)"
        } else {
            ""
        }
    );
    let assignment = assign_probes_greedy(&probes, &ilp);
    println!("beacon,probes_emitted");
    for (b, load) in ilp.beacons.iter().zip(&assignment.load) {
        println!("{},{load}", graph.label(*b));
    }
    ExitCode::SUCCESS
}
