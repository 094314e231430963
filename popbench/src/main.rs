//! popbench — the popmon benchmark.
//!
//! ```text
//! popbench --workload serve_whatif|serve_wire|batch_sweep --seed N
//!          --seconds S --trace 0|1 --popmond PATH --trace-dir DIR
//! ```
//!
//! Prints a few `#` note lines (host, thread pinning, sample counts,
//! failed checks), then one JSON object as the last line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones from a
//! separate traced run. Exits 1 when an answer check failed, 2 on bad
//! arguments and 3 when the run could not be made.

mod batch;
mod check;
mod daemon;
mod gen;
mod milp_adapter;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One run's result.
pub struct Report {
    /// Every answer passed its checks.
    pub correct: bool,
    /// Requests or solves attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Metric values; must cover the run's metric table.
    pub metrics: Metrics,
}

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("degraded_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) and their units.
const PER_LAYER: [(&str, &str); 27] = [
    ("popmond.server.transport_us", "us"),
    ("popmond.protocol.parse_us", "us"),
    ("popmond.json.parse_us", "us"),
    ("popmond.json.encode_us", "us"),
    ("popmond.json.response_bytes", "bytes"),
    ("popmond.state.handle_us.p50", "us"),
    ("popmond.state.handle_us.p99", "us"),
    ("popmond.state.self_us", "us"),
    ("popmond.state.memo_hit_ratio", "ratio"),
    ("placement.delta.solve_ms.p50", "ms"),
    ("placement.delta.solve_ms.p99", "ms"),
    ("placement.delta.mutate_us", "us"),
    ("placement.delta.rerouted", "count"),
    ("placement.resilience.score_ms", "ms"),
    ("placement.solve.lp2_ms", "ms"),
    ("placement.passive.mecf_bb_ms", "ms"),
    ("placement.solve.apm_ms", "ms"),
    ("placement.greedy_us", "us"),
    ("placement.instance_ms", "ms"),
    ("placement.devices", "count"),
    ("milp.root_lp.iters", "count"),
    ("milp.root_lp.ms", "ms"),
    ("milp.root_lp.us_per_iter", "us"),
    ("milp.work_units", "count"),
    ("milp.units_per_ms", "1/ms"),
    ("popgen.build_ms", "ms"),
    ("popgen.traffic_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    popmond: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(flag, value);
    }
    let mut take = |flag: &str| raw.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number, got {v:?}"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        popmond: take("--popmond")?.into(),
        trace_dir: take("--trace-dir")?.into(),
    };
    if let Some(flag) = raw.keys().next() {
        return Err(format!("unknown argument {flag}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The host and the thread settings every result depends on.
fn host_note() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpus = read("/proc/cpuinfo")
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let status = read("/proc/self/status");
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("?", str::trim);
    format!(
        "host: nproc={cpus} cpus_allowed={allowed} POPMON_THREADS={}; serve workloads run popmond --threads 1 with one client connection",
        std::env::var("POPMON_THREADS").unwrap_or_default()
    )
}

fn run(args: &Args, notes: &mut Vec<String>) -> Result<Report, String> {
    notes.push(host_note());
    let spans = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if args.trace {
        std::fs::create_dir_all(&args.trace_dir)
            .map_err(|e| format!("creating {}: {e}", args.trace_dir.display()))?;
    }
    let round_seed = |r: u64| gen::splitmix64(args.seed ^ r.wrapping_mul(0x9e37_79b9));
    match (args.workload.as_str(), args.trace) {
        ("serve_whatif", false) => serve::end_to_end(
            "serve_whatif",
            |r| gen::serve_whatif(round_seed(r), WHATIF_BLOCKS),
            rounds(args.seconds, WHATIF_ROUND_S, 7),
            &args.popmond,
            notes,
        ),
        ("serve_whatif", true) => serve::traced(
            "serve_whatif",
            &gen::serve_whatif(round_seed(0), WHATIF_BLOCKS),
            &args.popmond,
            notes,
            &spans,
        ),
        ("serve_wire", false) => serve::end_to_end(
            "serve_wire",
            |r| gen::serve_wire(round_seed(r), WIRE_BLOCKS),
            rounds(args.seconds, WIRE_ROUND_S, 1),
            &args.popmond,
            notes,
        ),
        ("serve_wire", true) => serve::traced(
            "serve_wire",
            &gen::serve_wire(round_seed(0), WIRE_BLOCKS),
            &args.popmond,
            notes,
            &spans,
        ),
        ("batch_sweep", false) => batch::end_to_end(
            |r| gen::batch_grid(round_seed(r)),
            rounds(args.seconds, BATCH_PASS_S, 3),
            notes,
        ),
        ("batch_sweep", true) => batch::traced(&gen::batch_grid(round_seed(0)), notes, &spans),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

/// Rounds of `serve_whatif` (each 2 blocks of 80 requests), and how long
/// one takes on the 2-core reference host. Short rounds put more
/// instances into a run, which averages out how hard each one is.
const WHATIF_BLOCKS: usize = 2;
const WHATIF_ROUND_S: f64 = 1.25;
/// Rounds of `serve_wire` (each 1000 blocks of 20 requests).
const WIRE_BLOCKS: usize = 1000;
const WIRE_ROUND_S: f64 = 1.8;
/// One `batch_sweep` pass over a fresh grid.
const BATCH_PASS_S: f64 = 0.85;

/// How many rounds make a run measure about `seconds` on the reference
/// host: a function of `seconds` alone, so the inputs and every count of
/// a run depend only on its arguments. `min` is the fewest rounds whose
/// samples support the run's percentiles.
fn rounds(seconds: u64, round_s: f64, min: u64) -> u64 {
    ((seconds as f64 / round_s).round() as u64).max(min)
}

/// The result line: every metric of the run's table, with its unit.
fn result_line(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = *report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            r#"{sep}"{name}":{{"value":{value},"unit":"{unit}"}}"#
        );
    }
    Ok(format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
        report.correct, report.attempted, report.failed
    ))
}

fn main() -> ExitCode {
    // One solver thread for every node-LP pool this process starts; the
    // daemon gets the same setting explicitly. Set before any thread
    // exists.
    std::env::set_var("POPMON_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: popbench --workload NAME --seed N --seconds S --trace 0|1 --popmond PATH --trace-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    let mut notes = Vec::new();
    let outcome = run(&args, &mut notes).and_then(|report| {
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        result_line(&report, table).map(|line| (report.correct, line))
    });
    for note in &notes {
        println!("# {note}");
    }
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
