//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary prints CSV to stdout (one row per x-axis point, matching
//! the corresponding paper figure) and accepts:
//!
//! * `--seeds N` — number of seeded runs to average (the paper averages
//!   20; defaults here are smaller so a full regeneration terminates in
//!   minutes — each binary's doc states its default, and `DESIGN.md`'s
//!   experiment index lists the binaries);
//! * `--scale S` — optional instance-size multiplier where meaningful;
//! * `--out PATH` — write the CSV to a file instead of stdout (an
//!   unwritable path is a one-line error and exit code 1, not a panic).

pub mod scenarios;

/// Parsed command-line arguments common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Number of seeds to average over.
    pub seeds: u64,
    /// Free-form scale knob (binaries document their own use).
    pub scale: f64,
    /// Write the CSV to this path instead of stdout.
    pub out: Option<String>,
}

/// Parses the argument list (without the program name) against the common
/// experiment flag set. Returns a descriptive error for unknown flags and
/// malformed or out-of-range values — experiments must never silently run
/// with a mistyped grid.
pub fn parse_args_from(argv: &[String], default_seeds: u64) -> Result<Args, String> {
    let mut args = Args {
        seeds: default_seeds,
        scale: 1.0,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                let raw = argv.get(i).ok_or("--out needs a path")?;
                if raw.is_empty() {
                    return Err("--out needs a non-empty path".into());
                }
                args.out = Some(raw.clone());
            }
            "--seeds" => {
                i += 1;
                let raw = argv.get(i).ok_or("--seeds needs a value")?;
                args.seeds = raw
                    .parse()
                    .map_err(|_| format!("--seeds needs a positive integer, got {raw:?}"))?;
                if args.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--scale" => {
                i += 1;
                let raw = argv.get(i).ok_or("--scale needs a value")?;
                args.scale = raw
                    .parse()
                    .map_err(|_| format!("--scale needs a number, got {raw:?}"))?;
                if !args.scale.is_finite() || args.scale <= 0.0 {
                    return Err(format!(
                        "--scale must be a finite positive number, got {raw:?}"
                    ));
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected --seeds N, --scale S, or --out PATH)"
                ))
            }
        }
        i += 1;
    }
    Ok(args)
}

/// Parses `--seeds N` / `--scale S` from `std::env::args`, with the given
/// default seed count. Prints a usage line and exits non-zero on any
/// unknown flag or malformed value (see [`parse_args_from`]).
pub fn parse_args(default_seeds: u64) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: <bin> [--seeds N] [--scale S] [--out PATH]");
        std::process::exit(0);
    }
    match parse_args_from(&argv, default_seeds) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: <bin> [--seeds N] [--scale S] [--out PATH]");
            std::process::exit(2);
        }
    }
}

/// Fallible core of [`emit_text`]: writes to stdout when `out` is
/// `None`, else to the path in one write. Returns a one-line message on
/// failure — including a closed stdout pipe, which `print!` would turn
/// into a panic with a backtrace.
pub fn try_emit_text(text: &str, out: Option<&str>) -> Result<(), String> {
    use std::io::Write;
    match out {
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("cannot write to stdout: {e}"))
        }
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
    }
}

/// Emits experiment output: to stdout when `out` is `None`, else to the
/// given path in one write. On an unwritable path the process exits with
/// code 1 and a one-line error — never a panic/backtrace, so CI logs stay
/// readable.
pub fn emit_text(text: &str, out: Option<&str>) {
    if let Err(e) = try_emit_text(text, out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// [`emit_text`] for one or more scenario reports (concatenated CSVs, in
/// order — the multi-section binaries emit all sections to one target).
pub fn emit_reports(reports: &[&engine::ScenarioReport], out: Option<&str>) {
    let text: String = reports.iter().map(|r| r.to_csv()).collect();
    emit_text(&text, out);
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two points).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Shared driver for the active-monitoring figures (9, 10, 11): for every
/// candidate-set size `|V_B|` from 2 to the router count, draw seeded
/// random router subsets, compute Φ, and place beacons with all three
/// strategies. Runs through the scenario engine (`POPMON_THREADS` workers
/// or all cores) and prints one CSV row per `|V_B|`; the report is
/// byte-identical to a serial run.
pub fn active_experiment(spec: popgen::PopSpec, args: &Args) {
    let pop = spec.build();
    let (graph, _) = pop.router_subgraph();
    let sizes: Vec<usize> = (2..=graph.node_count()).collect();
    let report = scenarios::active_report(&engine::Engine::from_env(), &graph, &sizes, args.seeds);
    emit_reports(&[&report], args.out.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn try_emit_text_reports_unwritable_paths_instead_of_panicking() {
        let e = try_emit_text("row\n", Some("/nonexistent-dir/out.csv")).unwrap_err();
        assert!(e.contains("/nonexistent-dir/out.csv"), "{e}");
        assert!(!e.contains('\n'), "one-line error, got {e:?}");

        let path = std::env::temp_dir().join("popmon_try_emit_text_test.csv");
        let path_str = path.to_str().unwrap();
        try_emit_text("metric,value\n", Some(path_str)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "metric,value\n");
        let _ = std::fs::remove_file(&path);
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_defaults_and_valid_values() {
        let a = parse_args_from(&[], 7).unwrap();
        assert_eq!(a.seeds, 7);
        assert_eq!(a.scale, 1.0);
        let a = parse_args_from(&argv(&["--seeds", "20", "--scale", "2.5"]), 7).unwrap();
        assert_eq!(a.seeds, 20);
        assert_eq!(a.scale, 2.5);
        // Later occurrences win, as in the serial binaries.
        let a = parse_args_from(&argv(&["--seeds", "3", "--seeds", "9"]), 7).unwrap();
        assert_eq!(a.seeds, 9);
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let e = parse_args_from(&argv(&["--sedes", "3"]), 1).unwrap_err();
        assert!(e.contains("unknown argument"), "{e}");
        let e = parse_args_from(&argv(&["extra"]), 1).unwrap_err();
        assert!(e.contains("unknown argument"), "{e}");
    }

    #[test]
    fn parse_args_rejects_malformed_seeds() {
        for bad in ["abc", "-3", "1.5", ""] {
            let e = parse_args_from(&argv(&["--seeds", bad]), 1).unwrap_err();
            assert!(e.contains("--seeds"), "seeds {bad:?}: {e}");
        }
        let e = parse_args_from(&argv(&["--seeds", "0"]), 1).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_args_from(&argv(&["--seeds"]), 1).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn parse_args_accepts_out_path() {
        let a = parse_args_from(&argv(&["--out", "results.csv"]), 1).unwrap();
        assert_eq!(a.out.as_deref(), Some("results.csv"));
        assert!(parse_args_from(&[], 1).unwrap().out.is_none());
        let e = parse_args_from(&argv(&["--out"]), 1).unwrap_err();
        assert!(e.contains("needs a path"), "{e}");
        let e = parse_args_from(&argv(&["--out", ""]), 1).unwrap_err();
        assert!(e.contains("non-empty"), "{e}");
    }

    #[test]
    fn parse_args_rejects_malformed_scale() {
        for bad in ["abc", "NaN", "inf", "0", "-1", ""] {
            let e = parse_args_from(&argv(&["--scale", bad]), 1).unwrap_err();
            assert!(e.contains("--scale"), "scale {bad:?}: {e}");
        }
        let e = parse_args_from(&argv(&["--scale"]), 1).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }
}
