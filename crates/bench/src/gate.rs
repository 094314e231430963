//! The perf-trajectory gate: compares a freshly measured
//! `BENCH_popmon.json` against the committed one and fails on real
//! regressions, so the measured-speed claims of past PRs stay true.
//!
//! The comparison is on `cases_per_s` per stage — the rate survives
//! iteration-count changes — and only over [`STABLE_STAGES`]: stages
//! whose smoke wall-clock is long enough that shared-runner noise stays
//! well under the failure threshold. Sub-millisecond substrate stages and
//! the `*_par4` scaling stage (which depends on the runner's core count)
//! are tracked in the JSON but not gated.

use popmond::json::{self, Value};

use crate::perf::SCHEMA;

/// Stages compared by the gate: deterministic solver-bound stages with
/// tens of milliseconds (or more) of smoke wall-clock each.
pub const STABLE_STAGES: &[&str] = &[
    "simplex_lp2_10router",
    "simplex_lp2_15router",
    "simplex_lp2_20router",
    "simplex_lp2_25router",
    "simplex_illcond_25router",
    "mecf_bb_15router_k80",
    "exact_scale_50",
    "degraded_solve_scale_100",
    "fig7_sweep",
    "fig8_point_k75",
    "xp_incremental_sweep",
    "family_placement_30",
    "popmond_whatif_chain",
    "resilience_ensemble_1k",
];

/// One regression found by [`compare_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Stage name.
    pub stage: String,
    /// Committed (baseline) cases/s.
    pub committed: f64,
    /// Freshly measured cases/s.
    pub fresh: f64,
    /// Regression in percent (positive = slower).
    pub loss_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.3} -> {:.3} cases/s ({:.1}% regression)",
            self.stage, self.committed, self.fresh, self.loss_pct
        )
    }
}

/// Extracts `(name, cases_per_s)` for every entry of the `"stages"` array
/// of a `popmon-bench/1` report, parsed with the workspace's JSON codec
/// ([`popmond::json`]). Anything that is not such a report is a
/// descriptive `Err`, never a wrong answer.
pub fn parse_stage_rates(json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(json).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} report (missing schema marker)"));
    }
    let stages = doc
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no \"stages\" array in report".to_string())?;
    let mut out = Vec::with_capacity(stages.len());
    for stage in stages {
        let name = stage
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("stage entry without a name: {}", stage.to_json()))?;
        let rate = stage
            .get("cases_per_s")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("stage {name:?} without cases_per_s"))?;
        if !rate.is_finite() || rate < 0.0 {
            return Err(format!("stage {name:?} has invalid cases_per_s {rate}"));
        }
        out.push((name.to_string(), rate));
    }
    if out.is_empty() {
        return Err("report has an empty \"stages\" array".into());
    }
    Ok(out)
}

/// Compares fresh rates against committed ones over the stable stages
/// present in **both** reports (a stage added or dropped by this very PR
/// cannot regress). Returns the regressions beyond `threshold_pct`.
pub fn compare_reports(
    committed: &[(String, f64)],
    fresh: &[(String, f64)],
    threshold_pct: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for stage in STABLE_STAGES {
        let old = committed.iter().find(|(n, _)| n == stage).map(|&(_, r)| r);
        let new = fresh.iter().find(|(n, _)| n == stage).map(|&(_, r)| r);
        let (Some(old), Some(new)) = (old, new) else {
            continue;
        };
        if old <= 0.0 {
            continue; // a zero-rate baseline cannot regress meaningfully
        }
        let loss_pct = 100.0 * (old - new) / old;
        if loss_pct > threshold_pct {
            regressions.push(Regression {
                stage: stage.to_string(),
                committed: old,
                fresh: new,
                loss_pct,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{BenchReport, StageResult};

    fn report(rates: &[(&'static str, f64)]) -> String {
        report_with_note(rates, "cases")
    }

    fn report_with_note(rates: &[(&'static str, f64)], note: &'static str) -> String {
        BenchReport {
            mode: "smoke",
            threads: 1,
            generated_unix: 1_753_000_000,
            stages: rates
                .iter()
                .map(|&(name, cps)| StageResult {
                    name,
                    wall_s: if cps > 0.0 { 10.0 / cps } else { 0.0 },
                    iters: 1,
                    cases: 10,
                    note,
                })
                .collect(),
        }
        .to_json()
    }

    #[test]
    fn parses_real_reports() {
        let json = report(&[("fig7_sweep", 36.0), ("fig8_point_k75", 2.7)]);
        let rates = parse_stage_rates(&json).unwrap();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, "fig7_sweep");
        assert!((rates[0].1 - 36.0).abs() < 1e-3);
        assert!((rates[1].1 - 2.7).abs() < 1e-3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_stage_rates("{}").is_err());
        assert!(parse_stage_rates("\"schema\": \"popmon-bench/1\"").is_err());
        let no_stages = report(&[]).replace("\"stages\":[", "\"stagex\":[");
        assert!(parse_stage_rates(&no_stages).is_err());
        assert!(parse_stage_rates(&report(&[])).is_err());
    }

    #[test]
    fn notes_with_quotes_and_backslashes_round_trip() {
        let note = r#"cases = "LP solves" under C:\popmon"#;
        let json = report_with_note(&[("fig7_sweep", 36.0)], note);
        let doc = json::parse(&json).expect("the report is valid JSON");
        let stages = doc.get("stages").and_then(Value::as_arr).unwrap();
        assert_eq!(stages[0].get("note").and_then(Value::as_str), Some(note));
        let rates = parse_stage_rates(&json).unwrap();
        assert_eq!(rates, vec![("fig7_sweep".to_string(), 36.0)]);
    }

    #[test]
    fn parses_the_committed_report() {
        let committed = include_str!("../../../BENCH_popmon.json");
        let rates = parse_stage_rates(committed).unwrap();
        assert!(rates.iter().any(|(name, _)| name == "fig7_sweep"));
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let committed = parse_stage_rates(&report(&[
            ("fig7_sweep", 40.0),
            ("fig8_point_k75", 4.0),
            ("xp_incremental_sweep", 70.0),
        ]))
        .unwrap();
        // fig7 within threshold (-20%), fig8 beyond (-50%), incremental improved.
        let fresh = parse_stage_rates(&report(&[
            ("fig7_sweep", 32.0),
            ("fig8_point_k75", 2.0),
            ("xp_incremental_sweep", 90.0),
        ]))
        .unwrap();
        let r = compare_reports(&committed, &fresh, 25.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].stage, "fig8_point_k75");
        assert!((r[0].loss_pct - 50.0).abs() < 1e-9);
        assert!(r[0].to_string().contains("50.0% regression"));
    }

    #[test]
    fn unstable_and_unshared_stages_are_ignored() {
        let committed = parse_stage_rates(&report(&[
            ("fig7_sweep_par4", 100.0), // not a stable stage
            ("fig7_sweep", 40.0),
            ("mecf_bb_15router_k80", 1.2), // absent from fresh
        ]))
        .unwrap();
        let fresh =
            parse_stage_rates(&report(&[("fig7_sweep_par4", 1.0), ("fig7_sweep", 39.0)])).unwrap();
        assert!(compare_reports(&committed, &fresh, 25.0).is_empty());
    }
}
