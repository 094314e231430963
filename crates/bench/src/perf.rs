//! Measured-performance subsystem: machine-readable benchmark reports.
//!
//! The `bench_report` binary runs a fixed grid of named stages (the
//! workspace's hot paths) and serializes the measurements to
//! `BENCH_popmon.json` so performance is a *tracked* quantity: every PR
//! that claims a speedup re-runs the grid and the JSON trajectory shows
//! whether the claim held. See `DESIGN.md` ("The perf subsystem") for the
//! schema and the measurement protocol.
//!
//! The [`BASELINE`] table freezes the numbers measured at the pre-PR-2
//! commit (`ffa26e6`, serial sweeps, Dantzig full-scan simplex pricing) on
//! the reference container; [`BenchReport::to_json`] computes
//! `speedup_vs_baseline` for every stage that already existed then.

use std::time::Instant;

use popmond::json::Value;

/// The report's schema tag (its `"schema"` field).
pub const SCHEMA: &str = "popmon-bench/1";

/// One measured stage of the benchmark grid.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Stage name (stable across PRs — the JSON trajectory joins on it).
    pub name: &'static str,
    /// Total wall-clock seconds across all iterations.
    pub wall_s: f64,
    /// Timed iterations of the whole stage.
    pub iters: u64,
    /// Logical cases processed across all iterations (what a "case" is —
    /// pivots, trees, sweeps — is stage-specific and recorded in `note`).
    pub cases: u64,
    /// Human description of the case unit.
    pub note: &'static str,
}

impl StageResult {
    /// Cases per wall-clock second (0 when nothing was timed).
    pub fn cases_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cases as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs `body` `iters` times, counting the logical cases it reports.
pub fn run_stage(
    name: &'static str,
    note: &'static str,
    iters: u64,
    mut body: impl FnMut() -> u64,
) -> StageResult {
    let mut cases = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters.max(1) {
        cases += body();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    StageResult {
        name,
        wall_s,
        iters: iters.max(1),
        cases,
        note,
    }
}

/// Reference measurements: `(stage, wall_s, cases_per_s)`.
///
/// Most entries were captured with `bench_report --smoke` built at the
/// pre-PR-2 commit (serial sweep loops, full-scan Dantzig pricing, O(m²)
/// BTRAN per simplex iteration) on the reference container. Stages that
/// did not exist then are frozen at the last commit *before* the
/// optimization that targets them (noted per entry), so their speedup
/// still measures the optimization and not a grid change. `wall_s` is the
/// stage's total smoke wall-clock as captured; speedups are computed on
/// the `cases_per_s` *rate*, which stays comparable when a later PR
/// changes a stage's iteration count. Stages added without a capture have
/// no entry and get `null` in `speedup_vs_baseline`.
pub const BASELINE: &[(&str, f64, f64)] = &[
    ("dijkstra_trees_150", 0.000254, 125_880.178),
    ("ksp4_pairs_80", 0.000914, 17_512.981),
    // cases = LP solves (4 solves in 3.708 ms).
    ("simplex_lp2_10router", 0.003708, 1_078.75),
    // cases = LP solves (one 110-second solve, 15_633 Dantzig pivots).
    ("simplex_lp2_15router", 110.040943, 0.009088),
    // The 20/25-router LP2 stages were added together with the sparse-LU
    // simplex core (PR 5); their baselines are one-shot measurements of
    // the dense-inverse core at the PR-4 head (commit beb919a) on the
    // same container, frozen here so the sparse core's scaling claim
    // stays checkable (87.9 s and 807.7 s per solve, respectively).
    ("simplex_lp2_20router", 87.912, 0.011375),
    ("simplex_lp2_25router", 807.698, 0.001238),
    // Frozen at its introduction (PR 6, numerical-robustness pipeline):
    // the stage solves a hostile exact power-of-two rescaling of the
    // 25-router LP2, which the pre-PR-6 core does not solve at all, so
    // there is no earlier measurement to anchor to. The entry exists so
    // the robustness overhead stays visible in the trajectory from here
    // on (one 6.07 s solve on the reference container).
    ("simplex_illcond_25router", 6.065802, 0.165),
    ("greedy_static_15router", 0.000281, 7_115.134),
    ("mecf_bb_15router_k80", 0.848164, 1.179),
    // Scaling-ladder stages, frozen at their introduction (PR 7, enriched
    // MIP search + incremental redundancy pruning): the 50/100-router
    // presets did not exist before, so the entry anchors the trajectory
    // from here on. Both stages run a fixed node budget (25k / 15k), so
    // the rate is a deterministic node-throughput measurement.
    ("exact_scale_50", 2.401, 0.417),
    ("exact_scale_100", 3.033, 0.330),
    // Frozen at its introduction (PR 10, anytime work budgets): the stage
    // did not exist before budgeted solves did, so the entry anchors the
    // trajectory from here on — one 2k-unit degraded solve on the
    // 100-router instance took 0.272 s (3.681 solves/s over the 2-iter
    // smoke run) on the reference container. The rate is deterministic in
    // work units, which is why this stage is gate-stable while the full
    // `exact_scale_100` search (incumbent-luck node counts) is not.
    ("degraded_solve_scale_100", 0.543381, 3.681),
    ("fig7_sweep", 0.814868, 14.726),
    // The three stages below ran with `speedup_vs_baseline: null` from
    // PR 2/3 through PR 4; frozen at their committed PR-4-head
    // BENCH_popmon.json rates so the trajectory is complete from PR 5 on.
    ("fig7_sweep_par4", 0.129509, 92.658),
    ("family_generate_80", 0.014380, 16_689.929),
    ("family_placement_30", 0.282065, 21.272),
    ("fig8_point_k75", 0.370821, 2.697),
    // Captured at the PR-3 head (cold per-point MIP solves, engine grid,
    // memoized per-seed base) just before the warm-start layer landed.
    ("xp_incremental_sweep", 0.382488, 20.916),
    // Frozen at its introduction (PR 8, the popmond resident service):
    // the same 12-request what-if script answered statelessly — per
    // query, rebuild the paper_15/seed-1 instance from its spec, replay
    // the session's mutations, then build and solve a fresh exact model
    // at k = 0.3 — i.e. a batch process per query, which is what the
    // resident warm DeltaInstance chain replaces (60.0 s for one script
    // pass on the reference container; the failed-link states dominate,
    // where a cold solve has no warm vertex to prune from).
    ("popmond_whatif_chain", 60.025598, 0.200),
    // Frozen at its introduction (PR 9, Monte-Carlo resilience
    // campaigns): the same 1000-scenario SRLG ensemble on paper_15
    // scored through `score_ensemble_cold` — an independent PpmInstance
    // rebuilt per scenario — which is what the warm DeltaInstance chain
    // (incremental fail/scale/score/restore, integer hit counters)
    // replaces. One cold pass over the ensemble took 0.154 s on the
    // reference container; the stage's warm rate is gated against this.
    ("resilience_ensemble_1k", 0.153618, 6_509.667),
];

/// A full benchmark run, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"smoke"` (CI-sized grid) or `"full"`.
    pub mode: &'static str,
    /// Worker threads the engine-backed stages were allowed to use.
    pub threads: usize,
    /// Seconds since the Unix epoch when the run finished.
    pub generated_unix: u64,
    pub stages: Vec<StageResult>,
}

impl BenchReport {
    /// Total wall-clock seconds across stages.
    pub fn total_wall_s(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_s).sum()
    }

    /// Serializes the report to the `BENCH_popmon.json` schema
    /// (documented in DESIGN.md) through the workspace's JSON codec
    /// ([`popmond::json`]), one line. Times are rounded to microseconds
    /// and rates to thousandths.
    pub fn to_json(&self) -> String {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                object(vec![
                    ("name", Value::Str(s.name.into())),
                    ("wall_s", rounded(s.wall_s, 6)),
                    ("iters", Value::Num(s.iters as f64)),
                    ("cases", Value::Num(s.cases as f64)),
                    ("cases_per_s", rounded(s.cases_per_s(), 3)),
                    ("note", Value::Str(s.note.into())),
                ])
            })
            .collect();
        let baseline = BASELINE
            .iter()
            .map(|&(name, wall_s, cps)| {
                let entry = object(vec![
                    ("wall_s", rounded(wall_s, 6)),
                    ("cases_per_s", rounded(cps, 3)),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        // Rate-based: cases/s is invariant to iteration-count changes (the
        // baseline and today's grid process identical case units).
        let speedups = self
            .stages
            .iter()
            .map(|s| {
                let speedup = BASELINE
                    .iter()
                    .find(|(n, _, _)| *n == s.name)
                    .filter(|(_, _, cps)| *cps > 0.0)
                    .map_or(Value::Null, |(_, _, cps)| rounded(s.cases_per_s() / cps, 3));
                (s.name.to_string(), speedup)
            })
            .collect();
        let captured_at = "commit ffa26e6 (serial sweeps, full-scan Dantzig pricing); stages \
                           added later frozen pre-optimization (see perf::BASELINE)";
        let mut json = object(vec![
            ("schema", Value::Str(SCHEMA.into())),
            ("mode", Value::Str(self.mode.into())),
            ("threads", Value::Num(self.threads as f64)),
            ("generated_unix", Value::Num(self.generated_unix as f64)),
            ("total_wall_s", rounded(self.total_wall_s(), 6)),
            ("stages", Value::Arr(stages)),
            (
                "baseline",
                object(vec![
                    ("captured_at", Value::Str(captured_at.into())),
                    ("stages", Value::Obj(baseline)),
                ]),
            ),
            ("speedup_vs_baseline", Value::Obj(speedups)),
        ])
        .to_json();
        json.push('\n');
        json
    }
}

/// A JSON object with the given fields, in order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `x` rounded to `decimals` places, as a JSON number.
fn rounded(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Num((x * scale).round() / scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rates() {
        let s = StageResult {
            name: "x",
            wall_s: 2.0,
            iters: 4,
            cases: 10,
            note: "",
        };
        assert!((s.cases_per_s() - 5.0).abs() < 1e-12);
        let z = StageResult {
            name: "x",
            wall_s: 0.0,
            iters: 1,
            cases: 10,
            note: "",
        };
        assert_eq!(z.cases_per_s(), 0.0);
    }

    #[test]
    fn run_stage_accumulates_cases() {
        let s = run_stage("s", "n", 3, || 7);
        assert_eq!(s.iters, 3);
        assert_eq!(s.cases, 21);
        assert!(s.wall_s >= 0.0);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let r = BenchReport {
            mode: "smoke",
            threads: 2,
            generated_unix: 1_753_000_000,
            stages: vec![
                StageResult {
                    name: "a",
                    wall_s: 1.0,
                    iters: 1,
                    cases: 5,
                    note: "cases",
                },
                StageResult {
                    name: "b",
                    wall_s: 0.5,
                    iters: 2,
                    cases: 4,
                    note: "cases",
                },
            ],
        };
        let doc = popmond::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(doc.get("total_wall_s").and_then(Value::as_f64), Some(1.5));
        let stages = doc.get("stages").and_then(Value::as_arr).unwrap();
        assert_eq!(stages[0].get("name").and_then(Value::as_str), Some("a"));
        assert_eq!(
            stages[1].get("cases_per_s").and_then(Value::as_f64),
            Some(8.0)
        );
        assert!(doc.get("speedup_vs_baseline").is_some());
    }
}
