//! Property tests for the shipped MIP search: presolve, cutting planes
//! and reliability branching must be *transparent* — they may change how
//! fast the search closes, never what it returns.
//!
//! Instances are random LP2-shaped covering programs (the MECF structure
//! the flow-cover separator targets): binary `x_e` with unit cost, one
//! continuous `δ_t ∈ [0, 1]` per traffic, VUB rows `Σ_{e ∈ S_t} x_e ≥ δ_t`
//! and a coverage row `Σ v_t δ_t ≥ k·V`. The property is **differential**:
//! the engine `placement` ships (root cuts, reliability branching, warm
//! bases) finds the device count of a brute-force oracle that enumerates
//! every edge subset and shares no code with `milp`.

use milp::{Cmp, MipOptions, Model, Sense, VarKind};
use proptest::prelude::*;

/// A random covering instance: per-traffic volumes and edge supports
/// (non-empty, so every target `k ≤ 1` is feasible), plus the fraction.
#[derive(Debug, Clone)]
struct Instance {
    num_edges: usize,
    traffics: Vec<(f64, Vec<usize>)>,
    k: f64,
}

fn instances() -> impl Strategy<Value = Instance> {
    (4usize..9, 3usize..10, 0.5f64..1.0).prop_flat_map(|(ne, nt, k)| {
        let support = proptest::collection::vec(0..ne, 1..=ne.min(4));
        let traffic = (1.0f64..9.0, support);
        proptest::collection::vec(traffic, nt).prop_map(move |raw| Instance {
            num_edges: ne,
            traffics: raw
                .into_iter()
                .map(|(v, mut s)| {
                    s.sort_unstable();
                    s.dedup();
                    (v, s)
                })
                .collect(),
            k,
        })
    })
}

/// Builds the LP2-shaped model for an instance.
fn build(inst: &Instance) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<_> = (0..inst.num_edges)
        .map(|e| m.add_var(format!("x{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let total: f64 = inst.traffics.iter().map(|(v, _)| v).sum();
    let mut coverage = Vec::with_capacity(inst.traffics.len());
    for (t, (v, support)) in inst.traffics.iter().enumerate() {
        let d = m.add_var(format!("d{t}"), VarKind::Continuous, 0.0, 1.0, 0.0);
        let mut terms: Vec<_> = support.iter().map(|&e| (xs[e], 1.0)).collect();
        terms.push((d, -1.0));
        m.add_constr(terms, Cmp::Ge, 0.0);
        coverage.push((d, *v));
    }
    m.add_constr(coverage, Cmp::Ge, inst.k * total);
    m
}

/// The fewest edges whose supports cover at least `k·V` of the volume,
/// by enumerating all `2^num_edges` subsets (at most 256 here).
fn brute_force_devices(inst: &Instance) -> u32 {
    let total: f64 = inst.traffics.iter().map(|(v, _)| v).sum();
    let target = inst.k * total;
    (0u32..1 << inst.num_edges)
        .filter(|&mask| {
            let covered: f64 = inst
                .traffics
                .iter()
                .filter(|(_, s)| s.iter().any(|&e| mask >> e & 1 == 1))
                .map(|(v, _)| v)
                .sum();
            covered >= target - 1e-9 * (1.0 + target)
        })
        .map(u32::count_ones)
        .min()
        .expect("every support is non-empty, so all edges cover everything")
}

/// An unbudgeted solve's solution.
fn mip(model: &Model, opts: &MipOptions) -> milp::Result<milp::Solution> {
    model
        .solve_mip(opts, None)
        .and_then(|(out, _)| out.into_solution())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shipped_engine_matches_subset_oracle(inst in instances()) {
        let model = build(&inst);
        let want = brute_force_devices(&inst);
        let got = mip(&model, &MipOptions::default()).expect("covering instance is feasible");
        // Unit costs at rel_gap 1e-9: the objective is the device count.
        prop_assert!(
            (got.objective - f64::from(want)).abs() <= 1e-6,
            "solver {} vs subsets {}", got.objective, want
        );
    }
}
