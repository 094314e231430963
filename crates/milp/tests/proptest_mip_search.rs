//! Property tests for the enriched MIP search: cutting planes, reliability
//! branching, and the batch-synchronous parallel node pool must be
//! *transparent* — they may change how fast the search closes, never what
//! it returns.
//!
//! Instances are random LP2-shaped covering programs (the MECF structure
//! the flow-cover separator targets): binary `x_e` with unit cost, one
//! continuous `δ_t ∈ [0, 1]` per traffic, VUB rows `Σ_{e ∈ S_t} x_e ≥ δ_t`
//! and a coverage row `Σ v_t δ_t ≥ k·V`. Two properties:
//!
//! * **Differential**: the full engine (cuts at root and shallow nodes,
//!   reliability branching, 4-node batches across 2 workers, warm bases)
//!   agrees with a plain serial cut-free search on the objective — and
//!   hence, at `rel_gap = 1e-9` with unit costs, on the device count.
//! * **Determinism**: with a fixed `node_batch` the search trajectory is a
//!   function of the batch sequence alone, so 1 worker and 4 workers must
//!   return byte-identical results — nodes, iterations, objective, and
//!   every solution value.

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

/// The plain reference engine: serial, cut-free, most-infeasible-style
/// pseudocost start with no strong branching.
/// An unbudgeted solve's solution.
fn mip(model: &Model, opts: &MipOptions) -> milp::Result<milp::Solution> {
    model
        .solve_mip(opts, None)
        .and_then(|(out, _)| out.into_solution())
}

fn plain() -> MipOptions {
    MipOptions {
        cut_rounds: 0,
        node_cut_depth: 0,
        reliability: 0,
        strong_cands: 0,
        threads: 1,
        node_batch: 1,
        ..Default::default()
    }
}

/// The full enriched engine at a fixed batch size.
fn enriched(threads: usize) -> MipOptions {
    MipOptions {
        cut_rounds: 4,
        node_cut_depth: 2,
        reliability: 2,
        strong_cands: 4,
        threads,
        node_batch: 4,
        warm_basis: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn enriched_engine_matches_plain_serial_search(inst in instances()) {
        let model = build(&inst);
        let a = mip(&model, &plain()).expect("covering instance is feasible");
        let b = mip(&model, &enriched(2)).expect("covering instance is feasible");
        // Same optimum ...
        prop_assert!(
            (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
            "plain {} vs enriched {}", a.objective, b.objective
        );
        // ... and with unit costs at rel_gap 1e-9, the same device count.
        prop_assert_eq!(a.objective.round() as u64, b.objective.round() as u64);
    }

    #[test]
    fn node_pool_is_deterministic_across_thread_counts(inst in instances()) {
        let model = build(&inst);
        let one = mip(&model, &enriched(1)).expect("feasible");
        let four = mip(&model, &enriched(4)).expect("feasible");
        prop_assert_eq!(one.nodes, four.nodes);
        prop_assert_eq!(one.iterations, four.iterations);
        prop_assert_eq!(one.objective.to_bits(), four.objective.to_bits());
        prop_assert_eq!(one.values.len(), four.values.len());
        for (i, (x, y)) in one.values.iter().zip(&four.values).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "value {} differs", i);
        }
    }
}
