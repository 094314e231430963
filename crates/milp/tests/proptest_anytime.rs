//! Property tests for the anytime contract of the budgeted MIP search.
//!
//! Instances are the same random LP2-shaped covering programs as
//! `proptest_mip_search` (binary `x_e` with unit cost, VUB rows, one
//! coverage row). The engine is the one `placement` ships (default cuts
//! and reliability branching), the search every exact PPM solve runs,
//! one-shot or chained. For every instance the uninterrupted optimum is
//! solved once, then the budgeted search must uphold three properties:
//!
//! * **Sandwich**: any budget yields an outcome with
//!   `bound ≤ optimal ≤ incumbent.objective` (minimization) — an
//!   interrupted solve always carries a valid quality certificate.
//! * **Monotone**: growing the budget never worsens the incumbent.
//! * **Reproduction**: a budget at least the one-shot solve's own
//!   [`Solution::work`] reproduces that solve **bitwise** — budgeting is
//!   a wrapper, never a perturbation.

use milp::{Cmp, MipOptions, MipOutcome, Model, Sense, Solution, VarKind};
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

/// The shipped engine with an optional work budget.
fn engine(work_budget: Option<u64>) -> MipOptions {
    MipOptions {
        work_budget,
        ..Default::default()
    }
}

fn assert_solutions_bitwise(a: &Solution, b: &Solution) {
    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    prop_assert_eq!(a.iterations, b.iterations);
    prop_assert_eq!(a.nodes, b.nodes);
    prop_assert_eq!(a.work, b.work);
    prop_assert_eq!(a.values.len(), b.values.len());
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "value {} differs", i);
    }
}

/// Incumbent objective for monotonicity checks; no incumbent counts as
/// `+inf` (minimization: any later incumbent is an improvement).
fn incumbent_objective(o: &MipOutcome) -> f64 {
    o.solution().map_or(f64::INFINITY, |s| s.objective)
}

/// The three anytime properties of one instance.
fn check_anytime(model: &Model) {
    let opt = model
        .solve_mip(&engine(None), None)
        .and_then(|(out, _)| out.into_solution())
        .expect("covering instance is feasible");
    let tol = 1e-6 * (1.0 + opt.objective.abs());

    // A deterministic budget ladder derived from the one-shot cost:
    // starved, partial, half, and exactly the full amount.
    let ladder = [1u64, (opt.work / 4).max(1), (opt.work / 2).max(1), opt.work];

    let mut last_incumbent = f64::INFINITY;
    for &budget in &ladder {
        let (out, _) = model
            .solve_mip(&engine(Some(budget)), None)
            .expect("budgeted solve never errors on a feasible instance");

        // (a) the sandwich: bound ≤ optimal ≤ incumbent.
        match &out {
            MipOutcome::Complete(s) => {
                prop_assert!(
                    (s.objective - opt.objective).abs() <= tol,
                    "complete-under-budget disagrees with optimum: {} vs {}",
                    s.objective,
                    opt.objective
                );
            }
            MipOutcome::Interrupted {
                incumbent,
                bound,
                work_spent,
            } => {
                prop_assert!(*work_spent >= 1, "interruption must charge work");
                prop_assert!(
                    *bound <= opt.objective + tol,
                    "dual bound {} exceeds the optimum {}",
                    bound,
                    opt.objective
                );
                if let Some(s) = incumbent {
                    prop_assert!(
                        s.objective >= opt.objective - tol,
                        "incumbent {} beats the proven optimum {}",
                        s.objective,
                        opt.objective
                    );
                }
            }
        }

        // (b) monotone: a larger budget never worsens the incumbent.
        let cur = incumbent_objective(&out);
        prop_assert!(
            cur <= last_incumbent + tol,
            "incumbent worsened as the budget grew: {} -> {}",
            last_incumbent,
            cur
        );
        last_incumbent = cur;
    }

    // (c) reproduction: budget == one-shot work yields Complete and
    // reproduces the unbudgeted solve bitwise.
    let (full, _) = model
        .solve_mip(&engine(Some(opt.work)), None)
        .expect("feasible");
    match full {
        MipOutcome::Complete(s) => assert_solutions_bitwise(&s, &opt),
        MipOutcome::Interrupted { work_spent, .. } => prop_assert!(
            false,
            "budget equal to the one-shot work ({}) still tripped at {}",
            opt.work,
            work_spent
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budgets_are_anytime_monotone_and_reproducing(inst in instances()) {
        check_anytime(&build(&inst));
    }
}
