//! Property tests for the MECF flow relaxation ([`FlowBound`]) against a
//! brute-force oracle.
//!
//! Instances are tiny with *integer* volumes and demands so the oracle can
//! enumerate every integral flow: each traffic sends some whole amount of
//! its volume through one allowed edge (installed at cost 0, or free at
//! `1/load` per unit). The relaxation is a min-cost flow with integral
//! capacities and demand, so it has an integral optimum and the
//! enumeration is the true optimum, not a bound. Checked invariants:
//!
//! * **routed amount and cost optimality** — the demand is routed iff the
//!   oracle reaches it, at the oracle's minimum cost;
//! * **accounting** — the flow is integral on every edge, within the
//!   edge's load, and priced at `1/load` per unit;
//! * **monotonicity** — larger demands never get cheaper.

use mcmf::mecf::{EdgeState, FlowBound};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct IntCase {
    num_edges: usize,
    /// `(volume ∈ 0..=3, duplicate-free support)` per traffic.
    traffics: Vec<(f64, Vec<usize>)>,
    /// Per edge: 2 = installed, 3 = forbidden, otherwise free.
    fixings: Vec<u32>,
}

fn int_cases() -> impl Strategy<Value = IntCase> {
    (1usize..=4).prop_flat_map(|ne| {
        (
            proptest::collection::vec((0u32..=3, proptest::collection::vec(0..ne, 1..=3)), 1..=4),
            proptest::collection::vec(0u32..4, ne),
        )
            .prop_map(move |(traffics, fixings)| IntCase {
                num_edges: ne,
                traffics: traffics
                    .into_iter()
                    .map(|(v, mut support)| {
                        support.sort_unstable();
                        support.dedup();
                        (v as f64, support)
                    })
                    .collect(),
                fixings,
            })
    })
}

fn state(f: u32) -> EdgeState {
    match f {
        2 => EdgeState::Installed,
        3 => EdgeState::Forbidden,
        _ => EdgeState::Free,
    }
}

/// The relaxation at the case's fixings.
fn fixed(case: &IntCase) -> FlowBound<'_> {
    let mut fb = FlowBound::new(case.num_edges, &case.traffics);
    for (e, &f) in case.fixings.iter().enumerate() {
        if state(f) != EdgeState::Free {
            fb.goto(fb.trail().len(), Some((e, state(f))));
        }
    }
    fb
}

/// Exhaustive oracle: the minimum cost of every integral routed value
/// `0..=max`, over every choice per traffic of an amount and one allowed
/// edge for it.
fn brute_force(case: &IntCase) -> Vec<f64> {
    let mut load = vec![0.0; case.num_edges];
    for (v, support) in &case.traffics {
        for &e in support {
            load[e] += v;
        }
    }
    let mut best = vec![0.0];
    for (v, support) in &case.traffics {
        // Unit prices of the allowed edges; one is enough per traffic
        // (splitting cannot beat the cheapest), but all are tried.
        let prices: Vec<f64> = support
            .iter()
            .filter_map(|&e| match state(case.fixings[e]) {
                EdgeState::Installed => Some(0.0),
                EdgeState::Forbidden => None,
                EdgeState::Free => (load[e] > 0.0).then(|| 1.0 / load[e]),
            })
            .collect();
        let amounts = if prices.is_empty() { 0 } else { *v as usize };
        let mut next = vec![f64::INFINITY; best.len() + amounts];
        for (value, &cost) in best.iter().enumerate() {
            next[value] = next[value].min(cost);
            for &p in &prices {
                for a in 1..=amounts {
                    next[value + a] = next[value + a].min(cost + a as f64 * p);
                }
            }
        }
        best = next;
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mincost_matches_brute_force_oracle(case in int_cases(), demand in 1u32..=8) {
        let oracle = brute_force(&case);
        let mut fb = fixed(&case);
        match fb.evaluate(demand as f64) {
            Some((cost, routed)) => {
                prop_assert!((demand as usize) < oracle.len(), "routed past the max flow");
                prop_assert!((routed - demand as f64).abs() < 1e-9);
                let want = oracle[demand as usize];
                prop_assert!((cost - want).abs() < 1e-9, "cost {cost} vs oracle {want}");
            }
            None => prop_assert!(
                demand as usize >= oracle.len(),
                "oracle routes {demand} of max {}",
                oracle.len() - 1
            ),
        }
    }

    #[test]
    fn mincost_conserves_flow_and_accounting(case in int_cases(), demand in 1u32..=8) {
        let mut fb = fixed(&case);
        if let Some((cost, routed)) = fb.evaluate(demand as f64) {
            let mut priced = 0.0;
            let mut carried = 0.0;
            for (e, &(_, flow)) in fb.with_flow().iter().enumerate() {
                prop_assert_eq!(flow, flow.round(), "edge {} carries {}", e, flow);
                prop_assert!(flow <= fb.loads()[e]);
                if flow > 0.0 {
                    priced += flow / fb.loads()[e];
                    carried += flow;
                }
            }
            prop_assert!((cost - priced).abs() < 1e-9);
            prop_assert!(carried <= routed);
        }
    }

    #[test]
    fn mincost_cost_is_monotone_in_value(case in int_cases()) {
        // Successively larger demands can never get cheaper (costs are
        // non-negative), and the oracle's per-value optima agree.
        let oracle = brute_force(&case);
        let mut fb = fixed(&case);
        let mut prev = 0.0f64;
        for d in 1..oracle.len() {
            let (cost, _) = fb.evaluate(d as f64).expect("within the max flow");
            prop_assert!((cost - oracle[d]).abs() < 1e-9);
            prop_assert!(cost >= prev - 1e-12, "cost must be monotone in routed value");
            prev = cost;
        }
    }
}
