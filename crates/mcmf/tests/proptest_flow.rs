//! Property tests for the MECF flow relaxation ([`FlowBound`]) on random
//! instances under random edge fixings: the flow routes exactly the
//! demand and is priced at `1/load` on free edges, never routes more than
//! the auxiliary graph's max flow, and never gets cheaper when more
//! volume is demanded.

use mcmf::mecf::{EdgeState, FlowBound};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    num_edges: usize,
    /// `(volume, duplicate-free support)` per traffic.
    traffics: Vec<(f64, Vec<usize>)>,
    /// Per edge: 2 = installed, 3 = forbidden, otherwise free.
    fixings: Vec<u32>,
}

fn cases() -> impl Strategy<Value = Case> {
    (1usize..=6).prop_flat_map(|ne| {
        (
            proptest::collection::vec(
                (0.0f64..5.0, proptest::collection::vec(0..ne, 0..=3)),
                0..=8,
            ),
            proptest::collection::vec(0u32..4, ne),
        )
            .prop_map(move |(traffics, fixings)| Case {
                num_edges: ne,
                traffics: traffics
                    .into_iter()
                    .map(|(v, mut support)| {
                        support.sort_unstable();
                        support.dedup();
                        (v, support)
                    })
                    .collect(),
                fixings,
            })
    })
}

/// The relaxation at the case's fixings, applied one edge at a time as a
/// depth-first search would.
fn fixed(case: &Case) -> FlowBound<'_> {
    let mut fb = FlowBound::new(case.num_edges, &case.traffics);
    for (e, &f) in case.fixings.iter().enumerate() {
        let s = match f {
            2 => EdgeState::Installed,
            3 => EdgeState::Forbidden,
            _ => continue,
        };
        fb.goto(fb.trail().len(), Some((e, s)));
    }
    fb
}

/// The auxiliary graph's max flow at the current fixings: every traffic
/// with an allowed edge (installed, or free and loaded) sends its volume.
fn max_flow(fb: &FlowBound, traffics: &[(f64, Vec<usize>)]) -> f64 {
    let allowed = |e: usize| match fb.state()[e] {
        EdgeState::Installed => true,
        EdgeState::Forbidden => false,
        EdgeState::Free => fb.loads()[e] > 1e-12,
    };
    traffics
        .iter()
        .filter(|(_, support)| support.iter().any(|&e| allowed(e)))
        .map(|(v, _)| v)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mincost_flow_conserves_and_prices_consistently(case in cases(), frac in 0.0f64..=1.0) {
        let mut fb = fixed(&case);
        let target = frac * max_flow(&fb, &case.traffics);
        let (cost, routed) = fb.evaluate(target).expect("at most the max flow");
        prop_assert!((routed - target).abs() < 1e-9, "routed {routed} of {target}");
        // Only free, loaded edges carry priced flow, within their load,
        // and the cost is that flow at 1/load per unit.
        let mut priced = 0.0;
        let mut carried = 0.0;
        for (e, &(flagged, flow)) in fb.with_flow().iter().enumerate() {
            prop_assert!(flow >= 0.0);
            if flow > 0.0 {
                prop_assert!(flagged);
                prop_assert!(fb.state()[e] == EdgeState::Free);
                prop_assert!(flow <= fb.loads()[e] + 1e-9);
                priced += flow / fb.loads()[e];
                carried += flow;
            }
        }
        prop_assert!((cost - priced).abs() < 1e-9, "cost {cost} vs priced {priced}");
        prop_assert!(carried <= routed + 1e-9);
    }

    #[test]
    fn mincost_never_exceeds_maxflow(case in cases(), over in 0.0f64..2.0) {
        let mut fb = fixed(&case);
        let max = max_flow(&fb, &case.traffics);
        let target = max + over;
        match fb.evaluate(target) {
            Some((_, routed)) => {
                prop_assert!(over <= 1e-6, "routed {routed} past the max flow {max}");
                prop_assert!(routed <= max + 1e-9);
            }
            None => prop_assert!(over > 1e-6),
        }
    }

    #[test]
    fn more_demand_never_cheaper(case in cases(), a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let mut fb = fixed(&case);
        let max = max_flow(&fb, &case.traffics);
        let (lo, hi) = (a.min(b) * max, a.max(b) * max);
        let (c_lo, _) = fb.evaluate(lo).expect("at most the max flow");
        let (c_hi, _) = fb.evaluate(hi).expect("at most the max flow");
        prop_assert!(c_lo <= c_hi + 1e-12, "{c_lo} at {lo} vs {c_hi} at {hi}");
    }
}
