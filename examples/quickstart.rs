//! Quickstart: generate a POP, route a traffic matrix, and place passive
//! monitors with the greedy heuristic and the exact ILP.
//!
//! Run with: `cargo run --release --example quickstart`

use popmon::placement::instance::PpmInstance;
use popmon::placement::passive::greedy_static;
use popmon::placement::solve::{solve_instance, SolveRequest};
use popmon::popgen::{PopSpec, TrafficSpec};

fn main() {
    // 1. A 10-router POP in the paper's two-level shape: 3 backbone
    //    routers, 7 access routers, 12 virtual traffic endpoints.
    let pop = PopSpec::paper_10().build();
    println!(
        "POP: {} routers, {} links, {} traffic endpoints",
        pop.router_count(),
        pop.graph.edge_count(),
        pop.endpoints.len()
    );

    // 2. A non-uniform traffic matrix (seeded, reproducible): every ordered
    //    endpoint pair plus a few boosted "preferred pairs".
    let ts = TrafficSpec::default().generate(&pop, 42);
    println!(
        "traffic: {} flows, total volume {:.1}",
        ts.len(),
        ts.total_volume()
    );

    // 3. The PPM(k) instance: cover 95% of the traffic with the fewest
    //    devices (the paper's sweet spot before the 100% cost cliff).
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    let k = 0.95;

    let greedy = greedy_static(&inst, k).expect("target reachable");
    println!(
        "greedy (decreasing load): {} devices, coverage {:.1}%",
        greedy.device_count(),
        100.0 * greedy.coverage_fraction()
    );

    let ilp = solve_instance(&inst, &SolveRequest::ppm(k))
        .expect("valid request")
        .into_ppm()
        .expect("target reachable");
    println!(
        "exact ILP:                {} devices, coverage {:.1}%{}",
        ilp.device_count(),
        100.0 * ilp.coverage_fraction(),
        if ilp.proven_optimal {
            " (proven optimal)"
        } else {
            ""
        }
    );

    // 4. Where do the monitors go?
    for &e in &ilp.edges {
        let (u, v) = pop.graph.endpoints(popmon::netgraph::EdgeId(e as u32));
        println!(
            "  tap on link {} -- {}",
            pop.graph.label(u),
            pop.graph.label(v)
        );
    }

    assert!(ilp.device_count() <= greedy.device_count());
}
