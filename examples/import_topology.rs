//! Substituting measured data: load a topology + traffic matrix from the
//! text format instead of the generator (the hook for real Rocketfuel-
//! style maps), then place monitors on it.
//!
//! Run with: `cargo run --release --example import_topology`

use popmon::placement::instance::PpmInstance;
use popmon::placement::passive::greedy_static;
use popmon::placement::solve::{solve_instance, SolveRequest};
use popmon::popgen::fileio;

/// A small POP in the interchange format — in production this would be a
/// file converted from `rocketfuel .cch` + a measured traffic matrix.
const DOCUMENT: &str = "\
# two backbone routers, three access routers, five customer sites
node bb0 backbone
node bb1 backbone
node ac0 access
node ac1 access
node ac2 access
node c0 customer
node c1 customer
node c2 customer
node c3 customer
node c4 customer

edge bb0 bb1 1.0
edge ac0 bb0 1.0
edge ac0 bb1 1.0
edge ac1 bb0 1.0
edge ac2 bb1 1.0
edge c0 ac0 1.0
edge c1 ac0 1.0
edge c2 ac1 1.0
edge c3 ac2 1.0
edge c4 ac2 1.0

traffic c0 c2 10.0
traffic c2 c0 8.0
traffic c0 c3 2.5
traffic c3 c4 1.0
traffic c1 c4 4.0
traffic c4 c1 3.5
traffic c1 c2 0.5
";

fn main() {
    let (pop, ts) = fileio::parse(DOCUMENT).expect("valid document");
    println!(
        "imported: {} nodes, {} links, {} traffics, volume {:.1}",
        pop.graph.node_count(),
        pop.graph.edge_count(),
        ts.len(),
        ts.total_volume()
    );

    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    for k in [0.8, 1.0] {
        let greedy = greedy_static(&inst, k).expect("feasible");
        let ilp = solve_instance(&inst, &SolveRequest::ppm(k))
            .expect("valid request")
            .into_ppm()
            .expect("feasible");
        println!(
            "k = {k}: greedy {} devices, ILP {} devices",
            greedy.device_count(),
            ilp.device_count()
        );
        for &e in &ilp.edges {
            let (u, v) = pop.graph.endpoints(popmon::netgraph::EdgeId(e as u32));
            println!("  tap {} -- {}", pop.graph.label(u), pop.graph.label(v));
        }
    }

    // Round-trip: the serializer writes the same structure back out.
    let text = fileio::serialize(&pop, &ts);
    let (pop2, ts2) = fileio::parse(&text).expect("round-trip");
    assert_eq!(pop2.graph.edge_count(), pop.graph.edge_count());
    assert_eq!(ts2.len(), ts.len());
    println!("round-trip through the interchange format: ok");
}
