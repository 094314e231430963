//! Round-trip property suite for the instance space: generate a random
//! family instance, write it through `fileio`, parse it back, and re-solve
//! — device counts must be identical (the text format is a faithful
//! substitution hook for measured topologies). Plus a malformed-input
//! corpus asserting the parser's typed errors.

use placement::instance::PpmInstance;
use placement::passive::greedy_static;
use placement::solve::{solve_instance, SolveRequest};
use popgen::{fileio, FamilySpec, GravitySpec};
use proptest::prelude::*;

/// Strategy: a validated random family spec (small enough that the exact
/// ILP stays cheap across 256 cases).
fn family_specs() -> impl Strategy<Value = FamilySpec> {
    (0usize..3, 6usize..=10, 3usize..=5, 0.25f64..=1.0).prop_map(
        |(fam, routers, endpoints, density)| {
            let name = ["waxman", "ba", "hier"][fam];
            let mut spec = FamilySpec::canonical(name, routers, endpoints).expect("known family");
            spec.density = density;
            spec.validate().expect("generated specs are always valid");
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// generate → serialize → parse → re-solve: the round-tripped instance
    /// yields byte-identical supports/volumes, hence identical greedy and
    /// exact device counts at every coverage level.
    #[test]
    fn roundtrip_preserves_device_counts(
        spec in family_specs(),
        seed in 0u64..1000,
        k_pct in 50u32..=100,
    ) {
        let pop = spec.build(seed).expect("valid spec");
        let ts = GravitySpec::default().generate(&pop, seed);
        let text = fileio::serialize(&pop, &ts);
        let (pop2, ts2) = fileio::parse(&text).expect("serialized instances must parse");

        prop_assert_eq!(pop2.graph.node_count(), pop.graph.node_count());
        prop_assert_eq!(pop2.graph.edge_count(), pop.graph.edge_count());
        prop_assert_eq!(ts2.len(), ts.len());

        let inst = PpmInstance::from_traffic(&pop.graph, &ts);
        let inst2 = PpmInstance::from_traffic(&pop2.graph, &ts2);
        // Volumes survive exactly (f64 Display round-trips); supports may
        // be re-derived through re-routing, so compare the solver-visible
        // quantities: per-edge loads and the solutions themselves.
        for (a, b) in inst.edge_loads().iter().zip(&inst2.edge_loads()) {
            prop_assert!((a - b).abs() < 1e-9, "edge load moved across the round-trip");
        }

        let k = k_pct as f64 / 100.0;
        let g = greedy_static(&inst, k).expect("all family traffic is coverable");
        let g2 = greedy_static(&inst2, k).expect("round-tripped instance stays coverable");
        prop_assert_eq!(
            g.device_count(), g2.device_count(),
            "greedy device count moved across the round-trip"
        );

        let req = SolveRequest::ppm(k);
        let e = solve_instance(&inst, &req).unwrap().into_ppm().expect("feasible");
        let e2 = solve_instance(&inst2, &req).unwrap().into_ppm().expect("feasible");
        prop_assert_eq!(
            e.device_count(), e2.device_count(),
            "exact device count moved across the round-trip"
        );
    }

    /// A second serialize of the parsed instance reproduces the document
    /// byte-for-byte (serialization is canonical).
    #[test]
    fn serialize_is_canonical(spec in family_specs(), seed in 0u64..1000) {
        let pop = spec.build(seed).expect("valid spec");
        let ts = GravitySpec::default().generate(&pop, seed);
        let text = fileio::serialize(&pop, &ts);
        let (pop2, ts2) = fileio::parse(&text).expect("parses");
        prop_assert_eq!(fileio::serialize(&pop2, &ts2), text);
    }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every class of broken document dies with a typed
// ParseError carrying the offending line, never a panic or a silent accept.
// ---------------------------------------------------------------------------

struct MalformedCase {
    name: &'static str,
    text: &'static str,
    line: usize,
    message_contains: &'static str,
}

const MALFORMED: &[MalformedCase] = &[
    MalformedCase {
        name: "dangling edge label (u)",
        text: "node a backbone\nedge ghost a 1.0",
        line: 2,
        message_contains: "unknown node",
    },
    MalformedCase {
        name: "dangling edge label (v)",
        text: "node a backbone\nedge a ghost 1.0",
        line: 2,
        message_contains: "unknown node",
    },
    MalformedCase {
        name: "dangling traffic label",
        text: "node a customer\nnode b customer\nedge a b 1\ntraffic a ghost 2.0",
        line: 4,
        message_contains: "unknown node",
    },
    MalformedCase {
        name: "duplicate node",
        text: "node a access\nnode b access\nnode a backbone",
        line: 3,
        message_contains: "duplicate node",
    },
    MalformedCase {
        name: "negative weight",
        text: "node a access\nnode b access\nedge a b -2.5",
        line: 3,
        message_contains: "weight",
    },
    MalformedCase {
        name: "NaN weight",
        text: "node a access\nnode b access\nedge a b NaN",
        line: 3,
        message_contains: "weight",
    },
    MalformedCase {
        name: "self-loop edge",
        text: "node a access\nedge a a 1.0",
        line: 2,
        message_contains: "self",
    },
    MalformedCase {
        name: "negative traffic volume",
        text: "node a customer\nnode b customer\nedge a b 1\ntraffic a b -3",
        line: 4,
        message_contains: "volume",
    },
    MalformedCase {
        name: "non-numeric traffic volume",
        text: "node a customer\nnode b customer\nedge a b 1\ntraffic a b lots",
        line: 4,
        message_contains: "volume",
    },
    MalformedCase {
        name: "self traffic",
        text: "node a customer\nnode b access\nedge a b 1\ntraffic a a 1.0",
        line: 4,
        message_contains: "source equals destination",
    },
    MalformedCase {
        name: "unknown role",
        text: "node a wizard",
        line: 1,
        message_contains: "unknown role",
    },
    MalformedCase {
        name: "unknown directive",
        text: "node a access\nlink a a 1.0",
        line: 2,
        message_contains: "unknown directive",
    },
    MalformedCase {
        name: "arity error on edge",
        text: "node a access\nnode b access\nedge a b",
        line: 3,
        message_contains: "expected: edge",
    },
];

#[test]
fn malformed_documents_fail_with_typed_errors() {
    for case in MALFORMED {
        let err = fileio::parse(case.text)
            .map(|_| ())
            .expect_err(&format!("{} must be rejected", case.name));
        assert_eq!(err.line, case.line, "{}: wrong line in {err}", case.name);
        assert!(
            err.message.to_lowercase().contains(case.message_contains),
            "{}: message {:?} should mention {:?}",
            case.name,
            err.message,
            case.message_contains
        );
    }
}

#[test]
fn family_document_with_injected_corruption_is_rejected() {
    // Start from a real generated document and corrupt one line at a time:
    // the parser must localize the damage.
    let doc = popgen::families::emit_document(&FamilySpec::waxman(8, 4), 1).unwrap();
    let lines: Vec<&str> = doc.lines().collect();
    let edge_idx = lines
        .iter()
        .position(|l| l.starts_with("edge "))
        .expect("has edges");

    let mut dangling = lines.clone();
    let owned = dangling[edge_idx].replace("edge r", "edge zz");
    dangling[edge_idx] = &owned;
    let err = fileio::parse(&dangling.join("\n")).expect_err("dangling label");
    assert_eq!(err.line, edge_idx + 1);
    assert!(err.message.contains("unknown node"), "{err}");

    let mut duped = lines.clone();
    let node_idx = duped
        .iter()
        .position(|l| l.starts_with("node "))
        .expect("has nodes");
    let dup = duped[node_idx].to_string();
    duped.insert(node_idx + 1, dup.as_str());
    let err = fileio::parse(&duped.join("\n")).expect_err("duplicate node");
    assert_eq!(err.line, node_idx + 2);
    assert!(err.message.contains("duplicate"), "{err}");
}
