//! The differential service-vs-batch harness (the PR's correctness
//! contract).
//!
//! Seeded sessions of interleaved solve / what-if requests are driven
//! against a live TCP server; every response line is recorded. The same
//! request stream is then replayed through a fresh in-process
//! [`Service`] — batch mode, no transport — and every response must be
//! **byte-identical**. Separately, at chain checkpoints the service's
//! exact answer is compared against a cold `solve_exact` on an
//! independently reconstructed, independently mutated instance: the warm
//! incremental chain must report the same optimum as a from-scratch
//! solve at every checkpoint.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::solve::SolveRequest;
use popgen::{PopSpec, TrafficSpec};
use popmond::json::{self, Value};
use popmond::protocol::{parse_request, Request, WhatIf, DEFAULT_MAX_NODES};
use popmond::workload::standard_sessions;
use popmond::{spawn, ServerConfig, Service, ServiceConfig};

const STEPS_PER_SESSION: usize = 10;
const CHECKPOINT_EVERY: usize = 5;
const CHECKPOINT_K: f64 = 0.8;

/// Rebuilds the instance exactly the way `load_spec` does for the
/// `"small"` preset, as an independent what-if target.
fn build_cold(seed: u64, routed: bool) -> DeltaInstance {
    let pop = PopSpec::small().build();
    let ts = TrafficSpec::default().generate(&pop, seed);
    if routed {
        DeltaInstance::from_traffic(&pop.graph, &ts)
    } else {
        DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts))
    }
}

/// Applies a parsed protocol mutation to the independent cold instance.
fn apply(delta: &mut DeltaInstance, action: &WhatIf) {
    let applied = match action {
        WhatIf::FailLink(e) => delta.try_fail_link(*e).map(drop),
        WhatIf::RestoreLink(e) => delta.try_restore_link(*e).map(drop),
        WhatIf::ScaleDemand { t, factor } => delta.try_scale_demand(*t, *factor),
        WhatIf::AddFlow { volume, support } => {
            delta.try_add_flow(*volume, support.clone()).map(drop)
        }
        WhatIf::RemoveFlow(t) => delta.try_remove_flow(*t),
        WhatIf::SetInstalled(installed) => delta.try_set_installed(installed),
    };
    applied.expect("the scripted mutation is valid");
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    writer.write_all(req.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "server closed mid-session on {req}");
    line.trim_end().to_string()
}

fn run_sessions(routed: bool, count: usize, base_seed: u64) {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let handle = spawn("127.0.0.1:0", service, config).expect("bind ephemeral port");
    let mut writer = TcpStream::connect(handle.addr()).unwrap();
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());

    let mut transcript: Vec<(String, String)> = Vec::new();
    let mut checkpoints = 0usize;

    for (i, mut session) in standard_sessions(base_seed, count, routed)
        .into_iter()
        .enumerate()
    {
        // The session's instance seed mirrors standard_sessions' layout.
        let instance_seed = base_seed + i as u64;
        let mut cold = build_cold(instance_seed, routed);

        let load_line = session.next_line();
        let load_resp = roundtrip(&mut writer, &mut reader, &load_line);
        let doc = json::parse(&load_resp).expect("load response is JSON");
        assert_eq!(
            doc.get("ok").and_then(Value::as_bool),
            Some(true),
            "{load_resp}"
        );
        let links = doc.get("links").and_then(Value::as_u64).unwrap() as usize;
        let traffics = doc.get("traffics").and_then(Value::as_u64).unwrap() as usize;
        assert_eq!(
            links,
            cold.num_edges(),
            "load response disagrees with cold build"
        );
        assert_eq!(
            traffics,
            cold.traffic_count(),
            "load response disagrees with cold build"
        );
        session.observe_load(links, traffics);
        transcript.push((load_line, load_resp));

        for step in 0..STEPS_PER_SESSION {
            let line = session.next_line();
            let resp = roundtrip(&mut writer, &mut reader, &line);
            let doc = json::parse(&resp).expect("response is JSON");
            assert_eq!(
                doc.get("ok").and_then(Value::as_bool),
                Some(true),
                "generated requests are always in-range: {line} -> {resp}"
            );
            if let Ok(Request::WhatIf { action, .. }) = parse_request(&line) {
                apply(&mut cold, &action);
            }
            transcript.push((line, resp));

            if (step + 1) % CHECKPOINT_EVERY == 0 {
                let ck = format!(
                    r#"{{"op":"solve","id":"{}","method":"exact","k":{CHECKPOINT_K}}}"#,
                    session.id()
                );
                let resp = roundtrip(&mut writer, &mut reader, &ck);
                let doc = json::parse(&resp).expect("checkpoint response is JSON");
                assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
                let service_feasible = doc.get("feasible").and_then(Value::as_bool).unwrap();
                let req = SolveRequest::ppm(CHECKPOINT_K).with_node_budget(DEFAULT_MAX_NODES);
                match cold.solve(&req).expect("valid request").into_ppm() {
                    None => assert!(
                        !service_feasible,
                        "service found a solution where a cold solve proves none exists: {resp}"
                    ),
                    Some(sol) => {
                        assert!(
                            service_feasible,
                            "service reported infeasible but a cold solve found {} devices: {resp}",
                            sol.device_count()
                        );
                        let devices = doc.get("devices").and_then(Value::as_u64).unwrap() as usize;
                        assert_eq!(
                            devices,
                            sol.device_count(),
                            "warm chain and cold solve disagree on the optimum \
                             (session {}, step {step}): {resp}",
                            session.id()
                        );
                    }
                }
                checkpoints += 1;
                transcript.push((ck, resp));
            }
        }
    }
    handle.shutdown();
    assert!(checkpoints >= count, "checkpoint coverage collapsed");

    // Batch replay: the identical request stream through a fresh Service,
    // no TCP — every response must be byte-identical.
    let batch = Service::new(ServiceConfig::default());
    for (req, expected) in &transcript {
        let got = batch.handle_line(req).text;
        assert_eq!(
            &got, expected,
            "service and batch replay diverged on request: {req}"
        );
    }
}

#[test]
fn sixty_four_unrouted_sessions_replay_byte_identically() {
    run_sessions(false, 64, 100);
}

#[test]
fn routed_sessions_replay_byte_identically() {
    run_sessions(true, 8, 900);
}
