//! Concurrency determinism: the server's thread count is a performance
//! knob, never a semantics knob.
//!
//! The same seeded multi-client workload is driven against a 1-permit
//! and a 4-permit server; the per-session transcripts (every response
//! line, coalescing counters included) must be identical. Two more tests
//! race threads against the instance cache directly: loads of the *same*
//! id must keep exactly one winning slot that every racer observes, and
//! loads of *distinct* ids into a capped cache must fill it to exactly
//! `max_instances` slots.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use popmond::json::{self, Value};
use popmond::workload::standard_sessions;
use popmond::{spawn, ServerConfig, Service, ServiceConfig};

const CLIENTS: usize = 4;
const SESSIONS_PER_CLIENT: usize = 2;
const STEPS_PER_SESSION: usize = 8;

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    writer.write_all(req.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "server closed mid-session on {req}");
    line.trim_end().to_string()
}

/// One session's transcript: (request, response) pairs in issue order.
type Transcript = Vec<(String, String)>;

/// Runs the standard workload with `threads` processing permits and
/// returns one transcript per session, keyed by session index.
fn run(threads: usize) -> Vec<Transcript> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let handle = spawn("127.0.0.1:0", service, config).expect("bind ephemeral port");
    let addr = handle.addr();

    let mut sessions = standard_sessions(500, CLIENTS * SESSIONS_PER_CLIENT, false);
    // Deal sessions to clients round-robin; each client interleaves its
    // own sessions request by request, so *within a connection* the
    // ordering is deterministic while connections race each other.
    let mut per_client: Vec<Vec<_>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (i, s) in sessions.drain(..).enumerate() {
        per_client[i % CLIENTS].push((i, s));
    }

    let transcripts: Vec<Vec<(usize, Transcript)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut writer = TcpStream::connect(addr).unwrap();
                    writer.set_nodelay(true).unwrap();
                    let mut reader = BufReader::new(writer.try_clone().unwrap());
                    let mut out: Vec<(usize, Transcript)> = Vec::new();
                    let mut mine: Vec<_> = mine
                        .into_iter()
                        .map(|(idx, session)| (idx, session, Vec::new()))
                        .collect();
                    // Loads first, so the interleaved phase has sizes.
                    for (_, session, transcript) in mine.iter_mut() {
                        let line = session.next_line();
                        let resp = roundtrip(&mut writer, &mut reader, &line);
                        let doc = json::parse(&resp).unwrap();
                        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
                        session.observe_load(
                            doc.get("links").and_then(Value::as_u64).unwrap() as usize,
                            doc.get("traffics").and_then(Value::as_u64).unwrap() as usize,
                        );
                        transcript.push((line, resp));
                    }
                    for _ in 0..STEPS_PER_SESSION {
                        for (_, session, transcript) in mine.iter_mut() {
                            let line = session.next_line();
                            let resp = roundtrip(&mut writer, &mut reader, &line);
                            transcript.push((line, resp));
                        }
                    }
                    // A final inspect pins the per-slot chain counters
                    // (solves vs coalesced) into the compared transcript.
                    for (idx, session, mut transcript) in mine {
                        let line = format!(r#"{{"op":"inspect","id":"{}"}}"#, session.id());
                        let resp = roundtrip(&mut writer, &mut reader, &line);
                        transcript.push((line, resp));
                        out.push((idx, transcript));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    handle.shutdown();

    let mut by_session = vec![Vec::new(); CLIENTS * SESSIONS_PER_CLIENT];
    for client in transcripts {
        for (idx, t) in client {
            by_session[idx] = t;
        }
    }
    by_session
}

#[test]
fn per_session_transcripts_are_thread_count_invariant() {
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert!(!a.is_empty(), "session {i} produced no transcript");
        assert_eq!(
            a, b,
            "session {i}: transcripts must not depend on server thread count"
        );
    }
}

/// Threads racing `load_spec` on one id must leave exactly one slot, and
/// every racer's subsequent solve must observe it bytewise.
#[test]
fn racing_loads_of_one_id_keep_one_slot() {
    for round in 0..6u64 {
        let service = Service::new(ServiceConfig::default());
        let n = 16;
        let barrier = Barrier::new(n);
        let id = format!("raced{round}");
        let load = format!(r#"{{"op":"load_spec","id":"{id}","spec":"small","seed":{round}}}"#);
        let solve = format!(r#"{{"op":"solve","id":"{id}","k":0.8}}"#);

        let results: Vec<(String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let (service, barrier, load, solve) = (&service, &barrier, &load, &solve);
                    scope.spawn(move || {
                        barrier.wait();
                        let load_resp = service.handle_line(load).text;
                        let solve_resp = service.handle_line(solve).text;
                        (load_resp, solve_resp)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(service.instance_count(), 1, "one slot regardless of racers");
        let creators = results
            .iter()
            .filter(|(l, _)| {
                json::parse(l)
                    .unwrap()
                    .get("created")
                    .and_then(Value::as_bool)
                    == Some(true)
            })
            .count();
        assert_eq!(creators, 1, "first insert wins exactly once");
        let first_solve = &results[0].1;
        for (load_resp, solve_resp) in &results {
            let doc = json::parse(load_resp).unwrap();
            assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(doc.get("id").and_then(Value::as_str), Some(id.as_str()));
            assert_eq!(
                solve_resp, first_solve,
                "every racer must observe the winning slot's answer"
            );
        }
    }
}

/// Threads racing `load_spec` on distinct ids into a capped cache: the cap
/// check and the insert share one lock, so exactly `max_instances` loads
/// create a slot and every other load is refused with `cache_full`.
#[test]
fn racing_loads_of_distinct_ids_fill_the_cap_exactly() {
    for round in 0..6u64 {
        let cap = 5;
        let service = Service::new(ServiceConfig { max_instances: cap });
        let n = 16;
        let barrier = Barrier::new(n);
        let responses: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (service, barrier) = (&service, &barrier);
                    scope.spawn(move || {
                        let load = format!(
                            r#"{{"op":"load_spec","id":"r{round}_{i}","spec":"small","seed":{round}}}"#
                        );
                        barrier.wait();
                        service.handle_line(&load).text
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut created = 0;
        for resp in &responses {
            let doc = json::parse(resp).unwrap();
            if doc.get("created").and_then(Value::as_bool) == Some(true) {
                created += 1;
            } else {
                assert_eq!(
                    doc.get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str),
                    Some("cache_full"),
                    "a load that created nothing must be refused: {resp}"
                );
            }
        }
        assert_eq!(created, cap, "exactly max_instances loads create a slot");
        assert_eq!(service.instance_count(), cap);
    }
}
