//! The TCP transport: a hand-rolled threaded line server around
//! [`Service`].
//!
//! One thread per connection reads newline-delimited requests and writes
//! one response line each; a counted semaphore caps how many requests are
//! *processed* concurrently (`threads` permits — the knob the concurrency
//! determinism tests sweep), independent of how many connections are
//! open. Reads use short timeouts so every connection thread observes the
//! stop flag and the whole server joins cleanly after `shutdown`.
//!
//! The accept loop *blocks* in `accept()` — no sleep-polling — and is
//! woken for shutdown by a loopback self-connect, so an idle server burns
//! no CPU. Slot waits are real [`Condvar`] waits with a bounded queue:
//! when every permit is busy and [`ServerConfig::queue`] requests are
//! already waiting, further requests are *shed* with a typed `overloaded`
//! error carrying a `retry_after_ms` back-off hint instead of queueing
//! without bound (`health` requests bypass the slots entirely so probes
//! still answer under overload).
//!
//! Oversized lines (> [`protocol::MAX_LINE`] bytes before a newline) are
//! answered immediately with a typed `oversized_line` error, the rest of
//! the line is drained, and the connection stays usable — a client bug
//! never wedges the transport.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol;
use crate::state::Service;

/// Server configuration. The daemon sets it from its `--threads` and
/// `--queue` flags only; [`ServerConfig::default`] is 4 permits and 16
/// waiters per permit.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent request-processing permits (not a connection cap).
    pub threads: usize,
    /// Overload cap: how many requests may *wait* for a permit before
    /// further requests are shed with a typed `overloaded` error.
    pub queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue: 64,
        }
    }
}

/// A counted semaphore with a bounded waiting queue (the workspace has
/// no external concurrency deps). Waiters block on a real [`Condvar`] —
/// never a sleep-poll — and a caller that would push the waiting count
/// past the cap is refused immediately instead of queueing.
struct Semaphore {
    state: Mutex<SemState>,
    cv: Condvar,
}

struct SemState {
    permits: usize,
    waiting: usize,
}

/// The outcome of a bounded slot acquisition.
enum Acquired<'a> {
    /// A permit is held until the guard drops, unwinding included.
    Permit(Permit<'a>),
    /// The waiting queue was full; nothing is held.
    Shed,
}

/// A held semaphore permit. Dropping it returns the permit, so a panic
/// inside a solve cannot leak a slot.
struct Permit<'a>(&'a Semaphore);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.state.lock().expect("semaphore poisoned").permits += 1;
        self.0.cv.notify_one();
    }
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            state: Mutex::new(SemState {
                permits,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Takes a permit, blocking on the condvar while all are busy —
    /// unless `queue_cap` requests are already waiting, in which case the
    /// caller is shed without blocking.
    fn acquire_or_shed(&self, queue_cap: usize) -> Acquired<'_> {
        let mut s = self.state.lock().expect("semaphore poisoned");
        if s.permits == 0 {
            if s.waiting >= queue_cap {
                return Acquired::Shed;
            }
            s.waiting += 1;
            while s.permits == 0 {
                s = self.cv.wait(s).expect("semaphore poisoned");
            }
            s.waiting -= 1;
        }
        s.permits -= 1;
        Acquired::Permit(Permit(self))
    }
}

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops it and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    service: Arc<Service>,
}

impl ServerHandle {
    /// The bound address (use for ephemeral-port servers).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for in-process inspection in tests/benches).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Signals stop and joins the accept loop (which joins connections).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops on its own — i.e. a client sends
    /// `{"op":"shutdown"}` — then joins every thread.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Wakes the (blocking) accept loop with a throwaway loopback connection
/// so it observes the stop flag — the replacement for sleep-polling a
/// nonblocking listener.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `service` until a `shutdown` request or [`ServerHandle::shutdown`].
pub fn spawn(
    addr: &str,
    service: Arc<Service>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let semaphore = Arc::new(Semaphore::new(config.threads.max(1)));
    let queue_cap = config.queue;

    let accept_stop = stop.clone();
    let accept_service = service.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        // Blocking accept: an idle server parks in the kernel until a
        // connection (or the shutdown self-connect) arrives.
        while !accept_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    if accept_stop.load(Ordering::SeqCst) {
                        break; // the wake-up connection itself
                    }
                    let service = accept_service.clone();
                    let stop = accept_stop.clone();
                    let semaphore = semaphore.clone();
                    connections.push(std::thread::spawn(move || {
                        serve_connection(stream, &service, &stop, &semaphore, queue_cap, bound);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
            connections.retain(|c| !c.is_finished());
        }
        for c in connections {
            let _ = c.join();
        }
    });

    Ok(ServerHandle {
        addr: bound,
        stop,
        accept_thread: Some(accept_thread),
        service,
    })
}

fn serve_connection(
    mut stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
    semaphore: &Semaphore,
    queue_cap: usize,
    local_addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_nodelay(true);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    // When a line exceeds MAX_LINE we answer once, then drain to the
    // next newline without buffering.
    let mut draining = false;
    loop {
        // Serve every complete line already buffered.
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            if draining {
                draining = false;
                continue;
            }
            let text = String::from_utf8_lossy(&line[..nl]);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            let reply = match semaphore.acquire_or_shed(queue_cap) {
                Acquired::Permit(_permit) => service.handle_line(trimmed),
                // Shed path: nothing was processed and no state touched.
                // Health probes are exempt — they take one map lock and
                // must keep answering while the solver slots are saturated.
                Acquired::Shed => {
                    if matches!(
                        crate::protocol::parse_request(trimmed),
                        Ok(crate::protocol::Request::Health)
                    ) {
                        service.handle_line(trimmed)
                    } else {
                        crate::state::Reply {
                            text: crate::protocol::Error::overloaded(protocol::RETRY_AFTER_MS)
                                .to_json(),
                            shutdown: false,
                        }
                    }
                }
            };
            let mut out = reply.text.into_bytes();
            out.push(b'\n');
            if stream.write_all(&out).is_err() {
                return;
            }
            if reply.shutdown {
                stop.store(true, Ordering::SeqCst);
                // The accept loop is parked in accept(); wake it so the
                // whole server joins promptly.
                wake_accept(local_addr);
                return;
            }
        }
        if !draining && pending.len() > protocol::MAX_LINE {
            let err = crate::protocol::Error::new(
                "oversized_line",
                format!("request exceeds the {} byte line limit", protocol::MAX_LINE),
            );
            let mut out = err.to_json().into_bytes();
            out.push(b'\n');
            if stream.write_all(&out).is_err() {
                return;
            }
            pending.clear();
            draining = true;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                if draining {
                    // Keep only what follows the terminating newline.
                    if let Some(nl) = chunk[..n].iter().position(|&b| b == b'\n') {
                        pending.extend_from_slice(&chunk[nl + 1..n]);
                        draining = false;
                    }
                } else {
                    pending.extend_from_slice(&chunk[..n]);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServiceConfig;
    use std::io::{BufRead, BufReader};

    fn start(threads: usize) -> (ServerHandle, SocketAddr) {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let config = ServerConfig {
            threads,
            ..ServerConfig::default()
        };
        let handle = spawn("127.0.0.1:0", service, config).expect("bind ephemeral port");
        let addr = handle.addr();
        (handle, addr)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_and_shuts_down() {
        let (handle, addr) = start(2);
        let mut stream = connect(addr);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"op":"load_spec","id":"s","spec":"small","seed":1}"#,
        );
        assert!(r.contains("\"ok\":true"), "{r}");
        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
        assert!(r.contains("\"instances\":1"), "{r}");
        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert!(r.contains("\"op\":\"shutdown\""), "{r}");
        handle.shutdown();
    }

    #[test]
    fn semaphore_wakes_waiters_under_contention_and_sheds_past_the_cap() {
        // One permit, held by the test: waiters must park on the condvar
        // (no spinning to observe) and wake exactly when released.
        let sem = Arc::new(Semaphore::new(1));
        let Acquired::Permit(held) = sem.acquire_or_shed(4) else {
            panic!("a free permit must be granted");
        };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let sem = sem.clone();
                std::thread::spawn(move || matches!(sem.acquire_or_shed(4), Acquired::Permit(_)))
            })
            .collect();
        // Give the waiters time to enqueue, then check the shed path: a
        // zero-cap caller must be refused immediately, not blocked.
        while sem.state.lock().unwrap().waiting < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(sem.acquire_or_shed(0), Acquired::Shed));
        assert!(matches!(sem.acquire_or_shed(3), Acquired::Shed));
        // Release the held permit: every queued waiter must drain.
        drop(held);
        for w in waiters {
            assert!(w.join().unwrap(), "queued waiter must get a permit");
        }
        let s = sem.state.lock().unwrap();
        assert_eq!(s.permits, 1);
        assert_eq!(s.waiting, 0);
    }

    #[test]
    fn a_panic_while_holding_a_permit_returns_it() {
        let sem = Semaphore::new(1);
        let unwound = std::panic::catch_unwind(|| {
            let Acquired::Permit(_permit) = sem.acquire_or_shed(0) else {
                unreachable!("a free permit must be granted");
            };
            panic!("solve panicked while holding the permit");
        });
        assert!(unwound.is_err());
        assert!(matches!(sem.acquire_or_shed(0), Acquired::Permit(_)));
    }

    #[test]
    fn single_permit_serves_a_connection_burst() {
        // threads=1: every request funnels through one permit; a burst of
        // parallel connections exercises condvar wake-up under contention
        // end to end (a lost wakeup would hang this test).
        let (handle, addr) = start(1);
        let clients: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = connect(addr);
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    for _ in 0..5 {
                        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"stats"}"#);
                        assert!(r.contains("\"ok\":true"), "client {i}: {r}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread panicked");
        }
        handle.shutdown();
    }

    #[test]
    fn zero_queue_sheds_with_a_typed_overloaded_error() {
        // queue=0 means "never wait": with the single permit pinned by a
        // slow in-flight request, a concurrent request must be shed with
        // the typed error (and a health probe must still answer).
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let config = ServerConfig {
            threads: 1,
            queue: 0,
        };
        let handle = spawn("127.0.0.1:0", service, config).expect("bind ephemeral port");
        let addr = handle.addr();
        let mut a = connect(addr);
        let mut ra = BufReader::new(a.try_clone().unwrap());
        let r = roundtrip(
            &mut a,
            &mut ra,
            r#"{"op":"load_spec","id":"big","spec":"small","seed":1}"#,
        );
        assert!(r.contains("\"ok\":true"), "{r}");
        // Fire a long-but-bounded resilience campaign without reading its
        // response, so the permit stays busy while the second connection
        // races it (a campaign's cost is linear in scenarios — no search
        // blow-up, unlike a big exact solve).
        a.write_all(
            b"{\"op\":\"score_ensemble\",\"id\":\"big\",\"failure\":\"srlg groups=6 group_rate=0.4 link_rate=0.1\",\"dynamic\":\"dynamic\",\"scenarios\":4096,\"seed\":1}\n",
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let mut b = connect(addr);
        let mut rb = BufReader::new(b.try_clone().unwrap());
        let r = roundtrip(&mut b, &mut rb, r#"{"op":"stats"}"#);
        // Either the solve already finished (fast machine) or the request
        // was shed: both are legal, but a shed must be the typed error.
        if r.contains("\"ok\":false") {
            assert!(r.contains("\"code\":\"overloaded\""), "{r}");
            assert!(r.contains("\"retry_after_ms\":"), "{r}");
            // Health bypasses the slots even while saturated.
            let h = roundtrip(&mut b, &mut rb, r#"{"op":"health"}"#);
            assert!(h.contains("\"status\":\"ok\""), "{h}");
        }
        let mut line = String::new();
        ra.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        handle.shutdown();
    }

    #[test]
    fn empty_lines_are_skipped_and_connection_survives_errors() {
        let (handle, addr) = start(1);
        let mut stream = connect(addr);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"\n  \n").unwrap();
        let r = roundtrip(&mut stream, &mut reader, "not json at all");
        assert!(r.contains("\"code\":\"parse\""), "{r}");
        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"list"}"#);
        assert!(r.contains("\"instances\":[]"), "{r}");
        handle.shutdown();
    }
}
