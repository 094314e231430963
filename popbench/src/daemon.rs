//! A `popmond` child process and one closed-loop client connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon, pinned to one request permit and one solver thread.
/// Dropping it kills the process if it is still running and waits for it.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `popmond --threads 1` on an ephemeral loopback port and
    /// waits for its `listening on` line.
    pub fn start(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .env("POPMON_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading popmond's banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected popmond banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            out: Vec::new(),
        })
    }

    /// The daemon's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` on `client` and waits (at most 10 s) for the
    /// process to exit cleanly.
    pub fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        client.call(r#"{"op":"shutdown"}"#)?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("popmond exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("popmond did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        // Drain the closing summary line so the daemon never writes to a
        // closed pipe.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// One connection: a request line out, a response line back.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Client {
    /// Sends one request line and returns the response line (newline
    /// stripped).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("popmond closed the connection".into()),
            Ok(_) => {
                resp.truncate(resp.trim_end_matches('\n').len());
                Ok(resp)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}
