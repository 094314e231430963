//! The popmond daemon binary.
//!
//! ```text
//! popmond [--addr HOST:PORT] [--threads N] [--queue N] [--max-instances N]
//! ```
//!
//! Binds the address (default `127.0.0.1:7700`), prints one
//! `listening on <addr>` line to stdout, and serves until a client sends
//! `{"op":"shutdown"}`. The flags are the daemon's only settings (it
//! reads no environment variable): `--threads` defaults to 4; `--queue`
//! caps how many requests may wait for a processing slot before the
//! server sheds with a typed `overloaded` error, and defaults to 16
//! waiters per thread of the final `--threads`.

use std::process::ExitCode;
use std::sync::Arc;

use popmond::{spawn, ServerConfig, Service, ServiceConfig};

fn usage() -> ! {
    eprintln!("usage: popmond [--addr HOST:PORT] [--threads N] [--queue N] [--max-instances N]");
    std::process::exit(2);
}

/// Reads the flags: the bind address and both configurations. Exits
/// through [`usage`] on a malformed command line.
fn parse_args(args: impl IntoIterator<Item = String>) -> (String, ServerConfig, ServiceConfig) {
    let mut addr = "127.0.0.1:7700".to_string();
    let mut threads: usize = 4;
    let mut queue = None;
    let mut service_config = ServiceConfig::default();

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--threads" => match value("--threads").parse() {
                Ok(n) if n > 0 => threads = n,
                _ => usage(),
            },
            "--queue" => match value("--queue").parse() {
                Ok(n) => queue = Some(n),
                Err(_) => usage(),
            },
            "--max-instances" => match value("--max-instances").parse() {
                Ok(n) if n > 0 => service_config.max_instances = n,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    // Deep enough that well-behaved closed-loop clients never see a shed.
    let queue = queue.unwrap_or(threads.saturating_mul(16));
    (addr, ServerConfig { threads, queue }, service_config)
}

fn main() -> ExitCode {
    let (addr, server_config, service_config) = parse_args(std::env::args().skip(1));

    let service = Arc::new(Service::new(service_config));
    let handle = match spawn(&addr, service.clone(), server_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());

    // Blocks until a client sends {"op":"shutdown"}; wait() joins the
    // accept loop and every connection thread.
    handle.wait();
    println!(
        "served {} requests across {} instances",
        service.request_count(),
        service.instance_count()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ServerConfig {
        parse_args(args.iter().map(|a| a.to_string())).1
    }

    #[test]
    fn the_queue_defaults_to_sixteen_waiters_per_final_thread() {
        let config = parse(&[]);
        assert_eq!((config.threads, config.queue), (4, 64));
        let config = parse(&["--threads", "8"]);
        assert_eq!((config.threads, config.queue), (8, 128));
        let config = parse(&["--threads", "1"]);
        assert_eq!((config.threads, config.queue), (1, 16));
        let config = parse(&["--queue", "3", "--threads", "8"]);
        assert_eq!((config.threads, config.queue), (8, 3));
    }
}
