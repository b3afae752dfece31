//! The `mbsp_serve` binary: a thin argument-parsing shell over
//! [`mbsp_serve::Server`].
//!
//! ```text
//! mbsp_serve [--listen ADDR] [--state-dir DIR] [--addr-file FILE]
//! ```
//!
//! * `--listen` — bind address (default `127.0.0.1:7700`; `:0` picks an
//!   ephemeral port).
//! * `--state-dir` — checkpoint/registry directory (default
//!   `mbsp-serve-state`); restored on startup.
//! * `--addr-file` — write the actually-bound address to this file once
//!   listening (scripts using an ephemeral port read it back).
//!
//! The shard fan-outs share the process-wide lane count, which
//! `MBSP_BENCH_THREADS` sets (default: the core count).
//!
//! The daemon runs until a client sends `{"op":"shutdown"}`, then checkpoints
//! every session and exits.

use mbsp_serve::{Server, ServerConfig};
use std::path::PathBuf;

fn main() {
    let mut config = ServerConfig {
        listen: "127.0.0.1:7700".to_string(),
        ..ServerConfig::default()
    };
    let mut addr_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--listen" => config.listen = value("--listen"),
            "--state-dir" => config.state_dir = PathBuf::from(value("--state-dir")),
            "--addr-file" => addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--help" | "-h" => {
                println!("mbsp_serve [--listen ADDR] [--state-dir DIR] [--addr-file FILE]");
                return;
            }
            other => die(&format!("unknown argument `{other}` (see --help)")),
        }
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => die(&format!("failed to start: {e}")),
    };
    let addr = server.local_addr();
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            die(&format!("failed to write {}: {e}", path.display()));
        }
    }
    println!("mbsp_serve listening on {addr}");
    server.join();
    println!("mbsp_serve shut down cleanly");
}

fn die(message: &str) -> ! {
    eprintln!("mbsp_serve: {message}");
    std::process::exit(2);
}
