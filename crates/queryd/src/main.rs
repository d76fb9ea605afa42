//! `stamp_queryd`: the resident what-if daemon.
//!
//! Generates the served topology, converges every `(protocol,
//! destination)` baseline once, then answers queries on stdin — and, with
//! `--port`, on a TCP listener too. EOF (or `QUIT`) on stdin shuts the
//! process down; the detached TCP thread dies with it, so piping a
//! transcript in always terminates cleanly (the ci.sh smoke gate relies
//! on this).
//!
//! Flags and engine construction live in the library
//! ([`stamp_queryd::DaemonArgs`]): the topology and destinations are the
//! campaign runner's own (`stamp_workload::grid_axes`), so the daemon's
//! resident baselines are the same cells the batch grids measure.

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use stamp_queryd::{serve, serve_tcp, DaemonArgs, USAGE};
use std::net::TcpListener;
use std::sync::Arc;

fn main() {
    // simlint::allow(ambient-env, "CLI flags of the daemon binary, not sim state")
    let line = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    let args = match DaemonArgs::parse(&line) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let engine = match args.engine() {
        Ok(e) => Arc::new(e),
        Err(msg) => {
            eprintln!("stamp_queryd: {msg}");
            std::process::exit(2);
        }
    };
    if let Some(port) = args.port {
        let listener = match TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stamp_queryd: bind 127.0.0.1:{port}: {e}");
                std::process::exit(2);
            }
        };
        if let Ok(addr) = listener.local_addr() {
            eprintln!("stamp_queryd: listening on {addr}");
        }
        let tcp_engine = Arc::clone(&engine);
        // Detached on purpose: when stdin reaches EOF, main returns and
        // the process (including this thread) exits — the clean-shutdown
        // contract of the ci.sh smoke gate.
        std::thread::spawn(move || {
            let _ = serve_tcp(&tcp_engine, &listener);
        });
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = serve(&engine, stdin.lock(), stdout.lock()) {
        eprintln!("stamp_queryd: {e}");
        std::process::exit(1);
    }
}
