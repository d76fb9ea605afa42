//! `stamp_queryd`: the resident what-if daemon.
//!
//! Generates the served topology, converges every `(protocol,
//! destination)` baseline once, then answers queries on stdin — and, with
//! `--port`, on a TCP listener too. EOF (or `QUIT`) on stdin shuts the
//! process down; the detached TCP thread dies with it, so piping a
//! transcript in always terminates cleanly (the ci.sh smoke gate relies
//! on this).
//!
//! The destination set mirrors the campaign runner exactly — `choose_k`
//! over `destination_candidates` from `rng_stream(seed, tags::TIMELINE)` —
//! so the daemon's resident baselines are the same cells the batch grids
//! measure.

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use stamp_eventsim::rng::tags;
use stamp_eventsim::rng_stream;
use stamp_eventsim::textfmt;
use stamp_queryd::{serve, serve_tcp, QueryEngine, QuerydConfig};
use stamp_topology::gen::{generate, GenConfig};
use stamp_workload::{choose_k, destination_candidates, Protocol, RunParams};
use std::net::TcpListener;
use std::sync::Arc;

const USAGE: &str = "stamp_queryd [--smoke] [--fast] [--ases N] [--seed N] [--dests N] \
     [--protocols LIST] [--cache-cap N] [--port P]\n\
     Resident what-if query service: converges every (protocol, destination)\n\
     baseline at startup, then answers WHATIF/SHOW queries line-by-line on\n\
     stdin (and on 127.0.0.1:P with --port) by forking from the resident\n\
     checkpoints. EOF or QUIT shuts down.\n\
     --smoke: the CI configuration — 200-AS smoke topology, fast parameters,\n\
     2 destinations (identical to the smoke campaign's grid axes).\n\
     --fast: fast engine parameters on the default topology.\n\
     --protocols LIST: comma-separated (bgp, rbgp-norci, rbgp, stamp;\n\
     default bgp,rbgp,stamp).\n\
     --cache-cap N: bound the baseline cache (default unbounded).";

struct Args {
    smoke: bool,
    fast: bool,
    ases: Option<usize>,
    seed: u64,
    dests: Option<usize>,
    protocols: Vec<Protocol>,
    cache_cap: Option<usize>,
    port: Option<u16>,
}

fn parse_flags() -> Result<Args, String> {
    // simlint::allow(ambient-env, "CLI flags of the daemon binary, not sim state")
    let line = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    let mut flags = textfmt::Args::new(&line);
    if flags.flag("--help") || flags.flag("-h") {
        return Err(String::new());
    }
    let protocols = flags.list("--protocols")?;
    let args = Args {
        smoke: flags.flag("--smoke"),
        fast: flags.flag("--fast"),
        ases: flags.value("--ases")?,
        seed: flags.value("--seed")?.unwrap_or(0xCA4A16),
        dests: flags.value("--dests")?,
        protocols: protocols.unwrap_or(vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp]),
        cache_cap: flags.value("--cache-cap")?,
        port: flags.value("--port")?,
    };
    flags.done().map(|()| args)
}

fn build_engine(args: &Args) -> Result<QueryEngine, String> {
    let gen = if args.smoke {
        GenConfig::small(args.seed)
    } else {
        GenConfig {
            n_ases: args.ases.unwrap_or(500),
            ..GenConfig::small(args.seed)
        }
    };
    let g = generate(&gen).map_err(|e| format!("topology generation failed: {e}"))?;
    let mut rng = rng_stream(args.seed, tags::TIMELINE);
    let k = args.dests.unwrap_or(if args.smoke { 2 } else { 4 });
    let dests = choose_k(&mut rng, &destination_candidates(&g), k);
    if dests.is_empty() {
        return Err("no multi-homed destination candidates in the topology".to_string());
    }
    let mut cfg = QuerydConfig::new(args.protocols.clone(), dests);
    cfg.seed = args.seed;
    cfg.params = if args.smoke || args.fast {
        RunParams::fast()
    } else {
        RunParams::paper()
    };
    cfg.cache_capacity = args.cache_cap;
    QueryEngine::new(g, cfg).map_err(|e| format!("baseline convergence failed: {e}"))
}

fn main() {
    let args = match parse_flags() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let engine = match build_engine(&args) {
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
