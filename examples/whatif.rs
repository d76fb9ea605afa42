//! What-if queries against a resident engine: the queryd library API
//! end-to-end. Loads a generated topology, converges every (protocol,
//! destination) baseline once, then answers three queries — each phrased
//! on the wire grammar, parsed, executed against the resident
//! checkpoints, and printed in the exact frame a daemon client would
//! read. The same engine behind `stamp_queryd`; no process, no socket.
//!
//! ```sh
//! cargo run --release --example whatif -- [n_ases] [seed]
//! ```

// Examples are terminal demos; printing is their output format.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use stamp_repro::eventsim::rng::tags;
use stamp_repro::eventsim::rng_stream;
use stamp_repro::queryd::{QueryEngine, QuerydConfig, Request};
use stamp_repro::topology::{generate, GenConfig};
use stamp_repro::workload::{choose_k, destination_candidates, Protocol, RunParams, GRID_SEED};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let seed: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(GRID_SEED);

    let g = generate(&GenConfig {
        n_ases: n,
        ..GenConfig::small(seed)
    })
    .expect("valid config");
    // The campaign's destination choice, so these baselines are the same
    // cells the batch grids measure.
    let mut rng = rng_stream(seed, tags::TIMELINE);
    let dests = choose_k(&mut rng, &destination_candidates(&g), 2);
    let dest = *dests
        .first()
        .expect("generated topologies have multi-homed ASes");
    let provider = g.providers(dest)[0];

    let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp], dests);
    cfg.seed = seed;
    cfg.params = RunParams::fast();
    println!(
        "converging {} baselines on {} ASes ...",
        cfg.protocols.len() * cfg.dests.len(),
        g.n()
    );
    let engine = QueryEngine::new(g, cfg).expect("baselines converge");
    print!("{}", engine.banner());

    // Three what-ifs, written exactly as a daemon client would send them.
    // Every answer forks from a resident checkpoint — no re-convergence —
    // and is bit-identical to a cold batch run of the same cell
    // (tests/queryd.rs holds that bar).
    let queries = [
        format!("WHATIF FAIL-LINK {} {}", dest.0, provider.0),
        format!("WHATIF DRAIN-NODE {} DEST {}", provider.0, dest.0),
        format!("SHOW DISJOINTNESS {}", dest.0),
    ];
    for line in &queries {
        println!("> {line}");
        let req: Request = line.parse().expect("the demo queries are well-formed");
        print!("{}", engine.execute(&req));
    }
    println!("> SHOW CACHE");
    print!("{}", engine.execute(&Request::ShowCache));
}
