//! Failure-resilience demo: converge BGP and STAMP on the same generated
//! Internet-like topology, fail the destination's provider link, and watch
//! the transient problems each protocol produces — a single-instance
//! version of the paper's Figure 2, with optional fault injection.
//!
//! ```sh
//! cargo run --release --example failover_demo -- [n_ases] [seed] [drop%]
//! ```

// Examples are terminal demos; printing is their output format.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use stamp_repro::eventsim::{LossModel, SimDuration};
use stamp_repro::queryd::{QueryEngine, QuerydConfig, Response, WhatIfShape};
use stamp_repro::topology::{generate, AsId, GenConfig};
use stamp_repro::workload::{Protocol, RunParams, SessionModel};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    let drop_pct: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);

    let g = generate(&GenConfig {
        n_ases: n,
        ..GenConfig::sim_scale(seed)
    })
    .expect("valid config");

    // Pick a multi-homed destination (a late-rank stub) and fail the
    // provider link that carries the most traffic towards it — the
    // interesting cone.
    // Prefer a destination homed to *thin* transit providers (providers
    // that themselves have few alternatives) — that is where BGP's
    // transient problems concentrate.
    let (dest, provider) = (0..g.n() as u32)
        .rev()
        .map(AsId)
        .filter(|&v| g.providers(v).len() >= 2)
        .flat_map(|v| {
            g.providers(v)
                .iter()
                .map(move |&p| (v, p))
                .collect::<Vec<_>>()
        })
        .min_by_key(|&(_, p)| {
            if g.is_tier1(p) {
                usize::MAX // avoid tier-1 providers: too well connected
            } else {
                g.providers(p).len() + g.peers(p).len()
            }
        })
        .expect("generated topologies have multi-homed ASes");
    println!(
        "topology: {} ASes, {} links; destination {}, failing link to provider {}",
        g.n(),
        g.n_links(),
        dest,
        provider
    );
    if drop_pct > 0.0 {
        println!("fault injection: dropping {drop_pct}% of protocol messages");
    }

    // Paper parameters, but inject 5 s after quiescence and apply the
    // loss knob.
    let params = RunParams {
        inject_delay: SimDuration::from_secs(5),
        sessions: SessionModel {
            loss: LossModel {
                drop_probability: drop_pct / 100.0,
            },
            ..SessionModel::paper()
        },
        ..RunParams::paper()
    };

    // The comparison is one what-if against a resident query engine: both
    // baselines converge once, then the failure plays as a fork of each
    // checkpoint (`WHATIF FAIL-LINK` on the wire; see examples/whatif.rs
    // for the full grammar tour).
    let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Stamp], vec![dest]);
    cfg.seed = seed;
    cfg.params = params;
    let engine = QueryEngine::new(g, cfg).expect("baselines converge");
    let rows = match engine
        .whatif(&WhatIfShape::FailLink(dest, provider), None, None, None)
        .expect("the chosen provider link exists")
    {
        Response::WhatIf { rows, .. } => rows,
        other => panic!("expected WHATIF rows, got {other:?}"),
    };

    println!();
    println!(
        "{:<8} {:>14} {:>8} {:>12} {:>10}",
        "protocol", "affected ASes", "loops", "blackholes", "updates"
    );
    for row in &rows {
        let m = &row.metrics;
        println!(
            "{:<8} {:>14} {:>8} {:>12} {:>10}",
            row.proto,
            m.affected,
            m.affected_loops,
            m.affected_blackholes,
            m.updates_initial + m.updates_failure
        );
    }
}
