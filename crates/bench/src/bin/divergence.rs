//! `divergence`: the CI divergence-smoke gate.
//!
//! Runs Griffin's BAD GADGET — origin AS 3 a customer of the peering
//! triangle 0–1–2 — under the `naive-prefer-peer` regime (peer > customer
//! with plain valley-free export) and the synchronous `fast` dynamics, the
//! exact combination proven to oscillate forever. The convergence watchdog
//! must terminate the run with a typed `Diverged { period, churn }` in
//! bounded sim time; a run that converges, exhausts its budget, or blows
//! the deadline is a regression in the watchdog and exits non-zero.
//!
//! This is deliberately the *engine-level* gate (the campaign-cell and
//! queryd layers have their own tests): if the fingerprint sampler breaks,
//! this binary is the first and loudest alarm.

#![forbid(unsafe_code)]

use stamp_bench::read_args;
use stamp_bgp::engine::{RunOutcome, WatchdogConfig};
use stamp_bgp::{BgpRouter, Engine, EngineConfig, PrefixId};
use stamp_eventsim::{SimDuration, SimTime};
use stamp_policy::PolicyRegime;
use stamp_topology::{AsGraph, AsId, GraphBuilder};

/// The dispute-wheel gadget (mirrors the engine's own `bad_gadget` test
/// topology): origin 3 multi-homed to a peering triangle.
fn gadget() -> AsGraph {
    let mut b = GraphBuilder::new();
    b.preregister(4);
    b.peering(0, 1).expect("valid edge");
    b.peering(1, 2).expect("valid edge");
    b.peering(0, 2).expect("valid edge");
    b.customer_of(3, 0).expect("valid edge");
    b.customer_of(3, 1).expect("valid edge");
    b.customer_of(3, 2).expect("valid edge");
    b.build().expect("the gadget is a valid graph")
}

fn main() {
    let seed = read_args(
        "divergence [--seed N]\n\
         Runs the 4-AS dispute-wheel gadget under the naive-prefer-peer\n\
         regime with a tight convergence watchdog and requires the run to\n\
         terminate with a typed Diverged outcome in bounded sim time.\n\
         Exit 0 on Diverged (the expected outcome), 1 otherwise.",
        |args| Ok(args.value("--seed")?.unwrap_or(7)),
    );

    let cfg = EngineConfig {
        policy: PolicyRegime::by_name("naive-prefer-peer")
            .expect("naive-prefer-peer is a named regime")
            .compile()
            .expect("the naive regime compiles"),
        watchdog: WatchdogConfig {
            arm_after: SimDuration::from_secs(10),
            sample_every: SimDuration::from_secs(1),
            max_events: 10_000_000,
        },
        ..EngineConfig::fast(seed)
    };
    let mut e = Engine::new(gadget(), cfg, |v| {
        let own = if v == AsId(3) {
            vec![PrefixId(0)]
        } else {
            vec![]
        };
        BgpRouter::new(v, own)
    });
    e.start();
    let deadline = SimTime::from_secs(3600);
    let outcome = e.run_to_quiescence(Some(deadline));
    let stats = e.stats();
    match outcome {
        RunOutcome::Diverged { period, churn } => {
            println!(
                "divergence gate OK: Diverged {{ period {} us, churn {churn} }} detected at \
                 sim t={} us after {} events (seed {seed:#x})",
                period.as_micros(),
                e.now().as_micros(),
                stats.events
            );
            if e.now() >= deadline {
                eprintln!("divergence gate FAILED: detection was not in bounded sim time");
                std::process::exit(1);
            }
        }
        other => {
            eprintln!(
                "divergence gate FAILED: expected Diverged, got {other:?} at sim t={} us \
                 after {} events",
                e.now().as_micros(),
                stats.events
            );
            std::process::exit(1);
        }
    }
}
