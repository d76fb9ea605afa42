//! `converge_scale`: cold `Sim::converge()` under `NullProbe`, paper
//! parameters, BGP / R-BGP / STAMP at three topology sizes and two
//! destinations each (a short pass, so that a run holds dozens of them —
//! the README's "Why minima"); one thread. The engine does all the work
//! — `forwarding`, the cache and `queryd` do none — so this is the
//! scaling row and the witness that observation costs nothing when nobody
//! asks.

use crate::common::{
    repeat_setup, repeat_setup_again, session, small_graph, timed, timed_passes, Job, RunCfg,
    Traced, Untraced, PROTOCOLS,
};
use crate::probes::scale_sizes;
use crate::stats::Digest;
use crate::trace::{spanned, Tracer};
use stamp_bgp::RunStats;
use stamp_eventsim::rng_stream;
use stamp_topology::{AsGraph, AsId};
use stamp_workload::{choose_k, destination_candidates, RunParams};

const NOT_QUIESCENT: &str = "a convergence did not reach quiescence";

struct Inputs {
    graphs: Vec<(AsGraph, Vec<AsId>)>,
    seed: u64,
}

fn setup(cfg: &RunCfg) -> Inputs {
    let world = cfg.world_seed(10);
    let seed = cfg.sub_seed(10);
    let graphs = scale_sizes(cfg)
        .iter()
        .map(|&n| {
            let g = small_graph(n, world);
            let mut rng = rng_stream(world, n as u64);
            let dests = choose_k(&mut rng, &destination_candidates(&g), 2);
            assert!(!dests.is_empty(), "no multi-homed AS at {n} ASes");
            (g, dests)
        })
        .collect();
    Inputs { graphs, seed }
}

fn fold(d: &mut Digest, s: &RunStats) {
    d.u64(s.announcements_sent);
    d.u64(s.withdrawals_sent);
    d.u64(s.delivered);
    d.u64(s.dropped);
    d.u64(s.coalesced);
    d.u64(s.events);
    d.u64(s.last_fib_change.as_micros());
    d.u64(s.last_delivery.as_micros());
}

/// One pass: every `(size, destination, protocol)` convergence, cold.
/// Returns the simulated events processed at each size, the digest of
/// every run's statistics, the number of runs, and how many did not
/// converge; the milliseconds of each run (build + converge) are appended
/// to `units`. With a tracer, the build and the convergence of each run
/// carry a span.
fn pass(
    inputs: &Inputs,
    mut tr: Option<&mut Tracer>,
    units: &mut Vec<f64>,
) -> (Vec<u64>, Digest, u64, u64) {
    let params = RunParams::paper();
    let (mut events, mut digest, mut runs, mut bad) = (Vec::new(), Digest::default(), 0, 0);
    for (g, dests) in &inputs.graphs {
        events.push(0);
        for &dest in dests {
            for p in PROTOCOLS {
                runs += 1;
                if let Some(tr) = tr.as_deref_mut() {
                    tr.set_id(runs);
                }
                let (stats, converged) = timed(units, || {
                    let mut sim = spanned(&mut tr, "workload.sim_build", || {
                        session(g, p, dest, inputs.seed, &params)
                    });
                    let stats = spanned(&mut tr, "bgp.converge", || sim.converge());
                    (stats, sim.outcome().is_converged())
                });
                *events.last_mut().expect("pushed above") += stats.events;
                fold(&mut digest, &stats);
                if !converged || stats.delivered == 0 {
                    bad += 1;
                }
            }
        }
    }
    (events, digest, runs, bad)
}

pub fn untraced(cfg: &RunCfg) -> Untraced {
    let (inputs, setup_s) = repeat_setup(|| setup(cfg), drop);
    let mut out = Untraced {
        setup_s,
        ..Untraced::default()
    };
    let mut first: Option<(Vec<u64>, Digest)> = None;
    let mut runs_per_pass = 0;
    let mut bad_total = 0;
    let mut drifted = 0u64;
    out.unit_ms = timed_passes(cfg.seconds, 3, |_| {
        let mut units = Vec::new();
        let (events, digest, runs, bad) = pass(&inputs, None, &mut units);
        runs_per_pass = runs;
        bad_total += bad;
        match &first {
            None => first = Some((events, digest)),
            Some(f) if *f != (events, digest) => drifted += 1,
            Some(_) => {}
        }
        units
    });
    repeat_setup_again(&mut out.setup_s, || setup(cfg), drop);
    let (events, digest) = first.expect("at least one pass ran");
    let passes = out.unit_ms.len() as u64;
    out.checks
        .tally(runs_per_pass * passes, bad_total, NOT_QUIESCENT);
    out.checks.check(drifted == 0, || {
        format!("{drifted} passes drifted from the first pass's events/digest")
    });
    // The three sizes' rates count alike: by time the 8000-AS runs are
    // nine tenths of a pass, and they are also the ones the host's noise
    // hits hardest (README, "Why minima").
    out.jobs = inputs
        .graphs
        .iter()
        .zip(&events)
        .map(|((_, dests), &e)| Job {
            units: dests.len() * PROTOCOLS.len(),
            ops: e as f64,
        })
        .collect();
    let events: u64 = events.iter().sum();
    out.ops_per_pass = events as f64;
    out.latencies_ms = vec![out.batch_latency_ms()];
    out.digest = digest;
    out.counters.insert("events_per_pass".to_string(), events);
    out.counters
        .insert("convergences_per_pass".to_string(), runs_per_pass);
    out
}

pub fn traced(cfg: &RunCfg, tr: &mut Tracer, out: &mut Traced) {
    let inputs = setup(cfg);
    let t0 = std::time::Instant::now();
    let mut units = Vec::new();
    let (events_plain, digest_plain, _, _) = pass(&inputs, None, &mut units);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = std::time::Instant::now();
    let (events, digest, runs, bad) = pass(&inputs, Some(tr), &mut units);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;

    out.checks.tally(runs, bad, NOT_QUIESCENT);
    out.checks
        .check(events == events_plain && digest == digest_plain, || {
            "traced pass differs from the untraced pass".to_string()
        });
    let events: u64 = events.iter().sum();
    out.set("eventsim.events", events as f64);
    out.set("trace.pass_ms", traced_ms);
    out.set("trace.untraced_pass_ms", untraced_ms);
    out.digest = digest;
    out.counters.insert("events_per_pass".to_string(), events);
}
