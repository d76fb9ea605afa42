//! Warm-start determinism: a cell forked from a converged checkpoint must
//! be indistinguishable — bit for bit — from a cell that converged cold.
//!
//! This is the proof obligation of the checkpoint/restore layer: the
//! campaign's warm path (`BaselineCache`) only exists because `restore`
//! rewinds *everything* the replay depends on (routers, in-flight
//! messages, scheduler, MRAI state, RNG stream positions, the path-arena
//! high-water mark). Any field missed by the checkpoint shows up here as
//! a metrics diff on some protocol × scenario combination.

use stamp_repro::eventsim::rng::tags;
use stamp_repro::eventsim::rng_stream;
use stamp_repro::topology::{generate, GenConfig};
use stamp_repro::workload::{
    run_protocol_cell, run_protocol_cell_warm, sample_canned, BaselineCache, FailureScenario,
    InstanceMetrics, Protocol, RunParams, Sim, PREFIX,
};

/// Every protocol × canned paper scenario (Fig 2, Fig 3a, Fig 3b): run the
/// cell cold, then twice against a warm cache (the first call converges
/// and deposits the checkpoint, the second forks from it). All three
/// `InstanceMetrics` must be bit-identical.
#[test]
fn forked_cell_matches_cold_cell_on_canned_scenarios() {
    let g = generate(&GenConfig::small(41)).expect("valid generator config");
    let params = RunParams::paper();
    let scenarios = [
        FailureScenario::SingleLink,
        FailureScenario::TwoLinksDifferentAs,
        FailureScenario::TwoLinksSameAs,
    ];
    for (si, scenario) in scenarios.iter().enumerate() {
        let mut rng = rng_stream(900 + si as u64, tags::WORKLOAD);
        let w = sample_canned(&g, *scenario, &mut rng).expect("topology hosts the scenario");
        let reachable = w.timeline.reachable_after(&g, w.dest).unwrap();
        for p in Protocol::ALL {
            let seed = 7 + si as u64;
            let cold: InstanceMetrics =
                run_protocol_cell(&g, &params, &w.timeline, w.dest, &reachable, p, seed);
            let cache = BaselineCache::new();
            let depositing = run_protocol_cell_warm(
                &g,
                &params,
                &w.timeline,
                w.dest,
                &reachable,
                p,
                seed,
                &cache,
            );
            assert_eq!(cache.len(), 1, "first warm call deposits the baseline");
            let forked = run_protocol_cell_warm(
                &g,
                &params,
                &w.timeline,
                w.dest,
                &reachable,
                p,
                seed,
                &cache,
            );
            assert_eq!(
                cold,
                depositing,
                "{} / {}: depositing pass diverged from cold",
                p.label(),
                scenario.label()
            );
            assert_eq!(
                cold,
                forked,
                "{} / {}: forked cell diverged from cold",
                p.label(),
                scenario.label()
            );
        }
    }
}

/// Property: `snapshot → mutate → restore → mutate` replays byte-
/// identically at any fork depth. Each depth plays a different timeline,
/// so the checkpoint under test is taken from a progressively *dirtier*
/// session — post-convergence, post-replay, post-replay-of-replay… — and
/// must still rewind it exactly.
#[test]
fn restore_replays_bit_identically_at_any_fork_depth() {
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    let mut rng = rng_stream(55, tags::WORKLOAD);
    let scenarios = [
        FailureScenario::SingleLink,
        FailureScenario::TwoLinksSameAs,
        FailureScenario::SingleLink,
        FailureScenario::TwoLinksDifferentAs,
    ];
    for p in Protocol::ALL {
        let w0 = sample_canned(&g, scenarios[0], &mut rng).expect("scenario fits");
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(w0.dest, PREFIX)
            .seed(23)
            .params(RunParams::paper())
            .build()
            .expect("destination is in range");
        sim.converge();
        for (depth, scenario) in scenarios.iter().enumerate() {
            // Each depth measures a scenario against the *same* session
            // destination; only the timeline varies.
            let w = sample_canned(&g, *scenario, &mut rng).expect("scenario fits");
            let reachable = w.timeline.reachable_after(&g, sim.dest()).unwrap();
            let ck = sim.checkpoint();
            let first = sim.measure(&w.timeline, &reachable).expect("resolves");
            // Also check the owning-copy path: a fork taken *before* the
            // mutation must replay to the same metrics.
            sim.restore(&ck).expect("same protocol");
            let mut fork = sim.fork();
            let replay = sim.measure(&w.timeline, &reachable).expect("resolves");
            let forked = fork.measure(&w.timeline, &reachable).expect("resolves");
            assert_eq!(first, replay, "{} depth {depth}: restore replay", p.label());
            assert_eq!(first, forked, "{} depth {depth}: fork replay", p.label());
            // Continue to the next depth from the mutated state, so depth
            // d+1 checkpoints a session that has already replayed d
            // timelines.
        }
    }
}

/// A checkpoint only restores into a session of the same protocol; the
/// mismatch is a typed error, not a corrupted engine.
#[test]
fn restore_rejects_protocol_mismatch() {
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    let dest = stamp_repro::workload::destination_candidates(&g)[0];
    let build = |p: Protocol| {
        Sim::on(&g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(1)
            .fast()
            .build()
            .expect("in range")
    };
    let bgp = build(Protocol::Bgp);
    let mut stamp = build(Protocol::Stamp);
    let err = stamp.restore(&bgp.checkpoint());
    assert!(err.is_err(), "cross-protocol restore must fail");
}

/// `Sim::converge` is idempotent and the second call is a cheap flag
/// check: no events run, no updates are sent, the clock does not move.
#[test]
fn converge_twice_is_a_cheap_noop() {
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    let dest = stamp_repro::workload::destination_candidates(&g)[0];
    for p in Protocol::ALL {
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(9)
            .params(RunParams::paper())
            .build()
            .expect("in range");
        let s1 = sim.converge();
        let at = sim.now();
        let s2 = sim.converge();
        assert_eq!(
            s1.announcements_sent + s1.withdrawals_sent,
            s2.announcements_sent + s2.withdrawals_sent,
            "{}: second converge sent updates",
            p.label()
        );
        assert_eq!(
            sim.now(),
            at,
            "{}: second converge advanced time",
            p.label()
        );
        assert_eq!(
            sim.updates_initial(),
            s1.announcements_sent + s1.withdrawals_sent,
            "{}",
            p.label()
        );
    }
}
