//! Warm-start determinism: a cell forked from a converged session must be
//! indistinguishable — bit for bit — from a cell that converged cold.
//!
//! This is the proof obligation of the one copy mechanism: the campaign's
//! warm path (`BaselineCache`) only exists because a copy of a session
//! carries *everything* the replay depends on (routers, in-flight
//! messages, scheduler, MRAI state, RNG stream positions, the path arena,
//! the live policy regime). Any state a copy missed shows up here as a
//! metrics diff on some protocol × scenario combination.

use stamp_repro::eventsim::rng::tags;
use stamp_repro::eventsim::rng_stream;
use stamp_repro::topology::{generate, GenConfig};
use stamp_repro::workload::{
    adversarial_families, run_protocol_cell, run_protocol_cell_warm, sample_canned, BaselineCache,
    FailureScenario, InstanceMetrics, Protocol, RunParams, Sim, SimError, PREFIX,
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

/// Observing costs a fork what it costs the cold cell: the ledger counts
/// only what a cell observes after its baseline, and every tracker starts
/// from its baseline's classification — computed by the cold cell itself,
/// by the first fork of a cached baseline, and copied by every later
/// fork. So the cold cell, the fork that classifies the cached baseline
/// and the fork that copies that classification count the same work.
#[test]
fn a_warm_cell_observes_exactly_what_the_cold_cell_observes() {
    let g = generate(&GenConfig::small(41)).expect("valid generator config");
    let params = RunParams::paper();
    let fp = params.policy.fingerprint();
    let mut rng = rng_stream(901, tags::WORKLOAD);
    let w = sample_canned(&g, FailureScenario::TwoLinksDifferentAs, &mut rng).expect("fits");
    let reachable = w.timeline.reachable_after(&g, w.dest).unwrap();
    let cache = BaselineCache::new();
    for p in Protocol::ALL {
        let session = || {
            Sim::on(&g)
                .protocol(p)
                .originate(w.dest, PREFIX)
                .seed(5)
                .params(params.clone())
                .build()
                .expect("in range")
        };
        let mut cold = session();
        let cold_metrics = cold.measure(&w.timeline, &reachable).expect("resolves");
        let mut baseline = session();
        baseline.converge();
        let baseline = cache.put(p, w.dest, 5, fp, baseline);
        for fork in ["classifies", "copies"] {
            let mut warm = session();
            warm.restore(&baseline).expect("same protocol");
            let m = warm.measure(&w.timeline, &reachable).expect("resolves");
            assert_eq!(m, cold_metrics, "{p}: the fork that {fork}");
            assert_eq!(
                warm.observer_work(),
                cold.observer_work(),
                "{p}: the fork that {fork} the baseline's classification"
            );
        }
        assert!(cold.observer_work().observations > 0, "{p}");
    }
}

/// Property: `checkpoint → mutate → restore → mutate` replays byte-
/// identically at any fork depth. Each depth plays a different timeline —
/// the canned link failures interleaved with the adversarial families
/// (origin hijack, prepend hijack, route leak, policy misconfiguration) —
/// so the checkpoint under test is taken from a progressively *dirtier*
/// session — post-convergence, post-replay, post-hijack, post-policy-flip…
/// — and must still rewind it exactly. And however dirty the session got,
/// the converged baseline stays one rewind away: a plain link failure
/// played from it equals the cold cell (a policy flip that survived a
/// restore would show here).
#[test]
fn restore_replays_bit_identically_at_any_fork_depth() {
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    let params = RunParams::paper();
    let mut rng = rng_stream(55, tags::WORKLOAD);
    for p in Protocol::ALL {
        let plain =
            sample_canned(&g, FailureScenario::SingleLink, &mut rng).expect("scenario fits");
        let dest = plain.dest;
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(23)
            .params(params.clone())
            .build()
            .expect("destination is in range");
        sim.converge();
        let baseline = sim.checkpoint();
        let plain_reach = plain.timeline.reachable_after(&g, dest).unwrap();
        let cold = run_protocol_cell(&g, &params, &plain.timeline, dest, &plain_reach, p, 23);

        // Each depth measures against the *same* session destination;
        // only the timeline varies.
        let mut canned = |scenario| {
            sample_canned(&g, scenario, &mut rng)
                .expect("scenario fits")
                .timeline
        };
        let mut depths = vec![
            plain.timeline.clone(),
            canned(FailureScenario::TwoLinksSameAs),
            canned(FailureScenario::SingleLink),
            canned(FailureScenario::TwoLinksDifferentAs),
        ];
        // hijack, failure, prepend, failure, leak, failure, flip, failure
        for (i, t) in adversarial_families(&g, &mut rng, &[dest], true)
            .into_iter()
            .enumerate()
        {
            depths.insert(2 * i, t);
        }
        for (depth, timeline) in depths.iter().enumerate() {
            let at = format!("{} depth {depth} ({})", p.label(), timeline.name());
            let reachable = timeline.reachable_after(&g, dest).unwrap();
            let ck = sim.checkpoint();
            let first = sim.measure(timeline, &reachable).expect("resolves");
            // Rewind in place, and — the owning-copy path — run a copy
            // taken *before* the mutation: both replay to the same metrics.
            sim.restore(&ck).expect("same protocol");
            let mut fork = ck.clone();
            let replay = sim.measure(timeline, &reachable).expect("resolves");
            let forked = fork.measure(timeline, &reachable).expect("resolves");
            assert_eq!(first, replay, "{at}: restore replay");
            assert_eq!(first, forked, "{at}: fork replay");
            // From wherever this depth left the session, back to the
            // baseline: the plain failure is the cold cell's again.
            fork.restore(&baseline).expect("same protocol");
            let rewound = fork
                .measure(&plain.timeline, &plain_reach)
                .expect("resolves");
            assert_eq!(cold, rewound, "{at}: baseline rewind vs cold cell");
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
    assert_eq!(
        stamp.restore(&bgp.checkpoint()),
        Err(SimError::CheckpointMismatch {
            expected: Protocol::Stamp,
            got: Protocol::Bgp,
        }),
        "cross-protocol restore must fail"
    );
    // Same router type, different protocol: still refused.
    let mut norci = build(Protocol::RbgpNoRci);
    assert_eq!(
        norci.restore(&build(Protocol::Rbgp)),
        Err(SimError::CheckpointMismatch {
            expected: Protocol::RbgpNoRci,
            got: Protocol::Rbgp,
        })
    );
}

/// A rewind re-targets a session: a *dirty* scratch session (it has replayed
/// the adversarial families against destination A) restored onto the
/// baseline of destination B, then of A again, measures exactly what a
/// cold cell for that destination measures — destination, prefix and
/// params travel with the copy. And through `clone_from`, which is what
/// the baseline cache's free list calls, one R-BGP session alternates
/// between R-BGP and R-BGP-without-RCI baselines (same engine kind,
/// different router configuration).
#[test]
fn a_dirty_session_rewinds_across_destinations_and_router_configs() {
    use stamp_repro::workload::{destination_candidates, single_link_failure, Timeline};
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    let params = RunParams::paper();
    let seed = 31;
    let dests = destination_candidates(&g);
    let (a, b) = (dests[0], dests[1]);
    // One plain failure per destination: its first provider link.
    let cell = |d| {
        let t = Timeline::from_events("plain", single_link_failure(d, g.providers(d)[0]));
        let reach = t.reachable_after(&g, d).unwrap();
        (t, reach)
    };
    let cells = [(a, cell(a)), (b, cell(b))];
    let baseline = |p: Protocol, d| {
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(d, PREFIX)
            .seed(seed)
            .params(params.clone())
            .build()
            .expect("destination is in range");
        sim.converge();
        sim
    };
    let cold = |p, d, (t, reach): &(Timeline, Vec<bool>)| {
        run_protocol_cell(&g, &params, t, d, reach, p, seed)
    };
    let mut rng = rng_stream(77, tags::WORKLOAD);
    for p in Protocol::ALL {
        let mut scratch = baseline(p, a);
        for t in adversarial_families(&g, &mut rng, &[a], true) {
            let reach = t.reachable_after(&g, a).unwrap();
            scratch.measure(&t, &reach).expect("resolves");
        }
        for (d, c) in [&cells[1], &cells[0], &cells[1]] {
            scratch.restore(&baseline(p, *d)).expect("same protocol");
            assert_eq!(scratch.dest(), *d, "{p}");
            let got = scratch.measure(&c.0, &c.1).expect("resolves");
            assert_eq!(got, cold(p, *d, c), "{p}: rewound onto destination {d}");
        }
    }
    let mut scratch = baseline(Protocol::Rbgp, a);
    for (p, (d, c)) in [
        (Protocol::RbgpNoRci, &cells[1]),
        (Protocol::Rbgp, &cells[0]),
        (Protocol::RbgpNoRci, &cells[0]),
        (Protocol::Rbgp, &cells[1]),
    ] {
        scratch.clone_from(&baseline(p, *d));
        assert_eq!((scratch.protocol(), scratch.dest()), (p, *d));
        let got = scratch.measure(&c.0, &c.1).expect("resolves");
        assert_eq!(got, cold(p, *d, c), "{p}: re-targeted onto destination {d}");
    }
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
