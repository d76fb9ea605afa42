//! Determinism regression tests for the arena-backed route representation
//! and the workload/campaign layer above it.
//!
//! The `PathArena` assigns ids sequentially in intern order, and intern
//! order is fixed by the deterministic event schedule — so equal seeds must
//! produce byte-identical metrics, run over run and regardless of how many
//! worker threads the experiment harness uses (each instance owns its
//! engines and arenas; threads only partition instances). These tests pin
//! that invariant: a scheduler or arena change that makes results depend on
//! intern timing or thread interleaving fails here first.
//!
//! The flap-train cases extend the same contract to scenario timelines:
//! sub-MRAI link flapping must quiesce to the never-flapped RIB, and a
//! campaign grid must merge byte-identically at any worker count.
//!
//! The golden tests at the bottom pin the `sim`-facade redesign as
//! *behavior-preserving*: the committed canned `InstanceMetrics` (every
//! field, f64s by bit pattern) were produced by the pre-redesign
//! `drive_timeline`/`run_protocol_cell` path and must keep coming out of
//! the builder/probe path byte-identically; the smoke-campaign aggregate
//! hash pins the whole smoke grid the same way.

use stamp_repro::bgp::types::PrefixId;
use stamp_repro::eventsim::rng::tags;
use stamp_repro::eventsim::{rng_stream, DelayModel, Fnv1a, SimDuration};
use stamp_repro::experiments::{run_failure_experiment, FailureConfig, FailureScenario, Protocol};
use stamp_repro::forwarding::{Classification, ForwardingView, TransientTracker};
use stamp_repro::sim::{NullProbe, Probe, Sim, SimEvent, SnapshotCause};
use stamp_repro::topology::{generate, AsId, GenConfig};
use stamp_repro::workload::{
    adversarial_grid, destination_candidates, flap_train, run_campaign, run_protocol_cell,
    sample_canned, smoke_grid, CampaignConfig, ObserverWork, PolicyRegime, RunOutcome, RunParams,
    SessionModel, Timeline, WatchdogConfig, PREFIX,
};

/// The full single-link-failure workload, run twice with identical
/// configuration: every per-instance metric of every protocol must match
/// exactly (f64 fields included — bitwise equality, not tolerance).
#[test]
fn single_link_failure_metrics_identical_across_runs() {
    let cfg = FailureConfig::tiny(0xD17E);
    let a = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    let b = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    for p in Protocol::ALL {
        assert_eq!(
            a.of(p).per_instance,
            b.of(p).per_instance,
            "{} diverged across identical runs",
            p.label()
        );
    }
}

/// A link flapping faster than MRAI (2 s period against a 30 s timer) must
/// still quiesce after the last flap, and the final RIB — next hop *and*
/// full selected AS path at every router — must be byte-identical to a run
/// that never flapped: the flap train ends with the link up, so any
/// residue (a stale MRAI pending, a lost withdrawal, a path-exploration
/// leftover) is a bug this test catches.
#[test]
fn sub_mrai_flap_train_quiesces_to_the_never_flapped_state() {
    let g = generate(&GenConfig::small(0xF1A9)).unwrap();
    let dest = destination_candidates(&g)[0];
    let p = g.providers(dest)[0];
    let params = RunParams {
        sessions: SessionModel {
            delay: DelayModel::fixed(SimDuration::from_millis(1)),
            ..SessionModel::paper()
        },
        inject_delay: SimDuration::from_secs(1),
        ..RunParams::default()
    };
    let run = |flap: bool| -> Vec<(Option<AsId>, Option<Vec<AsId>>)> {
        let mut sim = Sim::on(&g)
            .originate(dest, PrefixId(0))
            .seed(0xF1A9)
            .params(params.clone())
            .build()
            .unwrap();
        sim.converge();
        if flap {
            let t = Timeline::from_events(
                "flap",
                flap_train(
                    dest,
                    p,
                    SimDuration::ZERO,
                    SimDuration::from_secs(2),
                    0.5,
                    5,
                ),
            );
            // `play` runs to quiescence (bounded by the phase deadline,
            // far beyond the last MRAI expiry) — termination itself is the
            // quiescence assertion.
            sim.play(&t, &mut NullProbe).unwrap();
        }
        let e = sim.bgp().expect("default protocol is BGP");
        g.ases()
            .map(|v| {
                let nh = e.router(v).next_hop(PrefixId(0));
                let path = e
                    .router(v)
                    .selection(PrefixId(0))
                    .path_id()
                    .map(|id| e.paths().as_vec(id));
                (nh, path)
            })
            .collect()
    };
    assert_eq!(run(true), run(false), "flap residue in the final RIB");
}

/// The same flap train as a campaign grid cell, run at 1 worker and at 4:
/// the merged cells and the aggregate hash must be byte-identical — worker
/// interleaving must never reach the metrics.
#[test]
fn flap_campaign_identical_across_worker_counts() {
    let g = generate(&GenConfig::small(0xF1A9)).unwrap();
    let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(3).collect();
    let p = g.providers(dests[0])[0];
    let timelines = vec![Timeline::from_events(
        "flap",
        flap_train(
            dests[0],
            p,
            SimDuration::ZERO,
            SimDuration::from_secs(2),
            0.5,
            4,
        ),
    )];
    let mut cfg = CampaignConfig {
        params: RunParams {
            sessions: SessionModel {
                delay: DelayModel::fixed(SimDuration::from_millis(1)),
                ..SessionModel::paper()
            },
            inject_delay: SimDuration::from_secs(1),
            observe_interval: SimDuration::from_millis(100),
            ..RunParams::default()
        },
        protocols: vec![Protocol::Bgp, Protocol::Stamp],
        seeds: vec![1, 2],
        threads: 1,
    };
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, parallel.hash, "aggregate hash diverged");
    assert_eq!(serial.cells, parallel.cells, "cells diverged");
}

/// The same workload at `threads = 1` vs `threads = 2`: worker count must
/// not leak into the results (instances are partitioned, never shared).
#[test]
fn single_link_failure_metrics_identical_across_thread_counts() {
    let mut cfg = FailureConfig::tiny(0xD17E);
    cfg.threads = 1;
    let serial = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    cfg.threads = 2;
    let parallel = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
    for p in Protocol::ALL {
        assert_eq!(
            serial.of(p).per_instance,
            parallel.of(p).per_instance,
            "{} diverged between threads=1 and threads=2",
            p.label()
        );
    }
}

/// The figure runner, pinned: FNV-1a over every metric of every instance
/// of every protocol of all four failure scenarios on
/// `FailureConfig::tiny`. The value was computed on the commit *before*
/// `run_failure_experiment` became a cell list handed to
/// `workload::run_cells` (it then had its own worker pool, per-instance
/// seeds and mask computation), so it pins that the fold kept the sampling
/// order, the instance seeds, the masks and the instance-major merge — at
/// one worker and at three.
#[test]
fn figure_runner_hash_matches_the_pre_consolidation_golden() {
    for threads in [1, 3] {
        let cfg = FailureConfig {
            threads,
            ..FailureConfig::tiny(0xF16)
        };
        let mut h = Fnv1a::new();
        for scenario in [
            FailureScenario::SingleLink,
            FailureScenario::TwoLinksDifferentAs,
            FailureScenario::TwoLinksSameAs,
            FailureScenario::NodeFailure,
        ] {
            let rep = run_failure_experiment(&cfg, scenario, &Protocol::ALL);
            for (p, r) in &rep.results {
                h.write_u64(*p as u64);
                for m in &r.per_instance {
                    m.words().into_iter().for_each(|w| h.write_u64(w));
                }
            }
        }
        assert_eq!(
            h.finish(),
            0x395eea675e58cc2d,
            "figure-runner metrics drifted at threads = {threads}"
        );
    }
}

// ---------------------------------------------------------------------
// Golden values: the sim facade is behavior-preserving
// ---------------------------------------------------------------------

/// One golden row: `InstanceMetrics::words` — every counter, the two
/// f64s by bit pattern.
type Golden = [u64; 9];

/// The canned Figure 2 / 3a / 3b workloads, all four protocols, pinned to
/// the exact metrics the pre-redesign `run_protocol_cell` (hand-rolled
/// `Engine::new` wiring, boxed per-observation views) produced on this
/// configuration. Any drift — a reordered observation, a changed RNG
/// stream, an extra snapshot — fails here field-by-field.
#[test]
fn canned_workload_metrics_match_pre_redesign_goldens() {
    #[rustfmt::skip]
    let golden: [(FailureScenario, [Golden; 4]); 3] = [
        (FailureScenario::SingleLink, [
            [75, 0, 75, 16, 439, 204, 0x3f689374bc6a7efa, 0x3f60624dd2f1a9fc, 52],
            [0, 0, 0, 10, 562, 268, 0x3f70624dd2f1a9fc, 0x0000000000000000, 198],
            [0, 0, 0, 0, 562, 291, 0x3f70624dd2f1a9fc, 0x0000000000000000, 200],
            [0, 0, 0, 0, 890, 813, 0x3f747bedb7281fda, 0x0000000000000000, 124],
        ]),
        (FailureScenario::TwoLinksDifferentAs, [
            [46, 46, 34, 31, 379, 613, 0x3f70635a426bb55b, 0x3f606466b1e5c0ba, 74],
            [46, 46, 30, 31, 497, 5586, 0x3f7cbddb9841aac5, 0x3f606466b1e5c0ba, 575],
            [46, 46, 4, 26, 497, 3303, 0x3f7cb46bacf74470, 0x3f689374bc6a7efa, 398],
            [37, 0, 37, 6, 794, 834, 0x3f747ae147ae147b, 0x3f606466b1e5c0ba, 101],
        ]),
        (FailureScenario::TwoLinksSameAs, [
            [21, 0, 21, 28, 427, 428, 0x3f70624dd2f1a9fc, 0x3f50624dd2f1a9fc, 64],
            [21, 0, 21, 28, 544, 2233, 0x3f748344c37e6f72, 0x3f50624dd2f1a9fc, 363],
            [21, 0, 21, 14, 544, 3119, 0x3f74898f605ab3ab, 0x3f50624dd2f1a9fc, 421],
            [21, 0, 21, 1, 792, 957, 0x3f747ae147ae147b, 0x3f50624dd2f1a9fc, 109],
        ]),
    ];

    let g = generate(&GenConfig::small(0x601D)).unwrap();
    let params = RunParams::fast();
    for (i, (scenario, rows)) in golden.iter().enumerate() {
        let mut rng = rng_stream(0x601D + i as u64, tags::WORKLOAD);
        let w = sample_canned(&g, *scenario, &mut rng).unwrap();
        let reachable = w.timeline.reachable_after(&g, w.dest).unwrap();
        for (p, want) in Protocol::ALL.iter().zip(rows) {
            let m = run_protocol_cell(
                &g,
                &params,
                &w.timeline,
                w.dest,
                &reachable,
                *p,
                0x5EED ^ i as u64,
            );
            assert_eq!(m.words(), *want, "{scenario:?} / {p} drifted from golden");
        }
    }
}

/// The smoke grid (`smoke_grid`), pinned to its aggregate hash. The
/// pre-redesign path produced the metrics behind it; the value was last
/// re-pinned when a cell's engine seed stopped depending on its timeline
/// and the fold became plain FNV-1a with every outcome tagged
/// (EXPERIMENTS.md, "One re-pin"). The hash folds in every metric of every
/// cell, so this is a byte-identity check over the whole grid. This test
/// is the hash's one gate: ci.sh runs this file again under `--release`,
/// so a result that depends on the build profile fails here too.
#[test]
fn smoke_campaign_hash_matches_pre_redesign_golden() {
    let (g, timelines, dests, cfg) = smoke_grid(0xCA4A16);
    let rep = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(rep.cells.len(), 10);
    assert_eq!(
        rep.hash, 0xc7794f6a74296cf1,
        "smoke-campaign aggregate drifted from its pinned golden"
    );

    // The observer's work on that grid, pinned like the hash (the hash
    // does not fold it). These are counts, not times: they repeat exactly
    // on any host at any worker count, so a change that makes observing
    // scan the world again — `rows` jumping to ticks × 200, `rewalked` to
    // ticks × states — fails here on a one-core box where no wall clock
    // could tell. Re-pin deliberately when the engine's event order, the
    // feed's marking rule, the classifier's cone or what a tracker starts
    // from changes. (Trackers start from their baseline's classification,
    // so the baseline's own classification is not counted: no cell pays an
    // all-rows first tick, except R-BGP's, whose first tick follows a
    // liveness flip.)
    let work =
        |observations, rows_recompiled, states_rewalked, ases_folded, control_evals| ObserverWork {
            observations,
            rows_recompiled,
            states_rewalked,
            ases_folded,
            control_evals,
        };
    for (p, pinned) in [
        (Protocol::Bgp, work(97, 2370, 1712, 656, 1686)),
        (Protocol::Rbgp, work(139, 9103, 1672, 410, 7965)),
        (Protocol::Stamp, work(143, 4031, 8038, 92, 2486)),
    ] {
        assert_eq!(rep.observer_work(p), pinned, "{p} observer work moved");
    }
}

/// Observation scales with the event, not the topology: on a 2000-AS cell
/// under a sub-MRAI flap train, the states a tracker seeded at the
/// baseline re-walks — its first tick included — stay under 5 % of what
/// walking every state at every tick would cost. The measured shares are
/// 1.5 % (BGP), 0.9 % (R-BGP) and 0.5 % (STAMP); the bound leaves room for
/// other seeds, not for a return to the per-tick world scan.
#[test]
fn observer_rewalks_a_sliver_of_the_state_space_at_2000_ases() {
    /// The metrics probe's cadence: seeded at the baseline, then every
    /// periodic and final snapshot.
    struct Ledger {
        dest: AsId,
        tracker: Option<TransientTracker>,
    }
    impl Probe for Ledger {
        fn on_event<V: ForwardingView + ?Sized>(&mut self, event: SimEvent<'_, V>) {
            let SimEvent::Snapshot { cause, view, .. } = event else {
                return;
            };
            match (cause, &mut self.tracker) {
                (SnapshotCause::Baseline, t) => {
                    let baseline = Classification::of(view);
                    let all = vec![true; view.n()];
                    *t = Some(TransientTracker::seeded(
                        self.dest,
                        all,
                        &baseline,
                        view,
                        vec![],
                    ));
                }
                (_, Some(t)) => t.observe(view),
                (_, None) => panic!("a play snapshots its baseline first"),
            }
        }
    }

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(0xCA4A16)
    })
    .unwrap();
    let dest = destination_candidates(&g)[0];
    let s = SimDuration::from_secs;
    let flaps = Timeline::from_events(
        "flap-train",
        flap_train(dest, g.providers(dest)[0], s(0), s(10), 0.5, 6),
    );
    for p in [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp] {
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(dest, PREFIX)
            .seed(0xCA4A16)
            .params(RunParams::paper())
            .build()
            .unwrap();
        sim.converge();
        sim.reset_measurement();
        let mut ledger = Ledger {
            dest,
            tracker: None,
        };
        sim.play(&flaps, &mut ledger).unwrap();
        let work = ledger.tracker.expect("a play snapshots").work();
        let states = g.n() as u64 * sim.with_view(|v| u64::from(v.n_ctx()));
        let (ticks, rewalked) = (work.observations, work.states_rewalked);
        assert!(ticks >= 12, "{p}: every flap edge is a tick");
        assert!(
            rewalked * 20 <= ticks * states,
            "{p}: re-walked {rewalked} states over {ticks} ticks of {states}"
        );
    }
}

// ---------------------------------------------------------------------
// Divergence as data: the watchdog's typed outcome in the campaign layer
// ---------------------------------------------------------------------

/// The adversarial grid (`adversarial_grid`, the same constructor the
/// `campaign` binary records in `BENCH_campaign.json`), pinned to its
/// aggregate hash — under debug and, by ci.sh, under release. Hijacks,
/// leaks and the policy flip are
/// timeline *data* — this pins their injection order, RNG draws and
/// per-protocol metrics in one number, at any worker count.
#[test]
fn adversarial_campaign_hash_is_pinned_and_worker_independent() {
    let (g, timelines, dests, mut cfg) = adversarial_grid(0xCA4A16);
    cfg.threads = 1;
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, parallel.hash, "aggregate hash diverged");
    assert_eq!(
        serial.hash, 0xf419a8d31f6b0e0a,
        "adversarial-campaign aggregate drifted from its pinned golden"
    );
}

/// A campaign grid whose cells *diverge*: the dispute-wheel gadget under
/// `naive-prefer-peer` with a tight watchdog. The grid must terminate (no
/// wedged worker), every BGP cell must carry a typed `Diverged` outcome,
/// and the aggregate hash — which folds in the divergence period and
/// churn — must be byte-identical run over run and across worker counts.
#[test]
fn diverging_cells_fold_into_the_aggregate_deterministically() {
    use stamp_repro::topology::GraphBuilder;

    let mut b = GraphBuilder::new();
    b.preregister(4);
    b.peering(0, 1).unwrap();
    b.peering(1, 2).unwrap();
    b.peering(0, 2).unwrap();
    b.customer_of(3, 0).unwrap();
    b.customer_of(3, 1).unwrap();
    b.customer_of(3, 2).unwrap();
    let g = b.build().unwrap();

    let mut params = RunParams::fast();
    params.policy = PolicyRegime::by_name("naive-prefer-peer").unwrap();
    params.watchdog = WatchdogConfig {
        arm_after: SimDuration::from_secs(10),
        sample_every: SimDuration::from_secs(1),
        max_events: 10_000_000,
    };
    let timelines = vec![Timeline::from_events("noop", Vec::new())];
    let dests = vec![AsId(3)];
    let mut cfg = CampaignConfig {
        params,
        protocols: vec![Protocol::Bgp],
        seeds: vec![5, 6],
        threads: 1,
    };
    let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    for cell in &serial.cells {
        for (p, m) in &cell.metrics {
            match m.outcome {
                RunOutcome::Diverged { period, churn } => {
                    assert!(period > SimDuration::ZERO);
                    assert!(churn > 0);
                }
                other => panic!("{} cell expected Diverged, got {other:?}", p.label()),
            }
        }
    }
    assert_eq!(serial.aggregate(0, Protocol::Bgp).diverged, 2);
    let again = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(serial.hash, again.hash, "divergence hash not reproducible");
    cfg.threads = 4;
    let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
    assert_eq!(
        serial.hash, parallel.hash,
        "divergence hash depends on worker count"
    );
}
