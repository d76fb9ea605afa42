//! Integration tests: the per-protocol forwarding views over live engines,
//! reproducing miniature versions of the paper's Figure 2 comparison on the
//! diamond topology.
//!
//! This crate sits *below* the `stamp_workload::sim` facade (which depends
//! on it), so these are the one set of engine-driving tests that wire
//! `Engine::new` by hand — they pin the view layer's own contract; every
//! consumer above goes through `SimBuilder`.

use stamp_bgp::engine::{Engine, EngineConfig, ScenarioEvent};
use stamp_bgp::router::BgpRouter;
use stamp_bgp::types::{PrefixId, ProcId, RootCause};
use stamp_core::{LockStrategy, StampRouter};
use stamp_eventsim::{rng_stream, SimDuration};
use stamp_forwarding::view::{FeedCursor, SelectionKey, Touched};
use stamp_forwarding::{
    classify_all, BgpView, DataPlane, EngineView, ForwardingView, Outcome, RbgpView, StampView,
    Step, TransientTracker,
};
use stamp_rbgp::{RbgpConfig, RbgpRouter};
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::{AsGraph, AsId, GraphBuilder, LinkId, StaticRoutes};

const P: PrefixId = PrefixId(0);

/// The diamond:
///
/// ```text
///   0 ==== 1      tier-1 peers
///   |      |
///   2      3
///    \    /
///      4        multi-homed origin
/// ```
fn diamond() -> AsGraph {
    let mut b = GraphBuilder::new();
    b.preregister(5);
    b.peering(0, 1).unwrap();
    b.customer_of(2, 0).unwrap();
    b.customer_of(3, 1).unwrap();
    b.customer_of(4, 2).unwrap();
    b.customer_of(4, 3).unwrap();
    b.build().unwrap()
}

fn reachable_after(g: &AsGraph, dest: AsId, removed: &[stamp_topology::LinkId]) -> Vec<bool> {
    let g2 = g.without_links(removed);
    let r = StaticRoutes::compute(&g2, dest);
    (0..g.n() as u32).map(|v| r.reachable(AsId(v))).collect()
}

#[test]
fn bgp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        BgpRouter::new(v, if v == AsId(4) { vec![P] } else { vec![] })
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&BgpView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

#[test]
fn stamp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        StampRouter::new(
            v,
            if v == AsId(4) { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&StampView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

#[test]
fn rbgp_view_all_delivered_after_convergence() {
    let g = diamond();
    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::fast(1), |v| {
        RbgpRouter::new(
            v,
            if v == AsId(4) { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let outcomes = classify_all(&RbgpView {
        engine: &e,
        prefix: P,
    });
    assert!(outcomes.iter().all(|o| *o == Outcome::Delivered));
}

/// The miniature Figure 2: fail one of the origin's provider links under
/// realistic delays and MRAI, observe transient problems during
/// convergence, and check the paper's ordering STAMP ≤ BGP on this
/// STAMP-favourable topology.
#[test]
fn single_link_failure_stamp_not_worse_than_bgp() {
    let g = diamond();
    let dest = AsId(4);
    let failed = g.link_between(AsId(4), AsId(2)).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);

    // Plain BGP with the paper's delay/MRAI model.
    let mut bgp: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        BgpRouter::new(v, if v == dest { vec![P] } else { vec![] })
    });
    bgp.start();
    bgp.run_to_quiescence(None);
    let mut bgp_tracker = TransientTracker::new(dest, reachable.clone());
    bgp.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    bgp.run_until_quiescent(None, |e, _t| {
        bgp_tracker.observe(&BgpView {
            engine: e,
            prefix: P,
        });
    });

    // STAMP on the identical scenario.
    let mut stamp: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        StampRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    stamp.start();
    stamp.run_to_quiescence(None);
    let mut stamp_tracker = TransientTracker::new(dest, reachable.clone());
    stamp.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    stamp.run_until_quiescent(None, |e, _t| {
        stamp_tracker.observe(&StampView {
            engine: e,
            prefix: P,
        });
    });

    assert!(
        stamp_tracker.affected_count() <= bgp_tracker.affected_count(),
        "STAMP {} > BGP {}",
        stamp_tracker.affected_count(),
        bgp_tracker.affected_count()
    );
}

/// R-BGP with RCI should keep every AS connected through the failure of a
/// link when failover paths exist (the Figure 2 "R-BGP ≈ 0" bar).
#[test]
fn rbgp_rci_protects_single_link_failure() {
    let g = diamond();
    let dest = AsId(4);
    // Fail the 0–2 link: AS 0 loses its customer path but holds an
    // alternative via peer 1, and 2 keeps its customer route to 4 — the
    // interesting case is traffic from 0 and above.
    let failed = g.link_between(AsId(0), AsId(2)).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);

    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        RbgpRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let mut tracker = TransientTracker::new(dest, reachable);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    e.run_until_quiescent(None, |e, _t| {
        tracker.observe(&RbgpView {
            engine: e,
            prefix: P,
        });
    });
    assert_eq!(
        tracker.affected_count(),
        0,
        "R-BGP with RCI should protect the diamond"
    );
}

/// STAMP's colour switch rescues packets when the blue side dies: the AS
/// losing blue still holds a (downhill) red route and flips the packet.
#[test]
fn stamp_switch_rescues_packets_during_convergence() {
    let g = diamond();
    let dest = AsId(4);
    let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        StampRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            LockStrategy::Random { seed: 1 },
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let lock = e.router(dest).lock_target(P).unwrap();
    let failed = g.link_between(dest, lock).unwrap();
    let reachable = reachable_after(&g, dest, &[failed]);
    let mut tracker = TransientTracker::new(dest, reachable);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    e.run_until_quiescent(None, |e, _t| {
        tracker.observe(&StampView {
            engine: e,
            prefix: P,
        });
    });
    assert_eq!(
        tracker.affected_count(),
        0,
        "the diamond gives every AS disjoint red/blue paths; no transient \
         problems expected under a single event"
    );
}

/// Node failure: the origin's lock provider dies entirely. STAMP must keep
/// at least as many ASes connected as plain BGP.
#[test]
fn node_failure_stamp_not_worse_than_bgp() {
    let g = diamond();
    let dest = AsId(4);
    let victim = AsId(2);
    let removed: Vec<_> = g
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.touches(victim))
        .map(|(i, _)| stamp_topology::LinkId(i as u32))
        .collect();
    let reachable = reachable_after(&g, dest, &removed);

    let run_bgp = || {
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
            BgpRouter::new(v, if v == dest { vec![P] } else { vec![] })
        });
        e.start();
        e.run_to_quiescence(None);
        let mut tr = TransientTracker::new(dest, reachable.clone());
        e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailNode(victim));
        e.run_until_quiescent(None, |e, _t| {
            tr.observe(&BgpView {
                engine: e,
                prefix: P,
            });
        });
        tr.affected_count()
    };
    let run_stamp = || {
        let mut e: Engine<StampRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
            StampRouter::new(
                v,
                if v == dest { vec![P] } else { vec![] },
                LockStrategy::Random { seed: 1 },
            )
        });
        e.start();
        e.run_to_quiescence(None);
        let mut tr = TransientTracker::new(dest, reachable.clone());
        e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailNode(victim));
        e.run_until_quiescent(None, |e, _t| {
            tr.observe(&StampView {
                engine: e,
                prefix: P,
            });
        });
        tr.affected_count()
    };
    assert!(run_stamp() <= run_bgp());
}

// ---------------------------------------------------------------------
// Incremental observation ≡ from-scratch observation
// ---------------------------------------------------------------------

/// A view with its touched feed hidden: every observation through it
/// re-examines every row, so a tracker fed through it is the from-scratch
/// reference for one fed the real view.
struct NoFeed<'a, V>(&'a V);

impl<V: ForwardingView> ForwardingView for NoFeed<'_, V> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn n_ctx(&self) -> u8 {
        self.0.n_ctx()
    }
    fn start_ctx(&self, src: AsId) -> u8 {
        self.0.start_ctx(src)
    }
    fn step(&self, at: AsId, ctx: u8) -> Step {
        self.0.step(at, ctx)
    }
    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        self.0.selection_paths(v)
    }
    fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
        self.0.selection_key(v)
    }
}

/// Everything a tracker reports, for comparing two of them.
fn report(t: &TransientTracker) -> (Vec<bool>, [usize; 4], [u64; 3], bool) {
    (
        t.affected().to_vec(),
        [
            t.affected_count(),
            t.loop_count(),
            t.blackhole_count(),
            t.control_affected_count(),
        ],
        [
            t.observations,
            t.observations_with_loops,
            t.observations_with_blackholes,
        ],
        t.last_observation_had_problems,
    )
}

/// What every engine view promises whatever protocol it is over: packet
/// contexts stay below `n_ctx`, and the selection key holds exactly the
/// path id of each process that has a selection, in process order — so
/// STAMP's `[red, —]` and `[—, blue]` each key as one id — and
/// `selection_paths` is those ids' paths. Returns how many ASes hold a
/// selection in some but not all of their processes.
fn assert_view_contract<R: DataPlane>(v: &EngineView<'_, R>) -> usize {
    let mut partial = 0;
    for a in v.engine.topology().ases() {
        assert!(v.start_ctx(a) < v.n_ctx(), "start_ctx({a})");
        for ctx in 0..v.n_ctx() {
            if let Step::Hop { ctx: next, .. } = v.step(a, ctx) {
                assert!(
                    next < v.n_ctx(),
                    "step({a}, {ctx}) hops into context {next}"
                );
            }
        }
        let speaker = v.engine.router(a).speaker();
        let held: Vec<_> = ProcId::first_n(R::PROCS)
            .filter_map(|proc| speaker.selection(v.prefix, proc).path_id())
            .collect();
        let key = v.selection_key(a).expect("an engine view keys every AS");
        assert_eq!(key.ids(), held, "selection_key({a})");
        let paths: Vec<_> = held.iter().map(|p| v.engine.paths().as_vec(*p)).collect();
        assert_eq!(v.selection_paths(a), paths, "selection_paths({a})");
        partial += usize::from(!held.is_empty() && held.len() < R::PROCS);
    }
    partial
}

fn procs<R: DataPlane>(_: &Engine<R>) -> usize {
    R::PROCS
}

/// Drive a converged engine through three seeded random timelines — link
/// flaps, node failures and recoveries, drawn so that events overlap while
/// the network is still re-converging from earlier ones — with a rewind to
/// the converged checkpoint before the third. After every observer
/// callback the incremental tracker must agree with the from-scratch
/// oracle on every AS's outcome, and with a reference tracker that
/// re-examines every row every tick on everything it reports; and the view
/// itself must keep [`assert_view_contract`]. A macro because the view type
/// borrows the engine it is built from.
macro_rules! equivalence_test {
    ($name:ident, $engine:expr, $view:ident) => {
        #[test]
        fn $name() {
            for seed in [3u64, 17] {
                let g = generate(&GenConfig::small(seed)).unwrap();
                let n = g.n();
                let dest = AsId::from_usize(n - 1);
                #[allow(clippy::redundant_closure_call)]
                let mut e = ($engine)(g.clone(), dest, seed);
                e.start();
                e.run_to_quiescence(None);
                let ck = e.clone();

                let mut rng = rng_stream(seed, 0xE9);
                let links: Vec<LinkId> = (0..g.n_links() as u32).map(LinkId).collect();
                // The control metric watches one link that the first
                // timeline is sure to fail.
                let watched = *rng.choose(&links).unwrap();
                let cause = {
                    let l = g.link(watched);
                    vec![RootCause::link(l.a, l.b)]
                };
                // AS 0 is left out of the count, as a partitioned AS is.
                let mut reachable = vec![true; n];
                reachable[0] = false;
                let mut inc = TransientTracker::new(dest, reachable.clone());
                let mut scratch = TransientTracker::new(dest, reachable);
                {
                    let v = $view {
                        engine: &e,
                        prefix: P,
                    };
                    inc.with_control_metric(cause.clone(), &v);
                    scratch.with_control_metric(cause, &NoFeed(&v));
                }

                let (mut ticks, mut partial) = (0u64, 0);
                for round in 0..3 {
                    if round == 2 {
                        e.clone_from(&ck);
                    }
                    let mut events = vec![(0u64, ScenarioEvent::FailLink(watched))];
                    for _ in 0..10 {
                        let at = rng.gen_range(0..4_000u64);
                        let back = at + rng.gen_range(5..3_000u64);
                        if rng.gen_bool(0.3) {
                            let v = AsId::from_usize(rng.gen_range(1..n - 1));
                            events.push((at, ScenarioEvent::FailNode(v)));
                            events.push((back, ScenarioEvent::RecoverNode(v)));
                        } else {
                            let l = *rng.choose(&links).unwrap();
                            events.push((at, ScenarioEvent::FailLink(l)));
                            if rng.gen_bool(0.7) {
                                events.push((back, ScenarioEvent::RecoverLink(l)));
                            }
                        }
                    }
                    for (ms, ev) in events {
                        e.inject_after(SimDuration::from_millis(ms), ev);
                    }
                    e.run_until_quiescent(None, |eng, t| {
                        let v = $view {
                            engine: eng,
                            prefix: P,
                        };
                        partial += assert_view_contract(&v);
                        inc.observe(&v);
                        scratch.observe(&NoFeed(&v));
                        assert_eq!(
                            inc.outcomes(),
                            classify_all(&v),
                            "seed {seed} round {round} t={t:?}: outcomes drifted from the oracle"
                        );
                        assert_eq!(
                            report(&inc),
                            report(&scratch),
                            "seed {seed} round {round} t={t:?}: counters drifted from a \
                             tracker that re-examines every row"
                        );
                        ticks += 1;
                    });
                }
                assert!(ticks > 30, "the timelines must actually be observed");
                // A two-process protocol passes through one-coloured ASes.
                assert_eq!(partial > 0, procs(&e) > 1);
                assert!(inc.affected_count() > 0, "and must actually hurt someone");
                // And the incremental tracker did not get there by
                // re-examining every row every tick (R-BGP does on the
                // ticks that carry a liveness flip, which these timelines
                // are full of).
                assert_eq!(scratch.work().rows_recompiled, ticks * n as u64);
                assert!(inc.work().rows_recompiled < scratch.work().rows_recompiled);
            }
        }
    };
}

equivalence_test!(
    incremental_observation_matches_scratch_bgp,
    |g: AsGraph, dest, seed| -> Engine<BgpRouter> {
        Engine::new(
            g,
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            |v| BgpRouter::new(v, if v == dest { vec![P] } else { vec![] }),
        )
    },
    BgpView
);

equivalence_test!(
    incremental_observation_matches_scratch_rbgp,
    |g: AsGraph, dest, seed| -> Engine<RbgpRouter> {
        Engine::new(
            g,
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            |v| {
                RbgpRouter::new(
                    v,
                    if v == dest { vec![P] } else { vec![] },
                    RbgpConfig::default(),
                )
            },
        )
    },
    RbgpView
);

equivalence_test!(
    incremental_observation_matches_scratch_rbgp_without_rci,
    |g: AsGraph, dest, seed| -> Engine<RbgpRouter> {
        let cfg = RbgpConfig { rci: false };
        Engine::new(
            g,
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            |v| RbgpRouter::new(v, if v == dest { vec![P] } else { vec![] }, cfg),
        )
    },
    RbgpView
);

equivalence_test!(
    incremental_observation_matches_scratch_stamp,
    |g: AsGraph, dest, seed| -> Engine<StampRouter> {
        Engine::new(
            g,
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            |v| {
                StampRouter::new(
                    v,
                    if v == dest { vec![P] } else { vec![] },
                    LockStrategy::Random { seed },
                )
            },
        )
    },
    StampView
);

/// R-BGP's escape circuits read the liveness of links far from the AS
/// that uses them, so its view gives up the whole table on a liveness
/// flip — and only then: the deliveries that follow report rows.
#[test]
fn rbgp_view_falls_back_to_the_whole_table_on_liveness_events_only() {
    let g = diamond();
    let dest = AsId(4);
    // 2 loses its customer route; 0 hears the withdrawal and moves to its
    // peer — FIB changes in the failure's batch and in later ones.
    let failed = g.link_between(AsId(4), AsId(2)).unwrap();
    let mut e: Engine<RbgpRouter> = Engine::new(g, EngineConfig::default(), |v| {
        RbgpRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let mut rbgp = FeedCursor::default();
    let mut narrow = FeedCursor::default();
    fn view(engine: &Engine<RbgpRouter>) -> RbgpView<'_> {
        RbgpView { engine, prefix: P }
    }
    assert_eq!(view(&e).touched_since(&mut rbgp), Touched::All);
    e.touched_since(&mut narrow, false);

    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(failed));
    let mut batches = Vec::new();
    e.run_until_quiescent(None, |eng, _| {
        let wide_lost = view(eng).touched_since(&mut rbgp) == Touched::All;
        let narrow_lost = eng.touched_since(&mut narrow, false) == Touched::All;
        batches.push((wide_lost, narrow_lost));
    });
    // The failure's own batch loses the R-BGP table; a view that reads
    // only its own sessions keeps its place; the update batches that
    // follow are plain deliveries for both.
    assert_eq!(batches[0], (true, false));
    assert!(batches.len() > 1, "the failure must cause updates");
    assert!(batches[1..].iter().all(|b| *b == (false, false)));
}

/// Why R-BGP needs that fallback. 2 loses its link to the origin and puts
/// its packets on the failover circuit 0 advertised it, 2 → 0 → 1 → 3 → 4;
/// a millisecond later — before any update has been delivered — the
/// circuit's far link 1–3 fails. 2's router runs no event and none of its
/// own sessions flips, yet its packets now die: the row changed because a
/// link two hops away did.
#[test]
fn rbgp_row_changes_when_a_remote_link_of_its_escape_circuit_fails() {
    let g = diamond();
    let dest = AsId(4);
    let l42 = g.link_between(AsId(4), AsId(2)).unwrap();
    let l13 = g.link_between(AsId(1), AsId(3)).unwrap();
    let mut e: Engine<RbgpRouter> = Engine::new(g.clone(), EngineConfig::default(), |v| {
        RbgpRouter::new(
            v,
            if v == dest { vec![P] } else { vec![] },
            RbgpConfig::default(),
        )
    });
    e.start();
    e.run_to_quiescence(None);
    let mut tracker = TransientTracker::new(dest, vec![true; g.n()]);
    e.inject_after(SimDuration::from_secs(5), ScenarioEvent::FailLink(l42));
    e.inject_after(
        SimDuration::from_secs(5) + SimDuration::from_millis(1),
        ScenarioEvent::FailLink(l13),
    );
    let mut fate_of_2 = Vec::new();
    e.run_until_quiescent(None, |eng, _| {
        let v = RbgpView {
            engine: eng,
            prefix: P,
        };
        tracker.observe(&v);
        assert_eq!(tracker.outcomes(), classify_all(&v));
        fate_of_2.push(tracker.outcomes()[2]);
    });
    assert_eq!(
        fate_of_2[..2],
        [Outcome::Delivered, Outcome::Blackhole],
        "the circuit carries 2's packets until its far link fails"
    );
}
