//! Micro-benchmarks of the building blocks: topology generation, the
//! static route solver, uphill path counting, route propagation through
//! the RIB/decision hot path, full-engine convergence, and the wire codec.
//!
//! Emits a machine-readable `BENCH_micro.json` (median/p95 per benchmark)
//! at the repo root alongside the human-readable report lines; override
//! the destination with `STAMP_BENCH_MICRO_JSON` (per-bench variables so
//! one `cargo bench` invocation cannot clobber one report with another).

use stamp_bench::harness::{black_box, Harness, JsonReport};
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::uphill::UphillDag;
use stamp_topology::{AsId, GraphBuilder, StaticRoutes};

/// The route-propagation hot loop: a 16-neighbour router receives a full
/// round of announcements (RIB install), runs the decision process and
/// prepends itself to the winner for re-announcement — the per-update work
/// every simulated router performs on the convergence path.
fn bench_route_propagation(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::patharena::PathArena;
    use stamp_bgp::rib::RibIn;
    use stamp_bgp::types::{PathAttrs, PrefixId, ProcId, Route};

    const NEIGHBORS: u32 = 16;
    let me = AsId(0);
    let mut b = GraphBuilder::new();
    b.preregister(NEIGHBORS + 1);
    for n in 1..=NEIGHBORS {
        match n % 3 {
            0 => b.customer_of(n, 0).unwrap(), // customer of me
            1 => b.peering(0, n).unwrap(),
            _ => b.customer_of(0, n).unwrap(), // provider of me
        };
    }
    let g = b.build().unwrap();

    // One 8-hop path template per neighbour (distinct tails, shared origin).
    let mut arena = PathArena::new();
    let templates: Vec<Route> = (1..=NEIGHBORS)
        .map(|n| {
            let mut path = vec![AsId(n)];
            for hop in 0..6u32 {
                path.push(AsId(100 + n * 8 + hop));
            }
            path.push(AsId(99)); // common origin
            Route {
                path: arena.intern_slice(&path),
                attrs: PathAttrs::default(),
            }
        })
        .collect();

    let prefix = PrefixId(0);
    let policy = stamp_policy::CompiledRegime::default_static();
    let mut rib = RibIn::new();
    report.bench(h, "route_propagation", || {
        for (i, t) in templates.iter().enumerate() {
            let n = AsId(i as u32 + 1);
            // One relation lookup per received update, as `on_update` pays.
            let rel = g.relation(me, n).expect("adjacent");
            rib.insert(prefix, ProcId::ONLY, n, *t, rel, policy.base_pref(rel));
            let d = rib
                .decide(&arena, me, prefix, ProcId::ONLY, |_| true)
                .expect("routes present");
            black_box(d.route.prepend(&mut arena, me));
        }
    });
}

/// The policy subsystem's two costs. `policy_compile` is the whole
/// regime-to-dense-tables pipeline (parse-free: the builtin is already a
/// value) — a once-per-campaign cost. `decide_with_policy` is the
/// per-update path under a *rule-bearing* regime: a full import (rule
/// scan, community tagging) plus RIB install and decision, the worst-case
/// counterpart of `route_propagation`'s rule-free default.
fn bench_policy(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::patharena::PathArena;
    use stamp_bgp::rib::RibIn;
    use stamp_bgp::router::{RouterCtx, SessionView};
    use stamp_bgp::types::{PathAttrs, PrefixId, ProcId, Route};
    use stamp_policy::PolicyRegime;
    use stamp_topology::Relation;

    struct AllUp;
    impl SessionView for AllUp {
        fn session_up(&self, _: AsId, _: AsId) -> bool {
            true
        }
    }

    let regime = PolicyRegime::long_path_tax();
    report.bench(h, "policy_compile", || {
        black_box(black_box(&regime).compile().expect("builtin compiles"));
    });

    const NEIGHBORS: u32 = 16;
    let me = AsId(0);
    let mut b = GraphBuilder::new();
    b.preregister(NEIGHBORS + 1);
    for n in 1..=NEIGHBORS {
        match n % 3 {
            0 => b.customer_of(n, 0).unwrap(),
            1 => b.peering(0, n).unwrap(),
            _ => b.customer_of(0, n).unwrap(),
        };
    }
    let g = b.build().unwrap();
    let mut arena = PathArena::new();
    // 8-hop paths: long enough to trip long-path-tax's path-longer-than 5
    // rule, so every import walks the rule list and tags communities.
    let templates: Vec<Route> = (1..=NEIGHBORS)
        .map(|n| {
            let mut path = vec![AsId(n)];
            for hop in 0..6u32 {
                path.push(AsId(100 + n * 8 + hop));
            }
            path.push(AsId(99));
            Route {
                path: arena.intern_slice(&path),
                attrs: PathAttrs::default(),
            }
        })
        .collect();
    let compiled = regime.compile().expect("builtin compiles");
    let prefix = PrefixId(0);
    let mut rib = RibIn::new();
    report.bench(h, "decide_with_policy", || {
        let ctx = RouterCtx::with_policy(me, &g, &AllUp, &mut arena, &compiled);
        for (i, t) in templates.iter().enumerate() {
            let n = AsId(i as u32 + 1);
            let rel = ctx.relation(n).expect("adjacent");
            let (route, pref) = ctx.import(prefix, *t, rel).expect("import accepts");
            rib.insert(prefix, ProcId::ONLY, n, route, rel, pref);
        }
        let d = rib
            .decide(&*ctx.arena, me, prefix, ProcId::ONLY, |_| true)
            .expect("routes present");
        black_box(ctx.export_ok(Some(d.learned_from), Relation::Customer, &d.route));
    });
}

/// Full-engine convergence on a 300-AS synthetic topology: the end-to-end
/// cost one failure-experiment instance pays per protocol phase (wired
/// through the `sim` facade, like every consumer).
fn bench_convergence(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::types::PrefixId;
    use stamp_workload::Sim;

    let g = generate(&GenConfig {
        n_ases: 300,
        ..GenConfig::small(21)
    })
    .unwrap();
    let dest = AsId(299);
    report.bench(h, "bgp_convergence_300", || {
        let mut sim = Sim::on(&g)
            .originate(dest, PrefixId(0))
            .seed(5)
            .fast()
            .build()
            .unwrap();
        black_box(sim.converge().delivered);
    });
}

/// The same end-to-end convergence at campaign scale (2000 ASes): the
/// constant-factor work per delivered update dominates here, so this is
/// the macro check that hot-path wins keep growing with topology size
/// instead of drowning in cache effects.
fn bench_convergence_2000(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::types::PrefixId;
    use stamp_workload::Sim;

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(21)
    })
    .unwrap();
    let dest = AsId(1999);
    report.bench(h, "convergence_2000", || {
        let mut sim = Sim::on(&g)
            .originate(dest, PrefixId(0))
            .seed(5)
            .fast()
            .build()
            .unwrap();
        black_box(sim.converge().delivered);
    });
}

/// Directed-session resolution on a 2000-AS graph: one batch resolves 512
/// adjacent pairs (`(from, to) → SessId` + relation), the lookup every
/// dispatched message and every liveness check leans on.
fn bench_session_lookup(h: &Harness, report: &mut JsonReport) {
    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(17)
    })
    .unwrap();
    // Both directions of links spread across the whole id space.
    let links = g.links();
    let step = (links.len() / 256).max(1);
    let pairs: Vec<(AsId, AsId)> = links
        .iter()
        .step_by(step)
        .take(256)
        .flat_map(|l| [(l.a, l.b), (l.b, l.a)])
        .collect();
    report.bench(h, "session_lookup_512", || {
        let mut acc = 0u32;
        for &(a, b) in &pairs {
            let e = g.entry_between(a, b).expect("adjacent");
            acc ^= e.sess.0 ^ e.link.0;
        }
        black_box(acc);
    });
}

/// The MRAI arm/coalesce machinery end-to-end: a 16-customer star with the
/// paper's rate limiter enabled (fixed 1 ms delay so the timer path, not
/// delay sampling, dominates). Every announcement wave arms per-session
/// timers, re-announcements coalesce into armed slots, expiries re-arm.
fn bench_mrai_arm(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::engine::{Engine, EngineConfig};
    use stamp_bgp::router::BgpRouter;
    use stamp_bgp::types::PrefixId;
    use stamp_eventsim::{DelayModel, SimDuration};

    const LEAVES: u32 = 16;
    let mut b = GraphBuilder::new();
    b.preregister(LEAVES + 1);
    for n in 1..=LEAVES {
        b.customer_of(n, 0).unwrap();
    }
    let g = b.build().unwrap();
    let cfg = EngineConfig {
        seed: 7,
        delay: DelayModel::fixed(SimDuration::from_millis(1)),
        ..EngineConfig::default()
    };
    report.bench(h, "mrai_arm_star", || {
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), cfg.clone(), |v| {
            let own = if v == AsId(1) {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            BgpRouter::new(v, own)
        });
        e.start();
        black_box(e.run_to_quiescence(None));
        black_box(e.stats().announcements_sent);
    });
}

/// One data-plane observation tick, as the probe path runs it: the view on
/// the stack, `TransientTracker::observe` monomorphised over the concrete
/// view.
///
/// `observe_loop_static` is the all-dirty tick: the converged next hops of
/// a 300-AS BGP network copied into a `StaticView`, which has no touched
/// feed, so every observation re-examines every row — what a tracker's
/// first tick, and any tick after a restore, costs. The `observe_tick_*`
/// rows are engine-backed at 2000 ASes, per protocol: `idle` observes a
/// session nothing has happened to since the last look;
/// `after_link_failure` is the first tick of a replay that fails one
/// provider link of the destination — the two endpoints' rows and their
/// reverse cone for BGP and STAMP, the whole table for R-BGP (a liveness
/// flip). The rewind, the tracker catching up with it and the rest of the
/// replay run untimed around it.
fn bench_observe_loop(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::types::PrefixId;
    use stamp_forwarding::{ForwardingView, StaticView, Step, TransientTracker};
    use stamp_workload::{
        single_link_failure, Probe, Protocol, Sim, SimEvent, SnapshotCause, Timeline,
    };
    use std::time::{Duration, Instant};

    /// Catches the tracker up on the baseline snapshot, then times its
    /// observation of the first periodic one.
    struct FirstTick<'a> {
        tracker: &'a mut TransientTracker,
        timed: Option<Duration>,
    }
    impl Probe for FirstTick<'_> {
        fn on_event<V: ForwardingView + ?Sized>(&mut self, event: SimEvent<'_, V>) {
            match event {
                SimEvent::Snapshot {
                    cause: SnapshotCause::Baseline,
                    view,
                    ..
                } => self.tracker.observe(view),
                SimEvent::Snapshot {
                    cause: SnapshotCause::Periodic,
                    view,
                    ..
                } if self.timed.is_none() => {
                    let t0 = Instant::now();
                    self.tracker.observe(view);
                    self.timed = Some(t0.elapsed());
                }
                _ => {}
            }
        }
    }

    let g = generate(&GenConfig {
        n_ases: 300,
        ..GenConfig::small(21)
    })
    .unwrap();
    let dest = AsId(299);
    let prefix = PrefixId(0);
    let mut sim = Sim::on(&g)
        .originate(dest, prefix)
        .seed(5)
        .fast()
        .build()
        .unwrap();
    sim.converge();
    let view = sim.with_view(|v| StaticView {
        next: (0..g.n())
            .map(|a| match v.step(AsId(a as u32), 0) {
                Step::Hop { to, .. } => Some(to),
                _ => None,
            })
            .collect(),
        origin: dest,
    });
    let mut tracker = TransientTracker::new(dest, vec![true; g.n()]);
    report.bench(h, "observe_loop_static", || {
        tracker.observe(&view);
        black_box(tracker.observations);
    });

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(21)
    })
    .unwrap();
    let dest = AsId(1999);
    let failure = Timeline::from_events(
        "fail-provider-link",
        single_link_failure(dest, g.providers(dest)[0]),
    );
    for (p, tag) in [
        (Protocol::Bgp, "bgp"),
        (Protocol::Rbgp, "rbgp"),
        (Protocol::Stamp, "stamp"),
    ] {
        let mut sim = Sim::on(&g)
            .protocol(p)
            .originate(dest, prefix)
            .seed(5)
            .build()
            .unwrap();
        sim.converge();
        let mut tracker = TransientTracker::new(dest, vec![true; g.n()]);
        report.bench(h, &format!("observe_tick_idle_2000_{tag}"), || {
            sim.with_view(|v| tracker.observe(v));
            black_box(tracker.observations);
        });
        let ck = sim.checkpoint();
        let name = format!("observe_tick_after_link_failure_2000_{tag}");
        let stats = h.bench_self_timed(&name, || {
            sim.restore(&ck).expect("same session");
            let mut probe = FirstTick {
                tracker: &mut tracker,
                timed: None,
            };
            sim.play(&failure, &mut probe).expect("resolves");
            probe.timed.expect("a link failure changes a FIB")
        });
        report.push(&name, stats);
    }
}

/// The warm-start building blocks at campaign scale (2000 ASes):
/// `snapshot_2000` / `restore_2000` are the engine-level copy
/// (`Engine::clone_from`, `simlint::hot`: buffer copies into pre-sized
/// allocations) taken in each direction — into a held checkpoint, and from
/// it back over the live engine — and `warm_cell_2000` is a full campaign
/// cell cloned from a cached baseline (clone + timeline replay, no cold
/// convergence).
fn bench_checkpoint(h: &Harness, report: &mut JsonReport) {
    use stamp_bgp::engine::{Engine, EngineConfig};
    use stamp_bgp::router::BgpRouter;
    use stamp_bgp::types::PrefixId;
    use stamp_eventsim::rng::tags;
    use stamp_eventsim::rng_stream;
    use stamp_workload::{
        run_protocol_cell_warm, sample_canned, BaselineCache, FailureScenario, Protocol, RunParams,
    };

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(21)
    })
    .unwrap();
    let dest = AsId(1999);
    let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(5), |v| {
        let own = if v == dest { vec![PrefixId(0)] } else { vec![] };
        BgpRouter::new(v, own)
    });
    e.start();
    e.run_to_quiescence(None);

    let mut ck = e.clone();
    report.bench(h, "snapshot_2000", || {
        black_box(&mut ck).clone_from(&e);
    });
    report.bench(h, "restore_2000", || {
        e.clone_from(black_box(&ck));
    });

    let mut rng = rng_stream(900, tags::WORKLOAD);
    let w = sample_canned(&g, FailureScenario::SingleLink, &mut rng).expect("scenario fits");
    let reachable = w
        .timeline
        .reachable_after(&g, w.dest)
        .expect("timeline resolves");
    let params = RunParams::paper();
    let cache = BaselineCache::new();
    // First call converges cold and deposits the baseline; the benched
    // iterations all fork from the cached checkpoint.
    run_protocol_cell_warm(
        &g,
        &params,
        &w.timeline,
        w.dest,
        &reachable,
        Protocol::Bgp,
        5,
        &cache,
    );
    report.bench(h, "warm_cell_2000", || {
        black_box(run_protocol_cell_warm(
            &g,
            &params,
            &w.timeline,
            w.dest,
            &reachable,
            Protocol::Bgp,
            5,
            &cache,
        ));
    });
}

fn main() {
    let h = Harness::new().sample_size(20);
    let mut report = JsonReport::new();

    let cfg = GenConfig {
        n_ases: 2000,
        ..GenConfig::small(11)
    };
    report.bench(&h, "topology_generate_2000", || {
        generate(black_box(&cfg)).unwrap();
    });

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(12)
    })
    .unwrap();
    report.bench(&h, "static_routes_2000", || {
        StaticRoutes::compute(black_box(&g), AsId(1999));
    });

    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(13)
    })
    .unwrap();
    report.bench(&h, "uphill_dag_2000", || {
        UphillDag::new(black_box(&g));
    });

    bench_route_propagation(&h, &mut report);
    bench_policy(&h, &mut report);
    bench_convergence(&h, &mut report);
    bench_convergence_2000(&h, &mut report);
    bench_session_lookup(&h, &mut report);
    bench_mrai_arm(&h, &mut report);
    bench_observe_loop(&h, &mut report);
    bench_checkpoint(&h, &mut report);

    use stamp_bgp::patharena::PathArena;
    use stamp_bgp::types::{PathAttrs, PrefixId, Route, UpdateKind, UpdateMsg};
    use stamp_bgp::wire::{decode, encode};
    let mut arena = PathArena::new();
    let path: Vec<AsId> = (0..8).map(AsId).collect();
    let msg = UpdateMsg {
        prefix: PrefixId(7),
        kind: UpdateKind::Announce(Route {
            path: arena.intern_slice(&path),
            attrs: PathAttrs {
                lock: true,
                et: Some(stamp_bgp::types::EventType::NotLost),
                ..Default::default()
            },
        }),
    };
    report.bench(&h, "wire_encode_decode", || {
        let raw = encode(&arena, black_box(&msg));
        decode(&mut arena, &raw).unwrap();
    });

    // Default to the repo root (cargo runs benches from the crate dir).
    let path = std::env::var("STAMP_BENCH_MICRO_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json").into());
    report.write(&path).expect("write bench report");
    println!("wrote {path}");
}
