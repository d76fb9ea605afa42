//! Unit costs of each layer, probed from outside on seeded inputs that do
//! not depend on the workload: what one scheduler operation, one topology
//! generation, one cold convergence, one observation tick, one fork, one
//! parse costs. Every traced run takes them, so a change to a layer shows
//! next to whichever workload's end-to-end metric it was meant to move.
//!
//! Times are medians of a few samples; event counts are exact and repeat
//! bit for bit for a seed.

use crate::cell::reachable_after;
use crate::common::{self, probe_ns, small_graph, RunCfg, Traced};
use crate::stats::median;
use stamp_bgp::{PathArena, PathAttrs, PrefixId, ProcId, RibIn, Route};
use stamp_eventsim::{rng_stream, Scheduler, SimDuration};
use stamp_forwarding::TransientTracker;
use stamp_policy::{parse_pol, CompiledRegime, PolicyRegime};
use stamp_queryd::{QueryEngine, QuerydConfig, Request};
use stamp_topology::disjoint::{max_disjoint_uphill_paths, two_disjoint_uphill_paths};
use stamp_topology::uphill::UphillDag;
use stamp_topology::{AsGraph, AsId, GraphBuilder, StaticRoutes};
use stamp_workload::{
    destination_candidates, parse_scn, standard_families, BaselineCache, NullProbe, Protocol,
    RunParams, Sim, Timeline,
};
use std::hint::black_box;
use std::time::Instant;

/// The three scaling sizes (metric suffixes stay `.500/.2000/.8000` under
/// `--smoke`, where the sizes are tiny and the values not comparable).
pub fn scale_sizes(cfg: &RunCfg) -> [usize; 3] {
    [cfg.size(500, 60), cfg.size(2000, 120), cfg.size(8000, 240)]
}

fn pick_dest(g: &AsGraph, seed: u64) -> AsId {
    let cands = destination_candidates(g);
    *rng_stream(seed, 0xBE51)
        .choose(&cands)
        .expect("generated topologies have multi-homed ASes")
}

fn session(g: &AsGraph, p: Protocol, dest: AsId, seed: u64) -> Sim {
    common::session(g, p, dest, seed, &RunParams::paper())
}

/// Cold convergence: median milliseconds of `Sim::converge` alone, and
/// the exact number of simulated events it processed.
fn converge_cost(g: &AsGraph, p: Protocol, dest: AsId, seed: u64, samples: usize) -> (f64, u64) {
    let mut ms = Vec::with_capacity(samples);
    let mut events = 0;
    for _ in 0..samples {
        let mut sim = session(g, p, dest, seed);
        let t0 = Instant::now();
        let stats = sim.converge();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        events = stats.events;
    }
    (median(&ms).expect("samples > 0"), events)
}

/// `Scheduler::schedule_at` + `pop` at a steady depth (the hold model):
/// the queue keeps `depth` pending events, as it does mid-convergence.
fn sched_ns_per_op(cfg: &RunCfg) -> f64 {
    let depth = cfg.size(4096, 256);
    let mut rng = rng_stream(cfg.sub_seed(50), 1);
    let mut q: Scheduler<u32> = Scheduler::new();
    for i in 0..depth {
        q.schedule_at(
            q.now() + SimDuration::from_micros(rng.gen_range(10_000u64..20_000)),
            i as u32,
        );
    }
    let ops = cfg.size(200_000, 20_000);
    probe_ns(5, 1, || {
        for _ in 0..ops {
            let (t, e) = q.pop().expect("the hold model never drains");
            q.schedule_at(
                t + SimDuration::from_micros(rng.gen_range(10_000u64..20_000)),
                black_box(e),
            );
        }
    }) / ops as f64
}

/// The per-update RIB work of the micro bench's `route_propagation`: a
/// 16-neighbour router installs an announcement, decides and prepends.
fn rib_decide_ns() -> f64 {
    const NEIGHBORS: u32 = 16;
    let me = AsId(0);
    let mut b = GraphBuilder::new();
    b.preregister(NEIGHBORS + 1);
    for n in 1..=NEIGHBORS {
        match n % 3 {
            0 => b.customer_of(n, 0),
            1 => b.peering(0, n),
            _ => b.customer_of(0, n),
        }
        .expect("a star has no cycles");
    }
    let g = b.build().expect("a star is a valid graph");
    let mut arena = PathArena::new();
    let templates: Vec<Route> = (1..=NEIGHBORS)
        .map(|n| {
            let mut path = vec![AsId(n)];
            path.extend((0..6u32).map(|hop| AsId(100 + n * 8 + hop)));
            path.push(AsId(99));
            Route {
                path: arena.intern_slice(&path),
                attrs: PathAttrs::default(),
            }
        })
        .collect();
    let prefix = PrefixId(0);
    let policy = CompiledRegime::default_static();
    let mut rib = RibIn::new();
    probe_ns(7, 400, || {
        for (i, t) in templates.iter().enumerate() {
            let n = AsId(i as u32 + 1);
            let rel = g.relation(me, n).expect("adjacent by construction");
            rib.insert(prefix, ProcId::ONLY, n, *t, rel, policy.base_pref(rel));
            let d = rib
                .decide(&arena, me, prefix, ProcId::ONLY, |_| true)
                .expect("a route was just installed");
            black_box(d.route.prepend(&mut arena, me));
        }
    }) / NEIGHBORS as f64
}

pub fn run(cfg: &RunCfg, out: &mut Traced) {
    let seed = cfg.sub_seed(51);
    let sizes = scale_sizes(cfg);

    out.set("eventsim.sched_ns_per_op", sched_ns_per_op(cfg));
    out.set("bgp.rib_decide_ns", rib_decide_ns());

    // topology.generate and the BGP scaling row.
    let gen_names = [
        "topology.generate_ms.500",
        "topology.generate_ms.2000",
        "topology.generate_ms.8000",
    ];
    let conv_names = [
        (
            "bgp.converge_ms.500",
            "bgp.ns_per_event.500",
            "bgp.events.500",
        ),
        (
            "bgp.converge_ms.2000",
            "bgp.ns_per_event.2000",
            "bgp.events.2000",
        ),
        (
            "bgp.converge_ms.8000",
            "bgp.ns_per_event.8000",
            "bgp.events.8000",
        ),
    ];
    let mut bgp_ms = [0.0; 3];
    let mut mid: Option<(AsGraph, AsId)> = None;
    for (i, &n) in sizes.iter().enumerate() {
        out.set(
            gen_names[i],
            probe_ns(5, 1, || {
                black_box(small_graph(n, seed));
            }) / 1e6,
        );
        let g = small_graph(n, seed);
        let dest = pick_dest(&g, seed);
        let (ms, events) = converge_cost(&g, Protocol::Bgp, dest, seed, 3);
        bgp_ms[i] = ms;
        out.set(conv_names[i].0, ms);
        out.set(conv_names[i].1, ms * 1e6 / events as f64);
        out.set(conv_names[i].2, events as f64);
        out.counters
            .insert(format!("probe.{}", conv_names[i].2), events);
        if i == 1 {
            mid = Some((g, dest));
        }
    }
    // Log-slope of convergence time over a 16x growth in AS count.
    out.set(
        "bgp.scaling_exponent",
        (bgp_ms[2] / bgp_ms[0]).ln() / (sizes[2] as f64 / sizes[0] as f64).ln(),
    );

    let (g, dest) = mid.expect("the middle size was generated");
    for (p, ms_name, ns_name, ev_name) in [
        (
            Protocol::Rbgp,
            "rbgp.converge_ms.2000",
            "rbgp.ns_per_event.2000",
            "rbgp.events.2000",
        ),
        (
            Protocol::Stamp,
            "core.converge_ms.2000",
            "core.ns_per_event.2000",
            "core.events.2000",
        ),
    ] {
        let (ms, events) = converge_cost(&g, p, dest, seed, 3);
        out.set(ms_name, ms);
        out.set(ns_name, ms * 1e6 / events as f64);
        out.set(ev_name, events as f64);
        out.counters.insert(format!("probe.{ev_name}"), events);
    }

    // The rest of topology, on the middle graph.
    let provider = g.providers(dest)[0];
    let link = g
        .link_between(dest, provider)
        .expect("a provider link exists");
    out.set(
        "topology.static_routes_us",
        probe_ns(5, 4, || {
            black_box(StaticRoutes::compute(black_box(&g), dest));
        }) / 1e3,
    );
    out.set(
        "topology.without_links_us",
        probe_ns(5, 4, || {
            black_box(g.without_links(black_box(&[link])));
        }) / 1e3,
    );
    out.set(
        "topology.uphill_dag_us",
        probe_ns(5, 4, || {
            black_box(UphillDag::new(black_box(&g)));
        }) / 1e3,
    );
    out.set(
        "topology.disjoint_us",
        probe_ns(5, 4, || {
            black_box(two_disjoint_uphill_paths(&g, dest));
            black_box(max_disjoint_uphill_paths(&g, dest, 8));
        }) / 1e3,
    );

    // policy: lowering a rule-bearing regime, and the .pol round trip.
    let regime = PolicyRegime::long_path_tax();
    out.set(
        "policy.compile_us",
        probe_ns(5, 50, || {
            black_box(black_box(&regime).compile().expect("a built-in compiles"));
        }) / 1e3,
    );
    let pol = regime.to_pol();
    out.set(
        "policy.parse_pol_us",
        probe_ns(5, 50, || {
            black_box(parse_pol(black_box(&pol)).expect("a printed regime parses"));
        }) / 1e3,
    );

    // forwarding: one observation tick on a converged session.
    for (p, name) in [
        (Protocol::Bgp, "forwarding.observe_us.bgp"),
        (Protocol::Rbgp, "forwarding.observe_us.rbgp"),
        (Protocol::Stamp, "forwarding.observe_us.stamp"),
    ] {
        let mut sim = session(&g, p, dest, seed);
        sim.converge();
        let mut tracker = TransientTracker::new(dest, vec![true; g.n()]);
        out.set(
            name,
            probe_ns(5, 20, || {
                sim.with_view(|v| tracker.observe(v));
                black_box(tracker.observations);
            }) / 1e3,
        );
    }

    // workload: the steps of one warm cell, BGP, a provider link failing.
    let timeline = Timeline::from_events(
        "probe-fail-link",
        stamp_workload::single_link_failure(dest, provider),
    );
    let reachable = reachable_after(&g, &timeline, dest);
    out.set(
        "workload.sim_build_us",
        probe_ns(5, 4, || {
            black_box(session(&g, Protocol::Bgp, dest, seed));
        }) / 1e3,
    );
    let mut sim = session(&g, Protocol::Bgp, dest, seed);
    sim.converge();
    let ck = sim.checkpoint();
    out.set(
        "workload.checkpoint_us",
        probe_ns(5, 4, || {
            black_box(sim.checkpoint());
        }) / 1e3,
    );
    out.set(
        "workload.sim_restore_us",
        probe_ns(5, 4, || {
            sim.restore(black_box(&ck)).expect("same session");
        }) / 1e3,
    );
    let cache = BaselineCache::new();
    let fp = RunParams::paper().policy.fingerprint();
    cache.put(Protocol::Bgp, dest, seed, fp, ck.clone());
    out.set(
        "workload.cache_get_ns",
        probe_ns(7, 1000, || {
            black_box(cache.get(Protocol::Bgp, dest, seed, fp));
        }),
    );
    // `put` takes the checkpoint by value: clone outside the timed part.
    let mut put_us = Vec::new();
    for _ in 0..5 {
        let fresh = ck.clone();
        let t0 = Instant::now();
        cache.put(Protocol::Bgp, dest, seed, fp, fresh);
        put_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set("workload.cache_put_us", median(&put_us).expect("5 samples"));

    let mut replay_events = 0;
    let play_ms = probe_ns(5, 1, || {
        sim.restore(&ck).expect("same session");
        sim.reset_measurement();
        let before = sim.stats().events;
        sim.play(&timeline, &mut NullProbe)
            .expect("the timeline resolves");
        replay_events = sim.stats().events - before;
    }) / 1e6;
    let restore_ms = out.values["workload.sim_restore_us"] / 1e3;
    let measure_ms = probe_ns(5, 1, || {
        sim.restore(&ck).expect("same session");
        black_box(
            sim.measure(&timeline, &reachable)
                .expect("the timeline resolves"),
        );
    }) / 1e6;
    // Both loops above paid one restore per sample; take it back out.
    let play_ms = (play_ms - restore_ms).max(0.0);
    let measure_ms = (measure_ms - restore_ms).max(0.0);
    out.set("workload.play_null_ms", play_ms);
    out.set("workload.measure_ms", measure_ms);
    out.set("workload.replay_events", replay_events as f64);
    out.counters
        .insert("probe.workload.replay_events".to_string(), replay_events);
    // Base: measure_ms. What observing and classifying adds to a replay.
    out.set(
        "forwarding.observe_share",
        if measure_ms > 0.0 {
            ((measure_ms - play_ms) / measure_ms).max(0.0)
        } else {
            0.0
        },
    );

    let cands = destination_candidates(&g);
    let dests: Vec<AsId> = cands.iter().copied().take(4).collect();
    let families = standard_families(&g, &mut rng_stream(seed, 0xBE52), &dests, false);
    out.set(
        "workload.timeline_resolve_us",
        probe_ns(5, 4, || {
            for t in &families {
                black_box(t.resolve(&g).expect("built against this graph"));
                black_box(t.removed_links(&g).expect("built against this graph"));
            }
        }) / 1e3
            / families.len() as f64,
    );
    let scn: Vec<String> = families.iter().map(Timeline::to_scn).collect();
    out.set(
        "workload.scn_parse_us",
        probe_ns(5, 20, || {
            for text in &scn {
                black_box(parse_scn(black_box(text)).expect("a printed timeline parses"));
            }
        }) / 1e3
            / scn.len() as f64,
    );

    // queryd: one request line in, one WHATIF frame out.
    let mut qcfg = QuerydConfig::new(vec![Protocol::Bgp], vec![dest]);
    qcfg.seed = seed;
    let engine = QueryEngine::new(g.clone(), qcfg).expect("one baseline converges");
    let line = format!(
        "WHATIF FAIL-LINK {} {} PROTO bgp DEST {}",
        dest.0, provider.0, dest.0
    );
    out.set(
        "queryd.parse_us",
        probe_ns(5, 200, || {
            black_box(
                black_box(&line)
                    .parse::<Request>()
                    .expect("a valid request"),
            );
        }) / 1e3,
    );
    let response = engine.execute(&line.parse::<Request>().expect("a valid request"));
    out.set(
        "queryd.format_us",
        probe_ns(5, 200, || {
            black_box(black_box(&response).to_string());
        }) / 1e3,
    );
}
