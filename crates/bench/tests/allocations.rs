//! Heap allocations of a warm fork's replay, per delivered update.
//!
//! A fork of a converged baseline replays a failure timeline and observes
//! it ([`Sim::measure`]). In steady state that path allocates next to
//! nothing per delivered update: routers and the engine reuse their
//! buffers, the control-plane metric walks arena chains instead of
//! materialising paths, STAMP lists its live providers without collecting
//! them and R-BGP reselects a delivery's prefix without a per-delivery
//! `Vec` and gathers a cause purge's prefixes in a scratch row. This binary counts the allocations of the calling thread with a
//! counting global allocator and pins the ratio for all three protocols,
//! so a per-delivery or per-evaluation allocation that comes back fails
//! here.
//!
//! Release only: debug builds run `debug_assert!` oracles (the tracker's
//! from-scratch classification) that allocate by design. Run with
//! `cargo test --release --offline -q -p stamp_bench --test allocations`.
//! The ignored test prints the live bytes of one converged 2000-AS
//! baseline per protocol (`-- --ignored --nocapture`), the measurement
//! EXPERIMENTS.md records.
#![cfg(not(debug_assertions))]
// The counting allocator is the one `unsafe` in the workspace: the crate
// denies `unsafe_code` instead of forbidding it for this file only.
#![allow(unsafe_code)]

use stamp_eventsim::{derive_seed, rng_stream};
use stamp_topology::{generate, AsGraph, GenConfig};
use stamp_workload::{
    choose_k, destination_candidates, sample_canned, FailureScenario, Protocol, RunParams, Sim,
    PREFIX,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations (reallocs
/// included) and live bytes. Per thread, so the test harness's other
/// threads do not reach the counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: a thread being torn down has no counters left to keep.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn session(g: &AsGraph, protocol: Protocol, dest: stamp_topology::AsId, seed: u64) -> Sim {
    Sim::on(g)
        .protocol(protocol)
        .originate(dest, PREFIX)
        .seed(seed)
        .params(RunParams::paper())
        .build()
        .expect("the destination is in the graph")
}

/// Allocations per delivered update over a warm fork's measured replay of
/// every canned failure scenario on one 500-AS topology, with the
/// deliveries they were spread over. The fork is restored and measured
/// once before counting, so buffers a fork grows on first use (scheduler,
/// tracker, RIB rows) are in place, as they are on a campaign worker.
fn replay_allocs_per_delivery(protocol: Protocol) -> (f64, u64) {
    let g = generate(&GenConfig {
        n_ases: 500,
        ..GenConfig::small(0xA110C)
    })
    .expect("valid generator config");
    let (mut allocated, mut delivered) = (0, 0);
    let scenarios = [
        FailureScenario::SingleLink,
        FailureScenario::TwoLinksDifferentAs,
        FailureScenario::TwoLinksSameAs,
    ];
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let mut rng = rng_stream(0xA110C + i as u64, 7);
        let w = sample_canned(&g, scenario, &mut rng).expect("the topology hosts it");
        let reachable = w.timeline.reachable_after(&g, w.dest).expect("resolves");
        let seed = 11 + i as u64;
        let mut base = session(&g, protocol, w.dest, seed);
        base.converge();
        let ck = base.checkpoint();
        let mut fork = session(&g, protocol, w.dest, seed);
        fork.restore(&ck).expect("same protocol");
        fork.measure(&w.timeline, &reachable).expect("resolves");
        fork.restore(&ck).expect("same protocol");
        let (a0, d0) = (allocs(), fork.stats().delivered);
        fork.measure(&w.timeline, &reachable).expect("resolves");
        allocated += allocs() - a0;
        delivered += fork.stats().delivered - d0;
    }
    assert!(delivered > 1000, "{protocol}: only {delivered} deliveries");
    (allocated as f64 / delivered as f64, delivered)
}

/// The ceilings sit between what a fork allocates per delivered update
/// (BGP 0.06, R-BGP 0.06, STAMP 0.02) and what it allocates with any one
/// of the per-event `Vec`s back: per R-BGP delivery 1.07, per R-BGP cause
/// purge 0.60, per STAMP reconcile 0.64, per control-metric evaluation
/// 1.10 under BGP (EXPERIMENTS.md has the profile). What is left is per
/// measurement: the tracker's tables.
#[test]
fn a_warm_replay_allocates_next_to_nothing_per_delivered_update() {
    for (protocol, ceiling) in [
        (Protocol::Bgp, 0.25),
        (Protocol::Rbgp, 0.25),
        (Protocol::Stamp, 0.25),
    ] {
        let (per, delivered) = replay_allocs_per_delivery(protocol);
        assert!(
            per <= ceiling,
            "{protocol}: {per:.4} allocations per delivered update over {delivered} \
             deliveries (ceiling {ceiling})"
        );
    }
}

/// Live bytes of one converged baseline (`Sim::checkpoint`) per protocol,
/// on the `campaign_warm` benchmark's 2000-AS graph and first destination.
#[test]
#[ignore = "a measurement: run with --ignored --nocapture"]
fn print_bytes_per_converged_baseline() {
    let world = derive_seed(0x57A3_9C0D_E5EE_D000, 20);
    let g = generate(&GenConfig {
        n_ases: 2000,
        ..GenConfig::small(world)
    })
    .expect("valid generator config");
    let dests = choose_k(&mut rng_stream(world, 1), &destination_candidates(&g), 8);
    for protocol in [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp] {
        let mut sim = session(&g, protocol, dests[0], 1);
        sim.converge();
        let before = live_bytes();
        let ck = sim.checkpoint();
        let bytes = live_bytes() - before;
        println!("{protocol}: {} KB per converged baseline", bytes / 1024);
        drop(ck);
    }
}
