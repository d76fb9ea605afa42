//! One grid cell re-expressed through the public sim facade, so each step
//! can carry a span: `Sim::on(..).build()` → `BaselineCache::get` →
//! `Sim::restore` (or, on a miss, `Sim::converge` → `Sim::checkpoint` →
//! `BaselineCache::put`) → `Sim::measure` → drop. That much is what
//! `run_protocol_cell_warm` does, and the traced cell must return the same
//! `InstanceMetrics`.
//!
//! To split a measurement into replay and observation, the traced cell
//! first plays the timeline under `NullProbe` and rewinds (`decompose.*`
//! spans): `measure` minus `play_null` is what observing costs. Those two
//! extra steps are the decomposition's own cost and are left out of any
//! comparison with the product path.

use crate::common::session;
use crate::trace::Tracer;
use stamp_topology::{AsGraph, AsId, StaticRoutes};
use stamp_workload::{BaselineCache, InstanceMetrics, NullProbe, Protocol, RunParams, Timeline};
use std::sync::Arc;

/// Post-timeline reachability of every AS towards `dest`, the way the
/// campaign runner and the daemon compute it.
pub fn reachable_after(g: &AsGraph, timeline: &Timeline, dest: AsId) -> Vec<bool> {
    let removed = timeline
        .removed_links(g)
        .expect("benchmark timelines are built against this graph");
    let truth = StaticRoutes::compute(&g.without_links(&removed), dest);
    (0..g.n())
        .map(|v| truth.reachable(AsId::from_usize(v)))
        .collect()
}

/// Exact simulated work of one traced cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellWork {
    /// Events the engine processed replaying the timeline.
    pub replay_events: u64,
    /// Engine totals at the end of the measurement.
    pub events: u64,
    pub delivered: u64,
    pub coalesced: u64,
    pub dropped: u64,
    /// Did the cell fork from a cached baseline?
    pub hit: bool,
}

impl CellWork {
    /// Add another cell's counts (`hit` is per cell and stays as it is).
    pub fn add(&mut self, w: &CellWork) {
        self.replay_events += w.replay_events;
        self.events += w.events;
        self.delivered += w.delivered;
        self.coalesced += w.coalesced;
        self.dropped += w.dropped;
    }
}

#[allow(clippy::too_many_arguments)]
pub fn traced_cell(
    tr: &mut Tracer,
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
    cache: &BaselineCache,
) -> (InstanceMetrics, CellWork) {
    let cell = tr.enter("workload.cell");
    let mut sim = tr.span("workload.sim_build", || {
        session(g, protocol, dest, seed, params)
    });
    let fp = params.policy.fingerprint();
    let cached = tr.span("workload.cache_get", || cache.get(protocol, dest, seed, fp));
    let hit = cached.is_some();
    let baseline = match cached {
        Some(ck) => {
            tr.span("workload.sim_restore", || sim.restore(&ck))
                .expect("the cache key includes the protocol");
            ck
        }
        None => {
            tr.span("bgp.converge", || sim.converge());
            let ck = tr.span("workload.checkpoint", || sim.checkpoint());
            // The rewind below needs a handle the product path does not
            // keep; the copy is the decomposition's cost.
            let keep = tr.span("decompose.clone", || Arc::new(ck.clone()));
            tr.span("workload.cache_put", || {
                cache.put(protocol, dest, seed, fp, ck)
            });
            keep
        }
    };

    let before = sim.stats().events;
    tr.span("decompose.play_null", || {
        sim.reset_measurement();
        sim.play(timeline, &mut NullProbe)
    })
    .expect("benchmark timelines resolve");
    let replay_events = sim.stats().events - before;
    tr.span("decompose.rewind", || sim.restore(&baseline))
        .expect("same session, same protocol");

    let metrics = tr
        .span("workload.measure", || sim.measure(timeline, reachable))
        .expect("benchmark timelines resolve");
    let s = sim.stats();
    // The product's cell function also frees its session before it
    // returns; at thousands of per-AS tables that is time a caller waits.
    tr.span("workload.sim_drop", || drop(sim));
    tr.exit(cell);
    (
        metrics,
        CellWork {
            replay_events,
            events: s.events,
            delivered: s.delivered,
            coalesced: s.coalesced,
            dropped: s.dropped,
            hit,
        },
    )
}

/// Fold one cell's metrics into a digest (every field, floats by bits).
pub fn digest_metrics(d: &mut crate::stats::Digest, m: &InstanceMetrics) {
    d.u64(m.affected as u64);
    d.u64(m.affected_loops as u64);
    d.u64(m.affected_blackholes as u64);
    d.u64(m.control_affected as u64);
    d.u64(m.updates_initial);
    d.u64(m.updates_failure);
    d.f64(m.convergence_delay_s);
    d.f64(m.data_recovery_s);
    d.u64(m.interned_paths as u64);
    d.u64(u64::from(m.outcome.is_converged()));
}
