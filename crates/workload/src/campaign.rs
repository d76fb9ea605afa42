//! Cells and campaigns: the one place this workspace runs simulations in
//! bulk.
//!
//! The unit of work is the **cell** — one `(timeline, destination, engine
//! seed)` on which every requested protocol runs the *identical* scenario
//! (the paper's whole evaluation method). [`run_cells`] is the one runner:
//! it validates every cell's timeline, computes each cell's post-timeline
//! reachability mask ([`Timeline::reachable_after`]), fans the work across
//! scoped worker threads and returns the per-cell metrics **in input
//! order**. A work item is a *baseline key* `(protocol, dest, seed)` with
//! every cell that shares it: the key's converged baseline comes from a
//! warm-start [`BaselineCache`] or is converged once, and each cell plays
//! its timeline on a session rewound onto it (a session is its own
//! checkpoint; sessions share the topology and nothing else) and measures
//! the paper's disruption/recovery metrics. With no cache a worker holds
//! one baseline at a time. A single cell is a one-cell key
//! ([`run_protocol_cell`]), measured on the session that converged. Every
//! baseline is made by [`BaselineCache::deposit`], which files it under
//! the key the converged session names.
//!
//! Everything above is a way of *listing* cells: [`run_campaign`] lists the
//! `(timeline × destination × seed)` cross product and hashes the result;
//! the figure experiments (`stamp_experiments::failure`) list `instances`
//! sampled canned workloads; a queryd what-if lists one cell per served
//! destination, on one worker. Workers claim items from one atomic
//! counter and hand their `(index, result)` pairs back through their join
//! handles, written back by cell index — so a report (and its
//! [`CampaignReport::hash`]) is byte-identical at any worker count. That is
//! the whole determinism argument: randomness is derived per cell from the
//! cell's coordinates, never from worker identity or wall-clock, and a fork
//! replays bit-identically to the session it was copied from.

use crate::canned::destination_candidates;
use crate::sim::{ScratchEngines, Sim};
use crate::timeline::{
    background_churn, choose_k, correlated_node_outage, flap_train, maintenance_windows,
    policy_flip, prefix_hijack, prepend_hijack, provider_cone, random_attacker, reachability_mask,
    route_leak, staggered_link_failures, Timeline, TimelineError,
};
use stamp_bgp::engine::RunOutcome;
use stamp_eventsim::fxhash::FxHashMap;
use stamp_eventsim::rng::{tags, Rng};
use stamp_eventsim::{derive_seed, rng_stream, Fnv1a, SimDuration};
use stamp_forwarding::ObserverWork;
use stamp_policy::PolicyRegime;
use stamp_topology::gen::{generate, GenConfig};
use stamp_topology::{AsGraph, AsId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// The shared vocabulary lives below this module (`params`, `sim`); these
// re-exports keep the long-standing `stamp_workload::campaign::{..}` paths.
pub use crate::params::{InstanceMetrics, RunParams, PREFIX};
pub use crate::sim::{ParseProtocolError, Protocol};

/// Run one `(timeline, dest)` cell for one protocol: converge one network,
/// play one timeline, measure (see [`Sim::measure`]). `seed` drives the
/// engine's delay/MRAI streams and STAMP's lock choices.
///
/// `reachable[v]` must hold the post-timeline reachability of each AS
/// ([`Timeline::reachable_after`]). The timeline is injected
/// at an epoch `inject_delay` after initial quiescence; all offsets are
/// absolute from that epoch, and recovery metrics are measured from the
/// *last* event (the "settle point") — nothing is injected after it, so
/// anything still broken later is a transient of the protocol, not of the
/// workload.
///
/// The protocol axis is one match inside the builder (`sim.rs`'s
/// `make_engine`) — no per-protocol code here.
pub fn run_protocol_cell(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
) -> InstanceMetrics {
    one_cell(g, params, protocol, dest, seed, (timeline, reachable), None)
}

/// [`run_protocol_cell`] with a warm-start cache: if `cache` holds the
/// converged baseline for this `(protocol, dest, seed)`, the cell is a
/// copy of it — on a scratch engine of the cache's, rewound — instead of a
/// replay of convergence; otherwise the cell converges cold and deposits a
/// copy for the next taker. Either way the returned metrics are
/// bit-identical to the cold path (the fork contract, proven by
/// `tests/warmstart.rs` and the campaign binary's cold-vs-warm hash
/// assertion). A cached baseline is copied exactly, so `cache` must have
/// been filled under `params` ([`BaselineCache`]'s contract): its params,
/// not the caller's, are the ones a warm cell runs.
#[allow(clippy::too_many_arguments)]
pub fn run_protocol_cell_warm(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dest: AsId,
    reachable: &[bool],
    protocol: Protocol,
    seed: u64,
    cache: &BaselineCache,
) -> InstanceMetrics {
    one_cell(
        g,
        params,
        protocol,
        dest,
        seed,
        (timeline, reachable),
        Some(cache),
    )
}

/// A fresh, unconverged session for `(protocol, dest, seed)`.
fn fresh_session(
    g: &AsGraph,
    params: &RunParams,
    dest: AsId,
    protocol: Protocol,
    seed: u64,
) -> Sim {
    Sim::on(g)
        .protocol(protocol)
        .originate(dest, PREFIX)
        .seed(seed)
        .params(params.clone())
        .build_deferred()
        // simlint::allow(panic, "destinations come from the caller's own topology scan")
        .expect("cell destinations are in range")
}

/// A timeline and its post-timeline reachability mask.
type Play<'a> = (&'a Timeline, &'a [bool]);

/// Measure `sim` on one play: its metrics and what observing them cost.
fn measure(sim: &mut Sim, (timeline, reachable): Play<'_>) -> (InstanceMetrics, ObserverWork) {
    let metrics = sim
        .measure(timeline, reachable)
        // simlint::allow(panic, "timelines are generated against this same graph")
        .expect("timeline must resolve against the cell topology");
    (metrics, sim.observer_work())
}

/// A single cell: [`run_key`] with one play.
fn one_cell(
    g: &AsGraph,
    params: &RunParams,
    protocol: Protocol,
    dest: AsId,
    seed: u64,
    play: Play<'_>,
    cache: Option<&BaselineCache>,
) -> InstanceMetrics {
    let mut results = run_key(g, params, protocol, dest, seed, &[play], cache);
    // simlint::allow(panic, "run_key returns one result per play")
    results.pop().expect("one play, one result").0
}

/// Every play of one baseline key `(protocol, dest, seed)`, in order,
/// each from the key's converged baseline — a work item of
/// [`run_cells`].
///
/// The baseline comes from `cache`, or is converged here once. A key with
/// one play and no cached baseline measures on the session that
/// converged, as a cold cell always has (depositing a copy first if there
/// is a cache). Otherwise the converged session leaves a copy — into
/// `cache` if there is one — and is dropped, and every play runs on one
/// working session rewound onto that copy ([`Sim::restore`], an exact
/// copy): a session restored from a cached baseline borrows one of the
/// cache's scratch engines and hands it back on drop. Results are
/// bit-identical either way (the fork contract).
fn run_key(
    g: &AsGraph,
    params: &RunParams,
    protocol: Protocol,
    dest: AsId,
    seed: u64,
    plays: &[Play<'_>],
    cache: Option<&BaselineCache>,
) -> Vec<(InstanceMetrics, ObserverWork)> {
    let mut sim = fresh_session(g, params, dest, protocol, seed);
    let hit = cache.and_then(|c| c.get(protocol, dest, seed, params.policy.fingerprint()));
    let baseline = match (hit, plays) {
        (Some(baseline), _) => {
            // A fork is an exact copy, so it runs the knobs its baseline
            // converged under: one cache, one params set.
            let knobs = |p: &RunParams| (p.inject_delay, p.observe_interval, p.phase_deadline);
            debug_assert!(
                knobs(baseline.params()) == knobs(params),
                "a cached baseline runs the params it converged under"
            );
            baseline
        }
        (None, &[play]) => {
            if let Some(cache) = cache {
                cache.deposit(&mut sim);
            }
            return vec![measure(&mut sim, play)];
        }
        (None, _) => {
            let copy = match cache {
                Some(cache) => cache.deposit(&mut sim),
                None => {
                    sim.converge();
                    Arc::new(sim.checkpoint())
                }
            };
            // The converged session, sized to its peak, goes before any
            // play runs: the copy is the one baseline this worker holds.
            sim = fresh_session(g, params, dest, protocol, seed);
            copy
        }
    };
    plays
        .iter()
        .map(|&play| {
            sim.restore(&baseline)
                // simlint::allow(panic, "the key names the protocol")
                .expect("a baseline of this key runs its protocol");
            measure(&mut sim, play)
        })
        .collect()
}

/// Point-in-time occupancy and traffic counters of a [`BaselineCache`]
/// (see [`BaselineCache::stats`]). Counters are monotone over the cache's
/// lifetime; `len` is instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Configured bound (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Baselines currently resident.
    pub len: usize,
    /// Lookups that found a baseline.
    pub hits: u64,
    /// Lookups that found nothing (the caller converges cold).
    pub misses: u64,
    /// Baselines dropped by the FIFO bound.
    pub evictions: u64,
}

type CacheKey = (Protocol, AsId, u64, u64);

struct CacheInner {
    map: FxHashMap<CacheKey, Arc<Sim>>,
    /// Deposit order, oldest first — the FIFO eviction queue. Re-depositing
    /// an existing key replaces the baseline without renewing its slot.
    order: std::collections::VecDeque<CacheKey>,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Warm-start cache of converged baselines: `(protocol, dest, engine
/// seed, policy fingerprint) → the session right after initial
/// convergence`. Shared across workers (internally locked; baselines are
/// handed out as `Arc`s, so the lock is never held while one is copied),
/// across the timelines of one grid pass — its cells share a baseline per
/// `(dest, seed)` — and across grid passes: the second run of the same
/// grid converges nothing. A baseline holds its run state only: the
/// topology is the one copy every session on that graph shares.
///
/// Beside the baselines the cache keeps the *scratch engines* its forks
/// ran on, at most one per engine kind and concurrent fork: a warm cell
/// rewinds one onto its baseline's instead of cloning the baseline and
/// dropping the clone ([`Sim::restore`] borrows it, dropping the session
/// returns it). They are working memory, invisible to
/// [`BaselineCache::len`], [`BaselineCache::stats`] and the capacity
/// bound.
///
/// [`BaselineCache::new`] is unbounded; [`BaselineCache::with_capacity`]
/// bounds residency with deterministic FIFO eviction (deposit order, never
/// recency — so occupancy is a pure function of the put sequence, not of
/// lookup interleaving). Hit/miss/eviction counters are surfaced via
/// [`BaselineCache::stats`] (queryd's `SHOW CACHE`, the campaign JSON).
/// Evicting a baseline never changes results: the next taker converges
/// cold and re-deposits, and the warm path is bit-identical to cold.
///
/// Contract: one cache serves exactly one `(topology, params)` pair. The
/// key deliberately does not re-encode them (hashing a whole `AsGraph`
/// per lookup would dwarf the clone it guards); reusing a cache across
/// topologies or params is a caller bug, same as [`Sim::restore`] across
/// sessions of different shape.
pub struct BaselineCache {
    inner: Mutex<CacheInner>,
    /// The engines warm cells run on, between two of them. Not baselines:
    /// `len`, `stats` and the capacity bound do not see them.
    scratch: Arc<ScratchEngines>,
}

impl Default for BaselineCache {
    fn default() -> Self {
        BaselineCache::new()
    }
}

impl BaselineCache {
    /// An empty, unbounded cache.
    pub fn new() -> BaselineCache {
        BaselineCache::bounded(None)
    }

    /// An empty cache holding at most `capacity` baselines (clamped to at
    /// least 1), evicting the oldest deposit first.
    pub fn with_capacity(capacity: usize) -> BaselineCache {
        BaselineCache::bounded(Some(capacity.max(1)))
    }

    fn bounded(capacity: Option<usize>) -> BaselineCache {
        BaselineCache {
            inner: Mutex::new(CacheInner {
                map: FxHashMap::default(),
                order: std::collections::VecDeque::new(),
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            scratch: Arc::default(),
        }
    }

    /// Number of converged baselines held.
    pub fn len(&self) -> usize {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        self.inner.lock().unwrap().map.len()
    }

    /// True when no baseline has been deposited yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy plus lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let inner = self.inner.lock().unwrap();
        CacheStats {
            capacity: inner.capacity,
            len: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Look up the converged baseline of `(p, dest, seed, policy_fp)`,
    /// counting a hit or a miss. `policy_fp` is the regime's
    /// [`PolicyRegime::fingerprint`] — baselines converged under different
    /// regimes never alias. The baseline is shared out as an `Arc`, so
    /// the lock is released before anyone clones it.
    pub fn get(&self, p: Protocol, dest: AsId, seed: u64, policy_fp: u64) -> Option<Arc<Sim>> {
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let mut inner = self.inner.lock().unwrap();
        let hit = inner.map.get(&(p, dest, seed, policy_fp)).cloned();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Deposit a converged baseline and hand back the shared handle the
    /// cache now holds. A fresh key joins the FIFO queue (and may evict
    /// the oldest deposit when bounded); re-depositing an existing key
    /// replaces the baseline without renewing its slot.
    pub fn put(
        &self,
        p: Protocol,
        dest: AsId,
        seed: u64,
        policy_fp: u64,
        mut sim: Sim,
    ) -> Arc<Sim> {
        let key = (p, dest, seed, policy_fp);
        sim.share_scratch(Arc::clone(&self.scratch));
        let sim = Arc::new(sim);
        // simlint::allow(panic, "poison means a sibling worker already panicked")
        let mut inner = self.inner.lock().unwrap();
        if inner.map.insert(key, sim.clone()).is_none() {
            inner.order.push_back(key);
            while inner.capacity.is_some_and(|cap| inner.map.len() > cap) {
                // The queue only grows on fresh inserts, so it cannot be
                // empty while the map is over capacity.
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                    inner.evictions += 1;
                }
            }
        }
        sim
    }

    /// Converge `sim` and deposit a copy under the key the session itself
    /// names — its protocol, destination, engine seed and policy
    /// fingerprint — so no baseline is filed under a key it does not
    /// match. Every baseline the product makes is made here.
    ///
    /// The copy, not the session that did the converging: a clone's
    /// buffers are sized to what they hold, the original's to its peak. A
    /// counting allocator at 2000 ASes read converged against copy as 3.05
    /// against 1.54 MiB (BGP), 3.63 against 1.86 MiB (R-BGP) and 5.16
    /// against 2.24 MiB (STAMP) while MRAI rows grew by `resize`: the
    /// difference was lapsed MRAI rows, cleared but keeping a four-slot
    /// buffer, and the drained scheduler heap. With rows grown exactly the
    /// converged side reads 2.46 / 2.85 / 3.98 MiB. That is also why the
    /// converging session's engine stays its own and never joins the
    /// cache's scratch engines.
    pub fn deposit(&self, sim: &mut Sim) -> Arc<Sim> {
        sim.converge();
        let fp = sim.params().policy.fingerprint();
        self.put(sim.protocol(), sim.dest(), sim.seed(), fp, sim.checkpoint())
    }
}

/// The five built-in scenario-timeline families the `campaign` binary (and
/// the determinism regression suite) run when no `.scn` files are
/// supplied: a sub-MRAI flap train, staggered two-link failures, a
/// correlated regional outage, rolling maintenance drains and random
/// background churn.
///
/// Every draw comes from the caller's `rng`, so the whole family set is
/// byte-reproducible from a seed. Four families anchor on the campaign's
/// own destinations (their provider links and cones are what the grid's
/// cells route over, so the events actually intersect measured paths);
/// churn is mesh-global. `smoke` shrinks event counts for the smoke grid.
pub fn standard_families(g: &AsGraph, rng: &mut Rng, dests: &[AsId], smoke: bool) -> Vec<Timeline> {
    let dest = |i: usize| dests[i % dests.len()];
    let s = SimDuration::from_secs;

    // 1. A provider link of the first destination flapping faster than
    //    MRAI (30 s): period 10 s, half duty.
    let fa = dest(0);
    let fb = g.providers(fa)[0];
    let flap = Timeline::from_events(
        "flap-train",
        flap_train(fa, fb, s(0), s(10), 0.5, if smoke { 3 } else { 6 }),
    );

    // 2. Staggered two-link failure: both provider links of a multi-homed
    //    destination, the second while the network is still exploring the
    //    first withdrawal (the slow-motion Figure 3b).
    let sd = dest(1);
    let sp = g.providers(sd);
    let stagger = Timeline::from_events(
        "staggered-two-link",
        staggered_link_failures(&[(sd, sp[0]), (sd, sp[1])], s(0), s(15)),
    );

    // 3. A correlated regional outage: a slice of a destination's provider
    //    cone fails as one event and recovers together two minutes later.
    let cone = provider_cone(g, dest(2));
    let region = choose_k(rng, &cone, (cone.len() / 4).clamp(1, 3));
    let outage = Timeline::from_events(
        "regional-outage",
        correlated_node_outage(&region, s(0), Some(s(120))),
    );

    // 4. Rolling maintenance: two providers of a destination drain for
    //    60 s, one at a time.
    let md = dest(3);
    let mp = g.providers(md);
    let maint = Timeline::from_events(
        "maintenance-drain",
        maintenance_windows(&[mp[0], mp[1 % mp.len()]], s(0), s(60), s(180)),
    );

    // 5. Random background churn across the whole mesh.
    let churn = Timeline::from_events(
        "background-churn",
        background_churn(g, rng, s(0), s(240), if smoke { 6 } else { 12 }, s(30)),
    );

    vec![flap, stagger, outage, maint, churn]
}

/// A seed's grid axes, drawn in this one place: the
/// `GenConfig { n_ases, ..GenConfig::small(seed) }` topology, `n_dests` of
/// its multi-homed [`destination_candidates`] chosen on `rng_stream(seed, tags::TIMELINE)`, and that stream, left
/// where the timeline draw ([`standard_families`]) picks it up. Every grid
/// the `campaign` binary runs and the daemon's resident baselines
/// (`stamp_queryd`) start here. An invalid generator config, or a topology
/// that yields no destination, is an `Err` naming it.
pub fn grid_axes(
    seed: u64,
    n_ases: usize,
    n_dests: usize,
) -> Result<(AsGraph, Vec<AsId>, Rng), String> {
    let gen = GenConfig {
        n_ases,
        ..GenConfig::small(seed)
    };
    let g = generate(&gen).map_err(|e| format!("topology generation failed: {e}"))?;
    let mut rng = rng_stream(seed, tags::TIMELINE);
    let candidates = destination_candidates(&g);
    let dests = choose_k(&mut rng, &candidates, n_dests);
    if dests.is_empty() {
        return Err(format!(
            "no destinations ({n_dests} asked for, {} multi-homed candidates in the \
             {n_ases}-AS topology)",
            candidates.len()
        ));
    }
    Ok((g, dests, rng))
}

/// The smoke grid, whole: [`grid_axes`] at 200 ASes (`GenConfig::small`'s
/// size) and two destinations, the five [`standard_families`] at smoke
/// scale, fast params, one seed, BGP/R-BGP/STAMP. Its aggregate hash is
/// pinned by `tests/determinism.rs`, and `stamp_bench`'s results-document
/// test runs it cold, parallel and warm.
pub fn smoke_grid(seed: u64) -> (AsGraph, Vec<Timeline>, Vec<AsId>, CampaignConfig) {
    let (g, dests, mut rng) = grid_axes(seed, 200, 2)
        // simlint::allow(panic, "GenConfig::small is a constant known-valid config with multi-homed ASes")
        .expect("the smoke grid's axes exist");
    let timelines = standard_families(&g, &mut rng, &dests, true);
    let cfg = CampaignConfig {
        params: RunParams::fast(),
        protocols: vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp],
        seeds: vec![seed],
        threads: 0,
    };
    (g, timelines, dests, cfg)
}

/// The adversarial control-plane families: the same shape as
/// [`standard_families`] but nothing physical ever fails — routers lie
/// instead. Which AS goes rogue is the seeded variable (drawn from `rng`);
/// what it does is the family:
///
/// 1. `origin-hijack` — a random non-destination AS originates the
///    measured prefix outright;
/// 2. `prepend-hijack` — a random AS forges the path `[attacker, victim]`
///    against the second destination (the type-2 variant that survives
///    origin validation);
/// 3. `route-leak` — a multi-homed AS re-exports its selected route to
///    every neighbor, then a provider link of the first destination fails
///    while the leak is live (leaks bite hardest under re-convergence);
/// 4. `policy-misconfig` — every router flips to `shortest-path` (a safe
///    regime — the grid must terminate), followed by the same link
///    failure, measuring how a global preference change amplifies a
///    routine outage.
pub fn adversarial_families(
    g: &AsGraph,
    rng: &mut Rng,
    dests: &[AsId],
    smoke: bool,
) -> Vec<Timeline> {
    let dest = |i: usize| dests[i % dests.len()];
    let s = SimDuration::from_secs;

    let fail_at = s(if smoke { 5 } else { 30 });

    let hijacker = random_attacker(g, rng, dest(0));
    let hijack = Timeline::from_events("origin-hijack", prefix_hijack(hijacker, s(0)));

    let prepender = random_attacker(g, rng, dest(1));
    let prepend = Timeline::from_events("prepend-hijack", prepend_hijack(prepender, dest(1), s(0)));

    // Leak from a multi-homed AS (the destination candidates are exactly
    // the multi-homed population) that is not a measured destination.
    let candidates = destination_candidates(g);
    let leaker = *candidates
        .iter()
        .find(|v| !dests.contains(v))
        .unwrap_or(&hijacker);
    let la = dest(0);
    let lb = g.providers(la)[0];
    let link_fails = || staggered_link_failures(&[(la, lb)], fail_at, s(0));
    let mut leak_events = route_leak(leaker, s(0));
    leak_events.extend(link_fails());
    let leak = Timeline::from_events("route-leak", leak_events);

    let flip_idx = PolicyRegime::index_of("shortest-path")
        // simlint::allow(panic, "shortest-path is a built-in regime")
        .expect("shortest-path is a named regime");
    let mut flip_events = policy_flip(flip_idx, s(0));
    flip_events.extend(link_fails());
    let flip = Timeline::from_events("policy-misconfig", flip_events);

    vec![hijack, prepend, leak, flip]
}

/// The adversarial grid (the `adversarial` object of
/// `BENCH_campaign.json`): the same topology, destinations and fast params
/// as [`smoke_grid`] but running the four [`adversarial_families`] instead
/// of the physical-failure families. One constructor serves the `campaign`
/// binary and `tests/determinism.rs`, which pins its hash, so the pinned
/// hash always corresponds to the grid the document records.
pub fn adversarial_grid(seed: u64) -> (AsGraph, Vec<Timeline>, Vec<AsId>, CampaignConfig) {
    let (g, _, dests, cfg) = smoke_grid(seed);
    // A salted stream: the adversarial draws must not depend on how many
    // draws the standard families consumed from the unsalted one.
    let mut rng = rng_stream(seed ^ 0xAD5E_ACA1, tags::TIMELINE);
    let timelines = adversarial_families(&g, &mut rng, &dests, true);
    (g, timelines, dests, cfg)
}

/// Campaign configuration: the seed axis of the grid plus shared knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Engine/measurement knobs shared by every cell.
    pub params: RunParams,
    /// Protocols run on every cell.
    pub protocols: Vec<Protocol>,
    /// The seed axis: every `(timeline, dest)` pair runs once per seed.
    pub seeds: Vec<u64>,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

impl CampaignConfig {
    /// Paper-parameter campaign over all four protocols, one seed.
    pub fn paper(seed: u64) -> CampaignConfig {
        CampaignConfig {
            params: RunParams::default(),
            protocols: Protocol::ALL.to_vec(),
            seeds: vec![seed],
            threads: 0,
        }
    }

    /// Fast test campaign (no MRAI, fixed delays).
    pub fn fast(seed: u64) -> CampaignConfig {
        CampaignConfig {
            params: RunParams::fast(),
            ..CampaignConfig::paper(seed)
        }
    }
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignCell {
    /// Index into the campaign's timeline list.
    pub timeline: usize,
    /// The destination AS converged towards.
    pub dest: AsId,
    /// The seed-axis value.
    pub seed: u64,
}

/// Results of one cell: metrics per protocol, in config order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub cell: CampaignCell,
    pub metrics: Vec<(Protocol, InstanceMetrics)>,
    /// What observing each protocol's run cost, parallel to `metrics`.
    /// Exact and seed-determined like the metrics, but a ledger of work,
    /// not a result: the aggregate hash does not fold it.
    pub observer: Vec<ObserverWork>,
}

/// Per-`(timeline, protocol)` aggregate over all matching cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub cells: usize,
    pub affected_mean: f64,
    pub loops_mean: f64,
    pub blackholes_mean: f64,
    pub updates_failure_mean: f64,
    pub convergence_mean_s: f64,
    pub data_recovery_mean_s: f64,
    /// Cells whose run did not converge (watchdog divergence or budget
    /// exhaustion) — a count, not a mean: one is already news.
    pub diverged: usize,
}

/// A complete campaign: merged cells (grid order) and the aggregate hash.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub n_ases: usize,
    /// Names of the campaign's timelines, grid order.
    pub timeline_names: Vec<String>,
    /// Every cell, in deterministic grid order (timeline-major, then
    /// destination, then seed) regardless of worker interleaving.
    pub cells: Vec<CellResult>,
    /// Every metric and outcome of every cell folded in merge order
    /// (FNV-1a, see `report_hash`) — two campaigns are byte-identical iff
    /// their hashes match.
    pub hash: u64,
}

impl CampaignReport {
    /// Observer work of one protocol, summed over the grid.
    pub fn observer_work(&self, p: Protocol) -> ObserverWork {
        let mut sum = ObserverWork::default();
        for c in &self.cells {
            for ((q, _), w) in c.metrics.iter().zip(&c.observer) {
                if *q == p {
                    sum += *w;
                }
            }
        }
        sum
    }

    /// Aggregate one `(timeline, protocol)` slice of the grid.
    pub fn aggregate(&self, timeline: usize, p: Protocol) -> Aggregate {
        let ms: Vec<&InstanceMetrics> = self
            .cells
            .iter()
            .filter(|c| c.cell.timeline == timeline)
            .filter_map(|c| c.metrics.iter().find(|(q, _)| *q == p).map(|(_, m)| m))
            .collect();
        let mean = |field: fn(&InstanceMetrics) -> f64| {
            InstanceMetrics::mean_of(ms.iter().copied(), field)
        };
        Aggregate {
            cells: ms.len(),
            affected_mean: mean(|m| m.affected as f64),
            loops_mean: mean(|m| m.affected_loops as f64),
            blackholes_mean: mean(|m| m.affected_blackholes as f64),
            updates_failure_mean: mean(|m| m.updates_failure as f64),
            convergence_mean_s: mean(|m| m.convergence_delay_s),
            data_recovery_mean_s: mean(|m| m.data_recovery_s),
            diverged: ms.iter().filter(|m| !m.outcome.is_converged()).count(),
        }
    }
}

// ---------------------------------------------------------------------
// The cell runner
// ---------------------------------------------------------------------

/// `f` of every item computed on `threads` scoped workers (0 = all cores;
/// never more workers than items), returned in item order. The one worker
/// pool of the simulation crates: workers claim indices from an atomic
/// counter, keep their own `(index, result)` pairs and return them through
/// their join handles, so there is no shared result state to lock. A
/// panicking worker's panic resumes on the caller. A one-item list runs
/// on the calling thread, so a one-cell what-if spawns nothing (a spawn
/// per query cost `query_hit` some 7 % of its throughput). A longer list
/// spawns its workers even when there is one: inline, a one-worker
/// `campaign_warm` pass read 78 MB peak RSS against 68 MB, its forks'
/// allocations interleaved with the resident baselines on the caller's
/// heap.
fn par_map<I: Sync, T: Send>(threads: usize, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    if items.len() == 1 {
        return items.iter().map(f).collect();
    }
    let threads = match threads {
        // simlint::allow(ambient-env, "thread count only partitions work; results are merged by index and never depend on it")
        0 => std::thread::available_parallelism().map_or(1, |c| c.get()),
        t => t,
    }
    .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One cell for [`run_cells`]: a timeline played against one destination
/// under one engine seed.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The scenario every protocol replays.
    pub timeline: &'a Timeline,
    /// The destination AS converged towards.
    pub dest: AsId,
    /// The *final* engine seed (delay/MRAI streams, STAMP's lock choices)
    /// — callers derive it from their own coordinates; the runner adds
    /// nothing.
    pub seed: u64,
}

/// Run every cell for every protocol on `threads` workers (0 = all cores)
/// and return the per-cell metrics, protocols in `protocols` order, cells
/// **in input order** whatever the worker interleaving.
///
/// Before any thread spawns, each cell's timeline is resolved against `g`
/// (an unresolvable one is the typed error, and nothing has run) and its
/// reachability mask computed: a run of adjacent cells on one timeline
/// shares that timeline's after-graph, and within it cells that differ
/// only in seed share the mask.
///
/// A work item is a baseline key `(protocol, dest, seed)` with every cell
/// that shares it, wherever they sit in the list: the key converges once
/// (or comes from `cache`, which receives what had to converge) and each
/// of its cells forks it (`run_key`). Items are claimed in order of first
/// appearance of their `(dest, seed)`, STAMP's first — two processes per
/// AS make its item the longest. With no cache, a worker holds one
/// baseline at a time. Results are bit-identical either way and are
/// written back by index. A cached baseline is copied exactly, so a
/// `cache` must have been filled under `params`: where they differ, the
/// baseline's params win (debug builds assert the phase knobs agree).
pub fn run_cells(
    g: &AsGraph,
    params: &RunParams,
    protocols: &[Protocol],
    threads: usize,
    cells: &[Cell<'_>],
    cache: Option<&BaselineCache>,
) -> Result<Vec<Vec<(Protocol, InstanceMetrics)>>, TimelineError> {
    let counted = run_cells_counted(g, params, protocols, threads, cells, cache)?;
    Ok(counted.into_iter().map(|(metrics, _)| metrics).collect())
}

/// What one cell hands back: its metrics and, beside them, what observing
/// each protocol cost.
type CountedCell = (Vec<(Protocol, InstanceMetrics)>, Vec<ObserverWork>);

/// [`run_cells`], keeping each cell's observer-work ledger.
fn run_cells_counted(
    g: &AsGraph,
    params: &RunParams,
    protocols: &[Protocol],
    threads: usize,
    cells: &[Cell<'_>],
    cache: Option<&BaselineCache>,
) -> Result<Vec<CountedCell>, TimelineError> {
    let mut masks: Vec<Arc<[bool]>> = Vec::with_capacity(cells.len());
    for run in cells.chunk_by(|a, b| a.timeline == b.timeline) {
        let Some(first) = run.first() else { continue }; // chunks are never empty
        first.timeline.resolve(g)?;
        let g_after = first.timeline.graph_after(g)?;
        for to_dest in run.chunk_by(|a, b| a.dest == b.dest) {
            let mut mask: Option<Arc<[bool]>> = None;
            for c in to_dest {
                let mask = mask.get_or_insert_with(|| reachability_mask(&g_after, c.dest).into());
                masks.push(mask.clone());
            }
        }
    }
    // Each `(dest, seed)` in order of first appearance, with its cells'
    // indices and plays.
    let mut group_of: FxHashMap<(AsId, u64), usize> = FxHashMap::default();
    let mut groups: Vec<(AsId, u64, Vec<usize>, Vec<Play<'_>>)> = Vec::new();
    for (i, (c, mask)) in cells.iter().zip(&masks).enumerate() {
        let play = (c.timeline, &**mask);
        let at = *group_of.entry((c.dest, c.seed)).or_insert(groups.len());
        match groups.get_mut(at) {
            Some((_, _, members, plays)) => {
                members.push(i);
                plays.push(play);
            }
            None => groups.push((c.dest, c.seed, vec![i], vec![play])),
        }
    }
    // The items: per group, one key per protocol, STAMP's first, each
    // with the result column it fills.
    let mut by_cost: Vec<(usize, Protocol)> = protocols.iter().copied().enumerate().collect();
    by_cost.sort_by_key(|&(_, p)| p != Protocol::Stamp);
    let items: Vec<_> = groups
        .iter()
        .flat_map(|(dest, seed, members, plays)| {
            by_cost
                .iter()
                .map(move |&(column, protocol)| (protocol, *dest, *seed, column, members, plays))
        })
        .collect();
    let done = par_map(threads, &items, |&(protocol, dest, seed, _, _, plays)| {
        run_key(g, params, protocol, dest, seed, plays, cache)
    });
    let blank = (InstanceMetrics::default(), ObserverWork::default());
    let mut rows: Vec<Vec<_>> = vec![vec![blank; protocols.len()]; cells.len()];
    for ((.., column, members, _), results) in items.iter().zip(done) {
        for (&i, result) in members.iter().zip(results) {
            if let Some(slot) = rows.get_mut(i).and_then(|row| row.get_mut(*column)) {
                *slot = result;
            }
        }
    }
    Ok(rows
        .into_iter()
        .map(|row| {
            let (metrics, work): (Vec<_>, _) = row.into_iter().unzip();
            (protocols.iter().copied().zip(metrics).collect(), work)
        })
        .collect())
}

// ---------------------------------------------------------------------
// Campaigns: the cross-product cell list
// ---------------------------------------------------------------------

/// A cell's engine seed: its destination and seed-axis value, never its
/// timeline or a worker's identity, so every timeline aimed at one
/// `(dest, seed)` starts from the same converged baseline.
fn cell_seed(dest: AsId, seed: u64) -> u64 {
    derive_seed(derive_seed(seed, tags::CAMPAIGN), u64::from(dest.0))
}

/// The grid in merge order: timeline-major, then destination, then seed.
fn grid_cells(n_timelines: usize, dests: &[AsId], seeds: &[u64]) -> Vec<CampaignCell> {
    let mut grid = Vec::with_capacity(n_timelines * dests.len() * seeds.len());
    for timeline in 0..n_timelines {
        for &dest in dests {
            for &seed in seeds {
                grid.push(CampaignCell {
                    timeline,
                    dest,
                    seed,
                });
            }
        }
    }
    grid
}

/// The aggregate hash: FNV-1a over each cell's coordinates and, per
/// protocol, the protocol, every metric word (f64s by bit pattern) and the
/// outcome — a tag, then a diverged run's period and churn (else zeros).
fn report_hash(cells: &[CellResult]) -> u64 {
    let mut h = Fnv1a::new();
    for c in cells {
        h.write_u64(c.cell.timeline as u64);
        h.write_u64(u64::from(c.cell.dest.0));
        h.write_u64(c.cell.seed);
        for (p, m) in &c.metrics {
            h.write_u64(*p as u64);
            let outcome = match m.outcome {
                RunOutcome::Converged => [0, 0, 0],
                RunOutcome::Diverged { period, churn } => [1, period.as_micros(), churn],
                RunOutcome::BudgetExhausted => [2, 0, 0],
            };
            for w in m.words().into_iter().chain(outcome) {
                h.write_u64(w);
            }
        }
    }
    h.finish()
}

/// Run a campaign: the full `timelines × dests × seeds` grid, sharded
/// across `cfg.threads` workers (0 = all cores), merged in grid order.
///
/// Fails fast (before spawning anything) if the timeline of any cell does
/// not resolve against `g`.
pub fn run_campaign(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, TimelineError> {
    run_campaign_with_cache(g, timelines, dests, cfg, None)
}

/// Converge every baseline of the grid — one per `(dest, seed)` and
/// protocol; an empty grid has none — into `cache` without playing any
/// timeline: afterwards a [`run_campaign_with_cache`] pass over the same
/// grid forks every cell instead of converging it. Idempotent — an already
/// cached baseline costs a lookup. Deliberately serial: the deposit order
/// is what a bounded cache's FIFO eviction sees.
pub fn populate_baselines(
    g: &AsGraph,
    n_timelines: usize,
    dests: &[AsId],
    cfg: &CampaignConfig,
    cache: &BaselineCache,
) {
    if n_timelines == 0 {
        return;
    }
    let fp = cfg.params.policy.fingerprint();
    for &dest in dests {
        for &seed in &cfg.seeds {
            let seed = cell_seed(dest, seed);
            for &p in &cfg.protocols {
                if cache.get(p, dest, seed, fp).is_none() {
                    cache.deposit(&mut fresh_session(g, &cfg.params, dest, p, seed));
                }
            }
        }
    }
}

/// [`run_campaign`] with an optional warm-start [`BaselineCache`]: cells
/// whose converged baseline is cached copy it instead of replaying
/// convergence; missing baselines converge cold and are
/// deposited. The report — including its aggregate hash — is byte-
/// identical with or without a cache, at any worker count.
pub fn run_campaign_with_cache(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
    cache: Option<&BaselineCache>,
) -> Result<CampaignReport, TimelineError> {
    let grid = grid_cells(timelines.len(), dests, &cfg.seeds);
    // Timeline-major: each timeline runs its `dests × seeds` cells in a row.
    let per_timeline = dests.len() * cfg.seeds.len();
    let on_timeline = timelines
        .iter()
        .flat_map(|t| std::iter::repeat_n(t, per_timeline));
    let cells: Vec<Cell<'_>> = grid
        .iter()
        .zip(on_timeline)
        .map(|(c, timeline)| Cell {
            timeline,
            dest: c.dest,
            seed: cell_seed(c.dest, c.seed),
        })
        .collect();
    let counted = run_cells_counted(g, &cfg.params, &cfg.protocols, cfg.threads, &cells, cache)?;
    let cells: Vec<CellResult> = grid
        .into_iter()
        .zip(counted)
        .map(|(cell, (metrics, observer))| CellResult {
            cell,
            metrics,
            observer,
        })
        .collect();
    Ok(CampaignReport {
        n_ases: g.n(),
        timeline_names: timelines.iter().map(|t| t.name().to_string()).collect(),
        hash: report_hash(&cells),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canned::{sample_canned, FailureScenario};
    use crate::timeline::{
        flap_train, maintenance_windows, single_link_failure, NetEvent, TimelineEvent,
    };

    fn grid(seed: u64) -> (AsGraph, Vec<Timeline>, Vec<AsId>) {
        let g = generate(&GenConfig::small(seed)).unwrap();
        let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
        let d0 = dests[0];
        let p = g.providers(d0)[0];
        let timelines = vec![
            Timeline::from_events(
                "flap",
                flap_train(d0, p, SimDuration::ZERO, SimDuration::from_secs(2), 0.5, 3),
            ),
            Timeline::from_events(
                "maint",
                maintenance_windows(
                    &[p],
                    SimDuration::ZERO,
                    SimDuration::from_secs(10),
                    SimDuration::from_secs(30),
                ),
            ),
        ];
        (g, timelines, dests)
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let (g, timelines, dests) = grid(21);
        let mut cfg = CampaignConfig::fast(5);
        cfg.protocols = vec![Protocol::Bgp, Protocol::Stamp];
        cfg.seeds = vec![1, 2];
        cfg.threads = 1;
        let serial = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        cfg.threads = 4;
        let parallel = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        assert_eq!(serial.hash, parallel.hash);
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(serial.cells.len(), 2 * 2 * 2);
    }

    #[test]
    fn aggregates_cover_the_grid() {
        let (g, timelines, dests) = grid(23);
        let mut cfg = CampaignConfig::fast(7);
        cfg.protocols = vec![Protocol::Bgp];
        cfg.seeds = vec![9];
        let rep = run_campaign(&g, &timelines, &dests, &cfg).unwrap();
        for t in 0..timelines.len() {
            let agg = rep.aggregate(t, Protocol::Bgp);
            assert_eq!(agg.cells, dests.len());
            assert!(agg.affected_mean >= 0.0);
        }
        // An unknown protocol slice is empty, not a panic.
        assert_eq!(rep.aggregate(0, Protocol::Stamp).cells, 0);
    }

    #[test]
    fn canned_workload_cell_matches_protocol_expectations() {
        // A canned Figure-2 cell: a recovered network must end with zero
        // remaining problems, and STAMP must not do worse than the
        // AS-population bound.
        let g = generate(&GenConfig::small(41)).unwrap();
        let mut rng = rng_stream(3, stamp_eventsim::rng::tags::WORKLOAD);
        let w = sample_canned(&g, FailureScenario::SingleLink, &mut rng).unwrap();
        let reachable = w.timeline.reachable_after(&g, w.dest).unwrap();
        let params = RunParams::fast();
        for p in Protocol::ALL {
            let m = run_protocol_cell(&g, &params, &w.timeline, w.dest, &reachable, p, 11);
            assert!(m.affected < g.n(), "{}", p.label());
            assert!(m.interned_paths > 0, "{}", p.label());
        }
    }

    /// Two seeds of every `(timeline, dest)` of `grid`, shuffled out of
    /// grid order. Every timeline uses the same two seeds, so each
    /// baseline key has a cell per timeline, scattered through the list.
    fn shuffled_cells<'a>(timelines: &'a [Timeline], dests: &[AsId]) -> Vec<Cell<'a>> {
        let mut cells = Vec::new();
        for timeline in timelines {
            for &dest in dests {
                for seed in [3, 4] {
                    cells.push(Cell {
                        timeline,
                        dest,
                        seed,
                    });
                }
            }
        }
        rng_stream(0x5AFF, tags::WORKLOAD).shuffle(&mut cells);
        cells
    }

    #[test]
    fn run_cells_keeps_input_order_with_or_without_a_cache() {
        let (g, timelines, dests) = grid(27);
        let params = RunParams::fast();
        let protocols = [Protocol::Bgp, Protocol::Stamp];
        let cells = shuffled_cells(&timelines, &dests);
        let key = |c: &Cell<'_>| (c.dest, c.seed);
        let apart = |(i, a): (usize, &Cell<'_>)| cells.iter().skip(i + 2).any(|b| key(a) == key(b));
        assert!(
            cells.iter().enumerate().any(apart),
            "some key's cells sit apart, so the runner gathers them"
        );
        // The reference: each cell on its own, through the single-cell API.
        let want: Vec<Vec<(Protocol, InstanceMetrics)>> = cells
            .iter()
            .map(|c| {
                let mask = c.timeline.reachable_after(&g, c.dest).unwrap();
                let cell = |p| run_protocol_cell(&g, &params, c.timeline, c.dest, &mask, p, c.seed);
                protocols.iter().map(|&p| (p, cell(p))).collect()
            })
            .collect();
        assert!(
            want.iter().any(|row| *row != want[0]),
            "rows differ, so their order is observable"
        );
        let cache = BaselineCache::new();
        for threads in [1, 2, 5] {
            let run = |cache| run_cells(&g, &params, &protocols, threads, &cells, cache).unwrap();
            assert_eq!(run(None), want, "cold, threads = {threads}");
            assert_eq!(run(Some(&cache)), want, "cached, threads = {threads}");
        }
        // One lookup per key and pass: the first deposits, the other two
        // fork.
        let keys = dests.len() * 2 * protocols.len();
        let stats = cache.stats();
        assert_eq!(
            (stats.len, stats.misses, stats.hits),
            (keys, keys as u64, 2 * keys as u64)
        );
    }

    fn scratch_len(cache: &BaselineCache) -> usize {
        cache.scratch.len()
    }

    /// Engine kinds a scratch engine can have: BGP, R-BGP (with or
    /// without RCI), STAMP.
    const KINDS: usize = 3;

    /// A grid's baselines are its `(dest, seed)` pairs times its
    /// protocols, and a pass looks each up once: the first pass converges
    /// and deposits every key and forks it for each of its timelines, the
    /// second finds every key; `populate_baselines` converges the same
    /// keys, and an empty grid has none.
    #[test]
    fn a_pass_converges_each_baseline_once_and_forks_it_for_every_other_timeline() {
        let (g, mut timelines, dests) = grid(25);
        timelines.push(Timeline::from_events("quiet", Vec::new()));
        let mut cfg = CampaignConfig::fast(5);
        cfg.protocols = vec![Protocol::Bgp, Protocol::Stamp];
        cfg.seeds = vec![1, 2];
        cfg.threads = 1;
        let (t, d, s, p) = (
            timelines.len(),
            dests.len(),
            cfg.seeds.len(),
            cfg.protocols.len(),
        );
        assert_eq!((t, d, s, p), (3, 2, 2, 2));
        let keys = d * s * p;
        let cache = BaselineCache::new();
        let pass = || run_campaign_with_cache(&g, &timelines, &dests, &cfg, Some(&cache)).unwrap();
        let counts = |c: CacheStats| (c.len, c.misses, c.hits);
        let rep = pass();
        let k = keys as u64;
        assert_eq!(counts(cache.stats()), (keys, k, 0));
        assert_eq!(
            rep.cells,
            run_campaign(&g, &timelines, &dests, &cfg).unwrap().cells
        );
        assert_eq!(pass().cells, rep.cells);
        assert_eq!(counts(cache.stats()), (keys, k, k));

        let populated = BaselineCache::new();
        populate_baselines(&g, 0, &dests, &cfg, &populated);
        assert!(populated.is_empty(), "an empty grid has no baseline");
        populate_baselines(&g, t, &dests, &cfg, &populated);
        assert_eq!(counts(populated.stats()), (keys, k, 0));
    }

    /// The hash folds how each run ended, not only its metrics.
    #[test]
    fn cells_that_differ_only_in_their_outcome_hash_apart() {
        let one_cell = |outcome| {
            let metrics = InstanceMetrics {
                outcome,
                ..InstanceMetrics::default()
            };
            vec![CellResult {
                cell: CampaignCell {
                    timeline: 0,
                    dest: AsId(1),
                    seed: 2,
                },
                metrics: vec![(Protocol::Bgp, metrics)],
                observer: vec![ObserverWork::default()],
            }]
        };
        let hash = |outcome| report_hash(&one_cell(outcome));
        let diverged = RunOutcome::Diverged {
            period: SimDuration::from_secs(1),
            churn: 3,
        };
        let converged = hash(RunOutcome::Converged);
        assert_ne!(converged, hash(RunOutcome::BudgetExhausted));
        assert_ne!(converged, hash(diverged));
        assert_ne!(hash(RunOutcome::BudgetExhausted), hash(diverged));
    }

    /// One seed, so the grid's keys are its destinations times its
    /// protocols, and the first pass already forks: each key converges,
    /// deposits, and plays every timeline on one engine, handed back for
    /// the next key of its kind.
    #[test]
    fn scratch_engines_are_bounded_by_engine_kinds_times_workers() {
        let (g, timelines, dests) = grid(29);
        let mut cfg = CampaignConfig::fast(3);
        cfg.protocols = vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];
        cfg.threads = 1;
        let keys = (dests.len() * cfg.protocols.len()) as u64;
        let cache = BaselineCache::new();
        let run = |cfg: &CampaignConfig| {
            run_campaign_with_cache(&g, &timelines, &dests, cfg, Some(&cache)).unwrap()
        };
        // All misses: the sessions that converged are never recycled, and
        // one scratch engine per kind serves the forks.
        let cold = run(&cfg);
        assert_eq!(scratch_len(&cache), KINDS);
        // All hits, one per key: the same engines serve the whole pass,
        // and the cache's own books read as they always did.
        let warm = run(&cfg);
        assert_eq!(cold.cells, warm.cells);
        assert_eq!(scratch_len(&cache), KINDS);
        let want = CacheStats {
            capacity: None,
            len: keys as usize,
            hits: keys,
            misses: keys,
            evictions: 0,
        };
        assert_eq!(cache.stats(), want);
        assert_eq!(cache.len(), keys as usize);
        // Four workers: at most four forks alive at once per kind.
        cfg.threads = 4;
        assert_eq!(cold.cells, run(&cfg).cells);
        assert!(scratch_len(&cache) <= 4 * KINDS, "{}", scratch_len(&cache));
    }

    #[test]
    fn churning_a_bounded_cache_grows_no_scratch_engines() {
        let (g, timelines, dests) = grid(35);
        let params = RunParams::fast();
        let mask = timelines[0].reachable_after(&g, dests[0]).unwrap();
        let cache = BaselineCache::with_capacity(2);
        // Six keys through room for two, each looked up twice in a row:
        // miss (converge, deposit, evict), then hit (fork).
        let mut lookups = 0;
        for _round in 0..2 {
            for seed in [1, 2] {
                for p in [Protocol::Bgp, Protocol::RbgpNoRci, Protocol::Stamp] {
                    let cell = || {
                        run_protocol_cell_warm(
                            &g,
                            &params,
                            &timelines[0],
                            dests[0],
                            &mask,
                            p,
                            seed,
                            &cache,
                        )
                    };
                    assert_eq!(cell(), cell(), "{p} seed {seed}");
                    lookups += 1;
                }
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (lookups, lookups));
        assert_eq!((stats.len, stats.evictions), (2, lookups - 2));
        assert_eq!(scratch_len(&cache), KINDS);
    }

    /// The warm cell spelled through the public facade — `build`, `get`,
    /// `restore`, `measure`, drop — is the product's: a session that has
    /// not run trades its engine for a scratch one and hands that back
    /// when dropped; one that has run is rewound in place and owns what
    /// it holds.
    #[test]
    fn restoring_a_fresh_session_from_a_cached_baseline_borrows_its_engine() {
        let (g, timelines, dests) = grid(39);
        let params = RunParams::fast();
        let mask = timelines[0].reachable_after(&g, dests[0]).unwrap();
        let (p, seed, fp) = (Protocol::Rbgp, 7, params.policy.fingerprint());
        let cache = BaselineCache::new();
        let cold =
            run_protocol_cell_warm(&g, &params, &timelines[0], dests[0], &mask, p, seed, &cache);
        let baseline = cache.get(p, dests[0], seed, fp).expect("deposited");
        let public = || {
            Sim::on(&g)
                .protocol(p)
                .originate(dests[0], PREFIX)
                .seed(seed)
                .params(params.clone())
                .build()
                .unwrap()
        };
        for round in 0..3 {
            let mut sim = public();
            sim.restore(&baseline).unwrap();
            assert_eq!(scratch_len(&cache), 0, "round {round}: on loan");
            assert_eq!(sim.measure(&timelines[0], &mask).unwrap(), cold);
            // Restored again it has run: rewound where it is.
            sim.restore(&baseline).unwrap();
            assert_eq!(sim.measure(&timelines[0], &mask).unwrap(), cold);
            drop(sim);
            assert_eq!(scratch_len(&cache), 1, "round {round}: handed back");
        }
        // A session that ran before its first restore keeps its own engine.
        let mut own = public();
        own.converge();
        own.restore(&baseline).unwrap();
        assert_eq!(scratch_len(&cache), 1);
        assert_eq!(own.measure(&timelines[0], &mask).unwrap(), cold);
        drop(own);
        assert_eq!(scratch_len(&cache), 1);
    }

    #[test]
    fn a_cell_that_panics_mid_run_leaves_the_cache_usable() {
        let (g, timelines, dests) = grid(37);
        let params = RunParams::fast();
        let mask = timelines[0].reachable_after(&g, dests[0]).unwrap();
        let cell = |timeline: &Timeline, cache: &BaselineCache| {
            run_protocol_cell_warm(
                &g,
                &params,
                timeline,
                dests[0],
                &mask,
                Protocol::Stamp,
                5,
                cache,
            )
        };
        let cache = BaselineCache::new();
        let cold = cell(&timelines[0], &cache);
        // The baseline is cached now, so the bogus cell forks it and then
        // panics inside `measure`: its timeline does not resolve.
        let bogus = Timeline::from_events("bogus", single_link_failure(dests[0], dests[0]));
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell(&bogus, &cache)));
        assert!(panicked.is_err());
        // Unwinding dropped its session, which handed the engine back;
        // no lock is poisoned; and whatever state the engine was left in,
        // the next fork rewinds it into the cold cell again.
        assert_eq!(scratch_len(&cache), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cell(&timelines[0], &cache), cold);
        assert_eq!(scratch_len(&cache), 1);
    }

    /// One cache, one params set: a fork copies its baseline exactly, so a
    /// debug build refuses to fork one under other phase knobs.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a cached baseline runs the params it converged under")]
    fn forking_under_other_phase_knobs_than_the_baselines_is_refused() {
        let (g, timelines, dests) = grid(37);
        let mask = timelines[0].reachable_after(&g, dests[0]).unwrap();
        let cache = BaselineCache::new();
        let cell = |params: &RunParams| {
            let (timeline, dest) = (&timelines[0], dests[0]);
            run_protocol_cell_warm(&g, params, timeline, dest, &mask, Protocol::Bgp, 5, &cache)
        };
        cell(&RunParams::fast());
        cell(&RunParams {
            inject_delay: SimDuration::from_secs(2),
            ..RunParams::fast()
        });
    }

    #[test]
    fn run_cells_rejects_an_unresolvable_timeline_before_running_anything() {
        let (g, timelines, dests) = grid(31);
        // A link between an AS and itself never exists.
        let bogus = Timeline::from_events("bogus", single_link_failure(dests[0], dests[0]));
        let cells = [&timelines[0], &bogus].map(|timeline| Cell {
            timeline,
            dest: dests[1],
            seed: 1,
        });
        let cache = BaselineCache::new();
        let params = RunParams::fast();
        let err = run_cells(&g, &params, &[Protocol::Bgp], 2, &cells, Some(&cache));
        assert_eq!(err, Err(TimelineError::NoSuchLink(dests[0], dests[0])));
        assert_eq!(cache.stats().misses, 0, "the valid first cell never ran");
        // Likewise an offset that would wrap the clock when added to the
        // injection epoch (debug builds panicked there, release builds
        // wrapped and answered for `at 0s`).
        let at = SimDuration::from_micros(u64::MAX);
        let ev = NetEvent::NodeDown(dests[0]);
        let wraps = Timeline::from_events("wraps", vec![TimelineEvent { at, ev }]);
        let cells = [&timelines[0], &wraps].map(|timeline| Cell {
            timeline,
            dest: dests[1],
            seed: 1,
        });
        let err = run_cells(&g, &params, &[Protocol::Bgp], 2, &cells, Some(&cache));
        assert_eq!(err, Err(TimelineError::OffsetTooLarge(at)));
        assert_eq!(cache.stats().misses, 0, "the valid first cell never ran");
    }

    #[test]
    fn run_cells_handles_empty_and_oversubscribed_lists() {
        let (g, timelines, dests) = grid(33);
        let run = |threads, cells: &[Cell<'_>]| {
            run_cells(
                &g,
                &RunParams::fast(),
                &[Protocol::Bgp],
                threads,
                cells,
                None,
            )
            .unwrap()
        };
        for threads in [0, 1, 8] {
            assert!(run(threads, &[]).is_empty());
        }
        let one = [Cell {
            timeline: &timelines[1],
            dest: dests[0],
            seed: 9,
        }];
        assert_eq!(run(1, &one).len(), 1);
        assert_eq!(run(1, &one), run(16, &one));
    }
}
