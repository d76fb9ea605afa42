//! The unified simulation facade: one entry point for "run protocol P on
//! topology G under timeline T and observe it".
//!
//! Three pieces make the protocol a *pluggable axis* instead of a code
//! path (cf. extensible-criteria routing designs, where the route
//! computation is a parameter of the session, not a fork in the caller):
//!
//! * [`SimBuilder`] — fluent construction
//!   (`Sim::on(&g).protocol(Protocol::Stamp).originate(dest, PREFIX)
//!   .seed(7).params(RunParams::paper()).build()?`) replacing hand-rolled
//!   `Engine::new` wiring. Misuse is a typed [`SimError`], not a panic.
//! * [`Protocol`] — the closed protocol axis: a variant says its names
//!   ([`Protocol::label`], [`Protocol::aliases`]) and how its engine is
//!   built (one private `make_engine` match); the router type says how
//!   many processes it runs and what it clears between phases
//!   (`stamp_bgp::RouterLogic`), and how it forwards
//!   (`stamp_forwarding::DataPlane`). Adding a protocol is those impls, one
//!   `EngineKind` arm and the matches the compiler then reports as
//!   non-exhaustive; every consumer — the campaign runner, the figure
//!   experiments, examples, tests — picks it up through [`Protocol::ALL`].
//! * [`Probe`] — the typed observation API: one callback,
//!   [`Probe::snapshot`]`(at, cause, view)`, hearing one `Baseline`
//!   snapshot per play, one `Batch` snapshot per batch of events that
//!   changed a FIB and one `Final` one at its end, with **static
//!   dispatch**: the forwarding view is built on the stack per
//!   observation (no per-observation `Box<dyn ForwardingView>`), and the
//!   callback is monomorphised per protocol. The scenario events a play
//!   applied are its timeline's resolved schedule, offset by
//!   [`Played::epoch`]. The paper's transient-problem bookkeeping is a
//!   private probe behind [`Sim::measure`], the one way to measure.
//!
//! Determinism: a [`Sim`] owns its engine and path arena; every random
//! stream derives from the builder's seed; probes only *read* engine
//! state. Two sims built from equal `(graph, protocol, origination, seed,
//! params)` tuples therefore produce byte-identical [`InstanceMetrics`] —
//! `tests/determinism.rs` pins golden values across the facade. See
//! DESIGN.md §9.
//!
//! Copying: a [`Sim`] is its own checkpoint. `clone` (also spelled
//! [`Sim::checkpoint`]) forks a session, `clone_from` (behind a protocol
//! check: [`Sim::restore`]) rewinds one in place to another, and both are
//! the engine's one `Clone` impl underneath — they copy what a run can
//! change (routers, scheduler, arena, RNG positions, the live policy
//! regime, the facade's convergence bookkeeping) and share the topology,
//! the jitter table and the classification of the session's reset state
//! (filled by the first [`Sim::measure`] from it) by reference count. A
//! rewind keeps every buffer down to the routers' tables; it allocates
//! only where a buffer is too small for the source, and for the arena's
//! intern index when a play grew it past the source's bucket count.
//! There is no separate checkpoint type (DESIGN.md §12).
//!
//! Steady-state cost: with the flat engine hot path (DESIGN.md §10) the
//! whole drive loop is allocation-free per event — dense session-indexed
//! channels/MRAI below, the engine's reusable router-output scratch, stack
//! views per snapshot here, and a [`TransientTracker`] that keeps its
//! classification across observations and re-examines only the rows the
//! engine's touched feed reports (the view carries the feed; see
//! DESIGN.md §12). The reference benchmark's `bgp.converge_ms.*` probes
//! are the end-to-end gauges of this path.

use crate::params::{InstanceMetrics, RunParams};
use crate::timeline::{Timeline, TimelineError};
use stamp_bgp::engine::{Engine, EngineConfig, RunOutcome, RunStats};
use stamp_bgp::rib::Explanation;
use stamp_bgp::router::BgpRouter;
use stamp_bgp::types::{PrefixId, RootCause};
use stamp_core::{LockStrategy, StampRouter};
use stamp_eventsim::SimTime;
use stamp_forwarding::{
    Classification, EngineView, ForwardingView, ObserverWork, TransientTracker,
};
use stamp_rbgp::{RbgpConfig, RbgpRouter};
use stamp_topology::{AsGraph, AsId};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed construction/run errors — builder misuse never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `build()` without `originate()`: a session needs a destination.
    MissingOrigination,
    /// The origination names an AS outside the topology.
    DestinationOutOfRange { dest: AsId, n_ases: usize },
    /// A played timeline does not resolve against the session's topology.
    Timeline(TimelineError),
    /// A checkpoint from one protocol was restored into a session running
    /// another.
    CheckpointMismatch { expected: Protocol, got: Protocol },
    /// A measured reachability mask is not one flag per AS of the
    /// session's topology.
    MaskLength { got: usize, n_ases: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingOrigination => {
                write!(
                    f,
                    "no origination: call originate(dest, prefix) before build()"
                )
            }
            SimError::DestinationOutOfRange { dest, n_ases } => write!(
                f,
                "destination {dest} is out of range for a topology of {n_ases} ASes"
            ),
            SimError::Timeline(e) => write!(f, "timeline does not resolve: {e}"),
            SimError::CheckpointMismatch { expected, got } => write!(
                f,
                "checkpoint protocol mismatch: session runs {expected}, checkpoint holds {got}"
            ),
            SimError::MaskLength { got, n_ases } => write!(
                f,
                "reachability mask has {got} entries for a topology of {n_ases} ASes"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<TimelineError> for SimError {
    fn from(e: TimelineError) -> SimError {
        SimError::Timeline(e)
    }
}

// ---------------------------------------------------------------------
// The protocol axis
// ---------------------------------------------------------------------

/// Protocols compared by campaigns and the figure experiments. The
/// declaration order is load-bearing: campaign hashes fold `p as u64`, so
/// append variants, never reorder them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Protocol {
    /// The paper's baseline, hence the default.
    #[default]
    Bgp,
    RbgpNoRci,
    Rbgp,
    Stamp,
}

impl Protocol {
    /// All four, in the paper's bar order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Bgp,
        Protocol::RbgpNoRci,
        Protocol::Rbgp,
        Protocol::Stamp,
    ];

    /// Paper's label (also the canonical [`fmt::Display`] form; round-trips
    /// through [`Protocol::from_str`]).
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Bgp => "BGP",
            Protocol::RbgpNoRci => "R-BGP without RCI",
            Protocol::Rbgp => "R-BGP",
            Protocol::Stamp => "STAMP",
        }
    }

    /// Lower-case tokens [`Protocol::from_str`] accepts besides the label.
    /// The first is the canonical one (CLI lists, queryd's `PROTO`).
    pub fn aliases(&self) -> &'static [&'static str] {
        match self {
            Protocol::Bgp => &["bgp"],
            Protocol::RbgpNoRci => &["rbgp-norci", "r-bgp-without-rci"],
            Protocol::Rbgp => &["rbgp", "r-bgp"],
            Protocol::Stamp => &["stamp"],
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`: honour width/alignment specifiers so
        // labels line up in report tables.
        f.pad(self.label())
    }
}

/// Error of [`Protocol::from_str`]: the input matched no label or alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    input: String,
}

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown protocol {:?} (expected one of: {})",
            self.input,
            Protocol::ALL.map(|p| p.aliases()[0]).join(", ")
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for Protocol {
    type Err = ParseProtocolError;

    /// Case-insensitive parse of a paper label ("R-BGP") or a CLI alias
    /// ("rbgp").
    fn from_str(s: &str) -> Result<Protocol, ParseProtocolError> {
        let wanted = s.trim();
        let named = |p: &Protocol| {
            let is = |name: &&str| name.eq_ignore_ascii_case(wanted);
            is(&p.label()) || p.aliases().iter().any(is)
        };
        Protocol::ALL
            .into_iter()
            .find(named)
            .ok_or_else(|| ParseProtocolError {
                input: s.to_string(),
            })
    }
}

/// One engine, protocol erased. The single place the workspace matches on
/// router types; everything below the match is generic over
/// [`stamp_forwarding::DataPlane`].
enum EngineKind {
    Bgp(Engine<BgpRouter>),
    Rbgp(Engine<RbgpRouter>),
    Stamp(Engine<StampRouter>),
}

impl Clone for EngineKind {
    fn clone(&self) -> EngineKind {
        match self {
            EngineKind::Bgp(e) => EngineKind::Bgp(e.clone()),
            EngineKind::Rbgp(e) => EngineKind::Rbgp(e.clone()),
            EngineKind::Stamp(e) => EngineKind::Stamp(e.clone()),
        }
    }

    /// Engines of one kind rewind in place ([`Engine`]'s `clone_from`);
    /// across kinds there is nothing to reuse and the source is cloned.
    // simlint::hot
    fn clone_from(&mut self, source: &EngineKind) {
        match (self, source) {
            (EngineKind::Bgp(e), EngineKind::Bgp(s)) => e.clone_from(s),
            (EngineKind::Rbgp(e), EngineKind::Rbgp(s)) => e.clone_from(s),
            (EngineKind::Stamp(e), EngineKind::Stamp(s)) => e.clone_from(s),
            // simlint::allow(hot-clone, "across engine kinds there is no buffer to rewind into; a scratch engine is always of its baseline's kind")
            (this, source) => *this = source.clone(),
        }
    }
}

/// The scratch engines of one [`BaselineCache`](crate::BaselineCache),
/// between two forks: the free list a warm cell's session borrows its
/// engine from and hands it back to (see [`Sim::restore`]). Shared by the
/// cache and the baselines in it, so a session can return what it
/// borrowed after the cache's own lock — or the cache — is gone.
#[derive(Default)]
pub(crate) struct ScratchEngines(Mutex<Vec<EngineKind>>);

impl ScratchEngines {
    /// A free engine of `like`'s kind (BGP, R-BGP with or without RCI,
    /// STAMP), if there is one.
    fn take_like(&self, like: &EngineKind) -> Option<EngineKind> {
        // simlint::allow(panic, "nothing that can panic runs under this lock")
        let mut free = self.0.lock().expect("the free list is never poisoned");
        let i = free
            .iter()
            .position(|e| std::mem::discriminant(e) == std::mem::discriminant(like))?;
        Some(free.swap_remove(i))
    }

    /// Called from `Drop`: a poisoned list just lets the engine go.
    fn give_back(&self, engine: EngineKind) {
        if let Ok(mut free) = self.0.lock() {
            free.push(engine);
        }
    }

    /// Engines on the list right now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.lock().map_or(0, |free| free.len())
    }
}

/// Run `$body` with `$e` bound to the concrete `&`/`&mut Engine<R>`.
macro_rules! with_engine {
    ($kind:expr, $e:ident => $body:expr) => {
        match $kind {
            EngineKind::Bgp($e) => $body,
            EngineKind::Rbgp($e) => $body,
            EngineKind::Stamp($e) => $body,
        }
    };
}

/// Build one engine: a fresh router per AS, the destination originating
/// the prefix. `seed` feeds protocol-internal choices (STAMP's random Lock)
/// — the engine's own streams come from `cfg`.
fn make_engine(
    p: Protocol,
    g: &AsGraph,
    cfg: EngineConfig,
    dest: AsId,
    prefix: PrefixId,
    seed: u64,
) -> EngineKind {
    let own = |v: AsId| if v == dest { vec![prefix] } else { vec![] };
    match p {
        Protocol::Bgp => {
            EngineKind::Bgp(Engine::new(g.clone(), cfg, |v| BgpRouter::new(v, own(v))))
        }
        Protocol::RbgpNoRci | Protocol::Rbgp => {
            let rcfg = RbgpConfig {
                rci: p == Protocol::Rbgp,
            };
            EngineKind::Rbgp(Engine::new(g.clone(), cfg, |v| {
                RbgpRouter::new(v, own(v), rcfg)
            }))
        }
        Protocol::Stamp => EngineKind::Stamp(Engine::new(g.clone(), cfg, |v| {
            StampRouter::new(v, own(v), LockStrategy::Random { seed })
        })),
    }
}

// ---------------------------------------------------------------------
// The probe API
// ---------------------------------------------------------------------

/// Why a snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCause {
    /// Pre-injection state, once per [`Sim::play`] (control-metric
    /// baselines sample here).
    Baseline,
    /// A batch of simultaneous events that changed a FIB: one per such
    /// batch, while the phase runs.
    Batch,
    /// The quiescent (or cut-off) end state of the phase.
    Final,
}

/// A typed observer of one simulation: it hears data-plane snapshots.
/// Monomorphised per protocol — no `dyn` in the observation hot loop.
pub trait Probe {
    /// One snapshot at `at`: the protocol's forwarding view (concrete type
    /// `V`), built on the stack for this observation (never boxed).
    fn snapshot<V: ForwardingView + ?Sized>(&mut self, at: SimTime, cause: SnapshotCause, view: &V);
}

/// The do-nothing probe (unobserved replays use it).
pub struct NullProbe;

impl Probe for NullProbe {
    fn snapshot<V: ForwardingView + ?Sized>(&mut self, _: SimTime, _: SnapshotCause, _: &V) {}
}

/// The paper's transient-problem bookkeeping as an ordinary probe: feeds
/// batch and final snapshots into a [`TransientTracker`] seeded at the
/// baseline snapshot, and timestamps the last observation that still saw a
/// forwarding problem (the data-plane recovery metric). Built only by
/// [`Sim::measure`].
struct MetricsProbe {
    dest: AsId,
    /// Post-timeline reachability and root causes, until the tracker is
    /// seeded with them.
    reachable: Vec<bool>,
    causes: Vec<RootCause>,
    /// The classification of the baseline state, filled by whoever first
    /// needs it (see [`Sim::measure`]).
    baseline: Arc<OnceLock<Classification>>,
    /// Seeded at the first snapshot, a play's `Baseline`.
    tracker: Option<TransientTracker>,
    /// Last batch observation instant that still saw any loop or
    /// blackhole (`None` = never disrupted).
    last_problem: Option<SimTime>,
}

impl Probe for MetricsProbe {
    fn snapshot<V: ForwardingView + ?Sized>(
        &mut self,
        at: SimTime,
        cause: SnapshotCause,
        view: &V,
    ) {
        // The first snapshot, the play's baseline, seeds the tracker.
        let tracker = self.tracker.get_or_insert_with(|| {
            let baseline = self.baseline.get_or_init(|| Classification::of(view));
            TransientTracker::seeded(
                self.dest,
                std::mem::take(&mut self.reachable),
                baseline,
                view,
                std::mem::take(&mut self.causes),
            )
        });
        match cause {
            SnapshotCause::Baseline => {}
            SnapshotCause::Batch => {
                tracker.observe(view);
                if tracker.last_observation_had_problems {
                    self.last_problem = Some(at);
                }
            }
            // Counted so a non-converged end state shows up in the
            // affected numbers, but not in the recovery timestamp
            // (recovery is measured over the observation window).
            SnapshotCause::Final => tracker.observe(view),
        }
    }
}

// ---------------------------------------------------------------------
// Builder and session
// ---------------------------------------------------------------------

/// Fluent construction of a [`Sim`]. Obtain via [`Sim::on`]; defaults:
/// plain BGP, seed 1, [`RunParams::default`] (the paper's §6.2 knobs —
/// identical engine semantics to `EngineConfig::default()`).
#[derive(Debug, Clone)]
pub struct SimBuilder<'g> {
    g: &'g AsGraph,
    protocol: Protocol,
    originate: Option<(AsId, PrefixId)>,
    seed: u64,
    params: RunParams,
}

impl<'g> SimBuilder<'g> {
    /// Which protocol runs (default: [`Protocol::Bgp`]).
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.protocol = p;
        self
    }

    /// The destination AS and the prefix it originates. Required.
    pub fn originate(mut self, dest: AsId, prefix: PrefixId) -> Self {
        self.originate = Some((dest, prefix));
        self
    }

    /// Master seed: drives the engine's delay/MRAI/loss streams and the
    /// protocol's internal choices (STAMP's random Lock).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Engine and measurement knobs (see [`RunParams`]).
    pub fn params(mut self, params: RunParams) -> Self {
        self.params = params;
        self
    }

    /// Shorthand for `.params(RunParams::fast())` — the fixed-delay,
    /// MRAI-off configuration unit tests use.
    pub fn fast(self) -> Self {
        let p = RunParams::fast();
        self.params(p)
    }

    /// Validate and construct the session. Typed errors, no panics:
    /// [`SimError::MissingOrigination`] without an `originate()` call,
    /// [`SimError::DestinationOutOfRange`] when the destination is not in
    /// the topology.
    pub fn build(self) -> Result<Sim, SimError> {
        let sim = self.build_deferred()?;
        sim.engine();
        Ok(sim)
    }

    /// [`SimBuilder::build`] minus the engine: validated, and the engine is
    /// built on first use — from the same `(g, protocol, dest, prefix,
    /// seed, params)`, and every random stream derives from the seed, so
    /// when it is built changes nothing. For the warm cell, which is
    /// restored from a cached baseline before anything else and so never
    /// builds one ([`Sim::restore`]).
    pub(crate) fn build_deferred(self) -> Result<Sim, SimError> {
        let (dest, prefix) = self.originate.ok_or(SimError::MissingOrigination)?;
        if dest.index() >= self.g.n() {
            return Err(SimError::DestinationOutOfRange {
                dest,
                n_ases: self.g.n(),
            });
        }
        Ok(Sim {
            protocol: self.protocol,
            dest,
            prefix,
            params: self.params,
            g: self.g.clone(),
            seed: self.seed,
            engine: OnceLock::new(),
            converged: false,
            updates_initial: 0,
            outcome: RunOutcome::Converged,
            observer_work: ObserverWork::default(),
            classified: Arc::default(),
            scratch: None,
            lease: None,
        })
    }
}

/// One simulation session: a protocol running on a topology towards one
/// originated prefix. Owns its engine (and path arena); drive it with
/// [`Sim::converge`] / [`Sim::play`] / [`Sim::measure`], observe it with a
/// [`Probe`], and reach the concrete engine through the typed accessors
/// ([`Sim::bgp`], [`Sim::rbgp`], [`Sim::stamp`]) when protocol-specific
/// state matters.
///
/// A session is its own checkpoint: `clone` (= [`Sim::checkpoint`]) forks
/// it and `clone_from` (behind a protocol check, [`Sim::restore`]) rewinds
/// it in place to another session — of any destination, params or
/// topology. Either copy replays bit-identically to the session it was
/// taken from, and shares that session's topology instead of copying it.
/// Warm-start a grid by converging once and restoring a fresh session per
/// timeline.
///
/// A session that is restored from a cached baseline before it has run
/// does not rewind into an engine of its own: it borrows a scratch engine
/// from the cache the baseline sits in and hands it back when dropped
/// ([`Sim::restore`]).
pub struct Sim {
    protocol: Protocol,
    dest: AsId,
    prefix: PrefixId,
    params: RunParams,
    /// The topology and master seed the engine is built from.
    g: AsGraph,
    seed: u64,
    /// Empty only between [`SimBuilder::build_deferred`] and first use.
    engine: OnceLock<EngineKind>,
    converged: bool,
    updates_initial: u64,
    outcome: RunOutcome,
    observer_work: ObserverWork,
    /// The classification of this state after
    /// [`Sim::reset_measurement`], filled by the first [`Sim::measure`]
    /// that needs it. Every copy of the session shares it, so the first
    /// fork of a baseline classifies it and every later fork copies that;
    /// whatever advances the engine starts a new, empty one.
    classified: Arc<OnceLock<Classification>>,
    /// On a baseline held by a [`BaselineCache`](crate::BaselineCache): that
    /// cache's free list, where sessions restored from this baseline find
    /// scratch engines.
    scratch: Option<Arc<ScratchEngines>>,
    /// On a session whose engine is borrowed: the free list it goes back
    /// to on drop.
    lease: Option<Arc<ScratchEngines>>,
}

impl Drop for Sim {
    fn drop(&mut self) {
        if let (Some(home), Some(engine)) = (self.lease.take(), self.engine.take()) {
            home.give_back(engine);
        }
    }
}

/// The one way to copy a session. `clone_from` adopts everything —
/// protocol, destination, prefix, params, topology, seed, the engine
/// ([`EngineKind::clone_from`]: in place when both sides have one of the
/// same kind), the convergence bookkeeping and the shared baseline
/// classification — so afterwards this session *is* `source` and nothing
/// of its own past survives. Like the engine's
/// and the routers' impls it destructures the source without `..`: a new
/// field does not compile until a copy decision is written here. What is
/// not state is not copied: a copy of a cached baseline is not in the
/// cache (`scratch`), and who owns an engine does not change with what
/// the engine holds (`lease`; a clone owns its engine outright).
impl Clone for Sim {
    fn clone(&self) -> Sim {
        let Sim {
            protocol,
            dest,
            prefix,
            params,
            g,
            seed,
            engine,
            converged,
            updates_initial,
            outcome,
            observer_work,
            classified,
            scratch: _,
            lease: _,
        } = self;
        Sim {
            protocol: *protocol,
            dest: *dest,
            prefix: *prefix,
            params: params.clone(),
            g: g.clone(),
            seed: *seed,
            engine: engine.clone(),
            converged: *converged,
            updates_initial: *updates_initial,
            outcome: *outcome,
            observer_work: *observer_work,
            classified: Arc::clone(classified),
            scratch: None,
            lease: None,
        }
    }

    // simlint::hot
    fn clone_from(&mut self, source: &Sim) {
        let Sim {
            protocol,
            dest,
            prefix,
            params,
            g,
            seed,
            engine,
            converged,
            updates_initial,
            outcome,
            observer_work,
            classified,
            scratch: _,
            lease: _,
        } = source;
        self.protocol = *protocol;
        self.dest = *dest;
        self.prefix = *prefix;
        self.params.clone_from(params);
        self.g.clone_from(g);
        self.seed = *seed;
        match (self.engine.get_mut(), engine.get()) {
            (Some(mine), Some(theirs)) => mine.clone_from(theirs),
            // simlint::allow(hot-clone, "no engine on one side: nothing to rewind in place")
            _ => self.engine = engine.clone(),
        }
        self.converged = *converged;
        self.updates_initial = *updates_initial;
        self.outcome = *outcome;
        self.observer_work = *observer_work;
        self.classified.clone_from(classified);
    }
}

impl Sim {
    /// Start building a session on `g`.
    pub fn on(g: &AsGraph) -> SimBuilder<'_> {
        SimBuilder {
            g,
            protocol: Protocol::Bgp,
            originate: None,
            seed: 1,
            params: RunParams::default(),
        }
    }

    /// The protocol this session runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The destination AS.
    pub fn dest(&self) -> AsId {
        self.dest
    }

    /// The originated prefix.
    pub fn prefix(&self) -> PrefixId {
        self.prefix
    }

    /// The master seed the session was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The session's knobs.
    pub fn params(&self) -> &RunParams {
        &self.params
    }

    /// The topology.
    pub fn topology(&self) -> &AsGraph {
        &self.g
    }

    /// The engine, built now if this session has not needed one yet.
    fn engine(&self) -> &EngineKind {
        self.engine.get_or_init(|| {
            let cfg = self.params.engine_config(self.seed);
            make_engine(
                self.protocol,
                &self.g,
                cfg,
                self.dest,
                self.prefix,
                self.seed,
            )
        })
    }

    fn engine_mut(&mut self) -> &mut EngineKind {
        self.engine();
        self.engine
            .get_mut()
            // simlint::allow(panic, "initialised on the line above")
            .expect("the engine was just built")
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        with_engine!(self.engine(), e => e.now())
    }

    /// Accumulated engine statistics.
    pub fn stats(&self) -> RunStats {
        with_engine!(self.engine(), e => *e.stats())
    }

    /// Is the session between two adjacent ASes currently up?
    pub fn session_up(&self, a: AsId, b: AsId) -> bool {
        with_engine!(self.engine(), e => e.session_up(a, b))
    }

    /// Distinct AS paths interned by the engine's arena so far.
    pub fn interned_paths(&self) -> usize {
        with_engine!(self.engine(), e => e.paths().node_count())
    }

    /// Updates (announcements + withdrawals) sent during initial
    /// convergence; 0 before [`Sim::converge`].
    pub fn updates_initial(&self) -> u64 {
        self.updates_initial
    }

    /// Has this session completed initial convergence (via
    /// [`Sim::converge`] or by restoring a converged checkpoint)? Resident
    /// baselines — queryd's `SHOW BASELINES` — assert this.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The session's composite run outcome: `Converged` until some phase
    /// fails to quiesce, then sticky at the *first* non-converged outcome
    /// (a later phase cannot un-diverge a session — the watchdog verdict
    /// is about this timeline's history, not the latest instant).
    pub fn outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// What observing cost the latest [`Sim::measure`], in exact counts
    /// (all zero before the first). A perf ledger entry, not simulation
    /// state; a copy carries its source's.
    pub fn observer_work(&self) -> ObserverWork {
        self.observer_work
    }

    fn record_outcome(&mut self, o: RunOutcome) {
        if self.outcome == RunOutcome::Converged {
            self.outcome = o;
        }
    }

    /// Run a protocol-erased closure over the current forwarding view
    /// (built on the stack; ad-hoc inspection outside the probe path).
    pub fn with_view<T>(&self, f: impl FnOnce(&dyn ForwardingView) -> T) -> T {
        let prefix = self.prefix;
        with_engine!(self.engine(), engine => f(&EngineView { engine, prefix }))
    }

    /// Why `v` selects what it selects towards this session's prefix: one
    /// explanation per process, in process order
    /// ([`Engine::explain`]).
    pub fn explain(&self, v: AsId) -> Vec<Explanation> {
        let prefix = self.prefix;
        with_engine!(self.engine(), e => e.explain(v, prefix))
    }

    /// The concrete engine when this session runs plain BGP.
    pub fn bgp(&self) -> Option<&Engine<BgpRouter>> {
        match self.engine() {
            EngineKind::Bgp(e) => Some(e),
            _ => None,
        }
    }

    /// The concrete engine when this session runs R-BGP (with or without
    /// RCI).
    pub fn rbgp(&self) -> Option<&Engine<RbgpRouter>> {
        match self.engine() {
            EngineKind::Rbgp(e) => Some(e),
            _ => None,
        }
    }

    /// The concrete engine when this session runs STAMP.
    pub fn stamp(&self) -> Option<&Engine<StampRouter>> {
        match self.engine() {
            EngineKind::Stamp(e) => Some(e),
            _ => None,
        }
    }

    /// Cold-start convergence: originations go out, the network runs to
    /// quiescence (bounded by [`RunParams::phase_deadline`]), unobserved.
    /// Idempotent — a second call is a no-op. Records
    /// [`Sim::updates_initial`].
    pub fn converge(&mut self) -> RunStats {
        if !self.converged {
            self.converged = true;
            self.classified = Arc::default();
            let deadline = Some(SimTime::ZERO + self.params.phase_deadline);
            let outcome = with_engine!(self.engine_mut(), e => {
                e.start();
                e.run_until_quiescent(deadline, |_, _| {})
            });
            self.record_outcome(outcome);
            let s = self.stats();
            self.updates_initial = s.announcements_sent + s.withdrawals_sent;
        }
        self.stats()
    }

    /// Clear measurement state between phases (each router's
    /// `RouterLogic::reset_measurement`, through
    /// [`Engine::reset_measurement`]; STAMP clears its instability flags
    /// so pre-failure churn does not count against the event).
    /// Idempotent: a reset session is the state [`Sim::measure`]
    /// classifies, reset again or not.
    pub fn reset_measurement(&mut self) {
        with_engine!(self.engine_mut(), e => e.reset_measurement())
    }

    /// Inject `timeline` at an epoch [`RunParams::inject_delay`] after the
    /// current instant and run to quiescence under `probe` (converging
    /// first if [`Sim::converge`] has not run). The cadence is the
    /// determinism-pinned contract: one `Baseline` snapshot before
    /// anything is applied, one `Batch` snapshot at every batch of
    /// simultaneous events that changed a FIB, and one `Final` snapshot at
    /// the end. The run is bounded by the timeline's settle point plus
    /// [`RunParams::phase_deadline`].
    pub fn play<P: Probe>(
        &mut self,
        timeline: &Timeline,
        probe: &mut P,
    ) -> Result<Played, SimError> {
        // Validate before converging: an unresolvable timeline fails fast
        // and leaves the session untouched.
        let schedule = timeline.resolve(self.topology())?;
        self.converge();
        self.classified = Arc::default();
        let epoch = self.now() + self.params.inject_delay;
        let settle = epoch + timeline.end();
        let deadline = Some(settle + self.params.phase_deadline);
        let prefix = self.prefix;
        let outcome = with_engine!(self.engine_mut(), e => {
            for (at, ev) in schedule {
                e.inject_at(epoch + at, ev);
            }
            probe.snapshot(e.now(), SnapshotCause::Baseline, &EngineView { engine: e, prefix });
            let outcome = e.run_until_quiescent(deadline, |engine, t| {
                probe.snapshot(t, SnapshotCause::Batch, &EngineView { engine, prefix });
            });
            probe.snapshot(e.now(), SnapshotCause::Final, &EngineView { engine: e, prefix });
            outcome
        });
        self.record_outcome(outcome);
        Ok(Played {
            epoch,
            settle,
            outcome,
        })
    }

    /// The one-stop paper measurement: converge, reset measurement state,
    /// play `timeline` under the transient-problem probe, and assemble
    /// [`InstanceMetrics`]. `reachable[v]` must hold each AS's
    /// post-timeline reachability (see [`Timeline::reachable_after`]);
    /// a mask of another length is [`SimError::MaskLength`].
    ///
    /// The probe's tracker starts from the session's classification of
    /// its reset state, which the first measurement from that state
    /// computes at the baseline snapshot and every copy of the session
    /// shares: a fork of a cached baseline observes only what its
    /// timeline touches, from the first tick on.
    ///
    /// `updates_failure` counts the updates sent by *this* call (on a
    /// fresh session: everything after initial convergence), so measuring
    /// several timelines on one session does not fold earlier replays
    /// into later results.
    pub fn measure(
        &mut self,
        timeline: &Timeline,
        reachable: &[bool],
    ) -> Result<InstanceMetrics, SimError> {
        // Refuse before converging, as `play` will again after it.
        timeline.resolve(self.topology())?;
        if reachable.len() != self.g.n() {
            return Err(SimError::MaskLength {
                got: reachable.len(),
                n_ases: self.g.n(),
            });
        }
        self.converge();
        self.reset_measurement();
        let sent_before = {
            let s = self.stats();
            s.announcements_sent + s.withdrawals_sent
        };
        let mut probe = MetricsProbe {
            dest: self.dest,
            reachable: reachable.to_vec(),
            causes: timeline.root_causes(),
            baseline: Arc::clone(&self.classified),
            tracker: None,
            last_problem: None,
        };
        let played = self.play(timeline, &mut probe)?;
        // `play` snapshots its baseline before anything else, so the
        // tracker exists; an empty answer is what observing nothing is.
        let tracker = probe.tracker.as_ref();
        let count = |f: fn(&TransientTracker) -> usize| tracker.map_or(0, f);
        self.observer_work = tracker.map_or_else(ObserverWork::default, TransientTracker::work);
        let s = self.stats();
        Ok(InstanceMetrics {
            outcome: self.outcome,
            affected: count(TransientTracker::affected_count),
            affected_loops: count(TransientTracker::loop_count),
            affected_blackholes: count(TransientTracker::blackhole_count),
            control_affected: count(TransientTracker::control_affected_count),
            updates_initial: self.updates_initial,
            updates_failure: s.announcements_sent + s.withdrawals_sent - sent_before,
            convergence_delay_s: s.last_fib_change.since(played.settle).as_secs_f64(),
            data_recovery_s: probe
                .last_problem
                .map(|t| t.since(played.settle).as_secs_f64())
                .unwrap_or(0.0),
            interned_paths: self.interned_paths(),
            unreachable: reachable.iter().filter(|r| !**r).count(),
        })
    }

    /// A copy of the whole session, to rewind to ([`Sim::restore`]) or to
    /// run on its own — `clone` under the name the warm-start callers use.
    /// Typical use: converge once, checkpoint, then restore (or clone the
    /// checkpoint) before each timeline of a grid.
    pub fn checkpoint(&self) -> Sim {
        self.clone()
    }

    /// Rewind this session to `ck` in place: `clone_from` behind a
    /// protocol check. The copy is exact. Everything is overwritten — the
    /// engine's run state down to the live policy regime, the facade's
    /// convergence bookkeeping, and the destination, prefix and params
    /// `ck` was built with, per-phase knobs included — so replay after a
    /// restore is bit-identical to replay from the instant `ck` was taken,
    /// whatever this session ran or was built with before (DESIGN.md §12
    /// has the argument). The engine's flat tables, scheduler heap and
    /// path arena keep their buffers, and so do the routers' RIBs and
    /// books (the arena's intern index is reallocated when a play grew it
    /// past `ck`'s bucket count). `ck` must be a session of the same protocol
    /// (typed error otherwise; `clone_from` itself has no such limit).
    ///
    /// A session that has not run yet has no state worth rewinding into —
    /// its engine, if built at all, holds 2000 empty routers whose every
    /// table the rewind would have to allocate. Restored from a baseline a
    /// [`BaselineCache`](crate::BaselineCache) holds, it gives that engine
    /// up and takes a scratch engine of the baseline's kind off the
    /// cache's free list (a clone of the baseline's when none is free),
    /// rewinds that, and hands it back to the list when the session is
    /// dropped. That is the warm cell: a deferred build, restore, run,
    /// drop — with no engine built, cloned or freed.
    pub fn restore(&mut self, ck: &Sim) -> Result<(), SimError> {
        if self.protocol != ck.protocol {
            return Err(SimError::CheckpointMismatch {
                expected: self.protocol,
                got: ck.protocol,
            });
        }
        if !self.converged && self.lease.is_none() {
            if let (Some(home), Some(like)) = (&ck.scratch, ck.engine.get()) {
                // Taken or, with none free, cloned by `clone_from` below
                // (the one place a cached baseline's engine is cloned to
                // fork it): either way the engine is on loan from here on.
                // Every loan first takes a free engine of its kind, so the
                // list never holds more of a kind than sessions held at
                // one instant.
                self.engine = home
                    .take_like(like)
                    .map_or_else(OnceLock::new, OnceLock::from);
                self.lease = Some(Arc::clone(home));
            }
        }
        self.clone_from(ck);
        Ok(())
    }

    /// Mark this session a baseline of the cache whose free list `home`
    /// is: sessions restored from it borrow their engines there.
    pub(crate) fn share_scratch(&mut self, home: Arc<ScratchEngines>) {
        self.scratch = Some(home);
    }
}

/// Where a [`Sim::play`] landed on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Played {
    /// The injection epoch (timeline offsets are absolute from here).
    pub epoch: SimTime,
    /// The settle point: the timeline's last event. Recovery metrics
    /// measure from here.
    pub settle: SimTime,
    /// How this phase's run ended: quiescent, caught cycling by the
    /// convergence watchdog, or out of budget.
    pub outcome: RunOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PREFIX;
    use crate::timeline::{flap_train, single_link_failure};
    use stamp_eventsim::SimDuration;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_topology::GraphBuilder;

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

    #[test]
    fn builder_without_origination_is_a_typed_error() {
        let g = diamond();
        assert_eq!(
            Sim::on(&g).protocol(Protocol::Stamp).build().err(),
            Some(SimError::MissingOrigination)
        );
    }

    #[test]
    fn builder_rejects_out_of_range_destination() {
        let g = diamond();
        let err = Sim::on(&g).originate(AsId(99), PREFIX).build().err();
        assert_eq!(
            err,
            Some(SimError::DestinationOutOfRange {
                dest: AsId(99),
                n_ases: 5
            })
        );
        // The error carries a readable message.
        assert!(err.unwrap().to_string().contains("out of range"));
    }

    #[test]
    fn session_up_of_an_as_outside_the_topology_is_false() {
        // Like every other adjacency query: no such AS, no such session.
        let g = diamond();
        let sim = Sim::on(&g).originate(AsId(4), PREFIX).build().unwrap();
        assert!(sim.session_up(AsId(4), AsId(2)));
        assert!(!sim.session_up(AsId(100_000), AsId(2)));
        assert!(!sim.session_up(AsId(4), AsId(100_000)));
    }

    #[test]
    fn default_params_match_engine_config_default_semantics() {
        // `build()` with defaults must configure the engine exactly like
        // `EngineConfig::default()` — same seed, same session model.
        let from_builder = RunParams::default().engine_config(1);
        let reference = EngineConfig::default();
        assert_eq!(from_builder.seed, reference.seed);
        assert_eq!(from_builder.sessions, reference.sessions);
    }

    #[test]
    fn no_protocol_name_parses_two_ways() {
        // No name (label or alias) of one protocol case-insensitively
        // collides with a name of a *different* one — a collision would make
        // `Protocol::from_str` ambiguous. Within a protocol, "BGP"/"bgp"
        // coexisting is fine: both parse to the same variant.
        let names = |p: Protocol| {
            let mut v = vec![p.label()];
            v.extend(p.aliases());
            v
        };
        for (i, a) in Protocol::ALL.into_iter().enumerate() {
            assert!(!a.aliases().is_empty());
            assert!(names(a).iter().all(|n| !n.is_empty()));
            for b in Protocol::ALL.into_iter().skip(i + 1) {
                for na in names(a) {
                    for nb in names(b) {
                        assert!(
                            !na.eq_ignore_ascii_case(nb),
                            "{na} is claimed by both {a} and {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_protocol_converges_through_the_facade() {
        let g = diamond();
        for p in Protocol::ALL {
            let mut sim = Sim::on(&g)
                .protocol(p)
                .originate(AsId(4), PREFIX)
                .seed(7)
                .fast()
                .build()
                .unwrap();
            sim.converge();
            // Second converge is a no-op (idempotent), not a panic.
            let s = sim.converge();
            assert!(s.announcements_sent > 0, "{}", p.label());
            assert_eq!(
                sim.updates_initial(),
                s.announcements_sent + s.withdrawals_sent
            );
            // The erased view delivers from every AS after convergence.
            let delivered = sim.with_view(|v| {
                stamp_forwarding::classify_all(v)
                    .iter()
                    .all(|o| *o == stamp_forwarding::Outcome::Delivered)
            });
            assert!(delivered, "{}", p.label());
            // Typed access matches the protocol.
            match p {
                Protocol::Bgp => assert!(sim.bgp().is_some()),
                Protocol::Rbgp | Protocol::RbgpNoRci => assert!(sim.rbgp().is_some()),
                Protocol::Stamp => assert!(sim.stamp().is_some()),
            }
        }
    }

    #[test]
    fn probe_receives_the_documented_snapshot_cadence() {
        /// The instant of every snapshot, by cause, and the latest instant
        /// seen across all causes.
        #[derive(Default)]
        struct Recorder {
            baseline: Vec<SimTime>,
            batches: Vec<SimTime>,
            finals: Vec<SimTime>,
            last_at: SimTime,
        }
        impl Probe for Recorder {
            fn snapshot<V: ForwardingView + ?Sized>(
                &mut self,
                at: SimTime,
                cause: SnapshotCause,
                view: &V,
            ) {
                assert!(view.n() > 0);
                assert!(at >= self.last_at, "time went backwards");
                self.last_at = at;
                match cause {
                    SnapshotCause::Baseline => self.baseline.push(at),
                    SnapshotCause::Batch => self.batches.push(at),
                    SnapshotCause::Final => self.finals.push(at),
                }
            }
        }
        let g = diamond();
        let mut sim = Sim::on(&g)
            .protocol(Protocol::Stamp)
            .originate(AsId(4), PREFIX)
            .seed(3)
            .fast()
            .build()
            .unwrap();
        sim.converge();
        let p = g.providers(AsId(4))[0];
        let t = Timeline::from_events(
            "flap",
            flap_train(
                AsId(4),
                p,
                SimDuration::ZERO,
                SimDuration::from_secs(2),
                0.5,
                2,
            ),
        );
        // The reference: the same schedule on a copy, driven by hand,
        // noting every instant at which the engine reports a batch that
        // changed a FIB.
        let mut twin = sim.clone();
        let start = twin.now();
        let epoch = start + twin.params.inject_delay;
        let schedule = t.resolve(&g).unwrap();
        let changed = with_engine!(twin.engine_mut(), e => {
            for (at, ev) in schedule {
                e.inject_at(epoch + at, ev);
            }
            let mut changed = Vec::new();
            e.run_until_quiescent(None, |_, at| changed.push(at));
            changed
        });
        let mut rec = Recorder::default();
        sim.play(&t, &mut rec).unwrap();
        assert_eq!(
            rec.baseline,
            [start],
            "one baseline per play, before injection"
        );
        assert!(
            changed.len() > 1,
            "a flap train changes FIBs more than once"
        );
        assert_eq!(
            rec.batches, changed,
            "one batch snapshot per FIB-changing batch"
        );
        assert_eq!(rec.finals, [sim.now()], "one final per phase, at its end");
    }

    #[test]
    fn play_reports_unresolvable_timelines_as_typed_errors() {
        let g = diamond();
        let mut sim = Sim::on(&g)
            .originate(AsId(4), PREFIX)
            .fast()
            .build()
            .unwrap();
        let t = Timeline::from_events(
            "bogus",
            vec![crate::timeline::TimelineEvent {
                at: SimDuration::ZERO,
                ev: crate::timeline::NetEvent::LinkDown(AsId(0), AsId(4)),
            }],
        );
        match sim.play(&t, &mut NullProbe) {
            Err(SimError::Timeline(_)) => {}
            other => panic!("expected a timeline error, got {other:?}"),
        }
        // An offset that would wrap `epoch + at` is refused the same way,
        // by `play` and by `measure`, before the session even converges.
        let at = SimDuration::from_micros(u64::MAX);
        let ev = crate::timeline::NetEvent::LinkDown(AsId(3), AsId(4));
        let wraps = Timeline::from_events("wraps", vec![crate::timeline::TimelineEvent { at, ev }]);
        let refused = Err(SimError::Timeline(TimelineError::OffsetTooLarge(at)));
        assert_eq!(sim.play(&wraps, &mut NullProbe).map(|_| ()), refused);
        assert_eq!(sim.measure(&wraps, &[true; 5]).map(|_| ()), refused);
        assert!(!sim.converged(), "a refused timeline ran nothing");
    }

    #[test]
    fn measure_refuses_a_mask_of_another_length() {
        // Refused next to the timeline check, before anything runs — not
        // at the tracker's first observation, after converging.
        let g = diamond();
        let mut sim = Sim::on(&g)
            .originate(AsId(4), PREFIX)
            .fast()
            .build()
            .unwrap();
        let t = Timeline::from_events("down", single_link_failure(AsId(4), AsId(2)));
        for got in [0, 4, 6] {
            assert_eq!(
                sim.measure(&t, &vec![true; got]).map(|_| ()),
                Err(SimError::MaskLength { got, n_ases: 5 })
            );
        }
        assert!(!sim.converged(), "a refused mask ran nothing");
        assert!(sim.measure(&t, &[true; 5]).is_ok());
    }

    #[test]
    fn the_first_fork_classifies_a_baseline_and_later_forks_share_it() {
        let g = generate(&GenConfig::small(11)).unwrap();
        let dest = crate::canned::destination_candidates(&g)[0];
        let t = Timeline::from_events("down", single_link_failure(dest, g.providers(dest)[0]));
        let reachable = t.reachable_after(&g, dest).unwrap();
        for proto in Protocol::ALL {
            let mut sim = Sim::on(&g)
                .protocol(proto)
                .originate(dest, PREFIX)
                .seed(5)
                .fast()
                .build()
                .unwrap();
            sim.converge();
            let baseline = sim.checkpoint();
            assert!(baseline.classified.get().is_none(), "filled on demand");
            let cold = sim.measure(&t, &reachable).unwrap();
            let memo = baseline.classified.get().expect("the first fork fills it");
            assert!(
                sim.classified.get().is_none(),
                "{proto}: a session that played is no longer its baseline"
            );
            let mut warm = Sim::on(&g)
                .protocol(proto)
                .originate(dest, PREFIX)
                .build()
                .unwrap();
            warm.restore(&baseline).unwrap();
            assert_eq!(warm.measure(&t, &reachable).unwrap(), cold, "{proto}");
            assert_eq!(warm.observer_work(), sim.observer_work(), "{proto}");
            assert!(std::ptr::eq(memo, baseline.classified.get().unwrap()));
        }
    }

    #[test]
    fn measure_on_a_recovering_timeline_reports_zero_residue() {
        // A fail+recover flap on a generated topology: the network ends
        // fully recovered, so `reachable` is all-true and affected counts
        // stay bounded by the population.
        let g = generate(&GenConfig::small(11)).unwrap();
        let dest = crate::canned::destination_candidates(&g)[0];
        let p = g.providers(dest)[0];
        let t = Timeline::from_events(
            "flap",
            flap_train(
                dest,
                p,
                SimDuration::ZERO,
                SimDuration::from_secs(2),
                0.5,
                1,
            ),
        );
        let reachable = vec![true; g.n()];
        for proto in [Protocol::Bgp, Protocol::Stamp] {
            let mut sim = Sim::on(&g)
                .protocol(proto)
                .originate(dest, PREFIX)
                .seed(5)
                .fast()
                .build()
                .unwrap();
            let m = sim.measure(&t, &reachable).unwrap();
            assert!(m.affected < g.n(), "{}", proto.label());
            assert!(m.interned_paths > 0, "{}", proto.label());
            assert_eq!(m.updates_initial, sim.updates_initial());
        }
    }
}
