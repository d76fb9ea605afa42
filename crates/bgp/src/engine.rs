//! The event-driven simulation engine.
//!
//! Reproduces the paper's simulation model (§6.2): message-level BGP
//! dynamics with processing + transmission delays uniform in [10 ms, 20 ms],
//! peer-based MRAI timers of 30 s × U[0.75, 1.0] (sampled once per directed
//! session), FIFO delivery per session, and injected routing events (link
//! failures, link recoveries, node failures).
//!
//! The engine is generic over [`RouterLogic`], so the same scenario code
//! drives plain BGP, R-BGP and STAMP networks; with equal master seeds the
//! three protocols observe byte-identical topologies, failure choices and
//! delay sequences.

use crate::feed::{FeedCursor, TouchFeed, Touched};
use crate::patharena::PathArena;
use crate::rib::{row_mut, Explanation};
use crate::router::{OutMsg, RouterCtx, RouterLogic, SessionView, StateFingerprint};
use crate::types::{CauseInfo, PrefixId, ProcId, RootCause, Route, UpdateKind, UpdateMsg};
use stamp_eventsim::rng::{tags, Rng};
use stamp_eventsim::{
    clone_in_place, rng_stream, DelayModel, FifoChannel, LossModel, Scheduler, SimDuration,
    SimTime, Ticket,
};
use stamp_policy::CompiledRegime;
use stamp_topology::{AsGraph, AsId, LinkId, SessEntry, SessId};
use std::sync::Arc;

/// The most routing processes any protocol runs per AS (STAMP's red +
/// blue): the bound of a speaker's per-prefix selection array. An engine
/// sizes its own tables by its protocol's [`RouterLogic::PROCS`].
pub const N_PROCS: usize = 2;

/// A routing event injected into a running simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// Fail one link (a route withdrawal event for paths over it).
    FailLink(LinkId),
    /// Recover one link (a route addition event).
    RecoverLink(LinkId),
    /// Fail an AS entirely: every incident link goes down at once — the
    /// paper's "single node failure … an AS withdrawing a route from all
    /// its neighbors". The failing router itself also tears down its
    /// per-session state (a node failure is a router restart: it reboots
    /// cold, not with its pre-failure RIB).
    FailNode(AsId),
    /// Recover a failed AS: every incident link whose *link* is still up
    /// (and whose far endpoint is alive) re-establishes its session, and
    /// both endpoints re-announce exactly as on link recovery. Links that
    /// were failed individually — before or during the node's downtime —
    /// stay down until their own [`ScenarioEvent::RecoverLink`].
    RecoverNode(AsId),
    /// Prefix hijack: `attacker` announces `prefix` to every live
    /// neighbour on process 0 as if it originated it. `forged_origin =
    /// None` is an *origin* hijack (path `[attacker]`); `Some(victim)` is
    /// the stealthier *path-prepend* (type-2) hijack announcing
    /// `[attacker, victim]` — the forged edge keeps the true origin on the
    /// path, defeating origin validation. One-shot and unrepentant: the
    /// forged routes sit in neighbours' RIBs until the attacker's honest
    /// machinery replaces them (same `(prefix, proc, neighbour)` RIB slot)
    /// or the sessions reset. Injected on process 0 only — STAMP's second
    /// process is untouched, which is exactly the paper's redundancy
    /// argument under control-plane compromise.
    Hijack {
        attacker: AsId,
        prefix: PrefixId,
        forged_origin: Option<AsId>,
    },
    /// Route leak: `leaker` re-exports its currently selected route for
    /// `prefix` to *every* live neighbour except the one it learned the
    /// route from, ignoring the policy regime's export gate — the classic
    /// Gao–Rexford violation (provider route leaked to other providers and
    /// peers). A no-op if the leaker holds no learned route. The route is
    /// process 0's: under STAMP the red process, the paper's "ordinary
    /// BGP" side, the one a misconfigured exporter would re-advertise
    /// from.
    Leak { leaker: AsId, prefix: PrefixId },
    /// Mid-run policy misconfiguration: replace the engine's compiled
    /// regime with `PolicyRegime::named()[index]` (see
    /// `stamp_policy::PolicyRegime::index_of`; an out-of-range index is a
    /// no-op). Affects every import/export decision from the next
    /// delivered message on; nothing is re-evaluated retroactively. The
    /// live regime is run state like any other: a copy of the engine
    /// carries it, and copying a pre-flip engine over this one rewinds it.
    FlipPolicy(u16),
}

/// Typed result of a `run_*` call: how the run ended, not just that it
/// ended. `Converged` is the only outcome that means "the network is
/// quiescent"; the other two are the watchdog turning what used to be an
/// infinite loop (or a silent deadline truncation) into data. Every
/// outcome is folded into campaign aggregate hashes as a tag, `Diverged`
/// with its period and churn — see `report_hash` in the workload crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RunOutcome {
    /// The scheduler drained: every router is stable and silent.
    #[default]
    Converged,
    /// The oscillation detector fired: the global best-route fingerprint
    /// repeated at unchanged liveness with routing churn in between — a
    /// policy dispute wheel (BAD GADGET) or equivalent livelock.
    Diverged {
        /// Time between the two matching fingerprint samples: an upper
        /// bound on (and multiple of) the true oscillation period.
        period: SimDuration,
        /// Events processed between the matching samples — how hard the
        /// network is spinning per cycle.
        churn: u64,
    },
    /// The run hit its deadline or per-run event budget before either
    /// quiescence or a detected cycle.
    BudgetExhausted,
}

impl RunOutcome {
    /// Did the run actually reach a stable state?
    pub fn is_converged(&self) -> bool {
        matches!(self, RunOutcome::Converged)
    }

    /// Did the watchdog detect an oscillation?
    pub fn is_diverged(&self) -> bool {
        matches!(self, RunOutcome::Diverged { .. })
    }
}

/// Convergence-watchdog tuning (see DESIGN.md §15). The defaults are
/// conservative: sampling starts only after [`WatchdogConfig::arm_after`]
/// of continuous churn with no scenario event — far beyond any observed
/// default-regime convergence tail — so converging runs never get
/// fingerprinted at all, and the detector provably cannot perturb them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Churn duration (no scenario event, scheduler never empty) before the
    /// detector arms and takes its first fingerprint sample. Every scenario
    /// event resets the window.
    pub arm_after: SimDuration,
    /// Interval between fingerprint samples once armed.
    pub sample_every: SimDuration,
    /// Hard per-run event budget; exceeding it ends the run with
    /// [`RunOutcome::BudgetExhausted`]. Backstop for divergent dynamics
    /// whose state never exactly repeats (or that defeat fingerprinting).
    pub max_events: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            arm_after: SimDuration::from_secs(600),
            sample_every: SimDuration::from_secs(30),
            max_events: 200_000_000,
        }
    }
}

/// The session model: what every BGP session between two ASes does to a
/// message, whatever protocol speaks over it. The one place the paper's
/// §6.2 table is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionModel {
    /// Per-message processing + transmission delay.
    pub delay: DelayModel,
    /// MRAI base interval, jittered per directed session by U[0.75, 1.0];
    /// zero means no MRAI. It rate-limits withdrawals as well as
    /// announcements: paper-era simulators (SSFNet lineage) applied MRAI
    /// to all updates where RFC 4271 exempts explicit withdrawals, and
    /// that is what reproduces the paper's long path-exploration
    /// transients.
    pub mrai_base: SimDuration,
    /// Message loss fault injection.
    pub loss: LossModel,
}

impl SessionModel {
    /// §6.2: delay U[10 ms, 20 ms], MRAI 30 s × U[0.75, 1.0], no loss.
    pub fn paper() -> SessionModel {
        SessionModel {
            delay: DelayModel::paper_default(),
            mrai_base: SimDuration::from_secs(30),
            loss: LossModel::none(),
        }
    }

    /// For unit tests: fixed 1 ms delay, no MRAI, no loss.
    pub fn fast() -> SessionModel {
        SessionModel {
            delay: DelayModel::fixed(SimDuration::from_millis(1)),
            mrai_base: SimDuration::ZERO,
            loss: LossModel::none(),
        }
    }
}

/// Engine configuration. Defaults mirror the paper.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Master seed; all internal streams derive from it.
    pub seed: u64,
    /// Delay, MRAI and loss of every session.
    pub sessions: SessionModel,
    /// Compiled policy regime every router consults for import preference
    /// and export gating *at the start of the run* — a
    /// [`ScenarioEvent::FlipPolicy`] replaces the live one. The default
    /// (`gao-rexford`) reproduces the paper's hardwired prefer-customer +
    /// valley-free semantics exactly.
    pub policy: CompiledRegime,
    /// Convergence-watchdog thresholds (oscillation detector + event
    /// budget) applied by every `run_*` call.
    pub watchdog: WatchdogConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 1,
            sessions: SessionModel::paper(),
            policy: CompiledRegime::default_static().clone(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Fast configuration for unit tests: [`SessionModel::fast`].
    pub fn fast(seed: u64) -> EngineConfig {
        EngineConfig {
            seed,
            sessions: SessionModel::fast(),
            ..EngineConfig::default()
        }
    }
}

/// Counters and timestamps accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Announcements handed to the transport (after MRAI coalescing).
    pub announcements_sent: u64,
    /// Withdrawals handed to the transport.
    pub withdrawals_sent: u64,
    /// Updates delivered to routers.
    pub delivered: u64,
    /// Messages dropped (dead link/node at delivery time, or fault
    /// injection).
    pub dropped: u64,
    /// Announcements absorbed by MRAI coalescing (superseded while queued).
    pub coalesced: u64,
    /// Events processed.
    pub events: u64,
    /// Last time any router reported a forwarding change.
    pub last_fib_change: SimTime,
    /// Last time any update was delivered.
    pub last_delivery: SimTime,
}

/// Liveness of links and nodes.
#[derive(Debug)]
struct LinkState {
    link_up: Vec<bool>,
    node_up: Vec<bool>,
}

clone_in_place!(LinkState { link_up, node_up });

impl LinkState {
    fn new(g: &AsGraph) -> LinkState {
        LinkState {
            link_up: vec![true; g.n_links()],
            node_up: vec![true; g.n()],
        }
    }

    /// Is the session `from`–`to` over `link` up end to end — both nodes
    /// and the link itself? The one session-liveness predicate.
    #[inline]
    fn up(&self, from: AsId, to: AsId, link: LinkId) -> bool {
        self.node_ok(from) && self.node_ok(to) && self.link_ok(link)
    }

    /// Is the node up (`false` for an id that names no AS)?
    #[inline]
    fn node_ok(&self, v: AsId) -> bool {
        self.node_up.get(v.index()).is_some_and(|&up| up)
    }

    /// Is the link itself up, whatever its endpoints (`false` for an id
    /// that names no link)?
    #[inline]
    fn link_ok(&self, id: LinkId) -> bool {
        self.link_up.get(id.index()).is_some_and(|&up| up)
    }
}

impl SessionView for LinkState {
    #[inline]
    fn session_entry_up(&self, from: AsId, e: &SessEntry) -> bool {
        // The entry already names the link: three flag reads, no lookup.
        self.up(from, e.neighbor, e.link)
    }
}

/// Internal event type. Events carry the dense [`SessId`] of the directed
/// session they belong to; endpoints and link are O(1) array reads at
/// handling time, so the delivery path performs no `(AsId, AsId)` keyed
/// lookups at all.
#[derive(Debug, Clone)]
enum Event {
    Deliver {
        sess: SessId,
        proc: ProcId,
        msg: UpdateMsg,
        /// Session epoch at transmission time; a delivery whose epoch no
        /// longer matches was sent over a session that has since reset
        /// (link failure or endpoint restart) and is dropped — BGP runs
        /// over TCP, and a reset connection never delivers pre-reset
        /// updates, even if a new session is up by delivery time.
        epoch: u64,
    },
    /// A timer's expiry with an update parked behind it: it enters the
    /// heap, in the place its slot reserved, only when that update does.
    MraiExpire {
        sess: SessId,
        proc: ProcId,
        prefix: PrefixId,
        /// Session epoch when the update was parked; an expiry whose epoch
        /// no longer matches belongs to a session that has since reset
        /// (its rate-limiter state died with it) and is ignored — the
        /// fresh session armed its own timers.
        epoch: u64,
    },
    Scenario(ScenarioEvent),
}

/// Per-(session, process, prefix) MRAI state.
#[derive(Debug, Clone, Default)]
struct MraiSlot {
    /// The place of the timer's expiry in the scheduler's order, reserved
    /// when the timer was armed: the timer runs while the clock has not
    /// reached it. The default place precedes every clock, so a new slot
    /// is idle.
    ticket: Ticket,
    /// Latest announcement waiting for the timer. Only with one does the
    /// expiry enter the heap.
    pending: Option<UpdateMsg>,
}

/// The MRAI expiries reserved and never scheduled since the engine was
/// last quiescent: timers that lapsed, or will, with nothing to send.
/// Each would have been one event of no work; the engine counts them and
/// moves its clock to the last one when the heap drains.
#[derive(Debug, Clone, Copy, Default)]
struct Lapses {
    /// Reserved expiries not in the heap.
    count: u64,
    /// The latest deadline reserved.
    until: SimTime,
}

impl Lapses {
    /// Arm a timer expiring at `at`: reserve its place, and count it as a
    /// lapse until an update is parked behind it.
    #[inline]
    fn arm(&mut self, sched: &mut Scheduler<Event>, at: SimTime) -> Ticket {
        self.count += 1;
        self.until = self.until.max(at);
        sched.reserve(at)
    }
}

/// What no run can change — the topology, the per-session MRAI jitter
/// table sampled from it at construction, and the non-policy configuration.
/// Every copy of an engine shares one of these, so copying an engine copies
/// exactly the state a run can mutate.
struct Fixed {
    g: AsGraph,
    /// The one model every channel samples its delay and loss from.
    sessions: SessionModel,
    /// Jittered MRAI interval per directed session.
    mrai_interval: Vec<SimDuration>,
    watchdog: WatchdogConfig,
}

/// The simulation engine: one router per AS, FIFO sessions, MRAI, failures.
///
/// All per-session state lives in flat `Vec`s indexed by the topology's
/// dense [`SessId`] space (× process, × dense prefix where needed) — the
/// session set is fixed for the lifetime of a run, so nothing on the
/// per-message path ever probes a hash map keyed by `(AsId, AsId, …)`
/// tuples.
///
/// An engine is its own checkpoint: `clone` forks it and `clone_from`
/// rewinds it (see the [`Clone`] impl). A copy resumes bit-identically to
/// the engine it was taken from.
pub struct Engine<R: RouterLogic> {
    fixed: Arc<Fixed>,
    /// The live policy regime: [`EngineConfig::policy`] until a
    /// [`ScenarioEvent::FlipPolicy`] replaces it.
    policy: Arc<CompiledRegime>,
    routers: Vec<R>,
    /// Hash-consed AS-path storage shared by every router in this engine;
    /// update messages carry `PathId` handles into it.
    paths: PathArena,
    sched: Scheduler<Event>,
    state: LinkState,
    /// FIFO channel per `(directed session, process)`, see
    /// [`Engine::chan_idx`]: `n_sessions × R::PROCS` of them.
    channels: Vec<FifoChannel>,
    /// MRAI slots per `(directed session, process)`, inner `Vec` indexed
    /// by dense prefix id (one entry in the common single-prefix
    /// workloads). The table (one row per channel) and each row are built
    /// on first use and a missing row or slot reads as idle, so an engine
    /// that never armed a timer — MRAI off, or built and not yet started —
    /// holds no table at all. A row is non-empty from its first timer to
    /// the next quiescence, which empties every row (every timer has
    /// lapsed by then). A copy takes the table only up to its last
    /// non-empty row, so a copy of a quiescent engine holds none (see the
    /// [`Clone`] impl).
    mrai: Vec<Vec<MraiSlot>>,
    /// Timers that lapse outside the heap, settled at quiescence.
    lapses: Lapses,
    /// Per-link session epoch: bumped whenever the sessions over a link
    /// reset (the link fails, or an endpoint node fails while the link is
    /// up). In-flight messages carry the epoch they were sent under and
    /// are dropped on mismatch — a session reset destroys its in-flight
    /// messages even when a fresh session is up again by delivery time.
    link_epoch: Vec<u64>,
    /// Monotonic scenario-event counter (sequence numbers for CauseInfo).
    scenario_seq: u32,
    delay_rng: Rng,
    loss_rng: Rng,
    stats: RunStats,
    started: bool,
    /// Reusable outgoing-update buffer lent to every router event — the
    /// dispatch path allocates nothing in steady state.
    out_scratch: Vec<OutMsg>,
    /// Which ASes' forwarding rows may have changed, for observers that
    /// remember where they last looked — see [`Engine::touched_since`].
    /// Not simulation state: `clone_from` invalidates it.
    feed: TouchFeed,
}

impl<R: RouterLogic> Engine<R> {
    /// Build an engine from a topology and one router per AS (`make` is
    /// called in AS order).
    pub fn new<F>(g: AsGraph, cfg: EngineConfig, mut make: F) -> Engine<R>
    where
        F: FnMut(AsId) -> R,
    {
        const { assert!(R::PROCS <= N_PROCS) };
        // Jitter factors are sampled in link order, (a→b) before (b→a) —
        // the exact draw sequence of the original per-pair map, so equal
        // seeds keep producing identical timers.
        let mut mrai_rng = rng_stream(cfg.seed, tags::MRAI);
        let n_sessions = g.n_sessions();
        let mut mrai_interval = vec![SimDuration::ZERO; n_sessions];
        for l in g.links() {
            // A link's endpoints are adjacent by definition.
            let Some(ab) = g.sess_between(l.a, l.b) else {
                continue;
            };
            for sess in [ab, g.sess_reverse(ab)] {
                let f: f64 = 0.75 + 0.25 * mrai_rng.gen_f64();
                mrai_interval[sess.index()] = cfg.sessions.mrai_base.mul_f64(f);
            }
        }
        Engine {
            policy: Arc::new(cfg.policy),
            routers: g.ases().map(&mut make).collect(),
            paths: PathArena::new(),
            sched: Scheduler::new(),
            state: LinkState::new(&g),
            channels: vec![FifoChannel::new(); n_sessions * R::PROCS],
            mrai: Vec::new(),
            lapses: Lapses::default(),
            link_epoch: vec![0; g.n_links()],
            scenario_seq: 0,
            delay_rng: rng_stream(cfg.seed, tags::DELAYS),
            loss_rng: rng_stream(cfg.seed, tags::LOSS),
            stats: RunStats::default(),
            started: false,
            out_scratch: Vec::new(),
            feed: TouchFeed::new(g.n()),
            fixed: Arc::new(Fixed {
                g,
                sessions: cfg.sessions,
                mrai_interval,
                watchdog: cfg.watchdog,
            }),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &AsGraph {
        &self.fixed.g
    }

    /// The path arena (resolve `PathId` handles held by this engine's
    /// routers and messages).
    pub fn paths(&self) -> &PathArena {
        &self.paths
    }

    /// Router of one AS (immutable — data-plane snapshots).
    pub fn router(&self, v: AsId) -> &R {
        &self.routers[v.index()]
    }

    /// Run every router's [`RouterLogic::reset_measurement`], marking for
    /// observers exactly the ASes whose reset cleared something.
    pub fn reset_measurement(&mut self) {
        for (v, router) in self.routers.iter_mut().enumerate() {
            if router.reset_measurement() {
                self.feed.touch(AsId::from_usize(v));
            }
        }
    }

    /// Why `v` selects what it selects for `prefix`: one [`Explanation`]
    /// per process of its speaker, in process order, judged against the
    /// engine's own liveness and arena. Read-only; an AS outside the
    /// topology explains nothing.
    pub fn explain(&self, v: AsId, prefix: PrefixId) -> Vec<Explanation> {
        let Some(r) = self.routers.get(v.index()) else {
            return Vec::new();
        };
        let (s, nbrs) = (r.speaker(), self.fixed.g.neighbor_entries(v));
        let why = |proc| s.explain(&self.paths, nbrs, &self.state, prefix, proc);
        ProcId::first_n(s.procs()).map(why).collect()
    }

    /// Is the session between `a` and `b` up (adjacent, both nodes up,
    /// link up)?
    pub fn session_up(&self, a: AsId, b: AsId) -> bool {
        // Adjacency first: an AS outside the topology has no link, and
        // only ASes that have one index the liveness flags.
        let link = self.fixed.g.link_between(a, b);
        link.is_some_and(|id| self.state.up(a, b, id))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The ASes whose forwarding behaviour — selections, and the liveness
    /// of their own sessions — may have changed since `cursor` last looked
    /// here, and move `cursor` to now. A superset: an AS is marked whenever
    /// its router runs an event (or clears something in
    /// [`Engine::reset_measurement`]) and whenever a session of its own goes up
    /// or down; [`Touched::All`] after a `clone_from`, on a
    /// cursor's first look, or when the observer fell a whole ring behind.
    ///
    /// When `R::WIDE_LIVENESS` says the rows read liveness *beyond* the
    /// AS's own sessions (R-BGP escape circuits walk every hop of a pinned
    /// path), a link or node flip is [`Touched::All`] for every cursor
    /// that predates it, as a rewind is. The feed is bookkeeping for
    /// observers only; it never feeds a golden hash and costs one compare
    /// per router event when nobody looks.
    #[inline]
    pub fn touched_since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        self.feed.since(cursor)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Call every router's `on_start` (originations) — must run once before
    /// the first `run_*` call.
    pub fn start(&mut self) {
        assert!(!self.started, "engine already started");
        self.started = true;
        for v in 0..self.fixed.g.n() {
            let v = AsId::from_usize(v);
            self.with_router_ctx(v, |router, ctx| router.on_start(ctx));
        }
    }

    /// Inject a scenario event after `delay` from now.
    ///
    /// Equal-time tie-break: the scheduler orders events by `(time,
    /// insertion sequence)`, so scenario events injected for the same
    /// instant are applied in *injection order* — a timeline that fails and
    /// recovers the same link at one timestamp ends with the link up iff
    /// the recovery was injected after the failure. Injection order also
    /// fixes how same-instant scenario events interleave with message
    /// deliveries already scheduled for that instant: whichever was
    /// scheduled first runs first.
    pub fn inject_after(&mut self, delay: SimDuration, ev: ScenarioEvent) {
        self.sched.schedule_after(delay, Event::Scenario(ev));
    }

    /// Inject a scenario event at the absolute simulation time `at`.
    ///
    /// The campaign runner uses this mid-run: after initial convergence it
    /// schedules a whole timeline of events at absolute offsets from one
    /// injection epoch, independent of how long convergence took. `at` must
    /// not precede [`Engine::now`] (the scheduler panics on scheduling into
    /// the past). The equal-time tie-break is the same as for
    /// [`Engine::inject_after`]: insertion order wins.
    pub fn inject_at(&mut self, at: SimTime, ev: ScenarioEvent) {
        self.sched.schedule_at(at, Event::Scenario(ev));
    }

    /// The global best-route fingerprint the convergence watchdog samples:
    /// every router's [`RouterLogic::fingerprint`] contribution, mixed
    /// order-independently. Read-only. `0` means "no data" — either no
    /// router holds any selection, or the logic opted out of
    /// fingerprinting — and is never matched against.
    pub fn fingerprint(&self) -> StateFingerprint {
        let mut fp = StateFingerprint::new();
        for r in &self.routers {
            r.fingerprint(&mut fp);
        }
        fp
    }

    /// Run until no events remain, the convergence watchdog detects an
    /// oscillation, or a budget (the `deadline`, or the watchdog's event
    /// budget) runs out — see [`RunOutcome`]. `observer` is called after
    /// each batch of simultaneous events that changed any FIB. Accumulated
    /// stats remain queryable via [`Engine::stats`] whatever the outcome.
    ///
    /// Watchdog operation (DESIGN.md §15): after
    /// [`WatchdogConfig::arm_after`] of churn with no scenario event it
    /// samples the global [`Engine::fingerprint`] every
    /// [`WatchdogConfig::sample_every`] at a batch boundary; a sample equal
    /// to an earlier one in the window means routing state came back to a
    /// place it already left — at unchanged liveness the dynamics are
    /// deterministic from (state, pending events), so the run is cycling
    /// and ends [`RunOutcome::Diverged`]. Sampling is read-only (no RNG
    /// draws, no arena writes, no scheduling): a run that converges
    /// executes bit-identically to one under an engine without the
    /// watchdog, and every scenario event resets the window, so converging
    /// runs are typically never even sampled.
    ///
    /// An MRAI timer that lapses with nothing to send is not an event
    /// here (DESIGN.md §10.2): when the heap drains, the run counts each
    /// such lapse in [`RunStats::events`] and moves the clock to the last
    /// one, so a converged run reads as if each had popped in its turn. A
    /// deadline that falls before that last lapse ends the run
    /// [`RunOutcome::BudgetExhausted`], as the lapse's own batch did; the
    /// watchdog and the event budget see only the events that remain.
    // simlint::hot
    pub fn run_until_quiescent<F>(
        &mut self,
        deadline: Option<SimTime>,
        mut observer: F,
    ) -> RunOutcome
    where
        F: FnMut(&Engine<R>, SimTime),
    {
        assert!(self.started, "call start() first");
        let wd = self.fixed.watchdog;
        // Fingerprint history as (fingerprint, sample time, events-so-far):
        // fixed-size window, newest last — no allocation on the run path.
        const WD_HISTORY: usize = 32;
        let mut history = [(0u64, SimTime::ZERO, 0u64); WD_HISTORY];
        let mut n_hist = 0usize;
        let mut run_events = 0u64;
        let mut last_seq = self.scenario_seq;
        let mut next_sample: Option<SimTime> = None;
        while let Some(t) = self.sched.peek_time() {
            if let Some(d) = deadline {
                if t > d {
                    return RunOutcome::BudgetExhausted;
                }
            }
            // Process the full batch of events at timestamp t, then observe.
            let mut fib_changed = false;
            while self.sched.peek_time() == Some(t) {
                // simlint::allow(panic, "peek_time just returned Some, and nothing popped in between")
                let (_, ev) = self.sched.pop().expect("peeked");
                self.stats.events += 1;
                run_events += 1;
                fib_changed |= self.handle(ev);
            }
            if fib_changed {
                self.stats.last_fib_change = t;
                observer(self, t);
            }
            if run_events >= wd.max_events {
                return RunOutcome::BudgetExhausted;
            }
            if self.scenario_seq != last_seq {
                // Liveness (or policy) just changed: the old samples
                // describe a different system. Restart the churn window.
                last_seq = self.scenario_seq;
                n_hist = 0;
                next_sample = Some(t + wd.arm_after);
            } else {
                match next_sample {
                    None => next_sample = Some(t + wd.arm_after),
                    Some(s) if t >= s => {
                        next_sample = Some(t + wd.sample_every);
                        let fp = self.fingerprint().value();
                        if fp != 0 {
                            if let Some(&(_, pt, pe)) =
                                history[..n_hist].iter().find(|&&(f, _, _)| f == fp)
                            {
                                return RunOutcome::Diverged {
                                    period: t.since(pt),
                                    churn: run_events - pe,
                                };
                            }
                            if n_hist == WD_HISTORY {
                                history.copy_within(1.., 0);
                                n_hist -= 1;
                            }
                            history[n_hist] = (fp, t, run_events);
                            n_hist += 1;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        self.settle_lapses(deadline)
    }

    /// The drained heap's end of a run: every timer still running lapses
    /// in its turn, unless `deadline` falls before the last of them.
    fn settle_lapses(&mut self, deadline: Option<SimTime>) -> RunOutcome {
        let Lapses { count, until } = self.lapses;
        if deadline.is_some_and(|d| until > d.max(self.now())) {
            return RunOutcome::BudgetExhausted;
        }
        self.stats.events += count;
        if until > self.now() {
            self.sched.advance_to(until);
        }
        // Every timer has lapsed: the rows say what empty rows say.
        // `clear` keeps each row's buffer (one slot per prefix ever armed)
        // on purpose: a re-armed timer allocates nothing.
        self.mrai.iter_mut().for_each(Vec::clear);
        self.lapses = Lapses::default();
        RunOutcome::Converged
    }

    /// Convenience: run with no observer.
    pub fn run_to_quiescence(&mut self, deadline: Option<SimTime>) -> RunOutcome {
        self.run_until_quiescent(deadline, |_, _| {})
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Flat index of one `(directed session, process)` pair: sessions
    /// stride by the protocol's process count. Hard bound check: an
    /// out-of-range `ProcId` would silently alias the *next* session's
    /// process-0 state otherwise.
    #[inline]
    fn chan_idx(sess: SessId, proc: ProcId) -> usize {
        assert!(usize::from(proc.0) < R::PROCS, "{proc:?} out of range");
        sess.index() * R::PROCS + usize::from(proc.0)
    }

    /// The MRAI slot for one `(session, process, prefix)`, growing the
    /// table (to its full `n_chans` rows, in one allocation) and the dense
    /// prefix row on first touch — exactly, so a row armed for one prefix
    /// holds one slot, not the four a first `resize` rounds up to. `None`
    /// only for a channel outside the table. A static method over the
    /// `mrai` field so callers can keep disjoint borrows of the rest of
    /// `self`.
    // simlint::hot
    #[inline]
    fn mrai_slot(
        mrai: &mut Vec<Vec<MraiSlot>>,
        n_chans: usize,
        sess: SessId,
        proc: ProcId,
        prefix: PrefixId,
    ) -> Option<&mut MraiSlot> {
        if mrai.len() < n_chans {
            mrai.resize_with(n_chans, Default::default);
        }
        row_mut(mrai.get_mut(Self::chan_idx(sess, proc))?, prefix.index())
    }

    /// Handle one event; returns whether any FIB changed.
    // simlint::hot
    fn handle(&mut self, ev: Event) -> bool {
        match ev {
            Event::Deliver {
                sess,
                proc,
                msg,
                epoch,
            } => {
                // The session must still be up end-to-end at delivery time,
                // and must be the *same* session the message was sent on —
                // a reset in between (link failure, endpoint restart)
                // destroyed everything in flight, even if a fresh session
                // is already up again. All O(1) array reads.
                let ends = self.fixed.g.sess_ends(sess);
                if !self.state.up(ends.from, ends.to, ends.link)
                    || self.link_epoch[ends.link.index()] != epoch
                {
                    self.stats.dropped += 1;
                    return false;
                }
                self.stats.delivered += 1;
                self.stats.last_delivery = self.sched.now();
                // The receiver hears the sender on the reverse session.
                let g = &self.fixed.g;
                let from = g.slot(ends.to, g.sess_reverse(sess));
                self.with_router_ctx(ends.to, |router, ctx| {
                    router.on_update(ctx, from, proc, msg)
                })
            }
            Event::MraiExpire {
                sess,
                proc,
                prefix,
                epoch,
            } => {
                // A timer armed before a session reset must not touch the
                // fresh session's slot (which arms its own timers): the
                // stale expiry would flush the new session's pending
                // update early, violating the MRAI interval.
                let ends = self.fixed.g.sess_ends(sess);
                if self.link_epoch[ends.link.index()] != epoch {
                    return false;
                }
                // Only a parked update brings an expiry into the heap, and
                // only a session reset (caught above) or quiescence (which
                // this pending event forbids) empties its row.
                let slot = self
                    .mrai
                    .get_mut(Self::chan_idx(sess, proc))
                    .and_then(|row| row.get_mut(prefix.index()));
                let Some(slot) = slot else {
                    return false;
                };
                let Some(msg) = slot.pending.take() else {
                    return false;
                };
                // Keep the timer armed for another interval.
                let expires = self.sched.now() + self.fixed.mrai_interval[sess.index()];
                slot.ticket = self.lapses.arm(&mut self.sched, expires);
                self.transmit(sess, proc, msg);
                false
            }
            Event::Scenario(s) => self.handle_scenario(s),
        }
    }

    fn handle_scenario(&mut self, s: ScenarioEvent) -> bool {
        self.scenario_seq += 1;
        match s {
            ScenarioEvent::FailLink(id) => self.fail_link(id),
            ScenarioEvent::RecoverLink(id) => self.recover_link(id),
            ScenarioEvent::FailNode(v) => self.fail_node(v),
            ScenarioEvent::RecoverNode(v) => self.recover_node(v),
            ScenarioEvent::Hijack {
                attacker,
                prefix,
                forged_origin,
            } => self.hijack(attacker, prefix, forged_origin),
            ScenarioEvent::Leak { leaker, prefix } => self.leak(leaker, prefix),
            ScenarioEvent::FlipPolicy(idx) => self.flip_policy(idx),
        }
    }

    /// Inject a prefix hijack (see [`ScenarioEvent::Hijack`]). The
    /// attacker's liveness is tested before the forged path is interned: a
    /// dead attacker must leave the arena (and so every hash over
    /// `interned_paths`) untouched.
    fn hijack(&mut self, attacker: AsId, prefix: PrefixId, forged_origin: Option<AsId>) -> bool {
        if !self.state.node_ok(attacker) {
            return false;
        }
        let paths = &mut self.paths;
        let route = match forged_origin {
            None => Route::originate(paths, attacker),
            // Forged edge attacker→victim: the true origin stays terminal
            // on the announced path.
            Some(victim) => Route::originate(paths, victim).prepend(paths, attacker),
        };
        self.announce_raw(attacker, None, prefix, route)
    }

    /// Inject a route leak (see [`ScenarioEvent::Leak`]): the leaker's
    /// current best route goes to every live neighbour except its sender,
    /// export gate ignored.
    fn leak(&mut self, leaker: AsId, prefix: PrefixId) -> bool {
        if !self.state.node_ok(leaker) {
            return false;
        }
        let speaker = self.routers[leaker.index()].speaker();
        let Some((learned_from, route)) = speaker.selected_route(prefix, ProcId::ONLY) else {
            return false;
        };
        let adv = route.prepend(&mut self.paths, leaker);
        // Split horizon still holds — reflecting the route to its sender
        // would only be dropped as a loop anyway.
        self.announce_raw(leaker, Some(learned_from), prefix, adv)
    }

    /// Announce `route` from `from` to every live neighbour but `skip` on
    /// process 0, straight to the transport, bypassing `from`'s own MRAI
    /// and export machinery — a compromised control plane is not polite.
    /// FIB changes surface only when the receivers process the deliveries,
    /// so this returns `false` itself.
    fn announce_raw(
        &mut self,
        from: AsId,
        skip: Option<AsId>,
        prefix: PrefixId,
        route: Route,
    ) -> bool {
        let kind = UpdateKind::Announce(route);
        let g = self.fixed.g.clone();
        for e in g.neighbor_entries(from) {
            if Some(e.neighbor) != skip && self.state.up(from, e.neighbor, e.link) {
                self.transmit(e.sess, ProcId::ONLY, UpdateMsg { prefix, kind });
            }
        }
        false
    }

    /// Swap the live policy regime (see [`ScenarioEvent::FlipPolicy`]).
    /// An index that doesn't resolve — or a regime that fails to compile —
    /// is a no-op rather than a panic: timelines are data, and bad data
    /// must not kill a campaign worker.
    fn flip_policy(&mut self, idx: u16) -> bool {
        if let Some(compiled) =
            stamp_policy::PolicyRegime::by_index(idx).and_then(|r| r.compile().ok())
        {
            self.policy = Arc::new(compiled);
        }
        false
    }

    /// The cause record of the scenario event being applied.
    fn cause(&self, cause: RootCause, up: bool) -> CauseInfo {
        let seq = self.scenario_seq;
        CauseInfo { cause, seq, up }
    }

    /// Fail one link: tear state, notify both (live) endpoints.
    fn fail_link(&mut self, id: LinkId) -> bool {
        match self.state.link_up.get_mut(id.index()) {
            Some(up) if *up => *up = false,
            _ => return false,
        }
        self.mark_link_flip(id);
        if let Some(epoch) = self.link_epoch.get_mut(id.index()) {
            *epoch += 1;
        }
        let l = self.fixed.g.link(id);
        self.clear_link_sessions(id);
        let cause = self.cause(RootCause::link(l.a, l.b), false);
        let mut changed = false;
        for (me, slot) in self.link_ends(l.a, l.b) {
            if self.state.node_ok(me) {
                changed |=
                    self.with_router_ctx(me, |router, ctx| router.on_link_down(ctx, slot, cause));
            }
        }
        changed
    }

    /// Recover one link: notify both endpoints (fresh session).
    ///
    /// The link-repair itself succeeds even while an endpoint node is
    /// down — only the session establishment waits: the repaired link is
    /// marked up so [`Engine::recover_node`] re-establishes it when the
    /// dead endpoint returns. (Swallowing the recovery instead would make
    /// link and node state permanently diverge from a timeline's net
    /// liveness.)
    fn recover_link(&mut self, id: LinkId) -> bool {
        match self.state.link_up.get_mut(id.index()) {
            Some(up) if !*up => *up = true,
            _ => return false,
        }
        self.mark_link_flip(id);
        let l = self.fixed.g.link(id);
        if !self.state.node_ok(l.a) || !self.state.node_ok(l.b) {
            return false;
        }
        let cause = self.cause(RootCause::link(l.a, l.b), true);
        let mut changed = false;
        for (me, slot) in self.link_ends(l.a, l.b) {
            changed |= self.with_router_ctx(me, |router, ctx| router.on_link_up(ctx, slot, cause));
        }
        changed
    }

    /// The two ends of the link `a`–`b`, `a` first, each with the slot it
    /// names the other by: one search for the session, then two
    /// subtractions.
    fn link_ends(&self, a: AsId, b: AsId) -> impl Iterator<Item = (AsId, usize)> {
        let g = &self.fixed.g;
        let ends = g.sess_between(a, b).map(|ab| {
            let ba = g.sess_reverse(ab);
            [(a, g.slot(a, ab)), (b, g.slot(b, ba))]
        });
        ends.into_iter().flatten()
    }

    /// Fail a node: all incident sessions drop simultaneously (one routing
    /// event). The per-link `link_up` flags are *not* touched — session
    /// liveness already accounts for node state, and keeping the flags
    /// independent is what lets [`Engine::recover_node`] distinguish links
    /// that failed on their own (they stay down) from sessions that were
    /// only down because the node was.
    ///
    /// Both endpoints of every live incident link are notified: the
    /// surviving neighbour withdraws routes through `v`, and `v` itself
    /// tears down its per-session state (its outgoing updates are dropped —
    /// every session of a dead node is dead). The teardown at `v` is what
    /// makes a later [`Engine::recover_node`] behave like a router restart
    /// instead of a resurrection with a stale pre-failure RIB.
    fn fail_node(&mut self, v: AsId) -> bool {
        match self.state.node_up.get_mut(v.index()) {
            Some(up) if *up => *up = false,
            _ => return false,
        }
        self.mark_node_flip(v);
        let cause = self.cause(RootCause::Node(v), false);
        let mut changed = false;
        // The graph is a handle: cloning it lends the node's session slice
        // while `self` is borrowed mutably, and materialises nothing.
        let g = self.fixed.g.clone();
        for (slot, e) in g.neighbor_entries(v).iter().enumerate() {
            if !self.state.link_ok(e.link) {
                continue;
            }
            if let Some(epoch) = self.link_epoch.get_mut(e.link.index()) {
                *epoch += 1;
            }
            self.clear_link_sessions(e.link);
            let n = e.neighbor;
            if self.state.node_ok(n) {
                let back = g.slot(n, g.sess_reverse(e.sess));
                changed |=
                    self.with_router_ctx(n, |router, ctx| router.on_link_down(ctx, back, cause));
            }
            changed |= self.with_router_ctx(v, |router, ctx| router.on_link_down(ctx, slot, cause));
        }
        changed
    }

    /// Recover a node: every incident link that is itself up (and whose far
    /// endpoint is alive) re-establishes its session — both endpoints get
    /// the same fresh-session treatment as on link recovery and re-announce
    /// their current best routes. Mirrors [`Engine::fail_node`]; links that
    /// failed individually stay down until their own recovery event.
    fn recover_node(&mut self, v: AsId) -> bool {
        match self.state.node_up.get_mut(v.index()) {
            Some(up) if !*up => *up = true,
            _ => return false,
        }
        self.mark_node_flip(v);
        let cause = self.cause(RootCause::Node(v), true);
        let mut changed = false;
        let g = self.fixed.g.clone();
        for (slot, e) in g.neighbor_entries(v).iter().enumerate() {
            if self.state.link_ok(e.link) && self.state.node_ok(e.neighbor) {
                let (n, back) = (e.neighbor, g.slot(e.neighbor, g.sess_reverse(e.sess)));
                changed |=
                    self.with_router_ctx(v, |router, ctx| router.on_link_up(ctx, slot, cause));
                changed |=
                    self.with_router_ctx(n, |router, ctx| router.on_link_up(ctx, back, cause));
            }
        }
        changed
    }

    /// `id`'s `link_up` flag flipped: the rows that read it are its two
    /// endpoints' — unless one of them is down, in which case the session
    /// was down before and still is. Under `R::WIDE_LIVENESS`, every row.
    fn mark_link_flip(&mut self, id: LinkId) {
        if R::WIDE_LIVENESS {
            self.feed.invalidate(self.fixed.g.n());
        }
        let l = self.fixed.g.link(id);
        if self.state.node_ok(l.a) && self.state.node_ok(l.b) {
            self.feed.touch(l.a);
            self.feed.touch(l.b);
        }
    }

    /// `v`'s `node_up` flag flipped: the rows that read it are `v`'s own
    /// and those of the neighbours whose session to `v` it decides (link
    /// up, neighbour alive). Under `R::WIDE_LIVENESS`, every row.
    fn mark_node_flip(&mut self, v: AsId) {
        if R::WIDE_LIVENESS {
            self.feed.invalidate(self.fixed.g.n());
        }
        self.feed.touch(v);
        let g = self.fixed.g.clone();
        for e in g.neighbor_entries(v) {
            if self.state.link_ok(e.link) && self.state.node_ok(e.neighbor) {
                self.feed.touch(e.neighbor);
            }
        }
    }

    /// Forget MRAI pendings for both directed sessions of a link (the
    /// sessions went down). Pending scheduler timers die by epoch
    /// mismatch; the dense rows just reset.
    fn clear_link_sessions(&mut self, link: LinkId) {
        let g = &self.fixed.g;
        let l = g.link(link);
        let Some(ab) = g.sess_between(l.a, l.b) else {
            return;
        };
        for sess in [ab, g.sess_reverse(ab)] {
            for proc in ProcId::first_n(R::PROCS) {
                if let Some(row) = self.mrai.get_mut(Self::chan_idx(sess, proc)) {
                    row.clear();
                }
            }
        }
    }

    /// Run `f` on one router with a fresh ctx; dispatch its output.
    /// Returns whether the router flagged a forwarding change.
    fn with_router_ctx<F>(&mut self, v: AsId, f: F) -> bool
    where
        F: FnOnce(&mut R, &mut RouterCtx),
    {
        // Any router event may change the router's selections: mark its
        // forwarding row for observers (bookkeeping only, never hashed).
        self.feed.touch(v);
        // Destructure to borrow `routers` and the arena mutably while
        // `g`/`state` stay shared — the ctx reads topology and liveness and
        // interns paths.
        let (out, fib_changed) = {
            let Engine {
                routers,
                fixed,
                state,
                paths,
                out_scratch,
                policy,
                ..
            } = self;
            let mut ctx = RouterCtx::with_policy(v, &fixed.g, &*state, paths, policy);
            // Lend the engine's scratch buffer: `Vec::new()` above never
            // allocated, and the swap hands routers a warm buffer.
            ctx.out = std::mem::take(out_scratch);
            f(&mut routers[v.index()], &mut ctx);
            (ctx.out, ctx.fib_changed)
        };
        self.dispatch(v, out);
        fib_changed
    }

    /// Route a router's outgoing updates through MRAI + transport, then
    /// return the drained buffer to the scratch slot.
    fn dispatch(&mut self, from: AsId, mut out: Vec<OutMsg>) {
        for OutMsg {
            to,
            sess,
            proc,
            msg,
        } in out.drain(..)
        {
            // The message names its session: link and liveness are O(1)
            // reads, like everything after.
            let link = self.fixed.g.sess_ends(sess).link;
            if !self.state.up(from, to, link) {
                self.stats.dropped += 1;
                continue;
            }
            if self.fixed.sessions.mrai_base == SimDuration::ZERO {
                // No MRAI: no slot is ever armed, so nothing is queued.
                self.transmit(sess, proc, msg);
                continue;
            }
            let prefix = msg.prefix;
            let expires = self.sched.now() + self.fixed.mrai_interval[sess.index()];
            let n_chans = self.channels.len();
            let Some(slot) = Self::mrai_slot(&mut self.mrai, n_chans, sess, proc, prefix) else {
                // Every session's channels are in the table: unreachable.
                self.transmit(sess, proc, msg);
                continue;
            };
            if self.sched.cursor() < slot.ticket {
                // The timer runs: the update waits for its expiry, which
                // enters the heap with the first update that does.
                if slot.pending.replace(msg).is_some() {
                    self.stats.coalesced += 1;
                } else {
                    let epoch = self.link_epoch[link.index()];
                    let expiry = Event::MraiExpire {
                        sess,
                        proc,
                        prefix,
                        epoch,
                    };
                    self.sched.schedule_reserved(slot.ticket, expiry);
                    self.lapses.count -= 1;
                }
            } else {
                slot.ticket = self.lapses.arm(&mut self.sched, expires);
                self.transmit(sess, proc, msg);
            }
        }
        self.out_scratch = out;
    }

    /// Hand a message to the FIFO channel and schedule its delivery.
    fn transmit(&mut self, sess: SessId, proc: ProcId, msg: UpdateMsg) {
        if self.fixed.sessions.loss.drops(&mut self.loss_rng) {
            self.stats.dropped += 1;
            return;
        }
        match msg.kind {
            UpdateKind::Announce(_) => self.stats.announcements_sent += 1,
            UpdateKind::Withdraw(_) => self.stats.withdrawals_sent += 1,
        }
        let epoch = self.link_epoch[self.fixed.g.sess_ends(sess).link.index()];
        let now = self.sched.now();
        let at = self.channels[Self::chan_idx(sess, proc)].delivery_time(
            now,
            &self.fixed.sessions.delay,
            &mut self.delay_rng,
        );
        self.sched.schedule_at(
            at,
            Event::Deliver {
                sess,
                proc,
                msg,
                epoch,
            },
        );
    }
}

/// The one way to copy an engine. `clone` forks it (checkpoint-and-branch
/// without disturbing the original); `clone_from` rewinds this engine to
/// `source`, overwriting all run state in place. Both copy everything a run
/// can mutate — routers, pending events with the clock, liveness,
/// per-session FIFO/MRAI state, RNG stream positions, counters, the path
/// arena, the live policy regime — and share what it cannot
/// (topology, jitter table, config) by reference count, so a copy resumes
/// bit-identically to the engine it was taken from.
///
/// Both destructure the source without `..`: a field added to [`Engine`]
/// does not compile until someone decides here whether a fork copies it.
///
/// The MRAI table is copied up to its last non-empty row only: a missing
/// row reads as idle, so a copy of a quiescent engine carries no table.
/// `clone_from` empties the rows its source lacks instead of dropping
/// them, so an engine that keeps rewinding keeps every row buffer and
/// re-arms without allocating.
impl<R: RouterLogic + Clone> Clone for Engine<R> {
    fn clone(&self) -> Self {
        let Engine {
            fixed,
            policy,
            routers,
            paths,
            sched,
            state,
            channels,
            mrai,
            lapses,
            link_epoch,
            scenario_seq,
            delay_rng,
            loss_rng,
            stats,
            started,
            out_scratch: _,
            feed,
        } = self;
        Engine {
            fixed: Arc::clone(fixed),
            policy: Arc::clone(policy),
            routers: routers.clone(),
            paths: paths.clone(),
            sched: sched.clone(),
            state: state.clone(),
            channels: channels.clone(),
            mrai: live_rows(mrai).to_vec(),
            lapses: *lapses,
            link_epoch: link_epoch.clone(),
            scenario_seq: *scenario_seq,
            delay_rng: delay_rng.clone(),
            loss_rng: loss_rng.clone(),
            stats: *stats,
            started: *started,
            // Scratch carries nothing between events.
            out_scratch: Vec::new(),
            // Cursors advanced on the original stay good on the fork.
            feed: feed.clone(),
        }
    }

    /// Existing buffers are reused (`clone_from` down the flat `Vec`
    /// state; the routers' own tables are whatever `R::clone_from` makes
    /// of them) and nothing of this engine's timeline survives. The path
    /// arena is copied like the rest, so paths interned after `source`
    /// was taken are forgotten and a replay re-interns them in identical
    /// order: a rewound run can never observe ids a sibling fork
    /// interned.
    ///
    /// The touched feed ([`Engine::touched_since`]) is invalidated, not
    /// copied: every observer's next look reports the whole table dirty.
    // simlint::hot
    fn clone_from(&mut self, source: &Self) {
        let Engine {
            fixed,
            policy,
            routers,
            paths,
            sched,
            state,
            channels,
            mrai,
            lapses,
            link_epoch,
            scenario_seq,
            delay_rng,
            loss_rng,
            stats,
            started,
            out_scratch: _,
            feed: _,
        } = source;
        self.fixed.clone_from(fixed);
        self.policy.clone_from(policy);
        self.routers.clone_from(routers);
        self.paths.clone_from(paths);
        self.sched.clone_from(sched);
        self.state.clone_from(state);
        self.channels.clone_from(channels);
        let live = live_rows(mrai);
        for (i, row) in self.mrai.iter_mut().enumerate() {
            match live.get(i) {
                Some(src) => row.clone_from(src),
                None => row.clear(),
            }
        }
        if let Some(rest) = live.get(self.mrai.len()..) {
            self.mrai.extend_from_slice(rest);
        }
        self.lapses = *lapses;
        self.link_epoch.clone_from(link_epoch);
        self.scenario_seq = *scenario_seq;
        self.delay_rng.clone_from(delay_rng);
        self.loss_rng.clone_from(loss_rng);
        self.stats = *stats;
        self.started = *started;
        self.feed.invalidate(self.fixed.g.n());
    }
}

/// The MRAI rows a copy needs: those up to the last non-empty one.
fn live_rows(mrai: &[Vec<MraiSlot>]) -> &[Vec<MraiSlot>] {
    let n = mrai
        .iter()
        .rposition(|row| !row.is_empty())
        .map_or(0, |i| i + 1);
    mrai.get(..n).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::BgpRouter;
    use stamp_topology::{GraphBuilder, StaticRoutes};

    /// Chain-with-diamond:
    ///
    /// ```text
    ///   0 ==== 1      tier-1 peers
    ///   |      |
    ///   2      3
    ///    \    /
    ///      4        multi-homed origin
    /// ```
    pub(crate) fn diamond() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(5);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        b.build().unwrap()
    }

    pub(crate) fn engine(g: AsGraph, origin: AsId, seed: u64) -> Engine<BgpRouter> {
        Engine::new(g, EngineConfig::fast(seed), |v| {
            let own = if v == origin {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            BgpRouter::new(v, own)
        })
    }

    #[test]
    fn converges_to_static_solver_state() {
        let g = diamond();
        for origin in 0..5u32 {
            let origin = AsId(origin);
            let mut e = engine(g.clone(), origin, 7);
            e.start();
            e.run_to_quiescence(None);
            let truth = StaticRoutes::compute(&g, origin);
            for v in g.ases() {
                let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
                assert_eq!(
                    e.router(v).next_hop(PrefixId(0)),
                    expect,
                    "origin {origin}, router {v}"
                );
            }
        }
    }

    #[test]
    fn single_link_failure_reconverges() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        // Fail the 4-2 link: everything must re-route via 3.
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        let g2 = g.without_links(&[id]);
        let truth = StaticRoutes::compute(&g2, AsId(4));
        // Dense ids coincide (without_links preserves external numbering).
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).next_hop(PrefixId(0)), expect, "router {v}");
        }
    }

    #[test]
    fn link_recovery_restores_routes() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 5);
        e.start();
        e.run_to_quiescence(None);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::RecoverLink(id));
        e.run_to_quiescence(None);
        let truth = StaticRoutes::compute(&g, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).next_hop(PrefixId(0)), expect, "router {v}");
        }
    }

    #[test]
    fn node_failure_withdraws_from_all() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 11);
        e.start();
        e.run_to_quiescence(None);
        // Node 2 dies; 0 and 4 lose their sessions to it.
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailNode(AsId(2)));
        e.run_to_quiescence(None);
        // 0 should now reach 4 via peer 1 (0-1-3-4), 4 via 3.
        assert_eq!(e.router(AsId(4)).next_hop(PrefixId(0)), None); // origin
        assert_eq!(e.router(AsId(0)).next_hop(PrefixId(0)), Some(AsId(1)));
        assert_eq!(e.router(AsId(3)).next_hop(PrefixId(0)), Some(AsId(4)));
    }

    #[test]
    fn node_recovery_restores_routes() {
        // Node maintenance cycle: node 2 drains and later restores; the
        // network must end byte-identical to the pre-maintenance state,
        // including node 2 itself (which reboots cold and relearns).
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 19);
        e.start();
        e.run_to_quiescence(None);
        let before: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailNode(AsId(2)));
        e.run_to_quiescence(None);
        // While down, the dead router has no state and its neighbours
        // route around it.
        assert_eq!(e.router(AsId(2)).next_hop(PrefixId(0)), None);
        assert_eq!(e.router(AsId(0)).next_hop(PrefixId(0)), Some(AsId(1)));
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::RecoverNode(AsId(2)),
        );
        e.run_to_quiescence(None);
        let after: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        assert_eq!(before, after, "node maintenance must be transparent");
    }

    #[test]
    fn link_failed_during_node_downtime_stays_down_after_recovery() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 23);
        e.start();
        e.run_to_quiescence(None);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailNode(AsId(2)));
        e.inject_after(SimDuration::from_secs(2), ScenarioEvent::FailLink(id));
        e.inject_after(
            SimDuration::from_secs(3),
            ScenarioEvent::RecoverNode(AsId(2)),
        );
        e.run_to_quiescence(None);
        // 2 is back (0 prefers its customer path via 2 again is impossible:
        // the 4-2 link is still down), so the converged state must match
        // the static solution without that link.
        assert!(!e.session_up(AsId(4), AsId(2)), "independent failure kept");
        assert!(e.session_up(AsId(0), AsId(2)), "session re-established");
        let g2 = g.without_links(&[id]);
        let truth = StaticRoutes::compute(&g2, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).next_hop(PrefixId(0)), expect, "router {v}");
        }
    }

    #[test]
    fn link_repaired_during_node_downtime_comes_up_with_the_node() {
        // The link-repair and the node-recovery are independent events:
        // a RecoverLink while an endpoint node is down must not be lost —
        // the session comes up when the node does, and the final state
        // matches the full original topology.
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 37);
        e.start();
        e.run_to_quiescence(None);
        let before: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.inject_after(SimDuration::from_secs(2), ScenarioEvent::FailNode(AsId(2)));
        e.inject_after(SimDuration::from_secs(3), ScenarioEvent::RecoverLink(id));
        e.inject_after(
            SimDuration::from_secs(4),
            ScenarioEvent::RecoverNode(AsId(2)),
        );
        e.run_to_quiescence(None);
        assert!(e.session_up(AsId(4), AsId(2)), "repair must survive");
        let after: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        assert_eq!(before, after, "full recovery must restore everything");
    }

    #[test]
    fn session_reset_destroys_in_flight_messages() {
        // A restart faster than the message delay must not let pre-reset
        // updates through: 1 announces a route to its provider 0, then
        // restarts (and loses its own route) before the announcement is
        // delivered. Without session epochs the stale announcement lands
        // on the fresh session and 0 blackholes via 1 forever.
        let mut b = GraphBuilder::new();
        b.preregister(3);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        let g = b.build().unwrap();
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(43), |v| {
            let own = if v == AsId(2) {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            BgpRouter::new(v, own)
        });
        e.start();
        e.run_to_quiescence(None);
        let id12 = g.link_between(AsId(1), AsId(2)).unwrap();
        // Tear the route down everywhere, then recover the 1–2 link so a
        // fresh announcement chain is in flight with known timing.
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id12));
        e.run_to_quiescence(None);
        assert_eq!(e.router(AsId(0)).next_hop(PrefixId(0)), None);
        let t2 = e.now() + SimDuration::from_secs(1);
        e.inject_at(t2, ScenarioEvent::RecoverLink(id12));
        // 2 re-announces at t2 (delivered to 1 at +1 ms); 1 announces to 0
        // at +1 ms (delivery +2 ms). Restart 1 inside that window, failing
        // the 1–2 link while it is down so 1 reboots with no route at all.
        e.inject_at(
            t2 + SimDuration::from_micros(1200),
            ScenarioEvent::FailNode(AsId(1)),
        );
        e.inject_at(
            t2 + SimDuration::from_micros(1400),
            ScenarioEvent::FailLink(id12),
        );
        e.inject_at(
            t2 + SimDuration::from_micros(1600),
            ScenarioEvent::RecoverNode(AsId(1)),
        );
        e.run_to_quiescence(None);
        assert_eq!(
            e.router(AsId(1)).next_hop(PrefixId(0)),
            None,
            "1 rebooted cold with its customer link down"
        );
        assert_eq!(
            e.router(AsId(0)).next_hop(PrefixId(0)),
            None,
            "stale pre-restart announcement must not install a blackhole"
        );
    }

    #[test]
    fn recover_node_on_live_node_is_a_noop() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 29);
        e.start();
        e.run_to_quiescence(None);
        let sent = e.stats().announcements_sent;
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::RecoverNode(AsId(2)),
        );
        e.run_to_quiescence(None);
        assert_eq!(e.stats().announcements_sent, sent, "no re-announcements");
    }

    #[test]
    fn inject_at_equal_time_applies_in_insertion_order() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 31);
        e.start();
        e.run_to_quiescence(None);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        let t = e.now() + SimDuration::from_secs(1);
        // Fail then recover at the same instant: net effect is a session
        // reset; the link must be up afterwards because the recovery was
        // injected second.
        e.inject_at(t, ScenarioEvent::FailLink(id));
        e.inject_at(t, ScenarioEvent::RecoverLink(id));
        e.run_to_quiescence(None);
        assert!(e.session_up(AsId(4), AsId(2)));
        let truth = StaticRoutes::compute(&g, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).next_hop(PrefixId(0)), expect, "router {v}");
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let g = diamond();
        let run = |seed: u64| {
            let mut e = engine(g.clone(), AsId(4), seed);
            e.start();
            let id = g.link_between(AsId(4), AsId(2)).unwrap();
            e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
            e.run_to_quiescence(None);
            let s = *e.stats();
            (
                s.announcements_sent,
                s.withdrawals_sent,
                s.delivered,
                s.last_fib_change,
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn mrai_limits_announcement_rate() {
        // With MRAI on, repeated path exploration towards one peer is
        // coalesced; the coalesced counter should see action under real
        // delays. Simple smoke check on the diamond.
        let g = diamond();
        let mut e: Engine<BgpRouter> = Engine::new(
            g.clone(),
            EngineConfig {
                seed: 9,
                ..EngineConfig::default()
            },
            |v| {
                let own = if v == AsId(4) {
                    vec![PrefixId(0)]
                } else {
                    vec![]
                };
                BgpRouter::new(v, own)
            },
        );
        e.start();
        e.run_to_quiescence(None);
        let before = e.stats().announcements_sent;
        assert!(before > 0);
        // Fail and recover to force churn.
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        assert!(e.stats().withdrawals_sent > 0);
    }

    /// An event that falls on an MRAI timer's exact deadline meets the
    /// expiry in `(time, seq)` order. On the diamond, 4–2 fails and AS 0
    /// falls back to its peer route, arming its timer towards 2; at that
    /// timer's deadline the peering 0–1 fails and recovers. Scheduled
    /// before the timer was armed, the failure runs first: 0's withdrawal
    /// to 2 waits, and the expiry at the same instant flushes it after
    /// the recovery's announcement from 1 drew its delay. Scheduled after,
    /// the timer has lapsed and the withdrawal goes out at once, drawing
    /// first. Pinned: the instant 2 loses its route, both ways.
    #[test]
    fn an_event_on_a_timer_deadline_meets_it_in_scheduling_order() {
        let g = diamond();
        let cfg = EngineConfig {
            seed: 9,
            ..EngineConfig::default()
        };
        let mut base: Engine<BgpRouter> = Engine::new(g.clone(), cfg, |v| {
            let own = if v == AsId(4) {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            BgpRouter::new(v, own)
        });
        base.start();
        assert!(base.run_to_quiescence(None).is_converged());
        let hop = |e: &Engine<BgpRouter>, v: u32| e.router(AsId(v)).next_hop(PrefixId(0));
        let down = g.link_between(AsId(4), AsId(2)).unwrap();
        let peering = g.link_between(AsId(0), AsId(1)).unwrap();
        let t1 = base.now() + SimDuration::from_secs(1);

        // When 0 switches to its peer route, it announces it to 2 and arms
        // the timer of 0→2.
        let mut probe = base.clone();
        probe.inject_at(t1, ScenarioEvent::FailLink(down));
        let mut armed = None;
        probe.run_until_quiescent(None, |e, t| {
            if armed.is_none() && hop(e, 0) == Some(AsId(1)) {
                armed = Some(t);
            }
        });
        let sess = g.sess_between(AsId(0), AsId(2)).unwrap();
        let deadline = armed.unwrap() + base.fixed.mrai_interval[sess.index()];

        let run = |before: bool| {
            let mut e = base.clone();
            e.inject_at(t1, ScenarioEvent::FailLink(down));
            if !before {
                let just_before = SimTime::from_micros(deadline.as_micros() - 1);
                let outcome = e.run_to_quiescence(Some(just_before));
                assert_eq!(
                    outcome,
                    RunOutcome::BudgetExhausted,
                    "the expiry lies ahead"
                );
            }
            e.inject_at(deadline, ScenarioEvent::FailLink(peering));
            e.inject_at(deadline, ScenarioEvent::RecoverLink(peering));
            let mut lost = None;
            let outcome = e.run_until_quiescent(None, |e, t| {
                if t >= deadline && lost.is_none() && hop(e, 2).is_none() {
                    lost = Some(t);
                }
            });
            assert!(outcome.is_converged());
            (lost.unwrap().since(deadline), e.stats().events, e.now())
        };
        let (parked, flushed_events, flushed_end) = run(true);
        let (at_once, lapsed_events, lapsed_end) = run(false);
        assert_ne!(
            parked, at_once,
            "the two orders draw the delays differently"
        );
        assert_eq!(
            (parked.as_micros(), at_once.as_micros()),
            (17_274, 16_673),
            "delivery after the deadline, µs"
        );
        assert_eq!(
            (flushed_events, flushed_end.as_micros()),
            (lapsed_events, lapsed_end.as_micros())
        );
    }

    #[test]
    fn messages_in_flight_on_failed_link_are_dropped() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 13);
        e.start();
        // Fail 4-2 immediately, before convergence completes: announcements
        // already in flight over that link must be dropped, and the network
        // must still converge around it.
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_micros(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        let g2 = g.without_links(&[id]);
        let truth = StaticRoutes::compute(&g2, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).next_hop(PrefixId(0)), expect, "router {v}");
        }
    }

    #[test]
    fn observer_sees_fib_changes() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 17);
        e.start();
        let mut observations = 0usize;
        e.run_until_quiescent(None, |_, _| observations += 1);
        assert!(observations > 0, "initial convergence must change FIBs");
    }

    /// The fork contract at the engine level: copy → mutate → rewind →
    /// mutate replays bit-identically, whether the rewind target is the
    /// donor engine or a fresh identically-constructed engine.
    #[test]
    fn clone_and_clone_from_replay_bit_identically() {
        let g = diamond();
        let mut e = engine(g.clone(), AsId(4), 11);
        e.start();
        e.run_to_quiescence(None);
        let ck = e.clone();
        let arena_at_ck = e.paths().node_count();

        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        let play = |e: &mut Engine<BgpRouter>| {
            e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
            e.run_to_quiescence(None);
            e.inject_after(SimDuration::from_secs(5), ScenarioEvent::RecoverLink(id));
            e.run_to_quiescence(None);
            let hops: Vec<Option<AsId>> = g
                .ases()
                .map(|v| e.router(v).next_hop(PrefixId(0)))
                .collect();
            (hops, *e.stats(), e.now(), e.paths().node_count())
        };
        let first = play(&mut e);
        assert!(
            e.paths().node_count() >= arena_at_ck,
            "replay only appends to the arena"
        );

        // Rewind onto the copy: the arena forgets what the play interned.
        e.clone_from(&ck);
        assert_eq!(
            e.paths().node_count(),
            arena_at_ck,
            "arena rewound to the copy's"
        );
        let second = play(&mut e);
        assert_eq!(first, second, "same-engine replay diverged");

        // A fresh engine with an empty arena adopts the copy's and
        // replays identically.
        let mut f = engine(g.clone(), AsId(4), 11);
        f.clone_from(&ck);
        assert_eq!(
            f.paths().node_count(),
            arena_at_ck,
            "arena copied from the checkpoint"
        );
        let third = play(&mut f);
        assert_eq!(first, third, "fresh-engine replay diverged");

        // clone_from into a used engine reuses its buffers and captures
        // state a further clone_from reproduces exactly.
        f.clone_from(&ck);
        let mut ck2 = e.clone();
        ck2.clone_from(&f);
        let mut h = engine(g.clone(), AsId(4), 11);
        h.clone_from(&ck2);
        assert_eq!(play(&mut h), first, "copy-of-a-copy replay diverged");

        // And a plain fork continues like the engine it left.
        assert_eq!(play(&mut ck.clone()), first, "fork replay diverged");
    }

    /// `clone_from` is total: a source on another topology is adopted
    /// whole, feed shape included, and runs.
    #[test]
    fn clone_from_an_engine_on_another_topology_adopts_it() {
        let mut wide = engine(diamond(), AsId(4), 3);
        wide.start();
        wide.run_to_quiescence(None);
        let mut c = FeedCursor::default();
        wide.touched_since(&mut c);
        let mut b = GraphBuilder::new();
        b.preregister(2);
        b.customer_of(1, 0).unwrap();
        let narrow = engine(b.build().unwrap(), AsId(1), 3);
        wide.clone_from(&narrow);
        assert_eq!(wide.topology().n(), 2);
        assert_eq!(wide.touched_since(&mut c), Touched::All);
        wide.start();
        assert_eq!(wide.run_to_quiescence(None), RunOutcome::Converged);
        assert_eq!(wide.router(AsId(0)).next_hop(PrefixId(0)), Some(AsId(1)));
        assert!(matches!(wide.touched_since(&mut c), Touched::Rows(..)));
    }

    /// The live policy regime is run state: a flip is rewound with the
    /// rest, and a fork taken after it carries it.
    #[test]
    fn a_policy_flip_is_copied_and_rewound_like_any_other_state() {
        let idx = stamp_policy::PolicyRegime::index_of("shortest-path").unwrap();
        let mut e = engine(diamond(), AsId(4), 11);
        e.start();
        e.run_to_quiescence(None);
        let ck = e.clone();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FlipPolicy(idx));
        e.run_to_quiescence(None);
        assert_eq!(e.policy.name(), "shortest-path");
        assert_eq!(e.clone().policy.name(), "shortest-path");
        assert_eq!(ck.policy.name(), "gao-rexford", "the fork never saw it");
        e.clone_from(&ck);
        assert_eq!(e.policy.name(), "gao-rexford");
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests::{diamond, engine};
    use super::*;
    use crate::router::BgpRouter;
    use stamp_topology::{GraphBuilder, StaticRoutes};

    /// Two prefixes from two different origins converge concurrently and
    /// independently.
    #[test]
    fn multi_prefix_convergence() {
        let mut b = GraphBuilder::new();
        b.preregister(6);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(5, 3).unwrap();
        let g = b.build().unwrap();
        let p0 = PrefixId(0);
        let p1 = PrefixId(1);
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(3), |v| {
            let own = match v.0 {
                4 => vec![p0],
                5 => vec![p1],
                _ => vec![],
            };
            BgpRouter::new(v, own)
        });
        e.start();
        e.run_to_quiescence(None);
        for (prefix, origin) in [(p0, AsId(4)), (p1, AsId(5))] {
            let truth = StaticRoutes::compute(&g, origin);
            for v in g.ases() {
                assert_eq!(
                    e.router(v).next_hop(prefix),
                    truth.route(v).and_then(|r| r.next_hop),
                    "prefix {prefix:?} router {v}"
                );
            }
        }
    }

    /// What every resident baseline holds per route, and what every
    /// queued message costs: a route is two 4-byte arena handles (path,
    /// root cause) plus its attribute bits. An MRAI slot is a parked
    /// message beside its timer's 16-byte scheduler place; a quiescent
    /// engine holds none (`a_quiescent_engine_holds_no_mrai_slots`).
    #[test]
    fn a_route_and_what_carries_it_stay_compact() {
        use crate::rib::RibEntry;
        use crate::router::Selection;
        use std::mem::size_of;
        assert_eq!(size_of::<Option<crate::patharena::CauseId>>(), 4);
        assert_eq!(size_of::<Route>(), 24);
        assert_eq!(size_of::<RibEntry>(), 32);
        assert_eq!(size_of::<Selection>(), 32);
        assert_eq!(size_of::<UpdateMsg>(), 32);
        assert_eq!(size_of::<MraiSlot>(), 48);
        assert!(size_of::<Event>() <= 48, "{} B", size_of::<Event>());
    }

    /// MRAI rows hold slots only between a timer's arming and the next
    /// quiescence: mid-convergence some do, at quiescence none does — with
    /// two prefixes sharing every
    /// row, after cold convergence and after a link fails and recovers —
    /// so a copy of a quiescent engine allocates no rows. The engine that
    /// converged keeps each lapsed row's buffer, grown exactly: at most
    /// one slot per prefix.
    #[test]
    fn a_quiescent_engine_holds_no_mrai_slots() {
        let g = diamond();
        let cfg = EngineConfig {
            seed: 9,
            ..EngineConfig::default()
        };
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), cfg, |v| {
            let own = match v.0 {
                4 => vec![PrefixId(0)],
                0 => vec![PrefixId(1)],
                _ => vec![],
            };
            BgpRouter::new(v, own)
        });
        let live = |e: &Engine<BgpRouter>| e.mrai.iter().filter(|row| !row.is_empty()).count();
        e.start();
        e.run_to_quiescence(Some(SimTime::ZERO + SimDuration::from_secs(1)));
        assert!(live(&e) > 0, "timers are armed while updates still flow");
        assert!(e.mrai.iter().any(|row| row.len() == 2), "rows are shared");
        assert!(e.run_to_quiescence(None).is_converged());
        assert_eq!(live(&e), 0);
        let per_prefix = |e: &Engine<BgpRouter>| e.mrai.iter().all(|row| row.capacity() <= 2);
        assert!(per_prefix(&e), "lapsed rows keep one slot per prefix");
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.inject_after(SimDuration::from_secs(5), ScenarioEvent::RecoverLink(id));
        assert!(e.run_to_quiescence(None).is_converged());
        assert_eq!(live(&e), 0);
        assert!(per_prefix(&e));
        assert!(e.clone().mrai.is_empty(), "a quiescent copy takes no table");
        // A rewind onto a quiescent copy empties every row and keeps its
        // buffer; replaying the same events from there re-arms the same
        // rows in those buffers, so no row is allocated or grown.
        let quiet = e.clone();
        let buffers = |e: &Engine<BgpRouter>| -> Vec<(usize, *const MraiSlot)> {
            e.mrai
                .iter()
                .map(|row| (row.capacity(), row.as_ptr()))
                .collect()
        };
        let before = buffers(&e);
        assert_eq!(before.len(), e.channels.len());
        assert!(before.iter().any(|&(cap, _)| cap > 0));
        e.clone_from(&quiet);
        assert_eq!(live(&e), 0);
        assert_eq!(buffers(&e), before, "rows are emptied, not dropped");
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(Some(e.now() + SimDuration::from_secs(3)));
        assert!(live(&e) > 0, "the replay re-armed timers");
        assert_eq!(buffers(&e), before, "re-arming allocated no row");
        // A rewind onto an armed source takes its rows, still in place.
        let armed = e.clone();
        assert_eq!(live(&armed), live(&e));
        e.clone_from(&quiet);
        e.clone_from(&armed);
        assert_eq!(live(&e), live(&armed));
        assert_eq!(buffers(&e), before);
    }

    /// A BGP session reset (§2.2's "routing event" example): the link drops
    /// and comes back shortly after; the network must return to the exact
    /// pre-reset state.
    #[test]
    fn session_reset_returns_to_original_state() {
        let mut b = GraphBuilder::new();
        b.preregister(5);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        let g = b.build().unwrap();
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(5), |v| {
            BgpRouter::new(
                v,
                if v == AsId(4) {
                    vec![PrefixId(0)]
                } else {
                    vec![]
                },
            )
        });
        e.start();
        e.run_to_quiescence(None);
        let before: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        // Reset: down now, back up 30 simulated seconds later.
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.inject_after(SimDuration::from_secs(31), ScenarioEvent::RecoverLink(id));
        e.run_to_quiescence(None);
        let after: Vec<Option<AsId>> = g
            .ases()
            .map(|v| e.router(v).next_hop(PrefixId(0)))
            .collect();
        assert_eq!(before, after, "session reset must be fully transparent");
    }

    /// Failing an already-dead link or recovering a live one is a no-op.
    #[test]
    fn idempotent_scenario_events() {
        let mut b = GraphBuilder::new();
        b.preregister(3);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        let g = b.build().unwrap();
        let mut e: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(7), |v| {
            BgpRouter::new(
                v,
                if v == AsId(2) {
                    vec![PrefixId(0)]
                } else {
                    vec![]
                },
            )
        });
        e.start();
        e.run_to_quiescence(None);
        let id = g.link_between(AsId(2), AsId(1)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::RecoverLink(id)); // live: no-op
        e.inject_after(SimDuration::from_secs(2), ScenarioEvent::FailLink(id));
        e.inject_after(SimDuration::from_secs(3), ScenarioEvent::FailLink(id)); // dead: no-op
        e.run_to_quiescence(None);
        assert_eq!(e.router(AsId(1)).next_hop(PrefixId(0)), None);
        assert_eq!(e.router(AsId(0)).next_hop(PrefixId(0)), None);
    }

    /// Message-loss fault injection: with lossy sessions the protocol can
    /// converge to a degraded state, but the engine itself stays sound
    /// (delivers or drops every message, terminates).
    #[test]
    fn lossy_sessions_terminate() {
        let mut b = GraphBuilder::new();
        b.preregister(5);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        let g = b.build().unwrap();
        let cfg = EngineConfig {
            sessions: SessionModel {
                loss: LossModel {
                    drop_probability: 0.3,
                },
                ..SessionModel::fast()
            },
            ..EngineConfig::fast(9)
        };
        let mut e: Engine<BgpRouter> = Engine::new(g, cfg, |v| {
            BgpRouter::new(
                v,
                if v == AsId(4) {
                    vec![PrefixId(0)]
                } else {
                    vec![]
                },
            )
        });
        e.start();
        let outcome = e.run_to_quiescence(Some(SimTime::from_secs(3600)));
        assert_eq!(outcome, RunOutcome::Converged);
        let stats = *e.stats();
        assert!(stats.dropped > 0, "loss injection must drop something");
        // `dropped` counts loss-injected messages (never transmitted) as
        // well as in-flight losses, so it can exceed sent − delivered; the
        // sound accounting bound is delivered ≤ sent.
        assert!(
            stats.delivered <= stats.announcements_sent + stats.withdrawals_sent,
            "delivered {} > sent {}",
            stats.delivered,
            stats.announcements_sent + stats.withdrawals_sent
        );
    }

    // ------------------------------------------------------------------
    // Convergence watchdog + adversarial scenario events
    // ------------------------------------------------------------------

    /// The dispute-wheel gadget: origin `3` is a customer of `0`, `1`, `2`,
    /// which form a peering triangle. Under `naive-prefer-peer` (peer >
    /// customer with plain valley-free export) and the `fast` config's
    /// synchronous dynamics (fixed delay, no MRAI) the triangle announces,
    /// adopts and withdraws peer routes in perfect lockstep forever —
    /// Griffin's BAD GADGET, which has no stable state.
    fn gadget() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.peering(1, 2).unwrap();
        b.peering(0, 2).unwrap();
        b.customer_of(3, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.build().unwrap()
    }

    fn naive_engine(seed: u64) -> Engine<BgpRouter> {
        naive_engine_with(seed, SessionModel::fast())
    }

    fn naive_engine_with(seed: u64, sessions: SessionModel) -> Engine<BgpRouter> {
        let cfg = EngineConfig {
            policy: stamp_policy::PolicyRegime::by_name("naive-prefer-peer")
                .unwrap()
                .compile()
                .unwrap(),
            watchdog: WatchdogConfig {
                arm_after: SimDuration::from_secs(10),
                sample_every: SimDuration::from_secs(1),
                max_events: 10_000_000,
            },
            sessions,
            ..EngineConfig::fast(seed)
        };
        Engine::new(gadget(), cfg, |v| {
            let own = if v == AsId(3) {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            BgpRouter::new(v, own)
        })
    }

    #[test]
    fn bad_gadget_terminates_diverged() {
        let mut e = naive_engine(7);
        e.start();
        let outcome = e.run_to_quiescence(Some(SimTime::from_secs(3600)));
        match outcome {
            RunOutcome::Diverged { period, churn } => {
                assert!(period > SimDuration::ZERO);
                assert!(churn > 0, "a cycle with no events is impossible");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        // Bounded sim time: detection well before the deadline.
        assert!(e.now() < SimTime::from_secs(60));
    }

    /// Under the paper's jittered delays and MRAI the wheel still turns:
    /// most timers carry an update, and those that lapse do not hide the
    /// cycle from the watchdog.
    #[test]
    fn bad_gadget_diverges_under_the_paper_session_model() {
        for seed in [7, 8] {
            let mut e = naive_engine_with(seed, SessionModel::paper());
            e.start();
            match e.run_to_quiescence(Some(SimTime::from_secs(3600))) {
                RunOutcome::Diverged { period, churn } => {
                    assert!(period > SimDuration::ZERO);
                    assert!(churn > 0, "a cycle with no events is impossible");
                }
                other => panic!("seed {seed}: expected Diverged, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_gadget_divergence_is_seed_deterministic() {
        let run = |seed| {
            let mut e = naive_engine(seed);
            e.start();
            let o = e.run_to_quiescence(Some(SimTime::from_secs(3600)));
            (o, *e.stats(), e.now())
        };
        assert_eq!(run(7), run(7));
        // A different seed still diverges (fixed delays: identical
        // dynamics), and the detector reports the same shape.
        assert_eq!(run(7).0, run(8).0);
    }

    #[test]
    fn default_regime_on_gadget_converges() {
        // Same topology, default (gao-rexford) policy: customer routes
        // win, no wheel — the watchdog must stay silent.
        let mut e = engine(gadget(), AsId(3), 7);
        e.start();
        assert_eq!(e.run_to_quiescence(None), RunOutcome::Converged);
    }

    #[test]
    fn event_budget_backstops_divergence() {
        let mut e = naive_engine(7);
        // A watchdog that never arms leaves only the event budget.
        Arc::get_mut(&mut e.fixed).unwrap().watchdog = WatchdogConfig {
            arm_after: SimDuration::from_secs(1_000_000),
            sample_every: SimDuration::from_secs(1),
            max_events: 50_000,
        };
        e.start();
        let outcome = e.run_to_quiescence(None);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert!(e.stats().events >= 50_000);
    }

    #[test]
    fn origin_hijack_captures_traffic() {
        let g = diamond();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        // 3 forges origination of 4's prefix. 1's honest route already
        // goes via customer 3 ([3, 4]); the forged [3] lands in the same
        // (prefix, neighbour) RIB slot and replaces it.
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::Hijack {
                attacker: AsId(3),
                prefix: PrefixId(0),
                forged_origin: None,
            },
        );
        let outcome = e.run_to_quiescence(None);
        assert_eq!(outcome, RunOutcome::Converged);
        // 1 still forwards to 3 (the attacker), but 3 now claims origin:
        // its own selection dropped the honest route? No — the forged
        // announcement went *out* from 3; 3's own state is untouched.
        assert_eq!(e.router(AsId(3)).next_hop(PrefixId(0)), Some(AsId(4)));
        // The poisoned path is what 1 believes: [3], not [3, 4].
        let sel = e.router(AsId(1)).selection(PrefixId(0));
        let path = sel.path_id().map(|p| e.paths().as_vec(p)).unwrap();
        assert_eq!(path, vec![AsId(3)]);
    }

    #[test]
    fn prepend_hijack_keeps_origin_on_path() {
        let g = diamond();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        // 2 forges the edge 2→4 (it has a real route via 4, so the forged
        // path equals the honest one here; the point is the mechanics).
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::Hijack {
                attacker: AsId(2),
                prefix: PrefixId(0),
                forged_origin: Some(AsId(4)),
            },
        );
        let outcome = e.run_to_quiescence(None);
        assert_eq!(outcome, RunOutcome::Converged);
        let sel = e.router(AsId(0)).selection(PrefixId(0));
        let path = sel.path_id().map(|p| e.paths().as_vec(p)).unwrap();
        assert_eq!(path, vec![AsId(2), AsId(4)]);
    }

    #[test]
    fn hijack_from_dead_node_is_noop() {
        let g = diamond();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailNode(AsId(3)));
        e.run_to_quiescence(None);
        let sent_before = e.stats().announcements_sent;
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::Hijack {
                attacker: AsId(3),
                prefix: PrefixId(0),
                forged_origin: None,
            },
        );
        e.run_to_quiescence(None);
        assert_eq!(e.stats().announcements_sent, sent_before);
    }

    #[test]
    fn route_leak_spreads_against_export_gate() {
        // Fail link 2–4 so node 2's only route to the prefix arrives from
        // its *provider* 0 ([0, 1, 3, 4]). Gao–Rexford forbids exporting a
        // provider-learned route back toward a provider, so 0 is 2's only
        // neighbour and nothing observable changes — instead leak at 1:
        // after the failure 1 still holds the customer route [3, 4], so
        // use the peering edge. The cleanest violation on this topology:
        // fail 3–4, leaving 1 with only the *peer*-learned route via 0;
        // a leak at 1 then re-exports it to customer 3, which is legal,
        // and to no one else. So instead assert the direct mechanical
        // contract: a leak at 3 (selection [4] from customer 4) transmits
        // [3, 4] to provider 1 bypassing rib_out, and the network
        // re-converges to the same state (the leaked copy is what 1
        // already believes).
        let g = diamond();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        let before = e.router(AsId(1)).selection(PrefixId(0)).path_id();
        let sent_before = e.stats().announcements_sent;
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::Leak {
                leaker: AsId(3),
                prefix: PrefixId(0),
            },
        );
        let outcome = e.run_to_quiescence(None);
        assert_eq!(outcome, RunOutcome::Converged);
        // The leak really hit the wire...
        assert!(e.stats().announcements_sent > sent_before);
        // ...and the re-imported duplicate left the selection unchanged.
        assert_eq!(e.router(AsId(1)).selection(PrefixId(0)).path_id(), before);
    }

    #[test]
    fn leak_with_no_learned_route_is_noop() {
        let g = diamond();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        let sent_before = e.stats().announcements_sent;
        // 4 originates the prefix: nothing learned, nothing to leak.
        e.inject_after(
            SimDuration::from_secs(1),
            ScenarioEvent::Leak {
                leaker: AsId(4),
                prefix: PrefixId(0),
            },
        );
        e.run_to_quiescence(None);
        assert_eq!(e.stats().announcements_sent, sent_before);
    }

    #[test]
    fn policy_flip_applies_to_future_updates() {
        let idx = stamp_policy::PolicyRegime::index_of("naive-prefer-peer").unwrap();
        let mut e = naive_engine(11);
        // Start under the default regime instead: flip mid-run.
        e.policy = Arc::new(CompiledRegime::default_static().clone());
        e.start();
        assert_eq!(e.run_to_quiescence(None), RunOutcome::Converged);
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FlipPolicy(idx));
        // Kick the network so the new regime is exercised: restart the
        // origin. Its recovery re-announces [3] to all three providers in
        // one batch — the same synchronous start that drives the wheel.
        e.inject_after(SimDuration::from_secs(2), ScenarioEvent::FailNode(AsId(3)));
        e.inject_after(
            SimDuration::from_secs(3),
            ScenarioEvent::RecoverNode(AsId(3)),
        );
        let outcome = e.run_to_quiescence(Some(SimTime::from_secs(7200)));
        // Under naive-prefer-peer the kicked triangle re-enters the wheel.
        assert!(
            outcome.is_diverged(),
            "expected post-flip divergence, got {outcome:?}"
        );
    }

    #[test]
    fn fingerprint_is_stable_across_equal_states() {
        let run = |seed| {
            let mut e = engine(diamond(), AsId(4), seed);
            e.start();
            e.run_to_quiescence(None);
            e.fingerprint().value()
        };
        // Different seeds draw different delays but settle into the same
        // routing state: equal fingerprints.
        assert_eq!(run(1), run(2));
        assert_ne!(run(1), 0);
    }

    /// The ASes marked since `c` last looked, sorted; panics on "all".
    fn marked<R: RouterLogic>(e: &Engine<R>, c: &mut FeedCursor) -> Vec<u32> {
        match e.touched_since(c) {
            Touched::All => panic!("expected a row list, got the whole table"),
            Touched::Rows(a, b) => {
                let mut v: Vec<u32> = a.iter().chain(b).map(|x| x.0).collect();
                v.sort_unstable();
                v
            }
        }
    }

    #[test]
    fn liveness_events_mark_the_rows_that_read_them_and_nothing_else() {
        let g = diamond();
        let l42 = g.link_between(AsId(4), AsId(2)).unwrap();
        let mut e = engine(g, AsId(4), 3);
        e.start();
        e.run_to_quiescence(None);
        let mut c = FeedCursor::default();
        assert_eq!(e.touched_since(&mut c), Touched::All);
        assert!(marked(&e, &mut c).is_empty());

        // A link failure: its two endpoints (both also run `on_link_down`).
        e.handle_scenario(ScenarioEvent::FailLink(l42));
        assert_eq!(marked(&e, &mut c), vec![2, 4]);
        // An already-down link: nothing.
        e.handle_scenario(ScenarioEvent::FailLink(l42));
        assert!(marked(&e, &mut c).is_empty());
        // The withdrawals now in flight mark whoever processes them.
        e.run_to_quiescence(None);
        assert!(!marked(&e, &mut c).is_empty());

        // A node failure: the node and its live neighbours. 2's link to 4
        // is down, so only 0 still had a session with it.
        e.handle_scenario(ScenarioEvent::FailNode(AsId(2)));
        assert_eq!(marked(&e, &mut c), vec![0, 2]);
        e.run_to_quiescence(None);
        marked(&e, &mut c);
        // Repairing a link whose endpoint is dead establishes no session.
        e.handle_scenario(ScenarioEvent::RecoverLink(l42));
        assert!(marked(&e, &mut c).is_empty());
        // The node returns: itself and both neighbours, 4 included now.
        e.handle_scenario(ScenarioEvent::RecoverNode(AsId(2)));
        assert_eq!(marked(&e, &mut c), vec![0, 2, 4]);
    }

    /// Plain BGP declaring what it does not do: `P` processes, of which it
    /// runs one, and, when `WIDE`, rows that read liveness beyond their own
    /// sessions.
    #[derive(Clone)]
    struct Declares<const P: usize, const WIDE: bool>(BgpRouter);

    impl<const P: usize, const WIDE: bool> RouterLogic for Declares<P, WIDE> {
        const PROCS: usize = P;
        const WIDE_LIVENESS: bool = WIDE;

        fn on_start(&mut self, ctx: &mut RouterCtx) {
            self.0.on_start(ctx);
        }
        fn on_update(&mut self, ctx: &mut RouterCtx, from: usize, proc: ProcId, msg: UpdateMsg) {
            self.0.on_update(ctx, from, proc, msg);
        }
        fn on_link_down(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo) {
            self.0.on_link_down(ctx, slot, cause);
        }
        fn on_link_up(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo) {
            self.0.on_link_up(ctx, slot, cause);
        }
        fn fingerprint(&self, fp: &mut StateFingerprint) {
            self.0.fingerprint(fp);
        }
        fn speaker(&self) -> &crate::speaker::Speaker {
            self.0.speaker()
        }
    }

    #[test]
    fn a_wide_router_loses_every_cursor_on_liveness_flips_and_restores_only() {
        let g = diamond();
        let l42 = g.link_between(AsId(4), AsId(2)).unwrap();
        let mut e = Engine::new(g, EngineConfig::fast(3), |v| {
            let own = if v == AsId(4) {
                vec![PrefixId(0)]
            } else {
                vec![]
            };
            Declares::<1, true>(BgpRouter::new(v, own))
        });
        e.start();
        e.run_to_quiescence(None);
        let ck = e.clone();
        let (mut c, mut other) = (FeedCursor::default(), FeedCursor::default());
        e.touched_since(&mut c);
        e.touched_since(&mut other);
        // A link flip loses every cursor, not only its endpoints' rows.
        e.handle_scenario(ScenarioEvent::FailLink(l42));
        assert_eq!(e.touched_since(&mut c), Touched::All);
        assert_eq!(e.touched_since(&mut other), Touched::All);
        // An already-down link flips nothing.
        e.handle_scenario(ScenarioEvent::FailLink(l42));
        assert!(marked(&e, &mut c).is_empty());
        // Plain BGP clears nothing between phases: nothing marked.
        e.reset_measurement();
        assert!(marked(&e, &mut c).is_empty());
        // The withdrawals in flight mark whoever processes them.
        e.run_to_quiescence(None);
        assert!(!marked(&e, &mut c).is_empty());
        // So does a node flip, and the deliveries after it report rows.
        e.handle_scenario(ScenarioEvent::FailNode(AsId(3)));
        assert_eq!(e.touched_since(&mut c), Touched::All);
        e.run_to_quiescence(None);
        marked(&e, &mut c);
        // A fork taken now honours cursors advanced on the original.
        let (fork, mut on_fork) = (e.clone(), c);
        assert!(marked(&fork, &mut on_fork).is_empty());
        // A rewind rewrites every router behind the feed's back.
        e.clone_from(&ck);
        assert_eq!(e.touched_since(&mut c), Touched::All);
    }

    /// Channel and MRAI rows after a converge, a failure and a repair
    /// under the paper's MRAI, which arms the table.
    fn table_rows<R: RouterLogic>(g: &AsGraph, make: fn(AsId, Vec<PrefixId>) -> R) -> [usize; 2] {
        let cfg = EngineConfig {
            seed: 5,
            ..EngineConfig::default()
        };
        let origin = AsId(4);
        let mut e = Engine::new(g.clone(), cfg, |v| {
            make(
                v,
                if v == origin {
                    vec![PrefixId(0)]
                } else {
                    vec![]
                },
            )
        });
        e.start();
        e.run_to_quiescence(None);
        let l42 = g.link_between(AsId(4), AsId(2)).unwrap();
        e.handle_scenario(ScenarioEvent::FailLink(l42));
        e.run_to_quiescence(None);
        e.handle_scenario(ScenarioEvent::RecoverLink(l42));
        e.run_to_quiescence(None);
        [e.channels.len(), e.mrai.len()]
    }

    #[test]
    fn an_engine_holds_one_channel_per_session_and_declared_process() {
        let g = diamond();
        let n = g.n_sessions();
        assert_eq!(table_rows(&g, BgpRouter::new), [n, n]);
        let two = |v, own| Declares::<2, false>(BgpRouter::new(v, own));
        assert_eq!(table_rows(&g, two), [2 * n, 2 * n]);
    }
}
