//! The per-AS router abstraction and the unmodified-BGP baseline.
//!
//! Each AS is a single router (the paper models one node per AS, eBGP only).
//! A protocol implements [`RouterLogic`]; the engine owns one logic instance
//! per AS, delivers messages/failures to it and collects the updates it
//! wants sent. Plain BGP ([`BgpRouter`]) is the baseline the paper measures
//! against: a [`Speaker`] with nothing added, the same speaker R-BGP and
//! STAMP build on.
//!
//! A router names a neighbour one way: by its *slot*, the position of its
//! session in [`RouterCtx::neighbors`]. Updates arrive and link events fire
//! with the slot, which the engine resolves once where it holds the link or
//! the session; the session slice is the only part of the topology a
//! router sees.

use crate::patharena::{PathArena, PathId};
use crate::rib::DecisionOutcome;
use crate::speaker::Speaker;
use crate::types::{CauseInfo, PrefixId, ProcId, Route, UpdateKind, UpdateMsg};
use stamp_eventsim::{clone_in_place, Fnv1a};
use stamp_policy::CompiledRegime;
use stamp_topology::{AsGraph, AsId, Relation, SessEntry, SessId};

/// An update a router wants delivered to a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutMsg {
    /// The receiving neighbour.
    pub to: AsId,
    /// The directed session to `to` the update leaves on.
    pub sess: SessId,
    pub proc: ProcId,
    pub msg: UpdateMsg,
}

/// Session liveness view handed to routers (owned by the engine).
pub trait SessionView {
    /// Is the session `e` (one of `from`'s session entries) up? The engine
    /// answers with flag reads off the entry's link id.
    fn session_entry_up(&self, from: AsId, e: &SessEntry) -> bool;
}

/// Everything a router may touch while handling an event.
pub struct RouterCtx<'a> {
    /// This router's AS.
    pub me: AsId,
    /// This router's directed-session slice (customers, peers, providers —
    /// each ascending): neighbour, relation and session id in one
    /// contiguous read. A neighbour's position here is its *slot*, the one
    /// name every event and every per-neighbour table uses for it, and the
    /// slice is all of the topology a router sees.
    pub neighbors: &'a [SessEntry],
    /// Liveness of adjacent sessions.
    pub sessions: &'a dyn SessionView,
    /// The engine-owned path arena: routers intern paths here when they
    /// originate or prepend, and read through it for decisions.
    pub arena: &'a mut PathArena,
    /// Updates to send (engine applies MRAI to announcements). The engine
    /// lends the same buffer to every event, so steady-state dispatch
    /// never allocates.
    pub out: Vec<OutMsg>,
    /// Set by the router whenever its forwarding state changed — the engine
    /// batches these to know when to re-run data-plane checks, and marks
    /// the AS in its touched feed.
    pub fib_changed: bool,
    /// Set by a router when something its forwarding rows read changed
    /// without a FIB change to report it — R-BGP's received failover paths,
    /// which its escape circuits read. The engine marks the AS in its
    /// touched feed, as for `fib_changed`, and calls no observer: only
    /// `fib_changed` decides when observers run, so a router never sets it
    /// for this (that would move every golden observed since).
    pub row_changed: bool,
    /// The compiled policy regime every import and export decision goes
    /// through (dense tables — see `stamp_policy`). The engine hands in
    /// its configured regime via [`RouterCtx::with_policy`];
    /// [`RouterCtx::new`] wires the default (`gao-rexford`).
    pub policy: &'a CompiledRegime,
}

impl<'a> RouterCtx<'a> {
    /// Fresh context for one event at router `me` of `topo`, under the
    /// default (`gao-rexford`) policy regime.
    pub fn new(
        me: AsId,
        topo: &'a AsGraph,
        sessions: &'a dyn SessionView,
        arena: &'a mut PathArena,
    ) -> RouterCtx<'a> {
        RouterCtx::with_policy(me, topo, sessions, arena, CompiledRegime::default_static())
    }

    /// Fresh context for one event at router `me` of `topo`, under
    /// `policy`. The context keeps `me`'s session slice, not the graph.
    pub fn with_policy(
        me: AsId,
        topo: &'a AsGraph,
        sessions: &'a dyn SessionView,
        arena: &'a mut PathArena,
        policy: &'a CompiledRegime,
    ) -> RouterCtx<'a> {
        RouterCtx {
            me,
            neighbors: topo.neighbor_entries(me),
            sessions,
            arena,
            out: Vec::new(),
            fib_changed: false,
            row_changed: false,
            policy,
        }
    }

    /// Queue an update on the session `to` (one of [`RouterCtx::neighbors`])
    /// on process `proc`.
    #[inline]
    pub fn send(&mut self, to: &SessEntry, proc: ProcId, msg: UpdateMsg) {
        self.out.push(OutMsg {
            to: to.neighbor,
            sess: to.sess,
            proc,
            msg,
        });
    }

    /// Is the session in `e` (one of [`RouterCtx::neighbors`]) up?
    #[inline]
    pub fn is_live(&self, e: &SessEntry) -> bool {
        self.sessions.session_entry_up(self.me, e)
    }

    /// Neighbours with a live session, with their slots, in deterministic
    /// order (the session slice's). The iterator borrows the underlying
    /// `'a` data, not the ctx, so callers can keep sending through the ctx
    /// while iterating — no per-call `Vec` any more.
    pub fn live_neighbors(&self) -> impl Iterator<Item = (usize, SessEntry)> + 'a {
        let me = self.me;
        let sessions = self.sessions;
        let live = move |(_, e): &(usize, &SessEntry)| sessions.session_entry_up(me, e);
        self.neighbors
            .iter()
            .enumerate()
            .filter(live)
            .map(|(slot, e)| (slot, *e))
    }

    /// Run the policy regime's import side on an announcement learned over
    /// `rel`: `None` means a `reject` rule fired and the route must not
    /// enter the RIB; otherwise the (possibly community-tagged) route and
    /// the local preference to store with it. Rule-free regimes reduce to
    /// one array read — the path-membership closure is never called.
    // simlint::hot
    pub fn import(&self, prefix: PrefixId, route: Route, rel: Relation) -> Option<(Route, u32)> {
        let arena: &PathArena = self.arena;
        let path_contains = |asn: u32| route.contains(arena, AsId(asn));
        let outcome = self.policy.import(&stamp_policy::ImportCtx {
            prefix: prefix.0,
            learned_from: rel,
            path_len: route.len(arena),
            communities: route.attrs.communities,
            path_contains: &path_contains,
        })?;
        let mut accepted = route;
        accepted.attrs.communities = outcome.communities;
        Some((accepted, outcome.pref))
    }

    /// The policy regime's export gate: may a route learned over `learned`
    /// (`None` = originated here) be announced toward a `to` neighbour?
    /// One 2-D array read plus a community-mask AND.
    // simlint::hot
    #[inline]
    pub fn export_ok(&self, learned: Option<Relation>, to: Relation, route: &Route) -> bool {
        self.policy
            .export_allowed(learned, to, route.attrs.communities)
    }
}

/// Order-independent accumulator for the convergence watchdog's periodic
/// best-route fingerprints (see DESIGN.md §15).
///
/// Routers fold one FNV-1a digest per selection record via
/// [`StateFingerprint::mix`]; `mix` is a wrapping add, so the fingerprint
/// is identical no matter in what order a router visits its records. Two
/// semantically equal global states therefore always produce equal
/// fingerprints, which is the property the oscillation detector rests on.
/// The empty fingerprint is `0`; the engine treats `0` as "no data" and
/// never declares divergence from it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StateFingerprint(u64);

impl StateFingerprint {
    /// Fresh (empty) accumulator.
    pub fn new() -> StateFingerprint {
        StateFingerprint(0)
    }

    /// FNV-1a digest of one state record (little-endian u64 words).
    pub fn digest(words: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Fold one record digest in (commutative).
    pub fn mix(&mut self, digest: u64) {
        self.0 = self.0.wrapping_add(digest);
    }

    /// The accumulated fingerprint (`0` when nothing was mixed in).
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Digest of one `(prefix, proc)` selection at router `me`, or `None`
    /// for [`Selection::None`] (absent and explicitly-empty selections must
    /// fingerprint identically — a row keeps the slot of a route it lost).
    /// Covers everything externally visible about the selection: the
    /// winning neighbour, the interned path identity and the attribute
    /// word, so any routing change moves the fingerprint.
    pub fn selection_digest(me: AsId, prefix: PrefixId, proc: u64, sel: &Selection) -> Option<u64> {
        match sel {
            Selection::None => None,
            Selection::Own => Some(StateFingerprint::digest(&[
                u64::from(me.0),
                u64::from(prefix.0),
                proc,
                1,
            ])),
            Selection::Learned(d) => Some(StateFingerprint::digest(&[
                u64::from(me.0),
                u64::from(prefix.0),
                proc,
                2,
                u64::from(d.neighbor.0),
                u64::from(d.route.path.raw()),
                route_attr_word(&d.route),
            ])),
        }
    }
}

/// The route's attributes packed into one digest word (path identity is
/// hashed separately).
pub fn route_attr_word(r: &Route) -> u64 {
    let et = match r.attrs.et {
        None => 0u64,
        Some(crate::types::EventType::Lost) => 1,
        Some(crate::types::EventType::NotLost) => 2,
    };
    u64::from(r.attrs.lock)
        | u64::from(r.attrs.failover) << 1
        | et << 2
        | r.attrs.communities.bits() << 4
}

/// Protocol logic of one AS. The engine is generic over this trait, so a
/// whole simulation runs one protocol (as in the paper: each experiment
/// compares protocol A's network against protocol B's network on identical
/// scenarios).
pub trait RouterLogic {
    /// Routing processes this protocol runs per AS: what its speaker and
    /// the engine's per-session tables are sized by.
    const PROCS: usize = 1;

    /// Called once at simulation start, after all routers exist.
    /// Originate own prefixes here.
    fn on_start(&mut self, ctx: &mut RouterCtx);

    /// An update arrived on process `proc` from the neighbour in slot
    /// `from` (`ctx.neighbors[from]` is its session entry).
    fn on_update(&mut self, ctx: &mut RouterCtx, from: usize, proc: ProcId, msg: UpdateMsg);

    /// The session to the neighbour in `slot` failed (local, instantaneous
    /// detection). `cause` is the sequence-numbered event record
    /// (RCI-aware protocols propagate it; others ignore it).
    fn on_link_down(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo);

    /// The session to the neighbour in `slot` came (back) up —
    /// re-advertise. `cause` records the recovery event (state `up =
    /// true`).
    fn on_link_up(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo);

    /// Fold a digest of this router's externally visible route selections
    /// into the convergence watchdog's fingerprint. Must be read-only and
    /// order-independent (mix per-record digests).
    fn fingerprint(&self, fp: &mut StateFingerprint);

    /// The BGP state of this AS — RIBs, selections, Adj-RIB-Out: the one
    /// way the engine, the data plane and any "why" read it from outside.
    fn speaker(&self) -> &Speaker;

    /// Clear what only measures the run so far, between convergence and
    /// the event under measurement; `true` iff anything was cleared (the
    /// engine marks the AS for observers). Default: nothing to clear.
    fn reset_measurement(&mut self) -> bool {
        false
    }

    /// Does a forwarding row of this AS read, right now, the liveness of
    /// sessions other than its own? Then the engine marks the AS on every
    /// link or node flip (`Engine::touched_since`). The engine asks after
    /// each event that set `fib_changed` or `row_changed`, so the answer
    /// may change only with one of them. Default: never — a row reads its
    /// own sessions, whose flips the engine marks anyway.
    fn reads_remote_liveness(&self) -> bool {
        false
    }
}

/// Current selection for one `(prefix, proc)` at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// No route.
    #[default]
    None,
    /// We originate this prefix.
    Own,
    /// Best learned route.
    Learned(DecisionOutcome),
}

impl Selection {
    /// Next hop for forwarding (`None` when we originate or have no route).
    pub fn next_hop(&self) -> Option<AsId> {
        match self {
            Selection::Learned(d) => Some(d.neighbor),
            _ => None,
        }
    }

    /// Whether any route (own or learned) is available.
    pub fn is_some(&self) -> bool {
        !matches!(self, Selection::None)
    }

    /// The relation the selection was learned over (`None` for own/none).
    pub fn learned_from(&self) -> Option<Relation> {
        match self {
            Selection::Learned(d) => Some(d.learned_from),
            _ => None,
        }
    }

    /// Arena handle of the selection's AS path as stored (receiver not
    /// included); resolve through the owning engine's [`PathArena`].
    pub fn path_id(&self) -> Option<PathId> {
        match self {
            Selection::Learned(d) => Some(d.route.path),
            _ => None,
        }
    }
}

/// Unmodified BGP: a [`Speaker`] running one process, with nothing added —
/// policy-driven decision and export gate (prefer-customer + valley-free
/// under the default regime), no extra attributes, every live neighbour
/// told in session order.
#[derive(Debug)]
pub struct BgpRouter {
    speaker: Speaker,
}

clone_in_place!(BgpRouter { speaker });

impl BgpRouter {
    /// Router for `me`, originating the given prefixes.
    #[inline]
    pub fn new(me: AsId, own: Vec<PrefixId>) -> BgpRouter {
        BgpRouter {
            speaker: Speaker::new(me, own, Self::PROCS),
        }
    }

    /// Current selection for a prefix.
    pub fn selection(&self, prefix: PrefixId) -> &Selection {
        self.speaker.selection(prefix, ProcId::ONLY)
    }

    /// Next hop for a prefix (`None` = no route or self-originated).
    pub fn next_hop(&self, prefix: PrefixId) -> Option<AsId> {
        self.selection(prefix).next_hop()
    }

    /// Does this router originate `prefix`?
    pub fn originates(&self, prefix: PrefixId) -> bool {
        self.speaker.originates(prefix)
    }

    /// Run the decision process and, if the selection changed, bring every
    /// live neighbour in line with it.
    fn reselect(&mut self, ctx: &mut RouterCtx, prefix: PrefixId) {
        let new = self.speaker.decide(ctx, prefix, ProcId::ONLY);
        if !self.speaker.install(prefix, ProcId::ONLY, new) {
            return;
        }
        // Forwarding changes exactly when the next hop (or availability)
        // changes; conservatively flag on any selection change.
        ctx.fib_changed = true;
        for (slot, _) in ctx.live_neighbors() {
            self.advertise(ctx, prefix, slot);
        }
    }

    /// Tell the neighbour in `slot` what the export rule allows.
    fn advertise(&mut self, ctx: &mut RouterCtx, prefix: PrefixId, slot: usize) {
        let want = self.speaker.export(ctx, prefix, ProcId::ONLY, slot);
        self.speaker
            .advertise(ctx, slot, prefix, ProcId::ONLY, want, |_| {});
    }
}

impl RouterLogic for BgpRouter {
    fn on_start(&mut self, ctx: &mut RouterCtx) {
        // No allocation unless this AS originates something.
        for prefix in self.speaker.own().to_vec() {
            self.reselect(ctx, prefix);
        }
    }

    fn on_update(&mut self, ctx: &mut RouterCtx, from: usize, _proc: ProcId, msg: UpdateMsg) {
        match msg.kind {
            UpdateKind::Announce(route) => {
                self.speaker
                    .learn(ctx, from, ProcId::ONLY, msg.prefix, route)
            }
            UpdateKind::Withdraw(_) => self.speaker.unlearn(from, ProcId::ONLY, msg.prefix),
        }
        self.reselect(ctx, msg.prefix);
    }

    fn on_link_down(&mut self, ctx: &mut RouterCtx, slot: usize, _cause: CauseInfo) {
        // One process: the affected keys are distinct ascending prefixes.
        for (p, _) in self.speaker.session_down(slot) {
            self.reselect(ctx, p);
        }
    }

    fn on_link_up(&mut self, ctx: &mut RouterCtx, slot: usize, _cause: CauseInfo) {
        // Fresh session: the neighbour has none of our state. Re-advertise
        // the current best for every known prefix.
        self.speaker.forget_heard(slot);
        for prefix in self.speaker.known_prefixes() {
            self.advertise(ctx, prefix, slot);
        }
    }

    fn fingerprint(&self, fp: &mut StateFingerprint) {
        self.speaker.fingerprint(fp);
    }

    fn speaker(&self) -> &Speaker {
        &self.speaker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WithdrawInfo;
    use stamp_topology::GraphBuilder;

    struct AllUp;
    impl SessionView for AllUp {
        fn session_entry_up(&self, _from: AsId, _e: &SessEntry) -> bool {
            true
        }
    }

    /// 0 tier-1; 1, 2 customers of 0; 3 customer of 1 and 2.
    fn g() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.build().unwrap()
    }

    const P: PrefixId = PrefixId(0);

    /// The slot AS `me` hears AS `n` on.
    fn slot(g: &AsGraph, me: u32, n: u32) -> usize {
        g.slot_between(AsId(me), AsId(n)).unwrap()
    }

    fn announce(a: &mut PathArena, path: &[u32]) -> UpdateMsg {
        let ids: Vec<AsId> = path.iter().map(|&x| AsId(x)).collect();
        UpdateMsg {
            prefix: P,
            kind: UpdateKind::Announce(Route {
                path: a.intern_slice(&ids),
                attrs: Default::default(),
            }),
        }
    }

    fn ids(v: &[u32]) -> Vec<AsId> {
        v.iter().map(|&x| AsId(x)).collect()
    }

    fn test_cause() -> CauseInfo {
        CauseInfo {
            cause: crate::types::RootCause::link(AsId(3), AsId(1)),
            seq: 1,
            up: false,
        }
    }

    fn withdraw() -> UpdateMsg {
        UpdateMsg {
            prefix: P,
            kind: UpdateKind::Withdraw(WithdrawInfo::default()),
        }
    }

    #[test]
    fn origin_announces_to_all_neighbors() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = BgpRouter::new(AsId(3), vec![P]);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_start(&mut ctx);
        let mut tos: Vec<AsId> = ctx.out.iter().map(|m| m.to).collect();
        tos.sort();
        assert_eq!(tos, vec![AsId(1), AsId(2)]);
        for m in &ctx.out {
            match &m.msg.kind {
                UpdateKind::Announce(r) => {
                    assert_eq!(ctx.arena.as_vec(r.path), vec![AsId(3)])
                }
                _ => panic!("expected announce"),
            }
        }
        assert!(ctx.fib_changed);
    }

    #[test]
    fn customer_route_propagates_everywhere() {
        let g = g();
        let mut a = PathArena::new();
        // Router 1 learns prefix from customer 3; must export to provider 0.
        let mut r = BgpRouter::new(AsId(1), vec![]);
        let m = announce(&mut a, &[3]);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), ProcId::ONLY, m);
        assert_eq!(ctx.out.len(), 1);
        assert_eq!(ctx.out[0].to, AsId(0));
        match &ctx.out[0].msg.kind {
            UpdateKind::Announce(route) => {
                assert_eq!(ctx.arena.as_vec(route.path), ids(&[1, 3]));
            }
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn provider_route_only_exported_to_customers() {
        let g = g();
        let mut a = PathArena::new();
        // Router 1 learns the prefix from its *provider* 0; it must export
        // to customer 3 but not back to 0.
        let mut r = BgpRouter::new(AsId(1), vec![]);
        let m = announce(&mut a, &[0, 2, 9]);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 0), ProcId::ONLY, m);
        assert_eq!(ctx.out.len(), 1);
        assert_eq!(ctx.out[0].to, AsId(3));
    }

    #[test]
    fn no_reannounce_when_selection_unchanged() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = BgpRouter::new(AsId(1), vec![]);
        let m = announce(&mut a, &[3]);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), ProcId::ONLY, m);
        assert_eq!(ctx.out.len(), 1);
        drop(ctx);
        // Same announcement again: selection unchanged, nothing sent.
        let mut ctx2 = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx2, slot(&g, 1, 3), ProcId::ONLY, m);
        assert!(ctx2.out.is_empty());
        assert!(!ctx2.fib_changed);
    }

    #[test]
    fn withdraw_falls_back_to_alternative() {
        let g = g();
        let mut a = PathArena::new();
        // Router 3 hears the prefix from both providers 1 and 2.
        let mut r = BgpRouter::new(AsId(3), vec![]);
        let m1 = announce(&mut a, &[1, 0, 9]);
        let m2 = announce(&mut a, &[2, 0, 9]);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), ProcId::ONLY, m1);
        assert_eq!(r.next_hop(P), Some(AsId(1)));
        drop(ctx);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 2), ProcId::ONLY, m2);
        // 1 still wins the lowest-id tiebreak.
        assert_eq!(r.next_hop(P), Some(AsId(1)));
        drop(ctx);
        // Withdraw from 1: fall back to 2.
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), ProcId::ONLY, withdraw());
        assert_eq!(r.next_hop(P), Some(AsId(2)));
        assert!(ctx.fib_changed);
    }

    #[test]
    fn link_down_purges_and_reselects() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = BgpRouter::new(AsId(3), vec![]);
        let m1 = announce(&mut a, &[1, 0, 9]);
        let m2 = announce(&mut a, &[2, 0, 9]);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), ProcId::ONLY, m1);
        r.on_update(&mut ctx, slot(&g, 3, 2), ProcId::ONLY, m2);
        drop(ctx);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_link_down(&mut ctx, slot(&g, 3, 1), test_cause());
        assert_eq!(r.next_hop(P), Some(AsId(2)));
    }

    #[test]
    fn loses_all_routes_sends_withdraw() {
        let g = g();
        let mut a = PathArena::new();
        // Router 1's only route is from customer 3; it advertised to 0.
        let mut r = BgpRouter::new(AsId(1), vec![]);
        let m = announce(&mut a, &[3]);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), ProcId::ONLY, m);
        drop(ctx);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), ProcId::ONLY, withdraw());
        assert_eq!(ctx.out.len(), 1);
        assert_eq!(ctx.out[0].to, AsId(0));
        assert!(matches!(ctx.out[0].msg.kind, UpdateKind::Withdraw(_)));
        assert_eq!(r.next_hop(P), None);
        assert!(!r.selection(P).is_some());
    }

    #[test]
    fn link_up_readvertises() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = BgpRouter::new(AsId(3), vec![P]);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_start(&mut ctx);
        drop(ctx);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_link_up(
            &mut ctx,
            slot(&g, 3, 2),
            CauseInfo {
                cause: crate::types::RootCause::link(AsId(3), AsId(2)),
                seq: 2,
                up: true,
            },
        );
        assert_eq!(ctx.out.len(), 1);
        assert_eq!(ctx.out[0].to, AsId(2));
        assert!(matches!(ctx.out[0].msg.kind, UpdateKind::Announce(_)));
    }

    #[test]
    fn split_horizon_no_reflection() {
        let g = g();
        let mut a = PathArena::new();
        // Router 1 learns from provider 0 a path; it must not announce the
        // route back to 0 even though 0 is... a provider (export already
        // forbids). Check the customer case: router 3 learns from 1 and
        // would export to customers — it has none; ensure no echo to 1.
        let mut r = BgpRouter::new(AsId(3), vec![]);
        let m = announce(&mut a, &[1, 0, 9]);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), ProcId::ONLY, m);
        assert!(ctx.out.is_empty());
    }
}
