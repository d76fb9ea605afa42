//! The R-BGP router: what R-BGP adds to a BGP [`Speaker`].
//!
//! The speaker owns the RIBs, the best path and the Adj-RIB-Out and runs
//! the base export rule; this module adds the failover advertisement (one
//! targeted route per prefix, outside the Adj-RIB-Out), the continuity
//! pseudo-best substituted between the speaker's `decide` and `install`,
//! and root-cause records stamped on every outgoing update (DESIGN.md
//! §5.4).
//!
//! Its failover books are one row per dense [`PrefixId`], shaped like the
//! speaker's: the failover paths received, each with the session entry of
//! the neighbour that advertised it, and the one advertisement sent, with
//! its target's. Liveness, relation and id of either end are reads of the
//! entry. The root-cause records are a row too: the newest record per
//! network element, found by a linear scan. On the wire a cause is a
//! [`CauseId`], a handle into the engine's arena: R-BGP interns the records
//! of its own link events there and resolves the ones it hears.

use stamp_bgp::patharena::{CauseId, PathArena};
use stamp_bgp::rib::{row_mut, DecisionOutcome, Rank};
use stamp_bgp::router::{route_attr_word, RouterCtx, RouterLogic, Selection, StateFingerprint};
use stamp_bgp::speaker::Speaker;
use stamp_bgp::types::{CauseInfo, PrefixId, ProcId, Route, UpdateKind, UpdateMsg, WithdrawInfo};
use stamp_eventsim::clone_in_place;
use stamp_topology::{AsId, SessEntry};

/// R-BGP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbgpConfig {
    /// Run with root-cause information (the full protocol) or without
    /// (failover paths only) — the two variants of Figures 2 and 3.
    pub rci: bool,
}

impl Default for RbgpConfig {
    fn default() -> Self {
        RbgpConfig { rci: true }
    }
}

/// The one process R-BGP runs.
const ONLY: ProcId = ProcId::ONLY;

/// One R-BGP router: a BGP [`Speaker`] running one process, plus what R-BGP
/// adds — received and advertised failover paths, and (RCI mode) the newest
/// cause record per network element.
#[derive(Debug)]
pub struct RbgpRouter {
    /// Everything that is plain BGP: RIBs, best paths, Adj-RIB-Out.
    speaker: Speaker,
    cfg: RbgpConfig,
    /// Per dense prefix: the failover paths received and sent.
    rows: Vec<Row>,
    /// The newest cause record per network element (RCI mode), found by
    /// a linear scan, as `path_invalidated` walks every record anyway.
    known_causes: Vec<CauseInfo>,
    /// Scratch: the prefixes one router event must reselect. Empty
    /// between events, so a copy takes nothing and a rewind keeps the
    /// buffer.
    touched: Vec<PrefixId>,
}

// A rewind carries the configuration too: an R-BGP session re-targets onto
// a without-RCI baseline and back.
clone_in_place!(RbgpRouter {
    speaker,
    cfg,
    rows,
    known_causes,
    touched
});

/// R-BGP's failover books for one prefix.
#[derive(Debug, Default)]
struct Row {
    /// Failover paths received, at most one per neighbour, each with the
    /// advertiser's session entry. A short list rather than a degree-wide
    /// row: most ASes hear none or one.
    received: Vec<(SessEntry, Route)>,
    /// Our failover advertisement: the target's session and the route sent.
    sent: Option<(SessEntry, Route)>,
}

clone_in_place!(Row { received, sent });

impl Row {
    /// Store the failover path the neighbour of `from` advertised,
    /// replacing its previous one.
    fn receive(&mut self, from: SessEntry, route: Route) {
        self.retain(|e, _| e.neighbor != from.neighbor);
        self.received.reserve_exact(1);
        self.received.push((from, route));
    }

    /// Drop every received path failing `keep`; whether any was dropped.
    fn retain(&mut self, keep: impl Fn(&SessEntry, &Route) -> bool) -> bool {
        let before = self.received.len();
        self.received.retain(|(e, r)| keep(e, r));
        self.received.len() < before
    }
}

/// R-BGP's stamp on an outgoing update: the root cause, and withdrawals
/// cite a loss (the speaker already set the retracted route's failover flag).
fn wire(rc: Option<CauseId>) -> impl FnOnce(&mut UpdateKind) {
    move |kind| match kind {
        UpdateKind::Announce(r) => r.attrs.root_cause = rc,
        UpdateKind::Withdraw(w) => {
            *w = WithdrawInfo {
                root_cause: rc,
                failover: w.failover,
                ..WithdrawInfo::loss()
            }
        }
    }
}

impl RbgpRouter {
    /// Router for `me`, originating `own`.
    #[inline]
    pub fn new(me: AsId, own: Vec<PrefixId>, cfg: RbgpConfig) -> RbgpRouter {
        RbgpRouter {
            speaker: Speaker::new(me, own, Self::PROCS),
            cfg,
            rows: Vec::new(),
            known_causes: Vec::new(),
            touched: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read-side API (data plane, tests)
    // ------------------------------------------------------------------

    /// Current best selection.
    pub fn selection(&self, prefix: PrefixId) -> &Selection {
        self.speaker.selection(prefix, ONLY)
    }

    /// The best route when it is a real one — not own, and not a
    /// failover-based pseudo-best.
    fn real_best(&self, prefix: PrefixId) -> Option<DecisionOutcome> {
        match self.selection(prefix) {
            Selection::Learned(d) if !d.route.attrs.failover => Some(*d),
            _ => None,
        }
    }

    /// Primary next hop (`None` = origin, no route, or a failover-based
    /// pseudo-best — the latter forwards as a pinned circuit, not hop by
    /// hop; see [`Self::escape_route`]).
    pub fn primary_next(&self, prefix: PrefixId) -> Option<AsId> {
        self.real_best(prefix).map(|d| d.neighbor)
    }

    /// Does this AS originate `prefix`?
    pub fn originates(&self, prefix: PrefixId) -> bool {
        self.speaker.originates(prefix)
    }

    /// Escape route when the primary is gone: the failover path some
    /// neighbour whose session `live` accepts advertised us, not through
    /// `me` and (with RCI) not through any known root cause. Chosen by the
    /// decision order ([`Criterion`](stamp_bgp::rib::Criterion)) with one
    /// local preference for every advertised path. Returns
    /// `(advertiser, advertised path)` — R-BGP forwards escape packets
    /// along that path as a pinned virtual circuit, so the data plane needs
    /// the full path, not just the next hop.
    pub fn escape_route(
        &self,
        arena: &PathArena,
        prefix: PrefixId,
        live: impl Fn(&SessEntry) -> bool,
    ) -> Option<(AsId, Route)> {
        let (e, r) = self.escape(arena, prefix, live)?;
        Some((e.neighbor, r))
    }

    /// [`Self::escape_route`] with the advertiser's whole session entry.
    fn escape(
        &self,
        arena: &PathArena,
        prefix: PrefixId,
        live: impl Fn(&SessEntry) -> bool,
    ) -> Option<(SessEntry, Route)> {
        let me = self.speaker.me();
        let usable = |(e, r): &&(SessEntry, Route)| {
            live(e) && !r.contains(arena, me) && !self.path_invalidated(arena, r)
        };
        let rank = |(e, r): &&(SessEntry, Route)| Rank {
            pref: 0,
            len: r.len(arena),
            neighbor: e.neighbor,
        };
        let candidates = self.received(prefix).iter().filter(usable);
        candidates.max_by(|a, b| rank(a).cmp(&rank(b))).copied()
    }

    /// The failover paths received for `prefix`.
    fn received(&self, prefix: PrefixId) -> &[(SessEntry, Route)] {
        let row = self.rows.get(prefix.index());
        row.map(|row| row.received.as_slice()).unwrap_or_default()
    }

    /// The neighbour currently receiving our failover advertisement.
    pub fn failover_target(&self, prefix: PrefixId) -> Option<AsId> {
        self.sent(prefix).map(|(t, _)| t.neighbor)
    }

    /// Our current failover advertisement for `prefix`.
    fn sent(&self, prefix: PrefixId) -> Option<(SessEntry, Route)> {
        self.rows.get(prefix.index())?.sent
    }

    /// Drop the failover path `neighbor` advertised for `prefix`; whether
    /// there was one.
    fn forget_received(&mut self, prefix: PrefixId, neighbor: AsId) -> bool {
        let row = self.rows.get_mut(prefix.index());
        row.is_some_and(|row| row.retain(|e, _| e.neighbor != neighbor))
    }

    /// Newest cause record per element (RCI mode), one per element, in
    /// the order the elements were first heard of.
    pub fn known_causes(&self) -> &[CauseInfo] {
        &self.known_causes
    }

    /// Does the route's path traverse any element currently recorded as
    /// down? Zero-allocation chain walks per recorded cause.
    fn path_invalidated(&self, arena: &PathArena, route: &Route) -> bool {
        self.known_causes
            .iter()
            .any(|k| !k.up && k.cause.invalidates_path(arena, route.path))
    }

    // ------------------------------------------------------------------
    // Core logic
    // ------------------------------------------------------------------

    /// Learn a cause record: keep only the newest per element; purge every
    /// stored path through a newly-down element, adding the prefixes whose
    /// state changed to `touched` (unsorted).
    fn learn_cause(&mut self, arena: &PathArena, info: CauseInfo) {
        if !self.cfg.rci {
            return;
        }
        match self.known_causes.iter_mut().find(|k| k.cause == info.cause) {
            Some(k) if k.seq >= info.seq && k.up == info.up => return,
            Some(k) if k.seq > info.seq => return, // stale record
            Some(k) => *k = info,
            None => self.known_causes.push(info),
        }
        if info.up {
            // Recovery unblocks future paths; nothing stored needs purging.
            return;
        }
        let rc = info.cause;
        let touched = &mut self.touched;
        let keep = |r: &Route| !rc.invalidates_path(arena, r.path);
        self.speaker.purge(keep, |p, _| touched.push(p));
        for (p, row) in self.rows.iter_mut().enumerate() {
            if row.retain(|_, r| !rc.invalidates_path(arena, r.path)) {
                touched.push(PrefixId::from_usize(p));
            }
        }
    }

    /// The failover advertisement we owe: the most disjoint usable
    /// alternative to the current real best, addressed to the best next
    /// hop's session (the downstream direction). Disjointness = fewest
    /// shared ASes with the best path; ties broken by shorter path, then
    /// lower neighbour id.
    fn compute_failover(
        &self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
    ) -> Option<(SessEntry, Route)> {
        // Origins need no failover; without a real best there is nothing
        // to protect.
        let best = self.real_best(prefix)?;
        let me = self.speaker.me();
        let mut target = None;
        let mut cand: Option<((usize, u32, AsId), Route)> = None;
        for (e, entry) in self.speaker.routes(ctx.neighbors, prefix, ONLY) {
            let (n, r) = (e.neighbor, entry.route);
            if n == best.neighbor {
                // The real best was learned here, so its session is here.
                target = Some(*e);
                continue;
            }
            let unusable = r.contains(ctx.arena, me) || self.path_invalidated(ctx.arena, &r);
            if unusable || !ctx.is_live(e) {
                continue;
            }
            // No export gate here: R-BGP argues a failover path may relax
            // valley-free export because it carries traffic only
            // transiently.
            let shared = ctx.arena.shared_with(r.path, best.route.path);
            let key = (shared, r.len(ctx.arena), n);
            if cand.is_none_or(|(cur, _)| key < cur) {
                cand = Some((key, r));
            }
        }
        let (target, (_, r)) = target.zip(cand)?;
        let mut adv = r.prepend(ctx.arena, me);
        adv.attrs.failover = true;
        Some((target, adv))
    }

    /// R-BGP continuity: with no real route left, adopt the best received
    /// failover path as a (failover-flagged) pseudo-best rather than
    /// withdrawing. Downstream tables never empty while a backup circuit
    /// exists. The pseudo-best is *sticky*: while the one in use (`old`)
    /// remains usable we keep it, so candidate churn during convergence
    /// does not ripple out as announcement storms.
    fn pseudo_best(&self, ctx: &RouterCtx, prefix: PrefixId, old: Selection) -> Selection {
        let live = |e: &SessEntry| ctx.is_live(e);
        if let Selection::Learned(d) = old {
            let sticky = d.route.attrs.failover
                && self.received(prefix).iter().any(|(e, r)| {
                    e.neighbor == d.neighbor
                        && r.path == d.route.path
                        && live(e)
                        && !self.path_invalidated(ctx.arena, r)
                });
            if sticky {
                return old;
            }
        }
        match self.escape(ctx.arena, prefix, live) {
            Some((advertiser, mut route)) => {
                route.attrs.failover = true;
                Selection::Learned(DecisionOutcome {
                    neighbor: advertiser.neighbor,
                    route,
                    learned_from: advertiser.rel,
                })
            }
            None => Selection::None,
        }
    }

    /// Re-run selection; reconcile best-path exports and the failover
    /// advertisement. `cause` is attached to outgoing updates in RCI mode.
    fn reselect_and_export(
        &mut self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        cause: Option<CauseId>,
    ) {
        let new = match self.speaker.decide(ctx, prefix, ONLY) {
            Selection::None => self.pseudo_best(ctx, prefix, *self.selection(prefix)),
            real => real,
        };
        let best_changed = self.speaker.install(prefix, ONLY, new);
        if best_changed {
            ctx.fib_changed = true;
            for (slot, _) in ctx.live_neighbors() {
                self.advertise_best(ctx, prefix, slot, cause);
            }
        }
        // The failover advertisement is recomputed when the best changes or
        // its current target session died — not on every RIB touch, which
        // would re-advertise backups throughout convergence churn.
        let sent = self.sent(prefix);
        let target_dead = sent.is_some_and(|(t, _)| !ctx.is_live(&t));
        if best_changed || target_dead || sent.is_none() {
            self.advertise_failover(ctx, prefix, cause);
        }
    }

    /// The root cause to cite on the wire: `cause`, in RCI mode.
    fn cited(&self, cause: Option<CauseId>) -> Option<CauseId> {
        cause.filter(|_| self.cfg.rci)
    }

    /// Tell the neighbour in `slot` our best path. The base BGP export rule
    /// decides: continuity (pseudo-best) announcements respect the standard
    /// valley-free gate — R-BGP's export relaxation is for the *targeted*
    /// one-hop failover advertisements, not for flooding backup paths
    /// network-wide (which melts the message budget during convergence) —
    /// and carry the failover flag of the route they re-announce.
    fn advertise_best(
        &mut self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        slot: usize,
        cause: Option<CauseId>,
    ) {
        let mut want = self.speaker.export(ctx, prefix, ONLY, slot);
        if let (Some(r), Selection::Learned(d)) = (&mut want, self.selection(prefix)) {
            r.attrs.failover = d.route.attrs.failover;
        }
        let rc = self.cited(cause);
        self.speaker
            .advertise(ctx, slot, prefix, ONLY, want, wire(rc));
    }

    /// Reconcile the failover advertisement: it goes to the best next hop
    /// only, and moves (withdraw + announce) when the best next hop or the
    /// chosen alternative changes.
    fn advertise_failover(
        &mut self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        cause: Option<CauseId>,
    ) {
        let desired = self.compute_failover(ctx, prefix);
        let current = self.sent(prefix);
        if desired == current {
            return;
        }
        // A change always has a row: `current` came from one, or `desired`
        // makes it.
        if let Some(row) = row_mut(&mut self.rows, prefix.index()) {
            row.sent = desired;
        }
        // A target that keeps the advertisement hears the new one replace
        // the old implicitly; any other live old target hears a retraction.
        let retract_at = current
            .map(|(old_t, _)| old_t)
            .filter(|&old_t| desired.map(|(t, _)| t) != Some(old_t))
            .filter(|old_t| ctx.is_live(old_t));
        let rc = self.cited(cause);
        let mut send = |to: &SessEntry, mut kind: UpdateKind| {
            wire(rc)(&mut kind);
            ctx.send(to, ONLY, UpdateMsg { prefix, kind });
        };
        if let Some(old_t) = retract_at {
            let retract = WithdrawInfo {
                failover: true,
                ..WithdrawInfo::default()
            };
            send(&old_t, UpdateKind::Withdraw(retract));
        }
        if let Some((t, adv)) = desired {
            send(&t, UpdateKind::Announce(adv));
        }
    }

    /// Re-run selection for each prefix in `touched` once, in ascending
    /// order, and empty it.
    fn reselect_touched(&mut self, ctx: &mut RouterCtx, cause: Option<CauseId>) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &p in &touched {
            self.reselect_and_export(ctx, p, cause);
        }
        touched.clear();
        self.touched = touched;
    }
}

impl RouterLogic for RbgpRouter {
    fn on_start(&mut self, ctx: &mut RouterCtx) {
        // No allocation unless this AS originates something.
        for prefix in self.speaker.own().to_vec() {
            self.reselect_and_export(ctx, prefix, None);
        }
    }

    fn on_update(&mut self, ctx: &mut RouterCtx, from: usize, _proc: ProcId, msg: UpdateMsg) {
        let Some(&sender) = ctx.neighbors.get(from) else {
            return;
        };
        let prefix = msg.prefix;
        // Learn any attached cause record *before* judging staleness: a
        // recovery wave carries the up-record that legitimises the very
        // paths it re-announces.
        let cause = match &msg.kind {
            UpdateKind::Announce(route) => route.attrs.root_cause,
            UpdateKind::Withdraw(info) => info.root_cause,
        };
        if let Some(info) = cause.and_then(|id| ctx.arena.cause(id)) {
            self.learn_cause(ctx.arena, info);
        }
        match msg.kind {
            UpdateKind::Announce(route) => {
                let stale = self.cfg.rci && self.path_invalidated(ctx.arena, &route);
                if route.attrs.failover {
                    // A failover-flagged announce supersedes the sender's
                    // previous best-path announcement on this session (an
                    // implicit update): keeping the old best as a ghost
                    // would freeze stale selections here.
                    self.speaker.unlearn(from, ONLY, prefix);
                    if stale {
                        self.forget_received(prefix, sender.neighbor);
                    } else if let Some(row) = row_mut(&mut self.rows, prefix.index()) {
                        // Failover paths change the data plane, not the RIB.
                        ctx.fib_changed = true;
                        row.receive(sender, route);
                    }
                } else if stale {
                    // A stale announcement acts as an implicit withdrawal.
                    self.speaker.unlearn(from, ONLY, prefix);
                } else {
                    self.speaker.learn(ctx, from, ONLY, prefix, route);
                }
            }
            UpdateKind::Withdraw(info) => {
                if info.failover {
                    if self.forget_received(prefix, sender.neighbor) {
                        ctx.fib_changed = true;
                    }
                } else {
                    self.speaker.unlearn(from, ONLY, prefix);
                }
            }
        }
        // The message's own prefix alone, unless the cause purged others:
        // then all of them, the message's among them, in ascending order.
        if self.touched.is_empty() {
            self.reselect_and_export(ctx, prefix, cause);
        } else {
            self.touched.push(prefix);
            self.reselect_touched(ctx, cause);
        }
    }

    fn on_link_down(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo) {
        let lost = self.speaker.session_down(slot);
        self.touched.extend(lost.into_iter().map(|(p, _)| p));
        // Failover paths it advertised, and ours if it was the target.
        if let Some(dead) = ctx.neighbors.get(slot) {
            for (p, row) in self.rows.iter_mut().enumerate() {
                let target = row.sent.take_if(|(t, _)| t.neighbor == dead.neighbor);
                if row.retain(|e, _| e.neighbor != dead.neighbor) || target.is_some() {
                    self.touched.push(PrefixId::from_usize(p));
                }
            }
        }
        self.learn_cause(ctx.arena, cause);
        let id = ctx.arena.intern_cause(cause);
        self.reselect_touched(ctx, Some(id));
    }

    fn on_link_up(&mut self, ctx: &mut RouterCtx, slot: usize, cause: CauseInfo) {
        // Record the recovery; the up-state record rides on the
        // re-advertisement wave and unblocks the element at remote ASes.
        // An up-record purges nothing, so it touches no prefix.
        self.learn_cause(ctx.arena, cause);
        let id = ctx.arena.intern_cause(cause);
        // Fresh session: the neighbour has none of our state.
        self.speaker.forget_heard(slot);
        for prefix in self.speaker.known_prefixes() {
            self.advertise_best(ctx, prefix, slot, Some(id));
        }
    }

    fn fingerprint(&self, fp: &mut StateFingerprint) {
        self.speaker.fingerprint(fp);
        // Failover state is externally visible forwarding state too: an
        // oscillation that only rotates failover paths must still repeat
        // exactly to count as a cycle.
        let me = u64::from(self.speaker.me().0);
        let mut mix = |p: PrefixId, tag: u64, n: AsId, r: &Route| {
            let path = u64::from(r.path.raw());
            let words = [
                me,
                u64::from(p.0),
                tag,
                u64::from(n.0),
                path,
                route_attr_word(r),
            ];
            fp.mix(StateFingerprint::digest(&words));
        };
        for (p, row) in self.rows.iter().enumerate() {
            let p = PrefixId::from_usize(p);
            for (e, r) in &row.received {
                mix(p, 3, e.neighbor, r);
            }
            if let Some((t, r)) = &row.sent {
                mix(p, 4, t.neighbor, r);
            }
        }
    }

    fn speaker(&self) -> &Speaker {
        &self.speaker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_bgp::engine::{Engine, EngineConfig, ScenarioEvent};
    use stamp_bgp::types::RootCause;
    use stamp_eventsim::SimDuration;
    use stamp_topology::{AsGraph, GraphBuilder};

    const P: PrefixId = PrefixId(0);

    /// The diamond plus a spur:
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

    fn engine(g: AsGraph, origin: AsId, cfg: RbgpConfig, seed: u64) -> Engine<RbgpRouter> {
        Engine::new(g, EngineConfig::fast(seed), move |v| {
            let own = if v == origin { vec![P] } else { vec![] };
            RbgpRouter::new(v, own, cfg)
        })
    }

    fn converge(g: &AsGraph, origin: AsId, cfg: RbgpConfig, seed: u64) -> Engine<RbgpRouter> {
        let mut e = engine(g.clone(), origin, cfg, seed);
        e.start();
        e.run_to_quiescence(None);
        e
    }

    #[test]
    fn best_paths_match_plain_bgp() {
        use stamp_topology::StaticRoutes;
        let g = diamond();
        let e = converge(&g, AsId(4), RbgpConfig::default(), 3);
        let truth = StaticRoutes::compute(&g, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).primary_next(P), expect, "router {v}");
        }
    }

    #[test]
    fn failover_advertised_to_best_next_hop() {
        let g = diamond();
        let e = converge(&g, AsId(4), RbgpConfig::default(), 3);
        // AS 0 reaches 4 via customer 2 (best) and holds an alternative via
        // peer 1; its failover must be advertised to 2.
        let r0 = e.router(AsId(0));
        assert_eq!(r0.primary_next(P), Some(AsId(2)));
        assert_eq!(r0.failover_target(P), Some(AsId(2)));
        // And 2 received it: escape via 0 once its own routes die.
        let r2 = e.router(AsId(2));
        assert_eq!(
            r2.escape_route(e.paths(), P, |_| true).map(|(n, _)| n),
            Some(AsId(0))
        );
    }

    #[test]
    fn rci_purges_stale_paths() {
        let g = diamond();
        let mut e = converge(&g, AsId(4), RbgpConfig::default(), 5);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        let rc = RootCause::link(AsId(4), AsId(2));
        // The cause rides the update wave: ASes on the withdrawal path
        // (2 and its provider 0) must know it. ASes whose routes were
        // unaffected (3, on the surviving side) legitimately may not.
        for v in [0u32, 2] {
            assert!(
                e.router(AsId(v))
                    .known_causes()
                    .iter()
                    .any(|k| k.cause == rc && !k.up),
                "AS{v} missing root cause"
            );
        }
        // The real invariant: nobody holds a selection through the dead
        // link once converged.
        for v in [0u32, 1, 2, 3] {
            if let Selection::Learned(d) = e.router(AsId(v)).selection(P) {
                assert!(
                    !rc.invalidates_path(e.paths(), d.route.path),
                    "AS{v} kept a stale path {:?}",
                    e.paths().as_vec(d.route.path)
                );
            }
        }
    }

    #[test]
    fn no_rci_mode_ignores_causes() {
        let g = diamond();
        let cfg = RbgpConfig { rci: false };
        let mut e = converge(&g, AsId(4), cfg, 5);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        for v in g.ases() {
            assert!(e.router(v).known_causes().is_empty());
        }
        // It still converges to correct routes eventually.
        use stamp_topology::StaticRoutes;
        let truth = StaticRoutes::compute(&g.without_links(&[id]), AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).primary_next(P), expect, "router {v}");
        }
    }

    #[test]
    fn escape_skips_paths_through_self_and_causes() {
        let g = diamond();
        let mut e = converge(&g, AsId(4), RbgpConfig::default(), 7);
        // Fail 4–2: AS 2 has no route; its stored failovers must avoid 2
        // itself and the dead link.
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        let r2 = e.router(AsId(2));
        let live = |s: &SessEntry| e.session_up(AsId(2), s.neighbor);
        if let Some((via, _)) = r2.escape_route(e.paths(), P, live) {
            // Any surviving escape must not route through the dead link.
            let rc = RootCause::link(AsId(4), AsId(2));
            let (_, fo) = r2.rows[P.index()]
                .received
                .iter()
                .find(|(s, _)| s.neighbor == via)
                .expect("escape target must hold a failover");
            assert!(!rc.invalidates_path(e.paths(), fo.path));
            assert!(!fo.contains(e.paths(), AsId(2)));
        }
    }

    #[test]
    fn reconverges_after_failure() {
        use stamp_topology::StaticRoutes;
        let g = diamond();
        for rci in [true, false] {
            let cfg = RbgpConfig { rci };
            let mut e = converge(&g, AsId(4), cfg, 11);
            let id = g.link_between(AsId(4), AsId(2)).unwrap();
            e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
            e.run_to_quiescence(None);
            let truth = StaticRoutes::compute(&g.without_links(&[id]), AsId(4));
            for v in g.ases() {
                let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
                assert_eq!(e.router(v).primary_next(P), expect, "rci={rci} router {v}");
            }
        }
    }

    #[test]
    fn origin_advertises_no_failover() {
        let g = diamond();
        let e = converge(&g, AsId(4), RbgpConfig::default(), 13);
        assert_eq!(e.router(AsId(4)).failover_target(P), None);
    }

    #[test]
    fn link_recovery_clears_cause_and_reconverges() {
        use stamp_topology::StaticRoutes;
        let g = diamond();
        let mut e = converge(&g, AsId(4), RbgpConfig::default(), 17);
        let id = g.link_between(AsId(4), AsId(2)).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::RecoverLink(id));
        e.run_to_quiescence(None);
        let truth = StaticRoutes::compute(&g, AsId(4));
        for v in g.ases() {
            let expect = truth.route(v).map(|r| r.next_hop).unwrap_or(None);
            assert_eq!(e.router(v).primary_next(P), expect, "router {v}");
        }
    }
}

#[cfg(test)]
mod continuity_tests {
    use super::*;
    use stamp_bgp::router::{RouterCtx, SessionView};
    use stamp_bgp::types::{PathAttrs, RootCause};
    use stamp_topology::GraphBuilder;

    struct AllUp;
    impl SessionView for AllUp {
        fn session_entry_up(&self, _from: AsId, _e: &SessEntry) -> bool {
            true
        }
    }

    const P: PrefixId = PrefixId(0);

    /// The slot AS `me` hears AS `n` on.
    fn slot(g: &stamp_topology::AsGraph, me: u32, n: u32) -> usize {
        g.slot_between(AsId(me), AsId(n)).unwrap()
    }

    fn announce(a: &mut PathArena, path: &[u32], failover: bool) -> UpdateMsg {
        let ids: Vec<AsId> = path.iter().map(|&x| AsId(x)).collect();
        UpdateMsg {
            prefix: P,
            kind: UpdateKind::Announce(Route {
                path: a.intern_slice(&ids),
                attrs: PathAttrs {
                    failover,
                    ..Default::default()
                },
            }),
        }
    }

    /// The advertiser an escape packet at `r` would be handed to, every
    /// session up.
    fn escape_target(r: &RbgpRouter, a: &PathArena) -> Option<AsId> {
        r.escape_route(a, P, |_| true).map(|(n, _)| n)
    }

    /// 1 between provider 0 and customer 2; peer 3 for diversity.
    fn g() -> stamp_topology::AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.peering(1, 3).unwrap();
        b.build().unwrap()
    }

    /// Losing every real route while holding a received failover must
    /// produce a failover-flagged *announcement* (the continuity rule),
    /// not a withdrawal — downstream tables never empty.
    #[test]
    fn continuity_announces_pseudo_best_instead_of_withdrawing() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = RbgpRouter::new(AsId(1), vec![], RbgpConfig::default());
        // Real route from customer 2 (exported to provider 0 and peer 3).
        let real = announce(&mut a, &[2, 9], false);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 2), ProcId::ONLY, real);
        assert_eq!(r.primary_next(P), Some(AsId(2)));
        drop(ctx);
        // A failover path arrives from provider 0 (0 routes via us).
        let fo = announce(&mut a, &[0, 7, 9], true);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 0), ProcId::ONLY, fo);
        drop(ctx);
        // The real route dies: continuity kicks in.
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(
            &mut ctx,
            slot(&g, 1, 2),
            ProcId::ONLY,
            UpdateMsg {
                prefix: P,
                kind: UpdateKind::Withdraw(WithdrawInfo::loss()),
            },
        );
        // The selection becomes the failover-flagged pseudo-best; customers
        // keep a route (continuity), while providers/peers are withdrawn —
        // the pseudo is provider-learned, so valley-free forbids exporting
        // it upward/sideways.
        assert!(
            matches!(r.selection(P), Selection::Learned(d) if d.route.attrs.failover),
            "pseudo-best expected, got {:?}",
            r.selection(P)
        );
        assert_eq!(r.primary_next(P), None, "pseudo-bests forward as circuits");
        assert_eq!(escape_target(&r, ctx.arena), Some(AsId(0)));
        assert!(
            !ctx.out
                .iter()
                .any(|m| m.to == AsId(2) && matches!(m.msg.kind, UpdateKind::Withdraw(_))),
            "the customer must never see a withdrawal while a circuit exists"
        );
        let to_customer = ctx
            .out
            .iter()
            .find(|m| m.to == AsId(2) && matches!(m.msg.kind, UpdateKind::Announce(_)))
            .expect("customer receives the failover-based replacement");
        match &to_customer.msg.kind {
            UpdateKind::Announce(route) => {
                assert!(route.attrs.failover, "replacement is failover-flagged");
                assert_eq!(ctx.arena.head(route.path), AsId(1));
            }
            _ => unreachable!(),
        }
    }

    /// Without any failover, losing everything withdraws normally.
    #[test]
    fn no_failover_means_real_withdrawal() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = RbgpRouter::new(AsId(1), vec![], RbgpConfig::default());
        let real = announce(&mut a, &[2, 9], false);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 2), ProcId::ONLY, real);
        drop(ctx);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(
            &mut ctx,
            slot(&g, 1, 2),
            ProcId::ONLY,
            UpdateMsg {
                prefix: P,
                kind: UpdateKind::Withdraw(WithdrawInfo::loss()),
            },
        );
        assert_eq!(*r.selection(P), Selection::None);
        assert!(
            ctx.out
                .iter()
                .any(|m| matches!(m.msg.kind, UpdateKind::Withdraw(_))),
            "a real withdrawal must propagate"
        );
    }

    /// Escape candidates skip paths through the choosing AS itself and, in
    /// RCI mode, paths through known-down elements.
    #[test]
    fn escape_candidate_filtering() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = RbgpRouter::new(AsId(1), vec![], RbgpConfig::default());
        // Failover through ourselves: unusable.
        let via_self = announce(&mut a, &[0, 1, 9], true);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 0), ProcId::ONLY, via_self);
        assert_eq!(escape_target(&r, ctx.arena), None);
        drop(ctx);
        // A clean failover from the peer.
        let clean = announce(&mut a, &[3, 8, 9], true);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), ProcId::ONLY, clean);
        assert_eq!(escape_target(&r, ctx.arena), Some(AsId(3)));
        drop(ctx);
        // Learn that link 8-9 died: the peer's failover is invalid too.
        let down = a.intern_cause(CauseInfo {
            cause: RootCause::link(AsId(8), AsId(9)),
            seq: 1,
            up: false,
        });
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(
            &mut ctx,
            slot(&g, 1, 0),
            ProcId::ONLY,
            UpdateMsg {
                prefix: P,
                kind: UpdateKind::Withdraw(WithdrawInfo {
                    root_cause: Some(down),
                    ..WithdrawInfo::loss()
                }),
            },
        );
        assert_eq!(escape_target(&r, ctx.arena), None);
    }
}
