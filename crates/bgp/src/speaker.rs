//! The BGP speaker: everything that is BGP about one AS, written once.
//!
//! A [`Speaker`] owns the AS's identity, its originated prefixes, the
//! Adj-RIB-In, the current selection per `(prefix, process)` and the
//! Adj-RIB-Out per `(neighbour, prefix, process)`, and offers the steps of
//! the BGP pipeline — [`learn`](Speaker::learn) →
//! [`decide`](Speaker::decide) → [`install`](Speaker::install) →
//! [`export`](Speaker::export) → [`advertise`](Speaker::advertise). Plain
//! BGP, R-BGP and STAMP each hold one speaker and add only their delta
//! (DESIGN.md §5.4): which neighbours to walk in which order, which
//! attributes to stamp, and their own state (failover paths and root
//! causes; colours, instability flags and the lock). One speaker serves
//! every process of its AS — the tables are keyed by [`ProcId`], not one
//! table set per process — so a STAMP router holds exactly as many hash
//! maps as a BGP router.

use crate::rib::{RibEntry, RibIn};
use crate::router::{RouterCtx, Selection, StateFingerprint};
use crate::types::{PrefixId, ProcId, Route, UpdateKind, UpdateMsg, WithdrawInfo};
use stamp_eventsim::{clone_in_place, FxHashMap};
use stamp_topology::{AsId, Relation};

/// One AS's BGP state and pipeline, for every process it runs.
#[derive(Debug)]
pub struct Speaker {
    me: AsId,
    /// Prefixes this AS originates.
    own: Vec<PrefixId>,
    /// Routes learned from neighbours.
    rib: RibIn,
    /// Current best per `(prefix, process)`.
    best: FxHashMap<(PrefixId, ProcId), Selection>,
    /// Adj-RIB-Out: the route each neighbour last heard from us, as stored
    /// (without per-message wire stamps) — suppresses no-op updates and
    /// tells when a withdraw is due.
    heard: FxHashMap<(AsId, PrefixId, ProcId), Route>,
}

clone_in_place!(Speaker {
    me,
    own,
    rib,
    best,
    heard
});

impl Speaker {
    /// Speaker of AS `me`, originating `own`.
    pub fn new(me: AsId, own: Vec<PrefixId>) -> Speaker {
        Speaker {
            me,
            own,
            rib: RibIn::new(),
            best: FxHashMap::default(),
            heard: FxHashMap::default(),
        }
    }

    /// This speaker's AS.
    #[inline]
    pub fn me(&self) -> AsId {
        self.me
    }

    /// The prefixes this AS originates.
    pub fn own(&self) -> &[PrefixId] {
        &self.own
    }

    /// Does this AS originate `prefix`?
    #[inline]
    pub fn originates(&self, prefix: PrefixId) -> bool {
        self.own.contains(&prefix)
    }

    /// Current selection of one process.
    #[inline]
    pub fn selection(&self, prefix: PrefixId, proc: ProcId) -> &Selection {
        self.best.get(&(prefix, proc)).unwrap_or(&Selection::None)
    }

    /// The selected learned route with the neighbour it came from — what a
    /// route leak re-exports ([`crate::RouterLogic::selected_route`]).
    pub fn selected_route(&self, prefix: PrefixId, proc: ProcId) -> Option<(AsId, Route)> {
        match self.selection(prefix, proc) {
            Selection::Learned(d) => Some((d.neighbor, d.route)),
            _ => None,
        }
    }

    /// The stored routes of one process, ascending by neighbour.
    pub fn routes(
        &self,
        prefix: PrefixId,
        proc: ProcId,
    ) -> impl Iterator<Item = (AsId, RibEntry)> + '_ {
        self.rib.routes(prefix, proc)
    }

    /// What `n` last heard from us for `(prefix, proc)`.
    pub fn heard(&self, n: AsId, prefix: PrefixId, proc: ProcId) -> Option<&Route> {
        self.heard.get(&(n, prefix, proc))
    }

    /// Store an announcement from `from`. The relation is fixed per
    /// session; caching it in the RIB entry keeps the decision process free
    /// of graph lookups. A rejecting import acts like a withdraw — any
    /// earlier route from that neighbour is gone — and a non-adjacent
    /// sender (impossible under the engine) is simply not stored.
    #[inline]
    pub fn learn(
        &mut self,
        ctx: &RouterCtx,
        from: AsId,
        proc: ProcId,
        prefix: PrefixId,
        route: Route,
    ) {
        if let Some(rel) = ctx.relation(from) {
            match ctx.import(prefix, route, rel) {
                Some((route, pref)) => self.rib.insert(prefix, proc, from, route, rel, pref),
                None => self.unlearn(from, proc, prefix),
            }
        }
    }

    /// Drop the route `from` announced (a withdraw, explicit or implied).
    #[inline]
    pub fn unlearn(&mut self, from: AsId, proc: ProcId, prefix: PrefixId) {
        self.rib.remove(prefix, proc, from);
    }

    /// Drop every stored route failing `keep`; the dropped keys, ascending.
    pub fn purge(&mut self, keep: impl FnMut(&Route) -> bool) -> Vec<(PrefixId, ProcId, AsId)> {
        self.rib.purge(keep)
    }

    /// What the process would select now: own, else the decision process
    /// over live sessions. Read-only, so a protocol can substitute its own
    /// choice before [`install`](Speaker::install)ing.
    #[inline]
    pub fn decide(&self, ctx: &RouterCtx, prefix: PrefixId, proc: ProcId) -> Selection {
        if self.originates(prefix) {
            return Selection::Own;
        }
        let usable = |n| ctx.sessions.session_up(self.me, n);
        match self.rib.decide(ctx.arena, self.me, prefix, proc, usable) {
            Some(d) => Selection::Learned(d),
            None => Selection::None,
        }
    }

    /// Make `new` the selection; `false` (and nothing written) when it
    /// already is.
    #[inline]
    pub fn install(&mut self, prefix: PrefixId, proc: ProcId, new: Selection) -> bool {
        if new == *self.selection(prefix, proc) {
            return false;
        }
        self.best.insert((prefix, proc), new);
        true
    }

    /// The base export rule towards neighbour `n` (related to us as `to`):
    /// never back to the sender (split horizon; the path would loop
    /// anyway), then [`export_toward`](Speaker::export_toward).
    #[inline]
    pub fn export(
        &self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        proc: ProcId,
        n: AsId,
        to: Relation,
    ) -> Option<Route> {
        if self.selection(prefix, proc).next_hop() == Some(n) {
            return None;
        }
        self.export_toward(ctx, prefix, proc, to)
    }

    /// The selection as any `to`-neighbour may hear it: the regime's export
    /// gate (for originated routes too), then `me` prepended. Attributes
    /// come back at their defaults — they are the protocol's to set.
    #[inline]
    pub fn export_toward(
        &self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        proc: ProcId,
        to: Relation,
    ) -> Option<Route> {
        match *self.selection(prefix, proc) {
            Selection::None => None,
            Selection::Own => {
                let r = Route::originate(ctx.arena, self.me);
                ctx.export_ok(None, to, &r).then_some(r)
            }
            Selection::Learned(d) => ctx
                .export_ok(Some(d.learned_from), to, &d.route)
                .then(|| d.route.prepend(ctx.arena, self.me)),
        }
    }

    /// Bring what `n` last heard for `(prefix, proc)` in line with `want`:
    /// send the one message that does it, or none. `wire` stamps the
    /// protocol's per-message attributes (root cause, ET) on the wire copy
    /// only — an announcement starts as the stored route, a withdrawal as
    /// the plain one carrying the retracted route's failover flag.
    #[inline]
    pub fn advertise(
        &mut self,
        ctx: &mut RouterCtx,
        n: AsId,
        prefix: PrefixId,
        proc: ProcId,
        want: Option<Route>,
        wire: impl FnOnce(&mut UpdateKind),
    ) {
        let key = (n, prefix, proc);
        let mut kind = match want {
            Some(r) if self.heard.get(&key) == Some(&r) => return,
            Some(r) => {
                self.heard.insert(key, r);
                UpdateKind::Announce(r)
            }
            None => match self.heard.remove(&key) {
                Some(had) => UpdateKind::Withdraw(WithdrawInfo {
                    failover: had.attrs.failover,
                    ..WithdrawInfo::default()
                }),
                None => return,
            },
        };
        wire(&mut kind);
        ctx.send(n, proc, UpdateMsg { prefix, kind });
    }

    /// The session to `n` is gone: so is everything it announced and
    /// everything we told it. Returns the `(prefix, proc)` keys that lost a
    /// stored route, ascending.
    pub fn session_down(&mut self, n: AsId) -> Vec<(PrefixId, ProcId)> {
        self.forget_heard(n);
        self.rib.remove_neighbor(n)
    }

    /// A fresh session holds none of our state: forget what `n` heard.
    pub fn forget_heard(&mut self, n: AsId) {
        self.heard.retain(|(to, _, _), _| *to != n);
    }

    /// All prefixes this speaker has any state for, ascending.
    pub fn known_prefixes(&self) -> Vec<PrefixId> {
        let mut v = Vec::with_capacity(self.own.len() + self.best.len());
        v.extend_from_slice(&self.own);
        v.extend(self.best.keys().map(|(p, _)| *p));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Fold every selection into the watchdog's fingerprint.
    pub fn fingerprint(&self, fp: &mut StateFingerprint) {
        for (&(p, proc), sel) in &self.best {
            let digest = StateFingerprint::selection_digest(self.me, p, u64::from(proc.0), sel);
            if let Some(d) = digest {
                fp.mix(d);
            }
        }
    }
}
