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
//! causes; colours, instability flags and the lock).
//!
//! **Every neighbour by its slot.** A speaker addresses a neighbour by its
//! *slot*: the neighbour's position in the AS's session slice
//! ([`RouterCtx::neighbors`], i.e. `AsGraph::neighbor_entries(me)`), whose
//! [`SessEntry`] supplies the neighbour's id, relation and session. The
//! engine hands every delivered update to the router with the slot it
//! arrived on, and every update the speaker sends carries its session, so
//! no step of the message path looks a neighbour up by id. The tables are
//! dense rows per dense [`PrefixId`], like the engine's MRAI rows: the
//! Adj-RIB-In ([`RibIn`]) and the Adj-RIB-Out hold one cell per
//! `slot × procs + proc`, the selections one per process. One speaker
//! serves every process of its AS — the rows are keyed by [`ProcId`], with
//! `procs` 1 for BGP and R-BGP and 2 for STAMP — and copying a speaker
//! copies a few flat `Vec`s. Slot order is not id order: the decision
//! process breaks ties by [`Criterion`](crate::rib::Criterion), and so does every reader of
//! [`Speaker::routes`], which walks the slots.
//!
//! [`decide`](Speaker::decide) and [`explain`](Speaker::explain) are the
//! one decision walk (`RibIn::decide_slots`) with two sinks: one that
//! does nothing, and one that records why each stored route lost.

use crate::engine::N_PROCS;
use crate::patharena::PathArena;
use crate::rib::{grow_exact, row_mut, Explanation, RibEntry, RibIn};
use crate::router::{RouterCtx, Selection, SessionView, StateFingerprint};
use crate::types::{PrefixId, ProcId, Route, UpdateKind, UpdateMsg, WithdrawInfo};
use stamp_eventsim::clone_in_place;
use stamp_topology::{AsId, Relation, SessEntry};

/// One AS's BGP state and pipeline, for every process it runs.
#[derive(Debug)]
pub struct Speaker {
    me: AsId,
    /// Prefixes this AS originates.
    own: Vec<PrefixId>,
    /// Routes learned from neighbours.
    rib: RibIn,
    /// Per dense prefix: the selections and the Adj-RIB-Out.
    rows: Vec<Row>,
}

clone_in_place!(Speaker { me, own, rib, rows });

/// What a speaker holds for one prefix besides its routes.
#[derive(Debug, Default)]
struct Row {
    /// Has a selection ever been installed here? (What makes the prefix
    /// one of [`Speaker::known_prefixes`].)
    known: bool,
    /// Current best per process.
    best: [Selection; N_PROCS],
    /// Adj-RIB-Out: `heard[slot × procs + proc]` is the route that
    /// neighbour last heard from us, as stored (without per-message wire
    /// stamps) — suppresses no-op updates and tells when a withdraw is due.
    heard: Vec<Option<Route>>,
}

clone_in_place!(Row { known, best, heard });

impl Speaker {
    /// Speaker of AS `me` running `procs` processes, originating `own`.
    #[inline]
    pub fn new(me: AsId, own: Vec<PrefixId>, procs: usize) -> Speaker {
        Speaker {
            me,
            own,
            rib: RibIn::with_procs(procs),
            rows: Vec::new(),
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

    /// Processes this speaker runs.
    pub fn procs(&self) -> usize {
        self.rib.procs()
    }

    /// Current selection of one process.
    #[inline]
    pub fn selection(&self, prefix: PrefixId, proc: ProcId) -> &Selection {
        let row = self.rows.get(prefix.index());
        let best = row.and_then(|r| r.best.get(usize::from(proc.0)));
        best.unwrap_or(&Selection::None)
    }

    /// The selected learned route with the neighbour it came from — what a
    /// route leak re-exports ([`crate::ScenarioEvent::Leak`]).
    pub fn selected_route(&self, prefix: PrefixId, proc: ProcId) -> Option<(AsId, Route)> {
        match self.selection(prefix, proc) {
            Selection::Learned(d) => Some((d.neighbor, d.route)),
            _ => None,
        }
    }

    /// The stored routes of one process in slot order, each with the
    /// session entry it was learned over (`nbrs` is the speaker's session
    /// slice, [`RouterCtx::neighbors`]).
    pub fn routes<'a>(
        &'a self,
        nbrs: &'a [SessEntry],
        prefix: PrefixId,
        proc: ProcId,
    ) -> impl Iterator<Item = (&'a SessEntry, RibEntry)> + 'a {
        let stored = move |(slot, e)| Some((e, *self.rib.at(prefix, proc, slot)?));
        nbrs.iter().enumerate().filter_map(stored)
    }

    /// What the neighbour in `slot` last heard from us for `(prefix, proc)`.
    pub fn heard(&self, slot: usize, prefix: PrefixId, proc: ProcId) -> Option<&Route> {
        let i = self.rib.cell_index(slot, proc)?;
        self.rows.get(prefix.index())?.heard.get(i)?.as_ref()
    }

    /// Store an announcement from the neighbour in slot `from`, learned
    /// over that session's relation. A rejecting import acts like a
    /// withdraw — any earlier route from that neighbour is gone — and a
    /// slot outside the session slice names no neighbour and stores
    /// nothing.
    #[inline]
    pub fn learn(
        &mut self,
        ctx: &RouterCtx,
        from: usize,
        proc: ProcId,
        prefix: PrefixId,
        route: Route,
    ) {
        let Some(e) = ctx.neighbors.get(from) else {
            return;
        };
        match ctx.import(prefix, route, e.rel) {
            Some((route, pref)) => {
                let entry = RibEntry {
                    route,
                    learned_from: e.rel,
                    pref,
                };
                self.rib.put(prefix, proc, from, ctx.neighbors.len(), entry);
            }
            None => self.unlearn(from, proc, prefix),
        }
    }

    /// Drop the route the neighbour in slot `from` announced (a withdraw,
    /// explicit or implied).
    #[inline]
    pub fn unlearn(&mut self, from: usize, proc: ProcId, prefix: PrefixId) {
        self.rib.take(prefix, proc, from);
    }

    /// Drop every stored route failing `keep`, and hand `lost` each
    /// `(prefix, proc)` key that lost one: once, ascending.
    pub fn purge(
        &mut self,
        keep: impl FnMut(&Route) -> bool,
        mut lost: impl FnMut(PrefixId, ProcId),
    ) {
        let mut last = None;
        self.rib.purge_slots(keep, |p, proc, _| {
            if last != Some((p, proc)) {
                last = Some((p, proc));
                lost(p, proc);
            }
        });
    }

    /// What the process would select now: own, else the decision process
    /// over live sessions. Read-only, so a protocol can substitute its own
    /// choice before [`install`](Speaker::install)ing.
    #[inline]
    pub fn decide(&self, ctx: &RouterCtx, prefix: PrefixId, proc: ProcId) -> Selection {
        if self.originates(prefix) {
            return Selection::Own;
        }
        let live = self.live(ctx.neighbors, ctx.sessions);
        let walk = self
            .rib
            .decide_slots(ctx.arena, self.me, prefix, proc, live, |_, _, _| {});
        match walk {
            Some(d) => Selection::Learned(d),
            None => Selection::None,
        }
    }

    /// Why [`decide`](Speaker::decide) selects what it selects, from
    /// outside a router event: the same walk over the session slice `nbrs`
    /// with liveness from `sessions`, every stored route with its verdict.
    /// An originated prefix is never walked, so it explains nothing.
    pub fn explain(
        &self,
        arena: &PathArena,
        nbrs: &[SessEntry],
        sessions: &dyn SessionView,
        prefix: PrefixId,
        proc: ProcId,
    ) -> Explanation {
        if self.originates(prefix) {
            return Explanation::default();
        }
        let live = self.live(nbrs, sessions);
        // `learn` stores nothing outside the slice, so the fallback is
        // never read.
        let id = |slot: usize| nbrs.get(slot).map_or(AsId(u32::MAX), |e| e.neighbor);
        self.rib
            .explain_slots(arena, self.me, prefix, proc, live, id)
    }

    /// The neighbour in a slot while its session is up.
    #[inline]
    fn live<'a>(
        &self,
        nbrs: &'a [SessEntry],
        sessions: &'a dyn SessionView,
    ) -> impl Fn(usize) -> Option<AsId> + 'a {
        let me = self.me;
        move |slot| {
            let e = nbrs.get(slot)?;
            sessions.session_entry_up(me, e).then_some(e.neighbor)
        }
    }

    /// Make `new` the selection; `false` (and nothing written) when it
    /// already is.
    #[inline]
    pub fn install(&mut self, prefix: PrefixId, proc: ProcId, new: Selection) -> bool {
        if new == *self.selection(prefix, proc) {
            return false;
        }
        let Some(row) = row_mut(&mut self.rows, prefix.index()) else {
            return false;
        };
        let Some(best) = row.best.get_mut(usize::from(proc.0)) else {
            return false;
        };
        *best = new;
        row.known = true;
        true
    }

    /// The base export rule towards the neighbour in `slot`: never back to
    /// the sender (split horizon; the path would loop anyway), then
    /// [`export_toward`](Speaker::export_toward) its relation.
    #[inline]
    pub fn export(
        &self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        proc: ProcId,
        slot: usize,
    ) -> Option<Route> {
        let nbrs = ctx.neighbors;
        let to = nbrs.get(slot)?;
        if self.selection(prefix, proc).next_hop() == Some(to.neighbor) {
            return None;
        }
        self.export_toward(ctx, prefix, proc, to.rel)
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

    /// Bring what the neighbour in `slot` last heard for `(prefix, proc)`
    /// in line with `want`: send the one message that does it, or none.
    /// `wire` stamps the protocol's per-message attributes (root cause, ET)
    /// on the wire copy only — an announcement starts as the stored route,
    /// a withdrawal as the plain one carrying the retracted route's
    /// failover flag.
    #[inline]
    pub fn advertise(
        &mut self,
        ctx: &mut RouterCtx,
        slot: usize,
        prefix: PrefixId,
        proc: ProcId,
        want: Option<Route>,
        wire: impl FnOnce(&mut UpdateKind),
    ) {
        let nbrs = ctx.neighbors;
        let (Some(to), Some(i)) = (nbrs.get(slot), self.rib.cell_index(slot, proc)) else {
            return;
        };
        let width = nbrs.len() * self.rib.procs();
        let Some(row) = row_mut(&mut self.rows, prefix.index()) else {
            return;
        };
        if want.is_some() {
            // The first announcement sizes the table; before it, nothing
            // was told and nothing needs room.
            grow_exact(&mut row.heard, width.max(i + 1), || None);
        }
        let Some(told) = row.heard.get_mut(i) else {
            return;
        };
        let mut kind = match want {
            Some(r) if *told == Some(r) => return,
            Some(r) => {
                *told = Some(r);
                UpdateKind::Announce(r)
            }
            None => match told.take() {
                Some(had) => UpdateKind::Withdraw(WithdrawInfo {
                    failover: had.attrs.failover,
                    ..WithdrawInfo::default()
                }),
                None => return,
            },
        };
        wire(&mut kind);
        ctx.send(to, proc, UpdateMsg { prefix, kind });
    }

    /// The session in `slot` is gone: so is everything its neighbour
    /// announced and everything we told it. Returns the `(prefix, proc)`
    /// keys that lost a stored route, ascending.
    pub fn session_down(&mut self, slot: usize) -> Vec<(PrefixId, ProcId)> {
        self.forget_heard(slot);
        self.rib.take_slot(slot)
    }

    /// A fresh session holds none of our state: forget what the neighbour
    /// in `slot` heard.
    pub fn forget_heard(&mut self, slot: usize) {
        let procs = self.rib.procs();
        for row in &mut self.rows {
            for told in row.heard.iter_mut().skip(slot * procs).take(procs) {
                *told = None;
            }
        }
    }

    /// All prefixes this speaker has any state for, ascending.
    pub fn known_prefixes(&self) -> Vec<PrefixId> {
        let known = self.rows.iter().enumerate().filter(|(_, r)| r.known);
        let mut v = self.own.clone();
        v.extend(known.map(|(p, _)| PrefixId::from_usize(p)));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Fold every selection into the watchdog's fingerprint.
    pub fn fingerprint(&self, fp: &mut StateFingerprint) {
        for (p, row) in self.rows.iter().enumerate() {
            let p = PrefixId::from_usize(p);
            for (proc, sel) in ProcId::first_n(N_PROCS).zip(&row.best) {
                let digest = StateFingerprint::selection_digest(self.me, p, u64::from(proc.0), sel);
                if let Some(d) = digest {
                    fp.mix(d);
                }
            }
        }
    }
}
