//! Per-protocol forwarding functions.
//!
//! A [`ForwardingView`] reduces a protocol's data plane to a deterministic
//! successor function over `(AS, packet context)` states, where the context
//! is a small integer encoding the per-packet bits the protocol carries
//! (STAMP: colour + switched flag; BGP and R-BGP: nothing — an R-BGP
//! packet that loses its primary walks the failover circuit within one
//! step).
//! Determinism makes the state space a functional graph, so loop/blackhole
//! classification is exact and O(states) — no packet sampling involved.
//! A protocol says here only how it forwards ([`DataPlane`]); what a router
//! states about itself is on [`RouterLogic`], read by one [`EngineView`].

use stamp_bgp::engine::Engine;
use stamp_bgp::router::{BgpRouter, RouterLogic};
use stamp_bgp::types::{Color, PrefixId, ProcId, RootCause};
use stamp_bgp::PathId;
pub use stamp_bgp::{FeedCursor, Touched};
use stamp_core::StampRouter;
use stamp_rbgp::RbgpRouter;
use stamp_topology::AsId;

/// One forwarding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The packet reached the destination AS.
    Deliver,
    /// Forward to a neighbour with a possibly updated packet context.
    Hop { to: AsId, ctx: u8 },
    /// No usable route — the packet is dropped.
    Drop,
}

/// Compact identity of one AS's selected-route set: keys are equal **iff**
/// the [`ForwardingView::selection_paths`] output is equal (`PathId`s are
/// content-addressed within one arena, so id equality is path equality).
/// Lets the control-plane companion metric compare selections against its
/// baseline without materialising any paths on the unchanged fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionKey {
    len: u8,
    ids: [PathId; 2],
}

impl SelectionKey {
    /// The key of an empty selection set.
    pub const EMPTY: SelectionKey = SelectionKey {
        len: 0,
        ids: [PathId::NONE; 2],
    };

    /// Append one selected path id (order-sensitive, max 2).
    #[inline]
    pub fn push(&mut self, id: PathId) {
        debug_assert!((self.len as usize) < self.ids.len());
        if let Some(slot) = self.ids.get_mut(usize::from(self.len)) {
            *slot = id;
            self.len += 1;
        }
    }

    /// The selected path ids, in the order they were pushed.
    #[inline]
    pub fn ids(&self) -> &[PathId] {
        &self.ids[..usize::from(self.len)]
    }
}

/// A protocol's data plane towards one destination prefix.
pub trait ForwardingView {
    /// Number of ASes.
    fn n(&self) -> usize;
    /// Number of packet-context states (`ctx < n_ctx`).
    fn n_ctx(&self) -> u8;
    /// Initial context for traffic originated at `src`.
    fn start_ctx(&self, src: AsId) -> u8;
    /// One forwarding step at `at` for a packet in context `ctx`.
    fn step(&self, at: AsId, ctx: u8) -> Step;
    /// The AS paths of the routes `v` currently holds selected (control
    /// plane): one for single-process protocols, one per colour for STAMP.
    /// Empty when `v` has no route. Used by the "affected in some ways"
    /// companion metric (ASes that *adopt* a selection invalidated by the
    /// event during convergence).
    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>>;

    /// The ASes whose `start_ctx`, `step` row or selections may have
    /// changed since `cursor` was last passed here, and move `cursor` to
    /// now (see `Engine::touched_since`). [`Touched::All`] — the default —
    /// means "cannot tell — recompute every row". A cursor must stay with
    /// one view lineage (one engine): places in different engines' feeds
    /// are not comparable.
    fn touched_since(&self, _cursor: &mut FeedCursor) -> Touched<'_> {
        Touched::All
    }

    /// Compact key of `v`'s current selection set: equal keys ⇔ equal
    /// [`ForwardingView::selection_paths`]. `None` (the default) means the
    /// view has no control plane: the control-plane companion metric never
    /// flags an AS seen through it.
    fn selection_key(&self, _v: AsId) -> Option<SelectionKey> {
        None
    }

    /// Is every path of [`ForwardingView::selection_paths`] invalidated by
    /// one of `causes` (vacuously so when `v` holds none)? A stored path
    /// excludes `v`, so `v`'s first-hop link counts too. The default
    /// materialises the paths; an engine view walks its arena instead.
    fn selections_invalidated(&self, v: AsId, causes: &[RootCause]) -> bool {
        let paths = self.selection_paths(v);
        paths
            .iter()
            .all(|p| causes.iter().any(|c| c.invalidates_with_head(v, p)))
    }
}

/// What a protocol adds to the shared engine view: how it forwards — its
/// forwarding rule and the packet contexts around it — and nothing else.
/// Everything else a [`ForwardingView`] answers is read off the router
/// ([`RouterLogic::speaker`], [`RouterLogic::PROCS`]) and the engine,
/// once, in [`EngineView`]'s impl.
pub trait DataPlane: RouterLogic + Sized {
    /// Packet-context states the protocol's packets can be in.
    const N_CTX: u8 = 1;

    /// Initial context for traffic this AS originates towards `prefix`.
    fn start_ctx(&self, _prefix: PrefixId) -> u8 {
        0
    }

    /// One forwarding step at `at`, which does not originate the prefix
    /// (the view delivers there itself), for a packet in context `ctx`.
    fn step(view: &EngineView<'_, Self>, at: AsId, ctx: u8) -> Step;
}

/// The data plane of a converging engine towards one prefix, for any
/// protocol that says how it forwards ([`DataPlane`]).
pub struct EngineView<'a, R: RouterLogic> {
    pub engine: &'a Engine<R>,
    pub prefix: PrefixId,
}

impl<R: DataPlane> EngineView<'_, R> {
    /// One id per process of `v` holding a selection, in process order.
    #[inline]
    fn key(&self, v: AsId) -> SelectionKey {
        let speaker = self.engine.router(v).speaker();
        let mut k = SelectionKey::EMPTY;
        for proc in ProcId::first_n(R::PROCS) {
            if let Some(p) = speaker.selection(self.prefix, proc).path_id() {
                k.push(p);
            }
        }
        k
    }
}

impl<R: DataPlane> ForwardingView for EngineView<'_, R> {
    fn n(&self) -> usize {
        self.engine.topology().n()
    }

    fn n_ctx(&self) -> u8 {
        R::N_CTX
    }

    #[inline]
    fn start_ctx(&self, src: AsId) -> u8 {
        self.engine.router(src).start_ctx(self.prefix)
    }

    #[inline]
    fn step(&self, at: AsId, ctx: u8) -> Step {
        if self.engine.router(at).speaker().originates(self.prefix) {
            return Step::Deliver;
        }
        R::step(self, at, ctx)
    }

    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        let paths = self.engine.paths();
        self.key(v).ids().iter().map(|p| paths.as_vec(*p)).collect()
    }

    fn touched_since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        self.engine.touched_since(cursor)
    }

    #[inline]
    fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
        Some(self.key(v))
    }

    fn selections_invalidated(&self, v: AsId, causes: &[RootCause]) -> bool {
        let paths = self.engine.paths();
        let bad = |&p: &PathId| {
            causes
                .iter()
                .any(|c| c.invalidates_path_with_head(paths, v, p))
        };
        self.key(v).ids().iter().all(bad)
    }
}

/// Plain-BGP view: follow the next hop while its session is up.
pub type BgpView<'a> = EngineView<'a, BgpRouter>;

impl DataPlane for BgpRouter {
    fn step(view: &BgpView<'_>, at: AsId, _ctx: u8) -> Step {
        match view.engine.router(at).next_hop(view.prefix) {
            Some(nh) if view.engine.session_up(at, nh) => Step::Hop { to: nh, ctx: 0 },
            _ => Step::Drop,
        }
    }
}

/// R-BGP view. R-BGP forwards along *pinned* paths (the paper's virtual
/// interfaces): an AS whose primary died hands the packet to the neighbour
/// that advertised it a failover path, and the packet then follows that
/// advertised path as a circuit — intermediate FIB churn cannot deflect it,
/// but any dead link on the circuit kills it (a packet may use **one**
/// failover; it cannot deviate again). With RCI the escape choice is
/// validated against known root causes, which is why full R-BGP protects
/// single link failures (Figure 2's zero bar) while the no-RCI variant
/// commits packets to stale circuits through the failure.
pub type RbgpView<'a> = EngineView<'a, RbgpRouter>;

impl DataPlane for RbgpRouter {
    fn step(view: &RbgpView<'_>, at: AsId, _ctx: u8) -> Step {
        let r = view.engine.router(at);
        let session_ok = |n: AsId| view.engine.session_up(at, n);
        if let Some(nh) = r.primary_next(view.prefix) {
            if session_ok(nh) {
                return Step::Hop { to: nh, ctx: 0 };
            }
        }
        // Primary gone: commit the packet to the chosen failover circuit.
        // Delivered iff every link of the advertised path is alive; the
        // packet cannot escape a second time.
        let paths = view.engine.paths();
        match r.escape_route(paths, view.prefix, |e| session_ok(e.neighbor)) {
            Some((_advertiser, route)) => {
                // route.path = [advertiser, …, dest]; the circuit walks it
                // from `at` (a zero-allocation arena chain walk).
                let mut prev = at;
                for hop in paths.iter(route.path) {
                    if !view.engine.session_up(prev, hop) {
                        return Step::Drop;
                    }
                    prev = hop;
                }
                Step::Deliver
            }
            None => Step::Drop,
        }
    }
}

/// STAMP view: context encodes colour (bit 0: 0 = red, 1 = blue) and the
/// switched flag (bit 1). §5.1: forward along the packet's colour; switch
/// colour at most once when the same-colour route is missing or flagged
/// unstable.
pub type StampView<'a> = EngineView<'a, StampRouter>;

fn ctx_of(color: Color, switched: bool) -> u8 {
    let c = match color {
        Color::Red => 0,
        Color::Blue => 1,
    };
    c | (u8::from(switched) << 1)
}

fn color_of(ctx: u8) -> Color {
    if ctx & 1 == 0 {
        Color::Red
    } else {
        Color::Blue
    }
}

fn switched(ctx: u8) -> bool {
    ctx & 2 != 0
}

impl DataPlane for StampRouter {
    const N_CTX: u8 = 4;

    fn start_ctx(&self, prefix: PrefixId) -> u8 {
        // The source assigns the initial colour: its active process if that
        // process holds a route, otherwise the other one. Neither choice
        // consumes the in-flight switch.
        let a = self.active_color(prefix);
        let color = if self.selection(prefix, a).is_some() {
            a
        } else if self.selection(prefix, a.other()).is_some() {
            a.other()
        } else {
            a
        };
        ctx_of(color, false)
    }

    fn step(view: &StampView<'_>, at: AsId, ctx: u8) -> Step {
        let r = view.engine.router(at);
        let prefix = view.prefix;
        let c = color_of(ctx);
        let switched = switched(ctx);
        let usable = |color: Color| -> Option<AsId> {
            let nh = r.next_hop(prefix, color);
            nh.filter(|nh| view.engine.session_up(at, *nh))
        };

        // Preference order (§5.1 + crate docs rule 3): same colour if
        // stable; else switch once to a stable other colour; else keep the
        // same colour even if unstable; else switch once to an unstable
        // other colour; else drop. Evaluated lazily — the common case
        // (same colour usable and stable) probes one route and one session.
        if let Some(to) = usable(c) {
            if !r.is_unstable(prefix, c) {
                return Step::Hop { to, ctx };
            }
            // Same colour exists but is unstable: a *stable* other colour
            // wins the switch; an unstable one loses to staying put.
            if !switched {
                if let Some(o) = usable(c.other()) {
                    if !r.is_unstable(prefix, c.other()) {
                        return Step::Hop {
                            to: o,
                            ctx: ctx_of(c.other(), true),
                        };
                    }
                }
            }
            return Step::Hop { to, ctx };
        }
        // No same-colour route at all: any other-colour route (stable
        // preferred or not — it is the only candidate) takes the switch.
        if !switched {
            if let Some(o) = usable(c.other()) {
                return Step::Hop {
                    to: o,
                    ctx: ctx_of(c.other(), true),
                };
            }
        }
        Step::Drop
    }
}

/// A standalone view over explicit next-hop tables — tracer unit tests and
/// examples use it without spinning up an engine.
pub struct StaticView {
    /// `next[as]` = forwarding entry (`None` = drop).
    pub next: Vec<Option<AsId>>,
    /// The destination AS.
    pub origin: AsId,
}

impl ForwardingView for StaticView {
    fn n(&self) -> usize {
        self.next.len()
    }

    fn n_ctx(&self) -> u8 {
        1
    }

    fn start_ctx(&self, _src: AsId) -> u8 {
        0
    }

    fn step(&self, at: AsId, _ctx: u8) -> Step {
        if at == self.origin {
            return Step::Deliver;
        }
        match self.next[at.index()] {
            Some(nh) => Step::Hop { to: nh, ctx: 0 },
            None => Step::Drop,
        }
    }

    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        match self.next[v.index()] {
            Some(nh) => vec![vec![nh]],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_ctx_encoding_roundtrips() {
        for color in Color::ALL {
            for switched in [false, true] {
                let ctx = ctx_of(color, switched);
                assert!(ctx < StampRouter::N_CTX);
                assert_eq!(color_of(ctx), color);
                assert_eq!(super::switched(ctx), switched);
            }
        }
    }

    #[test]
    fn static_view_steps() {
        let v = StaticView {
            next: vec![None, Some(AsId(0)), Some(AsId(1))],
            origin: AsId(0),
        };
        assert_eq!(v.step(AsId(0), 0), Step::Deliver);
        assert_eq!(
            v.step(AsId(2), 0),
            Step::Hop {
                to: AsId(1),
                ctx: 0
            }
        );
        let v2 = StaticView {
            next: vec![None, None],
            origin: AsId(0),
        };
        assert_eq!(v2.step(AsId(1), 0), Step::Drop);
    }
}
