//! Per-protocol forwarding functions.
//!
//! A [`ForwardingView`] reduces a protocol's data plane to a deterministic
//! successor function over `(AS, packet context)` states, where the context
//! is a small integer encoding the per-packet bits the protocol carries
//! (STAMP: colour + switched flag; R-BGP: the escape flag; BGP: nothing).
//! Determinism makes the state space a functional graph, so loop/blackhole
//! classification is exact and O(states) — no packet sampling involved.

use stamp_bgp::engine::Engine;
use stamp_bgp::router::BgpRouter;
use stamp_bgp::types::{Color, PrefixId};
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

    /// Key of a single optional selection (BGP, R-BGP).
    #[inline]
    pub fn of_one(id: Option<PathId>) -> SelectionKey {
        let mut k = SelectionKey::EMPTY;
        if let Some(p) = id {
            k.push(p);
        }
        k
    }

    /// Append one selected path id (order-sensitive, max 2).
    #[inline]
    pub fn push(&mut self, id: PathId) {
        debug_assert!((self.len as usize) < self.ids.len());
        if let Some(slot) = self.ids.get_mut(usize::from(self.len)) {
            *slot = id;
            self.len += 1;
        }
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
    /// view cannot key selections and callers must compare materialised
    /// paths.
    fn selection_key(&self, _v: AsId) -> Option<SelectionKey> {
        None
    }
}

/// Plain-BGP view over a converging engine.
pub struct BgpView<'a> {
    pub engine: &'a Engine<BgpRouter>,
    pub prefix: PrefixId,
}

impl ForwardingView for BgpView<'_> {
    fn n(&self) -> usize {
        self.engine.topology().n()
    }

    fn n_ctx(&self) -> u8 {
        1
    }

    fn start_ctx(&self, _src: AsId) -> u8 {
        0
    }

    fn step(&self, at: AsId, _ctx: u8) -> Step {
        let r = self.engine.router(at);
        if r.originates(self.prefix) {
            return Step::Deliver;
        }
        match r.next_hop(self.prefix) {
            Some(nh) if self.engine.session_up(at, nh) => Step::Hop { to: nh, ctx: 0 },
            _ => Step::Drop,
        }
    }

    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        match self.engine.router(v).selection(self.prefix).path_id() {
            Some(p) => vec![self.engine.paths().as_vec(p)],
            None => Vec::new(),
        }
    }

    fn touched_since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        self.engine.touched_since(cursor, false)
    }

    fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
        Some(SelectionKey::of_one(
            self.engine.router(v).selection(self.prefix).path_id(),
        ))
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
pub struct RbgpView<'a> {
    pub engine: &'a Engine<RbgpRouter>,
    pub prefix: PrefixId,
}

impl ForwardingView for RbgpView<'_> {
    fn n(&self) -> usize {
        self.engine.topology().n()
    }

    fn n_ctx(&self) -> u8 {
        1
    }

    fn start_ctx(&self, _src: AsId) -> u8 {
        0
    }

    fn step(&self, at: AsId, _ctx: u8) -> Step {
        let r = self.engine.router(at);
        if r.originates(self.prefix) {
            return Step::Deliver;
        }
        let session_ok = |n: AsId| self.engine.session_up(at, n);
        if let Some(nh) = r.primary_next(self.prefix) {
            if session_ok(nh) {
                return Step::Hop { to: nh, ctx: 0 };
            }
        }
        // Primary gone: commit the packet to the chosen failover circuit.
        // Delivered iff every link of the advertised path is alive; the
        // packet cannot escape a second time.
        match r.escape_route(self.engine.paths(), self.prefix, session_ok) {
            Some((_advertiser, route)) => {
                // route.path = [advertiser, …, dest]; the circuit walks it
                // from `at` (a zero-allocation arena chain walk).
                let mut prev = at;
                for hop in self.engine.paths().iter(route.path) {
                    if !self.engine.session_up(prev, hop) {
                        return Step::Drop;
                    }
                    prev = hop;
                }
                Step::Deliver
            }
            None => Step::Drop,
        }
    }

    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        match self.engine.router(v).selection(self.prefix).path_id() {
            Some(p) => vec![self.engine.paths().as_vec(p)],
            None => Vec::new(),
        }
    }

    fn touched_since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        // The escape circuit in `step` reads the liveness of links far
        // from `at`: any flip anywhere can change any row.
        self.engine.touched_since(cursor, true)
    }

    fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
        Some(SelectionKey::of_one(
            self.engine.router(v).selection(self.prefix).path_id(),
        ))
    }
}

/// STAMP view: context encodes colour (bit 0: 0 = red, 1 = blue) and the
/// switched flag (bit 1). §5.1: forward along the packet's colour; switch
/// colour at most once when the same-colour route is missing or flagged
/// unstable.
pub struct StampView<'a> {
    pub engine: &'a Engine<StampRouter>,
    pub prefix: PrefixId,
}

impl StampView<'_> {
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
}

impl ForwardingView for StampView<'_> {
    fn n(&self) -> usize {
        self.engine.topology().n()
    }

    fn n_ctx(&self) -> u8 {
        4
    }

    fn start_ctx(&self, src: AsId) -> u8 {
        // The source assigns the initial colour: its active process if that
        // process holds a route, otherwise the other one. Neither choice
        // consumes the in-flight switch.
        let r = self.engine.router(src);
        let a = r.active_color(self.prefix);
        let color = if r.selection(self.prefix, a).is_some() {
            a
        } else if r.selection(self.prefix, a.other()).is_some() {
            a.other()
        } else {
            a
        };
        Self::ctx_of(color, false)
    }

    fn step(&self, at: AsId, ctx: u8) -> Step {
        let r = self.engine.router(at);
        if r.originates(self.prefix) {
            return Step::Deliver;
        }
        let c = Self::color_of(ctx);
        let switched = Self::switched(ctx);
        let session_ok = |n: AsId| self.engine.session_up(at, n);

        let usable = |color: Color| -> Option<AsId> {
            r.next_hop(self.prefix, color).filter(|nh| session_ok(*nh))
        };

        // Preference order (§5.1 + crate docs rule 3): same colour if
        // stable; else switch once to a stable other colour; else keep the
        // same colour even if unstable; else switch once to an unstable
        // other colour; else drop. Evaluated lazily — the common case
        // (same colour usable and stable) probes one route and one session.
        if let Some(to) = usable(c) {
            if !r.is_unstable(self.prefix, c) {
                return Step::Hop { to, ctx };
            }
            // Same colour exists but is unstable: a *stable* other colour
            // wins the switch; an unstable one loses to staying put.
            if !switched {
                if let Some(o) = usable(c.other()) {
                    if !r.is_unstable(self.prefix, c.other()) {
                        return Step::Hop {
                            to: o,
                            ctx: Self::ctx_of(c.other(), true),
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
                    ctx: Self::ctx_of(c.other(), true),
                };
            }
        }
        Step::Drop
    }

    fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
        let r = self.engine.router(v);
        Color::ALL
            .iter()
            .filter_map(|c| {
                r.selection(self.prefix, *c)
                    .path_id()
                    .map(|p| self.engine.paths().as_vec(p))
            })
            .collect()
    }

    fn touched_since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        self.engine.touched_since(cursor, false)
    }

    fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
        // Same filtered traversal order as `selection_paths`, so the key
        // equivalence holds: `[red, —]` and `[—, red]` both key as one id.
        let r = self.engine.router(v);
        let mut k = SelectionKey::EMPTY;
        for c in Color::ALL.iter() {
            if let Some(p) = r.selection(self.prefix, *c).path_id() {
                k.push(p);
            }
        }
        Some(k)
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
                let ctx = StampView::ctx_of(color, switched);
                assert!(ctx < 4);
                assert_eq!(StampView::color_of(ctx), color);
                assert_eq!(StampView::switched(ctx), switched);
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
