//! Core protocol types shared by BGP, R-BGP and STAMP.

use crate::patharena::{CauseId, PathArena, PathId};
use stamp_topology::AsId;
use std::fmt;

/// Index of a destination prefix in the engine's prefix table. The paper's
/// experiments converge one destination at a time; the engine nevertheless
/// supports originating several prefixes concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixId(pub u32);

impl PrefixId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked construction from a dense index (see `AsId::from_usize`).
    #[inline]
    pub fn from_usize(i: usize) -> PrefixId {
        debug_assert!(u32::try_from(i).is_ok(), "PrefixId index overflows u32");
        PrefixId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

/// Routing process instance within one AS. Plain BGP and R-BGP run a single
/// instance (`ProcId(0)`); STAMP runs two — the paper's *red* and *blue*
/// processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u8);

impl ProcId {
    /// The single process of an unreplicated protocol.
    pub const ONLY: ProcId = ProcId(0);

    /// The first `n` process ids (engines iterate `first_n(R::PROCS)` instead
    /// of casting loop counters). Saturates deterministically above u8::MAX,
    /// which no engine configuration approaches.
    pub fn first_n(n: usize) -> impl Iterator<Item = ProcId> {
        (0..n).map(|i| ProcId(u8::try_from(i).unwrap_or(u8::MAX)))
    }
}

/// STAMP's two route colours, mapped onto process instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Color {
    Red,
    Blue,
}

impl Color {
    /// The other colour.
    #[inline]
    pub fn other(self) -> Color {
        match self {
            Color::Red => Color::Blue,
            Color::Blue => Color::Red,
        }
    }

    /// Process instance carrying this colour.
    #[inline]
    pub fn proc(self) -> ProcId {
        match self {
            Color::Red => ProcId(0),
            Color::Blue => ProcId(1),
        }
    }

    /// Colour carried by a process instance (STAMP runs exactly two).
    #[inline]
    pub fn from_proc(p: ProcId) -> Color {
        if p.0 == 0 {
            Color::Red
        } else {
            Color::Blue
        }
    }

    /// Both colours, red first (deterministic iteration order).
    pub const ALL: [Color; 2] = [Color::Red, Color::Blue];
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Color::Red => write!(f, "red"),
            Color::Blue => write!(f, "blue"),
        }
    }
}

/// The paper's ET (Event Type) path attribute (§5.2): one bit recording
/// whether the update was (transitively) caused by losing a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// ET=0 — the update stems from a route loss (withdrawal, failure).
    Lost,
    /// ET=1 — the update stems from a route addition or benign change.
    NotLost,
}

/// Root-cause information (R-BGP's RCI): identifies the routing event an
/// update stems from so stale paths through it can be purged immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// The link between these two ASes failed (canonical: smaller id first).
    Link(AsId, AsId),
    /// The AS failed (withdrew all routes).
    Node(AsId),
}

/// A sequence-numbered root-cause record, as BGP-RCN-style designs carry:
/// the element that changed, a monotonically increasing event sequence
/// number, and the element's new state. Receivers keep only the newest
/// record per element, so a recovery wave unblocks paths that an earlier
/// failure wave invalidated (and flapping cannot resurrect stale state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CauseInfo {
    /// The failed/recovered element.
    pub cause: RootCause,
    /// Event sequence number (assigned by the routing-event source; in the
    /// simulator, the engine's scenario counter).
    pub seq: u32,
    /// `true` if the element came back up, `false` if it failed.
    pub up: bool,
}

impl RootCause {
    /// Canonicalise a failed link's endpoints.
    pub fn link(a: AsId, b: AsId) -> RootCause {
        if a <= b {
            RootCause::Link(a, b)
        } else {
            RootCause::Link(b, a)
        }
    }

    /// Does `path` (a route's AS-level node sequence) traverse this cause?
    pub fn invalidates(&self, path: &[AsId]) -> bool {
        match *self {
            RootCause::Node(x) => path.contains(&x),
            RootCause::Link(a, b) => path
                .windows(2)
                .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a)),
        }
    }

    /// Does the interned path traverse this cause? Zero-allocation chain
    /// walk (the R-BGP purge/escape hot path).
    pub fn invalidates_path(&self, arena: &PathArena, path: PathId) -> bool {
        match *self {
            RootCause::Node(x) => arena.contains(path, x),
            RootCause::Link(a, b) => arena.traverses_link(path, a, b),
        }
    }

    /// [`Self::invalidates_with_head`] on an interned path: chain walks
    /// plus the holder→first-hop link, no allocation.
    pub fn invalidates_path_with_head(&self, arena: &PathArena, head: AsId, path: PathId) -> bool {
        match *self {
            RootCause::Node(x) => head == x || arena.contains(path, x),
            RootCause::Link(a, b) => {
                let first = (!path.is_none()).then(|| arena.head(path));
                first.is_some_and(|f| (head == a && f == b) || (head == b && f == a))
                    || arena.traverses_link(path, a, b)
            }
        }
    }

    /// Does `head · path` (a stored path with its holder prepended)
    /// traverse this cause? Avoids materialising the joined sequence.
    pub fn invalidates_with_head(&self, head: AsId, path: &[AsId]) -> bool {
        match *self {
            RootCause::Node(x) => head == x || path.contains(&x),
            RootCause::Link(a, b) => {
                if let Some(&first) = path.first() {
                    if (head == a && first == b) || (head == b && first == a) {
                        return true;
                    }
                }
                self.invalidates(path)
            }
        }
    }
}

/// Optional path attributes carried by announcements. Plain BGP leaves all
/// of them unset; STAMP uses `lock`/`et`; R-BGP uses `root_cause`/`failover`;
/// `communities` is set only by policy regimes with tagging import rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PathAttrs {
    /// STAMP Lock attribute (§4.1): guarantees one blue downhill path.
    pub lock: bool,
    /// STAMP ET attribute (§5.2). `None` on protocols that don't set it.
    pub et: Option<EventType>,
    /// R-BGP root-cause information attached to this update: a handle
    /// into the engine's [`PathArena`], whose record R-BGP resolves.
    pub root_cause: Option<CauseId>,
    /// R-BGP: this is a failover (backup) path, not the sender's best.
    pub failover: bool,
    /// Community tags, as bits of the active policy regime's community
    /// table (`stamp_policy::CompiledRegime::community_bit`). Empty under
    /// rule-free regimes, and non-transitive: `prepend` resets attributes,
    /// so each AS re-derives tags through its own import rules.
    pub communities: stamp_policy::CommunityBits,
}

/// A route as stored in a RIB or carried in an announcement.
///
/// The AS path lives in the engine's [`PathArena`]; the route itself is a
/// `Copy` handle plus attributes (R-BGP's root cause a second arena
/// handle), 24 bytes, so installing, re-exporting and queueing routes
/// never allocates. The path's first AS is the one that announced
/// the route to us (the next hop); its last is the origin AS. A route
/// announced by the origin itself has path `[origin]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    pub path: PathId,
    pub attrs: PathAttrs,
}

impl Route {
    /// Route originating at `origin` (as announced by the origin).
    pub fn originate(arena: &mut PathArena, origin: AsId) -> Route {
        Route {
            path: arena.origin_path(origin),
            attrs: PathAttrs::default(),
        }
    }

    /// AS-path length in links as seen by the *receiver* of this route
    /// (the receiver itself is not on the path yet).
    #[inline]
    pub fn len(&self, arena: &PathArena) -> u32 {
        arena.path_len(self.path)
    }

    /// The announcing neighbour (next hop for the receiver).
    #[inline]
    pub fn next_hop(&self, arena: &PathArena) -> AsId {
        arena.head(self.path)
    }

    /// The origin AS.
    #[inline]
    pub fn origin(&self, arena: &PathArena) -> AsId {
        arena.origin(self.path)
    }

    /// Does the path contain `asn` (loop detection)?
    #[inline]
    pub fn contains(&self, arena: &PathArena, asn: AsId) -> bool {
        arena.contains(self.path, asn)
    }

    /// The route as `me` would re-announce it: `me` prepended (an O(1)
    /// child-node intern), attributes reset to protocol defaults (each
    /// protocol then sets its own).
    pub fn prepend(&self, arena: &mut PathArena, me: AsId) -> Route {
        Route {
            path: arena.intern(me, self.path),
            attrs: PathAttrs::default(),
        }
    }
}

/// Reasons a withdrawal (or loss-triggered update) cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WithdrawInfo {
    /// Root cause if the sender runs RCI (a [`PathArena`] handle).
    pub root_cause: Option<CauseId>,
    /// STAMP ET attribute on withdrawals: a withdrawal caused by an actual
    /// route loss carries `Lost`; STAMP's selective-announcement
    /// "backtracking" (a provider stops hearing blue because red now takes
    /// precedence) withdraws with `NotLost` so receivers don't flag the
    /// process unstable. `None` (plain BGP) is treated as `Lost`.
    pub et: Option<EventType>,
    /// R-BGP: this withdrawal retracts the sender's *failover* (backup)
    /// advertisement rather than its best route.
    pub failover: bool,
}

impl WithdrawInfo {
    /// A plain loss-caused withdrawal (what unmodified BGP sends).
    pub fn loss() -> WithdrawInfo {
        WithdrawInfo {
            root_cause: None,
            et: Some(EventType::Lost),
            failover: false,
        }
    }

    /// Should the receiver treat this withdrawal as a route loss?
    pub fn is_loss(&self) -> bool {
        self.et != Some(EventType::NotLost)
    }
}

/// Body of an update message. `Copy`: the route is an arena handle, so
/// queueing a message through MRAI slots and FIFO channels costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Announce (or implicitly replace) a route.
    Announce(Route),
    /// Withdraw the previously announced route.
    Withdraw(WithdrawInfo),
}

/// A BGP UPDATE for one prefix on one process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMsg {
    pub prefix: PrefixId,
    pub kind: UpdateKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<AsId> {
        v.iter().map(|&x| AsId(x)).collect()
    }

    #[test]
    fn color_proc_mapping_roundtrips() {
        for c in Color::ALL {
            assert_eq!(Color::from_proc(c.proc()), c);
            assert_eq!(c.other().other(), c);
        }
        assert_ne!(Color::Red.proc(), Color::Blue.proc());
    }

    #[test]
    fn route_accessors() {
        let mut a = PathArena::new();
        let r = Route {
            path: a.intern_slice(&ids(&[3, 2, 1])),
            attrs: PathAttrs::default(),
        };
        assert_eq!(r.next_hop(&a), AsId(3));
        assert_eq!(r.origin(&a), AsId(1));
        assert_eq!(r.len(&a), 3);
        assert!(r.contains(&a, AsId(2)));
        assert!(!r.contains(&a, AsId(9)));
    }

    #[test]
    fn prepend_builds_announcement_path() {
        let mut a = PathArena::new();
        let r = Route::originate(&mut a, AsId(1));
        let at2 = r.prepend(&mut a, AsId(2));
        assert_eq!(a.as_vec(at2.path), ids(&[2, 1]));
        let at5 = at2.prepend(&mut a, AsId(5));
        assert_eq!(a.as_vec(at5.path), ids(&[5, 2, 1]));
        assert_eq!(at5.origin(&a), AsId(1));
        assert_eq!(at5.next_hop(&a), AsId(5));
        // Hash-consing: equal paths are equal handles.
        assert_eq!(a.intern_slice(&ids(&[5, 2, 1])), at5.path);
    }

    #[test]
    fn prepend_resets_attrs() {
        let mut a = PathArena::new();
        let mut r = Route::originate(&mut a, AsId(1));
        r.attrs.lock = true;
        r.attrs.et = Some(EventType::Lost);
        let p = r.prepend(&mut a, AsId(2));
        assert_eq!(p.attrs, PathAttrs::default());
    }

    #[test]
    fn root_cause_link_invalidation() {
        let rc = RootCause::link(AsId(5), AsId(2));
        assert_eq!(rc, RootCause::link(AsId(2), AsId(5)));
        assert!(rc.invalidates(&ids(&[7, 5, 2, 1])));
        assert!(rc.invalidates(&ids(&[7, 2, 5, 1])));
        assert!(!rc.invalidates(&ids(&[7, 5, 3, 2])));
    }

    #[test]
    fn root_cause_node_invalidation() {
        let rc = RootCause::Node(AsId(4));
        assert!(rc.invalidates(&ids(&[1, 4, 2])));
        assert!(!rc.invalidates(&ids(&[1, 3, 2])));
    }

    #[test]
    fn invalidates_path_matches_slice_semantics() {
        let mut a = PathArena::new();
        for path in [&[7u32, 5, 2, 1][..], &[7, 2, 5, 1], &[7, 5, 3, 2], &[4]] {
            let slice = ids(path);
            let id = a.intern_slice(&slice);
            for rc in [
                RootCause::link(AsId(5), AsId(2)),
                RootCause::link(AsId(7), AsId(1)),
                RootCause::Node(AsId(4)),
                RootCause::Node(AsId(9)),
            ] {
                assert_eq!(
                    rc.invalidates_path(&a, id),
                    rc.invalidates(&slice),
                    "{rc:?} on {path:?}"
                );
            }
        }
    }

    #[test]
    fn invalidates_with_head_matches_joined_slice() {
        let head = AsId(7);
        let mut a = PathArena::new();
        for rest in [&[5u32, 2, 1][..], &[2, 5], &[]] {
            let rest = ids(rest);
            let id = a.intern_slice(&rest);
            let mut joined = vec![head];
            joined.extend_from_slice(&rest);
            for rc in [
                RootCause::link(AsId(7), AsId(5)),
                RootCause::link(AsId(5), AsId(2)),
                RootCause::Node(AsId(7)),
                RootCause::Node(AsId(1)),
                RootCause::Node(AsId(9)),
            ] {
                assert_eq!(
                    rc.invalidates_with_head(head, &rest),
                    rc.invalidates(&joined),
                    "{rc:?} on {joined:?}"
                );
                assert_eq!(
                    rc.invalidates_path_with_head(&a, head, id),
                    rc.invalidates(&joined),
                    "{rc:?} on interned {joined:?}"
                );
            }
        }
    }
}
