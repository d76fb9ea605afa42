//! Hash-consed, append-only storage for AS paths.
//!
//! Every AS path that exists anywhere in a simulation — RIB entries,
//! rib-out maps, in-flight update messages, failover circuits — is interned
//! here exactly once and referred to by a [`PathId`] handle. Paths share
//! structure maximally: each interned node is a `(head, tail)` cons cell,
//! so `prepend` (the only path constructor BGP ever uses on the hot path)
//! is an O(1) child-node intern, path equality is an integer compare, and
//! iteration or loop detection walks the parent chain with zero allocation.
//!
//! The arena is append-only and never garbage-collected: the simulator's
//! path population is bounded by the routes the protocol explores, which
//! the hash-consing dedupes, and a stable population is exactly what makes
//! `PathId` comparisons sound for the whole run.
//!
//! **Determinism.** Ids are assigned sequentially in intern order, and
//! interning happens only while routers process events, whose order the
//! deterministic scheduler fixes. Equal seeds therefore produce identical
//! arenas — the invariant the determinism regression suite pins down.

use stamp_eventsim::FxHashMap;
use stamp_topology::AsId;

/// Handle to an interned AS path. `PathId::NONE` is the empty path (used
/// only as the terminal `tail` of origin nodes — no [`crate::types::Route`]
/// ever carries it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The empty path (chain terminator).
    pub const NONE: PathId = PathId(u32::MAX);

    /// Is this the empty path?
    #[inline]
    pub fn is_none(self) -> bool {
        self == PathId::NONE
    }

    /// Raw index (diagnostics only — meaningless across arenas).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One cons cell of the path DAG. `len`, `origin` and the membership
/// `mask` are denormalised at intern time so the common accessors are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    head: AsId,
    tail: PathId,
    len: u32,
    origin: AsId,
    /// 64-bit Bloom-style summary of the ASes on the path: a clear bit
    /// proves absence, so loop detection rejects almost every candidate
    /// with one AND instead of a chain walk.
    mask: u64,
}

/// The mask bit for one AS (multiplicative hash spreads dense ids).
#[inline]
fn mask_bit(asn: AsId) -> u64 {
    1u64 << (asn.0.wrapping_mul(0x9E37_79B1) >> 26 & 63)
}

/// The arena. One per simulation engine (shared by every router in it);
/// standalone unit tests own private ones.
#[derive(Debug, Default)]
pub struct PathArena {
    nodes: Vec<Node>,
    /// `(head, tail) → id` intern index. Deterministic Fx hashing: the
    /// keys are simulator-generated ids, never untrusted input, and one
    /// multiply beats SipHash rounds on the prepend-heavy intern path.
    index: FxHashMap<(AsId, PathId), PathId>,
}

impl Clone for PathArena {
    fn clone(&self) -> PathArena {
        PathArena {
            nodes: self.nodes.clone(),
            index: self.index.clone(),
        }
    }

    /// Rewind to (or adopt) `source`, keeping both containers' buffers.
    /// When this arena is an append-only extension of `source` — same
    /// nodes in the same order up to `source`'s length, one contiguous
    /// compare over plain-`Copy` nodes — every node interned past that
    /// length is popped and evicted from the intern index, no copying;
    /// otherwise `source` is copied wholesale. Either way a later
    /// re-intern of the same path content is assigned ids purely by
    /// intern order from `source`'s length again, which is what keeps a
    /// rewound run byte-identical to a cold one: it can never observe
    /// path ids a sibling interned after `source` was taken.
    fn clone_from(&mut self, source: &PathArena) {
        let keep = source.nodes.len();
        if self.nodes.len() >= keep && self.nodes[..keep] == source.nodes {
            for node in self.nodes.drain(keep..) {
                self.index.remove(&(node.head, node.tail));
            }
        } else {
            self.nodes.clone_from(&source.nodes);
            self.index.clone_from(&source.index);
        }
    }
}

impl PathArena {
    /// Empty arena.
    pub fn new() -> PathArena {
        PathArena::default()
    }

    /// Number of distinct interned paths (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    fn node(&self, id: PathId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Intern the path `head · tail` (the path starting at `head` and
    /// continuing with the already-interned `tail`). O(1): one hash probe,
    /// at most one append.
    // simlint::hot
    pub fn intern(&mut self, head: AsId, tail: PathId) -> PathId {
        if let Some(&id) = self.index.get(&(head, tail)) {
            return id;
        }
        let (len, origin, mask) = if tail.is_none() {
            (1, head, mask_bit(head))
        } else {
            let t = self.node(tail);
            (t.len + 1, t.origin, t.mask | mask_bit(head))
        };
        // simlint::allow(panic, "interning beyond u32::MAX paths is unrepresentable; fail loudly, not silently")
        let id = PathId(u32::try_from(self.nodes.len()).expect("arena capacity exceeded"));
        assert!(id != PathId::NONE, "arena capacity exceeded");
        self.nodes.push(Node {
            head,
            tail,
            len,
            origin,
            mask,
        });
        self.index.insert((head, tail), id);
        id
    }

    /// Intern the single-hop path `[origin]` (a route as announced by the
    /// origin itself).
    pub fn origin_path(&mut self, origin: AsId) -> PathId {
        self.intern(origin, PathId::NONE)
    }

    /// Intern an explicit AS sequence (tests, probes). Returns
    /// `PathId::NONE` for an empty slice.
    pub fn intern_slice(&mut self, path: &[AsId]) -> PathId {
        let mut id = PathId::NONE;
        for &asn in path.iter().rev() {
            id = self.intern(asn, id);
        }
        id
    }

    /// First AS of the path (the announcing neighbour / next hop).
    #[inline]
    pub fn head(&self, id: PathId) -> AsId {
        self.node(id).head
    }

    /// The path with its head removed (`PathId::NONE` after an origin).
    #[inline]
    pub fn tail(&self, id: PathId) -> PathId {
        self.node(id).tail
    }

    /// Number of ASes on the path (0 for `NONE`).
    #[inline]
    pub fn path_len(&self, id: PathId) -> u32 {
        if id.is_none() {
            0
        } else {
            self.node(id).len
        }
    }

    /// The origin AS (last element).
    #[inline]
    pub fn origin(&self, id: PathId) -> AsId {
        self.node(id).origin
    }

    /// Does the path contain `asn` (loop detection)? The node's membership
    /// mask rejects most non-members with one AND; only possible members
    /// pay the zero-allocation chain walk.
    pub fn contains(&self, id: PathId, asn: AsId) -> bool {
        if id.is_none() || self.node(id).mask & mask_bit(asn) == 0 {
            return false;
        }
        self.iter(id).any(|a| a == asn)
    }

    /// Does the path traverse the undirected link `a`–`b`?
    pub fn traverses_link(&self, id: PathId, a: AsId, b: AsId) -> bool {
        if id.is_none() {
            return false;
        }
        let mask = self.node(id).mask;
        if mask & mask_bit(a) == 0 || mask & mask_bit(b) == 0 {
            return false;
        }
        let mut it = self.iter(id);
        let Some(mut prev) = it.next() else {
            return false;
        };
        for hop in it {
            if (prev == a && hop == b) || (prev == b && hop == a) {
                return true;
            }
            prev = hop;
        }
        false
    }

    /// How many ASes of `a` also appear on `b` (disjointness scoring)?
    /// O(|a|·|b|) chain walks — paths are short; no allocation. Disjoint
    /// masks prove a zero overlap outright.
    pub fn shared_with(&self, a: PathId, b: PathId) -> usize {
        if a.is_none() || b.is_none() || self.node(a).mask & self.node(b).mask == 0 {
            return 0;
        }
        self.iter(a).filter(|&asn| self.contains(b, asn)).count()
    }

    /// Iterate the path from next hop to origin.
    pub fn iter(&self, id: PathId) -> PathIter<'_> {
        PathIter {
            arena: self,
            cur: id,
        }
    }

    /// Materialise the path as a `Vec` (display, baselines, interop with
    /// slice-based analyses — not for the hot path).
    pub fn as_vec(&self, id: PathId) -> Vec<AsId> {
        self.iter(id).collect()
    }
}

/// Iterator over an interned path's ASes, next hop first.
pub struct PathIter<'a> {
    arena: &'a PathArena,
    cur: PathId,
}

impl Iterator for PathIter<'_> {
    type Item = AsId;

    #[inline]
    fn next(&mut self) -> Option<AsId> {
        if self.cur.is_none() {
            return None;
        }
        let n = self.arena.node(self.cur);
        self.cur = n.tail;
        Some(n.head)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.arena.path_len(self.cur) as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for PathIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<AsId> {
        v.iter().map(|&x| AsId(x)).collect()
    }

    #[test]
    fn intern_dedupes_and_roundtrips() {
        let mut a = PathArena::new();
        let p = a.intern_slice(&ids(&[5, 2, 1]));
        let q = a.intern_slice(&ids(&[5, 2, 1]));
        assert_eq!(p, q);
        assert_eq!(a.as_vec(p), ids(&[5, 2, 1]));
        assert_eq!(a.path_len(p), 3);
        assert_eq!(a.head(p), AsId(5));
        assert_eq!(a.origin(p), AsId(1));
        // Three cons cells total, shared by both interns.
        assert_eq!(a.node_count(), 3);
    }

    #[test]
    fn prepend_is_child_intern() {
        let mut a = PathArena::new();
        let origin = a.origin_path(AsId(1));
        let at2 = a.intern(AsId(2), origin);
        let at5 = a.intern(AsId(5), at2);
        assert_eq!(a.as_vec(at5), ids(&[5, 2, 1]));
        assert_eq!(a.origin(at5), AsId(1));
        assert_eq!(a.path_len(at5), 3);
        // Structure is shared: interning the same prefix again is free.
        assert_eq!(a.intern(AsId(5), at2), at5);
        assert_eq!(a.node_count(), 3);
    }

    #[test]
    fn contains_and_links() {
        let mut a = PathArena::new();
        let p = a.intern_slice(&ids(&[7, 5, 2, 1]));
        assert!(a.contains(p, AsId(5)));
        assert!(!a.contains(p, AsId(9)));
        assert!(a.traverses_link(p, AsId(5), AsId(2)));
        assert!(a.traverses_link(p, AsId(2), AsId(5)));
        assert!(!a.traverses_link(p, AsId(7), AsId(2)));
        let single = a.origin_path(AsId(3));
        assert!(!a.traverses_link(single, AsId(3), AsId(3)));
    }

    #[test]
    fn shared_counts_common_ases() {
        let mut a = PathArena::new();
        let p = a.intern_slice(&ids(&[7, 5, 2, 1]));
        let q = a.intern_slice(&ids(&[6, 5, 1]));
        assert_eq!(a.shared_with(p, q), 2); // 5 and 1
        assert_eq!(a.shared_with(q, p), 2);
        assert_eq!(a.shared_with(p, PathId::NONE), 0);
    }

    #[test]
    fn empty_path_semantics() {
        let a = PathArena::new();
        assert_eq!(a.path_len(PathId::NONE), 0);
        assert_eq!(a.iter(PathId::NONE).count(), 0);
        assert!(PathId::NONE.is_none());
    }

    #[test]
    fn truncate_to_mark_restores_intern_order() {
        let mut a = PathArena::new();
        let base = a.intern_slice(&ids(&[2, 1]));
        let mark = a.clone();
        // Two divergent futures interned after the mark must produce
        // identical ids once the first is rolled back.
        let x = a.intern(AsId(9), base);
        let x2 = a.intern(AsId(8), x);
        a.clone_from(&mark);
        assert_eq!(a.node_count(), 2);
        let y = a.intern(AsId(7), base);
        assert_eq!(y, x, "post-mark ids restart at the mark");
        assert_eq!(a.as_vec(y), ids(&[7, 2, 1]));
        // The evicted (9, base) entry really left the index: re-interning
        // the old content allocates a fresh node instead of resurrecting x.
        let z = a.intern(AsId(9), base);
        assert_eq!(z, x2);
        assert_eq!(a.as_vec(z), ids(&[9, 2, 1]));
        // Pre-mark nodes survive untouched.
        assert_eq!(a.as_vec(base), ids(&[2, 1]));
        // An arena of another lineage is not a mark to truncate to: it is
        // adopted whole, index included.
        let mut other = PathArena::new();
        let p = other.intern_slice(&ids(&[5, 1]));
        a.clone_from(&other);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.as_vec(p), ids(&[5, 1]));
        assert_eq!(a.intern_slice(&ids(&[5, 1])), p, "the index came along");
        assert_eq!(
            a.intern(AsId(2), PathId::NONE),
            PathId(2),
            "and [2] did not"
        );
    }

    #[test]
    fn truncate_to_mark_noop_at_current_length() {
        let mut a = PathArena::new();
        a.intern_slice(&ids(&[3, 1]));
        let mark = a.clone();
        a.clone_from(&mark);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.intern_slice(&ids(&[3, 1])), PathId(1));
    }

    #[test]
    fn ids_depend_only_on_intern_order() {
        let build = || {
            let mut a = PathArena::new();
            let mut last = PathId::NONE;
            for i in 0..50u32 {
                last = a.intern(AsId(i % 7), last);
            }
            (a.node_count(), last)
        };
        assert_eq!(build(), build());
    }
}
