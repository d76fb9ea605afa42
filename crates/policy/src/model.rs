//! The policy data model: sets, matchers, actions and rules.
//!
//! Everything here is *plain data* — no topology or route types beyond
//! [`Relation`] — so a regime can be constructed programmatically, parsed
//! from `.pol` text, compared for equality, and printed back canonically.
//! Communities are plain `u32` values at this layer; the compiler
//! ([`crate::compile`]) maps the (at most 64) distinct values a regime
//! mentions onto bits of a [`CommunityBits`] word so routes stay `Copy`.

use stamp_topology::Relation;

/// Dense index of a relation: Customer = 0, Peer = 1, Provider = 2.
///
/// The compiled tables ([`crate::CompiledRegime`]) are indexed by this on
/// their "toward"/"learned" axes, so the hot paths are pure array reads.
#[inline]
pub fn rel_idx(r: Relation) -> usize {
    match r {
        Relation::Customer => 0,
        Relation::Peer => 1,
        Relation::Provider => 2,
    }
}

/// Dense index of a route's provenance: `None` (originated here) = 0,
/// then `Some(rel)` as 1 + [`rel_idx`].
#[inline]
pub fn learned_idx(learned: Option<Relation>) -> usize {
    match learned {
        None => 0,
        Some(r) => 1 + rel_idx(r),
    }
}

/// The canonical lowercase name of a relation in `.pol` text.
pub fn rel_name(r: Relation) -> &'static str {
    match r {
        Relation::Customer => "customer",
        Relation::Peer => "peer",
        Relation::Provider => "provider",
    }
}

/// Parse a lowercase relation name (`customer` / `peer` / `provider`).
pub fn rel_from_name(s: &str) -> Option<Relation> {
    match s {
        "customer" => Some(Relation::Customer),
        "peer" => Some(Relation::Peer),
        "provider" => Some(Relation::Provider),
        _ => None,
    }
}

/// Up to 64 communities carried on a route as a fixed bitset, so
/// `Route`/`UpdateMsg` stay `Copy` (DESIGN.md §7.1). Bit positions are
/// assigned per-regime at compile time — see
/// [`crate::CompiledRegime::community_bit`] — which is sound because one
/// engine runs exactly one compiled regime for its whole lifetime.
///
/// The default (empty) value is what every route carries under a regime
/// with no community rules, so adding this field to `PathAttrs` changes
/// no equality, hash or golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CommunityBits(u64);

impl CommunityBits {
    /// No communities set.
    pub const EMPTY: CommunityBits = CommunityBits(0);

    /// Wrap a raw bit word.
    #[inline]
    pub fn from_bits(bits: u64) -> CommunityBits {
        CommunityBits(bits)
    }

    /// The raw bit word.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// True when no community bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `bit` (0..64) is set.
    #[inline]
    pub fn contains(self, bit: u8) -> bool {
        self.0 & (1u64 << bit) != 0
    }

    /// A copy with `bit` set.
    #[inline]
    pub fn with(self, bit: u8) -> CommunityBits {
        CommunityBits(self.0 | (1u64 << bit))
    }

    /// A copy with `bit` cleared.
    #[inline]
    pub fn without(self, bit: u8) -> CommunityBits {
        CommunityBits(self.0 & !(1u64 << bit))
    }

    /// True when any bit of `mask` is set here.
    #[inline]
    pub fn intersects(self, mask: u64) -> bool {
        self.0 & mask != 0
    }
}

/// A set of dense prefix ids, stored sorted and deduplicated so equal sets
/// compare equal and print canonically (`1,3,7`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSet(Vec<u32>);

impl PrefixSet {
    /// Build from any order; duplicates collapse.
    pub fn new(mut values: Vec<u32>) -> PrefixSet {
        values.sort_unstable();
        values.dedup();
        PrefixSet(values)
    }

    /// Membership by binary search.
    #[inline]
    pub fn contains(&self, p: u32) -> bool {
        self.0.binary_search(&p).is_ok()
    }

    /// The sorted members.
    pub fn values(&self) -> &[u32] {
        &self.0
    }
}

/// A set of `u32` community values, stored sorted and deduplicated (same
/// canonical-form discipline as [`PrefixSet`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunitySet(Vec<u32>);

impl CommunitySet {
    /// Build from any order; duplicates collapse.
    pub fn new(mut values: Vec<u32>) -> CommunitySet {
        values.sort_unstable();
        values.dedup();
        CommunitySet(values)
    }

    /// Membership by binary search.
    #[inline]
    pub fn contains(&self, c: u32) -> bool {
        self.0.binary_search(&c).is_ok()
    }

    /// The sorted members.
    pub fn values(&self) -> &[u32] {
        &self.0
    }
}

/// One predicate of an import rule. A rule matches when *all* its
/// matchers do ([`Matcher::Any`] stands alone and always matches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Matcher {
    /// Always true. Only valid as a rule's sole matcher.
    Any,
    /// The announced prefix (dense id) is in the set.
    Prefix(PrefixSet),
    /// The route carries at least one community from the set.
    Community(CommunitySet),
    /// The AS appears anywhere on the route's AS path.
    AsInPath(u32),
    /// The route was learned over a session with this relation.
    LearnedFrom(Relation),
    /// The AS-path length strictly exceeds the bound (catches prepending).
    PathLongerThan(u32),
}

/// One effect of an import rule; applied in rule order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Override the route's local preference.
    SetLocalPref(u32),
    /// Tag the route with a community.
    AddCommunity(u32),
    /// Remove a community tag (no-op when absent).
    StripCommunity(u32),
    /// Drop the route at import; later rules never run.
    Reject,
}

/// One `match → action` rule of an import policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Conjunction of predicates; never empty.
    pub matchers: Vec<Matcher>,
    /// Effects applied in order when the matchers all hold; never empty.
    pub actions: Vec<Action>,
}

/// An ordered list of import rules, evaluated first to last against every
/// accepted announcement. Empty for the classical regimes — the compiled
/// hot path skips rule interpretation entirely in that case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyList {
    /// The rules, in evaluation order.
    pub rules: Vec<Rule>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_canonicalize() {
        assert_eq!(
            PrefixSet::new(vec![3, 1, 3, 2]),
            PrefixSet::new(vec![1, 2, 3])
        );
        assert_eq!(PrefixSet::new(vec![3, 1, 2]).values(), &[1, 2, 3]);
        assert_eq!(
            CommunitySet::new(vec![9, 7, 9]).values(),
            CommunitySet::new(vec![7, 9]).values()
        );
        assert!(PrefixSet::new(vec![4, 8]).contains(8));
        assert!(!PrefixSet::new(vec![4, 8]).contains(5));
    }

    #[test]
    fn community_bits_ops() {
        let b = CommunityBits::EMPTY.with(3).with(63);
        assert!(b.contains(3) && b.contains(63) && !b.contains(4));
        assert!(b.intersects(1 << 63));
        assert!(!b.intersects(1 << 4));
        assert_eq!(b.without(3).bits(), 1u64 << 63);
        assert_eq!(CommunityBits::default(), CommunityBits::EMPTY);
    }

    #[test]
    fn dense_indices_cover_the_matrix() {
        let rels = [Relation::Customer, Relation::Peer, Relation::Provider];
        let idxs: Vec<usize> = rels.iter().map(|&r| rel_idx(r)).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
        assert_eq!(learned_idx(None), 0);
        for &r in &rels {
            assert_eq!(learned_idx(Some(r)), 1 + rel_idx(r));
            assert_eq!(rel_from_name(rel_name(r)), Some(r));
        }
        assert_eq!(rel_from_name("Customer"), None);
    }
}
