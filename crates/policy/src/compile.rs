//! Lowering a [`PolicyRegime`] to dense decision tables.
//!
//! The simulator's `decide`/export paths are `// simlint::hot` — no
//! allocation, no hashing, no rule interpretation. [`CompiledRegime`]
//! pre-resolves everything those paths need at build time:
//!
//! * base local preference → a 3-entry array indexed by relation;
//! * the export gate → a 4×3 `bool` matrix indexed by
//!   `(learned, toward)`;
//! * community-scoped export denials → one `u64` mask per "toward"
//!   relation (route bits AND mask, one branch);
//! * the (at most 64) distinct community values → bit positions, so
//!   routes carry a `Copy` [`CommunityBits`] word instead of a set.
//!
//! Import rules, when a regime has any, are compiled with community sets
//! pre-folded into masks; the classical regimes compile to an empty rule
//! list and [`CompiledRegime::import`] never touches the rule loop (or
//! the caller's path closure) for them. Equivalence with the naive
//! interpreter on the uncompiled form is pinned by property tests
//! (`tests/policy.rs`).

use crate::dsl::regime_communities;
use crate::model::{learned_idx, rel_idx, Action, CommunityBits, Matcher, PrefixSet};
use crate::regime::PolicyRegime;
use stamp_topology::Relation;
use std::sync::OnceLock;

/// Why a regime failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// More than 64 distinct community values (the `.pol` parser rejects
    /// such documents before they get here; programmatic regimes can
    /// still trip it).
    TooManyCommunities(usize),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyCommunities(n) => {
                write!(f, "{n} distinct communities (at most 64 per regime)")
            }
        }
    }
}

/// A matcher with its community set pre-folded to a bit mask.
#[derive(Debug, Clone)]
enum CMatcher {
    Prefix(PrefixSet),
    CommunityMask(u64),
    AsInPath(u32),
    LearnedFrom(Relation),
    PathLongerThan(u32),
}

/// An action with its community pre-folded to a bit mask.
#[derive(Debug, Clone)]
enum CAction {
    SetLocalPref(u32),
    AddMask(u64),
    StripMask(u64),
    Reject,
}

#[derive(Debug, Clone)]
struct CRule {
    /// Conjunction; empty means "always" (the `any` matcher).
    matchers: Vec<CMatcher>,
    actions: Vec<CAction>,
}

/// Everything an import routing decision needs, flattened so the policy
/// crate never has to see `Route`/`PathArena` (those live upstream in the
/// bgp crate). `path_contains` is only consulted when a compiled rule
/// actually matches on `as-in-path` — the classical regimes never call
/// it.
pub struct ImportCtx<'a> {
    /// Dense id of the announced prefix.
    pub prefix: u32,
    /// Relation of the session the route arrived over.
    pub learned_from: Relation,
    /// AS-path length of the announced route.
    pub path_len: u32,
    /// Communities already on the route (normally empty: attributes
    /// reset on prepend, so tags are re-derived at every import).
    pub communities: CommunityBits,
    /// Does the route's AS path contain this AS id?
    pub path_contains: &'a dyn Fn(u32) -> bool,
}

/// The result of an accepted import: the local preference to store with
/// the RIB entry and the (possibly re-tagged) community word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportOutcome {
    /// Local preference the decision process will compare.
    pub pref: u32,
    /// Communities the stored/exported route carries.
    pub communities: CommunityBits,
}

/// A [`PolicyRegime`] lowered to dense tables; see the module docs.
/// Built once per engine (or once ever, for
/// [`CompiledRegime::default_static`]) and only read after that.
#[derive(Debug, Clone)]
pub struct CompiledRegime {
    name: String,
    fingerprint: u64,
    origin_pref: u32,
    rel_pref: [u32; 3],
    export_allow: [[bool; 3]; 4],
    deny_mask: [u64; 3],
    rules: Vec<CRule>,
    /// Sorted distinct community values; a value's index is its bit.
    communities: Vec<u32>,
}

impl CompiledRegime {
    pub(crate) fn build(regime: &PolicyRegime) -> Result<CompiledRegime, CompileError> {
        let communities = regime_communities(regime);
        if communities.len() > 64 {
            return Err(CompileError::TooManyCommunities(communities.len()));
        }
        let mask_of = |c: u32| -> u64 {
            match communities.binary_search(&c) {
                Ok(bit) => 1u64 << bit,
                Err(_) => 0,
            }
        };
        let mask_of_set = |values: &[u32]| values.iter().fold(0u64, |m, c| m | mask_of(*c));
        let mut deny_mask = [0u64; 3];
        for (c, rel) in &regime.deny_communities {
            deny_mask[rel_idx(*rel)] |= mask_of(*c);
        }
        let rules = regime
            .imports
            .rules
            .iter()
            .map(|rule| CRule {
                matchers: rule
                    .matchers
                    .iter()
                    .filter_map(|m| match m {
                        Matcher::Any => None,
                        Matcher::Prefix(set) => Some(CMatcher::Prefix(set.clone())),
                        Matcher::Community(set) => {
                            Some(CMatcher::CommunityMask(mask_of_set(set.values())))
                        }
                        Matcher::AsInPath(v) => Some(CMatcher::AsInPath(*v)),
                        Matcher::LearnedFrom(rel) => Some(CMatcher::LearnedFrom(*rel)),
                        Matcher::PathLongerThan(n) => Some(CMatcher::PathLongerThan(*n)),
                    })
                    .collect(),
                actions: rule
                    .actions
                    .iter()
                    .map(|a| match a {
                        Action::SetLocalPref(p) => CAction::SetLocalPref(*p),
                        Action::AddCommunity(c) => CAction::AddMask(mask_of(*c)),
                        Action::StripCommunity(c) => CAction::StripMask(mask_of(*c)),
                        Action::Reject => CAction::Reject,
                    })
                    .collect(),
            })
            .collect();
        Ok(CompiledRegime {
            name: regime.name.clone(),
            fingerprint: regime.fingerprint(),
            origin_pref: regime.origin_pref,
            rel_pref: regime.rel_pref,
            export_allow: regime.export_allow,
            deny_mask,
            rules,
            communities,
        })
    }

    /// The compiled default (`gao-rexford`) regime, built once per
    /// process. `RouterCtx::new` reaches for this so the dozens of
    /// direct-construction test sites need no policy plumbing.
    pub fn default_static() -> &'static CompiledRegime {
        static DEFAULT: OnceLock<CompiledRegime> = OnceLock::new();
        DEFAULT.get_or_init(|| {
            PolicyRegime::gao_rexford()
                .compile()
                // simlint::allow(panic, "the built-in default regime mentions no communities")
                .expect("default regime compiles")
        })
    }

    /// The source regime's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source regime's fingerprint (FNV-1a of its canonical `.pol`
    /// text) — the cache-key component that separates baselines of
    /// different regimes.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Local preference of locally originated routes.
    #[inline]
    pub fn origin_pref(&self) -> u32 {
        self.origin_pref
    }

    /// Base local preference of a route learned over `rel`, before import
    /// rules run.
    // simlint::hot
    #[inline]
    pub fn base_pref(&self, rel: Relation) -> u32 {
        self.rel_pref[rel_idx(rel)]
    }

    /// Run the import side: base preference, then the compiled rules.
    /// `None` means a `reject` action fired and the route must not enter
    /// the RIB. For rule-free regimes this is two array reads.
    // simlint::hot
    pub fn import(&self, ctx: &ImportCtx<'_>) -> Option<ImportOutcome> {
        let mut pref = self.rel_pref[rel_idx(ctx.learned_from)];
        let mut comms = ctx.communities;
        for rule in &self.rules {
            let hit = rule.matchers.iter().all(|m| match m {
                CMatcher::Prefix(set) => set.contains(ctx.prefix),
                CMatcher::CommunityMask(mask) => comms.intersects(*mask),
                CMatcher::AsInPath(v) => (ctx.path_contains)(*v),
                CMatcher::LearnedFrom(rel) => *rel == ctx.learned_from,
                CMatcher::PathLongerThan(n) => ctx.path_len > *n,
            });
            if !hit {
                continue;
            }
            for action in &rule.actions {
                match action {
                    CAction::SetLocalPref(p) => pref = *p,
                    CAction::AddMask(mask) => comms = CommunityBits::from_bits(comms.bits() | mask),
                    CAction::StripMask(mask) => {
                        comms = CommunityBits::from_bits(comms.bits() & !mask)
                    }
                    CAction::Reject => return None,
                }
            }
        }
        Some(ImportOutcome {
            pref,
            communities: comms,
        })
    }

    /// Run the export side: the gate matrix, then the per-relation
    /// community deny mask. One 2-D array read and one AND.
    // simlint::hot
    #[inline]
    pub fn export_allowed(
        &self,
        learned: Option<Relation>,
        to: Relation,
        communities: CommunityBits,
    ) -> bool {
        self.export_allow[learned_idx(learned)][rel_idx(to)]
            && !communities.intersects(self.deny_mask[rel_idx(to)])
    }

    /// The bit assigned to a community value, when the regime mentions it.
    pub fn community_bit(&self, value: u32) -> Option<u8> {
        self.communities
            .binary_search(&value)
            .ok()
            .and_then(|i| u8::try_from(i).ok())
    }

    /// Decode a route's community word back to the regime's `u32` values
    /// (diagnostics and tests; never on a hot path).
    pub fn community_values(&self, bits: CommunityBits) -> Vec<u32> {
        self.communities
            .iter()
            .enumerate()
            .filter(|(i, _)| u8::try_from(*i).is_ok_and(|bit| bits.contains(bit)))
            .map(|(_, v)| *v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::{LEARNED_RELS, TO_RELS};

    fn no_path(_: u32) -> bool {
        false
    }

    #[test]
    fn default_static_is_gao_rexford() {
        let d = CompiledRegime::default_static();
        assert_eq!(d.name(), "gao-rexford");
        assert_eq!(d.origin_pref(), 1000);
        assert_eq!(d.base_pref(Relation::Customer), 300);
        assert_eq!(d.base_pref(Relation::Peer), 200);
        assert_eq!(d.base_pref(Relation::Provider), 100);
        assert_eq!(d.fingerprint(), PolicyRegime::gao_rexford().fingerprint());
    }

    #[test]
    fn compiled_export_matches_reference_for_all_builtins() {
        for regime in PolicyRegime::builtins() {
            let c = regime.compile().unwrap();
            for learned in LEARNED_RELS {
                for to in TO_RELS {
                    assert_eq!(
                        c.export_allowed(learned, to, CommunityBits::EMPTY),
                        regime.export_reference(learned, to, &[]),
                        "{} {:?}->{:?}",
                        regime.name,
                        learned,
                        to
                    );
                }
            }
        }
    }

    #[test]
    fn long_path_tax_compiles_to_working_tables() {
        let regime = PolicyRegime::long_path_tax();
        let c = regime.compile().unwrap();
        let tag = c
            .community_bit(PolicyRegime::LONG_PATH_COMMUNITY)
            .expect("declared community gets a bit");
        let import_at = |learned_from, path_len| {
            c.import(&ImportCtx {
                prefix: 0,
                learned_from,
                path_len,
                communities: CommunityBits::EMPTY,
                path_contains: &no_path,
            })
            .unwrap()
        };
        // Customer routes are never taxed; peer/provider routes are,
        // past five hops.
        let customer_long = import_at(Relation::Customer, 6);
        assert_eq!(customer_long.pref, 300);
        assert!(customer_long.communities.is_empty());
        let short = import_at(Relation::Peer, 5);
        assert_eq!(short.pref, 200);
        assert!(short.communities.is_empty());
        let long = import_at(Relation::Peer, 6);
        assert_eq!(long.pref, 50);
        assert!(long.communities.contains(tag));
        assert_eq!(
            c.community_values(long.communities),
            vec![PolicyRegime::LONG_PATH_COMMUNITY]
        );
        assert_eq!(import_at(Relation::Provider, 6).pref, 50);
        // Tagged routes are denied toward customers — the only relation
        // the valley gate would still carry a peer-learned route to.
        let l = Some(Relation::Peer);
        assert!(!c.export_allowed(l, Relation::Customer, long.communities));
        assert!(c.export_allowed(l, Relation::Customer, short.communities));
        assert!(!c.export_allowed(l, Relation::Peer, short.communities));
        // Customer-learned routes still pass everywhere, tagged or not.
        assert!(c.export_allowed(Some(Relation::Customer), Relation::Peer, long.communities));
    }

    #[test]
    fn reject_rules_drop_routes() {
        let mut regime = PolicyRegime::gao_rexford();
        regime.imports.rules = vec![crate::model::Rule {
            matchers: vec![Matcher::AsInPath(666)],
            actions: vec![Action::Reject],
        }];
        let c = regime.compile().unwrap();
        let bad = |v: u32| v == 666;
        fn ctx<'a>(f: &'a dyn Fn(u32) -> bool) -> ImportCtx<'a> {
            ImportCtx {
                prefix: 0,
                learned_from: Relation::Peer,
                path_len: 3,
                communities: CommunityBits::EMPTY,
                path_contains: f,
            }
        }
        assert_eq!(c.import(&ctx(&bad)), None);
        assert!(c.import(&ctx(&no_path)).is_some());
    }

    #[test]
    fn too_many_communities_is_a_compile_error() {
        let mut regime = PolicyRegime::gao_rexford();
        regime.deny_communities = (0..65u32).map(|c| (c, Relation::Peer)).collect();
        assert_eq!(
            regime.compile().unwrap_err(),
            CompileError::TooManyCommunities(65)
        );
        assert!(regime.compile().unwrap_err().to_string().contains("65"));
    }
}
