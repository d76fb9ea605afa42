//! [`PolicyRegime`]: a complete policy world as a value, plus the four
//! built-in regimes and a naive reference interpreter.
//!
//! A regime bundles the per-relation base preferences, an ordered import
//! [`PolicyList`], the 4×3 export gate matrix and a community-scoped
//! export deny list. The simulator never evaluates this form on a hot
//! path — [`PolicyRegime::compile`] lowers it to dense tables first — but
//! the uncompiled form is the one that parses, prints, compares and
//! fingerprints, and [`PolicyRegime::import_reference`] /
//! [`PolicyRegime::export_reference`] interpret it naively so property
//! tests can pin `compiled ≡ reference` on randomized routes.

use crate::compile::{CompileError, CompiledRegime};
use crate::model::{learned_idx, rel_idx, Action, Matcher, PolicyList, Rule};
use stamp_eventsim::Fnv1a;
use stamp_topology::Relation;

/// The relations in the canonical `.pol` order of the "toward" axis.
pub const TO_RELS: [Relation; 3] = [Relation::Customer, Relation::Peer, Relation::Provider];

/// The "learned over" axis in canonical `.pol` order: `None` is a route
/// this AS originated ("own"), then the three session relations.
pub const LEARNED_RELS: [Option<Relation>; 4] = [
    None,
    Some(Relation::Customer),
    Some(Relation::Peer),
    Some(Relation::Provider),
];

/// A route-policy regime as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRegime {
    /// Regime name (`[A-Za-z0-9_.-]+`); doubles as the CLI/protocol token.
    pub name: String,
    /// Local preference of routes this AS originates.
    pub origin_pref: u32,
    /// Base local preference by learning relation, indexed by
    /// [`rel_idx`] (customer, peer, provider).
    pub rel_pref: [u32; 3],
    /// Import rules, applied after the base preference is assigned.
    pub imports: PolicyList,
    /// Export gate: `export_allow[learned_idx][rel_idx(to)]` says whether
    /// a route learned that way may be announced toward that relation.
    pub export_allow: [[bool; 3]; 4],
    /// Community-scoped export denials: `(community, toward)` pairs,
    /// kept sorted by `(community, rel_idx(toward))` for canonical print.
    pub deny_communities: Vec<(u32, Relation)>,
}

/// Valley-free export matrix: own and customer-learned routes go
/// everywhere; peer- and provider-learned routes go to customers only.
const VALLEY_FREE: [[bool; 3]; 4] = [
    [true, true, true],
    [true, true, true],
    [true, false, false],
    [true, false, false],
];

/// Everything-to-everyone export matrix (no valley gate).
const ALL_ALLOW: [[bool; 3]; 4] = [[true; 3]; 4];

impl PolicyRegime {
    /// The paper's hardwired world and the default everywhere: prefer
    /// customer routes (300 > 200 > 100, own routes 1000) and export
    /// valley-free. Byte-for-byte the semantics of the original
    /// `local_pref`/`export_ok` free functions.
    pub fn gao_rexford() -> PolicyRegime {
        PolicyRegime {
            name: "gao-rexford".to_string(),
            origin_pref: 1000,
            rel_pref: [300, 200, 100],
            imports: PolicyList::default(),
            export_allow: VALLEY_FREE,
            deny_communities: Vec::new(),
        }
    }

    /// Policy-free routing: every relation gets the same preference and
    /// the valley gate is open, so selection degenerates to shortest
    /// AS path with the deterministic neighbour-id tiebreak.
    pub fn shortest_path() -> PolicyRegime {
        PolicyRegime {
            name: "shortest-path".to_string(),
            origin_pref: 1000,
            rel_pref: [100, 100, 100],
            imports: PolicyList::default(),
            export_allow: ALL_ALLOW,
            deny_communities: Vec::new(),
        }
    }

    /// Settlement-free-first: peer routes outrank customer routes
    /// (peer 300 > customer 200 > provider 100) — and the export gate
    /// pays the stability price for it. Under plain valley-free export,
    /// peer-preference is the textbook BGP dispute wheel: a triangle of
    /// peers, each holding a customer route to the destination and each
    /// preferring the next peer's customer route, oscillates forever
    /// (Griffin's BAD GADGET; the Gao–Rexford theorem's guideline A is
    /// exactly what this regime violates). The wheel's only channel is a
    /// customer-learned route crossing a peer edge, so this regime
    /// closes it: customer routes are not exported to peers. What a
    /// peer session then carries is the peer's own originations —
    /// routes whose availability never depends on anyone's selection —
    /// and every route that still *propagates* does so over the acyclic
    /// customer–provider hierarchy with customer > provider, which is
    /// inside the safe regime. Preferring peers is free only for routes
    /// that cannot feed a wheel.
    pub fn prefer_peer() -> PolicyRegime {
        PolicyRegime {
            name: "prefer-peer".to_string(),
            origin_pref: 1000,
            rel_pref: [200, 300, 100],
            export_allow: [
                [true, true, true],
                [true, false, true],
                [true, false, false],
                [true, false, false],
            ],
            imports: PolicyList::default(),
            deny_communities: Vec::new(),
        }
    }

    /// The community bit used by [`PolicyRegime::long_path_tax`] to mark
    /// taxed (over-long) routes.
    pub const LONG_PATH_COMMUNITY: u32 = 64;

    /// Prepend-penalizing, community-scoped regime: peer- and
    /// provider-learned routes whose AS path exceeds five hops are
    /// tagged with community 64 and demoted to local-pref 50, and
    /// tagged routes are withheld from customers — a long detour dies
    /// at the AS that detected it instead of being resold downhill.
    ///
    /// The tax deliberately never touches customer-learned routes:
    /// demoting a customer route below peer preference would break the
    /// Gao–Rexford guideline (customer routes above everything that
    /// propagates) and re-open the door to dispute-wheel divergence the
    /// same way a naive `prefer-peer` does. Scoped to peer/provider
    /// routes, the customer-on-top invariant holds for every route
    /// class (300 > 200, 100, 50), so convergence is inherited from the
    /// default regime's argument; the extra export denial only removes
    /// routes from the strictly downward (acyclic) direction.
    pub fn long_path_tax() -> PolicyRegime {
        let tax = |rel: Relation| Rule {
            matchers: vec![Matcher::LearnedFrom(rel), Matcher::PathLongerThan(5)],
            actions: vec![
                Action::AddCommunity(Self::LONG_PATH_COMMUNITY),
                Action::SetLocalPref(50),
            ],
        };
        PolicyRegime {
            name: "long-path-tax".to_string(),
            origin_pref: 1000,
            rel_pref: [300, 200, 100],
            imports: PolicyList {
                rules: vec![tax(Relation::Peer), tax(Relation::Provider)],
            },
            export_allow: VALLEY_FREE,
            deny_communities: vec![(Self::LONG_PATH_COMMUNITY, Relation::Customer)],
        }
    }

    /// The naive prefer-peer regime [`PolicyRegime::prefer_peer`]'s doc
    /// comment warns about: peer routes outrank customer routes *and* the
    /// export gate stays plain valley-free, so customer-learned routes
    /// still cross peer edges. On a peer cycle whose members all hold a
    /// customer route to the destination this is Griffin's BAD GADGET —
    /// every member prefers the next member's customer route, selecting it
    /// closes the valley-free channel that advertised it, and the wheel
    /// spins forever (the regime violates Gao–Rexford guideline A).
    ///
    /// Deliberately **not** a builtin: it must never ride into default
    /// campaign sweeps or the policy-sweep hash. It is resolvable through
    /// [`PolicyRegime::by_name`] as the tracked known-diverging fixture the
    /// convergence watchdog is pinned against (the exact regime PR 9 had
    /// to back out because it hung the simulator).
    pub fn naive_prefer_peer() -> PolicyRegime {
        PolicyRegime {
            name: "naive-prefer-peer".to_string(),
            origin_pref: 1000,
            rel_pref: [200, 300, 100],
            imports: PolicyList::default(),
            export_allow: VALLEY_FREE,
            deny_communities: Vec::new(),
        }
    }

    /// The four built-in regimes, default first.
    pub fn builtins() -> Vec<PolicyRegime> {
        vec![
            PolicyRegime::gao_rexford(),
            PolicyRegime::shortest_path(),
            PolicyRegime::prefer_peer(),
            PolicyRegime::long_path_tax(),
        ]
    }

    /// Every regime resolvable by name: the builtins plus tracked
    /// non-builtin fixtures (regimes deliberately kept out of default
    /// sweeps — today only [`PolicyRegime::naive_prefer_peer`]). The order
    /// is stable and append-only: positions double as the wire encoding of
    /// `PolicyFlip` scenario events, which are `Copy` and therefore carry
    /// an index into this list rather than a name.
    pub fn named() -> Vec<PolicyRegime> {
        let mut v = PolicyRegime::builtins();
        v.push(PolicyRegime::naive_prefer_peer());
        v
    }

    /// Look up a named regime ([`PolicyRegime::named`]) by name.
    pub fn by_name(name: &str) -> Option<PolicyRegime> {
        PolicyRegime::named().into_iter().find(|r| r.name == name)
    }

    /// Index of `name` in [`PolicyRegime::named`] — the stable token a
    /// `PolicyFlip` scenario event carries.
    pub fn index_of(name: &str) -> Option<u16> {
        PolicyRegime::named()
            .iter()
            .position(|r| r.name == name)
            // simlint::allow(lossy-cast, "the named-regime list is a handful of entries, far below u16::MAX")
            .map(|i| i as u16)
    }

    /// The regime at [`PolicyRegime::named`] index `idx`.
    pub fn by_index(idx: u16) -> Option<PolicyRegime> {
        PolicyRegime::named().into_iter().nth(idx as usize)
    }

    /// True for the default (`gao-rexford`) regime — the one the three
    /// determinism goldens are pinned under.
    pub fn is_default(&self) -> bool {
        *self == PolicyRegime::gao_rexford()
    }

    /// FNV-1a over the canonical `.pol` text. Campaign caches and the
    /// policy-sweep report key baselines by this, so two regimes share
    /// warm checkpoints iff they print identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.to_pol().as_bytes());
        h.finish()
    }

    /// Lower to dense per-relation tables for the hot paths. Fails only
    /// when the regime mentions more than 64 distinct community values
    /// (the `.pol` parser rejects such documents up front).
    pub fn compile(&self) -> Result<CompiledRegime, CompileError> {
        CompiledRegime::build(self)
    }

    /// Naive import interpretation — the reference the compiled form is
    /// property-tested against. `path` is the full AS path (its length is
    /// the path length; membership answers `as-in-path`), `communities`
    /// the `u32` community values already on the route.
    ///
    /// Returns `None` when a matching [`Action::Reject`] fires, otherwise
    /// the final `(local_pref, communities)`.
    pub fn import_reference(
        &self,
        prefix: u32,
        learned_from: Relation,
        path: &[u32],
        communities: &[u32],
    ) -> Option<(u32, Vec<u32>)> {
        let mut pref = self.rel_pref[rel_idx(learned_from)];
        let mut comms: Vec<u32> = communities.to_vec();
        comms.sort_unstable();
        comms.dedup();
        for rule in &self.imports.rules {
            let hit = rule.matchers.iter().all(|m| match m {
                Matcher::Any => true,
                Matcher::Prefix(set) => set.contains(prefix),
                Matcher::Community(set) => comms.iter().any(|c| set.contains(*c)),
                Matcher::AsInPath(v) => path.contains(v),
                Matcher::LearnedFrom(rel) => *rel == learned_from,
                Matcher::PathLongerThan(n) => path.len() > *n as usize,
            });
            if !hit {
                continue;
            }
            for action in &rule.actions {
                match action {
                    Action::SetLocalPref(p) => pref = *p,
                    Action::AddCommunity(c) => {
                        if let Err(at) = comms.binary_search(c) {
                            comms.insert(at, *c);
                        }
                    }
                    Action::StripCommunity(c) => {
                        if let Ok(at) = comms.binary_search(c) {
                            comms.remove(at);
                        }
                    }
                    Action::Reject => return None,
                }
            }
        }
        Some((pref, comms))
    }

    /// Naive export interpretation — gate matrix plus community denials.
    pub fn export_reference(
        &self,
        learned: Option<Relation>,
        to: Relation,
        communities: &[u32],
    ) -> bool {
        if !self.export_allow[learned_idx(learned)][rel_idx(to)] {
            return false;
        }
        !self
            .deny_communities
            .iter()
            .any(|(c, rel)| *rel == to && communities.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_consistent() {
        let names: Vec<String> = PolicyRegime::builtins()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "gao-rexford",
                "shortest-path",
                "prefer-peer",
                "long-path-tax"
            ]
        );
        for name in &names {
            let r = PolicyRegime::by_name(name).expect("registered");
            assert_eq!(&r.name, name);
        }
        assert!(PolicyRegime::by_name("gao-rexford").unwrap().is_default());
        assert!(!PolicyRegime::by_name("prefer-peer").unwrap().is_default());
        assert!(PolicyRegime::by_name("nope").is_none());
    }

    #[test]
    fn fingerprints_are_distinct_across_builtins() {
        let fps: Vec<u64> = PolicyRegime::builtins()
            .iter()
            .map(|r| r.fingerprint())
            .collect();
        for (i, a) in fps.iter().enumerate() {
            for b in fps.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn default_regime_matches_the_paper_tables() {
        let r = PolicyRegime::gao_rexford();
        assert_eq!(r.origin_pref, 1000);
        assert_eq!(r.rel_pref, [300, 200, 100]);
        // Valley-free: peer/provider-learned exports only toward customers.
        for learned in LEARNED_RELS {
            for to in TO_RELS {
                let want = match learned {
                    None | Some(Relation::Customer) => true,
                    Some(_) => to == Relation::Customer,
                };
                assert_eq!(r.export_reference(learned, to, &[]), want);
            }
        }
    }

    #[test]
    fn long_path_tax_reference_semantics() {
        let r = PolicyRegime::long_path_tax();
        let short: Vec<u32> = (1..=5).collect();
        let long: Vec<u32> = (1..=6).collect();
        // Customer routes are never taxed, whatever their length: the
        // customer-on-top invariant is the convergence argument.
        let (pref, comms) = r
            .import_reference(0, Relation::Customer, &long, &[])
            .unwrap();
        assert_eq!((pref, comms.as_slice()), (300, &[] as &[u32]));
        let (pref, comms) = r.import_reference(0, Relation::Peer, &short, &[]).unwrap();
        assert_eq!((pref, comms.as_slice()), (200, &[] as &[u32]));
        let (pref, comms) = r.import_reference(0, Relation::Peer, &long, &[]).unwrap();
        assert_eq!((pref, comms.as_slice()), (50, &[64u32] as &[u32]));
        let (pref, _) = r
            .import_reference(0, Relation::Provider, &long, &[])
            .unwrap();
        assert_eq!(pref, 50);
        // Tagged routes are withheld from customers — the only direction
        // valley-free export would still carry a peer-learned route.
        assert!(!r.export_reference(Some(Relation::Peer), Relation::Customer, &comms));
        assert!(r.export_reference(Some(Relation::Peer), Relation::Customer, &[]));
        assert!(!r.export_reference(Some(Relation::Peer), Relation::Peer, &[]));
    }

    #[test]
    fn reject_and_strip_actions_interpret_in_order() {
        let mut r = PolicyRegime::gao_rexford();
        r.imports.rules = vec![
            Rule {
                matchers: vec![Matcher::AsInPath(666)],
                actions: vec![Action::Reject],
            },
            Rule {
                matchers: vec![Matcher::Any],
                actions: vec![Action::AddCommunity(7), Action::StripCommunity(9)],
            },
        ];
        assert_eq!(r.import_reference(0, Relation::Peer, &[666, 2], &[]), None);
        let (pref, comms) = r
            .import_reference(0, Relation::Peer, &[1, 2], &[9])
            .unwrap();
        assert_eq!((pref, comms.as_slice()), (200, &[7u32] as &[u32]));
    }
}
