//! The randomized rule-laden routing regimes the policy and property suites
//! draw: the default's skeleton with random preferences, import rules,
//! export cells and community denials.

use stamp_repro::eventsim::Rng;
use stamp_repro::policy::{Action, CommunitySet, Matcher, PolicyRegime, PrefixSet, Rule, TO_RELS};

fn arb_matcher(rng: &mut Rng, universe: &[u32]) -> Matcher {
    let comm = |rng: &mut Rng| {
        if universe.is_empty() || rng.gen_bool(0.3) {
            rng.gen_range(0u32..8)
        } else {
            *rng.choose(universe).expect("non-empty")
        }
    };
    match rng.gen_range(0u32..5) {
        0 => Matcher::Prefix(PrefixSet::new(
            (0..rng.gen_range(1usize..4))
                .map(|_| rng.gen_range(0u32..40))
                .collect(),
        )),
        1 => Matcher::Community(CommunitySet::new(
            (0..rng.gen_range(1usize..3)).map(|_| comm(rng)).collect(),
        )),
        2 => Matcher::AsInPath(rng.gen_range(0u32..40)),
        3 => Matcher::LearnedFrom(*rng.choose(&TO_RELS).expect("non-empty")),
        _ => Matcher::PathLongerThan(rng.gen_range(0u32..6)),
    }
}

fn arb_action(rng: &mut Rng) -> Action {
    match rng.gen_range(0u32..4) {
        0 => Action::SetLocalPref(rng.gen_range(0u32..2000)),
        1 => Action::AddCommunity(rng.gen_range(0u32..8)),
        2 => Action::StripCommunity(rng.gen_range(0u32..8)),
        _ => Action::Reject,
    }
}

/// A randomized rule-laden regime grown from the default's skeleton. All
/// sets go through the canonicalizing constructors, so the value is in
/// the same normal form `parse_pol` produces.
pub fn arb_regime(rng: &mut Rng) -> PolicyRegime {
    let mut r = PolicyRegime::gao_rexford();
    r.name = format!("rand-{}", rng.gen_range(0u32..1000));
    r.origin_pref = rng.gen_range(500u32..3000);
    for p in r.rel_pref.iter_mut() {
        *p = rng.gen_range(0u32..500);
    }
    let n_rules = rng.gen_range(0usize..4);
    r.imports.rules = (0..n_rules)
        .map(|_| {
            let matchers = if rng.gen_bool(0.15) {
                vec![Matcher::Any]
            } else {
                let mut seed = Vec::new();
                for _ in 0..rng.gen_range(1usize..3) {
                    seed.push(arb_matcher(rng, &[]));
                }
                seed
            };
            Rule {
                matchers,
                actions: (0..rng.gen_range(1usize..3))
                    .map(|_| arb_action(rng))
                    .collect(),
            }
        })
        .collect();
    for learned in 0..4 {
        for to in 0..3 {
            if rng.gen_bool(0.2) {
                r.export_allow[learned][to] = !r.export_allow[learned][to];
            }
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        r.deny_communities.push((
            rng.gen_range(0u32..8),
            *rng.choose(&TO_RELS).expect("non-empty"),
        ));
    }
    // Denials are a set; hold them in the parser's canonical order.
    r.deny_communities
        .sort_by_key(|(c, rel)| (*c, stamp_repro::policy::rel_idx(*rel)));
    r.deny_communities.dedup();
    r
}
