//! Property suite for the `stamp_policy` subsystem.
//!
//! Three pins, in dependency order:
//!
//! 1. the `.pol` DSL is a fixed point: every printable regime — the four
//!    built-ins plus randomized rule-laden regimes — parses back to the
//!    value that printed it, and the second print is byte-identical;
//!    malformed documents come back as typed errors, never a panic;
//! 2. the compiled dense-table form ([`CompiledRegime`]) agrees with the
//!    naive reference interpreter on randomized routes, import and
//!    export both;
//! 3. the default `gao-rexford` regime reproduces the paper's hardwired
//!    §2.1 policy — the old `local_pref`/`export_ok` free functions —
//!    over the full relation matrix.

use stamp_repro::eventsim::check::{cases, gen};
use stamp_repro::eventsim::textfmt::assert_fixed_point;
use stamp_repro::policy::{
    parse_pol, Action, CommunityBits, Matcher, PolErrorKind, PolicyRegime, LEARNED_RELS, TO_RELS,
};
use stamp_repro::topology::Relation;

mod regimes;
use regimes::arb_regime;

/// Every distinct community value a regime's rules or denials mention —
/// the universe the compiled bit assignment covers.
fn community_universe(r: &PolicyRegime) -> Vec<u32> {
    let mut vals: Vec<u32> = r.deny_communities.iter().map(|(c, _)| *c).collect();
    for rule in &r.imports.rules {
        for m in &rule.matchers {
            if let Matcher::Community(set) = m {
                vals.extend_from_slice(set.values());
            }
        }
        for a in &rule.actions {
            match a {
                Action::AddCommunity(c) | Action::StripCommunity(c) => vals.push(*c),
                _ => {}
            }
        }
    }
    vals.sort_unstable();
    vals.dedup();
    vals
}

#[test]
fn builtin_regimes_round_trip_exactly() {
    for regime in PolicyRegime::builtins() {
        let doc = regime.to_pol();
        let back = assert_fixed_point(&doc, parse_pol, PolicyRegime::to_pol);
        assert_eq!(back, regime, "{}: parse drifted", regime.name);
        assert_eq!(back.to_pol(), doc, "{}: print drifted", regime.name);
    }
}

#[test]
fn randomized_regimes_round_trip_to_a_fixed_point() {
    cases(200, 0x9017AB, |rng| {
        let regime = arb_regime(rng);
        let doc = regime.to_pol();
        // Value equality is only guaranteed for canonical-form inputs;
        // the print itself must always be a fixed point.
        let back = assert_fixed_point(&doc, parse_pol, PolicyRegime::to_pol);
        assert_eq!(back.to_pol(), doc, "print is not a parse/print fixed point");
        assert_eq!(back.fingerprint(), regime.fingerprint());
    });
}

/// `.pol` splits on ASCII whitespace, like `.scn` and the wire grammars: a
/// Unicode space inside a directive does not separate words, it is part
/// of a token — and that token is a typed error.
#[test]
fn unicode_whitespace_is_part_of_a_token() {
    let doc = PolicyRegime::gao_rexford().to_pol();
    for space in ['\u{a0}', '\u{3000}'] {
        let glued = format!("prefer{space}origin");
        let err = parse_pol(&doc.replacen("prefer origin", &glued, 1)).expect_err("one token");
        assert_eq!(err.kind, PolErrorKind::UnknownDirective(glued));
        assert_eq!(err.line, 2);
    }
}

#[test]
fn junk_documents_are_rejected_with_typed_errors() {
    let junk = [
        "",
        "regime\n",
        "regime \"x\"\n",
        "regime two words\n",
        "regime x!\nprefer origin 1000\n",
        "regime x\nprefer origin many\n",
        "regime x\nprefer customer -3\n",
        "regime x\nprefer sibling 100\n",
        "regime x\nexport own to everyone\n",
        "regime x\nimport match path-longer-than\n",
        "regime x\nimport match community banana then reject\n",
        "regime x\nimport match any then\n",
        "regime x\nprefer origin 1000\nwhat even is this line\n",
    ];
    for doc in junk {
        let err = parse_pol(doc).expect_err("junk must not parse");
        // The Display form is the queryd/CLI surface; it must render.
        assert!(!err.to_string().is_empty(), "error for {doc:?} renders");
    }
    // And the fuzz through the shared cursor: a byte-level mutation of a
    // valid document — any named regime, or a randomized rule-laden one —
    // is a typed error or parses to a regime whose print is a fixed point.
    // Never a panic, and nothing in between.
    let named = PolicyRegime::named();
    cases(400, 0x9017AC, |rng| {
        let doc = match gen::bool(rng) {
            true => rng.choose(&named).expect("non-empty").to_pol(),
            false => arb_regime(rng).to_pol(),
        };
        let fuzzed = gen::mutated(rng, &doc);
        match parse_pol(&fuzzed) {
            Ok(_) => drop(assert_fixed_point(&fuzzed, parse_pol, PolicyRegime::to_pol)),
            Err(e) => assert!(!e.to_string().is_empty(), "{fuzzed:?}"),
        }
    });
}

/// Compiled dense tables ≡ naive reference interpreter, import side.
/// Routes draw communities from the regime's own universe (plus noise
/// values the regime never mentions, which both sides must ignore).
#[test]
fn compiled_import_matches_reference_interpreter() {
    cases(400, 0x51AA7, |rng| {
        let regime = if rng.gen_bool(0.4) {
            rng.choose(&PolicyRegime::builtins())
                .expect("non-empty")
                .clone()
        } else {
            arb_regime(rng)
        };
        let compiled = regime
            .compile()
            .expect("arb regimes stay within compile limits");
        let universe = community_universe(&regime);

        let prefix = rng.gen_range(0u32..40);
        let learned_from = *rng.choose(&TO_RELS).expect("non-empty");
        let path: Vec<u32> = (0..rng.gen_range(1usize..8))
            .map(|_| rng.gen_range(0u32..40))
            .collect();
        let mut comms: Vec<u32> = Vec::new();
        for c in &universe {
            if rng.gen_bool(0.4) {
                comms.push(*c);
            }
        }

        let mut bits = CommunityBits::EMPTY;
        for c in &comms {
            bits = bits.with(
                compiled
                    .community_bit(*c)
                    .expect("universe value has a bit"),
            );
        }
        // Noise the regime never mentions: inert for the reference, and
        // unrepresentable (hence equally inert) for the compiled form.
        if rng.gen_bool(0.3) {
            comms.push(10_000 + rng.gen_range(0u32..5));
            comms.sort_unstable();
        }

        let reference = regime.import_reference(prefix, learned_from, &path, &comms);
        let ctx = stamp_repro::policy::ImportCtx {
            prefix,
            learned_from,
            path_len: u32::try_from(path.len()).expect("short test paths"),
            communities: bits,
            path_contains: &|v| path.contains(&v),
        };
        let compiled_out = compiled.import(&ctx);

        match (reference, compiled_out) {
            (None, None) => {}
            (Some((ref_pref, ref_comms)), Some(out)) => {
                assert_eq!(out.pref, ref_pref, "{}: local-pref drift", regime.name);
                let mentioned: Vec<u32> = ref_comms
                    .iter()
                    .copied()
                    .filter(|c| compiled.community_bit(*c).is_some())
                    .collect();
                assert_eq!(
                    compiled.community_values(out.communities),
                    mentioned,
                    "{}: community drift",
                    regime.name
                );
            }
            (r, c) => panic!(
                "{}: accept/reject drift: reference {r:?} compiled {c:?}",
                regime.name
            ),
        }
    });
}

/// Compiled export gate ≡ naive reference, over every (learned, to) cell
/// and randomized community words.
#[test]
fn compiled_export_matches_reference_interpreter() {
    cases(200, 0xE4B0, |rng| {
        let regime = if rng.gen_bool(0.4) {
            rng.choose(&PolicyRegime::builtins())
                .expect("non-empty")
                .clone()
        } else {
            arb_regime(rng)
        };
        let compiled = regime
            .compile()
            .expect("arb regimes stay within compile limits");
        let universe = community_universe(&regime);

        let mut comms: Vec<u32> = Vec::new();
        let mut bits = CommunityBits::EMPTY;
        for c in &universe {
            if rng.gen_bool(0.4) {
                comms.push(*c);
                bits = bits.with(
                    compiled
                        .community_bit(*c)
                        .expect("universe value has a bit"),
                );
            }
        }

        for learned in LEARNED_RELS {
            for to in TO_RELS {
                assert_eq!(
                    compiled.export_allowed(learned, to, bits),
                    regime.export_reference(learned, to, &comms),
                    "{}: export drift at learned={learned:?} to={to:?}",
                    regime.name
                );
            }
        }
    });
}

/// The compiled default regime is the paper's hardwired §2.1 policy, by
/// value: prefer-customer local preference 300 / 200 / 100 under an origin
/// preference of 1000, and the valley-free export table — own and customer
/// routes go to everyone, peer and provider routes to customers only.
#[test]
fn default_regime_reproduces_the_hardwired_paper_policy() {
    use Relation::{Customer, Peer, Provider};
    let compiled = PolicyRegime::gao_rexford()
        .compile()
        .expect("default compiles");
    assert_eq!(compiled.name(), "gao-rexford");
    assert_eq!(compiled.origin_pref(), 1000);
    for (rel, pref) in [(Customer, 300), (Peer, 200), (Provider, 100)] {
        assert_eq!(compiled.base_pref(rel), pref, "base pref drift at {rel:?}");
    }
    // Rows: learned from (None = own prefix); columns: exported to
    // customer, peer, provider.
    let table = [
        (None, [true, true, true]),
        (Some(Customer), [true, true, true]),
        (Some(Peer), [true, false, false]),
        (Some(Provider), [true, false, false]),
    ];
    for (learned, row) in table {
        for (to, allowed) in [Customer, Peer, Provider].into_iter().zip(row) {
            assert_eq!(
                compiled.export_allowed(learned, to, CommunityBits::EMPTY),
                allowed,
                "export drift at learned={learned:?} to={to:?}"
            );
        }
    }
    // The process-wide default every engine starts from is this regime.
    let shared = stamp_repro::policy::CompiledRegime::default_static();
    assert_eq!(shared.fingerprint(), compiled.fingerprint());
}
