//! The fixture self-test: every rule in the catalog is proven to fire,
//! and to respect suppressions, against the seeded-violation corpus in
//! `fixtures/`.
//!
//! Each fixture line may end with a marker comment — two slashes, a
//! tilde, then a space-separated list of rule names — giving the exact
//! multiset of findings expected on that line. Lines without a marker
//! must produce nothing. Because valid `simlint::allow` directives sit on
//! marker-free lines, the same comparison proves suppression works.

use simlint::{analyze_source, RULES};
use std::collections::BTreeMap;

const MARKER: &str = "//~";

/// `(fixture file name, contents)` — analyzed under `crates/bgp/src/` so
/// every rule family is in scope.
const FIXTURES: &[(&str, &str)] = &[
    ("determinism.rs", include_str!("../fixtures/determinism.rs")),
    ("hot_path.rs", include_str!("../fixtures/hot_path.rs")),
    ("panics.rs", include_str!("../fixtures/panics.rs")),
    ("lossy_casts.rs", include_str!("../fixtures/lossy_casts.rs")),
    (
        "suppressions.rs",
        include_str!("../fixtures/suppressions.rs"),
    ),
];

/// Expected `(line, rule) -> count` from the marker comments.
fn expected(name: &str, src: &str) -> BTreeMap<(u32, String), usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find(MARKER) else {
            continue;
        };
        let names: Vec<&str> = line[pos + MARKER.len()..].split_whitespace().collect();
        assert!(
            !names.is_empty(),
            "{name}:{}: marker with no rule names",
            idx + 1
        );
        for rule in names {
            assert!(
                simlint::config::rule(rule).is_some(),
                "{name}:{}: marker names unknown rule `{rule}`",
                idx + 1
            );
            *out.entry((idx as u32 + 1, rule.to_string())).or_insert(0) += 1;
        }
    }
    out
}

/// Actual `(line, rule) -> count` from an analysis run.
fn actual(rel_path: &str, src: &str) -> BTreeMap<(u32, String), usize> {
    let mut out = BTreeMap::new();
    for f in analyze_source(rel_path, src) {
        *out.entry((f.line, f.rule.to_string())).or_insert(0) += 1;
    }
    out
}

#[test]
fn fixtures_match_their_markers() {
    let mut report = String::new();
    for (name, src) in FIXTURES {
        let want = expected(name, src);
        let got = actual(&format!("crates/bgp/src/{name}"), src);
        for ((line, rule), n) in &want {
            let have = got.get(&(*line, rule.clone())).copied().unwrap_or(0);
            if have != *n {
                report.push_str(&format!(
                    "{name}:{line}: expected {n} `{rule}` finding(s), got {have}\n"
                ));
            }
        }
        for ((line, rule), n) in &got {
            if !want.contains_key(&(*line, rule.clone())) {
                report.push_str(&format!(
                    "{name}:{line}: unexpected `{rule}` finding (x{n})\n"
                ));
            }
        }
    }
    assert!(report.is_empty(), "fixture mismatches:\n{report}");
}

#[test]
fn every_rule_is_proven_to_fire() {
    let mut seen: Vec<&str> = Vec::new();
    for (name, src) in FIXTURES {
        for f in analyze_source(&format!("crates/bgp/src/{name}"), src) {
            if !seen.contains(&f.rule) {
                seen.push(f.rule);
            }
        }
    }
    for r in RULES {
        assert!(
            seen.contains(&r.name),
            "rule `{}` has no fixture proving it fires — seed one",
            r.name
        );
    }
}

#[test]
fn out_of_scope_crates_are_silent() {
    // bench is outside the determinism perimeter with one exception: the
    // same seeded source analyzed under crates/bench/ fires exactly its
    // `wall-clock` markers — a timing cannot creep back beside a golden —
    // and every rule bench is out of scope for stays silent (`ambient-env`
    // included: the binaries read argv).
    for (name, src) in FIXTURES.iter().filter(|(n, _)| *n != "suppressions.rs") {
        let mut got = actual(&format!("crates/bench/src/bin/{name}"), src);
        got.retain(|(_, rule), _| rule != "bad-allow" && rule != "unused-allow");
        let mut want = expected(name, src);
        want.retain(|(_, rule), _| rule == "wall-clock");
        assert_eq!(got, want, "{name} under crates/bench/");
    }
}

#[test]
fn id_modules_may_construct_ids() {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == "lossy_casts.rs")
        .expect("lossy fixture present");
    // The same source under an id-defining module path is exempt from
    // lossy-cast (that module's whole job is building ids from integers).
    let got = actual("crates/bgp/src/types.rs", src);
    assert!(
        got.is_empty(),
        "lossy-cast fired inside an ID_MODULES path: {got:?}"
    );
}

#[test]
fn directive_edge_cases() {
    // Empty justification (exact branch — no trailing marker involved).
    let f = analyze_source(
        "crates/bgp/src/x.rs",
        "fn f(x: Option<u32>) -> u32 {\n    // simlint::allow(panic, \"\")\n    x.unwrap()\n}\n",
    );
    assert!(f.iter().any(|f| f.rule == "bad-allow"), "{f:?}");
    assert!(f.iter().any(|f| f.rule == "panic"), "{f:?}");

    // Unknown rule name in an allow.
    let f = analyze_source(
        "crates/bgp/src/x.rs",
        "// simlint::allow(no-such-rule, \"reason\")\nfn f() {}\n",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "bad-allow");

    // An allow at end of file with no code after it.
    let f = analyze_source(
        "crates/bgp/src/x.rs",
        "fn f() {}\n// simlint::allow(panic, \"reason\")\n",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "bad-allow");

    // A hot marker at end of file with no code after it.
    let f = analyze_source("crates/bgp/src/x.rs", "fn f() {}\n// simlint::hot\n");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "bad-allow");

    // bad-allow is never itself suppressible.
    let f = analyze_source(
        "crates/bgp/src/x.rs",
        "// simlint::allow(bad-allow, \"nice try\")\n// simlint::frobnicate\nfn f() {}\n",
    );
    assert!(
        f.iter().any(|f| f.rule == "bad-allow"),
        "bad-allow was suppressed: {f:?}"
    );
}
