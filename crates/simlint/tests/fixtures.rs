//! The fixture self-test: every rule in the catalog is proven to fire,
//! and to respect suppressions, against the seeded-violation corpus in
//! `fixtures/`; every fence row is proven to fire, and to notice drift,
//! on in-memory trees built from the table (never from a literal here,
//! which the fence would read).
//!
//! Each fixture line may end with a marker comment — two slashes, a
//! tilde, then a space-separated list of rule names — giving the exact
//! multiset of findings expected on that line. Lines without a marker
//! must produce nothing. Because valid `simlint::allow` directives sit on
//! marker-free lines, the same comparison proves suppression works.

use simlint::config::{Fence, Part, Pat, Place, FENCES, WARN_CEILING};
use simlint::{analyze_source, fence, Finding, Severity, RULES};
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
fn index_panic_denies_only_where_promoted() {
    // A planted index fails the run in a crate promoted to zero
    // (`deny_in`), and stays a counted warning everywhere else.
    let src = "pub fn first(xs: &[u32]) -> u32 {\n    xs[0]\n}\n";
    for (krate, want) in [
        ("eventsim", Severity::Deny),
        ("rbgp", Severity::Deny),
        ("queryd", Severity::Deny),
        ("bgp", Severity::Warn),
        ("topology", Severity::Warn),
    ] {
        let got = analyze_source(&format!("crates/{krate}/src/x.rs"), src);
        let sev: Vec<_> = got.iter().map(|f| (f.line, f.rule, f.severity)).collect();
        assert_eq!(sev, [(2, "index-panic", want)], "under crates/{krate}/");
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

#[test]
fn a_tree_above_the_warn_ceiling_fails() {
    let index = "pub fn first(xs: &[u32]) -> u32 {\n    xs[0]\n}\n";
    let tree = |files: usize| -> Vec<Finding> {
        (0..files)
            .flat_map(|i| analyze_source(&format!("crates/bgp/src/f{i}.rs"), index))
            .collect()
    };
    assert!(simlint::passes(&tree(WARN_CEILING)));
    assert!(!simlint::passes(&tree(WARN_CEILING + 1)));
}

// ---------------------------------------------------------------------
// Fences
// ---------------------------------------------------------------------

/// Lines that each hold `pat` exactly once, in every spelling it covers.
fn samples(pat: &Pat) -> Vec<String> {
    match *pat {
        Pat::Text(t) => vec![format!("x {t} x")],
        Pat::Hex(h) => {
            let digits = h.trim_start_matches("0x").to_uppercase();
            let grouped: Vec<String> = digits
                .as_bytes()
                .chunks(4)
                .map(|c| String::from_utf8_lossy(c).into_owned())
                .collect();
            vec![format!("{h};"), format!("(0X{})", grouped.join("_"))]
        }
        Pat::Word(w, then) => then.iter().map(|t| format!("x({w} {t} }})")).collect(),
    }
}

/// The file a place reads: the path itself, or a file in the directory.
fn file_of(place: &Place) -> String {
    match place.path.rsplit('/').next() {
        Some(last) if last.contains('.') => place.path.to_string(),
        _ => format!("{}/planted.rs", place.path),
    }
}

/// A tree on which `fence` holds: every `only` place holds each pattern
/// (as often as it must, leaving out `drop`), and every `within` place
/// reads a file that declares the part it means.
fn clean_tree(fence: &Fence, drop: Option<(usize, usize)>) -> BTreeMap<String, Vec<String>> {
    let mut tree: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for place in fence.within {
        let lines = tree.entry(file_of(place)).or_default();
        match place.part {
            Part::Fn(name) => lines.extend([format!("pub fn {name}() {{"), "}".into()]),
            Part::AboveTests => lines.extend(["#[cfg(test)]".into(), "mod tests {}".into()]),
            Part::Whole | Part::Times(_) => {}
        }
        lines.push("pub fn tail() {}".into());
    }
    for (k, place) in fence.only.iter().enumerate() {
        let times = match place.part {
            Part::Times(n) => n,
            _ => 1,
        };
        for (p, pat) in fence.patterns.iter().enumerate() {
            if drop != Some((k, p)) {
                let line = samples(pat).swap_remove(0);
                let lines = tree.entry(file_of(place)).or_default();
                lines.extend(std::iter::repeat_n(line, times));
            }
        }
    }
    tree
}

fn check(fence: &Fence, tree: &BTreeMap<String, Vec<String>>) -> Vec<Finding> {
    let files: Vec<(String, String)> = tree
        .iter()
        .map(|(path, lines)| (path.clone(), lines.join("\n")))
        .collect();
    fence::check(std::slice::from_ref(fence), &files)
}

/// Insert `line` into the part of `file` that `place` reads.
fn plant(tree: &mut BTreeMap<String, Vec<String>>, place: &Place, line: &str) -> String {
    let file = file_of(place);
    let lines = tree.entry(file.clone()).or_default();
    lines.insert(
        usize::from(matches!(place.part, Part::Fn(_))),
        line.to_string(),
    );
    file
}

#[test]
fn every_fence_holds_on_its_clean_tree() {
    for fence in FENCES {
        let got = check(fence, &clean_tree(fence, None));
        assert!(got.is_empty(), "{}: {got:?}", fence.name);
    }
}

#[test]
fn every_fence_pattern_is_caught_where_it_is_planted() {
    for fence in FENCES {
        for pat in fence.patterns {
            for line in samples(pat) {
                assert_eq!(pat.hits(&line), 1, "{}: sample {line:?}", fence.name);
                for place in fence.within {
                    let mut tree = clean_tree(fence, None);
                    let file = plant(&mut tree, place, &line);
                    let got = check(fence, &tree);
                    assert!(
                        got.iter()
                            .any(|f| f.rel_path == file && f.rule == fence.name),
                        "{}: {line:?} planted in {file} went unseen: {got:?}",
                        fence.name
                    );
                }
            }
        }
    }
}

#[test]
fn every_only_place_that_loses_a_pattern_drifts() {
    for fence in FENCES {
        for (k, place) in fence.only.iter().enumerate() {
            for (p, pat) in fence.patterns.iter().enumerate() {
                let got = check(fence, &clean_tree(fence, Some((k, p))));
                assert!(
                    got.iter().any(|f| f.rel_path == place.path),
                    "{}: {pat} gone from {} went unseen: {got:?}",
                    fence.name,
                    place.path
                );
            }
        }
    }
}

#[test]
fn a_part_reads_only_its_lines_and_a_lost_part_drifts() {
    for fence in FENCES {
        for place in fence.within.iter().filter(|w| w.part != Part::Whole) {
            let file = file_of(place);
            let line = samples(&fence.patterns[0]).swap_remove(0);
            // Below the part (after the fn's next `pub fn`, under the
            // tests) the pattern is not read.
            let mut tree = clean_tree(fence, None);
            tree.entry(file.clone()).or_default().push(line);
            assert!(check(fence, &tree).is_empty(), "{}", fence.name);
            // A file that no longer declares the part reads nothing.
            let mut tree = clean_tree(fence, None);
            tree.insert(file.clone(), vec![]);
            if let Part::Fn(_) = place.part {
                let got = check(fence, &tree);
                assert!(got.iter().any(|f| f.rel_path == place.path), "{got:?}");
            }
            tree.remove(&file);
            let got = check(fence, &tree);
            assert!(got.iter().any(|f| f.rel_path == place.path), "{got:?}");
        }
    }
}

#[test]
fn a_decision_walk_split_by_rustfmt_is_caught() {
    // A router crate's stand-in speaker.rs calling the walk as rustfmt
    // lays out a long chain: `self` / `.rib` / `.walk(` on three lines.
    let fence = FENCES
        .iter()
        .find(|f| f.name == "one-decision-walk")
        .expect("the decision-walk fence");
    for pat in fence.patterns {
        let Pat::Text(walk) = *pat else {
            panic!("{pat} is not a name")
        };
        let mut tree = clean_tree(fence, None);
        let chain = [
            "let best = self",
            "    .rib",
            &format!("    .{walk}(arena, me)"),
        ];
        let file = "crates/core/src/speaker.rs".to_string();
        tree.insert(file.clone(), chain.map(String::from).to_vec());
        let got = check(fence, &tree);
        assert!(
            got.iter().any(|f| f.rel_path == file && f.line == 3),
            "{got:?}"
        );
    }
}

#[test]
fn a_fence_cannot_be_allowed_away() {
    // An allow naming a fence is a directive for an unknown rule, and the
    // fence fires regardless.
    let fence = &FENCES[0];
    let mut tree = clean_tree(fence, None);
    let line = samples(&fence.patterns[0]).swap_remove(0);
    let allow = format!("// simlint::allow({}, \"reason\")", fence.name);
    let file = plant(&mut tree, &fence.within[0], &line);
    plant(&mut tree, &fence.within[0], &allow);
    assert!(check(fence, &tree).iter().any(|f| f.rel_path == file));
    let src = tree[&file].join("\n");
    let rules: Vec<_> = analyze_source(&file, &src).iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"bad-allow"), "{rules:?}");
}
