//! Every document cross-reference names a heading that exists.
//!
//! Code comments, ci.sh, the roadmap, the verify skill and the two
//! documents themselves cite the design document by section number —
//! `§N` or `§N.M`, optionally followed by `, "Subsection"` and by further
//! `, §K` sections — and the experiments record by quoted headings, the
//! first with or without a comma before it, any further ones after `, `.
//! This test reads every such citation and checks it against the
//! headings of the file it names: a section number must head a section,
//! a quoted subsection must be a heading inside that section, and a
//! quoted experiments heading must be one of that file's headings, word
//! for word.
//!
//! The design document also cites itself by a bare `§N, "Subsection"`.
//! A bare `§N` with no quoted subsection after it may name a section of
//! the paper (§6.2, §4.1), so only the quoted form is read there: the
//! paper's sections are never cited with a quoted title.
//!
//! Comment lines are joined before matching (their `//`, `//!`, `///` or
//! `#` stripped), and so are a string's `\`-continued lines, because a
//! citation can wrap. CHANGES.md is an append-only log and is not read;
//! neither is `benchmark/`, which cites neither document.

use std::fs;
use std::path::{Path, PathBuf};

/// Spelled through constants so that this file's own text holds no
/// citation for the scan below to read.
const DESIGN: &str = "DESIGN.md";
const EXPERIMENTS: &str = "EXPERIMENTS.md";

/// Directories read whole, and single files read beside them.
const TREES: [&str; 4] = ["crates", "src", "tests", "examples"];
const FILES: [&str; 5] = [
    "ci.sh",
    "ROADMAP.md",
    DESIGN,
    EXPERIMENTS,
    ".claude/skills/verify/SKILL.md",
];

#[derive(Debug, PartialEq, Eq)]
enum Cite {
    /// A design section, and the subsection heading quoted after it.
    Design {
        section: String,
        sub: Option<String>,
    },
    /// An experiments heading.
    Experiments { heading: String },
}

/// One file's lines with comment markers stripped, joined by one space,
/// and the offset at which each line starts in the joined text.
struct Joined {
    text: String,
    starts: Vec<usize>,
}

impl Joined {
    fn of(source: &str) -> Joined {
        let mut text = String::new();
        let mut starts = Vec::new();
        for line in source.lines() {
            let mut l = line.trim();
            for marker in ["//!", "///", "//", "#"] {
                if let Some(rest) = l.strip_prefix(marker) {
                    l = rest;
                    break;
                }
            }
            let l = l.trim_end_matches('\\').trim();
            starts.push(text.len());
            text.push_str(l);
            text.push(' ');
        }
        Joined { text, starts }
    }

    /// The 1-based source line holding byte `offset` of the joined text.
    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

/// `s` without its leading run of characters `keep` accepts, and that run.
fn take_while(s: &str, keep: impl Fn(char) -> bool) -> (&str, &str) {
    let end = s.find(|c: char| !keep(c)).unwrap_or(s.len());
    (&s[..end], &s[end..])
}

/// A section number `N` or `N.M` after a `§`, and what follows it.
fn section(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('§')?;
    let (major, mut rest) = take_while(rest, |c| c.is_ascii_digit());
    if major.is_empty() {
        return None;
    }
    let mut number = major.to_string();
    if let Some(after_dot) = rest.strip_prefix('.') {
        let (minor, after) = take_while(after_dot, |c| c.is_ascii_digit());
        if !minor.is_empty() {
            number = format!("{major}.{minor}");
            rest = after;
        }
    }
    Some((number, rest))
}

/// A quoted string at the start of `s`, and what follows its closing quote.
fn quoted(s: &str) -> Option<(String, &str)> {
    let body = s.strip_prefix('"')?;
    let end = body.find('"')?;
    let words: Vec<&str> = body[..end].split(' ').filter(|w| !w.is_empty()).collect();
    Some((words.join(" "), &body[end + 1..]))
}

/// Every citation in `text`, with the byte offset where it starts.
fn citations(text: &str) -> Vec<(usize, Cite)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(DESIGN) {
        let mut rest = text[at + DESIGN.len()..].trim_start();
        while let Some((number, after)) = section(rest) {
            rest = after;
            let mut sub = None;
            if let Some((heading, after)) = rest.strip_prefix(", ").and_then(quoted) {
                sub = Some(heading);
                rest = after;
            }
            found.push((
                at,
                Cite::Design {
                    section: number,
                    sub,
                },
            ));
            match rest.strip_prefix(", ") {
                Some(next) if next.starts_with('§') => rest = next,
                _ => break,
            }
        }
    }
    for (at, _) in text.match_indices(EXPERIMENTS) {
        let rest = &text[at + EXPERIMENTS.len()..];
        let rest = rest.strip_prefix(',').unwrap_or(rest);
        let trimmed = rest.trim_start();
        if trimmed.len() == rest.len() {
            continue;
        }
        let mut next = quoted(trimmed);
        while let Some((heading, after)) = next {
            found.push((at, Cite::Experiments { heading }));
            next = after.strip_prefix(", ").and_then(quoted);
        }
    }
    found
}

/// Every bare `§N, "Subsection"` in `text`, with the byte offset where
/// it starts: the design document citing one of its own subsections.
fn own_citations(text: &str) -> Vec<(usize, Cite)> {
    text.match_indices('§')
        .filter_map(|(at, _)| {
            let (section, rest) = section(&text[at..])?;
            let (sub, _) = rest.strip_prefix(", ").and_then(quoted)?;
            let sub = Some(sub);
            Some((at, Cite::Design { section, sub }))
        })
        .collect()
}

/// A markdown heading: its level (the number of `#`) and its text.
fn headings(doc: &str) -> Vec<(usize, String)> {
    doc.lines()
        .filter_map(|line| {
            let (hashes, rest) = take_while(line, |c| c == '#');
            let text = rest.strip_prefix(' ')?;
            (!hashes.is_empty()).then(|| (hashes.len(), text.trim().to_string()))
        })
        .collect()
}

/// Whether the design document `doc` has section `number` and, when
/// asked, a heading `sub` inside it (with or without its own `§` number).
fn design_has(doc: &[(usize, String)], number: &str, sub: Option<&str>) -> bool {
    let prefix = format!("§{number} ");
    let Some(at) = doc.iter().position(|(_, t)| t.starts_with(&prefix)) else {
        return false;
    };
    let Some(sub) = sub else {
        return true;
    };
    let level = doc[at].0;
    doc[at + 1..]
        .iter()
        .take_while(|(l, _)| *l > level)
        .any(|(_, t)| t == sub || section(t).is_some_and(|(_, rest)| rest.trim() == sub))
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn read(root: &Path, name: &str) -> String {
    fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The headings citations are checked against.
struct Headings {
    design: Vec<(usize, String)>,
    experiments: Vec<String>,
}

impl Headings {
    fn of(design: &str, experiments: &str) -> Headings {
        let experiments = headings(experiments).into_iter().map(|(_, t)| t).collect();
        Headings {
            design: headings(design),
            experiments,
        }
    }

    /// Check `source`'s citations — and, when `own`, its bare ones too —
    /// counting them into `found`, and return the dangling ones, each
    /// shown as `shown:line: citation`.
    fn dangling(
        &self,
        shown: &str,
        source: &str,
        own: bool,
        found: &mut [usize; 3],
    ) -> Vec<String> {
        let joined = Joined::of(source);
        let mut cites = citations(&joined.text);
        if own {
            let bare = own_citations(&joined.text);
            found[2] += bare.len();
            cites.extend(bare);
        }
        let mut dangling = Vec::new();
        for (at, cite) in cites {
            let ok = match &cite {
                Cite::Design { section, sub } => {
                    found[0] += 1;
                    design_has(&self.design, section, sub.as_deref())
                }
                Cite::Experiments { heading } => {
                    found[1] += 1;
                    self.experiments.contains(heading)
                }
            };
            if !ok {
                dangling.push(format!("{shown}:{}: {cite:?}", joined.line_of(at)));
            }
        }
        dangling
    }
}

#[test]
fn every_document_reference_names_a_heading_that_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let known = Headings::of(&read(root, DESIGN), &read(root, EXPERIMENTS));

    let mut sources = Vec::new();
    for tree in TREES {
        files_under(&root.join(tree), &mut sources);
    }
    sources.extend(FILES.iter().map(|f| root.join(f)));

    let mut found = [0; 3];
    let mut dangling = Vec::new();
    for path in &sources {
        let bytes = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let shown = path.strip_prefix(root).unwrap_or(path);
        let own = shown == Path::new(DESIGN);
        let source = String::from_utf8_lossy(&bytes);
        dangling.extend(known.dangling(&shown.display().to_string(), &source, own, &mut found));
    }
    assert!(
        dangling.is_empty(),
        "{} citation(s) name no heading:\n{}",
        dangling.len(),
        dangling.join("\n")
    );
    // A scanner that silently stopped matching would pass the check above.
    let [design_cites, experiments_cites, own_cites] = found;
    assert!(
        design_cites >= 10 && experiments_cites >= 10 && own_cites >= 5,
        "only {design_cites} design ({own_cites} bare) and {experiments_cites} experiments \
         citations found"
    );
}

#[test]
fn the_design_document_s_bare_citations_resolve_and_paper_sections_stay_unread() {
    let design = "# T\n## §1 One\n### Alpha\n## §2 Two\n### Gamma\n";
    let known = Headings::of(design, "");
    let mut found = [0; 3];
    let body = "as §1, \"Alpha\" and the paper's §6.2 say;\nsee (§2,\n\"Gamma\").\n";
    assert!(known.dangling("D", body, true, &mut found).is_empty());
    assert_eq!(found, [2, 0, 2]);
    // A quoted subsection under the wrong section dangles, wrapped or not.
    let planted = format!("{body}as §2, \"Alpha\";\nand §1,\n\"Beta\".\n");
    assert_eq!(
        known.dangling("D", &planted, true, &mut found),
        [
            "D:4: Design { section: \"2\", sub: Some(\"Alpha\") }",
            "D:5: Design { section: \"1\", sub: Some(\"Beta\") }",
        ]
    );
    // Another file's bare `§` is not read.
    assert!(known.dangling("F", &planted, false, &mut found).is_empty());
}

#[test]
fn a_citation_that_wraps_across_comment_lines_is_read_whole() {
    let source = format!(
        "fn f() {{}}\n// the feed ({DESIGN}\n// §12, \"Observation: the\n// touched feed\", §3) and\n/// {EXPERIMENTS},\n/// \"Closed\", \"Scorecard\".\n"
    );
    let joined = Joined::of(&source);
    let found: Vec<(usize, Cite)> = citations(&joined.text)
        .into_iter()
        .map(|(at, c)| (joined.line_of(at), c))
        .collect();
    assert_eq!(
        found,
        [
            (
                2,
                Cite::Design {
                    section: "12".into(),
                    sub: Some("Observation: the touched feed".into()),
                }
            ),
            (
                2,
                Cite::Design {
                    section: "3".into(),
                    sub: None,
                }
            ),
            (
                5,
                Cite::Experiments {
                    heading: "Closed".into(),
                }
            ),
            (
                5,
                Cite::Experiments {
                    heading: "Scorecard".into(),
                }
            ),
        ]
    );
}

#[test]
fn a_subsection_resolves_only_under_its_own_section() {
    let doc = headings("# T\n## §1 One\n### Alpha\n### §1.2 Beta\n## §2 Two\n### Gamma\n");
    assert!(design_has(&doc, "1", None));
    assert!(design_has(&doc, "1.2", None));
    assert!(design_has(&doc, "1", Some("Alpha")));
    assert!(design_has(&doc, "1", Some("Beta")));
    assert!(design_has(&doc, "2", Some("Gamma")));
    assert!(!design_has(&doc, "2", Some("Alpha")));
    assert!(!design_has(&doc, "1", Some("Gamma")));
    assert!(!design_has(&doc, "3", None));
    assert!(!design_has(&doc, "1.3", None));
}
