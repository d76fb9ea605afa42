//! The fence matcher: where the [`FENCES`](crate::config::FENCES) rows'
//! patterns occur, and whether each row's `only` places still hold them.
//!
//! A fence reads raw text line by line, so a pattern counts in a comment
//! or a string too, over every file under its `within` places (a
//! `Part` narrows a file to some of its lines). Every finding is Deny and
//! none can be suppressed: an occurrence outside `only`, an `only` place
//! that lost a pattern or holds it the wrong number of times, and a
//! `within` place that reads nothing (renamed away).

use crate::analysis::{finding, Finding};
use crate::config::{Fence, Part, Pat, Place, FENCE_TABLE};
use std::fmt;
use std::ops::Range;

impl Pat {
    /// How many times the pattern occurs on `line`.
    pub fn hits(&self, line: &str) -> usize {
        match *self {
            Pat::Text(t) => line.matches(t).count(),
            Pat::Hex(h) => {
                let folded: String = line
                    .chars()
                    .filter(|&c| c != '_')
                    .map(|c| c.to_ascii_lowercase())
                    .collect();
                folded.matches(h).count()
            }
            Pat::Word(w, then) => line
                .match_indices(w)
                .filter(|&(i, _)| {
                    let before = line.get(..i).and_then(|s| s.chars().next_back());
                    let rest = line.get(i + w.len()..).unwrap_or("").trim_start();
                    !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                        && then.iter().any(|t| rest.starts_with(t))
                })
                .count(),
        }
    }
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pat::Text(t) => write!(f, "`{t}`"),
            Pat::Hex(h) => write!(f, "`{h}` (any case, `_` anywhere)"),
            Pat::Word(w, then) => write!(f, "`{w}` then `{}`", then.join("` or `")),
        }
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.part {
            Part::Whole => write!(f, "{}", self.path),
            part => write!(f, "{} ({part:?})", self.path),
        }
    }
}

/// `items` as a comma-separated list, or `nowhere`.
pub fn list<T: fmt::Display>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    if items.is_empty() {
        return "nowhere".to_string();
    }
    items.join(", ")
}

/// The lines of `path` that `place` means, or `None` if it means none of
/// that file: another path, or a `Fn` the file does not declare.
fn part_of(place: &Place, path: &str, lines: &[&str]) -> Option<Range<usize>> {
    let rest = path.strip_prefix(place.path)?;
    if !(rest.is_empty() || rest.starts_with('/')) {
        return None;
    }
    let first = |from: usize, p: &dyn Fn(&str) -> bool| {
        let n = lines.iter().skip(from).position(|l| p(l));
        n.map_or(lines.len(), |n| from + n)
    };
    match place.part {
        Part::Whole | Part::Times(_) => Some(0..lines.len()),
        Part::AboveTests => Some(0..first(0, &|l| l.starts_with("#[cfg(test)]"))),
        Part::Fn(name) => {
            let head = format!("pub fn {name}");
            let start = first(0, &|l| l.contains(&head));
            (start < lines.len()).then(|| start..first(start + 1, &|l| l.contains("pub fn ")))
        }
    }
}

/// Every finding of `fences` over a tree of `(repo-relative path, text)`.
pub fn check(fences: &[Fence], files: &[(String, String)]) -> Vec<Finding> {
    let files: Vec<(&str, Vec<&str>)> = files
        .iter()
        .filter(|(path, _)| path != FENCE_TABLE)
        .map(|(path, text)| (path.as_str(), text.lines().collect()))
        .collect();
    let mut out = Vec::new();
    for fence in fences {
        let mut report = |path: &str, line: usize, what: String| {
            let line = u32::try_from(line).unwrap_or(u32::MAX);
            out.push(finding(
                path,
                line,
                fence.name,
                format!("{what}: {}", fence.why),
            ));
        };
        for place in fence.within {
            if !files.iter().any(|(p, l)| part_of(place, p, l).is_some()) {
                report(place.path, 1, format!("the fence reads nothing at {place}"));
            }
        }
        for pat in fence.patterns {
            for (path, lines) in &files {
                let parts = |set: &[Place]| -> Vec<Range<usize>> {
                    set.iter().filter_map(|p| part_of(p, path, lines)).collect()
                };
                let (read, allowed) = (parts(fence.within), parts(fence.only));
                for (i, line) in lines.iter().enumerate() {
                    let at = |parts: &[Range<usize>]| parts.iter().any(|r| r.contains(&i));
                    if pat.hits(line) > 0 && at(&read) && !at(&allowed) {
                        let only = list(fence.only);
                        report(path, i + 1, format!("{pat} may occur only in {only}"));
                    }
                }
            }
            for place in fence.only {
                let (mut hits, mut on) = (0, 0);
                for (path, lines) in &files {
                    let part = part_of(place, path, lines).and_then(|r| lines.get(r));
                    for n in part.unwrap_or_default().iter().map(|l| pat.hits(l)) {
                        hits += n;
                        on += usize::from(n > 0);
                    }
                }
                let held = match place.part {
                    Part::Times(n) => hits == n && on == n,
                    _ => hits > 0,
                };
                if !held {
                    let what = format!("{place} holds {pat} {hits} time(s) on {on} line(s)");
                    report(place.path, 1, what);
                }
            }
        }
    }
    out
}
