//! Per-file analysis: regions, directives, rule matchers, suppression.
//!
//! The pipeline for one file:
//!
//! 1. lex (`lexer.rs`) — comments/strings can never fire code rules;
//! 2. parse `// simlint::allow(rule, "reason")` and `// simlint::hot`
//!    directives out of the comment tokens;
//! 3. mark `#[cfg(test)]` / `#[test]` regions (every rule skips them) and
//!    `simlint::hot` function bodies (the hot-path rules fire only there);
//! 4. run the matchers for every rule in scope for the file's crate;
//! 5. drop findings covered by a justified inline allow, and report
//!    stale allows.

use crate::config::{self, Severity};
use crate::lexer::{lex, Tok, TokKind};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rel_path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    pub severity: Severity,
}

impl Finding {
    /// The `file:line:rule: message` form the binary prints.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}",
            self.rel_path, self.line, self.rule, self.message
        )
    }
}

/// An inline `simlint::allow` waiting to match a finding.
struct Allow {
    line: u32,
    rule: String,
    used: bool,
}

/// Analyze one file's source. `rel_path` is repo-relative (it selects the
/// crate scope and the id-module exemption).
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let crate_name = config::crate_of(rel_path);
    let toks = lex(src);
    let mut findings: Vec<Finding> = Vec::new();

    // ---- directives --------------------------------------------------
    let mut allows: Vec<Allow> = Vec::new();
    // Hot markers: (index into `toks`, directive line).
    let mut hot_marks: Vec<(usize, u32)> = Vec::new();
    parse_directives(
        rel_path,
        src,
        &toks,
        &mut allows,
        &mut hot_marks,
        &mut findings,
    );

    // ---- code view and regions ---------------------------------------
    // Code tokens only (rules never see comments), with each code token's
    // index back into `toks` so hot markers can be located.
    let code: Vec<(usize, Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, t)| (i, *t))
        .collect();
    let in_test = test_regions(src, &code);
    let in_hot = hot_regions(rel_path, src, &code, &hot_marks, &mut findings);

    // ---- matchers ----------------------------------------------------
    let ctx = MatchCtx {
        rel_path,
        crate_name,
        src,
        code: &code,
        in_test: &in_test,
        in_hot: &in_hot,
    };
    ctx.determinism_rules(&mut findings);
    ctx.hot_rules(&mut findings);
    ctx.panic_rules(&mut findings);
    ctx.lossy_cast_rule(&mut findings);

    // ---- suppression -------------------------------------------------
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        // bad-allow findings are never themselves suppressible: a broken
        // directive must be fixed, not allowed away.
        if f.rule != "bad-allow" {
            if let Some(a) = allows
                .iter_mut()
                .find(|a| a.line == f.line && a.rule == f.rule)
            {
                a.used = true;
                continue;
            }
        }
        kept.push(f);
    }
    for a in &allows {
        if !a.used {
            kept.push(finding(
                rel_path,
                a.line,
                "unused-allow",
                format!("allow({}) suppressed nothing — delete it", a.rule),
            ));
        }
    }
    kept.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    kept
}

/// Keywords after which a `[` opens an array, a slice type or a pattern
/// (`self`, `Self` and `.await` yield values, which index).
const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// A finding at the severity its rule has in the path's crate (Deny for
/// a name no rule has: a fence's).
pub(crate) fn finding(rel_path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    let severity = config::rule(rule).map_or(Severity::Deny, |r| {
        config::severity_in(r, config::crate_of(rel_path))
    });
    Finding {
        rel_path: rel_path.to_string(),
        line,
        rule,
        message,
        severity,
    }
}

// ---------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------

/// Parse `simlint::…` directives out of plain `//` comments (doc comments
/// are prose — directives in them are ignored). An allow with an earlier
/// code token on its own line covers that line; otherwise it covers the
/// next line holding code. Malformed directives become `bad-allow`.
fn parse_directives(
    rel_path: &str,
    src: &str,
    toks: &[Tok],
    allows: &mut Vec<Allow>,
    hot_marks: &mut Vec<(usize, u32)>,
    findings: &mut Vec<Finding>,
) {
    let mut last_code_line = 0u32;
    // Allows from standalone comment lines, waiting for the next code line.
    let mut pending: Vec<(u32, String)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::LineComment => {
                let text = t.text(src);
                let body = match text.strip_prefix("//") {
                    Some(b) if !b.starts_with('/') && !b.starts_with('!') => b.trim(),
                    _ => continue,
                };
                let Some(rest) = body.strip_prefix("simlint::") else {
                    continue;
                };
                if rest == "hot" {
                    hot_marks.push((i, t.line));
                } else if let Some(args) = rest.strip_prefix("allow") {
                    match parse_allow_args(args) {
                        Ok(rule) => {
                            if t.line == last_code_line {
                                allows.push(Allow {
                                    line: t.line,
                                    rule,
                                    used: false,
                                });
                            } else {
                                pending.push((t.line, rule));
                            }
                        }
                        Err(why) => findings.push(finding(rel_path, t.line, "bad-allow", why)),
                    }
                } else {
                    findings.push(finding(
                        rel_path,
                        t.line,
                        "bad-allow",
                        format!("unknown simlint directive `simlint::{rest}`"),
                    ));
                }
            }
            TokKind::BlockComment => {}
            _ => {
                for (_, rule) in pending.drain(..) {
                    allows.push(Allow {
                        line: t.line,
                        rule,
                        used: false,
                    });
                }
                last_code_line = t.line;
            }
        }
    }
    // Directives at end of file with no code after them.
    for (line, rule) in pending {
        findings.push(finding(
            rel_path,
            line,
            "bad-allow",
            format!("allow({rule}) is followed by no code"),
        ));
    }
}

/// Parse `(rule, "reason")`, returning the rule name. The justification is
/// mandatory and must be a non-empty string literal: an allow without a
/// reviewable reason is itself a violation.
fn parse_allow_args(args: &str) -> Result<String, String> {
    let inner = args
        .trim()
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| "allow directive must be `simlint::allow(rule, \"reason\")`".to_string())?;
    let (rule, rest) = inner
        .split_once(',')
        .ok_or_else(|| "allow directive is missing the justification argument".to_string())?;
    let rule = rule.trim();
    if config::rule(rule).is_none() {
        return Err(format!("allow names unknown rule `{rule}`"));
    }
    let reason = rest
        .trim()
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| "allow justification must be a quoted string".to_string())?;
    if reason.trim().is_empty() {
        return Err("allow justification must not be empty".to_string());
    }
    Ok(rule.to_string())
}

// ---------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------

/// Mark code tokens inside `#[cfg(test)]` or `#[test]` items. Rules skip
/// these: test code may unwrap, index, and hash freely.
fn test_regions(src: &str, code: &[(usize, Tok)]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let txt = |i: usize| code.get(i).map(|(_, t)| t.text(src)).unwrap_or("");
    let punct =
        |i: usize, c: u8| matches!(code.get(i), Some((_, t)) if t.kind == TokKind::Punct(c));
    let mut i = 0;
    while i < code.len() {
        // `#[test]` or `#[cfg(test)]` (the exact forms this workspace uses;
        // cfg(not(test)) etc. would need a real cfg evaluator and is
        // deliberately out of scope).
        let is_attr = punct(i, b'#') && punct(i + 1, b'[');
        let attr_len = if is_attr && txt(i + 2) == "test" && punct(i + 3, b']') {
            4
        } else if is_attr
            && txt(i + 2) == "cfg"
            && punct(i + 3, b'(')
            && txt(i + 4) == "test"
            && punct(i + 5, b')')
            && punct(i + 6, b']')
        {
            7
        } else {
            0
        };
        if attr_len == 0 {
            i += 1;
            continue;
        }
        let end = item_end(code, i + attr_len);
        for flag in in_test.iter_mut().take(end).skip(i) {
            *flag = true;
        }
        i = end.max(i + 1);
    }
    in_test
}

/// Mark the function bodies following `// simlint::hot` comments. A marker
/// with no function to attach to is a `bad-allow` finding.
fn hot_regions(
    rel_path: &str,
    src: &str,
    code: &[(usize, Tok)],
    hot_marks: &[(usize, u32)],
    findings: &mut Vec<Finding>,
) -> Vec<bool> {
    let mut in_hot = vec![false; code.len()];
    for &(mark, mark_line) in hot_marks {
        // First code token at or after the marker comment.
        let Some(start) = code.iter().position(|(ti, _)| *ti > mark) else {
            dangling_hot(rel_path, mark_line, findings);
            continue;
        };
        // Scan a bounded window for the `fn` keyword (past `pub`,
        // attributes, `#[inline]`, …). A `;` or `}` first means the marker
        // is dangling.
        let mut fn_at = None;
        for (off, (_, t)) in code.iter().enumerate().skip(start).take(64) {
            if t.kind == TokKind::Ident && t.text(src) == "fn" {
                fn_at = Some(off);
                break;
            }
            if matches!(t.kind, TokKind::Punct(b';') | TokKind::Punct(b'}')) {
                break;
            }
        }
        let Some(fn_at) = fn_at else {
            // Report on the item the marker tried (and failed) to attach
            // to, like pending allows do.
            let line = code.get(start).map_or(mark_line, |(_, t)| t.line);
            dangling_hot(rel_path, line, findings);
            continue;
        };
        let end = item_end(code, fn_at);
        for flag in in_hot.iter_mut().take(end).skip(fn_at) {
            *flag = true;
        }
    }
    in_hot
}

fn dangling_hot(rel_path: &str, line: u32, findings: &mut Vec<Finding>) {
    findings.push(finding(
        rel_path,
        line,
        "bad-allow",
        "simlint::hot marker is not followed by a fn with a body".to_string(),
    ));
}

/// End (exclusive, in code-token indices) of the item starting at `from`:
/// brace-matched past the first `{`, or just past a `;` met first (no
/// body). Tolerant of truncated input.
fn item_end(code: &[(usize, Tok)], from: usize) -> usize {
    let mut i = from;
    while i < code.len() {
        match code.get(i).map(|(_, t)| t.kind) {
            Some(TokKind::Punct(b'{')) => {
                let mut depth = 0usize;
                while i < code.len() {
                    match code.get(i).map(|(_, t)| t.kind) {
                        Some(TokKind::Punct(b'{')) => depth += 1,
                        Some(TokKind::Punct(b'}')) => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return code.len();
            }
            Some(TokKind::Punct(b';')) => return i + 1,
            Some(_) => i += 1,
            None => break,
        }
    }
    code.len()
}

// ---------------------------------------------------------------------
// Matchers
// ---------------------------------------------------------------------

struct MatchCtx<'a> {
    rel_path: &'a str,
    crate_name: &'a str,
    src: &'a str,
    code: &'a [(usize, Tok)],
    in_test: &'a [bool],
    in_hot: &'a [bool],
}

impl MatchCtx<'_> {
    fn scoped(&self, rule: &str) -> bool {
        config::rule(rule).is_some_and(|r| config::in_scope(r, self.crate_name))
    }

    fn txt(&self, i: usize) -> &str {
        match self.code.get(i) {
            Some((_, t)) if t.kind == TokKind::Ident => t.text(self.src),
            _ => "",
        }
    }

    fn punct(&self, i: usize, c: u8) -> bool {
        matches!(self.code.get(i), Some((_, t)) if t.kind == TokKind::Punct(c))
    }

    fn line(&self, i: usize) -> u32 {
        self.code.get(i).map_or(0, |(_, t)| t.line)
    }

    fn tested(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    fn emit(&self, out: &mut Vec<Finding>, i: usize, rule: &'static str, message: String) {
        out.push(finding(self.rel_path, self.line(i), rule, message));
    }

    /// `default-hasher`, `wall-clock`, `ambient-env`,
    /// `float-hash-aggregate`.
    fn determinism_rules(&self, out: &mut Vec<Finding>) {
        for i in 0..self.code.len() {
            if self.tested(i) {
                continue;
            }
            let w = self.txt(i);
            if self.scoped("default-hasher") && (w == "HashMap" || w == "HashSet") {
                self.emit(
                    out,
                    i,
                    "default-hasher",
                    format!(
                        "std {w} has a randomly keyed hasher; use eventsim::fxhash or BTreeMap"
                    ),
                );
            }
            if self.scoped("wall-clock") && (w == "Instant" || w == "SystemTime") {
                self.emit(
                    out,
                    i,
                    "wall-clock",
                    format!("{w} reads the wall clock; sim code must use SimTime"),
                );
            }
            if self.scoped("ambient-env") {
                let env_use = w == "env"
                    && (self.punct(i + 1, b':') && self.punct(i + 2, b':')
                        || self.punct(i.wrapping_sub(1), b':')
                            && self.punct(i.wrapping_sub(2), b':')
                            && self.txt(i.wrapping_sub(3)) == "std");
                let thread_id = w == "current"
                    && self.punct(i.wrapping_sub(1), b':')
                    && self.txt(i.wrapping_sub(3)) == "thread";
                let parallelism = w == "available_parallelism";
                if env_use || thread_id || parallelism {
                    self.emit(
                        out,
                        i,
                        "ambient-env",
                        format!("`{w}` reads ambient machine state; results must not depend on it"),
                    );
                }
            }
            if self.scoped("float-hash-aggregate")
                && matches!(w, "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet")
                && self.punct(i + 1, b'<')
            {
                let mut depth = 0i32;
                for j in i + 1..(i + 256).min(self.code.len()) {
                    if self.punct(j, b'<') {
                        depth += 1;
                    } else if self.punct(j, b'>') {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    } else if depth >= 1 && matches!(self.txt(j), "f32" | "f64") {
                        self.emit(
                            out,
                            i,
                            "float-hash-aggregate",
                            format!(
                                "{w} holds {} values — float accumulation over hashed \
                                 iteration is order-sensitive",
                                self.txt(j)
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }

    /// `hot-collect`, `hot-clone`, `hot-alloc` — inside `simlint::hot`
    /// function bodies only.
    fn hot_rules(&self, out: &mut Vec<Finding>) {
        if !self.scoped("hot-collect") {
            return;
        }
        for i in 0..self.code.len() {
            if !self.in_hot.get(i).copied().unwrap_or(false) || self.tested(i) {
                continue;
            }
            let w = self.txt(i);
            if self.punct(i.wrapping_sub(1), b'.') {
                if w == "collect" {
                    self.emit(
                        out,
                        i,
                        "hot-collect",
                        ".collect() allocates on the hot path; reuse a scratch buffer".to_string(),
                    );
                } else if matches!(w, "clone" | "to_vec" | "to_owned" | "to_string") {
                    self.emit(
                        out,
                        i,
                        "hot-clone",
                        format!(".{w}() copies on the hot path; pass Copy handles or borrow"),
                    );
                }
            }
            let macro_alloc = matches!(w, "vec" | "format") && self.punct(i + 1, b'!');
            let ctor_alloc = matches!(w, "Vec" | "Box" | "String" | "VecDeque" | "BTreeMap")
                && self.punct(i + 1, b':')
                && self.punct(i + 2, b':')
                && matches!(self.txt(i + 3), "new" | "with_capacity" | "from");
            if macro_alloc || ctor_alloc {
                self.emit(
                    out,
                    i,
                    "hot-alloc",
                    format!("`{w}` allocates per call on the hot path"),
                );
            }
        }
    }

    /// `panic` and `index-panic` — library code outside tests.
    fn panic_rules(&self, out: &mut Vec<Finding>) {
        let panics = self.scoped("panic");
        let indexing = self.scoped("index-panic");
        for i in 0..self.code.len() {
            if self.tested(i) {
                continue;
            }
            let w = self.txt(i);
            if panics {
                if matches!(w, "unwrap" | "expect")
                    && self.punct(i.wrapping_sub(1), b'.')
                    && self.punct(i + 1, b'(')
                {
                    self.emit(
                        out,
                        i,
                        "panic",
                        format!(".{w}() can panic in library code; return a typed error"),
                    );
                }
                if matches!(w, "panic" | "unreachable" | "todo" | "unimplemented")
                    && self.punct(i + 1, b'!')
                {
                    self.emit(
                        out,
                        i,
                        "panic",
                        format!("{w}! in library code; return a typed error"),
                    );
                }
            }
            if indexing && self.punct(i, b'[') {
                let prev = i.wrapping_sub(1);
                let keyword = KEYWORDS.contains(&self.txt(prev));
                let prev_indexable = matches!(
                    self.code.get(prev),
                    Some((_, t)) if (t.kind == TokKind::Ident && !keyword)
                        || t.kind == TokKind::Punct(b')')
                        || t.kind == TokKind::Punct(b']')
                );
                // `ident [` directly after `#` is an attribute, after `!`
                // a macro — both already excluded by the previous-token
                // kinds above; so is a `[` after a keyword (`in [a, b]`,
                // `&mut [T]`, `let [x, y] = p`).
                if prev_indexable {
                    self.emit(
                        out,
                        i,
                        "index-panic",
                        "indexing can panic; prefer .get() off the hot path".to_string(),
                    );
                }
            }
        }
    }

    /// `lossy-cast` — narrowing `as` casts outside the id modules.
    fn lossy_cast_rule(&self, out: &mut Vec<Finding>) {
        if !self.scoped("lossy-cast") || config::ID_MODULES.contains(&self.rel_path) {
            return;
        }
        for i in 0..self.code.len() {
            if self.tested(i) || self.txt(i) != "as" {
                continue;
            }
            let target = self.txt(i + 1);
            if matches!(target, "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
                self.emit(
                    out,
                    i,
                    "lossy-cast",
                    format!(
                        "`as {target}` silently truncates; use the checked id \
                         constructors or try_from"
                    ),
                );
            }
        }
    }
}
