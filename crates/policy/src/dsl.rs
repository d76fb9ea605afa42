//! The `.pol` plain-text regime format.
//!
//! Same discipline as the workload crate's `.scn` DSL: a canonical
//! printer ([`PolicyRegime::to_pol`]) and a strict parser
//! ([`parse_pol`], also `str::parse::<PolicyRegime>()`) with the exact
//! round-trip guarantee `parse_pol(&r.to_pol()).unwrap() == r`. The
//! printer always emits one fixed shape:
//!
//! ```text
//! regime long-path-tax
//! prefer origin 1000
//! prefer customer 300
//! prefer peer 200
//! prefer provider 100
//! import match path-longer-than 5 then add-community 64 set-local-pref 50
//! export own to customer allow
//! ...                                  # all 12 gate lines, fixed order
//! export provider to provider deny
//! export deny-community 64 to peer
//! export deny-community 64 to provider
//! ```
//!
//! `#` starts a comment; blank lines are skipped. The parser accepts
//! directives in any order after the `regime` header but requires each of
//! the four `prefer` lines and all twelve export gates exactly once, so a
//! document determines a regime uniquely. Sets print as sorted comma
//! lists and the deny list sorts by `(community, relation)`; both are
//! normalized the same way at construction, which is what makes the
//! round trip exact rather than merely semantic.

use crate::model::{
    learned_idx, rel_from_name, rel_idx, rel_name, Action, CommunitySet, Matcher, PolicyList,
    PrefixSet, Rule,
};
use crate::regime::{PolicyRegime, LEARNED_RELS, TO_RELS};
use stamp_eventsim::textfmt::{self, comma_list, Cursor, Miss};
use stamp_topology::Relation;
use std::fmt::{self, Write as _};
use std::str::FromStr;

pub use stamp_eventsim::textfmt::valid_name;

/// A `.pol` parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolError {
    pub line: usize,
    pub kind: PolErrorKind,
}

/// What went wrong on that line (or, for the `Missing*` kinds, what the
/// document as a whole never provided).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolErrorKind {
    /// The first significant line was not `regime <name>`.
    MissingRegime,
    /// A second `regime` header appeared.
    DuplicateRegime,
    /// The regime name contains characters outside `[A-Za-z0-9_.-]`.
    BadName(String),
    /// Unknown directive keyword.
    UnknownDirective(String),
    /// A numeric field did not parse as `u32`.
    BadInt(String),
    /// Expected `own`, `customer`, `peer` or `provider`.
    BadRelation(String),
    /// Unknown matcher keyword in an `import` rule.
    UnknownMatcher(String),
    /// Unknown action keyword in an `import` rule.
    UnknownAction(String),
    /// A required keyword (`match`, `then`, `to`, …) was missing.
    MissingToken(&'static str),
    /// The gate field was not `allow` or `deny`.
    BadGate(String),
    /// An `import` rule with no matchers before `then`.
    EmptyMatch,
    /// An `import` rule with no actions after `then`.
    EmptyActions,
    /// `any` combined with other matchers.
    AnyNotAlone,
    /// A comma list (`prefix`/`community`) with no members.
    EmptySet,
    /// The same `prefer <who>` line appeared twice.
    DuplicatePrefer(String),
    /// The same export gate was specified twice.
    DuplicateExport(String),
    /// A `prefer <who>` line never appeared.
    MissingPrefer(&'static str),
    /// An export gate was never specified.
    MissingExport(String),
    /// The regime mentions more than 64 distinct community values.
    TooManyCommunities(usize),
    /// Extra tokens after a complete directive.
    Trailing(String),
}

impl fmt::Display for PolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            PolErrorKind::MissingRegime => write!(f, "expected `regime <name>` header"),
            PolErrorKind::DuplicateRegime => write!(f, "duplicate `regime` header"),
            PolErrorKind::BadName(n) => write!(f, "bad regime name {n:?}"),
            PolErrorKind::UnknownDirective(d) => write!(f, "unknown directive {d:?}"),
            PolErrorKind::BadInt(t) => write!(f, "bad integer {t:?}"),
            PolErrorKind::BadRelation(t) => write!(f, "bad relation {t:?}"),
            PolErrorKind::UnknownMatcher(t) => write!(f, "unknown matcher {t:?}"),
            PolErrorKind::UnknownAction(t) => write!(f, "unknown action {t:?}"),
            PolErrorKind::MissingToken(t) => write!(f, "expected `{t}`"),
            PolErrorKind::BadGate(t) => write!(f, "expected `allow` or `deny`, got {t:?}"),
            PolErrorKind::EmptyMatch => write!(f, "import rule has no matchers"),
            PolErrorKind::EmptyActions => write!(f, "import rule has no actions"),
            PolErrorKind::AnyNotAlone => write!(f, "`any` must be the only matcher"),
            PolErrorKind::EmptySet => write!(f, "empty prefix/community list"),
            PolErrorKind::DuplicatePrefer(w) => write!(f, "duplicate `prefer {w}`"),
            PolErrorKind::DuplicateExport(g) => write!(f, "duplicate export gate `{g}`"),
            PolErrorKind::MissingPrefer(w) => write!(f, "missing `prefer {w}` line"),
            PolErrorKind::MissingExport(g) => write!(f, "missing export gate `{g}`"),
            PolErrorKind::TooManyCommunities(n) => {
                write!(f, "{n} distinct communities (at most 64 per regime)")
            }
            PolErrorKind::Trailing(t) => write!(f, "trailing tokens {t:?}"),
        }
    }
}

/// The learned-axis name: `own` for locally originated routes, else the
/// relation name.
fn learned_name(l: Option<Relation>) -> &'static str {
    match l {
        None => "own",
        Some(r) => rel_name(r),
    }
}

fn learned_from_name(s: &str) -> Option<Option<Relation>> {
    if s == "own" {
        return Some(None);
    }
    rel_from_name(s).map(Some)
}

fn fmt_list(values: &[u32]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    parts.join(",")
}

fn fmt_matcher(m: &Matcher) -> String {
    match m {
        Matcher::Any => "any".to_string(),
        Matcher::Prefix(set) => format!("prefix {}", fmt_list(set.values())),
        Matcher::Community(set) => format!("community {}", fmt_list(set.values())),
        Matcher::AsInPath(v) => format!("as-in-path {v}"),
        Matcher::LearnedFrom(rel) => format!("learned-from {}", rel_name(*rel)),
        Matcher::PathLongerThan(n) => format!("path-longer-than {n}"),
    }
}

fn fmt_action(a: &Action) -> String {
    match a {
        Action::SetLocalPref(p) => format!("set-local-pref {p}"),
        Action::AddCommunity(c) => format!("add-community {c}"),
        Action::StripCommunity(c) => format!("strip-community {c}"),
        Action::Reject => "reject".to_string(),
    }
}

impl PolicyRegime {
    /// Print the canonical `.pol` document (see the module docs for the
    /// fixed shape). `parse_pol` inverts this exactly.
    pub fn to_pol(&self) -> String {
        let mut out = format!("regime {}\nprefer origin {}\n", self.name, self.origin_pref);
        for rel in TO_RELS {
            let _ = writeln!(
                out,
                "prefer {} {}",
                rel_name(rel),
                self.rel_pref[rel_idx(rel)]
            );
        }
        for rule in &self.imports.rules {
            let matchers: Vec<String> = rule.matchers.iter().map(fmt_matcher).collect();
            let actions: Vec<String> = rule.actions.iter().map(fmt_action).collect();
            let (matchers, actions) = (matchers.join(" "), actions.join(" "));
            let _ = writeln!(out, "import match {matchers} then {actions}");
        }
        for learned in LEARNED_RELS {
            for to in TO_RELS {
                let gate = match self.export_allow[learned_idx(learned)][rel_idx(to)] {
                    true => "allow",
                    false => "deny",
                };
                let _ = writeln!(out, "export {} {gate}", gate_name(learned, to));
            }
        }
        for (c, rel) in &self.deny_communities {
            let _ = writeln!(out, "export deny-community {c} to {}", rel_name(*rel));
        }
        out
    }
}

impl fmt::Display for PolicyRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pol())
    }
}

/// A required token, or `MissingToken(what)`.
fn token<'a>(c: &mut Cursor<'a>, what: &'static str) -> Result<&'a str, PolErrorKind> {
    c.token().map_err(|_| PolErrorKind::MissingToken(what))
}

fn keyword(c: &mut Cursor<'_>, word: &'static str) -> Result<(), PolErrorKind> {
    c.keyword(word)
        .map_err(|_| PolErrorKind::MissingToken(word))
}

fn int(c: &mut Cursor<'_>, what: &'static str) -> Result<u32, PolErrorKind> {
    c.parse().map_err(|m| bad_int(m, what))
}

fn list(c: &mut Cursor<'_>, what: &'static str) -> Result<Vec<u32>, PolErrorKind> {
    let list = c.token().and_then(comma_list);
    list.map_err(|m| bad_int(m, what))
}

fn bad_int(m: Miss<'_>, what: &'static str) -> PolErrorKind {
    m.or(PolErrorKind::MissingToken(what), |t| match t {
        "" => PolErrorKind::EmptySet,
        t => PolErrorKind::BadInt(t.to_string()),
    })
}

fn relation(c: &mut Cursor<'_>) -> Result<Relation, PolErrorKind> {
    let r = token(c, "relation")?;
    rel_from_name(r).ok_or_else(|| PolErrorKind::BadRelation(r.to_string()))
}

/// The `match <matchers> then <actions>` tail of an `import` line.
fn parse_rule(c: &mut Cursor<'_>) -> Result<Rule, PolErrorKind> {
    keyword(c, "match")?;
    let mut matchers = Vec::new();
    loop {
        let m = match token(c, "then")? {
            "then" => break,
            "any" => Matcher::Any,
            "prefix" => Matcher::Prefix(PrefixSet::new(list(c, "prefix list")?)),
            "community" => Matcher::Community(CommunitySet::new(list(c, "community list")?)),
            "as-in-path" => Matcher::AsInPath(int(c, "AS id")?),
            "learned-from" => Matcher::LearnedFrom(relation(c)?),
            "path-longer-than" => Matcher::PathLongerThan(int(c, "length bound")?),
            other => return Err(PolErrorKind::UnknownMatcher(other.to_string())),
        };
        matchers.push(m);
    }
    if matchers.is_empty() {
        return Err(PolErrorKind::EmptyMatch);
    }
    if matchers.len() > 1 && matchers.contains(&Matcher::Any) {
        return Err(PolErrorKind::AnyNotAlone);
    }
    let mut actions = Vec::new();
    while let Some(tok) = c.next() {
        actions.push(match tok {
            "set-local-pref" => Action::SetLocalPref(int(c, "local pref")?),
            "add-community" => Action::AddCommunity(int(c, "community")?),
            "strip-community" => Action::StripCommunity(int(c, "community")?),
            "reject" => Action::Reject,
            other => return Err(PolErrorKind::UnknownAction(other.to_string())),
        });
    }
    if actions.is_empty() {
        return Err(PolErrorKind::EmptyActions);
    }
    Ok(Rule { matchers, actions })
}

/// What the directive lines of a document have said so far.
#[derive(Default)]
struct Draft {
    name: Option<String>,
    origin_pref: Option<u32>,
    rel_pref: [Option<u32>; 3],
    rules: Vec<Rule>,
    export_allow: [[Option<bool>; 3]; 4],
    denies: Vec<(u32, Relation)>,
}

impl Draft {
    /// Read one directive line into the draft.
    fn directive(&mut self, c: &mut Cursor<'_>) -> Result<(), PolErrorKind> {
        // The walker yields no blank lines, so there is a first token.
        let head = c.next().unwrap_or_default();
        if self.name.is_none() && head != "regime" {
            return Err(PolErrorKind::MissingRegime);
        }
        match head {
            "regime" => {
                if self.name.is_some() {
                    return Err(PolErrorKind::DuplicateRegime);
                }
                let n = token(c, "name")?;
                if !valid_name(n) {
                    return Err(PolErrorKind::BadName(n.to_string()));
                }
                self.name = Some(n.to_string());
            }
            "prefer" => {
                let who = token(c, "origin|relation")?;
                let pref = int(c, "preference")?;
                let slot = match who {
                    "origin" => &mut self.origin_pref,
                    _ => match rel_from_name(who) {
                        Some(rel) => &mut self.rel_pref[rel_idx(rel)],
                        None => return Err(PolErrorKind::BadRelation(who.to_string())),
                    },
                };
                if slot.replace(pref).is_some() {
                    return Err(PolErrorKind::DuplicatePrefer(who.to_string()));
                }
            }
            // A rule runs to the end of its line: nothing can trail it.
            "import" => self.rules.push(parse_rule(c)?),
            "export" => match token(c, "learned|deny-community")? {
                "deny-community" => {
                    let community = int(c, "community")?;
                    keyword(c, "to")?;
                    self.denies.push((community, relation(c)?));
                }
                learned => {
                    let learned = learned_from_name(learned)
                        .ok_or_else(|| PolErrorKind::BadRelation(learned.to_string()))?;
                    keyword(c, "to")?;
                    let to = relation(c)?;
                    let allow = match token(c, "allow|deny")? {
                        "allow" => true,
                        "deny" => false,
                        other => return Err(PolErrorKind::BadGate(other.to_string())),
                    };
                    let slot = &mut self.export_allow[learned_idx(learned)][rel_idx(to)];
                    if slot.replace(allow).is_some() {
                        return Err(PolErrorKind::DuplicateExport(gate_name(learned, to)));
                    }
                }
            },
            other => return Err(PolErrorKind::UnknownDirective(other.to_string())),
        }
        c.done().map_err(|t| PolErrorKind::Trailing(t.to_string()))
    }

    /// The regime the document describes, once every required line is in.
    fn finish(self) -> Result<PolicyRegime, PolErrorKind> {
        let name = self.name.ok_or(PolErrorKind::MissingRegime)?;
        let origin_pref = self
            .origin_pref
            .ok_or(PolErrorKind::MissingPrefer("origin"))?;
        let mut rel_pref = [0u32; 3];
        for rel in TO_RELS {
            rel_pref[rel_idx(rel)] =
                self.rel_pref[rel_idx(rel)].ok_or(PolErrorKind::MissingPrefer(rel_name(rel)))?;
        }
        let mut export_allow = [[false; 3]; 4];
        for learned in LEARNED_RELS {
            for to in TO_RELS {
                export_allow[learned_idx(learned)][rel_idx(to)] = self.export_allow
                    [learned_idx(learned)][rel_idx(to)]
                .ok_or_else(|| PolErrorKind::MissingExport(gate_name(learned, to)))?;
            }
        }
        let mut deny_communities = self.denies;
        deny_communities.sort_unstable_by_key(|(c, rel)| (*c, rel_idx(*rel)));
        deny_communities.dedup();
        let regime = PolicyRegime {
            name,
            origin_pref,
            rel_pref,
            imports: PolicyList { rules: self.rules },
            export_allow,
            deny_communities,
        };
        match regime_communities(&regime).len() {
            n if n > 64 => Err(PolErrorKind::TooManyCommunities(n)),
            _ => Ok(regime),
        }
    }
}

/// An export gate as the errors name it: `peer to provider`.
fn gate_name(learned: Option<Relation>, to: Relation) -> String {
    format!("{} to {}", learned_name(learned), rel_name(to))
}

/// Parse a `.pol` document. Strict: one `regime` header first, each
/// `prefer` line and each of the twelve export gates exactly once, at
/// most 64 distinct communities, no trailing tokens anywhere.
pub fn parse_pol(text: &str) -> Result<PolicyRegime, PolError> {
    let mut draft = Draft::default();
    for (line, mut c) in textfmt::lines(text) {
        draft
            .directive(&mut c)
            .map_err(|kind| PolError { line, kind })?;
    }
    // What the document as a whole never provided is reported at its end.
    let line = text.lines().count();
    draft.finish().map_err(|kind| PolError { line, kind })
}

/// Count the distinct community values a regime mentions anywhere —
/// matchers, actions and export denials. The compiler assigns each a bit
/// of [`crate::CommunityBits`], hence the 64 cap.
pub(crate) fn regime_communities(regime: &PolicyRegime) -> Vec<u32> {
    let mut vals = Vec::new();
    for rule in &regime.imports.rules {
        for m in &rule.matchers {
            if let Matcher::Community(set) = m {
                vals.extend_from_slice(set.values());
            }
        }
        for a in &rule.actions {
            match a {
                Action::AddCommunity(c) | Action::StripCommunity(c) => vals.push(*c),
                Action::SetLocalPref(_) | Action::Reject => {}
            }
        }
    }
    for (c, _) in &regime.deny_communities {
        vals.push(*c);
    }
    vals.sort_unstable();
    vals.dedup();
    vals
}

impl FromStr for PolicyRegime {
    type Err = PolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_pol(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_exactly() {
        for regime in PolicyRegime::builtins() {
            let text = regime.to_pol();
            let back = textfmt::assert_fixed_point(&text, parse_pol, PolicyRegime::to_pol);
            assert_eq!(back, regime, "value round-trip for {}", regime.name);
            assert_eq!(
                back.to_pol(),
                text,
                "canonical text is what the printer writes"
            );
        }
    }

    #[test]
    fn comments_blank_lines_and_order_are_tolerated() {
        let canonical = PolicyRegime::long_path_tax().to_pol();
        // Shuffle: move the deny lines right after the header, add noise.
        let mut lines: Vec<&str> = canonical.lines().collect();
        let denies: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("export deny-community"))
            .collect();
        lines.retain(|l| !l.starts_with("export deny-community"));
        let mut shuffled = vec![lines[0], "", "# a comment"];
        shuffled.extend(denies.iter().rev());
        shuffled.extend(&lines[1..]);
        shuffled.push("   # trailing comment line");
        let text = shuffled.join("\n");
        assert_eq!(parse_pol(&text).unwrap(), PolicyRegime::long_path_tax());
    }

    #[test]
    fn junk_is_rejected_with_typed_errors() {
        let cases: Vec<(&str, PolErrorKind)> = vec![
            ("", PolErrorKind::MissingRegime),
            ("prefer origin 10", PolErrorKind::MissingRegime),
            ("regime a\nregime b", PolErrorKind::DuplicateRegime),
            // "bad" is a valid name; "name!" trails.
            ("regime bad name!", PolErrorKind::Trailing("name!".into())),
            ("regime ok?", PolErrorKind::BadName("ok?".into())),
            (
                "regime a\nfrobnicate 1",
                PolErrorKind::UnknownDirective("frobnicate".into()),
            ),
            (
                "regime a\nprefer origin ten",
                PolErrorKind::BadInt("ten".into()),
            ),
            (
                "regime a\nprefer upstream 10",
                PolErrorKind::BadRelation("upstream".into()),
            ),
            (
                "regime a\nprefer origin 1\nprefer origin 2",
                PolErrorKind::DuplicatePrefer("origin".into()),
            ),
            (
                "regime a\nimport any then reject",
                PolErrorKind::MissingToken("match"),
            ),
            (
                "regime a\nimport match then reject",
                PolErrorKind::EmptyMatch,
            ),
            // Without `then`, the action keyword reads as a matcher.
            (
                "regime a\nimport match any reject",
                PolErrorKind::UnknownMatcher("reject".into()),
            ),
            (
                "regime a\nimport match any learned-from peer then reject",
                PolErrorKind::AnyNotAlone,
            ),
            (
                "regime a\nimport match any then",
                PolErrorKind::EmptyActions,
            ),
            (
                "regime a\nimport match glob 3 then reject",
                PolErrorKind::UnknownMatcher("glob".into()),
            ),
            (
                "regime a\nimport match any then explode",
                PolErrorKind::UnknownAction("explode".into()),
            ),
            (
                "regime a\nimport match prefix ,3 then reject",
                PolErrorKind::EmptySet,
            ),
            (
                "regime a\nexport own to peer maybe",
                PolErrorKind::BadGate("maybe".into()),
            ),
            (
                "regime a\nexport own to peer allow\nexport own to peer deny",
                PolErrorKind::DuplicateExport("own to peer".into()),
            ),
            (
                "regime a\nexport sideways to peer allow",
                PolErrorKind::BadRelation("sideways".into()),
            ),
            (
                "regime a\nexport deny-community 7 to origin",
                PolErrorKind::BadRelation("origin".into()),
            ),
            (
                "regime a\nexport own to peer allow extra",
                PolErrorKind::Trailing("extra".into()),
            ),
            ("regime a", PolErrorKind::MissingPrefer("origin")),
        ];
        for (text, want) in cases {
            let got = parse_pol(text).expect_err(text);
            assert_eq!(got.kind, want, "for {text:?}");
        }
        // A document missing one gate names it.
        let mut text = PolicyRegime::gao_rexford().to_pol();
        text = text.replace("export peer to provider deny\n", "");
        assert_eq!(
            parse_pol(&text).unwrap_err().kind,
            PolErrorKind::MissingExport("peer to provider".into())
        );
    }

    #[test]
    fn community_cap_is_enforced() {
        let mut text = PolicyRegime::gao_rexford().to_pol();
        for c in 0..65 {
            text.push_str(&format!("export deny-community {c} to peer\n"));
        }
        assert_eq!(
            parse_pol(&text).unwrap_err().kind,
            PolErrorKind::TooManyCommunities(65)
        );
    }

    #[test]
    fn errors_display_with_line_numbers() {
        let err = parse_pol("regime a\nbogus").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2: "));
    }
}
