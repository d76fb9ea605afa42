//! The one text kit: every line-oriented surface of the workspace — `.scn`
//! timelines, `.pol` regimes, queryd requests and response frames, and the
//! binaries' argv — is tokenized here and nowhere else (ci.sh holds
//! `split_ascii_whitespace(` to this file).
//!
//! The kit owns *lexing*; each grammar keeps its own typed error. A
//! [`Cursor`] reports only that a token was missing ([`Miss::End`]) or was
//! not what the caller asked for ([`Miss::Bad`]), and the grammar maps
//! that into `ScnErrorKind`, `PolErrorKind`, `RequestError` or
//! `ResponseParseError` with [`Miss::or`].
//!
//! Tokens split on ASCII whitespace only: a U+00A0 or U+3000 is part of
//! the token it sits in, so it reaches the grammar and fails there as a
//! typed error instead of silently separating words.

use std::fmt::{Debug, Display};
use std::str::FromStr;

/// The name charset of every format: `[A-Za-z0-9_.-]`. Scenario and regime
/// names, CLI tokens and file stems are drawn from it, and `Timeline`'s
/// name sanitizer is written in terms of it: printable ≡ parseable.
pub fn name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// Is `name` printable unambiguously as one token (non-empty, every
/// character a [`name_char`])?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(name_char)
}

/// Why a [`Cursor`] could not hand over what it was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss<'a> {
    /// The line ended where a token was required.
    End,
    /// This token was there, but is not the keyword, number or `key=`
    /// field the caller asked for.
    Bad(&'a str),
}

impl<'a> Miss<'a> {
    /// Map the miss into a grammar's own error: `end` for a missing
    /// token, `bad(token)` for a wrong one.
    pub fn or<E>(self, end: E, bad: impl FnOnce(&'a str) -> E) -> E {
        match self {
            Miss::End => end,
            Miss::Bad(t) => bad(t),
        }
    }
}

/// A borrowed cursor over the ASCII-whitespace-separated tokens of one
/// line; also their `Iterator`, so `next` and `collect` are the std ones.
#[derive(Debug, Clone, Default)]
pub struct Cursor<'a> {
    /// The unread remainder; never starts with ASCII whitespace.
    rest: &'a str,
}

impl<'a> Iterator for Cursor<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let tok = self.peek()?;
        // `rest` starts with `tok`: leading whitespace is always trimmed.
        self.rest = self
            .rest
            .strip_prefix(tok)
            .unwrap_or_default()
            .trim_ascii_start();
        Some(tok)
    }
}

impl<'a> Cursor<'a> {
    pub fn new(line: &'a str) -> Cursor<'a> {
        Cursor {
            rest: line.trim_ascii_start(),
        }
    }

    /// The next token, not consumed.
    pub fn peek(&self) -> Option<&'a str> {
        self.rest.split_ascii_whitespace().next()
    }

    /// The next token, required.
    pub fn token(&mut self) -> Result<&'a str, Miss<'a>> {
        self.next().ok_or(Miss::End)
    }

    /// The next token must be exactly `word`.
    pub fn keyword(&mut self, word: &str) -> Result<(), Miss<'a>> {
        match self.token()? {
            t if t == word => Ok(()),
            t => Err(Miss::Bad(t)),
        }
    }

    /// The next token, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, Miss<'a>> {
        let t = self.token()?;
        t.parse().map_err(|_| Miss::Bad(t))
    }

    /// The next token must be `key=<value>`; returns the value.
    pub fn field(&mut self, key: &str) -> Result<&'a str, Miss<'a>> {
        let t = self.token()?;
        t.strip_prefix(key)
            .and_then(|v| v.strip_prefix('='))
            .ok_or(Miss::Bad(t))
    }

    /// Everything not yet read, verbatim, leaving the cursor empty — for a
    /// field that rides to the end of its line.
    pub fn rest(&mut self) -> &'a str {
        std::mem::take(&mut self.rest)
    }

    /// The line must be used up; otherwise the first unread token.
    pub fn done(&self) -> Result<(), &'a str> {
        self.peek().map_or(Ok(()), Err)
    }
}

/// Split `tok` on commas and parse every member; an empty member is
/// `Miss::Bad("")`, an unparsable one `Miss::Bad(member)`.
pub fn comma_list<T: FromStr>(tok: &str) -> Result<Vec<T>, Miss<'_>> {
    tok.split(',')
        .map(|part| part.parse().map_err(|_| Miss::Bad(part)))
        .collect()
}

/// The significant lines of a document: text from a `#` to the end of its
/// line is a comment, surrounding whitespace is trimmed, blank lines are
/// skipped. Yields each remaining line's 1-based number and a cursor over
/// its tokens.
pub fn lines(text: &str) -> impl Iterator<Item = (usize, Cursor<'_>)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let code = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
        (!code.is_empty()).then(|| (i + 1, Cursor::new(code)))
    })
}

/// argv, joined into one line and tokenized by the same [`Cursor`] (an
/// argument containing whitespace reads as several), then read by flag
/// name: a binary pulls exactly the flags it reads, in any order, and
/// [`Args::done`] turns whatever is left into the unknown-flag error.
#[derive(Debug)]
pub struct Args<'a> {
    toks: Vec<&'a str>,
}

impl<'a> Args<'a> {
    pub fn new(line: &'a str) -> Args<'a> {
        Args {
            toks: Cursor::new(line).collect(),
        }
    }

    /// Take the leading token if it is not a flag (a sub-command name).
    pub fn positional(&mut self) -> Option<&'a str> {
        let first = *self.toks.first()?;
        (!first.starts_with('-')).then(|| self.toks.remove(0))
    }

    /// Take the boolean flag `name` if present.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.toks.iter().position(|t| *t == name);
        at.map(|i| self.toks.remove(i)).is_some()
    }

    /// Take `name <value>` if present (the first occurrence; call again
    /// for a repeatable flag).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.toks.iter().position(|t| *t == name) else {
            return Ok(None);
        };
        self.toks.remove(i);
        if i >= self.toks.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = self.toks.remove(i);
        v.parse()
            .map(Some)
            .map_err(|_| format!("bad value {v:?} for {name}"))
    }

    /// Take `name <a,b,c>` if present: a comma list of `T`.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Result<Option<Vec<T>>, String> {
        let Some(list) = self.value::<String>(name)? else {
            return Ok(None);
        };
        let list = comma_list(&list).map(Some);
        list.map_err(|m| format!("bad value {:?} for {name}", m.or("", |t| t)))
    }

    /// Every flag the binary reads has been taken; anything left is one it
    /// does not.
    pub fn done(&self) -> Result<(), String> {
        match self.toks.first() {
            None => Ok(()),
            Some(t) => Err(format!("unknown flag {t}")),
        }
    }
}

/// The round-trip discipline of every text surface, as a test assertion:
/// `text` parses; the value prints; that print parses back to an equal
/// value and prints to the same bytes — a fixed point of parse∘print.
/// Returns the value, for the caller to compare with what printed `text`.
pub fn assert_fixed_point<T: PartialEq + Debug, E: Display>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
    print: impl Fn(&T) -> String,
) -> T {
    let must = |what: &str, doc: &str| match parse(doc) {
        Ok(v) => v,
        // simlint::allow(panic, "a test assertion: failing loudly is its whole job")
        Err(e) => panic!("{what} does not parse: {e}\n{doc}"),
    };
    let value = must("the document", text);
    let printed = print(&value);
    let back = must("the printed form", &printed);
    assert_eq!(back, value, "re-parsing the print changed the value");
    assert_eq!(print(&back), printed, "print is not a fixed point");
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_walks_tokens_and_reports_misses() {
        let mut c = Cursor::new("  at 5s\tfail-link 3 x dest=4 hops=7,,4 tail  text ");
        assert_eq!(c.peek(), Some("at"));
        assert_eq!(c.keyword("at"), Ok(()));
        assert_eq!(c.keyword("at"), Err(Miss::Bad("5s")));
        assert_eq!(c.token(), Ok("fail-link"));
        assert_eq!(c.parse::<u32>(), Ok(3));
        assert_eq!(c.parse::<u32>(), Err(Miss::Bad("x")));
        assert_eq!(c.field("dest").map(comma_list::<u32>), Ok(Ok(vec![4])));
        assert_eq!(
            c.field("hops").map(comma_list::<u32>),
            Ok(Err(Miss::Bad("")))
        );
        assert_eq!(c.done(), Err("tail"));
        assert_eq!(c.field("tail"), Err(Miss::Bad("tail")));
        assert_eq!(c.rest(), "text ");
        assert_eq!(
            (c.done(), c.token(), c.parse::<u32>()),
            (Ok(()), Err(Miss::End), Err(Miss::End))
        );
        assert_eq!(comma_list::<u32>("1,b"), Err(Miss::Bad("b")));
        assert_eq!(
            (Miss::Bad("b").or(0, str::len), Miss::End.or(0, str::len)),
            (1, 0)
        );
        // Only ASCII whitespace separates tokens.
        let toks: Vec<&str> = Cursor::new("a\u{a0}b c\u{3000}d").collect();
        assert_eq!(toks, ["a\u{a0}b", "c\u{3000}d"]);
        assert!(
            valid_name("flap-4.2_b") && !valid_name("") && !valid_name("a b") && !valid_name("é")
        );
    }

    #[test]
    fn line_walker_strips_comments_and_numbers_from_one() {
        let doc = "# header\n\n  scenario x  # name\nat 0s fail-node 1\n   \n#\nlast";
        let got: Vec<(usize, Vec<&str>)> = lines(doc).map(|(n, c)| (n, c.collect())).collect();
        let want = [
            (3, vec!["scenario", "x"]),
            (4, vec!["at", "0s", "fail-node", "1"]),
            (7, vec!["last"]),
        ];
        assert_eq!(got, want);
        assert_eq!(lines("").count(), 0);
    }

    #[test]
    fn args_are_pulled_by_name_and_leftovers_are_unknown() {
        let mut a = Args::new("fig2 --seed 9 --smoke --scn a.scn --ases 200 --scn b.scn");
        assert_eq!((a.positional(), a.positional()), (Some("fig2"), None));
        assert_eq!(a.value::<usize>("--ases"), Ok(Some(200)));
        assert_eq!(a.value::<usize>("--ases"), Ok(None));
        assert!(a.flag("--smoke") && !a.flag("--smoke"));
        assert_eq!(Args::new("--n 1,2").list::<u8>("--n"), Ok(Some(vec![1, 2])));
        assert!(Args::new("--n 1,x").list::<u8>("--n").is_err());
        assert_eq!(a.value::<String>("--scn"), Ok(Some("a.scn".to_string())));
        assert_eq!(a.done(), Err("unknown flag --seed".to_string()));
        assert_eq!(a.value::<u64>("--seed"), Ok(Some(9)));
        assert_eq!(a.value::<String>("--scn"), Ok(Some("b.scn".to_string())));
        assert_eq!(a.done(), Ok(()));
        let mut a = Args::new("--seed x --ases");
        assert!(a.value::<u64>("--seed").is_err());
        assert_eq!(
            a.value::<usize>("--ases"),
            Err("--ases needs a value".to_string())
        );
    }

    #[test]
    fn fixed_point_helper_accepts_a_round_trip_and_rejects_drift() {
        let parse = |s: &str| s.trim().parse::<u32>();
        assert_eq!(assert_fixed_point(" 007 ", parse, u32::to_string), 7);
        let drift = || assert_fixed_point("7", parse, |v| (v + 1).to_string());
        assert!(std::panic::catch_unwind(drift).is_err());
        let unparsable = || assert_fixed_point("x", parse, u32::to_string);
        assert!(std::panic::catch_unwind(unparsable).is_err());
    }
}
