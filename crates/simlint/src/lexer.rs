//! A hand-rolled Rust lexer, just deep enough for lint-rule matching.
//!
//! The token stream distinguishes identifiers, lifetimes, numbers, string
//! and char literals (including raw and byte forms), line and block
//! comments, and single-character punctuation. That is exactly the fidelity
//! the rules need: a `HashMap` mentioned in a doc comment or a format
//! string must never fire a determinism finding, a `'a` lifetime must not
//! be confused with a `char` literal, and `// simlint::allow(...)`
//! directives live in comment tokens the rules otherwise skip.
//!
//! The lexer never fails: unterminated literals or stray bytes degrade to
//! punctuation/`Str` tokens that end at end-of-file. A lint pass must not
//! panic on the code it audits.

/// What a token is. `Punct` carries its single byte; multi-byte operators
/// (`::`, `->`, `..`) appear as consecutive `Punct` tokens, which is all
/// the sequence-matching rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// A lifetime such as `'a` (including the quote).
    Lifetime,
    /// Integer or float literal, with suffix if directly attached.
    Num,
    /// String literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `// …` to end of line (doc comments `///`, `//!` included).
    LineComment,
    /// `/* … */`, nesting-aware (doc forms included).
    BlockComment,
    /// Any other single byte.
    Punct(u8),
}

/// One token: kind plus byte span and 1-based source line.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

impl Tok {
    /// The token's text. Returns `""` if the span is somehow not a char
    /// boundary — better an impossible empty match than a panic.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenize `src`. Total: every byte lands in exactly one token or in
/// inter-token whitespace.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    /// Advance one byte, counting newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    fn eat_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek(0).is_some_and(&keep) {
            self.bump();
        }
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        self.toks.push(Tok {
            kind,
            start,
            end: self.i,
            line,
        });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let start = self.i;
            let line = self.line;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => {
                    self.eat_while(|c| c != b'\n');
                    self.push(TokKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    while depth > 0 {
                        match (self.peek(0), self.peek(1)) {
                            (Some(b'/'), Some(b'*')) => {
                                depth += 1;
                                self.bump();
                                self.bump();
                            }
                            (Some(b'*'), Some(b'/')) => {
                                depth -= 1;
                                self.bump();
                                self.bump();
                            }
                            (Some(_), _) => self.bump(),
                            (None, _) => break,
                        }
                    }
                    self.push(TokKind::BlockComment, start, line);
                }
                b'r' | b'b' if self.raw_or_byte_literal() => {
                    // `raw_or_byte_literal` consumed the whole literal (or
                    // raw identifier) and pushed its token.
                }
                _ if is_ident_start(c) => {
                    self.eat_while(is_ident_continue);
                    self.push(TokKind::Ident, start, line);
                }
                _ if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokKind::Num, start, line);
                }
                b'"' => {
                    self.quoted(b'"');
                    self.push(TokKind::Str, start, line);
                }
                b'\'' => self.quote(start, line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), start, line);
                }
            }
        }
        self.toks
    }

    /// At `r` or `b`: raw strings (`r"`, `r#"`), byte strings (`b"`,
    /// `br#"`), byte chars (`b'x'`) and raw identifiers (`r#ident`).
    /// Returns false (consuming nothing) when this is a plain identifier
    /// starting with `r`/`b`.
    fn raw_or_byte_literal(&mut self) -> bool {
        let start = self.i;
        let line = self.line;
        let mut j = 1; // past the leading r/b
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r') {
            j = 2;
        }
        let mut hashes = 0usize;
        while self.peek(j + hashes) == Some(b'#') {
            hashes += 1;
        }
        match self.peek(j + hashes) {
            Some(b'"') => {
                for _ in 0..j + hashes {
                    self.bump();
                }
                // Raw form (an `r` in the prefix): no escapes, ends at
                // `"` + the right number of `#`s. Plain `b"`: honors
                // backslash escapes like an ordinary string.
                if self.b.get(start) == Some(&b'r') || j == 2 {
                    self.bump(); // opening quote
                    loop {
                        match self.peek(0) {
                            None => break,
                            Some(b'"') => {
                                let mut ok = true;
                                for h in 0..hashes {
                                    if self.peek(1 + h) != Some(b'#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                self.bump();
                                if ok {
                                    for _ in 0..hashes {
                                        self.bump();
                                    }
                                    break;
                                }
                            }
                            Some(_) => self.bump(),
                        }
                    }
                } else {
                    self.quoted(b'"');
                }
                self.push(TokKind::Str, start, line);
                true
            }
            Some(b'\'') if j == 1 && hashes == 0 && self.peek(0) == Some(b'b') => {
                self.bump(); // b
                self.quoted(b'\'');
                self.push(TokKind::Char, start, line);
                true
            }
            Some(c) if hashes == 1 && j == 1 && is_ident_start(c) => {
                // Raw identifier `r#ident`.
                self.bump(); // r
                self.bump(); // #
                self.eat_while(is_ident_continue);
                self.push(TokKind::Ident, start, line);
                true
            }
            _ => false,
        }
    }

    /// Consume a `"…"` or `'…'` body from its opening quote through
    /// `close`, honoring `\` escapes.
    fn quoted(&mut self, close: u8) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(c) if c == close => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
    }

    /// At `'`: lifetime (`'a`) or char literal (`'a'`, `'\n'`).
    fn quote(&mut self, start: usize, line: u32) {
        // A lifetime is `'` + identifier not followed by another `'`.
        if let Some(c) = self.peek(1) {
            if is_ident_start(c) {
                let mut j = 2;
                while self.peek(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                if self.peek(j) != Some(b'\'') {
                    for _ in 0..j {
                        self.bump();
                    }
                    self.push(TokKind::Lifetime, start, line);
                    return;
                }
            }
        }
        self.quoted(b'\'');
        self.push(TokKind::Char, start, line);
    }

    /// Consume a numeric literal: digits, `_`, type suffixes, hex/oct/bin
    /// letters, a single fractional point, exponent signs.
    fn number(&mut self) {
        let mut seen_dot = false;
        loop {
            match self.peek(0) {
                Some(c) if is_ident_continue(c) => self.bump(),
                Some(b'.') if !seen_dot && self.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                    seen_dot = true;
                    self.bump();
                }
                Some(b'+') | Some(b'-')
                    if self
                        .b
                        .get(self.i.wrapping_sub(1))
                        .is_some_and(|p| *p == b'e' || *p == b'E')
                        && self.peek(1).is_some_and(|d| d.is_ascii_digit()) =>
                {
                    self.bump();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("let m = a[i];");
        assert_eq!(ts[0], (TokKind::Ident, "let".into()));
        assert_eq!(ts[2], (TokKind::Punct(b'='), "=".into()));
        assert_eq!(ts[4], (TokKind::Punct(b'['), "[".into()));
    }

    #[test]
    fn comments_swallow_code_patterns() {
        let ts = kinds("x // HashMap::new()\ny /* .unwrap() */ z");
        let idents: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(idents, ["x", "y", "z"]);
        assert!(ts.iter().any(|(k, _)| *k == TokKind::LineComment));
        assert!(ts.iter().any(|(k, _)| *k == TokKind::BlockComment));
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("/* a /* b */ c */ after");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1], (TokKind::Ident, "after".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let ts = kinds(r#"let s = "HashMap // not a comment"; t"#);
        assert!(ts
            .iter()
            .all(|(k, s)| *k != TokKind::Ident || s != "HashMap"));
        assert!(ts.iter().any(|(k, _)| *k == TokKind::Str));
        // The quote inside an escape does not end the string.
        let ts = kinds(r#""a\"b" x"#);
        assert_eq!(ts[0].0, TokKind::Str);
        assert_eq!(ts[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn raw_strings_ignore_escapes_and_quotes() {
        let src = r###"let s = r#"say "hi" \"#; done"###;
        let ts = kinds(src);
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokKind::Str && s.contains("hi")));
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "done"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = ts.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = ts.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn byte_literals() {
        let ts = kinds(r##"let a = b'x'; let s = b"y\"z"; let r = br#"w"#; end"##);
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Char && s == "b'x'"));
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert!(ts.iter().any(|(k, s)| *k == TokKind::Ident && s == "end"));
    }

    #[test]
    fn raw_identifiers() {
        let ts = kinds("let r#type = 1;");
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "r#type"));
    }

    #[test]
    fn numbers_with_ranges_and_floats() {
        let ts = kinds("0..n 1.5e-3 0xFFu32");
        let nums: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(nums, ["0", "1.5e-3", "0xFFu32"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = "a\nb\n  c";
        let ts = lex(src);
        let lines: Vec<u32> = ts.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "'", "/* open", "b'"] {
            let _ = lex(src);
        }
    }
}
