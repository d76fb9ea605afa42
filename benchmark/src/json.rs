//! A small JSON value with an emitter and a parser — the benchmark has no
//! registry dependencies, and it must both print its result lines and
//! read them back (`compare`, `BENCHMARK.json`).

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so emitted documents read in the order the code
    /// built them.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builder-style insert on an object (panics on a non-object: that is
    /// a bug in this program, not an input condition).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => {
                let value = value.into();
                match fields.iter_mut().find(|(k, _)| k == key) {
                    Some(slot) => slot.1 = value,
                    None => fields.push((key.to_string(), value)),
                }
            }
            other => panic!("Json::set on a non-object: {other:?}"),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at the end of a path of object keys.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The number at `path`; NaN when absent — for reports, which print
    /// what a document holds and must not stop at a hole in it.
    pub fn num_at(&self, path: &[&str]) -> f64 {
        self.at(path).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// The string at `path`; `"?"` when absent.
    pub fn str_at(&self, path: &[&str]) -> &str {
        self.at(path).and_then(Json::as_str).unwrap_or("?")
    }

    /// The array at `path`; empty when absent.
    pub fn arr_at(&self, path: &[&str]) -> &[Json] {
        self.at(path).and_then(Json::as_arr).unwrap_or(&[])
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

impl From<f64> for Json {
    /// Non-finite numbers have no JSON spelling: they emit as `null`,
    /// which is also how "not measured" is written (a parallel efficiency
    /// on one core).
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }
}

impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::from)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}

impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}

impl From<Vec<Json>> for Json {
    fn from(x: Vec<Json>) -> Json {
        Json::Arr(x)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact, single-line form (a result line must be one line).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust's shortest round-trip form keeps every measured digit;
            // whole numbers print without a fraction.
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Nesting bound: the parser reads files named on the command line.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.s.get(self.i) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut xs = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(xs));
                }
                loop {
                    self.ws();
                    xs.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(xs));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.i));
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    self.ws();
                    fields.push((k, self.value(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out: Vec<u8> = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs are not needed by anything
                            // this program writes; map them to U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_one_line_and_round_trips() {
        let doc = Json::obj()
            .with("correct", true)
            .with("attempted", 1000u64)
            .with("failed", 0u64)
            .with(
                "metrics",
                Json::obj().with(
                    "latency_ms",
                    Json::obj().with("value", 1.2034).with("unit", "ms"),
                ),
            )
            .with("note", "a \"quoted\"\nline")
            .with("none", Json::Null)
            .with("list", vec![Json::Num(1.0), Json::Num(2.5)]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "{text}");
        assert!(
            text.starts_with(r#"{"correct": true, "attempted": 1000, "failed": 0, "#),
            "{text}"
        );
        assert!(text.contains(r#""value": 1.2034"#), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_numbers_emit_as_null() {
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f64::INFINITY), Json::Null);
        assert_eq!(Json::from(None::<f64>), Json::Null);
        assert_eq!(Json::from(Some(0.5)).to_string(), "0.5");
    }

    #[test]
    fn parses_pretty_documents_and_rejects_junk() {
        let v = Json::parse("{\n  \"a\": [1, 2e3, -0.5],\n  \"b\": {\"c\": null}\n}\n").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(2000.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse(&"[".repeat(1000)).is_err());
    }

    #[test]
    fn set_replaces_an_existing_key() {
        let mut o = Json::obj().with("k", 1u64);
        o.set("k", 2u64);
        assert_eq!(o.fields().len(), 1);
        assert_eq!(o.get("k").unwrap().as_f64(), Some(2.0));
    }
}
