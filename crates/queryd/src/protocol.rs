//! The queryd wire protocol: typed requests and responses over a
//! line-oriented plain-text format with an exact parse/format round-trip.
//!
//! Requests are one line each (keywords case-insensitive on parse,
//! upper-case canonical; AS ids are the dense `u32` values, protocols the
//! registry's primary lower-case alias):
//!
//! ```text
//! WHATIF FAIL-LINK <a> <b> [PROTO <p>] [DEST <d>] [POLICY <r>]
//! WHATIF DRAIN-NODE <v> [PROTO <p>] [DEST <d>] [POLICY <r>]
//! WHATIF SCN [PROTO <p>] [DEST <d>] [POLICY <r>] <inline .scn, lines joined by "; ">
//! SHOW BASELINES
//! SHOW CACHE
//! SHOW POLICIES
//! SHOW ROUTE <dest> FROM <from> [EXPLAIN]
//! SHOW DISJOINTNESS <dest>
//! QUIT
//! ```
//!
//! Responses are a header line, zero or more body rows of space-separated
//! `key=value` fields in a fixed order, and a closing `END` line — so a
//! client can frame a response without knowing its kind. `EXPLAIN` answers
//! why `<from>` selects what it selects: one `candidate` row per stored
//! route and process, its verdict `won` or the first decision criterion
//! it lost on (`stamp_workload::Criterion`). Floats print via
//! Rust's shortest-round-trip `Display`, which is why format→parse→format
//! is byte-identical (the same guarantee the `.scn` DSL makes, proven by
//! the property suite in `tests/queryd.rs`).

use stamp_eventsim::textfmt::{comma_list, Cursor};
use stamp_eventsim::SimDuration;
use stamp_topology::AsId;
use stamp_workload::{
    parse_scn, CacheStats, Criterion, InstanceMetrics, Protocol, RunOutcome, ScnError, Timeline,
};
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Longest request line the daemon will parse. Anything longer answers
/// `ERR code=too-large` without ever reaching the tokenizer — the cap is
/// the first check in [`Request::from_str`], so every entry point (stdin,
/// TCP, embedding) inherits it.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Most events an inline `WHATIF SCN` timeline may carry. Each event costs
/// a full engine phase at query time; an unbounded inline scenario is a
/// resource-exhaustion vector, not a bigger question.
pub const MAX_SCN_EVENTS: usize = 64;

/// The wire token of a [`RunOutcome`] discriminant.
fn outcome_token(o: RunOutcome) -> &'static str {
    match o {
        RunOutcome::Converged => "converged",
        RunOutcome::Diverged { .. } => "diverged",
        RunOutcome::BudgetExhausted => "budget-exhausted",
    }
}

/// The canonical wire token of a protocol: its first alias
/// (lower-case, no spaces — labels like "R-BGP without RCI" would not
/// survive whitespace tokenization).
pub fn proto_token(p: Protocol) -> &'static str {
    p.aliases().first().copied().unwrap_or_default()
}

/// The failure shape of a `WHATIF` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhatIfShape {
    /// `FAIL-LINK a b`: the link fails at the epoch and stays down.
    FailLink(AsId, AsId),
    /// `DRAIN-NODE v`: the node fails at the epoch and restores 60 s
    /// later.
    DrainNode(AsId),
    /// `SCN …`: an arbitrary inline `.scn` timeline.
    Scn(Timeline),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Play a failure shape against the resident baselines and report the
    /// paper's disruption metrics. `proto`/`dest` narrow the fan-out;
    /// omitted, the query runs every served protocol/destination.
    WhatIf {
        shape: WhatIfShape,
        proto: Option<Protocol>,
        dest: Option<AsId>,
        /// Run the query under this policy regime instead of the daemon's
        /// default. Named cells cold-converge on first use and deposit
        /// their baselines under the regime's own cache fingerprint.
        policy: Option<String>,
    },
    /// List the resident converged baselines.
    ShowBaselines,
    /// Report the baseline cache's occupancy and hit/miss counters.
    ShowCache,
    /// List the named policy regimes a `WHATIF … POLICY` can use.
    ShowPolicies,
    /// The selected AS path(s) from `from` towards `dest`, per protocol.
    ShowRoute { dest: AsId, from: AsId },
    /// Why `from` selects what it selects towards `dest`: every stored
    /// route of every process, per protocol, with its verdict.
    ExplainRoute { dest: AsId, from: AsId },
    /// Topology-level disjointness of `dest`'s uphill paths.
    ShowDisjointness { dest: AsId },
    /// Close the session (the server answers `BYE` and stops reading).
    Quit,
}

/// Typed rejection of a request line (queryd's junk-rejection contract:
/// every malformed line maps to one of these, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line had no tokens.
    Empty,
    /// The first word was not `WHATIF`/`SHOW`/`QUIT`.
    UnknownCommand(String),
    /// `SHOW` was followed by an unknown subject.
    UnknownShow(String),
    /// `WHATIF` was followed by an unknown shape.
    UnknownWhatIf(String),
    /// A required argument was missing.
    MissingArg(&'static str),
    /// An AS id argument was not a `u32`.
    BadAsId(String),
    /// A `PROTO` value matched no registry label or alias.
    BadProtocol(String),
    /// The inline `.scn` body of `WHATIF SCN` failed to parse.
    BadScn(ScnError),
    /// Unexpected tokens after a complete request.
    Trailing(String),
    /// The request exceeded a hard input bound ([`MAX_REQUEST_LINE`] or
    /// [`MAX_SCN_EVENTS`]); answers with `code=too-large`, not `parse`.
    TooLarge {
        what: &'static str,
        actual: usize,
        limit: usize,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Empty => write!(f, "empty request"),
            RequestError::UnknownCommand(w) => {
                write!(f, "unknown command {w:?} (want WHATIF, SHOW or QUIT)")
            }
            RequestError::UnknownShow(w) => write!(
                f,
                "unknown SHOW subject {w:?} (want BASELINES, CACHE, POLICIES, ROUTE or DISJOINTNESS)"
            ),
            RequestError::UnknownWhatIf(w) => write!(
                f,
                "unknown WHATIF shape {w:?} (want FAIL-LINK, DRAIN-NODE or SCN)"
            ),
            RequestError::MissingArg(what) => write!(f, "missing argument: {what}"),
            RequestError::BadAsId(t) => write!(f, "bad AS id {t:?} (want a u32)"),
            RequestError::BadProtocol(t) => write!(f, "bad protocol {t:?}"),
            RequestError::BadScn(e) => write!(f, "bad inline scenario: {e}"),
            RequestError::Trailing(t) => write!(f, "unexpected trailing input {t:?}"),
            RequestError::TooLarge {
                what,
                actual,
                limit,
            } => write!(f, "{what} too large: {actual} exceeds the limit of {limit}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl RequestError {
    /// `actual` is within `limit`, or the `TooLarge` refusal naming `what`.
    pub(crate) fn bound(what: &'static str, actual: usize, limit: usize) -> Result<(), Self> {
        if actual <= limit {
            return Ok(());
        }
        Err(RequestError::TooLarge {
            what,
            actual,
            limit,
        })
    }

    /// The wire form: every parse failure answers as an `ERR` response.
    /// Oversize input gets its own code so clients can tell "rejected by
    /// policy" from "malformed".
    pub fn to_response(&self) -> Response {
        let code = match self {
            RequestError::TooLarge { .. } => "too-large",
            _ => "parse",
        };
        Response::Error {
            code: code.to_string(),
            message: self.to_string(),
        }
    }
}

/// A timeline as a single-line `.scn`: lines joined by `"; "` (the name
/// charset excludes `;`, so the joint is unambiguous).
fn inline_scn(t: &Timeline) -> String {
    let s = t.to_scn();
    s.trim_end_matches('\n').replace('\n', "; ")
}

fn parse_inline_scn(body: &str) -> Result<Timeline, RequestError> {
    if body.is_empty() {
        return Err(RequestError::MissingArg("inline .scn timeline"));
    }
    let lines: Vec<&str> = body.split(';').map(str::trim).collect();
    let t = parse_scn(&lines.join("\n")).map_err(RequestError::BadScn)?;
    RequestError::bound("inline .scn event count", t.events().len(), MAX_SCN_EVENTS)?;
    Ok(t)
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (shape, proto, dest, policy) = match self {
            Request::WhatIf {
                shape,
                proto,
                dest,
                policy,
            } => (shape, proto, dest, policy),
            Request::ShowBaselines => return write!(f, "SHOW BASELINES"),
            Request::ShowCache => return write!(f, "SHOW CACHE"),
            Request::ShowPolicies => return write!(f, "SHOW POLICIES"),
            Request::ShowRoute { dest, from } => {
                return write!(f, "SHOW ROUTE {} FROM {}", dest.0, from.0)
            }
            Request::ExplainRoute { dest, from } => {
                return write!(f, "SHOW ROUTE {} FROM {} EXPLAIN", dest.0, from.0)
            }
            Request::ShowDisjointness { dest } => return write!(f, "SHOW DISJOINTNESS {}", dest.0),
            Request::Quit => return write!(f, "QUIT"),
        };
        match shape {
            WhatIfShape::FailLink(a, b) => write!(f, "WHATIF FAIL-LINK {} {}", a.0, b.0)?,
            WhatIfShape::DrainNode(v) => write!(f, "WHATIF DRAIN-NODE {}", v.0)?,
            WhatIfShape::Scn(_) => write!(f, "WHATIF SCN")?,
        }
        if let Some(p) = proto {
            write!(f, " PROTO {}", proto_token(*p))?;
        }
        if let Some(d) = dest {
            write!(f, " DEST {}", d.0)?;
        }
        if let Some(r) = policy {
            write!(f, " POLICY {r}")?;
        }
        // The one shape whose arguments follow the options: the timeline
        // rides to the end of the line.
        match shape {
            WhatIfShape::Scn(t) => write!(f, " {}", inline_scn(t)),
            _ => Ok(()),
        }
    }
}

/// A required token, or `MissingArg(what)`.
fn word<'a>(c: &mut Cursor<'a>, what: &'static str) -> Result<&'a str, RequestError> {
    c.token().map_err(|_| RequestError::MissingArg(what))
}

fn as_id(c: &mut Cursor<'_>, what: &'static str) -> Result<AsId, RequestError> {
    let t = word(c, what)?;
    let id = t.parse().map(AsId);
    id.map_err(|_| RequestError::BadAsId(t.to_string()))
}

fn parse_whatif(c: &mut Cursor<'_>) -> Result<Request, RequestError> {
    let args = match word(c, "WHATIF shape")?.to_ascii_uppercase().as_str() {
        "FAIL-LINK" => Some(WhatIfShape::FailLink(
            as_id(c, "FAIL-LINK endpoint a")?,
            as_id(c, "FAIL-LINK endpoint b")?,
        )),
        "DRAIN-NODE" => Some(WhatIfShape::DrainNode(as_id(c, "DRAIN-NODE node")?)),
        "SCN" => None,
        other => return Err(RequestError::UnknownWhatIf(other.to_string())),
    };
    // `PROTO <p>` / `DEST <d>` / `POLICY <r>`: each at most once, any
    // order, up to the first token that is not one.
    let (mut proto, mut dest, mut policy) = (None, None, None);
    while let Some(option) = c.peek().map(str::to_ascii_uppercase) {
        match option.as_str() {
            "PROTO" if proto.is_none() => {
                c.next();
                let t = word(c, "PROTO value")?;
                let p = t.parse::<Protocol>();
                proto = Some(p.map_err(|_| RequestError::BadProtocol(t.to_string()))?);
            }
            "DEST" if dest.is_none() => {
                c.next();
                dest = Some(as_id(c, "DEST value")?);
            }
            "POLICY" if policy.is_none() => {
                c.next();
                policy = Some(word(c, "POLICY value")?.to_string());
            }
            _ => break,
        }
    }
    let shape = match args {
        Some(shape) => shape,
        None => WhatIfShape::Scn(parse_inline_scn(c.rest())?),
    };
    Ok(Request::WhatIf {
        shape,
        proto,
        dest,
        policy,
    })
}

fn parse_show(c: &mut Cursor<'_>) -> Result<Request, RequestError> {
    Ok(
        match word(c, "SHOW subject")?.to_ascii_uppercase().as_str() {
            "BASELINES" => Request::ShowBaselines,
            "CACHE" => Request::ShowCache,
            "POLICIES" => Request::ShowPolicies,
            "ROUTE" => {
                let dest = as_id(c, "ROUTE destination")?;
                if !c.next().is_some_and(|t| t.eq_ignore_ascii_case("FROM")) {
                    return Err(RequestError::MissingArg("FROM keyword"));
                }
                let from = as_id(c, "ROUTE source")?;
                match c.peek().is_some_and(|t| t.eq_ignore_ascii_case("EXPLAIN")) {
                    true => {
                        c.next();
                        Request::ExplainRoute { dest, from }
                    }
                    false => Request::ShowRoute { dest, from },
                }
            }
            "DISJOINTNESS" => Request::ShowDisjointness {
                dest: as_id(c, "DISJOINTNESS destination")?,
            },
            other => return Err(RequestError::UnknownShow(other.to_string())),
        },
    )
}

impl FromStr for Request {
    type Err = RequestError;

    fn from_str(s: &str) -> Result<Request, RequestError> {
        RequestError::bound("request line", s.len(), MAX_REQUEST_LINE)?;
        let mut c = Cursor::new(s);
        // Keywords are case-insensitive; errors quote the canonical upper case.
        let head = c.next().ok_or(RequestError::Empty)?.to_ascii_uppercase();
        let request = match head.as_str() {
            "WHATIF" => parse_whatif(&mut c)?,
            "SHOW" => parse_show(&mut c)?,
            "QUIT" => Request::Quit,
            other => return Err(RequestError::UnknownCommand(other.to_string())),
        };
        // One trailing check for every request shape.
        match c.done() {
            Ok(()) => Ok(request),
            Err(_) => Err(RequestError::Trailing(c.collect::<Vec<_>>().join(" "))),
        }
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One `(dest, protocol)` row of a `WHATIF` answer. `metrics` is exactly
/// the [`InstanceMetrics`] of the matching campaign cell (the bit-identity
/// contract), `unreachable` included; `delta_affected` is `affected`
/// relative to the destination's first protocol row (the per-protocol
/// delta the paper's bars compare).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WhatIfRow {
    pub dest: AsId,
    pub proto: Protocol,
    pub metrics: InstanceMetrics,
    pub delta_affected: i64,
}

/// One resident baseline of `SHOW BASELINES`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BaselineRow {
    pub proto: Protocol,
    pub dest: AsId,
    pub updates_initial: u64,
    pub paths: usize,
}

/// One built-in regime of `SHOW POLICIES`. The fingerprint is the
/// regime's canonical-`.pol` FNV-1a hash — the same value that keys the
/// baseline cache, so a client can predict cache aliasing from this
/// listing alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyRow {
    pub name: String,
    pub default: bool,
    /// Import rules beyond the relation-preference base table.
    pub rules: usize,
    pub fingerprint: u64,
}

/// One per-protocol path row of `SHOW ROUTE` (empty `hops` = no route;
/// STAMP contributes one row per colour).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteRow {
    pub proto: Protocol,
    pub hops: Vec<AsId>,
}

/// One stored route of `SHOW ROUTE … EXPLAIN`: the process it is stored
/// for (STAMP's colours are processes 0 and 1), who announced it, what the
/// decision process ranks it by, and its verdict — `None` (`won`) for the
/// process's winner, else the first [`Criterion`] it lost on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CandidateRow {
    pub proto: Protocol,
    pub proc: u8,
    pub neighbor: AsId,
    pub pref: u32,
    pub len: u32,
    pub verdict: Option<Criterion>,
}

/// One framed response. Every variant serializes as a header line, body
/// rows, and a closing `END` line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    WhatIf {
        scenario: String,
        events: usize,
        rows: Vec<WhatIfRow>,
    },
    Baselines {
        ases: usize,
        links: usize,
        seed: u64,
        rows: Vec<BaselineRow>,
    },
    Cache(CacheStats),
    Policies {
        rows: Vec<PolicyRow>,
    },
    Route {
        dest: AsId,
        from: AsId,
        rows: Vec<RouteRow>,
    },
    Explain {
        dest: AsId,
        from: AsId,
        rows: Vec<CandidateRow>,
    },
    Disjointness {
        dest: AsId,
        two_disjoint: bool,
        max_disjoint: u32,
    },
    Error {
        code: String,
        message: String,
    },
    Bye,
}

/// Failure to parse a response document (used by clients and the
/// round-trip property suite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseParseError {
    /// 1-based line of the offence (0 = document-level).
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ResponseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "response line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ResponseParseError {}

/// How a field's value is spelled after its `key=`.
trait Value: Sized {
    fn put(&self, out: &mut String);
    fn get(v: &str) -> Option<Self>;
}

/// `types => |self| what to print, |v| how to parse it back;`
macro_rules! values {
    ($($($t:ty),+ => |$s:ident| $put:expr, |$v:ident| $get:expr;)*) => {$($(
        impl Value for $t {
            fn put(&self, out: &mut String) {
                let $s = self;
                let _ = write!(out, "{}", $put);
            }
            fn get($v: &str) -> Option<$t> {
                $get
            }
        }
    )+)*};
}

values! {
    u8, u32, u64, usize, i64, bool, String => |s| s, |v| v.parse().ok();
    // Shortest-round-trip `Display`: format→parse→format is byte-exact. A
    // non-finite number is refused (`NaN != NaN` has no fixed point).
    f64 => |s| s, |v| v.parse().ok().filter(|x: &f64| x.is_finite());
    AsId => |s| s.0, |v| v.parse().ok().map(AsId);
    Protocol => |s| proto_token(*s), |v| v.parse().ok();
    // The discriminant only: period and churn ride in fields of their own.
    RunOutcome => |s| outcome_token(*s), |v| {
        let diverged = RunOutcome::Diverged { period: SimDuration::ZERO, churn: 0 };
        let all = [RunOutcome::Converged, diverged, RunOutcome::BudgetExhausted];
        all.into_iter().find(|o| outcome_token(*o) == v)
    };
    // A cache bound.
    Option<usize> => |s| s.map_or_else(|| "unbounded".into(), |cap| cap.to_string()), |v| match v {
        "unbounded" => Some(None),
        _ => v.parse().ok().map(Some),
    };
    // An AS path.
    Vec<AsId> => |s| match s.as_slice() {
        [] => "none".to_string(),
        hops => hops.iter().map(|v| v.0.to_string()).collect::<Vec<_>>().join(","),
    }, |v| match v {
        "none" => Some(Vec::new()),
        _ => Some(comma_list(v).ok()?.into_iter().map(AsId).collect()),
    };
    Hex => |s| format_args!("{:016x}", s.0), |v| u64::from_str_radix(v, 16).ok().map(Hex);
    // A verdict: the winner, or the criterion a loser lost on.
    Option<Criterion> => |s| s.map_or("won", Criterion::token), |v| match v {
        "won" => Some(None),
        _ => Criterion::from_token(v).map(Some),
    };
}

/// A fingerprint: sixteen hex digits.
struct Hex(u64);

type Walked = Result<(), ResponseParseError>;

/// One pass over a frame's fields, either way: printing appends
/// ` key=value` to `out`, parsing overwrites each value from the next
/// `key=` token of `c`. A line lists its fields once, by `&mut`, and the one
/// list serves both: printer and parser cannot disagree on a key, on the
/// order, or on which fields exist.
#[derive(Default)]
struct Io<'a> {
    /// The text so far when printing, `None` when parsing.
    out: Option<String>,
    c: Cursor<'a>,
    /// 1-based line of `c` within the frame (0 = the frame as a whole).
    line: usize,
    /// The lines between header and `END`, until [`Io::rows`] takes them.
    body: &'a [&'a str],
}

impl Io<'_> {
    fn err(&self, msg: String) -> ResponseParseError {
        let line = self.line;
        ResponseParseError { line, msg }
    }

    /// End a line: parsing, it must be used up (printing, `c` is empty).
    fn close(&self) -> Walked {
        let done = self.c.done();
        done.map_err(|t| self.err(format!("unexpected trailing token {t:?}")))
    }

    fn f<V: Value>(&mut self, key: &str, v: &mut V) -> Walked {
        if let Some(out) = &mut self.out {
            let _ = write!(out, " {key}=");
            v.put(out);
            return Ok(());
        }
        let token = self.c.field(key).map_err(|m| {
            self.err(m.or(format!("missing field {key}="), |t| {
                format!("expected field {key}=, got {t:?}")
            }))
        })?;
        *v = V::get(token)
            .ok_or_else(|| self.err(format!("bad value {token:?} for field {key}")))?;
        Ok(())
    }

    /// A free-text field that rides to the end of its line (kept to one).
    fn tail(&mut self, key: &str, text: &mut String) -> Walked {
        if let Some(out) = &mut self.out {
            let _ = write!(out, " {key}={}", text.replace('\n', " "));
            return Ok(());
        }
        let rest = self.c.rest();
        let v = rest.strip_prefix(key).and_then(|v| v.strip_prefix('='));
        *text = v
            .ok_or_else(|| self.err(format!("missing field {key}=")))?
            .to_string();
        Ok(())
    }

    /// The header's closing `rows=N`, then one `keyword …` line per row: the
    /// one row loop, both ways. Printing has no body lines and walks the
    /// rows it was given. Parsing starts from no rows and makes a blank one
    /// per body line that arrived; `rows=` is compared with that count
    /// afterwards and never sizes anything.
    fn rows<R: Walk + Default>(&mut self, keyword: &str, rows: &mut Vec<R>) -> Walked {
        let mut announced = rows.len();
        self.f("rows", &mut announced)?;
        self.close()?;
        let lines = std::mem::take(&mut self.body);
        rows.resize_with(rows.len() + lines.len(), R::default);
        for (i, row) in rows.iter_mut().enumerate() {
            if let Some(out) = &mut self.out {
                out.push('\n');
                out.push_str(keyword);
            } else {
                (self.c, self.line) = (Cursor::new(lines.get(i).unwrap_or(&"")), i + 2);
                self.c.keyword(keyword).map_err(|m| {
                    self.err(format!("expected {keyword:?}, got {:?}", m.or(None, Some)))
                })?;
            }
            row.walk(self)?;
            self.close()?;
        }
        self.line = 0;
        if rows.len() != announced {
            return Err(self.err("row count does not match rows= header".to_string()));
        }
        Ok(())
    }
}

/// A frame line: the fields after its keyword, in wire order.
trait Walk {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked;
}

impl Walk for WhatIfRow {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        let m = &mut self.metrics;
        io.f("dest", &mut self.dest)?;
        io.f("proto", &mut self.proto)?;
        io.f("unreachable", &mut m.unreachable)?;
        io.f("affected", &mut m.affected)?;
        io.f("loops", &mut m.affected_loops)?;
        io.f("blackholes", &mut m.affected_blackholes)?;
        io.f("control", &mut m.control_affected)?;
        io.f("updates_initial", &mut m.updates_initial)?;
        io.f("updates_failure", &mut m.updates_failure)?;
        io.f("convergence_s", &mut m.convergence_delay_s)?;
        io.f("recovery_s", &mut m.data_recovery_s)?;
        io.f("paths", &mut m.interned_paths)?;
        io.f("outcome", &mut m.outcome)?;
        // Both zero unless the row diverged.
        let (mut period_us, mut churn) = match m.outcome {
            RunOutcome::Diverged { period, churn } => (period.as_micros(), churn),
            _ => (0, 0),
        };
        io.f("period_us", &mut period_us)?;
        io.f("churn", &mut churn)?;
        if m.outcome.is_diverged() {
            let period = SimDuration::from_micros(period_us);
            m.outcome = RunOutcome::Diverged { period, churn };
        }
        io.f("delta_affected", &mut self.delta_affected)
    }
}

impl Walk for BaselineRow {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        io.f("proto", &mut self.proto)?;
        io.f("dest", &mut self.dest)?;
        io.f("updates_initial", &mut self.updates_initial)?;
        io.f("paths", &mut self.paths)
    }
}

impl Walk for PolicyRow {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        io.f("name", &mut self.name)?;
        io.f("default", &mut self.default)?;
        io.f("rules", &mut self.rules)?;
        let mut fingerprint = Hex(self.fingerprint);
        io.f("fingerprint", &mut fingerprint)?;
        self.fingerprint = fingerprint.0;
        Ok(())
    }
}

impl Walk for RouteRow {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        io.f("proto", &mut self.proto)?;
        io.f("hops", &mut self.hops)
    }
}

impl Walk for CandidateRow {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        io.f("proto", &mut self.proto)?;
        io.f("proc", &mut self.proc)?;
        io.f("neighbor", &mut self.neighbor)?;
        io.f("pref", &mut self.pref)?;
        io.f("len", &mut self.len)?;
        io.f("verdict", &mut self.verdict)
    }
}

/// The header line after its keyword (which [`Response::keywords`] owns)
/// and, through [`Io::rows`], the body.
impl Walk for Response {
    fn walk(&mut self, io: &mut Io<'_>) -> Walked {
        match self {
            Response::WhatIf {
                scenario,
                events,
                rows,
            } => {
                io.f("scenario", scenario)?;
                io.f("events", events)?;
                io.rows("row", rows)
            }
            Response::Baselines {
                ases,
                links,
                seed,
                rows,
            } => {
                io.f("ases", ases)?;
                io.f("links", links)?;
                io.f("seed", seed)?;
                io.rows("baseline", rows)
            }
            Response::Cache(stats) => {
                io.f("capacity", &mut stats.capacity)?;
                io.f("len", &mut stats.len)?;
                io.f("hits", &mut stats.hits)?;
                io.f("misses", &mut stats.misses)?;
                io.f("evictions", &mut stats.evictions)
            }
            Response::Policies { rows } => io.rows("policy", rows),
            Response::Route { dest, from, rows } => {
                io.f("dest", dest)?;
                io.f("from", from)?;
                io.rows("path", rows)
            }
            Response::Explain { dest, from, rows } => {
                io.f("dest", dest)?;
                io.f("from", from)?;
                io.rows("candidate", rows)
            }
            Response::Disjointness {
                dest,
                two_disjoint,
                max_disjoint,
            } => {
                io.f("dest", dest)?;
                io.f("two_disjoint", two_disjoint)?;
                io.f("max_disjoint", max_disjoint)
            }
            Response::Error { code, message } => {
                io.f("code", code)?;
                io.tail("msg", message)
            }
            Response::Bye => Ok(()),
        }
    }
}

/// An empty frame of one kind: every field at its `Default`.
macro_rules! blank {
    ($variant:ident: $($field:ident),*) => {
        Response::$variant { $($field: Default::default()),* }
    };
}

impl Response {
    /// The header keywords this frame kind answers to. A `WHATIF` answer
    /// has two: a divergence anywhere in the fan-out promotes the whole
    /// frame to the second, which the printer derives from the rows — so
    /// the parser takes either and the round-trip stays exact.
    fn keywords(&self) -> &'static [&'static str] {
        match self {
            Response::WhatIf { .. } => &["WHATIF", "DIVERGED"],
            Response::Baselines { .. } => &["BASELINES"],
            Response::Cache(_) => &["CACHE"],
            Response::Policies { .. } => &["POLICIES"],
            Response::Route { .. } => &["ROUTE"],
            Response::Explain { .. } => &["EXPLAIN"],
            Response::Disjointness { .. } => &["DISJOINTNESS"],
            Response::Error { .. } => &["ERR"],
            Response::Bye => &["BYE"],
        }
    }

    /// One empty frame of every kind, for the parser to fill.
    fn blanks() -> [Response; 9] {
        [
            blank!(WhatIf: scenario, events, rows),
            blank!(Baselines: ases, links, seed, rows),
            Response::Cache(CacheStats::default()),
            blank!(Policies: rows),
            blank!(Route: dest, from, rows),
            blank!(Explain: dest, from, rows),
            blank!(Disjointness: dest, two_disjoint, max_disjoint),
            blank!(Error: code, message),
            Response::Bye,
        ]
    }

    /// Parse one complete response document (header, body rows, `END`).
    pub fn parse(text: &str) -> Result<Response, ResponseParseError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut io = Io::default();
        let [header, body @ .., "END"] = lines.as_slice() else {
            return Err(io.err("a response is a header line, body rows and a closing END".into()));
        };
        (io.c, io.line, io.body) = (Cursor::new(header), 1, body);
        let kind = io.c.next().unwrap_or_default();
        let blank = Response::blanks()
            .into_iter()
            .find(|frame| frame.keywords().contains(&kind));
        let mut frame = blank.ok_or_else(|| io.err(format!("unknown response kind {kind:?}")))?;
        frame.walk(&mut io)?;
        io.close()?;
        match io.body {
            [] => Ok(frame),
            _ => Err(io.err(format!("{kind} response has no body rows"))),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let promoted = matches!(self, Response::WhatIf { rows, .. }
            if rows.iter().any(|r| r.metrics.outcome.is_diverged()));
        let keywords = self.keywords();
        let keyword = match promoted {
            true => keywords.last(),
            false => keywords.first(),
        };
        let mut io = Io {
            out: Some(keyword.copied().unwrap_or_default().to_string()),
            ..Io::default()
        };
        // The walk takes its fields by `&mut`, hence the copy; printing
        // itself cannot fail (only the parsing half of `Io` returns errors).
        self.clone().walk(&mut io).map_err(|_| fmt::Error)?;
        writeln!(f, "{}\nEND", io.out.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_eventsim::textfmt::assert_fixed_point;
    use stamp_workload::single_link_failure;

    fn roundtrip_request(r: &Request) {
        let text = r.to_string();
        let back = assert_fixed_point(&text, str::parse::<Request>, Request::to_string);
        assert_eq!(&back, r, "{text:?}");
    }

    #[test]
    fn proto_tokens_are_pinned() {
        let tokens = Protocol::ALL.map(proto_token);
        assert_eq!(tokens, ["bgp", "rbgp-norci", "rbgp", "stamp"]);
    }

    #[test]
    fn requests_round_trip() {
        let t = Timeline::from_events("inline-demo", single_link_failure(AsId(3), AsId(7)));
        let shapes = [
            WhatIfShape::FailLink(AsId(1), AsId(2)),
            WhatIfShape::DrainNode(AsId(9)),
            WhatIfShape::Scn(t),
        ];
        for shape in &shapes {
            for proto in [None, Some(Protocol::Stamp)] {
                for dest in [None, Some(AsId(42))] {
                    for policy in [None, Some("prefer-peer".to_string())] {
                        roundtrip_request(&Request::WhatIf {
                            shape: shape.clone(),
                            proto,
                            dest,
                            policy,
                        });
                    }
                }
            }
        }
        roundtrip_request(&Request::ShowBaselines);
        roundtrip_request(&Request::ShowCache);
        roundtrip_request(&Request::ShowPolicies);
        roundtrip_request(&Request::ShowRoute {
            dest: AsId(5),
            from: AsId(17),
        });
        roundtrip_request(&Request::ExplainRoute {
            dest: AsId(5),
            from: AsId(17),
        });
        roundtrip_request(&Request::ShowDisjointness { dest: AsId(5) });
        roundtrip_request(&Request::Quit);
    }

    #[test]
    fn requests_parse_case_insensitively() {
        let r: Request = "whatif fail-link 3 7 proto BGP dest 4 policy prefer-peer"
            .parse()
            .unwrap();
        assert_eq!(
            r,
            Request::WhatIf {
                shape: WhatIfShape::FailLink(AsId(3), AsId(7)),
                proto: Some(Protocol::Bgp),
                dest: Some(AsId(4)),
                policy: Some("prefer-peer".to_string()),
            }
        );
        assert_eq!(
            r.to_string(),
            "WHATIF FAIL-LINK 3 7 PROTO bgp DEST 4 POLICY prefer-peer"
        );
        let r: Request = "show route 4 from 9".parse().unwrap();
        assert_eq!(
            r,
            Request::ShowRoute {
                dest: AsId(4),
                from: AsId(9)
            }
        );
        let r: Request = "show route 4 from 9 explain".parse().unwrap();
        assert_eq!(
            r,
            Request::ExplainRoute {
                dest: AsId(4),
                from: AsId(9)
            }
        );
        assert_eq!(r.to_string(), "SHOW ROUTE 4 FROM 9 EXPLAIN");
    }

    #[test]
    fn inline_scn_round_trips_multi_event_timelines() {
        let t = Timeline::from_events(
            "drill",
            vec![
                stamp_workload::TimelineEvent {
                    at: SimDuration::ZERO,
                    ev: stamp_workload::NetEvent::NodeDown(AsId(9)),
                },
                stamp_workload::TimelineEvent {
                    at: SimDuration::from_millis(1500),
                    ev: stamp_workload::NetEvent::NodeUp(AsId(9)),
                },
            ],
        );
        let req = Request::WhatIf {
            shape: WhatIfShape::Scn(t.clone()),
            proto: None,
            dest: None,
            policy: None,
        };
        let text = req.to_string();
        assert_eq!(
            text,
            "WHATIF SCN scenario drill; at 0s fail-node 9; at 1500ms recover-node 9"
        );
        let back: Request = text.parse().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn junk_is_rejected_with_typed_errors() {
        let cases: &[(&str, RequestError)] = &[
            ("", RequestError::Empty),
            ("   ", RequestError::Empty),
            (
                "DELETE EVERYTHING",
                RequestError::UnknownCommand("DELETE".to_string()),
            ),
            (
                "SHOW TABLES",
                RequestError::UnknownShow("TABLES".to_string()),
            ),
            (
                "WHATIF MELT-DOWN 1",
                RequestError::UnknownWhatIf("MELT-DOWN".to_string()),
            ),
            (
                "WHATIF FAIL-LINK 1",
                RequestError::MissingArg("FAIL-LINK endpoint b"),
            ),
            (
                "WHATIF FAIL-LINK 1 x",
                RequestError::BadAsId("x".to_string()),
            ),
            (
                "WHATIF FAIL-LINK 1 2 PROTO ospf",
                RequestError::BadProtocol("ospf".to_string()),
            ),
            (
                "WHATIF FAIL-LINK 1 2 3",
                RequestError::Trailing("3".to_string()),
            ),
            (
                "WHATIF FAIL-LINK 1 2 POLICY",
                RequestError::MissingArg("POLICY value"),
            ),
            (
                "WHATIF SCN",
                RequestError::MissingArg("inline .scn timeline"),
            ),
            ("SHOW ROUTE 4", RequestError::MissingArg("FROM keyword")),
            (
                "SHOW ROUTE 4 FROM 9 EXPLAIN X",
                RequestError::Trailing("X".to_string()),
            ),
            (
                "SHOW ROUTE 4 FROM 9 WHY",
                RequestError::Trailing("WHY".to_string()),
            ),
            ("QUIT now", RequestError::Trailing("now".to_string())),
        ];
        for (text, want) in cases {
            let got = text.parse::<Request>().unwrap_err();
            assert_eq!(&got, want, "{text:?}");
        }
        // Malformed inline scenarios surface the .scn error, typed.
        let got = "WHATIF SCN scenario x; at 5 fail-node 1"
            .parse::<Request>()
            .unwrap_err();
        assert!(matches!(got, RequestError::BadScn(_)), "{got:?}");
    }

    #[test]
    fn oversize_input_is_rejected_with_too_large() {
        // A request line beyond the byte cap never reaches the tokenizer.
        let line = format!("WHATIF FAIL-LINK 1 {}", "2".repeat(MAX_REQUEST_LINE));
        let got = line.parse::<Request>().unwrap_err();
        assert!(
            matches!(
                got,
                RequestError::TooLarge {
                    what: "request line",
                    ..
                }
            ),
            "{got:?}"
        );
        assert!(got
            .to_response()
            .to_string()
            .starts_with("ERR code=too-large "));

        // An inline scenario over the event cap parses as .scn but is
        // refused as a query (each event costs an engine phase).
        let mut scn = "WHATIF SCN scenario big".to_string();
        for i in 0..=MAX_SCN_EVENTS {
            scn.push_str(&format!("; at {i}s fail-node 1; at {i}s recover-node 1"));
        }
        // Keep the line itself under the byte cap to isolate the event cap.
        assert!(scn.len() <= MAX_REQUEST_LINE, "test setup: {}", scn.len());
        let got = scn.parse::<Request>().unwrap_err();
        assert!(
            matches!(
                got,
                RequestError::TooLarge {
                    what: "inline .scn event count",
                    ..
                }
            ),
            "{got:?}"
        );
        // At the cap exactly, the query is accepted.
        let mut ok = "WHATIF SCN scenario big".to_string();
        for i in 0..MAX_SCN_EVENTS / 2 {
            ok.push_str(&format!("; at {i}s fail-node 1; at {i}s recover-node 1"));
        }
        assert!(ok.parse::<Request>().is_ok());
    }

    #[test]
    fn responses_round_trip() {
        let m = InstanceMetrics {
            affected: 12,
            affected_loops: 3,
            affected_blackholes: 9,
            control_affected: 17,
            updates_initial: 4021,
            updates_failure: 133,
            convergence_delay_s: 31.0625,
            data_recovery_s: 0.10000000000000009,
            interned_paths: 812,
            unreachable: 5,
            outcome: RunOutcome::Converged,
        };
        let diverged = InstanceMetrics {
            outcome: RunOutcome::Diverged {
                period: SimDuration::from_secs(2),
                churn: 144,
            },
            ..m
        };
        let cases = [
            Response::WhatIf {
                scenario: "whatif-fail-link-3-7".to_string(),
                events: 1,
                rows: vec![
                    WhatIfRow {
                        dest: AsId(4),
                        proto: Protocol::Bgp,
                        metrics: m,
                        delta_affected: 0,
                    },
                    WhatIfRow {
                        dest: AsId(4),
                        proto: Protocol::Stamp,
                        metrics: m,
                        delta_affected: -12,
                    },
                ],
            },
            // A frame with any diverged row prints (and re-parses) under
            // the DIVERGED header keyword.
            Response::WhatIf {
                scenario: "whatif-scn-wheel".to_string(),
                events: 1,
                rows: vec![
                    WhatIfRow {
                        dest: AsId(4),
                        proto: Protocol::Bgp,
                        metrics: diverged,
                        delta_affected: 0,
                    },
                    WhatIfRow {
                        dest: AsId(4),
                        proto: Protocol::Stamp,
                        metrics: InstanceMetrics {
                            outcome: RunOutcome::BudgetExhausted,
                            ..m
                        },
                        delta_affected: 3,
                    },
                ],
            },
            Response::Baselines {
                ases: 200,
                links: 406,
                seed: 0xCA4A16,
                rows: vec![BaselineRow {
                    proto: Protocol::Rbgp,
                    dest: AsId(4),
                    updates_initial: 900,
                    paths: 411,
                }],
            },
            Response::Cache(CacheStats {
                capacity: Some(8),
                len: 6,
                hits: 41,
                misses: 7,
                evictions: 2,
            }),
            Response::Cache(CacheStats::default()),
            Response::Policies {
                rows: vec![
                    PolicyRow {
                        name: "gao-rexford".to_string(),
                        default: true,
                        rules: 0,
                        fingerprint: 0x0123_4567_89ab_cdef,
                    },
                    PolicyRow {
                        name: "long-path-tax".to_string(),
                        default: false,
                        rules: 1,
                        fingerprint: 0xfedc_ba98_7654_3210,
                    },
                ],
            },
            Response::Route {
                dest: AsId(4),
                from: AsId(9),
                rows: vec![
                    RouteRow {
                        proto: Protocol::Bgp,
                        hops: vec![AsId(7), AsId(3), AsId(4)],
                    },
                    RouteRow {
                        proto: Protocol::Stamp,
                        hops: Vec::new(),
                    },
                ],
            },
            Response::Explain {
                dest: AsId(4),
                from: AsId(9),
                rows: vec![
                    CandidateRow {
                        proto: Protocol::Bgp,
                        proc: 0,
                        neighbor: AsId(7),
                        pref: 300,
                        len: 2,
                        verdict: None,
                    },
                    CandidateRow {
                        proto: Protocol::Stamp,
                        proc: 1,
                        neighbor: AsId(2),
                        pref: 100,
                        len: 4,
                        verdict: Some(Criterion::LocalPref),
                    },
                    CandidateRow {
                        proto: Protocol::Stamp,
                        proc: 1,
                        neighbor: AsId(3),
                        pref: 300,
                        len: 3,
                        verdict: Some(Criterion::Loop),
                    },
                ],
            },
            Response::Explain {
                dest: AsId(4),
                from: AsId(4),
                rows: Vec::new(),
            },
            Response::Disjointness {
                dest: AsId(4),
                two_disjoint: true,
                max_disjoint: 2,
            },
            Response::Error {
                code: "unserved-dest".to_string(),
                message: "no resident baseline for AS 77".to_string(),
            },
            Response::Bye,
        ];
        // Every verdict token, on the wire and back.
        let verdicts = Criterion::ALL.into_iter().map(Some).chain([None]);
        let every_verdict = Response::Explain {
            dest: AsId(4),
            from: AsId(9),
            rows: verdicts
                .map(|verdict| CandidateRow {
                    verdict,
                    ..CandidateRow::default()
                })
                .collect(),
        };
        for r in cases.iter().chain([&every_verdict]) {
            let text = r.to_string();
            assert!(text.ends_with("END\n"), "{text:?}");
            let back = assert_fixed_point(&text, Response::parse, Response::to_string);
            assert_eq!(&back, r, "{text:?}");
        }
    }

    #[test]
    fn response_parser_rejects_frame_violations() {
        assert!(Response::parse("").is_err());
        assert!(Response::parse("BYE\n").is_err(), "missing END");
        assert!(Response::parse("END\n").is_err(), "no header");
        assert!(Response::parse("NOPE x=1\nEND\n").is_err());
        // `rows=` is compared with the rows that arrived and never sizes
        // anything: a header announcing 2^64-1 rows is a mismatch like any
        // other (it used to be a `capacity overflow` panic).
        for frame in [
            "WHATIF scenario=x events=1 rows=1\nEND\n",
            "WHATIF scenario=x events=1 rows=18446744073709551615\nEND\n",
            "POLICIES rows=1152921504606846976\nEND\n",
        ] {
            let err = Response::parse(frame).unwrap_err();
            assert_eq!(err.msg, "row count does not match rows= header", "{frame}");
        }
        assert!(
            Response::parse(
                "CACHE capacity=unbounded len=0 hits=0 misses=0 evictions=0 x=1\nEND\n"
            )
            .is_err(),
            "trailing field"
        );
        let err = Response::parse(
            "EXPLAIN dest=4 from=9 rows=1\n\
             candidate proto=bgp proc=0 neighbor=1 pref=1 len=1 verdict=maybe\nEND\n",
        )
        .unwrap_err();
        assert_eq!(err.msg, "bad value \"maybe\" for field verdict");
    }
}
