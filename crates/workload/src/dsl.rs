//! The `.scn` plain-text scenario format: campaigns are data, not code.
//!
//! Grammar (line-oriented; `#` starts a comment, blank lines are ignored):
//!
//! ```text
//! scenario <name>
//! at <time> fail-link <a> <b>
//! at <time> recover-link <a> <b>
//! at <time> fail-node <v>
//! at <time> recover-node <v>
//! at <time> hijack <attacker>
//! at <time> hijack-prepend <attacker> <victim>
//! at <time> route-leak <leaker>
//! at <time> flip-policy <regime>
//! ```
//!
//! * `<name>` — `[A-Za-z0-9_.-]+`;
//! * `<time>` — a non-negative integer with a unit: `us`, `ms` or `s`
//!   (microsecond resolution, matching [`SimDuration`]); offsets must be
//!   non-decreasing down the file;
//! * `<a> <b> <v> <attacker> <victim> <leaker>` — dense AS ids (`u32`);
//! * `<regime>` — a regime name from [`PolicyRegime::named`] (canonical)
//!   or its numeric index (accepted alias; the printer always emits the
//!   name, so the value round-trip is preserved either way).
//!
//! Round-trip guarantee: for every well-formed [`Timeline`] `t`,
//! `parse_scn(&t.to_scn()).unwrap() == t`. The printer always emits the
//! largest unit that represents the offset exactly, so re-parsing recovers
//! the identical microsecond value; equal-time events keep file order, the
//! same tie-break the engine applies at injection.

use crate::timeline::{NetEvent, Timeline, TimelineEvent};
use stamp_eventsim::textfmt::{self, Cursor};
use stamp_eventsim::SimDuration;
use stamp_policy::PolicyRegime;
use stamp_topology::AsId;
use std::fmt;

pub use stamp_eventsim::textfmt::valid_name;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScnError {
    pub line: usize,
    pub kind: ScnErrorKind,
}

/// What went wrong on that line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScnErrorKind {
    /// The first significant line was not `scenario <name>`.
    MissingHeader,
    /// The scenario name contains characters outside `[A-Za-z0-9_.-]`.
    BadName(String),
    /// A second `scenario` header appeared.
    DuplicateHeader,
    /// An event line did not start with `at`.
    ExpectedAt(String),
    /// The time field did not parse as `<integer><us|ms|s>`.
    BadTime(String),
    /// Unknown event verb.
    UnknownVerb(String),
    /// Wrong number of (or non-numeric) AS-id arguments.
    BadArgs,
    /// The offset went backwards relative to the previous event.
    DecreasingTime,
    /// `flip-policy` named a regime that is not in
    /// [`PolicyRegime::named`] (and is not a valid numeric index).
    UnknownPolicy(String),
}

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ScnErrorKind::MissingHeader => write!(f, "expected `scenario <name>` header"),
            ScnErrorKind::BadName(n) => write!(f, "bad scenario name {n:?}"),
            ScnErrorKind::DuplicateHeader => write!(f, "duplicate `scenario` header"),
            ScnErrorKind::ExpectedAt(t) => write!(f, "expected `at <time> ...`, got {t:?}"),
            ScnErrorKind::BadTime(t) => write!(f, "bad time {t:?} (want <int>us|ms|s)"),
            ScnErrorKind::UnknownVerb(v) => write!(f, "unknown event {v:?}"),
            ScnErrorKind::BadArgs => write!(f, "bad event arguments"),
            ScnErrorKind::DecreasingTime => write!(f, "event offsets must be non-decreasing"),
            ScnErrorKind::UnknownPolicy(p) => write!(f, "unknown policy regime {p:?}"),
        }
    }
}

/// Format an offset with the largest exact unit.
fn fmt_duration(d: SimDuration) -> String {
    let us = d.as_micros();
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

fn parse_duration(s: &str) -> Option<SimDuration> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("us") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        return None;
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: u64 = digits.parse().ok()?;
    Some(SimDuration::from_micros(n.checked_mul(mul)?))
}

impl Timeline {
    /// Serialise to the `.scn` text format.
    pub fn to_scn(&self) -> String {
        debug_assert!(valid_name(self.name()), "unprintable timeline name");
        let mut out = format!("scenario {}\n", self.name());
        for e in self.events() {
            let line = match e.ev {
                NetEvent::LinkDown(a, b) => format!("fail-link {} {}", a.0, b.0),
                NetEvent::LinkUp(a, b) => format!("recover-link {} {}", a.0, b.0),
                NetEvent::NodeDown(v) => format!("fail-node {}", v.0),
                NetEvent::NodeUp(v) => format!("recover-node {}", v.0),
                NetEvent::PrefixHijack {
                    attacker,
                    forged_origin: None,
                } => format!("hijack {}", attacker.0),
                NetEvent::PrefixHijack {
                    attacker,
                    forged_origin: Some(victim),
                } => format!("hijack-prepend {} {}", attacker.0, victim.0),
                NetEvent::RouteLeak(v) => format!("route-leak {}", v.0),
                // The canonical form is the regime's name; a raw index is
                // only printed when it names no known regime (a value the
                // engine treats as a no-op, kept representable anyway).
                NetEvent::PolicyFlip(idx) => match PolicyRegime::by_index(idx) {
                    Some(r) => format!("flip-policy {}", r.name),
                    None => format!("flip-policy {idx}"),
                },
            };
            out.push_str(&format!("at {} {}\n", fmt_duration(e.at), line));
        }
        out
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_scn())
    }
}

impl std::str::FromStr for Timeline {
    type Err = ScnError;
    fn from_str(s: &str) -> Result<Timeline, ScnError> {
        parse_scn(s)
    }
}

/// Parse one `.scn` document.
pub fn parse_scn(text: &str) -> Result<Timeline, ScnError> {
    let mut name: Option<String> = None;
    let mut events: Vec<TimelineEvent> = Vec::new();
    let mut last_at = SimDuration::ZERO;
    for (line, mut c) in textfmt::lines(text) {
        let err = |kind: ScnErrorKind| ScnError { line, kind };
        // The walker yields no blank lines, so there is a first token.
        let head = c.next().unwrap_or_default();
        if name.is_none() {
            if head != "scenario" {
                return Err(err(ScnErrorKind::MissingHeader));
            }
            let n = c.next().unwrap_or_default();
            if !valid_name(n) || c.done().is_err() {
                return Err(err(ScnErrorKind::BadName(n.to_string())));
            }
            name = Some(n.to_string());
            continue;
        }
        if head == "scenario" {
            return Err(err(ScnErrorKind::DuplicateHeader));
        }
        if head != "at" {
            return Err(err(ScnErrorKind::ExpectedAt(head.to_string())));
        }
        let t = c.next().unwrap_or_default();
        let at = parse_duration(t).ok_or_else(|| err(ScnErrorKind::BadTime(t.to_string())))?;
        if at < last_at {
            return Err(err(ScnErrorKind::DecreasingTime));
        }
        last_at = at;
        let ev = parse_event(&mut c).map_err(err)?;
        c.done().map_err(|_| err(ScnErrorKind::BadArgs))?;
        events.push(TimelineEvent { at, ev });
    }
    let name = name.ok_or(ScnError {
        line: text.lines().count().max(1),
        kind: ScnErrorKind::MissingHeader,
    })?;
    Ok(Timeline::from_events(name, events))
}

/// The `<verb> <args>` tail of an event line.
fn parse_event(c: &mut Cursor<'_>) -> Result<NetEvent, ScnErrorKind> {
    let verb = c.token().map_err(|_| ScnErrorKind::BadArgs)?;
    let mut arg = || c.parse().map(AsId).map_err(|_| ScnErrorKind::BadArgs);
    Ok(match verb {
        "fail-link" => NetEvent::LinkDown(arg()?, arg()?),
        "recover-link" => NetEvent::LinkUp(arg()?, arg()?),
        "fail-node" => NetEvent::NodeDown(arg()?),
        "recover-node" => NetEvent::NodeUp(arg()?),
        "hijack" => NetEvent::PrefixHijack {
            attacker: arg()?,
            forged_origin: None,
        },
        "hijack-prepend" => NetEvent::PrefixHijack {
            attacker: arg()?,
            forged_origin: Some(arg()?),
        },
        "route-leak" => NetEvent::RouteLeak(arg()?),
        "flip-policy" => {
            let r = c.token().map_err(|_| ScnErrorKind::BadArgs)?;
            NetEvent::PolicyFlip(match PolicyRegime::index_of(r) {
                Some(i) => i,
                None => r
                    .parse()
                    .map_err(|_| ScnErrorKind::UnknownPolicy(r.to_string()))?,
            })
        }
        other => return Err(ScnErrorKind::UnknownVerb(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::flap_train;

    #[test]
    fn round_trips_a_generated_timeline() {
        let t = Timeline::from_events(
            "flap-4-2",
            flap_train(
                AsId(4),
                AsId(2),
                SimDuration::from_millis(500),
                SimDuration::from_secs(2),
                0.25,
                3,
            ),
        );
        let text = t.to_scn();
        let back: Timeline = text.parse().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn parses_comments_whitespace_and_units() {
        let text = "\n# a maintenance drill\nscenario drill.v1\n\
                    at 0us fail-node 9   # drain\n  at 1500ms recover-node 9\n\
                    at 2s fail-link 3 7\n";
        let t: Timeline = text.parse().unwrap();
        assert_eq!(t.name(), "drill.v1");
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[1].at, SimDuration::from_millis(1500));
        assert_eq!(t.events()[2].ev, NetEvent::LinkDown(AsId(3), AsId(7)));
        // And the canonical print of the parse re-parses to the same value.
        assert_eq!(t.to_scn().parse::<Timeline>().unwrap(), t);
    }

    #[test]
    fn printer_picks_exact_units() {
        assert_eq!(fmt_duration(SimDuration::from_secs(3)), "3s");
        assert_eq!(fmt_duration(SimDuration::from_millis(2500)), "2500ms");
        assert_eq!(fmt_duration(SimDuration::from_micros(1001)), "1001us");
        assert_eq!(fmt_duration(SimDuration::ZERO), "0s");
        for d in [
            SimDuration::from_micros(1),
            SimDuration::from_micros(999_999),
            SimDuration::from_millis(30),
            SimDuration::from_secs(86_400),
        ] {
            assert_eq!(parse_duration(&fmt_duration(d)), Some(d));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: &[(&str, ScnErrorKind)] = &[
            ("at 0s fail-node 1\n", ScnErrorKind::MissingHeader),
            ("scenario a b\n", ScnErrorKind::BadName("a".to_string())),
            ("scenario x\nscenario y\n", ScnErrorKind::DuplicateHeader),
            (
                "scenario x\nfail-node 1\n",
                ScnErrorKind::ExpectedAt("fail-node".to_string()),
            ),
            (
                "scenario x\nat 5 fail-node 1\n",
                ScnErrorKind::BadTime("5".to_string()),
            ),
            (
                "scenario x\nat -1s fail-node 1\n",
                ScnErrorKind::BadTime("-1s".to_string()),
            ),
            (
                "scenario x\nat 1s melt-node 1\n",
                ScnErrorKind::UnknownVerb("melt-node".to_string()),
            ),
            ("scenario x\nat 1s fail-link 1\n", ScnErrorKind::BadArgs),
            ("scenario x\nat 1s fail-node 1 2\n", ScnErrorKind::BadArgs),
            (
                "scenario x\nat 2s fail-node 1\nat 1s recover-node 1\n",
                ScnErrorKind::DecreasingTime,
            ),
            ("", ScnErrorKind::MissingHeader),
        ];
        for (text, want) in cases {
            let got = text.parse::<Timeline>().unwrap_err();
            assert_eq!(&got.kind, want, "doc {text:?} → {got}");
        }
    }

    #[test]
    fn adversarial_verbs_round_trip_with_canonical_policy_names() {
        let text = "scenario attack\nat 0s hijack 7\nat 1s hijack-prepend 7 3\n\
                    at 2s route-leak 9\nat 3s flip-policy shortest-path\n";
        let t: Timeline = text.parse().unwrap();
        assert_eq!(
            t.events()[0].ev,
            NetEvent::PrefixHijack {
                attacker: AsId(7),
                forged_origin: None
            }
        );
        assert_eq!(
            t.events()[1].ev,
            NetEvent::PrefixHijack {
                attacker: AsId(7),
                forged_origin: Some(AsId(3))
            }
        );
        assert_eq!(t.events()[2].ev, NetEvent::RouteLeak(AsId(9)));
        let idx = PolicyRegime::index_of("shortest-path").unwrap();
        assert_eq!(t.events()[3].ev, NetEvent::PolicyFlip(idx));
        // The file is already canonical: print is the identity.
        assert_eq!(t.to_scn(), text);
        // The numeric index is an accepted alias that canonicalises to
        // the name.
        let via_index = format!("scenario attack2\nat 0s flip-policy {idx}\n");
        let t2: Timeline = via_index.parse().unwrap();
        assert_eq!(t2.events()[0].ev, NetEvent::PolicyFlip(idx));
        assert!(t2.to_scn().contains("flip-policy shortest-path"));
        // An index no regime owns still round-trips as a number.
        let t3: Timeline = "scenario noop\nat 0s flip-policy 999\n".parse().unwrap();
        assert_eq!(t3.events()[0].ev, NetEvent::PolicyFlip(999));
        assert_eq!(t3.to_scn().parse::<Timeline>().unwrap(), t3);
    }

    #[test]
    fn flip_policy_rejects_unknown_names() {
        let got = "scenario x\nat 0s flip-policy chaos-monkey\n"
            .parse::<Timeline>()
            .unwrap_err();
        assert_eq!(
            got.kind,
            ScnErrorKind::UnknownPolicy("chaos-monkey".to_string())
        );
        let got = "scenario x\nat 0s hijack-prepend 1\n"
            .parse::<Timeline>()
            .unwrap_err();
        assert_eq!(got.kind, ScnErrorKind::BadArgs);
    }

    #[test]
    fn equal_time_events_keep_file_order() {
        let text = "scenario tie\nat 1s fail-link 0 1\nat 1s recover-link 0 1\n";
        let t: Timeline = text.parse().unwrap();
        assert_eq!(t.events()[0].ev, NetEvent::LinkDown(AsId(0), AsId(1)));
        assert_eq!(t.events()[1].ev, NetEvent::LinkUp(AsId(0), AsId(1)));
        assert_eq!(t.to_scn(), text);
    }
}
