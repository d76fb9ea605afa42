//! In-memory spans recorded from the benchmark's own files, around calls
//! into public functions of the layers. Nothing in the product is
//! instrumented: a traced run re-expresses a cell or a query through the
//! public facade and times each call.
//!
//! A span has a name (`<layer>.<what>`), a start and an end in host
//! nanoseconds since the tracer was created, the span that caused it, and
//! the id of the request or cell it belongs to. Self time is the span's
//! duration minus the part its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or cell id: spans of one request share it.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing out of order is a bug and panics.
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u64,
}

/// `f` under a leaf span when a tracer is present, bare otherwise — one
/// code path serves the untraced pass (no clock reads) and the traced one.
pub fn spanned<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Set the request/cell id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id: self.id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open`; returns the span's duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let s = &mut self.spans[open.0];
        s.end_ns = end_ns;
        s.dur_ns()
    }

    /// A leaf span around `f` (which cannot itself open spans).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the part of that interval
    /// its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time summed per layer — the part of a span name before the
    /// first `.`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.totals() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The whole trace as one JSON document (written at exit).
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, own)| {
                Json::obj()
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .with("id", s.id)
                    .with("self_ns", *own)
            })
            .collect();
        let totals: Vec<(String, Json)> = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj()
                        .with("count", t.count)
                        .with("total_ns", t.total_ns)
                        .with("self_ns", t.self_ns),
                )
            })
            .collect();
        Json::obj()
            .with("workload", workload)
            .with("clock", "host monotonic, ns since the tracer was created")
            .with("totals", Json::Obj(totals))
            .with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written times, so the arithmetic is exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id: 7,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixed(&[
            ("queryd.execute", 0, 100, None),
            ("workload.measure", 10, 70, Some(0)),
            ("forwarding.observe", 20, 50, Some(1)),
            ("topology.static_routes", 70, 90, Some(0)),
        ]);
        // execute: 100 − (60 + 20); measure: 60 − 30; leaves keep all.
        assert_eq!(t.self_ns(), vec![20, 30, 30, 20]);
        let totals = t.totals();
        assert_eq!(
            totals["queryd.execute"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        // Self times partition the root: they sum to its duration.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
        let layers = t.layer_self_ns();
        assert_eq!(layers["queryd"], 20);
        assert_eq!(layers["workload"], 30);
        assert_eq!(layers["forwarding"], 30);
        assert_eq!(layers["topology"], 20);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_request_id() {
        let mut t = Tracer::new();
        t.set_id(42);
        let outer = t.enter("a.outer");
        let x = t.span("b.inner", || 5);
        assert_eq!(x, 5);
        t.exit(outer);
        t.set_id(43);
        t.span("a.outer", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].id, s[1].id, s[2].id), (42, 42, 43));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.totals()["a.outer"].count, 2);
        assert_eq!(t.durations("b.inner").len(), 1);
        let doc = t.to_json("w");
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
