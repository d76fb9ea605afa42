//! The resident query engine: converge every `(protocol, destination)`
//! baseline once at startup, keep the converged sessions resident — each
//! held once, shared between the listing verbs and the cache — and answer
//! what-if queries by forking them, never by re-converging a warm cell.
//!
//! Determinism contract: a `WHATIF` is a cell list — one
//! [`Cell`] per selected destination, under the daemon's engine seed —
//! handed to [`stamp_workload::run_cells`] on one worker with the resident
//! [`BaselineCache`]: the campaign runner's own path, whose bit-identity
//! to the cold path is pinned by `tests/warmstart.rs` and the campaign
//! binary's hash assertions. Baselines are made by
//! [`BaselineCache::deposit`] under the same [`RunParams`] every fork
//! runs (the deadline is clamped once, at startup), so a fork is an exact
//! copy of its baseline. `tests/queryd.rs` closes the loop by comparing
//! query rows against cold single cells with no cache, bit for bit.

use crate::protocol::{
    BaselineRow, CandidateRow, PolicyRow, Request, Response, RouteRow, WhatIfRow, WhatIfShape,
};
use stamp_eventsim::SimDuration;
use stamp_topology::disjoint::{max_disjoint_uphill_paths, two_disjoint_uphill_paths};
use stamp_topology::{AsGraph, AsId};
use stamp_workload::sim::{Sim, SimError};
use stamp_workload::{
    node_drain, run_cells, single_link_failure, BaselineCache, CacheStats, Cell, PolicyRegime,
    Protocol, RunParams, Timeline, TimelineError, GRID_SEED, PREFIX,
};
use std::fmt;
use std::sync::Arc;

/// Everything the daemon serves: the protocol set, the destinations with
/// resident baselines, and the engine knobs shared by every query.
#[derive(Debug, Clone)]
pub struct QuerydConfig {
    /// Protocols converged at startup and fanned over by `WHATIF`.
    pub protocols: Vec<Protocol>,
    /// Destinations with resident baselines.
    pub dests: Vec<AsId>,
    /// Engine/measurement knobs (one set for every baseline and query —
    /// the cache contract).
    pub params: RunParams,
    /// Engine seed shared by every baseline (part of the cache key).
    pub seed: u64,
    /// Baseline cache bound (`None` = unbounded). A bound below
    /// `protocols × dests` still answers correctly — evicted baselines
    /// re-converge cold on demand — it just stops being warm.
    pub cache_capacity: Option<usize>,
    /// Ceiling on each convergence phase's simulated time: the engine
    /// clamps [`RunParams::phase_deadline`] to it once, before it
    /// converges anything, so baselines and queries run one params set.
    /// Together with the engine's convergence watchdog this is why a
    /// query over a divergent regime answers with a `DIVERGED` frame
    /// instead of wedging the daemon.
    pub query_deadline: SimDuration,
}

impl QuerydConfig {
    /// Paper parameters, unbounded cache.
    pub fn new(protocols: Vec<Protocol>, dests: Vec<AsId>) -> QuerydConfig {
        QuerydConfig {
            protocols,
            dests,
            params: RunParams::paper(),
            seed: GRID_SEED,
            cache_capacity: None,
            query_deadline: SimDuration::from_secs(3600),
        }
    }
}

/// Typed refusal of a query (the `ERR code=` vocabulary; a request line
/// that fails to parse answers through `RequestError::to_response`).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The timeline names a link or node absent from the served topology,
    /// or carries an offset the clock cannot hold.
    Timeline(TimelineError),
    /// `PROTO` names a protocol the daemon was not started with.
    UnservedProtocol(Protocol),
    /// The destination has no resident baseline.
    UnservedDest(AsId),
    /// An AS id outside the served topology.
    NoSuchAs(AsId),
    /// `POLICY` named no built-in regime.
    NoSuchPolicy(String),
    /// The sim facade rejected the query.
    Sim(SimError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Timeline(e) => write!(f, "{e}"),
            QueryError::UnservedProtocol(p) => write!(
                f,
                "protocol {} has no resident baselines (restart the daemon with it)",
                crate::protocol::proto_token(*p)
            ),
            QueryError::UnservedDest(d) => {
                write!(f, "destination {} has no resident baseline", d.0)
            }
            QueryError::NoSuchAs(v) => write!(f, "no AS {} in the topology", v.0),
            QueryError::NoSuchPolicy(name) => write!(
                f,
                "no policy regime {name:?} (SHOW POLICIES lists the built-ins)"
            ),
            QueryError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryError {
    /// The stable `ERR code=` token of this refusal.
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::Timeline(TimelineError::NoSuchLink(..)) => "no-such-link",
            QueryError::Timeline(TimelineError::NoSuchNode(_)) => "no-such-node",
            QueryError::Timeline(TimelineError::OffsetTooLarge(_)) => "offset-too-large",
            QueryError::UnservedProtocol(_) => "unserved-protocol",
            QueryError::UnservedDest(_) => "unserved-dest",
            QueryError::NoSuchAs(_) => "no-such-as",
            QueryError::NoSuchPolicy(_) => "no-such-policy",
            QueryError::Sim(_) => "sim",
        }
    }

    /// The wire form.
    pub fn to_response(&self) -> Response {
        Response::Error {
            code: self.code().to_string(),
            message: self.to_string(),
        }
    }
}

/// One resident baseline: the converged session `SHOW ROUTE` /
/// `SHOW BASELINES` read — the same one the cache hands to queries, which
/// therefore stays resident even when a bounded cache evicts its entry.
struct Baseline {
    proto: Protocol,
    dest: AsId,
    sim: Arc<Sim>,
}

/// The resident service: owns the topology, the converged baseline
/// sessions, and the cache every query forks them from. All query
/// entry points take `&self` — the cache is internally locked, so one
/// engine can serve the stdin loop and TCP connections concurrently.
pub struct QueryEngine {
    g: AsGraph,
    cfg: QuerydConfig,
    cache: BaselineCache,
    baselines: Vec<Baseline>,
}

impl QueryEngine {
    /// Clamp `cfg`'s phase deadline to its query deadline, then converge
    /// every `(protocol, dest)` pair of `cfg` on `g` and deposit the
    /// sessions. Startup is the expensive step by design — queries then
    /// fork instead of converging.
    pub fn new(g: AsGraph, mut cfg: QuerydConfig) -> Result<QueryEngine, QueryError> {
        cfg.params.phase_deadline = cfg.params.phase_deadline.min(cfg.query_deadline);
        let cache = match cfg.cache_capacity {
            Some(cap) => BaselineCache::with_capacity(cap),
            None => BaselineCache::new(),
        };
        let mut baselines = Vec::with_capacity(cfg.dests.len() * cfg.protocols.len());
        for &dest in &cfg.dests {
            for &proto in &cfg.protocols {
                let mut sim = Sim::on(&g)
                    .protocol(proto)
                    .originate(dest, PREFIX)
                    .seed(cfg.seed)
                    .params(cfg.params.clone())
                    .build()
                    .map_err(QueryError::Sim)?;
                let sim = cache.deposit(&mut sim);
                baselines.push(Baseline { proto, dest, sim });
            }
        }
        Ok(QueryEngine {
            g,
            cfg,
            cache,
            baselines,
        })
    }

    /// The served topology.
    pub fn topology(&self) -> &AsGraph {
        &self.g
    }

    /// The serving configuration.
    pub fn config(&self) -> &QuerydConfig {
        &self.cfg
    }

    /// The baseline cache's occupancy and counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The deterministic one-line greeting a server writes on connect.
    pub fn banner(&self) -> String {
        let protos = self
            .cfg
            .protocols
            .iter()
            .map(|&p| crate::protocol::proto_token(p))
            .collect::<Vec<_>>()
            .join(",");
        let dests = self
            .cfg
            .dests
            .iter()
            .map(|d| d.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let cap = match self.cfg.cache_capacity {
            Some(c) => c.to_string(),
            None => "unbounded".to_string(),
        };
        format!(
            "READY ases={} links={} protocols={protos} dests={dests} baselines={} cache={cap}\n",
            self.g.n(),
            self.g.n_links(),
            self.baselines.len(),
        )
    }

    /// How long `WHATIF DRAIN-NODE` keeps the node down.
    const DRAIN: SimDuration = SimDuration::from_secs(60);

    /// Materialise a query shape as the [`Timeline`] the engine plays —
    /// public so tests can prove query-equals-timeline equivalence.
    pub fn timeline_of(&self, shape: &WhatIfShape) -> Timeline {
        match shape {
            WhatIfShape::FailLink(a, b) => Timeline::from_events(
                format!("whatif-fail-link-{}-{}", a.0, b.0),
                single_link_failure(*a, *b),
            ),
            WhatIfShape::DrainNode(v) => Timeline::from_events(
                format!("whatif-drain-node-{}", v.0),
                node_drain(*v, Self::DRAIN),
            ),
            WhatIfShape::Scn(t) => t.clone(),
        }
    }

    /// Answer a `WHATIF`: play the shape's timeline against every selected
    /// `(dest, protocol)` baseline (all served combinations when
    /// unspecified) and report the paper's disruption metrics per row.
    ///
    /// The request's shape is checked first (regime, protocol,
    /// destination); then the query is one cell per destination through
    /// [`run_cells`] on one worker, which refuses a timeline that does not
    /// resolve against the served topology, or whose offsets overflow the
    /// clock, before any cell runs or the cache is consulted.
    ///
    /// `policy` swaps every router onto a named built-in regime for this
    /// query. Non-default cells miss the resident baselines the first
    /// time, converge cold and deposit under the regime's own cache
    /// fingerprint — so a repeated `POLICY` query forks warm like any
    /// other.
    pub fn whatif(
        &self,
        shape: &WhatIfShape,
        proto: Option<Protocol>,
        dest: Option<AsId>,
        policy: Option<&str>,
    ) -> Result<Response, QueryError> {
        let params = match policy {
            Some(name) => {
                let regime = PolicyRegime::by_name(name)
                    .ok_or_else(|| QueryError::NoSuchPolicy(name.to_string()))?;
                let mut p = self.cfg.params.clone();
                p.policy = regime;
                p
            }
            None => self.cfg.params.clone(),
        };
        let protos: Vec<Protocol> = match proto {
            Some(p) if !self.cfg.protocols.contains(&p) => {
                return Err(QueryError::UnservedProtocol(p))
            }
            Some(p) => vec![p],
            None => self.cfg.protocols.clone(),
        };
        let dests: Vec<AsId> = match dest {
            Some(d) if !self.cfg.dests.contains(&d) => return Err(QueryError::UnservedDest(d)),
            Some(d) => vec![d],
            None => self.cfg.dests.clone(),
        };
        let timeline = self.timeline_of(shape);
        let cells: Vec<Cell<'_>> = dests
            .iter()
            .map(|&dest| Cell {
                timeline: &timeline,
                dest,
                seed: self.cfg.seed,
            })
            .collect();
        let results = run_cells(&self.g, &params, &protos, 1, &cells, Some(&self.cache))
            .map_err(QueryError::Timeline)?;
        let mut rows = Vec::with_capacity(dests.len() * protos.len());
        for (dest, row) in dests.into_iter().zip(results) {
            // Deltas are against the destination's first protocol row.
            let base = row.first().map_or(0, |(_, m)| m.affected as i64);
            rows.extend(row.into_iter().map(|(proto, metrics)| WhatIfRow {
                dest,
                proto,
                delta_affected: metrics.affected as i64 - base,
                metrics,
            }));
        }
        Ok(Response::WhatIf {
            scenario: timeline.name().to_string(),
            events: timeline.events().len(),
            rows,
        })
    }

    /// `SHOW POLICIES`: every named regime `WHATIF … POLICY` can use
    /// (the defaults plus research regimes like `naive-prefer-peer`),
    /// flagged with which one the daemon's baselines run, plus the cache
    /// fingerprint each would converge under.
    pub fn show_policies(&self) -> Response {
        let default_fp = self.cfg.params.policy.fingerprint();
        Response::Policies {
            rows: PolicyRegime::named()
                .iter()
                .map(|r| PolicyRow {
                    name: r.name.clone(),
                    default: r.fingerprint() == default_fp,
                    rules: r.imports.rules.len(),
                    fingerprint: r.fingerprint(),
                })
                .collect(),
        }
    }

    /// `SHOW BASELINES`: every resident converged session.
    pub fn show_baselines(&self) -> Response {
        Response::Baselines {
            ases: self.g.n(),
            links: self.g.n_links(),
            seed: self.cfg.seed,
            rows: self
                .baselines
                .iter()
                .map(|b| BaselineRow {
                    proto: b.proto,
                    dest: b.dest,
                    updates_initial: b.sim.updates_initial(),
                    paths: b.sim.interned_paths(),
                })
                .collect(),
        }
    }

    /// `SHOW ROUTE dest FROM from`: the selected AS path(s) per protocol,
    /// read from the resident converged sessions (STAMP reports one row
    /// per colour).
    pub fn show_route(&self, dest: AsId, from: AsId) -> Result<Response, QueryError> {
        let mut rows = Vec::new();
        for b in self.route_baselines(dest, from)? {
            let paths = b.sim.with_view(|v| v.selection_paths(from));
            if paths.is_empty() {
                rows.push(RouteRow {
                    proto: b.proto,
                    hops: Vec::new(),
                });
            } else {
                for hops in paths {
                    rows.push(RouteRow {
                        proto: b.proto,
                        hops,
                    });
                }
            }
        }
        Ok(Response::Route { dest, from, rows })
    }

    /// `SHOW ROUTE dest FROM from EXPLAIN`: why `from` selects what it
    /// selects in each resident converged session towards `dest` — every
    /// stored route of every process with its verdict, per protocol.
    pub fn explain_route(&self, dest: AsId, from: AsId) -> Result<Response, QueryError> {
        let mut rows = Vec::new();
        for b in self.route_baselines(dest, from)? {
            for (proc, why) in (0..).zip(b.sim.explain(from)) {
                rows.extend(why.candidates.iter().map(|c| CandidateRow {
                    proto: b.proto,
                    proc,
                    neighbor: c.neighbor,
                    pref: c.pref,
                    len: c.len,
                    verdict: c.lost_on,
                }));
            }
        }
        Ok(Response::Explain { dest, from, rows })
    }

    /// The resident baselines a `SHOW ROUTE` towards `dest` reads at
    /// `from`, or the refusal both of its forms give.
    fn route_baselines(
        &self,
        dest: AsId,
        from: AsId,
    ) -> Result<impl Iterator<Item = &Baseline>, QueryError> {
        if from.index() >= self.g.n() {
            return Err(QueryError::NoSuchAs(from));
        }
        if !self.cfg.dests.contains(&dest) {
            return Err(QueryError::UnservedDest(dest));
        }
        Ok(self.baselines.iter().filter(move |b| b.dest == dest))
    }

    /// `SHOW DISJOINTNESS dest`: the topology-level bound STAMP's
    /// complementary processes exploit (any in-range AS; no baseline
    /// needed — this is a pure graph property).
    pub fn show_disjointness(&self, dest: AsId) -> Result<Response, QueryError> {
        if dest.index() >= self.g.n() {
            return Err(QueryError::NoSuchAs(dest));
        }
        Ok(Response::Disjointness {
            dest,
            two_disjoint: two_disjoint_uphill_paths(&self.g, dest),
            max_disjoint: max_disjoint_uphill_paths(&self.g, dest, 8),
        })
    }

    /// Execute one request; refusals become `ERR` responses, never panics.
    pub fn execute(&self, req: &Request) -> Response {
        let result = match req {
            Request::WhatIf {
                shape,
                proto,
                dest,
                policy,
            } => self.whatif(shape, *proto, *dest, policy.as_deref()),
            Request::ShowBaselines => Ok(self.show_baselines()),
            Request::ShowCache => Ok(Response::Cache(self.cache.stats())),
            Request::ShowPolicies => Ok(self.show_policies()),
            Request::ShowRoute { dest, from } => self.show_route(*dest, *from),
            Request::ExplainRoute { dest, from } => self.explain_route(*dest, *from),
            Request::ShowDisjointness { dest } => self.show_disjointness(*dest),
            Request::Quit => Ok(Response::Bye),
        };
        result.unwrap_or_else(|e| e.to_response())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_workload::destination_candidates;

    fn small_engine(seed: u64) -> QueryEngine {
        let g = generate(&GenConfig::small(seed)).unwrap();
        let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
        let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Stamp], dests);
        cfg.params = RunParams::fast();
        cfg.seed = seed;
        QueryEngine::new(g, cfg).unwrap()
    }

    #[test]
    fn startup_deposits_every_baseline() {
        let e = small_engine(31);
        let stats = e.cache_stats();
        assert_eq!(stats.len, 4);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 0);
        match e.show_baselines() {
            Response::Baselines { rows, .. } => {
                assert_eq!(rows.len(), 4);
                assert!(rows.iter().all(|r| r.updates_initial > 0 && r.paths > 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.banner().starts_with("READY ases=200 "));
    }

    #[test]
    fn whatif_fans_over_served_combinations_and_hits_the_cache() {
        let e = small_engine(33);
        let dest = e.config().dests[0];
        let provider = e.topology().providers(dest)[0];
        let resp = e.execute(&Request::WhatIf {
            shape: WhatIfShape::FailLink(dest, provider),
            proto: None,
            dest: None,
            policy: None,
        });
        match &resp {
            Response::WhatIf {
                scenario,
                events,
                rows,
            } => {
                assert_eq!(
                    scenario,
                    &format!("whatif-fail-link-{}-{}", dest.0, provider.0)
                );
                assert_eq!(*events, 1);
                assert_eq!(rows.len(), 4, "2 protocols × 2 dests");
                // Per-dest delta is relative to that dest's first row.
                assert_eq!(rows[0].delta_affected, 0);
                assert_eq!(rows[2].delta_affected, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 4, "every row forked from a resident baseline");
        assert_eq!(stats.misses, 0);
        // The response round-trips byte-exactly like every other frame.
        let text = resp.to_string();
        assert_eq!(Response::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn narrowing_options_and_refusals() {
        let e = small_engine(35);
        let dest = e.config().dests[1];
        let provider = e.topology().providers(dest)[0];
        let resp = e.execute(&Request::WhatIf {
            shape: WhatIfShape::FailLink(dest, provider),
            proto: Some(Protocol::Stamp),
            dest: Some(dest),
            policy: None,
        });
        match resp {
            Response::WhatIf { rows, .. } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].proto, Protocol::Stamp);
                assert_eq!(rows[0].dest, dest);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unserved protocol/destination, unknown link, out-of-range AS.
        let errs = [
            (
                e.execute(&Request::WhatIf {
                    shape: WhatIfShape::FailLink(dest, provider),
                    proto: Some(Protocol::Rbgp),
                    dest: None,
                    policy: None,
                }),
                "unserved-protocol",
            ),
            (
                e.execute(&Request::WhatIf {
                    shape: WhatIfShape::DrainNode(provider),
                    proto: None,
                    dest: Some(AsId(199)),
                    policy: None,
                }),
                "unserved-dest",
            ),
            (
                e.execute(&Request::WhatIf {
                    shape: WhatIfShape::FailLink(AsId(0), AsId(1999)),
                    proto: None,
                    dest: None,
                    policy: None,
                }),
                "no-such-link",
            ),
            (
                e.execute(&Request::ShowRoute {
                    dest,
                    from: AsId(20_000),
                }),
                "no-such-as",
            ),
        ];
        for (resp, want) in errs {
            match resp {
                Response::Error { code, .. } => assert_eq!(code, want),
                other => panic!("expected ERR {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn divergent_policy_answers_a_diverged_frame() {
        use stamp_topology::GraphBuilder;
        use stamp_workload::WatchdogConfig;

        // The dispute-wheel gadget: origin 3 a customer of the peering
        // triangle 0-1-2. Baselines converge under the default regime;
        // the same cell under naive-prefer-peer cycles forever, and the
        // watchdog must turn that into a typed answer, not a wedged
        // daemon.
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.peering(1, 2).unwrap();
        b.peering(0, 2).unwrap();
        b.customer_of(3, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        let g = b.build().unwrap();
        let mut cfg = QuerydConfig::new(vec![Protocol::Bgp], vec![AsId(3)]);
        cfg.params = RunParams::fast();
        cfg.params.watchdog = WatchdogConfig {
            arm_after: SimDuration::from_secs(10),
            sample_every: SimDuration::from_secs(1),
            max_events: 10_000_000,
        };
        cfg.seed = 5;
        let e = QueryEngine::new(g, cfg).unwrap();

        let whatif = |policy: Option<String>| {
            e.execute(&Request::WhatIf {
                shape: WhatIfShape::DrainNode(AsId(0)),
                proto: Some(Protocol::Bgp),
                dest: Some(AsId(3)),
                policy,
            })
        };
        let resp = whatif(Some("naive-prefer-peer".to_string()));
        let text = resp.to_string();
        assert!(text.starts_with("DIVERGED "), "{text}");
        assert!(text.contains(" outcome=diverged "), "{text}");
        match &resp {
            Response::WhatIf { rows, .. } => {
                assert_eq!(rows.len(), 1);
                match rows[0].metrics.outcome {
                    stamp_workload::RunOutcome::Diverged { period, churn } => {
                        assert!(period > SimDuration::ZERO);
                        assert!(churn > 0);
                    }
                    other => panic!("expected Diverged, got {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // The DIVERGED frame is a first-class citizen of the round-trip
        // contract.
        assert_eq!(Response::parse(&text).unwrap().to_string(), text);
        // Same query, default regime: plain WHATIF, converged rows.
        let text = whatif(None).to_string();
        assert!(text.starts_with("WHATIF "), "{text}");
        assert!(text.contains(" outcome=converged "), "{text}");
    }

    #[test]
    fn policy_queries_run_named_regimes_and_reject_unknown_names() {
        let e = small_engine(39);
        let dest = e.config().dests[0];
        let provider = e.topology().providers(dest)[0];
        // SHOW POLICIES lists every built-in, exactly one default, and
        // round-trips byte-exactly.
        let resp = e.execute(&Request::ShowPolicies);
        match &resp {
            Response::Policies { rows } => {
                assert!(rows.len() >= 4);
                assert_eq!(rows.iter().filter(|r| r.default).count(), 1);
                assert!(rows.iter().any(|r| r.name == "gao-rexford" && r.default));
                // Fingerprints are pairwise distinct (they key the cache).
                for (i, a) in rows.iter().enumerate() {
                    for b in &rows[i + 1..] {
                        assert_ne!(a.fingerprint, b.fingerprint, "{} vs {}", a.name, b.name);
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        let text = resp.to_string();
        assert_eq!(Response::parse(&text).unwrap().to_string(), text);

        // POLICY naming the default regime is byte-identical to omitting it
        // and forks the resident baselines (hits, no misses).
        let shape = WhatIfShape::FailLink(dest, provider);
        let plain = e.execute(&Request::WhatIf {
            shape: shape.clone(),
            proto: Some(Protocol::Bgp),
            dest: Some(dest),
            policy: None,
        });
        let named = e.execute(&Request::WhatIf {
            shape: shape.clone(),
            proto: Some(Protocol::Bgp),
            dest: Some(dest),
            policy: Some("gao-rexford".to_string()),
        });
        assert_eq!(plain, named);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 0);

        // A non-default regime converges cold once (a miss that deposits
        // under its own fingerprint), then forks warm — and both runs
        // answer identically.
        let req = Request::WhatIf {
            shape,
            proto: Some(Protocol::Bgp),
            dest: Some(dest),
            policy: Some("shortest-path".to_string()),
        };
        let cold = e.execute(&req);
        assert_eq!(e.cache_stats().misses, 1);
        let warm = e.execute(&req);
        assert_eq!(cold, warm);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 3, "the second run forks the deposit");
        assert_eq!(stats.misses, 1);
        match cold {
            Response::WhatIf { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("unexpected {other:?}"),
        }

        // Unknown regimes refuse with a typed code; service continues.
        match e.execute(&Request::WhatIf {
            shape: WhatIfShape::DrainNode(provider),
            proto: None,
            dest: None,
            policy: Some("hot-potato".to_string()),
        }) {
            Response::Error { code, .. } => assert_eq!(code, "no-such-policy"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn show_route_reports_resident_selections() {
        let e = small_engine(37);
        let dest = e.config().dests[0];
        // The destination itself: BGP selects the empty origin path; the
        // view reports it as a one-row path per process.
        let resp = e.show_route(dest, dest).unwrap();
        match resp {
            Response::Route { rows, .. } => {
                assert!(!rows.is_empty());
                for r in &rows {
                    assert!(e.config().protocols.contains(&r.proto));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // Disjointness of a multi-homed candidate holds by construction.
        match e.show_disjointness(dest).unwrap() {
            Response::Disjointness {
                two_disjoint,
                max_disjoint,
                ..
            } => {
                assert!(two_disjoint);
                assert!(max_disjoint >= 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// At every AS of every resident baseline — all four protocols, both
    /// STAMP colours — the EXPLAIN winner of each process that holds a
    /// learned selection is the first hop of the path `SHOW ROUTE` reports
    /// for it, one `won` row per such process and none for the rest.
    #[test]
    fn explain_winners_are_show_route_first_hops() {
        let g = generate(&GenConfig::small(43)).unwrap();
        let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
        let mut cfg = QuerydConfig::new(Protocol::ALL.to_vec(), dests.clone());
        cfg.params = RunParams::fast();
        cfg.seed = 43;
        let e = QueryEngine::new(g, cfg).unwrap();
        let (mut learned, mut losers) = (0, 0);
        for &dest in &dests {
            for from in e.topology().ases() {
                let Response::Route { rows: paths, .. } = e.show_route(dest, from).unwrap() else {
                    panic!("SHOW ROUTE answers a route frame");
                };
                let Response::Explain { rows, .. } = e.explain_route(dest, from).unwrap() else {
                    panic!("EXPLAIN answers an explain frame");
                };
                for proto in Protocol::ALL {
                    let hops: Vec<AsId> = paths
                        .iter()
                        .filter(|r| r.proto == proto)
                        .filter_map(|r| r.hops.first().copied())
                        .collect();
                    let mine = rows.iter().filter(|r| r.proto == proto);
                    let won: Vec<AsId> = mine
                        .clone()
                        .filter(|r| r.verdict.is_none())
                        .map(|r| r.neighbor)
                        .collect();
                    assert_eq!(won, hops, "{proto:?} at {from} towards {dest}");
                    learned += won.len();
                    losers += mine.filter(|r| r.verdict.is_some()).count();
                }
            }
        }
        assert!(
            learned > 0 && losers > 0,
            "{learned} winners, {losers} losers"
        );
        // The same refusals as SHOW ROUTE.
        let served = dests[0];
        let refusals = [
            (
                Request::ExplainRoute {
                    dest: served,
                    from: AsId(20_000),
                },
                "no-such-as",
            ),
            (
                Request::ExplainRoute {
                    dest: AsId(199),
                    from: served,
                },
                "unserved-dest",
            ),
        ];
        for (req, want) in refusals {
            match e.execute(&req) {
                Response::Error { code, .. } => assert_eq!(code, want),
                other => panic!("expected ERR {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn capped_cache_evicts_fifo_and_still_answers() {
        let g = generate(&GenConfig::small(41)).unwrap();
        let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
        let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Stamp], dests.clone());
        cfg.params = RunParams::fast();
        cfg.seed = 41;
        cfg.cache_capacity = Some(2);
        let e = QueryEngine::new(g, cfg).unwrap();
        let stats = e.cache_stats();
        assert_eq!(stats.capacity, Some(2));
        assert_eq!(stats.len, 2, "startup deposits overflowed the bound");
        assert_eq!(stats.evictions, 2);
        // A query over everything: evicted baselines miss, re-converge and
        // re-deposit; resident ones fork. Answers stay identical to an
        // unbounded engine (bit-identity is cache-independent).
        let provider = e.topology().providers(dests[0])[0];
        let req = Request::WhatIf {
            shape: WhatIfShape::FailLink(dests[0], provider),
            proto: None,
            dest: None,
            policy: None,
        };
        let bounded = e.execute(&req);
        let stats = e.cache_stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert!(stats.misses >= 2, "the evicted baselines must miss");

        let mut cfg2 = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Stamp], dests);
        cfg2.params = RunParams::fast();
        cfg2.seed = 41;
        let e2 = QueryEngine::new(e.topology().clone(), cfg2).unwrap();
        assert_eq!(bounded, e2.execute(&req));
    }
}
