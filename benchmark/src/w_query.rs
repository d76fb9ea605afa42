//! `query_hit` and `query_churn`: the daemon's user. A `QueryEngine` on
//! the 2000-AS graph with 4 destinations × 3 protocols resident, served
//! by `serve_tcp` on a loopback socket in one thread; one client thread
//! sends seeded requests one at a time and waits for each reply's `END`
//! line. `serve_tcp` accepts one connection at a time, so one waiting
//! caller is the honest client model: a **closed loop, one client**, over
//! the host's **loopback interface, not a real link**.
//!
//! `query_hit`: unbounded cache, 45 % `WHATIF FAIL-LINK`, 45 % `WHATIF
//! DRAIN-NODE` (explicit `PROTO`/`DEST`), 10 % reads (`SHOW ROUTE`, `SHOW
//! DISJOINTNESS`, `SHOW CACHE`). Every what-if forks a resident baseline.
//!
//! `query_churn`: room for 4 of the 12 baselines, what-ifs only, 70 % of
//! them on 3 hot keys, every 10th under `POLICY long-path-tax`. A miss
//! converges cold, checkpoints, deposits and evicts.

use crate::cell::{digest_metrics, traced_cell};
use crate::common::{
    repeat_setup, repeat_setup_again, session, small_graph, timed, timed_passes, RunCfg, Traced,
    Untraced, PROTOCOLS,
};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use stamp_eventsim::{rng_stream, Rng};
use stamp_queryd::{serve_tcp, QueryEngine, QuerydConfig, Request, Response, WhatIfShape};
use stamp_topology::{AsGraph, AsId, StaticRoutes};
use stamp_workload::{
    choose_k, destination_candidates, provider_cone, run_protocol_cell, BaselineCache,
    InstanceMetrics, PolicyRegime, Protocol, RunParams,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const CHURN_CAPACITY: usize = 4;
const CHURN_POLICY: &str = "long-path-tax";

/// The daemon: a resident engine plus `serve_tcp` on a loopback socket in
/// one thread.
struct Daemon {
    engine: Arc<QueryEngine>,
    addr: SocketAddr,
    listener: TcpListener,
    server: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(g: AsGraph, cfg: QuerydConfig) -> Daemon {
        let engine = Arc::new(QueryEngine::new(g, cfg).expect("every baseline converges"));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener
            .local_addr()
            .expect("a bound socket has an address");
        let theirs = listener.try_clone().expect("clone the listener");
        let served = Arc::clone(&engine);
        let server = std::thread::spawn(move || serve_tcp(&served, &theirs));
        Daemon {
            engine,
            addr,
            listener,
            server,
        }
    }

    /// `serve_tcp` only returns when `accept` fails. Make it fail: switch
    /// the shared socket to non-blocking (an accept already blocked stays
    /// blocked), then wake it with one connection that closes at once; the
    /// next `accept` returns `WouldBlock` and the thread ends.
    fn stop(self) {
        self.listener
            .set_nonblocking(true)
            .expect("set the listener non-blocking");
        drop(TcpStream::connect(self.addr));
        let served = self.server.join().expect("the server thread panicked");
        assert!(served.is_err(), "serve_tcp only returns an accept error");
    }
}

/// One client connection; requests go out one at a time.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut c = Client { stream, reader };
        let mut banner = String::new();
        c.reader.read_line(&mut banner).expect("read the banner");
        assert!(banner.starts_with("READY "), "unexpected banner {banner:?}");
        c
    }

    /// Send one request line and read its frame up to and including the
    /// `END` line. `None` if the connection ended first (an unterminated
    /// frame).
    fn ask(&mut self, line: &str, frame: &mut String) -> Option<()> {
        frame.clear();
        self.stream.write_all(line.as_bytes()).ok()?;
        self.stream.write_all(b"\n").ok()?;
        loop {
            let at = frame.len();
            if self.reader.read_line(frame).ok()? == 0 {
                return None;
            }
            if &frame[at..] == "END\n" {
                return Some(());
            }
        }
    }
}

/// What the set-up builds and the timed passes use.
struct Served {
    daemon: Daemon,
    requests: Vec<Request>,
    lines: Vec<String>,
}

fn config(cfg: &RunCfg, g: &AsGraph, churn: bool) -> QuerydConfig {
    let seed = cfg.sub_seed(40);
    let mut rng = rng_stream(cfg.world_seed(40), 1);
    let dests = choose_k(&mut rng, &destination_candidates(g), 4);
    assert_eq!(dests.len(), 4, "the daemon serves four destinations");
    let mut q = QuerydConfig::new(PROTOCOLS.to_vec(), dests);
    q.seed = seed;
    if churn {
        q.cache_capacity = Some(CHURN_CAPACITY);
    }
    q
}

/// A seeded what-if about something on `dest`'s own uphill side: a link
/// of its provider cone failing, or a provider (direct or indirect)
/// draining.
fn whatif(g: &AsGraph, rng: &mut Rng, fail_link: bool, proto: Protocol, dest: AsId) -> Request {
    let cone = provider_cone(g, dest);
    let shape = if fail_link {
        let mut below = vec![dest];
        below.extend(cone.iter().copied().filter(|&v| !g.providers(v).is_empty()));
        let a = *rng
            .choose(&below)
            .expect("the destination itself is in the list");
        let b = *rng
            .choose(g.providers(a))
            .expect("filtered to ASes with providers");
        WhatIfShape::FailLink(a, b)
    } else {
        WhatIfShape::DrainNode(*rng.choose(&cone).expect("destinations are multi-homed"))
    };
    Request::WhatIf {
        shape,
        proto: Some(proto),
        dest: Some(dest),
        policy: None,
    }
}

/// The request sequence of one pass. *Which* requests a pass holds is the
/// world's: a what-if costs anything from 2 ms to 60 ms depending on what
/// fails, so 250 freshly drawn ones differ by ~15 % in total cost from
/// seed to seed — a property of the draw, not of the code under test.
/// `--seed` decides their order, which under churn decides what the
/// cache holds when each arrives.
fn requests(cfg: &RunCfg, g: &AsGraph, q: &QuerydConfig, churn: bool, n: usize) -> Vec<Request> {
    let mut rng = rng_stream(cfg.world_seed(41), u64::from(churn));
    let keys: Vec<(Protocol, AsId)> = q
        .dests
        .iter()
        .flat_map(|&d| PROTOCOLS.iter().map(move |&p| (p, d)))
        .collect();
    let mut hot = keys.clone();
    rng.shuffle(&mut hot);
    let (hot, cold) = hot.split_at(3);
    let mut requests: Vec<Request> = (0..n)
        .map(|i| {
            if churn {
                let pool = if rng.gen_range(0u32..10) < 7 {
                    hot
                } else {
                    cold
                };
                let &(p, d) = rng.choose(pool).expect("both pools are non-empty");
                let fail_link = rng.gen_bool(0.5);
                let mut r = whatif(g, &mut rng, fail_link, p, d);
                if i % 10 == 9 {
                    if let Request::WhatIf { policy, .. } = &mut r {
                        *policy = Some(CHURN_POLICY.to_string());
                    }
                }
                r
            } else {
                let &(p, d) = rng.choose(&keys).expect("twelve keys");
                match rng.gen_range(0u32..100) {
                    0..=44 => whatif(g, &mut rng, true, p, d),
                    45..=89 => whatif(g, &mut rng, false, p, d),
                    90..=93 => Request::ShowRoute {
                        dest: d,
                        from: AsId::from_usize(rng.gen_range(0..g.n())),
                    },
                    94..=97 => Request::ShowDisjointness {
                        dest: AsId::from_usize(rng.gen_range(0..g.n())),
                    },
                    _ => Request::ShowCache,
                }
            }
        })
        .collect();
    rng_stream(cfg.sub_seed(41), u64::from(churn)).shuffle(&mut requests);
    requests
}

fn setup(cfg: &RunCfg, churn: bool, per_pass: usize) -> Served {
    let g = small_graph(cfg.size(2000, 200), cfg.world_seed(40));
    let q = config(cfg, &g, churn);
    let requests = requests(cfg, &g, &q, churn, per_pass);
    let lines = requests.iter().map(Request::to_string).collect();
    Served {
        daemon: Daemon::start(g, q),
        requests,
        lines,
    }
}

/// `SHOW CACHE` replies carry lifetime counters, which differ from pass
/// to pass; every other reply is a pure function of the request.
fn fold_reply(d: &mut Digest, req: &Request, frame: &str) {
    if !matches!(req, Request::ShowCache) {
        d.bytes(frame.as_bytes());
    }
}

/// The cold answer to a single-cell what-if: `run_protocol_cell` on the
/// same inputs the daemon derives, with no cache anywhere.
fn cold_answer(engine: &QueryEngine, req: &Request) -> Option<InstanceMetrics> {
    let Request::WhatIf {
        shape,
        proto: Some(p),
        dest: Some(d),
        policy,
    } = req
    else {
        return None;
    };
    let (g, q) = (engine.topology(), engine.config());
    let params = query_params(q, policy.as_deref());
    let timeline = engine.timeline_of(shape);
    let reachable = crate::cell::reachable_after(g, &timeline, *d);
    Some(run_protocol_cell(
        g, &params, &timeline, *d, &reachable, *p, q.seed,
    ))
}

/// The run parameters the daemon uses for one query.
fn query_params(q: &QuerydConfig, policy: Option<&str>) -> RunParams {
    let mut params = q.params.clone();
    if let Some(name) = policy {
        params.policy = PolicyRegime::by_name(name).expect("the benchmark names a built-in");
    }
    params.phase_deadline = params.phase_deadline.min(q.query_deadline);
    params
}

/// The single row of a single-cell `WHATIF` frame, parsed back.
fn parsed_row(frame: &str) -> Option<InstanceMetrics> {
    match Response::parse(frame).ok()? {
        Response::WhatIf { rows, .. } if rows.len() == 1 => Some(rows[0].metrics),
        _ => None,
    }
}

/// The layer contrast between the two workloads: `query_hit` never
/// misses; `query_churn` hits strictly between 30 % and 90 % of the time.
fn hit_ratio_on_its_side(churn: bool, hits: f64, misses: f64) -> bool {
    let ratio = hits / (hits + misses).max(1.0);
    if churn {
        ratio > 0.3 && ratio < 0.9
    } else {
        misses == 0.0
    }
}

pub fn untraced(cfg: &RunCfg, churn: bool) -> Untraced {
    let per_pass = cfg.size(250, 40);
    let (served, setup_s) = repeat_setup(|| setup(cfg, churn, per_pass), |s| s.daemon.stop());
    let mut out = Untraced {
        setup_s,
        ..Untraced::default()
    };
    let engine = Arc::clone(&served.daemon.engine);
    let startup = engine.cache_stats();

    // A short untimed warm-up on its own connection: first-touch page
    // faults and the allocator's growth are not what a resident daemon's
    // user sees. It replays the *tail* of the sequence, so the first
    // timed pass finds the bounded cache as every later pass does — as
    // the end of the sequence left it — and all passes miss alike.
    let mut frame = String::new();
    let mut client = Client::connect(served.daemon.addr);
    for line in &served.lines[per_pass - cfg.size(60, 10)..] {
        client.ask(line, &mut frame);
    }
    client.ask("QUIT", &mut frame);
    drop(client);
    let warmed = engine.cache_stats();

    let mut frames: Vec<String> = Vec::new();
    let mut first_digest: Option<Digest> = None;
    let mut first_pass_cache = warmed;
    let (mut bad_frames, mut drifted) = (0u64, 0u64);
    out.unit_ms = timed_passes(cfg.seconds, 4, |pass| {
        // One connection per pass, as a user's session would be. A unit
        // is one request: client send to `END` line.
        let mut client = Client::connect(served.daemon.addr);
        let mut digest = Digest::default();
        let mut units = Vec::with_capacity(per_pass);
        for (req, line) in served.requests.iter().zip(&served.lines) {
            let got = timed(&mut units, || client.ask(line, &mut frame));
            if got.is_none() || frame.starts_with("ERR ") {
                bad_frames += 1;
            }
            fold_reply(&mut digest, req, &frame);
            if pass == 0 {
                frames.push(frame.clone());
            }
        }
        client.ask("QUIT", &mut frame);
        match first_digest {
            None => {
                first_digest = Some(digest);
                first_pass_cache = engine.cache_stats();
            }
            Some(f) if f != digest => drifted += 1,
            Some(_) => {}
        }
        units
    });
    let total = (out.unit_ms.len() * per_pass) as u64;
    out.checks
        .tally(total, bad_frames, "an ERR or unterminated frame");
    out.checks.check(drifted == 0, || {
        format!("{drifted} passes answered differently than the first pass")
    });

    // A seeded sample of first-pass what-if replies against the cold
    // batch path, bit for bit.
    let mut rng = rng_stream(cfg.sub_seed(42), 0);
    let whatifs: Vec<usize> = (0..per_pass)
        .filter(|&i| matches!(served.requests[i], Request::WhatIf { .. }))
        .collect();
    let mut sample = whatifs.clone();
    rng.shuffle(&mut sample);
    for &i in sample.iter().take(cfg.size(16, 4)) {
        let cold = cold_answer(&engine, &served.requests[i]);
        let got = parsed_row(&frames[i]);
        out.checks.check(got.is_some() && got == cold, || {
            format!(
                "reply to {:?} differs from the cold cell: {got:?} vs {cold:?}",
                served.lines[i]
            )
        });
    }
    // A reply row whose outcome is not `converged` is a failed operation.
    for &i in &whatifs {
        let row = parsed_row(&frames[i]);
        out.checks
            .check(row.is_some_and(|m| m.outcome.is_converged()), || {
                format!("reply to {:?} did not converge: {row:?}", served.lines[i])
            });
    }

    // Cache traffic of the first timed pass: a function of the seed. The
    // two workloads must stay on their sides of the cache — every what-if
    // a hit, or a real mix of hits and misses.
    let hits = first_pass_cache.hits - warmed.hits;
    let misses = first_pass_cache.misses - warmed.misses;
    let on_its_side = hit_ratio_on_its_side(churn, hits as f64, misses as f64);
    out.checks.check(on_its_side && startup.misses == 0, || {
        format!("first pass: {hits} cache hits, {misses} misses")
    });
    out.ops_per_pass = per_pass as f64;
    // The gated percentiles are over the pass's requests, each at its
    // quiet latency; what the client saw, host noise included — every
    // sample of every pass, pooled — is reported beside them.
    out.latencies_ms = out.quiet_units_ms();
    out.raw_latencies_ms = out.unit_ms.concat();
    out.digest = first_digest.expect("at least one pass ran");
    out.counters
        .insert("requests_per_pass".to_string(), per_pass as u64);
    out.counters
        .insert("whatifs_per_pass".to_string(), whatifs.len() as u64);
    out.counters
        .insert("first_pass_cache_hits".to_string(), hits);
    out.counters
        .insert("first_pass_cache_misses".to_string(), misses);
    out.counters.insert(
        "first_pass_cache_evictions".to_string(),
        first_pass_cache.evictions - warmed.evictions,
    );
    served.daemon.stop();
    // One daemon at a time, so `peak_rss_mb` stays one daemon's.
    drop(engine);
    repeat_setup_again(
        &mut out.setup_s,
        || setup(cfg, churn, per_pass),
        |s| s.daemon.stop(),
    );
    out
}

/// The shadow of one what-if: the same steps `QueryEngine::whatif` takes,
/// each under its own span, ending in the traced cell. Returns the
/// metrics and the nanoseconds of the steps the product path also takes
/// (the decomposition's extra replay and rewind left out).
fn shadow(
    tr: &mut Tracer,
    engine: &QueryEngine,
    cache: &BaselineCache,
    req: &Request,
) -> Option<(InstanceMetrics, u64, crate::cell::CellWork)> {
    let Request::WhatIf {
        shape,
        proto: Some(p),
        dest: Some(d),
        policy,
    } = req
    else {
        return None;
    };
    let (g, q) = (engine.topology(), engine.config());
    let first = tr.spans().len();
    let root = tr.enter("shadow.whatif");
    let params = tr.span("policy.resolve", || query_params(q, policy.as_deref()));
    let timeline = tr.span("workload.timeline_of", || engine.timeline_of(shape));
    let removed = tr
        .span("workload.timeline_resolve", || timeline.removed_links(g))
        .expect("the daemon answered, so the timeline resolves");
    let g_after = tr.span("topology.without_links", || g.without_links(&removed));
    let reachable: Vec<bool> = tr.span("topology.static_routes", || {
        let truth = StaticRoutes::compute(&g_after, *d);
        (0..g.n())
            .map(|v| truth.reachable(AsId::from_usize(v)))
            .collect()
    });
    let (m, work) = traced_cell(tr, g, &params, &timeline, *d, &reachable, *p, q.seed, cache);
    tr.span("topology.drop_after", || {
        drop((g_after, reachable, removed))
    });
    tr.exit(root);
    let product_ns: u64 = tr.spans()[first..]
        .iter()
        .filter(|s| {
            !s.name.starts_with("decompose.")
                && !matches!(s.name, "shadow.whatif" | "workload.cell")
        })
        .map(|s| s.dur_ns())
        .sum();
    Some((m, product_ns, work))
}

pub fn traced(cfg: &RunCfg, churn: bool, tr: &mut Tracer, out: &mut Traced) {
    let per_pass = cfg.size(200, 30);
    let t0 = Instant::now();
    let served = setup(cfg, churn, per_pass);
    out.set("queryd.startup_ms", t0.elapsed().as_secs_f64() * 1e3);
    let engine = Arc::clone(&served.daemon.engine);
    let (g, q) = (engine.topology(), engine.config());

    // The shadow's own cache, driven through the same put/get sequence as
    // the daemon's: same bound, same start-up deposits in the same order.
    let shadow_cache = match q.cache_capacity {
        Some(cap) => BaselineCache::with_capacity(cap),
        None => BaselineCache::new(),
    };
    let fp = q.params.policy.fingerprint();
    for &d in &q.dests {
        for &p in &q.protocols {
            let mut sim = session(g, p, d, q.seed, &q.params);
            sim.converge();
            shadow_cache.put(p, d, q.seed, fp, sim.checkpoint());
        }
    }

    // Pass A, in process, traced: parse → execute → format per request,
    // then the request's shadow.
    let before = engine.cache_stats();
    let t0 = Instant::now();
    let mut in_process_ns = Vec::with_capacity(per_pass);
    let mut coverages = Vec::with_capacity(per_pass);
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let mut err_frames = 0u64;
    let mut work = crate::cell::CellWork::default();
    let mut texts = Vec::with_capacity(per_pass);
    for (i, line) in served.lines.iter().enumerate() {
        tr.set_id(i as u64 + 1);
        // Whichever of the daemon and the shadow answers second finds the
        // baseline and the graph in the CPU's caches; they take turns, so
        // `span_coverage` is not biased towards either.
        let shadow_first = i % 2 == 1;
        let mut shadowed = None;
        if shadow_first {
            shadowed = shadow(tr, &engine, &shadow_cache, &served.requests[i]);
        }
        let root = tr.enter("queryd.request");
        let req = tr
            .span("queryd.parse", || line.parse::<Request>())
            .expect("the benchmark's own request lines parse");
        let open = tr.enter("queryd.execute");
        let resp = engine.execute(&req);
        let exec = tr.exit(open);
        let text = tr.span("queryd.format", || resp.to_string());
        in_process_ns.push(tr.exit(root) as f64);
        if matches!(resp, Response::Error { .. }) {
            err_frames += 1;
        }
        fold_reply(&mut out.digest, &req, &text);
        let kind = match &req {
            Request::WhatIf {
                shape: WhatIfShape::FailLink(..),
                ..
            } => Some(0),
            Request::WhatIf {
                shape: WhatIfShape::DrainNode(..),
                ..
            } => Some(1),
            Request::ShowRoute { .. } => Some(2),
            Request::ShowDisjointness { .. } => Some(3),
            _ => None,
        };
        if let Some(k) = kind {
            by_kind[k].push(exec as f64);
        }
        if !shadow_first {
            shadowed = shadow(tr, &engine, &shadow_cache, &req);
        }
        if let Some((m, product_ns, w)) = shadowed {
            let answered = match &resp {
                Response::WhatIf { rows, .. } if rows.len() == 1 => Some(rows[0].metrics),
                _ => None,
            };
            out.checks.check(answered == Some(m), || {
                format!("shadow of {line:?} measured {m:?}, the daemon answered {answered:?}")
            });
            digest_metrics(&mut out.digest, &m);
            coverages.push(product_ns as f64 / exec.max(1) as f64);
            work.add(&w);
        }
        texts.push(text);
    }
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = engine.cache_stats();

    // Pass B, over loopback, untraced: the client's round trips for the
    // same requests. (Second, so that the traced pass above and its
    // shadow cache both start from the daemon's start-up state; under
    // churn this pass therefore meets a different cache state.)
    let mut frame = String::new();
    let mut client = Client::connect(served.daemon.addr);
    let t0 = Instant::now();
    let mut rtt_ns = Vec::with_capacity(per_pass);
    for ((line, req), text) in served.lines.iter().zip(&served.requests).zip(&texts) {
        let t = Instant::now();
        client.ask(line, &mut frame);
        rtt_ns.push(t.elapsed().as_nanos() as f64);
        out.checks
            .check(matches!(req, Request::ShowCache) || frame == *text, || {
                format!("loopback reply to {line:?} differs from the in-process reply")
            });
    }
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    client.ask("QUIT", &mut frame);
    drop(client);

    // The decomposition is verified, not assumed: the shadow's product
    // steps must add up to what `execute` took, within a tenth. The median
    // over the what-ifs, not a ratio of sums: when a what-if takes half a
    // millisecond, one scheduler hiccup decides a ratio of sums.
    let coverage = median(&coverages).unwrap_or(0.0);
    out.checks.check((0.9..=1.1).contains(&coverage), || {
        format!("queryd.span_coverage {coverage:.3} outside [0.9, 1.1]")
    });
    // The shadow cache replayed the daemon's traffic exactly.
    let mine = shadow_cache.stats();
    out.checks.check(
        (mine.hits, mine.misses) == (after.hits - before.hits, after.misses - before.misses),
        || {
            format!(
                "shadow cache saw {}/{} hits/misses, the daemon {}/{}",
                mine.hits,
                mine.misses,
                after.hits - before.hits,
                after.misses - before.misses
            )
        },
    );

    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    out.set("queryd.span_coverage", coverage);
    out.set("queryd.err_frames", err_frames as f64);
    out.set(
        "queryd.execute_ms",
        med(&tr.durations("queryd.execute")) / 1e6,
    );
    out.set("queryd.whatif_fail_link_ms", med(&by_kind[0]) / 1e6);
    out.set("queryd.whatif_drain_node_ms", med(&by_kind[1]) / 1e6);
    out.set("queryd.show_route_us", med(&by_kind[2]) / 1e3);
    out.set("queryd.show_disjointness_us", med(&by_kind[3]) / 1e3);
    // Client round trip minus in-process total, means over the same
    // requests. Base: the mean round trip.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    out.set(
        "queryd.transport_us",
        (mean(&rtt_ns) - mean(&in_process_ns)) / 1e3,
    );
    out.set(
        "trace.transport_ms",
        (rtt_ns.iter().sum::<f64>() - in_process_ns.iter().sum::<f64>()) / 1e6,
    );
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    out.set("workload.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.checks
        .check(hit_ratio_on_its_side(churn, hits, misses), || {
            format!("traced pass: {hits} cache hits, {misses} misses")
        });
    out.set(
        "workload.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set("eventsim.events", work.events as f64);
    out.set("bgp.delivered", work.delivered as f64);
    out.set("bgp.coalesced", work.coalesced as f64);
    out.set("bgp.dropped", work.dropped as f64);
    out.set("trace.pass_ms", traced_ms);
    out.set("trace.untraced_pass_ms", untraced_ms);
    out.counters
        .insert("trace.cache_hits".to_string(), hits as u64);
    out.counters
        .insert("trace.cache_misses".to_string(), misses as u64);
    out.counters
        .insert("trace.replay_events".to_string(), work.replay_events);
    served.daemon.stop();
}
