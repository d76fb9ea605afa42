//! queryd end-to-end guarantees: every answer a resident daemon gives is
//! bit-identical to a cold batch run of the same cell, query shapes are
//! exactly equivalent to their hand-built timelines, and the wire format
//! round-trips byte-for-byte under randomized traffic.

use stamp_repro::eventsim::check::{cases, gen};
use stamp_repro::eventsim::textfmt::assert_fixed_point;
use stamp_repro::eventsim::{Rng, SimDuration};
use stamp_repro::queryd::{
    serve, DaemonArgs, QueryEngine, QuerydConfig, Request, Response, WhatIfShape,
};
use stamp_repro::topology::{generate, AsId, GenConfig};
use stamp_repro::workload::{
    destination_candidates, parse_scn, run_cells, run_protocol_cell, Cell, InstanceMetrics,
    NetEvent, Protocol, RunOutcome, RunParams, Timeline, TimelineEvent,
};

fn engine(seed: u64) -> QueryEngine {
    let g = generate(&GenConfig::small(seed)).expect("valid generator config");
    let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
    let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp], dests);
    cfg.params = RunParams::fast();
    cfg.seed = seed;
    QueryEngine::new(g, cfg).expect("baselines converge")
}

/// The recorded daemon transcript: `smoke.in` served on the engine
/// `stamp_queryd --smoke` builds answers `smoke.golden` byte for byte —
/// startup convergence, every query verb, typed refusals and the farewell
/// in one comparison. This test is that golden's one gate.
#[test]
fn smoke_transcript_matches_its_golden() {
    let engine = DaemonArgs::parse("--smoke")
        .and_then(|args| args.engine())
        .expect("the smoke daemon starts");
    let mut out = Vec::new();
    serve(
        &engine,
        include_str!("../crates/queryd/transcripts/smoke.in").as_bytes(),
        &mut out,
    )
    .expect("in-memory serving cannot fail");
    assert_eq!(
        String::from_utf8(out).expect("frames are UTF-8"),
        include_str!("../crates/queryd/transcripts/smoke.golden"),
        "daemon transcript diverged from crates/queryd/transcripts/smoke.golden"
    );
}

/// `InstanceMetrics` equality by *bit pattern*: `words()` compares the
/// two f64 fields through `to_bits` (PartialEq would accept -0.0 == 0.0;
/// the determinism contract is stricter).
fn assert_bit_identical(a: &InstanceMetrics, b: &InstanceMetrics, what: &str) {
    assert_eq!(a, b, "{what}: metrics diverged");
    assert_eq!(a.words(), b.words(), "{what}: f64 bit patterns");
}

/// The tentpole guarantee: a resident daemon's answer for every query
/// shape matches `run_protocol_cell` cold — same topology, same timeline,
/// same seed, no cache — bit for bit, across every served (protocol,
/// destination) cell.
#[test]
fn query_answers_are_bit_identical_to_cold_batch_runs() {
    let e = engine(61);
    let g = e.topology().clone();
    let cfg = e.config().clone();
    let dest = cfg.dests[0];
    let provider = g.providers(dest)[0];
    let drill = parse_scn("scenario drill\nat 0s fail-node 42\nat 60s recover-node 42\n")
        .expect("inline scenario parses");
    let shapes = [
        WhatIfShape::FailLink(dest, provider),
        WhatIfShape::DrainNode(provider),
        WhatIfShape::Scn(drill),
    ];
    for shape in &shapes {
        let timeline = e.timeline_of(shape);
        let resp = e.execute(&Request::WhatIf {
            shape: shape.clone(),
            proto: None,
            dest: None,
            policy: None,
        });
        let rows = match resp {
            Response::WhatIf { rows, .. } => rows,
            other => panic!("expected WHATIF rows, got {other:?}"),
        };
        assert_eq!(rows.len(), cfg.protocols.len() * cfg.dests.len());
        for row in &rows {
            let reachable = timeline.reachable_after(&g, row.dest).unwrap();
            let cold = run_protocol_cell(
                &g,
                &cfg.params,
                &timeline,
                row.dest,
                &reachable,
                row.proto,
                cfg.seed,
            );
            assert_bit_identical(
                &row.metrics,
                &cold,
                &format!(
                    "{} dest {} / {}",
                    timeline.name(),
                    row.dest.0,
                    row.proto.label()
                ),
            );
        }
    }
}

/// The same bit-identity holds under a named non-default regime: a
/// `WHATIF … POLICY <r>` row equals `run_protocol_cell` cold with
/// `RunParams::policy` set to that regime — the daemon's policy axis is
/// pure parameterization, not a second code path.
#[test]
fn policy_query_answers_match_cold_runs_under_that_regime() {
    let e = engine(67);
    let g = e.topology().clone();
    let cfg = e.config().clone();
    let dest = cfg.dests[0];
    let provider = g.providers(dest)[0];
    let shape = WhatIfShape::FailLink(dest, provider);
    let timeline = e.timeline_of(&shape);
    for name in ["shortest-path", "prefer-peer", "long-path-tax"] {
        let resp = e.execute(&Request::WhatIf {
            shape: shape.clone(),
            proto: None,
            dest: Some(dest),
            policy: Some(name.to_string()),
        });
        let rows = match resp {
            Response::WhatIf { rows, .. } => rows,
            other => panic!("expected WHATIF rows, got {other:?}"),
        };
        assert_eq!(rows.len(), cfg.protocols.len());
        let mut params = cfg.params.clone();
        params.policy = stamp_repro::policy::PolicyRegime::by_name(name).expect("built-in");
        for row in &rows {
            let reachable = timeline.reachable_after(&g, row.dest).unwrap();
            let cold = run_protocol_cell(
                &g, &params, &timeline, row.dest, &reachable, row.proto, cfg.seed,
            );
            assert_bit_identical(
                &row.metrics,
                &cold,
                &format!("{} / {} under {}", row.dest.0, row.proto.label(), name),
            );
        }
    }
}

/// A what-if that cuts ASes off: the only provider link of a single-homed
/// AS fails, so the AS (and whatever hangs below it) has no path to either
/// served destination afterwards. Every row reports that count — the
/// `false` entries of the reachability mask — and is still the cold cell,
/// bit for bit; a batch cell list over the same timeline reports the same
/// count in every protocol column.
#[test]
fn a_whatif_that_cuts_ases_off_reports_them_unreachable() {
    let e = engine(73);
    let g = e.topology().clone();
    let cfg = e.config().clone();
    let cut_off = |v: AsId| {
        let shape = WhatIfShape::FailLink(v, g.providers(v)[0]);
        let timeline = e.timeline_of(&shape);
        let lost = |d: AsId| {
            let mask = timeline.reachable_after(&g, d).unwrap();
            mask.iter().filter(|r| !**r).count()
        };
        cfg.dests.iter().all(|&d| lost(d) > 0).then_some(shape)
    };
    let shape = g
        .ases()
        .filter(|&v| g.providers(v).len() == 1)
        .find_map(cut_off)
        .expect("the generated topology has a single-homed AS that the failure cuts off");
    let timeline = e.timeline_of(&shape);
    let rows = match e.execute(&Request::WhatIf {
        shape,
        proto: None,
        dest: None,
        policy: None,
    }) {
        Response::WhatIf { rows, .. } => rows,
        other => panic!("expected WHATIF rows, got {other:?}"),
    };
    assert_eq!(rows.len(), cfg.protocols.len() * cfg.dests.len());
    let cells: Vec<Cell<'_>> = cfg
        .dests
        .iter()
        .map(|&dest| Cell {
            timeline: &timeline,
            dest,
            seed: cfg.seed,
        })
        .collect();
    let batch = run_cells(&g, &cfg.params, &cfg.protocols, 2, &cells, None).unwrap();
    for (row, (proto, cell)) in rows.iter().zip(batch.iter().flatten()) {
        let what = format!("dest {} / {}", row.dest.0, row.proto.label());
        let reachable = timeline.reachable_after(&g, row.dest).unwrap();
        let lost = reachable.iter().filter(|r| !**r).count();
        assert!(row.metrics.unreachable > 0, "{what}");
        assert_eq!(row.metrics.unreachable, lost, "{what}");
        let cold = run_protocol_cell(
            &g,
            &cfg.params,
            &timeline,
            row.dest,
            &reachable,
            row.proto,
            cfg.seed,
        );
        assert_bit_identical(&row.metrics, &cold, &what);
        assert_eq!(*proto, row.proto, "{what}");
        assert_eq!(cell.unreachable, lost, "{what}: the batch column");
        assert_bit_identical(cell, &row.metrics, &format!("{what}: the batch cell"));
    }
}

/// A what-if whose timeline does not resolve is refused before any cache
/// lookup, as the cell runner refuses a cell list; a request wrong in two
/// ways answers for its shape (protocol, destination) first.
#[test]
fn an_unresolvable_whatif_is_refused_before_any_lookup() {
    let e = engine(79);
    let dests = &e.config().dests;
    let dest = dests[0];
    let unserved = e.topology().ases().find(|v| !dests.contains(v));
    let at = SimDuration::from_micros(u64::MAX);
    let wraps = Timeline::from_events(
        "wraps",
        vec![TimelineEvent {
            at,
            ev: NetEvent::NodeDown(dest),
        }],
    );
    let no_link = WhatIfShape::FailLink(dest, AsId(1999));
    let refusals = [
        (no_link.clone(), None, None, "no-such-link"),
        (WhatIfShape::Scn(wraps), None, None, "offset-too-large"),
        (
            no_link.clone(),
            Some(Protocol::RbgpNoRci),
            None,
            "unserved-protocol",
        ),
        (no_link, None, unserved, "unserved-dest"),
    ];
    let before = e.cache_stats();
    for (shape, proto, dest, want) in refusals {
        let resp = e.execute(&Request::WhatIf {
            shape,
            proto,
            dest,
            policy: None,
        });
        match resp {
            Response::Error { code, .. } => assert_eq!(code, want),
            other => panic!("expected ERR {want}, got {other:?}"),
        }
        assert_eq!(e.cache_stats(), before, "{want}: no lookup");
    }
}

/// `WHATIF FAIL-LINK a b` is *defined* as a one-event timeline; prove the
/// equivalence both at the timeline level and at the answer level against
/// an inline `WHATIF SCN` carrying the hand-built event.
#[test]
fn fail_link_query_equals_hand_built_one_event_timeline() {
    let e = engine(63);
    let dest = e.config().dests[1];
    let provider = e.topology().providers(dest)[0];
    let hand_built = Timeline::from_events(
        format!("whatif-fail-link-{}-{}", dest.0, provider.0),
        vec![TimelineEvent {
            at: SimDuration::ZERO,
            ev: NetEvent::LinkDown(dest, provider),
        }],
    );
    assert_eq!(
        e.timeline_of(&WhatIfShape::FailLink(dest, provider)),
        hand_built
    );

    let via_fail_link = e.execute(&Request::WhatIf {
        shape: WhatIfShape::FailLink(dest, provider),
        proto: None,
        dest: Some(dest),
        policy: None,
    });
    let via_scn = e.execute(&Request::WhatIf {
        shape: WhatIfShape::Scn(hand_built),
        proto: None,
        dest: Some(dest),
        policy: None,
    });
    assert_eq!(via_fail_link, via_scn);
    // And the equality survives the wire: both serialize identically
    // (modulo nothing — the scenario name is part of the timeline).
    assert_eq!(via_fail_link.to_string(), via_scn.to_string());
}

/// A random request of any shape the grammar admits.
fn arb_request(rng: &mut Rng) -> Request {
    let protos = Protocol::ALL;
    let regimes = [
        "gao-rexford",
        "shortest-path",
        "prefer-peer",
        "long-path-tax",
    ];
    let as_id = |rng: &mut Rng| AsId(rng.gen_range(0u32..2000));
    let shape = match rng.gen_range(0u32..3) {
        0 => WhatIfShape::FailLink(as_id(rng), as_id(rng)),
        1 => WhatIfShape::DrainNode(as_id(rng)),
        _ => {
            let n_events = rng.gen_range(1usize..4);
            let mut at = 0u64;
            let events = (0..n_events)
                .map(|_| {
                    at += rng.gen_range(0u64..5_000);
                    TimelineEvent {
                        at: SimDuration::from_micros(at * 1_000),
                        ev: if rng.gen_bool(0.5) {
                            NetEvent::NodeDown(as_id(rng))
                        } else {
                            NetEvent::NodeUp(as_id(rng))
                        },
                    }
                })
                .collect();
            WhatIfShape::Scn(Timeline::from_events("prop-scn", events))
        }
    };
    match rng.gen_range(0u32..8) {
        0 | 1 => Request::WhatIf {
            shape,
            proto: gen::option(rng, |rng| *rng.choose(&protos).expect("non-empty")),
            dest: gen::option(rng, as_id),
            policy: gen::option(rng, |rng| {
                rng.choose(&regimes).expect("non-empty").to_string()
            }),
        },
        2 => Request::ShowBaselines,
        3 => Request::ShowCache,
        4 => Request::ShowRoute {
            dest: as_id(rng),
            from: as_id(rng),
        },
        5 => Request::ShowPolicies,
        6 => Request::ExplainRoute {
            dest: as_id(rng),
            from: as_id(rng),
        },
        _ => Request::ShowDisjointness { dest: as_id(rng) },
    }
}

/// Randomized request traffic: `format(parse(format(r))) == format(r)`
/// byte-for-byte, for every request shape the grammar admits.
#[test]
fn random_requests_round_trip_byte_identically() {
    cases(300, 0x9E47D, |rng| {
        let req = arb_request(rng);
        let canonical = req.to_string();
        let reparsed = assert_fixed_point(&canonical, str::parse::<Request>, Request::to_string);
        assert_eq!(reparsed, req);
    });
}

/// Fuzz the response grammar through the shared cursor: a byte-level
/// mutation of a frame either fails with a typed error or parses to a
/// response whose print is a fixed point — never a panic, and nothing in
/// between. The valid frames are what a live daemon prints for every verb
/// (each kind, `ERR` and `BYE` included) plus a `DIVERGED` one, which no
/// converging topology produces on demand.
#[test]
fn mutated_response_frames_are_rejected_or_round_trip() {
    let e = engine(71);
    let (dest, from) = (e.config().dests[0].0, e.config().dests[1].0);
    let mut frames: Vec<String> = [
        format!("WHATIF DRAIN-NODE {from} DEST {dest}"),
        "SHOW BASELINES".to_string(),
        "SHOW CACHE".to_string(),
        "SHOW POLICIES".to_string(),
        format!("SHOW ROUTE {dest} FROM {from}"),
        format!("SHOW DISJOINTNESS {dest}"),
        format!("SHOW ROUTE {dest} FROM {from} EXPLAIN"),
        "WHATIF FAIL-LINK 1 1".to_string(),
        "QUIT".to_string(),
    ]
    .iter()
    .map(|line| e.execute(&line.parse().expect("valid request")).to_string())
    .collect();
    let mut diverged = Response::parse(&frames[0]).expect("own frame parses");
    if let Response::WhatIf { rows, .. } = &mut diverged {
        let (period, churn) = (SimDuration::from_secs(2), 144);
        rows[0].metrics.outcome = RunOutcome::Diverged { period, churn };
    }
    frames.push(diverged.to_string());
    assert!(frames[9].starts_with("DIVERGED ") && frames[7].starts_with("ERR "));
    assert!(frames[6].starts_with("EXPLAIN ") && frames[6].contains("\ncandidate "));
    cases(600, 0x9E47F, |rng| {
        let frame = rng.choose(&frames).expect("non-empty");
        assert_fixed_point(frame, Response::parse, Response::to_string);
        let fuzzed = gen::mutated(rng, frame);
        if Response::parse(&fuzzed).is_ok() {
            assert_fixed_point(&fuzzed, Response::parse, Response::to_string);
        }
    });
}

/// Randomized junk — shuffled words of the grammar, and byte-level
/// mutations of valid request lines (the request grammar's fuzz through
/// the shared cursor): a line either parses to a request whose print is a
/// fixed point, or comes back as a typed parse error the wire can carry as
/// an `ERR` frame. Never a panic, and nothing in between.
#[test]
fn random_junk_is_rejected_with_typed_errors() {
    let words: Vec<&str> = "WHATIF SHOW FAIL-LINK DRAIN-NODE SCN BASELINES ROUTE FROM EXPLAIN \
                            PROTO DEST bgp xyzzy 3 -7 1e9 scenario at 0s ;"
        .split(' ')
        .collect();
    cases(800, 0xA11CE, |rng| {
        let line = if gen::bool(rng) {
            let n = rng.gen_range(1usize..8);
            let shuffled = (0..n).map(|_| *rng.choose(&words).expect("non-empty"));
            shuffled.collect::<Vec<_>>().join(" ")
        } else {
            let valid = arb_request(rng).to_string();
            gen::mutated(rng, &valid)
        };
        match line.parse::<Request>() {
            Ok(_) => drop(assert_fixed_point(
                &line,
                str::parse::<Request>,
                Request::to_string,
            )),
            Err(e) => {
                let resp = e.to_response();
                match &resp {
                    Response::Error { code, message } => {
                        assert_eq!(code, "parse");
                        assert!(!message.is_empty());
                    }
                    other => panic!("expected ERR, got {other:?}"),
                }
                // And the ERR frame itself survives the wire.
                assert_fixed_point(&resp.to_string(), Response::parse, Response::to_string);
            }
        }
    });
}
