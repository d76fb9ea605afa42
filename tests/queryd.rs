//! queryd end-to-end guarantees: every answer a resident daemon gives is
//! bit-identical to a cold batch run of the same cell, query shapes are
//! exactly equivalent to their hand-built timelines, and the wire format
//! round-trips byte-for-byte under randomized traffic.

use stamp_repro::eventsim::check::cases;
use stamp_repro::eventsim::SimDuration;
use stamp_repro::queryd::{QueryEngine, QuerydConfig, Request, Response, WhatIfShape};
use stamp_repro::topology::{generate, AsId, GenConfig};
use stamp_repro::workload::{
    destination_candidates, parse_scn, run_protocol_cell, InstanceMetrics, NetEvent, Protocol,
    RunParams, Timeline, TimelineEvent,
};

fn engine(seed: u64) -> QueryEngine {
    let g = generate(&GenConfig::small(seed)).expect("valid generator config");
    let dests: Vec<AsId> = destination_candidates(&g).into_iter().take(2).collect();
    let mut cfg = QuerydConfig::new(vec![Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp], dests);
    cfg.params = RunParams::fast();
    cfg.seed = seed;
    QueryEngine::new(g, cfg).expect("baselines converge")
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

/// Randomized request traffic: `format(parse(format(r))) == format(r)`
/// byte-for-byte, for every request shape the grammar admits.
#[test]
fn random_requests_round_trip_byte_identically() {
    let protos = [
        Protocol::Bgp,
        Protocol::RbgpNoRci,
        Protocol::Rbgp,
        Protocol::Stamp,
    ];
    cases(300, 0x9E47D, |rng| {
        let as_id = |rng: &mut stamp_repro::eventsim::Rng| AsId(rng.gen_range(0u32..2000));
        let proto = |rng: &mut stamp_repro::eventsim::Rng| {
            if rng.gen_bool(0.5) {
                Some(*rng.choose(&protos).expect("non-empty"))
            } else {
                None
            }
        };
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
        let regimes = [
            "gao-rexford",
            "shortest-path",
            "prefer-peer",
            "long-path-tax",
        ];
        let req = match rng.gen_range(0u32..7) {
            0 | 1 => Request::WhatIf {
                shape,
                proto: proto(rng),
                dest: if rng.gen_bool(0.5) {
                    Some(as_id(rng))
                } else {
                    None
                },
                policy: if rng.gen_bool(0.5) {
                    Some(rng.choose(&regimes).expect("non-empty").to_string())
                } else {
                    None
                },
            },
            2 => Request::ShowBaselines,
            3 => Request::ShowCache,
            4 => Request::ShowRoute {
                dest: as_id(rng),
                from: as_id(rng),
            },
            5 => Request::ShowPolicies,
            _ => Request::ShowDisjointness { dest: as_id(rng) },
        };
        let canonical = req.to_string();
        let reparsed: Request = canonical.parse().expect("canonical form parses");
        assert_eq!(reparsed, req);
        assert_eq!(reparsed.to_string(), canonical, "format is a fixed point");
    });
}

/// Randomized junk: corrupted request lines must come back as typed parse
/// errors (an `ERR code=` the wire can carry), never a panic.
#[test]
fn random_junk_is_rejected_with_typed_errors() {
    let words = [
        "WHATIF",
        "SHOW",
        "FAIL-LINK",
        "DRAIN-NODE",
        "SCN",
        "BASELINES",
        "ROUTE",
        "FROM",
        "PROTO",
        "DEST",
        "bgp",
        "xyzzy",
        "3",
        "-7",
        "1e9",
        "scenario",
        "at",
        "0s",
        ";",
    ];
    cases(300, 0xA11CE, |rng| {
        let n = rng.gen_range(1usize..8);
        let line = (0..n)
            .map(|_| *rng.choose(&words).expect("non-empty"))
            .collect::<Vec<_>>()
            .join(" ");
        match line.parse::<Request>() {
            Ok(req) => {
                // The grammar is small; if the shuffle landed on a valid
                // request it must still round-trip canonically.
                let text = req.to_string();
                assert_eq!(text.parse::<Request>().expect("canonical parses"), req);
            }
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
                let text = resp.to_string();
                assert_eq!(
                    Response::parse(&text)
                        .expect("ERR frame parses")
                        .to_string(),
                    text
                );
            }
        }
    });
}
