//! Property-based tests (in-repo `check` harness) over the core data
//! structures and the paper's invariants.

use stamp_repro::bgp::patharena::PathArena;
use stamp_repro::bgp::types::{PathAttrs, PrefixId, Route};
use stamp_repro::eventsim::check::{cases, gen};
use stamp_repro::eventsim::Rng;
use stamp_repro::topology::path::{check_valley_free, split_uphill_downhill, ValleyCheck};
use stamp_repro::topology::uphill::UphillDag;
use stamp_repro::topology::{generate, AsId, GenConfig, StaticRoutes};

mod regimes;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_gen_config(rng: &mut Rng) -> GenConfig {
    let n = rng.gen_range(30usize..160);
    let t1 = rng.gen_range(2usize..6);
    let seed = rng.next_u64();
    let peers = gen::f64_in(rng, 0.0, 1.2);
    GenConfig {
        n_ases: n,
        n_tier1: t1,
        peer_links_per_transit: peers,
        seed,
        ..GenConfig::small(seed)
    }
}

// ---------------------------------------------------------------------
// Topology generation and the static solver
// ---------------------------------------------------------------------

/// Generated topologies validate (acyclic hierarchy) and are fully
/// connected: the stable state reaches every AS.
#[test]
fn generated_topologies_connected() {
    cases(32, 0x701, |rng| {
        let cfg = arb_gen_config(rng);
        let g = generate(&cfg).expect("generator accepts its own domain");
        let dest = AsId(rng.gen_range(0u32..g.n() as u32));
        let routes = StaticRoutes::compute(&g, dest);
        assert_eq!(routes.n_reachable(), g.n());
    });
}

/// Every stable-state path is simple, valley-free and has consistent
/// length bookkeeping.
#[test]
fn static_paths_valley_free() {
    cases(32, 0x702, |rng| {
        let cfg = arb_gen_config(rng);
        let g = generate(&cfg).expect("valid");
        let dest = AsId(rng.gen_range(0u32..g.n() as u32));
        let routes = StaticRoutes::compute(&g, dest);
        for v in g.ases() {
            let p = routes.path(v).expect("connected");
            assert_eq!(check_valley_free(&g, &p), ValleyCheck::Ok);
            assert_eq!(p.len() as u32 - 1, routes.route(v).unwrap().len);
        }
    });
}

/// Uphill path counts match exhaustive enumeration when small, and the
/// uphill/downhill split covers every stable path.
#[test]
fn uphill_counts_match_enumeration() {
    cases(32, 0x703, |rng| {
        let cfg = arb_gen_config(rng);
        let g = generate(&cfg).expect("valid");
        let dag = UphillDag::new(&g);
        let v = AsId(rng.gen_range(0u32..g.n() as u32));
        if let Some(paths) = dag.enumerate_paths(&g, v, 500) {
            assert_eq!(paths.len() as f64, dag.path_count(v));
            for p in &paths {
                // Uphill paths are pure customer→provider chains: their
                // split has an empty downhill range.
                let split = split_uphill_downhill(&g, p).expect("valley-free");
                assert!(split.downhill_range().is_empty() || p.len() == 1);
            }
        }
    });
}

/// Goodness of locked paths is consistent with the max-flow bound:
/// a good locked path implies a disjoint pair exists.
#[test]
fn good_paths_imply_disjoint_pair() {
    use stamp_repro::topology::disjoint::{good_locked_path, two_disjoint_uphill_paths};
    cases(32, 0x704, |rng| {
        let cfg = arb_gen_config(rng);
        let g = generate(&cfg).expect("valid");
        let dag = UphillDag::new(&g);
        let m = AsId(rng.gen_range(0u32..g.n() as u32));
        if g.is_tier1(m) || g.providers(m).len() < 2 {
            return;
        }
        if let Some(paths) = dag.enumerate_paths(&g, m, 200) {
            let any_good = paths.iter().any(|p| good_locked_path(&g, p));
            if any_good {
                assert!(two_disjoint_uphill_paths(&g, m));
            }
            if !two_disjoint_uphill_paths(&g, m) {
                assert!(!any_good);
            }
        }
    });
}

mod static_routes_oracle {
    use super::*;
    use stamp_repro::topology::{AsGraph, LinkId, RouteKind, StaticRoute};
    use stamp_repro::workload::destination_candidates;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    /// The three-phase solver with phase 3 as a binary-heap Dijkstra that
    /// pops `(length, AS, next hop)`, as `StaticRoutes::compute` was
    /// before its frontier became length buckets. Also returns how many
    /// ASes were offered a provider route by the phase-1/2 seeds (in the
    /// ascending-id order the bucketed solver seeds in) *after* a longer
    /// one: the ASes whose tentative length is lowered.
    fn heap_reference(g: &AsGraph, dest: AsId) -> (Vec<Option<StaticRoute>>, usize) {
        let n = g.n();
        let route = |kind, len, next_hop| {
            Some(StaticRoute {
                kind,
                len,
                next_hop,
            })
        };
        let mut routes: Vec<Option<StaticRoute>> = vec![None; n];
        routes[dest.index()] = route(RouteKind::Origin, 0, None);
        let mut cust_len = vec![u32::MAX; n];
        cust_len[dest.index()] = 0;
        let mut queue = VecDeque::from([dest]);
        while let Some(v) = queue.pop_front() {
            for &p in g.providers(v) {
                if cust_len[p.index()] == u32::MAX {
                    cust_len[p.index()] = cust_len[v.index()] + 1;
                    queue.push_back(p);
                }
            }
        }
        for v in g.ases() {
            let len = cust_len[v.index()];
            if v != dest && len != u32::MAX {
                let nh = g
                    .customers(v)
                    .iter()
                    .copied()
                    .filter(|c| cust_len[c.index()] == len - 1)
                    .min();
                routes[v.index()] = route(RouteKind::Customer, len, nh);
            }
        }
        for v in g.ases() {
            if routes[v.index()].is_none() {
                let best = g
                    .peers(v)
                    .iter()
                    .filter(|u| cust_len[u.index()] != u32::MAX)
                    .map(|&u| (cust_len[u.index()] + 1, u))
                    .min();
                if let Some((len, u)) = best {
                    routes[v.index()] = route(RouteKind::Peer, len, Some(u));
                }
            }
        }
        let mut heap = BinaryHeap::new();
        let mut first_offer = vec![u32::MAX; n];
        let mut lowered = 0;
        for v in g.ases() {
            if let Some(r) = routes[v.index()] {
                for &c in g.customers(v) {
                    if routes[c.index()].is_none() {
                        let first = &mut first_offer[c.index()];
                        lowered += usize::from(*first != u32::MAX && r.len + 1 < *first);
                        *first = (*first).min(r.len + 1);
                        heap.push(Reverse((r.len + 1, c, v)));
                    }
                }
            }
        }
        while let Some(Reverse((len, v, via))) = heap.pop() {
            if routes[v.index()].is_some() {
                continue;
            }
            routes[v.index()] = route(RouteKind::Provider, len, Some(via));
            for &c in g.customers(v) {
                if routes[c.index()].is_none() {
                    heap.push(Reverse((len + 1, c, v)));
                }
            }
        }
        (routes, lowered)
    }

    /// The removals a destination is checked under: none, a seeded
    /// sprinkle of links, and a cut that partitions — every provider and
    /// peer link of one AS that is not the destination, so it and the
    /// part of its customer cone the destination is not in lose the
    /// destination.
    fn removal_sets(g: &AsGraph, dest: AsId, rng: &mut Rng) -> Vec<Vec<LinkId>> {
        let sprinkle = (0..g.n_links() / 50 + 1)
            .map(|_| LinkId(rng.gen_range(0u32..g.n_links() as u32)))
            .collect();
        let victim = loop {
            let v = AsId(rng.gen_range(0u32..g.n() as u32));
            if v != dest && !g.is_tier1(v) {
                break v;
            }
        };
        let cut = g
            .providers(victim)
            .iter()
            .chain(g.peers(victim))
            .filter_map(|&u| g.link_between(victim, u))
            .collect();
        vec![Vec::new(), sprinkle, cut]
    }

    /// `StaticRoutes::compute` (length buckets) equals the heap solver on
    /// every AS — kind, length and next hop — for every destination
    /// candidate of generated 200- and 2000-AS topologies, on the whole
    /// graph and after seeded removals that leave ASes unreachable. The
    /// run must actually meet unreachable ASes and lowered tentative
    /// lengths, the two cases a bucket frontier can get wrong.
    #[test]
    fn static_routes_match_heap_reference() {
        let (mut unreachable, mut lowered) = (0, 0);
        for (n_ases, seed) in [(200, 0x57A7), (200, 0x57A8), (2000, 0x57A9)] {
            let g = generate(&GenConfig {
                n_ases,
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let mut rng = Rng::seed_from_u64(seed);
            for (i, dest) in destination_candidates(&g).into_iter().enumerate() {
                let sets = removal_sets(&g, dest, &mut rng);
                // At 2000 ASes every destination gets the whole graph and
                // one of the two cuts, in turn: the full cross product is
                // minutes in a debug build.
                let picked = match n_ases {
                    200 => vec![0, 1, 2],
                    _ => vec![0, 1 + i % 2],
                };
                for k in picked {
                    let cut = g.without_links(&sets[k]);
                    let got = StaticRoutes::compute(&cut, dest);
                    let (want, low) = heap_reference(&cut, dest);
                    lowered += low;
                    for v in cut.ases() {
                        assert_eq!(
                            got.route(v),
                            want[v.index()].as_ref(),
                            "{n_ases} ASes, dest {dest}, removal set {k}: AS {v}"
                        );
                        unreachable += usize::from(want[v.index()].is_none());
                    }
                }
            }
        }
        assert!(unreachable > 0, "no removal left an AS unreachable");
        assert!(lowered > 0, "no tentative length was ever lowered");
    }
}

// ---------------------------------------------------------------------
// Protocol dynamics (smaller case counts: each case runs a simulation)
// ---------------------------------------------------------------------

/// The event-driven simulator converges to the static stable state on
/// arbitrary generated topologies and destinations.
#[test]
fn simulator_matches_static_solver() {
    use stamp_repro::sim::Sim;
    cases(8, 0x705, |rng| {
        let seed = rng.next_u64();
        let g = generate(&GenConfig {
            n_ases: 60,
            ..GenConfig::small(seed)
        })
        .expect("valid");
        let dest = AsId(rng.gen_range(0u32..g.n() as u32));
        let mut sim = Sim::on(&g)
            .originate(dest, PrefixId(0))
            .seed(seed)
            .fast()
            .build()
            .expect("destination drawn from the topology");
        sim.converge();
        let e = sim.bgp().expect("default protocol is BGP");
        let truth = StaticRoutes::compute(&g, dest);
        for v in g.ases() {
            assert_eq!(
                e.router(v).next_hop(PrefixId(0)),
                truth.route(v).and_then(|r| r.next_hop)
            );
        }
    });
}

/// `Protocol` labels and CLI aliases round-trip through
/// `Display`/`FromStr` for every protocol (the campaign binary's
/// `--protocols` flag depends on this), and junk is a typed error.
#[test]
fn protocol_display_from_str_round_trips() {
    use stamp_repro::workload::Protocol;
    for p in Protocol::ALL {
        assert_eq!(p.to_string(), p.label());
        assert_eq!(p.to_string().parse::<Protocol>(), Ok(p));
        assert_eq!(p.label().parse::<Protocol>(), Ok(p));
        for alias in p.aliases() {
            assert_eq!(alias.parse::<Protocol>(), Ok(p), "alias {alias}");
            assert_eq!(
                alias.to_uppercase().parse::<Protocol>(),
                Ok(p),
                "parsing is case-insensitive"
            );
        }
    }
    // Arbitrary junk never panics and never aliases onto a real protocol.
    cases(128, 0x708, |rng| {
        let n = rng.gen_range(0usize..12);
        let junk: String = (0..n)
            .map(|_| (b'a' + (rng.gen_range(0u32..26) as u8)) as char)
            .collect();
        if let Ok(p) = junk.parse::<Protocol>() {
            assert!(
                p.label().eq_ignore_ascii_case(&junk)
                    || p.aliases().iter().any(|a| a.eq_ignore_ascii_case(&junk)),
                "{junk:?} parsed to {p} without matching one of its names"
            );
        }
    });
}

/// STAMP invariants hold on arbitrary topologies: blue existence,
/// per-provider exclusivity, downhill disjointness.
#[test]
fn stamp_invariants() {
    use stamp_repro::bgp::types::Color;
    use stamp_repro::sim::Sim;
    use stamp_repro::topology::path::downhill_node_disjoint;
    use stamp_repro::workload::Protocol;
    cases(8, 0x706, |rng| {
        let seed = rng.next_u64();
        let g = generate(&GenConfig {
            n_ases: 60,
            ..GenConfig::small(seed)
        })
        .expect("valid");
        let dest = AsId(rng.gen_range(0u32..g.n() as u32));
        let mut sim = Sim::on(&g)
            .protocol(Protocol::Stamp)
            .originate(dest, PrefixId(0))
            .seed(seed)
            .fast()
            .build()
            .expect("destination drawn from the topology");
        sim.converge();
        let e = sim.stamp().expect("built as STAMP");
        for v in g.ases() {
            if v == dest {
                continue;
            }
            let r = e.router(v);
            assert!(r.selection(PrefixId(0), Color::Blue).is_some());
            if g.providers(v).len() >= 2 {
                for &p in g.providers(v) {
                    let (red, blue) = r.announced_colors_to(&g, p, PrefixId(0));
                    assert!(!(red && blue));
                }
            }
            // Downhill disjointness is guaranteed for upward-built
            // segments; descending paths can legally share a provider, so
            // here we assert only that the computed paths are valley-free
            // (disjointness statistics live in the integration suite).
            if let (Some(rp), Some(bp)) = (
                r.selection(PrefixId(0), Color::Red).path_id(),
                r.selection(PrefixId(0), Color::Blue).path_id(),
            ) {
                let mut red = vec![v];
                red.extend(e.paths().iter(rp));
                let mut blue = vec![v];
                blue.extend(e.paths().iter(bp));
                assert!(downhill_node_disjoint(&g, &red, &blue).is_some());
            }
        }
    });
}

/// Determinism: identical seeds give byte-identical run statistics.
#[test]
fn simulation_deterministic() {
    use stamp_repro::sim::Sim;
    cases(8, 0x707, |rng| {
        let seed = rng.next_u64();
        let g = generate(&GenConfig {
            n_ases: 50,
            ..GenConfig::small(seed)
        })
        .expect("valid");
        let run = || {
            let mut sim = Sim::on(&g)
                .originate(AsId(0), PrefixId(0))
                .seed(seed)
                .fast()
                .build()
                .expect("AS 0 always exists");
            let s = sim.converge();
            (
                s.announcements_sent,
                s.withdrawals_sent,
                s.delivered,
                s.events,
            )
        };
        assert_eq!(run(), run());
    });
}

// ---------------------------------------------------------------------
// Scenario timelines and the .scn DSL
// ---------------------------------------------------------------------

mod workload_props {
    use super::*;
    use stamp_repro::eventsim::textfmt::assert_fixed_point;
    use stamp_repro::eventsim::SimDuration;
    use stamp_repro::workload::{
        background_churn, correlated_node_outage, flap_train, maintenance_windows, parse_scn,
        staggered_link_failures, NetEvent, ScnErrorKind, Timeline, TimelineEvent,
    };

    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

    fn arb_name(rng: &mut Rng) -> String {
        let n = rng.gen_range(1usize..16);
        (0..n)
            .map(|_| NAME_CHARS[rng.gen_range(0usize..NAME_CHARS.len())] as char)
            .collect()
    }

    fn arb_net_event(rng: &mut Rng) -> NetEvent {
        let a = AsId(rng.gen_range(0u32..1000));
        let b = AsId(rng.gen_range(0u32..1000));
        match rng.gen_range(0u32..4) {
            0 => NetEvent::LinkDown(a, b),
            1 => NetEvent::LinkUp(a, b),
            2 => NetEvent::NodeDown(a),
            _ => NetEvent::NodeUp(a),
        }
    }

    /// A well-formed timeline: random name, events at accumulated
    /// (non-decreasing, sometimes equal) offsets.
    fn arb_timeline(rng: &mut Rng) -> Timeline {
        let n = rng.gen_range(0usize..24);
        let mut at = SimDuration::ZERO;
        let events: Vec<TimelineEvent> = (0..n)
            .map(|_| {
                // Zero deltas are common on purpose: equal-time events
                // exercise the stable-order tie-break.
                at = at + SimDuration::from_micros(rng.gen_range(0u64..=2_500_000));
                TimelineEvent {
                    at,
                    ev: arb_net_event(rng),
                }
            })
            .collect();
        Timeline::from_events(arb_name(rng), events)
    }

    /// The DSL round-trip guarantee: print → parse recovers the identical
    /// timeline (name, microsecond offsets, event order — including
    /// equal-time runs).
    #[test]
    fn scn_round_trips_exactly() {
        cases(256, 0x5C4, |rng| {
            let t = arb_timeline(rng);
            let back = assert_fixed_point(&t.to_scn(), parse_scn, Timeline::to_scn);
            assert_eq!(back, t);
        });
    }

    /// Fuzz `.scn` through the shared cursor: a byte-level mutation of a
    /// valid document — a shipped scenario file or a generated timeline —
    /// either fails with a typed, line-numbered error or parses to a
    /// timeline whose print is a fixed point. Never a panic, and nothing
    /// in between.
    #[test]
    fn mutated_scn_documents_are_rejected_or_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let shipped: Vec<String> = std::fs::read_dir(dir)
            .expect("scenarios/ exists")
            .map(|e| std::fs::read_to_string(e.expect("readable entry").path()).expect("text"))
            .collect();
        assert!(shipped.len() >= 5, "the shipped scenario set");
        cases(400, 0x5C9, |rng| {
            let doc = match gen::bool(rng) {
                true => rng.choose(&shipped).expect("non-empty").clone(),
                false => arb_timeline(rng).to_scn(),
            };
            let fuzzed = gen::mutated(rng, &doc);
            match parse_scn(&fuzzed) {
                Ok(_) => drop(assert_fixed_point(&fuzzed, parse_scn, Timeline::to_scn)),
                Err(e) => assert!(e.line >= 1 && !e.to_string().is_empty(), "{fuzzed:?}"),
            }
        });
    }

    /// Parsing enforces the non-decreasing invariant: swapping two
    /// distinct-time lines of a printed timeline must be rejected.
    #[test]
    fn scn_rejects_decreasing_times() {
        cases(128, 0x5C5, |rng| {
            let t = arb_timeline(rng);
            let distinct: Vec<SimDuration> = {
                let mut ts: Vec<SimDuration> = t.events().iter().map(|e| e.at).collect();
                ts.dedup();
                ts
            };
            if distinct.len() < 2 {
                return; // nothing to misorder
            }
            let text = t.to_scn();
            let mut lines: Vec<&str> = text.lines().collect();
            // Move the last event line to just after the header: its offset
            // is strictly greater than the first event's, so the document
            // is now misordered.
            let last = lines.pop().expect("has events");
            lines.insert(1, last);
            let doc = lines.join("\n");
            let err = parse_scn(&doc).expect_err("misordered document accepted");
            assert_eq!(err.kind, ScnErrorKind::DecreasingTime, "{doc}");
        });
    }

    /// Every generator yields a well-formed (non-decreasing) timeline
    /// under arbitrary parameters.
    #[test]
    fn generators_yield_non_decreasing_timelines() {
        let g = generate(&GenConfig::small(0x9E4)).expect("valid");
        cases(128, 0x5C6, |rng| {
            let start = SimDuration::from_micros(rng.gen_range(0u64..10_000_000));
            let period = SimDuration::from_micros(rng.gen_range(1u64..60_000_000));
            let duty = rng.gen_f64();
            let a = AsId(rng.gen_range(0u32..100));
            let b = AsId(rng.gen_range(0u32..100));
            let cycles = rng.gen_range(0u32..8);
            let gap = SimDuration::from_micros(rng.gen_range(0u64..1_000_000));
            let restore = if rng.gen_bool(0.5) {
                Some(period)
            } else {
                None
            };
            let mw_gap = SimDuration::from_micros(rng.gen_range(0u64..90_000_000));
            let horizon = SimDuration::from_secs(rng.gen_range(1u64..600));
            let flaps = rng.gen_range(0usize..30);
            let batches = vec![
                flap_train(a, b, start, period, duty, cycles),
                staggered_link_failures(&[(a, b), (b, a), (a, AsId(7))], start, gap),
                correlated_node_outage(&[a, b], start, restore),
                maintenance_windows(&[a, b], start, period, mw_gap),
                background_churn(&g, rng, start, horizon, flaps, period),
            ];
            for (i, batch) in batches.into_iter().enumerate() {
                let t = Timeline::from_events("gen", batch);
                assert!(t.is_well_formed(), "generator {i} misordered");
                // And each survives the DSL round trip.
                assert_eq!(parse_scn(&t.to_scn()).unwrap(), t, "generator {i}");
            }
        });
    }

    /// `removed_links` replay agrees with a direct net-liveness fold for
    /// link-only timelines on a real graph.
    #[test]
    fn removed_links_matches_naive_replay() {
        let g = generate(&GenConfig::small(0x9E5)).expect("valid");
        cases(64, 0x5C7, |rng| {
            let n = rng.gen_range(0usize..20);
            let mut at = SimDuration::ZERO;
            let events: Vec<TimelineEvent> = (0..n)
                .map(|_| {
                    at = at + SimDuration::from_micros(rng.gen_range(0u64..1_000_000));
                    let l = g.links()[rng.gen_range(0usize..g.n_links())];
                    let ev = if rng.gen_bool(0.5) {
                        NetEvent::LinkDown(l.a, l.b)
                    } else {
                        NetEvent::LinkUp(l.a, l.b)
                    };
                    TimelineEvent { at, ev }
                })
                .collect();
            let t = Timeline::from_events("links", events);
            let mut down = std::collections::HashSet::new();
            for e in t.events() {
                match e.ev {
                    NetEvent::LinkDown(a, b) => {
                        down.insert(g.link_between(a, b).unwrap());
                    }
                    NetEvent::LinkUp(a, b) => {
                        down.remove(&g.link_between(a, b).unwrap());
                    }
                    _ => unreachable!(),
                }
            }
            let mut expect: Vec<_> = down.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(t.removed_links(&g).unwrap(), expect);
        });
    }
}

// ---------------------------------------------------------------------
// The dense session table
// ---------------------------------------------------------------------

mod session_table {
    use super::*;
    use stamp_repro::topology::{AsGraph, GraphBuilder, LinkId, Relation, SessEntry, SessId};
    use std::collections::BTreeMap;

    /// On random generated topologies, and on the sub-graphs
    /// `without_links` cuts from them, the CSR session table must agree
    /// with ground truth rebuilt from the raw link list: per-node entries
    /// in customers/peers/providers order (each ascending), relations and
    /// link ids exact, session ids a dense permutation of `0..2·links`,
    /// `(from, to)` resolution consistent with endpoints resolution, slots
    /// the positions in the node's slice, and `sess_reverse` an involution
    /// that swaps the endpoints and keeps the link.
    #[test]
    fn session_table_matches_link_list_ground_truth() {
        cases(24, 0x5E55, |rng| {
            let whole = generate(&arb_gen_config(rng)).unwrap();
            let cut: Vec<LinkId> = (0..whole.n_links())
                .filter(|_| rng.gen_bool(0.2))
                .map(LinkId::from_usize)
                .collect();
            let sub = whole.without_links(&cut);
            assert_matches_ground_truth(&sub, rng);
            assert_matches_ground_truth(&whole, rng);
        });
    }

    fn assert_matches_ground_truth(g: &AsGraph, rng: &mut Rng) {
        // Ground truth straight from the links, independent of the
        // CSR arrays: per node, three ascending relation classes.
        let mut truth: BTreeMap<AsId, [Vec<(AsId, u32)>; 3]> = BTreeMap::new();
        for (i, l) in g.links().iter().enumerate() {
            let id = i as u32;
            match l.kind {
                stamp_repro::topology::LinkKind::CustomerProvider => {
                    truth.entry(l.a).or_default()[2].push((l.b, id));
                    truth.entry(l.b).or_default()[0].push((l.a, id));
                }
                stamp_repro::topology::LinkKind::PeerPeer => {
                    truth.entry(l.a).or_default()[1].push((l.b, id));
                    truth.entry(l.b).or_default()[1].push((l.a, id));
                }
            }
        }
        let mut seen = vec![false; g.n_sessions()];
        assert_eq!(g.n_sessions(), 2 * g.n_links());
        for v in g.ases() {
            let mut expect: Vec<(AsId, Relation, u32)> = Vec::new();
            if let Some(classes) = truth.get(&v) {
                for (c, rel) in [
                    (0, Relation::Customer),
                    (1, Relation::Peer),
                    (2, Relation::Provider),
                ] {
                    let mut sorted = classes[c].clone();
                    sorted.sort_unstable();
                    expect.extend(sorted.into_iter().map(|(n, l)| (n, rel, l)));
                }
            }
            let got: Vec<(AsId, Relation, u32)> = g
                .neighbor_entries(v)
                .iter()
                .map(|e| (e.neighbor, e.rel, e.link.0))
                .collect();
            assert_eq!(got, expect, "entries of {v} diverge from link list");
            // `neighbors`/`relation` are views over the same table and
            // must agree entry-for-entry.
            let ns: Vec<(AsId, Relation)> = g.neighbors(v).collect();
            assert_eq!(ns, got.iter().map(|&(n, r, _)| (n, r)).collect::<Vec<_>>());
            for &SessEntry {
                neighbor,
                rel,
                sess,
                link,
            } in g.neighbor_entries(v)
            {
                assert_eq!(g.relation(v, neighbor), Some(rel));
                assert_eq!(g.link_between(v, neighbor), Some(link));
                assert_eq!(g.sess_between(v, neighbor), Some(sess));
                let ends = g.sess_ends(sess);
                assert_eq!((ends.from, ends.to, ends.link), (v, neighbor, link));
                let rev = g.sess_reverse(sess);
                let back = g.sess_ends(rev);
                assert_eq!((back.from, back.to, back.link), (neighbor, v, link));
                assert_eq!(g.sess_reverse(rev), sess, "reverse is an involution");
                assert_eq!(g.neighbor_entries(v)[g.slot(v, sess)].sess, sess);
                assert_eq!(
                    g.neighbor_entries(neighbor)[g.slot(neighbor, rev)].neighbor,
                    v
                );
                assert!(!seen[sess.index()], "session id assigned twice");
                seen[sess.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "dense id space has holes");
        // Non-adjacent pairs resolve to nothing.
        for _ in 0..32 {
            let a = AsId(rng.gen_range(0u32..g.n() as u32));
            let b = AsId(rng.gen_range(0u32..g.n() as u32));
            let adjacent = g.neighbors(a).any(|(n, _)| n == b);
            assert_eq!(g.sess_between(a, b).is_some(), adjacent);
            assert_eq!(g.relation(a, b).is_some(), adjacent);
        }
    }

    /// Three generated 200-AS graphs and two hand-built ones: sparse AS
    /// numbers, an AS with no link, an AS with all three neighbour classes.
    fn sample_graphs(rng: &mut Rng) -> Vec<AsGraph> {
        let mut graphs: Vec<AsGraph> = (0..3)
            .map(|_| {
                generate(&GenConfig {
                    n_ases: 200,
                    ..GenConfig::small(rng.next_u64())
                })
                .unwrap()
            })
            .collect();
        let mut b = GraphBuilder::new();
        for (c, p) in [(30, 10), (40, 20), (50, 30), (50, 40), (30, 20), (60, 30)] {
            b.customer_of(c, p).unwrap();
        }
        b.peering(20, 10).unwrap();
        b.peering(40, 30).unwrap();
        b.ensure_as(7);
        graphs.push(b.build().unwrap());
        graphs.push(GraphBuilder::new().build().unwrap());
        graphs
    }

    /// The three class slices are the session slice, cut in two places.
    #[test]
    fn class_slices_partition_the_session_slice() {
        for g in sample_graphs(&mut Rng::seed_from_u64(0x5E56)) {
            for v in g.ases() {
                let of = |rel: Relation| -> Vec<AsId> {
                    let entries = g.neighbor_entries(v).iter();
                    let class = entries.filter(|e| e.rel == rel);
                    class.map(|e| e.neighbor).collect()
                };
                assert_eq!(g.customers(v), of(Relation::Customer));
                assert_eq!(g.peers(v), of(Relation::Peer));
                assert_eq!(g.providers(v), of(Relation::Provider));
                let all = [g.customers(v), g.peers(v), g.providers(v)];
                assert!(all.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
                let joined = all.concat();
                let entries: Vec<AsId> = g.neighbors(v).map(|(n, _)| n).collect();
                assert_eq!(joined, entries);
                assert_eq!(g.degree(v), joined.len());
                assert_eq!(g.is_tier1(v), g.providers(v).is_empty());
                assert_eq!(g.is_stub(v), g.customers(v).is_empty());
                assert_eq!(g.is_multi_homed(v), g.providers(v).len() >= 2);
            }
        }
    }

    /// `without_links` filters and skips validation; the reference pushes
    /// the kept links, in order, through a fresh validating builder: same
    /// AS ids, same dense `LinkId` renumbering, same tables.
    #[test]
    fn without_links_equals_a_fresh_build_of_the_kept_links() {
        let mut rng = Rng::seed_from_u64(0x5E57);
        for g in sample_graphs(&mut rng) {
            assert!(g.without_links(&[]).same_handle(&g));
            let all: Vec<LinkId> = (0..g.n_links()).map(LinkId::from_usize).collect();
            let past = LinkId::from_usize(g.n_links() + 3);
            let mut sets = vec![vec![past], all.clone()];
            if !all.is_empty() {
                let one = *rng.choose(&all).unwrap();
                let mut quarter: Vec<LinkId> = (0..all.len() / 4)
                    .map(|_| *rng.choose(&all).unwrap())
                    .collect();
                quarter.extend([one, past, one]);
                sets.extend([vec![one], quarter]);
            }
            for set in sets {
                let mut b = GraphBuilder::new();
                for v in g.ases() {
                    b.ensure_as(g.external_asn(v));
                }
                for (i, l) in g.links().iter().enumerate() {
                    if !set.contains(&LinkId::from_usize(i)) {
                        b.add_link(g.external_asn(l.a), g.external_asn(l.b), l.kind)
                            .unwrap();
                    }
                }
                let (want, got) = (b.build().unwrap(), g.without_links(&set));
                assert_eq!((got.n(), got.links()), (want.n(), want.links()));
                for v in g.ases() {
                    assert_eq!(got.external_asn(v), g.external_asn(v));
                    assert_eq!(got.neighbor_entries(v), want.neighbor_entries(v));
                }
                for s in (0..want.n_sessions()).map(SessId::from_usize) {
                    assert_eq!(got.sess_ends(s), want.sess_ends(s));
                }
                // Every old adjacency, kept or removed, in both directions.
                for l in g.links() {
                    for (a, b) in [(l.a, l.b), (l.b, l.a)] {
                        assert_eq!(got.link_between(a, b), want.link_between(a, b));
                        assert_eq!(got.sess_between(a, b), want.sess_between(a, b));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dense RIB slots
// ---------------------------------------------------------------------

mod rib_slots {
    use super::*;
    use stamp_repro::bgp::rib::RibIn;
    use stamp_repro::bgp::types::ProcId;
    use stamp_repro::topology::Relation;
    use std::collections::BTreeMap;

    type RefRib = BTreeMap<(PrefixId, ProcId), BTreeMap<AsId, (Route, Relation)>>;

    fn arb_rel(rng: &mut Rng) -> Relation {
        match rng.gen_range(0u32..3) {
            0 => Relation::Customer,
            1 => Relation::Peer,
            _ => Relation::Provider,
        }
    }

    fn assert_same(rib: &RibIn, reference: &RefRib) {
        let mut total = 0usize;
        for (&(prefix, proc), group) in reference {
            let got: Vec<(AsId, Route, Relation)> = rib
                .routes(prefix, proc)
                .map(|(n, e)| (n, e.route, e.learned_from))
                .collect();
            let expect: Vec<(AsId, Route, Relation)> =
                group.iter().map(|(&n, &(r, rel))| (n, r, rel)).collect();
            assert_eq!(got, expect, "slot iteration diverged from sorted map");
            total += group.len();
        }
        assert_eq!(rib.len(), total);
        assert_eq!(rib.is_empty(), total == 0);
    }

    /// Random interleavings of insert / remove / remove_neighbor / purge:
    /// the dense-slot tables must iterate in exactly the ascending
    /// `(prefix, proc)` then neighbour order the old
    /// `BTreeMap<_, BTreeMap<_, _>>` representation produced, and the
    /// returned dropped-key lists must match it too — that iteration-order
    /// equivalence is the determinism argument for the RIB refactor.
    #[test]
    fn dense_slots_track_a_sorted_map_reference() {
        cases(48, 0x51B5, |rng| {
            let mut arena = PathArena::new();
            let mut rib = RibIn::new();
            let mut reference: RefRib = RefRib::new();
            // Small id spaces force slot reuse, middle insertions and
            // group births/deaths.
            let ops = rng.gen_range(20usize..80);
            for _ in 0..ops {
                let prefix = PrefixId(rng.gen_range(0u32..3));
                let proc = ProcId(rng.gen_range(0u32..2) as u8);
                let neighbor = AsId(rng.gen_range(0u32..12));
                match rng.gen_range(0u32..10) {
                    // Weighted towards inserts so tables actually fill.
                    0..=5 => {
                        let path: Vec<AsId> = gen::vec(rng, 1..6, |r| AsId(r.gen_range(0u32..64)));
                        let route = Route {
                            path: arena.intern_slice(&path),
                            attrs: PathAttrs::default(),
                        };
                        let rel = arb_rel(rng);
                        rib.insert(prefix, proc, neighbor, route, rel, 100);
                        reference
                            .entry((prefix, proc))
                            .or_default()
                            .insert(neighbor, (route, rel));
                    }
                    6..=7 => {
                        let got = rib.remove(prefix, proc, neighbor);
                        let expect = reference
                            .get_mut(&(prefix, proc))
                            .and_then(|grp| grp.remove(&neighbor).map(|(r, _)| r));
                        reference.retain(|_, grp| !grp.is_empty());
                        assert_eq!(got, expect, "remove result diverged");
                    }
                    8 => {
                        let got = rib.remove_neighbor(neighbor);
                        let mut expect = Vec::new();
                        for (&key, grp) in reference.iter_mut() {
                            if grp.remove(&neighbor).is_some() {
                                expect.push(key);
                            }
                        }
                        reference.retain(|_, grp| !grp.is_empty());
                        assert_eq!(got, expect, "remove_neighbor keys diverged");
                    }
                    _ => {
                        // Purge routes through a random AS, exactly like
                        // R-BGP's root-cause purge.
                        let bad = AsId(rng.gen_range(0u32..64));
                        let got = rib.purge(|r| !r.contains(&arena, bad));
                        let mut expect = Vec::new();
                        for (&(p, pr), grp) in reference.iter_mut() {
                            grp.retain(|&n, (r, _)| {
                                let keep = !r.contains(&arena, bad);
                                if !keep {
                                    expect.push((p, pr, n));
                                }
                                keep
                            });
                        }
                        reference.retain(|_, grp| !grp.is_empty());
                        assert_eq!(got, expect, "purge keys diverged");
                    }
                }
                assert_same(&rib, &reference);
                // Point lookups agree everywhere in the small key space.
                for p in 0..3u32 {
                    for pr in 0..2u8 {
                        for n in 0..12u32 {
                            let got = rib
                                .get(PrefixId(p), ProcId(pr), AsId(n))
                                .map(|e| (e.route, e.learned_from));
                            let expect = reference
                                .get(&(PrefixId(p), ProcId(pr)))
                                .and_then(|grp| grp.get(&AsId(n)))
                                .copied();
                            assert_eq!(got, expect);
                        }
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// The speaker's slot table decides like the keyed RIB
// ---------------------------------------------------------------------

mod decide_ties {
    use super::regimes::arb_regime;
    use super::rewinds::Down;
    use super::*;
    use stamp_repro::bgp::rib::{Candidate, Criterion, DecisionOutcome, RibIn};
    use stamp_repro::bgp::router::{RouterCtx, Selection};
    use stamp_repro::bgp::types::ProcId;
    use stamp_repro::bgp::Speaker;
    use stamp_repro::policy::PolicyRegime;
    use stamp_repro::topology::Relation;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    /// A speaker's slots are its session slice — customers, peers,
    /// providers — so at an AS with neighbours in two classes slot order is
    /// not id order. Random RIBs at such an AS, of routes two or three hops
    /// long (ties on length everywhere), offered in random order and
    /// sometimes withdrawn, some looping through the AS and some over dead
    /// sessions: the speaker's `decide` over the slot table picks exactly
    /// what the keyed `RibIn::decide` picks from the same imports, and both
    /// pick the winner of (local-pref ↓, length ↑, neighbour id ↑) — under
    /// the four built-in regimes (`shortest-path` ties every class) and
    /// random `.pol` regimes. The speaker's `explain` walks to the same
    /// winner and judges every stored route: a rejected one is named
    /// `SessionDown`, or `Loop` when its session is up, and a ranked loser
    /// ties the winner on every criterion before the one named and is
    /// worse on that one.
    #[test]
    fn slot_decide_breaks_ties_like_keyed_decide() {
        let builtins = PolicyRegime::builtins();
        let mut order_matters = 0;
        let mut verdicts = [0usize; Criterion::ALL.len()];
        cases(128, 0xDEC1DE, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let mixed: Vec<AsId> = g
                .ases()
                .filter(|&v| {
                    let nbrs = g.neighbor_entries(v);
                    nbrs.windows(2).any(|w| w[0].neighbor > w[1].neighbor)
                })
                .collect();
            let Some(&me) = rng.choose(&mixed) else {
                return;
            };
            let regime = match rng.gen_range(0..builtins.len() + 2) {
                i if i < builtins.len() => builtins[i].clone(),
                _ => {
                    let mut r = arb_regime(rng);
                    if gen::bool(rng) {
                        // One preference for every class: ties across them.
                        r.rel_pref = [r.rel_pref[0]; 3];
                    }
                    r
                }
            };
            let compiled = regime.compile().expect("arb regimes compile");
            let nbrs = g.neighbor_entries(me);
            let n = g.n() as u32;
            let procs = rng.gen_range(1usize..3);
            let prefix = PrefixId(rng.gen_range(0u32..3));
            let mut arena = PathArena::new();
            // The slots of each relation class present: offers are drawn
            // class first, so the few peers and providers are offered as
            // often as the many customers.
            let classes: Vec<Vec<usize>> = [Relation::Customer, Relation::Peer, Relation::Provider]
                .into_iter()
                .map(|rel| (0..nbrs.len()).filter(|&s| nbrs[s].rel == rel).collect())
                .filter(|class: &Vec<usize>| !class.is_empty())
                .collect();
            // (slot, proc, route or withdraw), in random order.
            let ops: Vec<(usize, ProcId, Option<Route>)> = (0..rng.gen_range(1..3 * nbrs.len()))
                .map(|_| {
                    let class = rng.choose(&classes).expect("a mixed AS has neighbours");
                    let slot = *rng.choose(class).expect("classes are non-empty");
                    let proc = ProcId(rng.gen_range(0..procs) as u8);
                    let mut path = vec![nbrs[slot].neighbor];
                    for _ in 0..rng.gen_range(1usize..3) {
                        let hop = if rng.gen_bool(0.1) {
                            me
                        } else {
                            AsId(rng.gen_range(0..n))
                        };
                        path.push(hop);
                    }
                    let route = Route {
                        path: arena.intern_slice(&path),
                        attrs: PathAttrs::default(),
                    };
                    (slot, proc, (!rng.gen_bool(0.1)).then_some(route))
                })
                .collect();
            let down = Down(
                nbrs.iter()
                    .map(|e| e.neighbor)
                    .filter(|_| rng.gen_bool(0.15))
                    .collect(),
            );

            let ctx = RouterCtx::with_policy(me, &g, &down, &mut arena, &compiled);
            let mut speaker = Speaker::new(me, vec![], procs);
            let mut rib = RibIn::new();
            let mut reference: BTreeMap<(ProcId, AsId), (u32, Route, Relation)> = BTreeMap::new();
            for &(slot, proc, route) in &ops {
                let e = nbrs[slot];
                let imported = route.and_then(|r| ctx.import(prefix, r, e.rel));
                match route {
                    Some(r) => speaker.learn(&ctx, slot, proc, prefix, r),
                    None => speaker.unlearn(slot, proc, prefix),
                }
                match imported {
                    Some((r, pref)) => {
                        rib.insert(prefix, proc, e.neighbor, r, e.rel, pref);
                        reference.insert((proc, e.neighbor), (pref, r, e.rel));
                    }
                    None => {
                        rib.remove(prefix, proc, e.neighbor);
                        reference.remove(&(proc, e.neighbor));
                    }
                }
            }

            let arena: &PathArena = ctx.arena;
            for proc in ProcId::first_n(procs) {
                let candidates: Vec<(u32, u32, AsId, Route, Relation)> = reference
                    .range((proc, AsId(0))..=(proc, AsId(u32::MAX)))
                    .filter(|((_, n), (_, r, _))| !down.0.contains(n) && !r.contains(arena, me))
                    .map(|(&(_, n), &(pref, r, rel))| (pref, r.len(arena), n, r, rel))
                    .collect();
                let want = candidates
                    .iter()
                    .max_by_key(|&&(pref, len, n, _, _)| (pref, Reverse(len), Reverse(n)))
                    .map(|&(_, _, neighbor, route, learned_from)| DecisionOutcome {
                        neighbor,
                        route,
                        learned_from,
                    });
                let keyed = rib.decide(arena, me, prefix, proc, |n| !down.0.contains(&n));
                let slotted = match speaker.decide(&ctx, prefix, proc) {
                    Selection::Learned(d) => Some(d),
                    _ => None,
                };
                assert_eq!(keyed, want, "keyed decide at {me} under {}", regime.name);
                assert_eq!(slotted, want, "slot decide at {me} under {}", regime.name);
                let why = speaker.explain(arena, nbrs, &down, prefix, proc);
                assert_eq!(why.winner, want, "explain at {me} under {}", regime.name);
                let mut by_id = why.candidates.clone();
                by_id.sort_by_key(|c| c.neighbor);
                let stored = reference.range((proc, AsId(0))..=(proc, AsId(u32::MAX)));
                let stored: Vec<AsId> = stored.map(|(&(_, n), _)| n).collect();
                let judged: Vec<AsId> = by_id.iter().map(|c| c.neighbor).collect();
                assert_eq!(judged, stored, "every stored route is judged once");
                let winner = by_id.iter().find(|c| c.lost_on.is_none());
                assert_eq!(winner.map(|c| c.neighbor), want.map(|d| d.neighbor));
                for c in &by_id {
                    let (pref, r, _) = reference[&(proc, c.neighbor)];
                    assert_eq!((c.pref, c.len), (pref, r.len(arena)));
                    let up = !down.0.contains(&c.neighbor);
                    let Some(named) = c.lost_on else {
                        continue;
                    };
                    verdicts[named as usize] += 1;
                    match named {
                        Criterion::SessionDown => assert!(!up, "{c:?}"),
                        Criterion::Loop => assert!(up && r.contains(arena, me), "{c:?}"),
                        _ => {
                            assert!(up && !r.contains(arena, me), "{c:?}");
                            let w: &Candidate = winner.expect("a ranked loser implies a winner");
                            let ties = [c.pref == w.pref, c.len == w.len, c.neighbor == w.neighbor];
                            let worse = [c.pref < w.pref, c.len > w.len, c.neighbor > w.neighbor];
                            let ranked = [
                                Criterion::LocalPref,
                                Criterion::PathLength,
                                Criterion::NeighborId,
                            ];
                            let k = ranked.iter().position(|&x| x == named).expect("ranked");
                            assert!(ties[..k].iter().all(|&t| t), "{c:?} vs {w:?}");
                            assert!(worse[k], "{c:?} vs {w:?}");
                        }
                    }
                }
                // Would "first in slot order wins" have picked another
                // neighbour of equal (pref, len)?
                if let Some(w) = want {
                    let slot = |n: AsId| g.slot_between(me, n);
                    let key = (reference[&(proc, w.neighbor)].0, w.route.len(arena));
                    let mut tied = candidates.iter().filter(|c| (c.0, c.1) == key);
                    order_matters += usize::from(tied.any(|c| slot(c.2) < slot(w.neighbor)));
                }
            }
        });
        assert!(
            order_matters >= 16,
            "only {order_matters} slot-order ties drawn"
        );
        assert!(
            verdicts.iter().all(|&n| n >= 8),
            "verdicts drawn: {verdicts:?}"
        );
    }
}

// ---------------------------------------------------------------------
// R-BGP's two neighbour choices break ties by id, not by slot
// ---------------------------------------------------------------------

mod failover_ties {
    use super::rewinds::Down;
    use super::*;
    use stamp_repro::bgp::router::{OutMsg, RouterCtx, RouterLogic, Selection};
    use stamp_repro::bgp::types::{
        CauseInfo, ProcId, RootCause, UpdateKind, UpdateMsg, WithdrawInfo,
    };
    use stamp_repro::rbgp::{RbgpConfig, RbgpRouter};
    use stamp_repro::topology::{AsGraph, SessEntry};

    const P: PrefixId = PrefixId(0);

    /// What a neighbour offers, besides an ordinary path.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Role {
        Usable,
        /// Its session is down.
        Dead,
        /// The path runs through the receiving AS.
        ThroughMe,
        /// The path runs through the element recorded as down (RCI only).
        ThroughDown,
    }

    /// The router of AS `me` on `g`, with the sessions in `down` dead.
    struct Bench<'a> {
        g: &'a AsGraph,
        me: AsId,
        down: Down,
        arena: PathArena,
        r: RbgpRouter,
    }

    impl Bench<'_> {
        /// Deliver `msg` from the neighbour in `slot`; what the router sent.
        fn deliver(&mut self, slot: usize, msg: UpdateMsg) -> Vec<OutMsg> {
            let mut ctx = RouterCtx::new(self.me, self.g, &self.down, &mut self.arena);
            self.r.on_update(&mut ctx, slot, ProcId::ONLY, msg);
            ctx.out
        }

        fn announce(&mut self, slot: usize, path: &[AsId], failover: bool) -> Vec<OutMsg> {
            let attrs = PathAttrs {
                failover,
                ..PathAttrs::default()
            };
            let path = self.arena.intern_slice(path);
            let kind = UpdateKind::Announce(Route { path, attrs });
            self.deliver(slot, UpdateMsg { prefix: P, kind })
        }

        fn withdraw(&mut self, slot: usize, prefix: PrefixId, cause: Option<CauseInfo>) {
            let info = WithdrawInfo {
                root_cause: cause.map(|c| self.arena.intern_cause(c)),
                ..WithdrawInfo::default()
            };
            let kind = UpdateKind::Withdraw(info);
            self.deliver(slot, UpdateMsg { prefix, kind });
        }
    }

    /// R-BGP picks a neighbour twice: the failover path an escape takes
    /// (and a reselect installs as pseudo-best) and the alternative its own
    /// failover advertisement carries. At ASes whose slot order is not id
    /// order, offered every path in slot order — equal-length failover
    /// paths from several neighbours, plus one from a dead session, one
    /// through the AS itself and, with RCI, one through an element recorded
    /// as down — the escape and the pseudo-best are the lowest-id usable
    /// advertiser, and the advertisement carries the alternative with the
    /// fewest ASes shared with the best path, then the shortest, then the
    /// lowest id.
    #[test]
    fn failover_choices_break_ties_by_id() {
        let (mut escape_order, mut advert_order) = (0, 0);
        cases(96, 0xFA110E5, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let mixed: Vec<AsId> = g
                .ases()
                .filter(|&v| {
                    let nbrs = g.neighbor_entries(v);
                    nbrs.len() >= 5 && nbrs.windows(2).any(|w| w[0].neighbor > w[1].neighbor)
                })
                .collect();
            let Some(&me) = rng.choose(&mixed) else {
                return;
            };
            let nbrs = g.neighbor_entries(me);
            let rci = gen::bool(rng);
            // The destination, the element recorded as down, and a pool of
            // transit hops: neither `me` nor its neighbours.
            let mut far: Vec<AsId> = g
                .ases()
                .filter(|&v| v != me && nbrs.iter().all(|e| e.neighbor != v))
                .collect();
            rng.shuffle(&mut far);
            let [dest, bad, p0, p1, p2, ..] = far[..] else {
                return;
            };
            let pool = [p0, p1, p2];
            let recorded = CauseInfo {
                cause: RootCause::Node(bad),
                seq: 1,
                up: false,
            };
            // Roles by slot: one dead, one through `me`, with RCI one
            // through `bad`, the rest usable.
            let draw_roles = |rng: &mut Rng| {
                let mut slots: Vec<usize> = (0..nbrs.len()).collect();
                rng.shuffle(&mut slots);
                let mut roles = vec![Role::Usable; nbrs.len()];
                roles[slots[0]] = Role::Dead;
                roles[slots[1]] = Role::ThroughMe;
                if rci {
                    roles[slots[2]] = Role::ThroughDown;
                }
                (roles, slots)
            };
            let path = |rng: &mut Rng, slot: usize, role: Role, hops: usize| {
                let mut via = pool;
                rng.shuffle(&mut via);
                let mut path = vec![nbrs[slot].neighbor];
                match role {
                    Role::ThroughMe => path.push(me),
                    Role::ThroughDown => path.push(bad),
                    Role::Usable | Role::Dead => path.extend(&via[..hops]),
                }
                path.push(dest);
                path
            };
            let bench = |roles: &[Role]| Bench {
                g: &g,
                me,
                down: Down(
                    (0..nbrs.len())
                        .filter(|&s| roles[s] == Role::Dead)
                        .map(|s| nbrs[s].neighbor)
                        .collect(),
                ),
                arena: PathArena::new(),
                r: RbgpRouter::new(me, vec![], RbgpConfig { rci }),
            };

            // The escape: one real route, then equal-length failover paths
            // from every other neighbour, in slot order.
            let (roles, slots) = draw_roles(rng);
            let real = *slots
                .iter()
                .find(|&&s| roles[s] == Role::Usable)
                .expect("five neighbours leave a usable one");
            let mut b = bench(&roles);
            let real_path = path(rng, real, Role::Usable, 2);
            b.announce(real, &real_path, false);
            let mut offered: Vec<(usize, Vec<AsId>)> = Vec::new();
            for slot in (0..nbrs.len()).filter(|&s| s != real) {
                let p = path(rng, slot, roles[slot], 1);
                b.announce(slot, &p, true);
                if roles[slot] == Role::Usable {
                    offered.push((slot, p));
                }
            }
            if rci {
                b.withdraw(real, PrefixId(1), Some(recorded));
            }
            let want = offered.iter().min_by_key(|(s, _)| nbrs[*s].neighbor);
            let live = |e: &SessEntry| !b.down.0.contains(&e.neighbor);
            let got = b.r.escape_route(&b.arena, P, live);
            let got = got.map(|(n, r)| (n, b.arena.as_vec(r.path)));
            let want = want.map(|(s, p)| (nbrs[*s].neighbor, p.clone()));
            assert_eq!(got, want, "escape at {me} (rci {rci})");
            // Would "first in slot order" have picked another neighbour?
            let first = offered.first().map(|(s, _)| nbrs[*s].neighbor);
            escape_order += usize::from(first != want.as_ref().map(|w| w.0));
            // The real route goes: the reselect installs the escape.
            b.withdraw(real, P, None);
            let installed = match b.r.selection(P) {
                Selection::Learned(d) => {
                    assert!(d.route.attrs.failover, "pseudo-best is failover-flagged");
                    let rel = g.relation(me, d.neighbor);
                    assert_eq!(Some(d.learned_from), rel, "pseudo-best relation");
                    Some((d.neighbor, b.arena.as_vec(d.route.path)))
                }
                _ => None,
            };
            assert_eq!(installed, want, "pseudo-best at {me} (rci {rci})");

            // The advertisement: plain routes from every neighbour in slot
            // order, one to three hops; then the best goes and comes back,
            // so the advertisement is recomputed over the whole table.
            let (roles, _) = draw_roles(rng);
            let mut b = bench(&roles);
            let mut offered: Vec<(usize, Vec<AsId>)> = Vec::new();
            for (slot, &role) in roles.iter().enumerate() {
                let hops = rng.gen_range(1usize..4);
                let p = path(rng, slot, role, hops);
                b.announce(slot, &p, false);
                offered.push((slot, p));
            }
            if rci {
                let any = roles.iter().position(|&r| r == Role::ThroughMe);
                b.withdraw(any.expect("a role per case"), PrefixId(1), Some(recorded));
            }
            let best = b.r.primary_next(P).expect("a usable route survives");
            let best_slot = g.slot_between(me, best).expect("adjacent");
            let best_path = offered[best_slot].1.clone();
            b.withdraw(best_slot, P, None);
            let out = b.announce(best_slot, &best_path, false);
            let key = |(s, p): &&(usize, Vec<AsId>)| {
                let shared = p.iter().filter(|a| best_path.contains(a)).count();
                (shared, p.len(), nbrs[*s].neighbor)
            };
            let usable = offered
                .iter()
                .filter(|(s, _)| roles[*s] == Role::Usable && *s != best_slot);
            let want = usable.clone().min_by_key(key).map(|(_, p)| {
                let mut told = vec![me];
                told.extend(p);
                told
            });
            let sent = out.iter().find_map(|m| match m.msg.kind {
                UpdateKind::Announce(r) if r.attrs.failover && m.to == best => {
                    Some(b.arena.as_vec(r.path))
                }
                _ => None,
            });
            assert_eq!(sent, want, "failover advertisement at {me} (rci {rci})");
            let target = want.as_ref().map(|_| best);
            assert_eq!(b.r.failover_target(P), target);
            // Would "first in slot order among the (shared, len) ties" have
            // picked another neighbour?
            if let Some((shared, len, id)) = usable.clone().map(|c| key(&c)).min() {
                let mut tied = usable
                    .map(|c| key(&c))
                    .filter(|k| (k.0, k.1) == (shared, len));
                advert_order += usize::from(tied.next().is_some_and(|k| k.2 != id));
            }
        });
        assert!(
            escape_order >= 16,
            "only {escape_order} escape ties where slot order misleads"
        );
        assert!(
            advert_order >= 16,
            "only {advert_order} advertisement ties where slot order misleads"
        );
    }
}

// ---------------------------------------------------------------------
// Copies: a rewind equals a clone
// ---------------------------------------------------------------------

mod rewinds {
    use super::*;
    use stamp_repro::bgp::router::{
        BgpRouter, OutMsg, RouterCtx, RouterLogic, SessionView, StateFingerprint,
    };
    use stamp_repro::bgp::types::{
        CauseInfo, EventType, ProcId, RootCause, UpdateKind, UpdateMsg, WithdrawInfo,
    };
    use stamp_repro::rbgp::{RbgpConfig, RbgpRouter};
    use stamp_repro::stamp::{LockStrategy, StampRouter};
    use stamp_repro::topology::{AsGraph, SessEntry};

    /// Sessions of one router: up unless the neighbour is listed.
    pub(super) struct Down(pub(super) Vec<AsId>);

    impl SessionView for Down {
        fn session_entry_up(&self, _from: AsId, e: &SessEntry) -> bool {
            !self.0.contains(&e.neighbor)
        }
    }

    /// A root-cause record an update cites, interned into the receiver's
    /// arena when the update is applied.
    type Cited = Option<CauseInfo>;

    #[derive(Debug, Clone)]
    pub(super) enum Op {
        Update(
            AsId,
            ProcId,
            PrefixId,
            Option<(Vec<AsId>, PathAttrs, Cited)>,
            (WithdrawInfo, Cited),
        ),
        LinkDown(AsId, CauseInfo),
        LinkUp(AsId, CauseInfo),
    }

    fn arb_cause(rng: &mut Rng, n: u32) -> CauseInfo {
        let (a, b) = (AsId(rng.gen_range(0..n)), AsId(rng.gen_range(0..n)));
        CauseInfo {
            cause: if gen::bool(rng) {
                RootCause::link(a, b)
            } else {
                RootCause::Node(a)
            },
            seq: rng.gen_range(0u32..6),
            up: gen::bool(rng),
        }
    }

    fn arb_et(rng: &mut Rng) -> Option<EventType> {
        gen::option(rng, |r| {
            if gen::bool(r) {
                EventType::Lost
            } else {
                EventType::NotLost
            }
        })
    }

    /// Anything a neighbour of `me` can make it handle: announcements with
    /// every attribute the three protocols read (paths drawn from a small
    /// id space, so they collide, loop through `me` and cross root
    /// causes), withdrawals, session resets.
    pub(super) fn arb_op(rng: &mut Rng, g: &AsGraph, me: AsId, procs: usize) -> Op {
        let n = g.n() as u32;
        let neighbors = g.neighbor_entries(me);
        let from = neighbors[rng.gen_range(0..neighbors.len())].neighbor;
        match rng.gen_range(0u32..10) {
            0..=6 => {
                let announce = gen::option(rng, |rng| {
                    let mut path = vec![from];
                    path.extend(gen::vec(rng, 0..5, |r| AsId(r.gen_range(0..n.min(24)))));
                    let (lock, et) = (gen::bool(rng), arb_et(rng));
                    let cause = gen::option(rng, |r| arb_cause(r, n));
                    let attrs = PathAttrs {
                        lock,
                        et,
                        failover: rng.gen_bool(0.3),
                        ..PathAttrs::default()
                    };
                    (path, attrs, cause)
                });
                let cause = gen::option(rng, |r| arb_cause(r, n));
                let info = WithdrawInfo {
                    et: arb_et(rng),
                    failover: rng.gen_bool(0.3),
                    ..WithdrawInfo::default()
                };
                let proc = ProcId(rng.gen_range(0u32..procs as u32) as u8);
                Op::Update(
                    from,
                    proc,
                    PrefixId(rng.gen_range(0u32..2)),
                    announce,
                    (info, cause),
                )
            }
            7..=8 => Op::LinkDown(from, arb_cause(rng, n)),
            _ => Op::LinkUp(from, arb_cause(rng, n)),
        }
    }

    /// Run `op` at router `r` (AS `me`): what it sent, whether it flagged
    /// a forwarding change, and its fingerprint afterwards.
    pub(super) fn apply<R: RouterLogic>(
        r: &mut R,
        g: &AsGraph,
        me: AsId,
        arena: &mut PathArena,
        down: &mut Down,
        op: &Op,
    ) -> (Vec<OutMsg>, bool, u64) {
        match op {
            Op::LinkDown(n, _) if !down.0.contains(n) => down.0.push(*n),
            Op::LinkUp(n, _) => down.0.retain(|d| d != n),
            _ => {}
        }
        let (out, fib_changed) = {
            let slot = |n: &AsId| g.slot_between(me, *n).expect("arb_op draws a neighbour");
            let mut ctx = RouterCtx::new(me, g, &*down, arena);
            match op {
                Op::Update(from, proc, prefix, announce, (info, cause)) => {
                    let kind = match announce {
                        Some((path, attrs, cause)) => UpdateKind::Announce(Route {
                            path: ctx.arena.intern_slice(path),
                            attrs: PathAttrs {
                                root_cause: cause.map(|c| ctx.arena.intern_cause(c)),
                                ..*attrs
                            },
                        }),
                        None => UpdateKind::Withdraw(WithdrawInfo {
                            root_cause: cause.map(|c| ctx.arena.intern_cause(c)),
                            ..*info
                        }),
                    };
                    let msg = UpdateMsg {
                        prefix: *prefix,
                        kind,
                    };
                    r.on_update(&mut ctx, slot(from), *proc, msg);
                }
                Op::LinkDown(n, cause) => r.on_link_down(&mut ctx, slot(n), *cause),
                Op::LinkUp(n, cause) => r.on_link_up(&mut ctx, slot(n), *cause),
            }
            (ctx.out, ctx.fib_changed)
        };
        let mut fp = StateFingerprint::new();
        r.fingerprint(&mut fp);
        (out, fib_changed, fp.value())
    }

    /// A router of AS `me` that has handled `ops` random events.
    fn grown<R: RouterLogic>(
        rng: &mut Rng,
        g: &AsGraph,
        arena: &mut PathArena,
        me: AsId,
        ops: usize,
        make: &impl Fn(AsId, u64) -> R,
    ) -> R {
        let mut r = make(me, rng.next_u64());
        let mut down = Down(Vec::new());
        for _ in 0..ops {
            let op = arb_op(rng, g, me, R::PROCS);
            apply(&mut r, g, me, arena, &mut down, &op);
        }
        r
    }

    /// `a.clone_from(&b)` leaves nothing of `a` behind: fed any further
    /// events it sends what `b.clone()` sends, in the same order, and
    /// fingerprints the same — whether `a` was larger than `b`, smaller,
    /// empty, or another AS's router with other neighbours. `seen` is
    /// shown each `(a, b)` before the rewind.
    fn rewind_equals_clone<R: RouterLogic + Clone>(
        seed: u64,
        make: impl Fn(AsId, u64) -> R,
        mut seen: impl FnMut(&R, &R),
    ) {
        cases(24, seed, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let busy: Vec<AsId> = g.ases().filter(|&v| g.degree(v) >= 3).collect();
            let me = busy[rng.gen_range(0..busy.len())];
            let other = busy[rng.gen_range(0..busy.len())];
            let mut arena = PathArena::new();
            let b = grown(rng, &g, &mut arena, me, 40, &make);
            let stale_ops = [0, 3, 40, 160][rng.gen_range(0usize..4)];
            let mut a = grown(rng, &g, &mut arena, other, stale_ops, &make);
            seen(&a, &b);
            a.clone_from(&b);
            let mut c = b.clone();
            let (mut arena_a, mut arena_c) = (arena.clone(), arena);
            let (mut down_a, mut down_c) = (Down(Vec::new()), Down(Vec::new()));
            for step in 0..60 {
                let op = arb_op(rng, &g, me, R::PROCS);
                let got = apply(&mut a, &g, me, &mut arena_a, &mut down_a, &op);
                let want = apply(&mut c, &g, me, &mut arena_c, &mut down_c, &op);
                assert_eq!(got, want, "step {step}: {op:?}");
            }
            assert_eq!(arena_a.node_count(), arena_c.node_count());
        });
    }

    #[test]
    fn bgp_router_rewind_equals_clone() {
        rewind_equals_clone(0xC10E1, |v, _| BgpRouter::new(v, vec![]), |_, _| {});
    }

    #[test]
    fn rbgp_router_rewind_equals_clone() {
        // Rewinds between RCI routers that both hold cause records, in
        // rows of different lengths.
        let mut both = 0;
        rewind_equals_clone(
            0xC10E2,
            |v, salt| {
                let cfg = RbgpConfig { rci: salt & 1 == 0 };
                RbgpRouter::new(v, vec![], cfg)
            },
            |a, b| {
                let (na, nb) = (a.known_causes().len(), b.known_causes().len());
                both += usize::from(na > 0 && nb > 0 && na != nb);
            },
        );
        assert!(
            both > 0,
            "no case rewound between two rows of cause records"
        );
    }

    #[test]
    fn stamp_router_rewind_equals_clone() {
        rewind_equals_clone(
            0xC10E3,
            |v, salt| StampRouter::new(v, vec![], LockStrategy::Random { seed: salt }),
            |_, _| {},
        );
    }
}

// ---------------------------------------------------------------------
// One speaker, three protocols: the contract they share
// ---------------------------------------------------------------------

mod speaker_contract {
    use super::rewinds::{apply, arb_op, Down, Op};
    use super::*;
    use std::collections::BTreeMap;

    use stamp_repro::bgp::router::{BgpRouter, RouterCtx, RouterLogic, Selection, SessionView};
    use stamp_repro::bgp::types::{CauseInfo, ProcId, RootCause, UpdateKind};
    use stamp_repro::bgp::Speaker;
    use stamp_repro::policy::{parse_pol, CompiledRegime, PolicyRegime};
    use stamp_repro::rbgp::{RbgpConfig, RbgpRouter};
    use stamp_repro::stamp::{LockStrategy, StampRouter};
    use stamp_repro::topology::{AsGraph, GraphBuilder, SessEntry};
    use stamp_repro::workload::{destination_candidates, Protocol, RunParams, Sim, PREFIX};

    /// The prefixes `arb_op` draws from.
    const PREFIXES: [PrefixId; 2] = [PrefixId(0), PrefixId(1)];

    /// Adj-RIB-Out is what the neighbours were told. A model per
    /// `(neighbour, proc, prefix)` replays every message the router sends
    /// while its neighbours announce, withdraw, drop and re-open sessions
    /// at random: no withdrawal retracts something the model does not
    /// hold, no announcement repeats what it holds (the per-message stamps
    /// `et` and `root_cause` aside), a session that went down or came up
    /// fresh holds nothing, and after every event the speaker's books equal
    /// the model (`books`; STAMP's `announced_colors_to` reads the same).
    /// R-BGP's targeted failover advertisement is the one message pair
    /// outside the books; it is recognised by its target (`holder`) — after
    /// the event for an announcement, before it for a retraction.
    fn adj_rib_out_is_what_was_told<R: RouterLogic>(
        seed: u64,
        make: impl Fn(AsId, u64) -> R,
        books: fn(&R) -> &Speaker,
        holder: fn(&R, PrefixId) -> Option<AsId>,
    ) {
        cases(24, seed, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let busy: Vec<AsId> = g.ases().filter(|&v| g.degree(v) >= 3).collect();
            let me = busy[rng.gen_range(0..busy.len())];
            let mut arena = PathArena::new();
            let mut r = make(me, rng.next_u64());
            assert_eq!(books(&r).procs(), R::PROCS, "runs what it declares");
            let mut down = Down(Vec::new());
            let mut model: BTreeMap<(AsId, ProcId, PrefixId), Route> = BTreeMap::new();
            for step in 0..120 {
                let op = arb_op(rng, &g, me, R::PROCS);
                let held_before = PREFIXES.map(|p| holder(&r, p));
                let (out, _, _) = apply(&mut r, &g, me, &mut arena, &mut down, &op);
                if let Op::LinkDown(n, _) | Op::LinkUp(n, _) = &op {
                    model.retain(|(to, _, _), _| to != n);
                }
                for m in &out {
                    let prefix = m.msg.prefix;
                    let key = (m.to, m.proc, prefix);
                    match m.msg.kind {
                        UpdateKind::Announce(mut route) => {
                            if route.attrs.failover && holder(&r, prefix) == Some(m.to) {
                                continue;
                            }
                            route.attrs.et = None;
                            route.attrs.root_cause = None;
                            let had = model.insert(key, route);
                            assert_ne!(had, Some(route), "step {step}: {op:?} repeats {m:?}");
                        }
                        UpdateKind::Withdraw(info) => {
                            if info.failover && held_before[prefix.index()] == Some(m.to) {
                                continue;
                            }
                            let had = model.remove(&key);
                            assert!(had.is_some(), "step {step}: {op:?} retracts nothing: {m:?}");
                        }
                    }
                }
                for (slot, e) in g.neighbor_entries(me).iter().enumerate() {
                    for p in PREFIXES {
                        for proc in ProcId::first_n(R::PROCS) {
                            let told = model.get(&(e.neighbor, proc, p));
                            let heard = books(&r).heard(slot, p, proc);
                            assert_eq!(heard, told, "step {step}: {op:?}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn bgp_adj_rib_out_is_what_was_told() {
        let make = |v, _| BgpRouter::new(v, vec![PrefixId(1)]);
        adj_rib_out_is_what_was_told(0xAD1, make, BgpRouter::speaker, |_, _| None);
    }

    #[test]
    fn rbgp_adj_rib_out_is_what_was_told() {
        let make = |v, salt: u64| {
            let cfg = RbgpConfig { rci: salt & 1 == 0 };
            RbgpRouter::new(v, vec![], cfg)
        };
        let (books, holder) = (RbgpRouter::speaker, RbgpRouter::failover_target);
        adj_rib_out_is_what_was_told(0xAD2, make, books, holder);
    }

    #[test]
    fn stamp_adj_rib_out_is_what_was_told() {
        let make = |v, seed| StampRouter::new(v, vec![], LockStrategy::Random { seed });
        adj_rib_out_is_what_was_told(0xAD3, make, StampRouter::speaker, |_, _| None);
    }

    /// Before any event is injected R-BGP adds nothing to BGP's choice: on
    /// generated 200-AS topologies every AS's R-BGP selection, with and
    /// without RCI, is path for path the one plain BGP makes.
    #[test]
    fn rbgp_selects_what_bgp_selects_before_any_event() {
        cases(3, 0x3E7A, |rng| {
            let seed = rng.next_u64();
            let g = generate(&GenConfig {
                n_ases: 200,
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let mut dests = destination_candidates(&g);
            rng.shuffle(&mut dests);
            dests.truncate(3);
            for params in [RunParams::fast(), RunParams::paper()] {
                for &dest in &dests {
                    let converged = |p: Protocol| {
                        let mut sim = Sim::on(&g)
                            .protocol(p)
                            .originate(dest, PREFIX)
                            .seed(seed)
                            .params(params.clone())
                            .build()
                            .expect("in range");
                        sim.converge();
                        sim
                    };
                    let bgp = converged(Protocol::Bgp);
                    let b = bgp.bgp().expect("bgp");
                    for p in [Protocol::Rbgp, Protocol::RbgpNoRci] {
                        let rbgp = converged(p);
                        let r = rbgp.rbgp().expect("rbgp");
                        for v in g.ases() {
                            let (want, got) =
                                (b.router(v).selection(PREFIX), r.router(v).selection(PREFIX));
                            let path =
                                |s: &Selection, e: &PathArena| s.path_id().map(|id| e.as_vec(id));
                            assert_eq!(
                                (got.is_some(), got.next_hop(), path(got, r.paths())),
                                (want.is_some(), want.next_hop(), path(want, b.paths())),
                                "{p} at {v} towards {dest}"
                            );
                        }
                    }
                }
            }
        });
    }

    /// Root-cause information acts only on a cause, and converging from
    /// cold injects none: on random topologies, under the paper's MRAI or
    /// none, R-BGP with and without RCI converge to the identical state —
    /// every selection (path ids included) and failover target, the
    /// arena's path count, every run counter.
    #[test]
    fn rbgp_converges_identically_with_and_without_rci() {
        cases(24, 0x2C1, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let Some(&dest) = rng.choose(&destination_candidates(&g)) else {
                return;
            };
            let seed = rng.next_u64();
            let params = match gen::bool(rng) {
                true => RunParams::paper(),
                false => RunParams::fast(),
            };
            let converged = |p: Protocol| {
                let mut sim = Sim::on(&g)
                    .protocol(p)
                    .originate(dest, PREFIX)
                    .seed(seed)
                    .params(params.clone())
                    .build()
                    .expect("in range");
                sim.converge();
                sim
            };
            let (with, without) = (converged(Protocol::Rbgp), converged(Protocol::RbgpNoRci));
            assert_eq!(with.stats(), without.stats(), "towards {dest}");
            let (a, b) = (with.rbgp().expect("rbgp"), without.rbgp().expect("rbgp"));
            assert_eq!(a.paths().node_count(), b.paths().node_count());
            for v in g.ases() {
                let (ra, rb) = (a.router(v), b.router(v));
                assert_eq!(ra.selection(PREFIX), rb.selection(PREFIX), "{v}");
                assert_eq!(
                    ra.failover_target(PREFIX),
                    rb.failover_target(PREFIX),
                    "{v}"
                );
                assert!(ra.known_causes().is_empty() && rb.known_causes().is_empty());
            }
        });
    }

    struct AllUp;

    impl SessionView for AllUp {
        fn session_entry_up(&self, _from: AsId, _e: &SessEntry) -> bool {
            true
        }
    }

    /// An originated route goes through the regime's export gate like any
    /// other, whichever protocol announces it: under `export own to peer
    /// deny` an origin with customer 1, peer 2 and provider 3 tells 1 and 3
    /// only — at start and again on a fresh session. (R-BGP's fork of the
    /// export rule once told the peer too.)
    #[test]
    fn own_prefix_respects_the_export_gate_under_every_protocol() {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap();
        b.peering(0, 2).unwrap();
        b.customer_of(0, 3).unwrap();
        let g = b.build().unwrap();
        let text = PolicyRegime::gao_rexford()
            .to_string()
            .replace("export own to peer allow", "export own to peer deny")
            .replace("regime gao-rexford", "regime quiet-origin");
        let regime = parse_pol(&text)
            .expect("a regime")
            .compile()
            .expect("compiles");
        let me = AsId(0);

        fn check<R: RouterLogic>(
            g: &AsGraph,
            regime: &CompiledRegime,
            me: AsId,
            make: impl Fn() -> R,
        ) {
            let recipients = |r: &mut R, event: &dyn Fn(&mut R, &mut RouterCtx)| {
                let mut arena = PathArena::new();
                let mut ctx = RouterCtx::with_policy(me, g, &AllUp, &mut arena, regime);
                event(r, &mut ctx);
                let mut to: Vec<u32> = ctx.out.iter().map(|m| m.to.0).collect();
                to.dedup();
                to
            };
            let mut r = make();
            assert_eq!(recipients(&mut r, &|r, ctx| r.on_start(ctx)), [1, 3]);
            for (n, want) in [(1, vec![1]), (2, vec![]), (3, vec![3])] {
                let cause = CauseInfo {
                    cause: RootCause::link(me, AsId(n)),
                    seq: 1,
                    up: true,
                };
                let slot = g.slot_between(me, AsId(n)).expect("adjacent");
                let told = recipients(&mut r, &|r, ctx| r.on_link_up(ctx, slot, cause));
                assert_eq!(told, want, "fresh session to {n}");
            }
        }
        check(&g, &regime, me, || BgpRouter::new(me, vec![PREFIX]));
        check(&g, &regime, me, || {
            RbgpRouter::new(me, vec![PREFIX], RbgpConfig::default())
        });
        check(&g, &regime, me, || {
            StampRouter::new(me, vec![PREFIX], LockStrategy::Random { seed: 1 })
        });
    }
}

// ---------------------------------------------------------------------
// A tracker seeded at its baseline observes like one that starts cold
// ---------------------------------------------------------------------

mod seeded_observation {
    use super::*;
    use stamp_repro::bgp::engine::Engine;
    use stamp_repro::bgp::router::BgpRouter;
    use stamp_repro::bgp::types::RootCause;
    use stamp_repro::eventsim::{SimDuration, SimTime};
    use stamp_repro::forwarding::view::SelectionKey;
    use stamp_repro::forwarding::{
        classify_all, Classification, DataPlane, EngineView, ForwardingView, Outcome, Step,
        TransientTracker,
    };
    use stamp_repro::policy::PolicyRegime;
    use stamp_repro::rbgp::{RbgpConfig, RbgpRouter};
    use stamp_repro::sim::{Probe, SnapshotCause};
    use stamp_repro::stamp::{LockStrategy, StampRouter};
    use stamp_repro::topology::{AsGraph, GraphBuilder};
    use stamp_repro::workload::{
        InstanceMetrics, NetEvent, Protocol, RunParams, Timeline, TimelineEvent, WatchdogConfig,
        PREFIX,
    };
    use stamp_repro::Sim;

    /// Everything a tracker reports.
    type Report = (Vec<Outcome>, Vec<bool>, [usize; 4], u64, bool);

    fn report(t: &TransientTracker) -> Report {
        (
            t.outcomes().to_vec(),
            t.affected().to_vec(),
            [
                t.affected_count(),
                t.loop_count(),
                t.blackhole_count(),
                t.control_affected_count(),
            ],
            t.observations,
            t.last_observation_had_problems,
        )
    }

    /// Two trackers on one play: one seeded at the baseline snapshot from
    /// the baseline's classification, one that starts from nothing (the
    /// reference: every tracker before seeding existed). After every
    /// observation both must report the same thing, verdicts included.
    struct Twin {
        dest: AsId,
        reachable: Vec<bool>,
        causes: Vec<RootCause>,
        trackers: Option<(TransientTracker, TransientTracker)>,
        /// The cold tracker's last batch tick with a problem.
        last_problem: Option<SimTime>,
        ticks: usize,
    }

    impl Probe for Twin {
        fn snapshot<V: ForwardingView + ?Sized>(
            &mut self,
            at: SimTime,
            cause: SnapshotCause,
            view: &V,
        ) {
            let (warm, cold) = self.trackers.get_or_insert_with(|| {
                let (reachable, causes) = (self.reachable.clone(), self.causes.clone());
                let baseline = Classification::of(view);
                let warm =
                    TransientTracker::seeded(self.dest, reachable.clone(), &baseline, view, causes);
                let mut cold = TransientTracker::new(self.dest, reachable);
                cold.with_control_metric(self.causes.clone(), view);
                (warm, cold)
            });
            if cause == SnapshotCause::Baseline {
                return;
            }
            warm.observe(view);
            cold.observe(view);
            assert_eq!(report(warm), report(cold), "tick {}", self.ticks);
            if cause == SnapshotCause::Batch && cold.last_observation_had_problems {
                self.last_problem = Some(at);
            }
            self.ticks += 1;
        }
    }

    /// Every observation a seeded tracker makes equals an unseeded one's,
    /// and `Sim::measure` (whose probe seeds) yields what the unseeded
    /// tracker counts. Returns the ticks observed and the ASes affected.
    fn assert_seeding_changes_nothing(
        baseline: &Sim,
        timeline: &Timeline,
        reachable: &[bool],
        what: &str,
    ) -> (usize, usize) {
        let m: InstanceMetrics = baseline
            .clone()
            .measure(timeline, reachable)
            .expect("timelines are drawn on this graph");
        let mut sim = baseline.clone();
        sim.reset_measurement();
        let mut twin = Twin {
            dest: sim.dest(),
            reachable: reachable.to_vec(),
            causes: timeline.root_causes(),
            trackers: None,
            last_problem: None,
            ticks: 0,
        };
        let played = sim.play(timeline, &mut twin).expect("resolves");
        let (_, cold) = twin.trackers.expect("a play snapshots its baseline");
        let recovery = twin
            .last_problem
            .map_or(0.0, |t| t.since(played.settle).as_secs_f64());
        assert_eq!(
            [
                m.affected,
                m.affected_loops,
                m.affected_blackholes,
                m.control_affected
            ],
            [
                cold.affected_count(),
                cold.loop_count(),
                cold.blackhole_count(),
                cold.control_affected_count()
            ],
            "{what}"
        );
        assert_eq!(m.data_recovery_s.to_bits(), recovery.to_bits(), "{what}");
        (twin.ticks, m.affected)
    }

    /// Link and node failures and recoveries at overlapping instants, on
    /// elements of `g` (never the destination itself).
    pub(super) fn arb_timeline(g: &AsGraph, dest: AsId, rng: &mut Rng) -> Timeline {
        let mut at = SimDuration::ZERO;
        let mut events = Vec::new();
        for _ in 0..rng.gen_range(1usize..6) {
            at = at + SimDuration::from_micros(rng.gen_range(0u64..3_000_000));
            let back = at + SimDuration::from_micros(rng.gen_range(1u64..5_000_000));
            let (down, up) = if rng.gen_bool(0.25) {
                let v = AsId(rng.gen_range(0u32..g.n() as u32));
                if v == dest {
                    continue;
                }
                (NetEvent::NodeDown(v), NetEvent::NodeUp(v))
            } else {
                let l = g.links()[rng.gen_range(0usize..g.n_links())];
                (NetEvent::LinkDown(l.a, l.b), NetEvent::LinkUp(l.a, l.b))
            };
            events.push(TimelineEvent { at, ev: down });
            if rng.gen_bool(0.6) {
                events.push(TimelineEvent { at: back, ev: up });
            }
        }
        events.sort_by_key(|e| e.at);
        Timeline::from_events("random", events)
    }

    /// The paper's delays and MRAI; a watchdog tight enough that a random
    /// regime's dispute wheel ends the run.
    fn params(policy: PolicyRegime) -> RunParams {
        RunParams {
            policy,
            watchdog: WatchdogConfig {
                arm_after: SimDuration::from_secs(120),
                sample_every: SimDuration::from_secs(5),
                max_events: 400_000,
            },
            ..RunParams::paper()
        }
    }

    /// BGP, R-BGP with and without RCI, and STAMP, on random timelines
    /// under the built-in regimes and random `.pol` ones: a tracker seeded
    /// at the baseline observes exactly as one that starts from nothing.
    #[test]
    fn a_seeded_tracker_equals_an_unseeded_one() {
        let (mut ticks, mut affected) = (0, 0);
        cases(24, 0x5EED0B, |rng| {
            let seed = rng.next_u64();
            let g = generate(&GenConfig {
                n_ases: rng.gen_range(40usize..90),
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let dest = AsId(rng.gen_range(0u32..g.n() as u32));
            let regime = match rng.gen_bool(0.5) {
                true => rng.choose(&PolicyRegime::builtins()).expect("some").clone(),
                false => regimes::arb_regime(rng),
            };
            let timeline = arb_timeline(&g, dest, rng);
            let reachable = timeline.reachable_after(&g, dest).expect("drawn on g");
            for p in Protocol::ALL {
                let mut baseline = Sim::on(&g)
                    .protocol(p)
                    .originate(dest, PREFIX)
                    .seed(seed)
                    .params(params(regime.clone()))
                    .build()
                    .expect("dest drawn from g");
                baseline.converge();
                let what = format!("{p} under {} on {timeline:?}", regime.name);
                let (t, a) =
                    assert_seeding_changes_nothing(&baseline, &timeline, &reachable, &what);
                (ticks, affected) = (ticks + t, affected + a);
            }
        });
        assert!(ticks > 1000, "the timelines must actually be observed");
        assert!(affected > 0, "and must actually hurt someone");
    }

    /// Failures and recoveries packed into a few hundred milliseconds, so
    /// that links flip while the network is still converging from the
    /// flips before: R-BGP's escape circuits are in use only then.
    fn arb_burst(g: &AsGraph, dest: AsId, rng: &mut Rng) -> Timeline {
        let mut at = SimDuration::ZERO;
        let mut events = Vec::new();
        for _ in 0..rng.gen_range(2usize..9) {
            at = at + SimDuration::from_micros(rng.gen_range(0u64..60_000));
            let back = at + SimDuration::from_micros(rng.gen_range(1u64..300_000));
            let (down, up) = if rng.gen_bool(0.2) {
                let v = AsId(rng.gen_range(0u32..g.n() as u32));
                if v == dest {
                    continue;
                }
                (NetEvent::NodeDown(v), NetEvent::NodeUp(v))
            } else {
                let l = g.links()[rng.gen_range(0usize..g.n_links())];
                (NetEvent::LinkDown(l.a, l.b), NetEvent::LinkUp(l.a, l.b))
            };
            events.push(TimelineEvent { at, ev: down });
            if rng.gen_bool(0.5) {
                events.push(TimelineEvent { at: back, ev: up });
            }
        }
        events.sort_by_key(|e| e.at);
        Timeline::from_events("burst", events)
    }

    /// A view with its touched feed hidden: a tracker fed through it
    /// re-examines every row at every observation.
    struct EveryRow<'a, V: ?Sized>(&'a V);

    impl<V: ForwardingView + ?Sized> ForwardingView for EveryRow<'_, V> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn n_ctx(&self) -> u8 {
            self.0.n_ctx()
        }
        fn start_ctx(&self, src: AsId) -> u8 {
            self.0.start_ctx(src)
        }
        fn step(&self, at: AsId, ctx: u8) -> Step {
            self.0.step(at, ctx)
        }
        fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
            self.0.selection_paths(v)
        }
        fn selection_key(&self, v: AsId) -> Option<SelectionKey> {
            self.0.selection_key(v)
        }
    }

    /// A tracker seeded at the baseline, checked at every observation: its
    /// verdicts are the from-scratch classification of the view, and
    /// everything it reports — the control metric included — is what a
    /// tracker that re-examines every row reports. Real `assert!`s, so the
    /// check runs in a release build too.
    struct Oracle {
        dest: AsId,
        reachable: Vec<bool>,
        causes: Vec<RootCause>,
        trackers: Option<(TransientTracker, TransientTracker)>,
        ticks: usize,
    }

    impl Probe for Oracle {
        fn snapshot<V: ForwardingView + ?Sized>(
            &mut self,
            _at: SimTime,
            cause: SnapshotCause,
            view: &V,
        ) {
            let (inc, every_row) = self.trackers.get_or_insert_with(|| {
                let (reachable, causes) = (self.reachable.clone(), self.causes.clone());
                let baseline = Classification::of(view);
                let inc =
                    TransientTracker::seeded(self.dest, reachable.clone(), &baseline, view, causes);
                let mut every_row = TransientTracker::new(self.dest, reachable);
                every_row.with_control_metric(self.causes.clone(), &EveryRow(view));
                (inc, every_row)
            });
            if cause == SnapshotCause::Baseline {
                return;
            }
            inc.observe(view);
            every_row.observe(&EveryRow(view));
            assert_eq!(inc.outcomes(), classify_all(view), "tick {}", self.ticks);
            assert_eq!(report(inc), report(every_row), "tick {}", self.ticks);
            self.ticks += 1;
        }
    }

    /// The touched feed is the only thing that tells a tracker which rows
    /// to look at, so it must report every row that changed — through
    /// liveness flips on R-BGP escape circuits, STAMP's resets, and
    /// rewinds that copy only the routers a play wrote. BGP, R-BGP with
    /// and without RCI, and STAMP replay random timelines, each from a
    /// session rewound in place onto one checkpoint (the second and later
    /// rewinds copy by journal), observed at every batch.
    #[test]
    fn incremental_verdicts_equal_the_oracle_at_every_observation() {
        let (mut ticks, mut hurt) = (0, 0);
        cases(48, 0x0BAC1E, |rng| {
            let seed = rng.next_u64();
            let g = generate(&GenConfig {
                n_ases: rng.gen_range(40usize..90),
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let dest = AsId(rng.gen_range(0u32..g.n() as u32));
            let regime = rng.choose(&PolicyRegime::builtins()).expect("some").clone();
            let timelines = [arb_burst(&g, dest, rng), arb_timeline(&g, dest, rng)];
            for p in Protocol::ALL {
                let mut sim = Sim::on(&g)
                    .protocol(p)
                    .originate(dest, PREFIX)
                    .seed(seed)
                    .params(params(regime.clone()))
                    .build()
                    .expect("dest drawn from g");
                sim.converge();
                let ck = sim.checkpoint();
                for timeline in [&timelines[0], &timelines[1], &timelines[0]] {
                    sim.restore(&ck).expect("same protocol");
                    sim.reset_measurement();
                    let mut oracle = Oracle {
                        dest,
                        reachable: timeline.reachable_after(&g, dest).expect("drawn on g"),
                        causes: timeline.root_causes(),
                        trackers: None,
                        ticks: 0,
                    };
                    sim.play(timeline, &mut oracle).expect("resolves");
                    let (inc, _) = oracle.trackers.expect("a play snapshots its baseline");
                    (ticks, hurt) = (ticks + oracle.ticks, hurt + inc.affected_count());
                }
            }
        });
        assert!(ticks > 1000, "the timelines must actually be observed");
        assert!(hurt > 0, "and must actually hurt someone");
    }

    /// What `Sim::measure` must count, worked out without the facade or
    /// the tracker: the engine driven by hand as `measure` drives it
    /// (converge, reset, inject the resolved timeline, run), every batch
    /// that changed a FIB classified from scratch, and the end state once
    /// more. Returns `[affected, looped, blackholed]` over the counted
    /// ASes (reachable after the timeline, and not the destination).
    fn exact_affected<R: DataPlane>(
        g: &AsGraph,
        params: &RunParams,
        seed: u64,
        dest: AsId,
        timeline: &Timeline,
        reachable: &[bool],
        router: impl FnMut(AsId) -> R,
    ) -> [usize; 3] {
        let mut e = Engine::new(g.clone(), params.engine_config(seed), router);
        e.start();
        e.run_until_quiescent(Some(SimTime::ZERO + params.phase_deadline), |_, _| {});
        e.reset_measurement();
        let epoch = e.now() + params.inject_delay;
        for (at, ev) in timeline.resolve(g).expect("drawn on g") {
            e.inject_at(epoch + at, ev);
        }
        let counted = |a: usize| reachable[a] && a != dest.index();
        let (mut looped, mut blackholed) = (vec![false; g.n()], vec![false; g.n()]);
        let mut classify = |engine: &Engine<R>| {
            let view = EngineView {
                engine,
                prefix: PREFIX,
            };
            for (a, o) in classify_all(&view).into_iter().enumerate() {
                match o {
                    Outcome::Delivered => {}
                    Outcome::Loop => looped[a] |= counted(a),
                    Outcome::Blackhole => blackholed[a] |= counted(a),
                }
            }
        };
        let deadline = epoch + timeline.end() + params.phase_deadline;
        e.run_until_quiescent(Some(deadline), |engine, _| classify(engine));
        classify(&e);
        let either: Vec<bool> = looped.iter().zip(&blackholed).map(|(l, b)| l | b).collect();
        let count = |ever: &[bool]| ever.iter().filter(|&&x| x).count();
        [count(&either), count(&looped), count(&blackholed)]
    }

    /// Under the paper's parameters a measurement counts every AS that
    /// loops or blackholes at any batch that changed a FIB: BGP, R-BGP
    /// with and without RCI, and STAMP on random timelines, each against
    /// the engine driven by hand and classified from scratch at every
    /// such batch. A sampling throttle fails this wherever it skips a
    /// batch with a transient problem nothing else saw.
    #[test]
    fn a_measurement_counts_every_batch_that_changed_a_fib() {
        let (mut ticks, mut affected) = (0, 0);
        cases(64, 0xEAC7, |rng| {
            let seed = rng.next_u64();
            let g = generate(&GenConfig {
                n_ases: rng.gen_range(40usize..90),
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let dest = AsId(rng.gen_range(0u32..g.n() as u32));
            let timeline = arb_timeline(&g, dest, rng);
            let reachable = timeline.reachable_after(&g, dest).expect("drawn on g");
            let params = RunParams::paper();
            let own = |v: AsId| if v == dest { vec![PREFIX] } else { vec![] };
            for p in Protocol::ALL {
                let (t, r) = (&timeline, reachable.as_slice());
                let exact = match p {
                    Protocol::Bgp => {
                        exact_affected(&g, &params, seed, dest, t, r, |v| BgpRouter::new(v, own(v)))
                    }
                    Protocol::RbgpNoRci | Protocol::Rbgp => {
                        let rci = p == Protocol::Rbgp;
                        exact_affected(&g, &params, seed, dest, t, r, |v| {
                            RbgpRouter::new(v, own(v), RbgpConfig { rci })
                        })
                    }
                    Protocol::Stamp => exact_affected(&g, &params, seed, dest, t, r, |v| {
                        StampRouter::new(v, own(v), LockStrategy::Random { seed })
                    }),
                };
                let mut sim = Sim::on(&g)
                    .protocol(p)
                    .originate(dest, PREFIX)
                    .seed(seed)
                    .params(params.clone())
                    .build()
                    .expect("dest drawn from g");
                let m = sim.measure(&timeline, &reachable).expect("drawn on g");
                assert_eq!(
                    [m.affected, m.affected_loops, m.affected_blackholes],
                    exact,
                    "{p} on {timeline:?}"
                );
                ticks += sim.observer_work().observations;
                affected += m.affected;
            }
        });
        assert!(ticks > 1000, "the timelines must actually be observed");
        assert!(affected > 0, "and must actually hurt someone");
    }

    /// A baseline that already blackholes counted ASes: the origin 2 hangs
    /// off 1, which hangs off 0, and the 2–1 link is down when the
    /// measurement starts. It comes back up: 1 hears 2 first, so at the
    /// first tick 1 delivers and 0 still blackholes. Both were broken at
    /// the baseline; only 0 counts — as it would have had nobody looked
    /// at the baseline.
    #[test]
    fn a_broken_baseline_is_counted_at_the_first_tick_not_at_seeding() {
        let mut b = GraphBuilder::new();
        b.preregister(3);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        let g = b.build().unwrap();
        let (dest, mid) = (AsId(2), AsId(1));
        let s = SimDuration::from_secs;
        let cut = Timeline::from_events(
            "cut",
            vec![TimelineEvent {
                at: s(0),
                ev: NetEvent::LinkDown(dest, mid),
            }],
        );
        let mend = Timeline::from_events(
            "mend",
            vec![TimelineEvent {
                at: s(0),
                ev: NetEvent::LinkUp(dest, mid),
            }],
        );
        for p in Protocol::ALL {
            let mut baseline = Sim::on(&g)
                .protocol(p)
                .originate(dest, PREFIX)
                .seed(3)
                .params(params(PolicyRegime::gao_rexford()))
                .build()
                .unwrap();
            baseline.converge();
            baseline
                .play(&cut, &mut stamp_repro::sim::NullProbe)
                .unwrap();
            let broken = baseline.with_view(|v| Classification::of(v).verdicts().to_vec());
            assert_eq!(
                broken,
                [Outcome::Blackhole, Outcome::Blackhole, Outcome::Delivered]
            );
            let everyone = vec![true; g.n()];
            assert_seeding_changes_nothing(&baseline, &mend, &everyone, "mend");
            let m = baseline.clone().measure(&mend, &everyone).unwrap();
            assert_eq!((m.affected, m.affected_blackholes), (1, 1), "{p}: only 0");
        }
    }
}

// ---------------------------------------------------------------------
// STAMP's phase reset clears flags and nothing else
// ---------------------------------------------------------------------

mod stamp_reset {
    use super::seeded_observation::arb_timeline;
    use super::*;
    use stamp_repro::bgp::types::Color;
    use stamp_repro::bgp::{FeedCursor, Touched};
    use stamp_repro::stamp::StampRouter;
    use stamp_repro::workload::{Protocol, RunParams, PREFIX};
    use stamp_repro::Sim;

    fn engine(sim: &Sim) -> &stamp_repro::bgp::Engine<StampRouter> {
        sim.stamp().expect("built as STAMP")
    }

    /// At a quiescent point every AS's active colour holds a route
    /// whenever the other colour does — exactly the condition under which
    /// `switch_active`, with the flags cleared, keeps the active colour.
    /// So the reset needs to clear the flags and nothing else.
    fn assert_active_holds_a_route(sim: &Sim, what: &str) {
        let e = engine(sim);
        for v in e.topology().ases() {
            let r = e.router(v);
            let a = r.active_color(PREFIX);
            let has = |c: Color| r.selection(PREFIX, c).is_some();
            assert!(!has(a.other()) || has(a), "{what}: AS {v:?} active {a:?}");
        }
    }

    /// The ASes holding an instability flag, ascending.
    fn flagged(sim: &Sim) -> Vec<AsId> {
        let e = engine(sim);
        let any = |v: &AsId| {
            Color::ALL
                .iter()
                .any(|&c| e.router(*v).is_unstable(PREFIX, c))
        };
        e.topology().ases().filter(any).collect()
    }

    /// Reset `sim` and return the ASes the reset marked, ascending.
    fn reset_marks(sim: &mut Sim) -> Vec<AsId> {
        let mut cursor = FeedCursor::default();
        engine(sim).touched_since(&mut cursor);
        sim.reset_measurement();
        match engine(sim).touched_since(&mut cursor) {
            Touched::All => panic!("a reset marks rows, not the table"),
            Touched::Rows(a, b) => {
                let mut v: Vec<AsId> = a.iter().chain(b).copied().collect();
                v.sort_unstable();
                v
            }
        }
    }

    /// The invariant, then a reset marks exactly the flagged ASes and
    /// clears them, and a second reset marks none.
    fn check_quiescent(sim: &mut Sim, what: &str) -> usize {
        assert_active_holds_a_route(sim, what);
        let held = flagged(sim);
        assert_eq!(reset_marks(sim), held, "{what}");
        assert!(flagged(sim).is_empty(), "{what}");
        assert!(reset_marks(sim).is_empty(), "{what}: second reset");
        assert_active_holds_a_route(sim, what);
        held.len()
    }

    /// Random STAMP timelines under the paper's delays and MRAI, played
    /// on a converged session, then again after a rewind to it.
    #[test]
    fn the_reset_marks_exactly_the_flagged_ases() {
        let mut held = 0;
        cases(16, 0x5E7F1A, |rng| {
            let seed = rng.next_u64();
            let g = generate(&GenConfig {
                n_ases: rng.gen_range(40usize..90),
                ..GenConfig::small(seed)
            })
            .expect("valid");
            let dest = AsId(rng.gen_range(0u32..g.n() as u32));
            let mut sim = Sim::on(&g)
                .protocol(Protocol::Stamp)
                .originate(dest, PREFIX)
                .seed(seed)
                .params(RunParams::paper())
                .build()
                .expect("dest drawn from g");
            sim.converge();
            held += check_quiescent(&mut sim, "converged");
            let ck = sim.checkpoint();
            for round in 0..2 {
                let t = arb_timeline(&g, dest, rng);
                sim.play(&t, &mut stamp_repro::sim::NullProbe)
                    .expect("drawn on g");
                held += check_quiescent(&mut sim, &format!("round {round}: {t:?}"));
                sim.restore(&ck).expect("same protocol");
            }
        });
        assert!(held > 0, "some timeline must leave a flag to clear");
    }
}

// ---------------------------------------------------------------------
// State that is dropped when idle changes no event
// ---------------------------------------------------------------------

mod idle_state {
    use super::*;
    use stamp_repro::bgp::engine::{Engine, EngineConfig, RunStats, ScenarioEvent};
    use stamp_repro::bgp::router::BgpRouter;
    use stamp_repro::eventsim::{Fnv1a, SimDuration, SimTime};
    use stamp_repro::topology::{AsGraph, GraphBuilder, LinkId};
    use stamp_repro::workload::{
        adversarial_families, destination_candidates, flap_train, reachability_mask,
        standard_families, NullProbe, Protocol, RunParams, Sim, Timeline, PREFIX,
    };

    fn fold(h: &mut Fnv1a, s: RunStats, now: SimTime, selections: u64) {
        for w in [
            now.as_micros(),
            s.announcements_sent,
            s.withdrawals_sent,
            s.delivered,
            s.dropped,
            s.coalesced,
            s.events,
            s.last_fib_change.as_micros(),
            s.last_delivery.as_micros(),
            selections,
        ] {
            h.write_u64(w);
        }
    }

    /// An MRAI row is emptied when its last timer lapses, and an empty row
    /// reads as idle slots — so emptying one changes no event. Pinned
    /// against the engine that kept idle rows (the digest below was
    /// computed at the commit before rows were emptied, and re-pinned at
    /// the commit before lapsing timers left the heap, with the clock
    /// added): every counter of `RunStats`, the clock, and every selection
    /// (path ids included, so intern order too) after convergence and
    /// after a sub-MRAI flap train, for all
    /// four protocols with MRAI on and off, and for three prefixes
    /// converging at once, where a row holds several slots and empties
    /// only when all of them are idle.
    #[test]
    fn emptying_idle_mrai_rows_changes_no_event() {
        let mut h = Fnv1a::new();
        cases(4, 0x1D7E, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let seed = rng.next_u64();
            let candidates = destination_candidates(&g);
            let dest = candidates[rng.gen_range(0..candidates.len())];
            let s = SimDuration::from_secs;
            let flap = Timeline::from_events(
                "flap",
                flap_train(dest, g.providers(dest)[0], s(0), s(10), 0.5, 3),
            );
            for params in [RunParams::paper(), RunParams::fast()] {
                for p in Protocol::ALL {
                    let mut sim = Sim::on(&g)
                        .protocol(p)
                        .originate(dest, PREFIX)
                        .seed(seed)
                        .params(params.clone())
                        .build()
                        .expect("in range");
                    for phase in 0..2 {
                        if phase == 0 {
                            sim.converge();
                        } else {
                            sim.play(&flap, &mut NullProbe).expect("resolves");
                        }
                        let selections = match p {
                            Protocol::Bgp => sim.bgp().expect("bgp").fingerprint(),
                            Protocol::Rbgp | Protocol::RbgpNoRci => {
                                sim.rbgp().expect("rbgp").fingerprint()
                            }
                            Protocol::Stamp => sim.stamp().expect("stamp").fingerprint(),
                        };
                        fold(&mut h, sim.stats(), sim.now(), selections.value());
                    }
                }
            }
            // Three origins, three prefixes, MRAI on; then a provider link
            // of the first origin fails and recovers.
            let origins: Vec<AsId> = candidates.iter().copied().take(3).collect();
            let cfg = EngineConfig {
                seed,
                ..EngineConfig::default()
            };
            let mut e: Engine<BgpRouter> = Engine::new(g.clone(), cfg, |v| {
                let own = origins.iter().position(|&o| o == v);
                BgpRouter::new(v, own.map(|i| PrefixId(i as u32)).into_iter().collect())
            });
            e.start();
            e.run_to_quiescence(None);
            fold(&mut h, *e.stats(), e.now(), e.fingerprint().value());
            let link = g
                .link_between(origins[0], g.providers(origins[0])[0])
                .expect("adjacent");
            e.inject_after(s(1), ScenarioEvent::FailLink(link));
            e.inject_after(s(8), ScenarioEvent::RecoverLink(link));
            e.run_to_quiescence(None);
            fold(&mut h, *e.stats(), e.now(), e.fingerprint().value());
        });
        assert_eq!(
            h.finish(),
            0x2bae_6e05_6baa_f358,
            "got {:#018x}",
            h.finish()
        );
    }

    /// `g` minus `removed`, link by link through the builder — what
    /// `without_links` did for every input before it learned to share.
    fn rebuilt_without(g: &AsGraph, removed: &[LinkId]) -> AsGraph {
        let mut b = GraphBuilder::new();
        for v in g.ases() {
            b.ensure_as(g.external_asn(v));
        }
        for (i, l) in g.links().iter().enumerate() {
            if !removed.contains(&LinkId::from_usize(i)) {
                b.add_link(g.external_asn(l.a), g.external_asn(l.b), l.kind)
                    .expect("a link of a valid graph");
            }
        }
        b.build().expect("a sub-graph of a valid graph")
    }

    /// `graph_after` hands back the caller's own graph handle exactly when
    /// the timeline removes nothing, and sharing it changes no mask: for
    /// all nine campaign families `reachable_after` is the mask of the
    /// graph rebuilt without the removed links.
    #[test]
    fn graph_after_shares_the_graph_iff_nothing_was_removed() {
        cases(6, 0x6AF7, |rng| {
            let g = generate(&arb_gen_config(rng)).expect("valid");
            let mut dests = destination_candidates(&g);
            rng.shuffle(&mut dests);
            dests.truncate(4);
            let mut families = standard_families(&g, rng, &dests, true);
            families.extend(adversarial_families(&g, rng, &dests, true));
            assert_eq!(families.len(), 9);
            for t in &families {
                let removed = t.removed_links(&g).expect("built on g");
                let after = t.graph_after(&g).expect("built on g");
                assert_eq!(after.same_handle(&g), removed.is_empty(), "{}", t.name());
                if ["flap-train", "maintenance-drain"].contains(&t.name()) {
                    assert!(removed.is_empty(), "{} ends recovered", t.name());
                }
                assert_eq!(after.n_links(), g.n_links() - removed.len());
                let rebuilt = rebuilt_without(&g, &removed);
                for &d in &dests {
                    assert_eq!(
                        t.reachable_after(&g, d).expect("built on g"),
                        reachability_mask(&rebuilt, d),
                        "{} towards {d}",
                        t.name()
                    );
                }
            }
            let staggered = &families[1];
            assert!(!staggered
                .graph_after(&g)
                .expect("built on g")
                .same_handle(&g));
        });
    }
}
