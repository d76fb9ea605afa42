//! Property-based tests (in-repo `check` harness) over the core data
//! structures and the paper's invariants.

use stamp_repro::bgp::patharena::PathArena;
use stamp_repro::bgp::types::{PathAttrs, PrefixId, Route};
use stamp_repro::eventsim::check::{cases, gen};
use stamp_repro::eventsim::Rng;
use stamp_repro::topology::path::{check_valley_free, split_uphill_downhill, ValleyCheck};
use stamp_repro::topology::uphill::UphillDag;
use stamp_repro::topology::{generate, AsId, GenConfig, StaticRoutes};

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
/// `Display`/`FromStr` for every registry row (the campaign binary's
/// `--protocols` flag depends on this), and junk is a typed error.
#[test]
fn protocol_display_from_str_round_trips() {
    use stamp_repro::workload::{Protocol, ProtocolSpec};
    for p in Protocol::ALL {
        assert_eq!(p.to_string(), p.label());
        assert_eq!(p.to_string().parse::<Protocol>(), Ok(p));
        assert_eq!(p.label().parse::<Protocol>(), Ok(p));
        for alias in ProtocolSpec::of(p).aliases {
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
            let spec = ProtocolSpec::of(p);
            assert!(
                spec.label.eq_ignore_ascii_case(&junk)
                    || spec.aliases.iter().any(|a| a.eq_ignore_ascii_case(&junk)),
                "{junk:?} parsed to {p} without matching its registry row"
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
                    let (red, blue) = r.announced_colors_to(p, PrefixId(0));
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
            let text = t.to_scn();
            let back = parse_scn(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
            assert_eq!(back, t);
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
    use stamp_repro::topology::{Relation, SessEntry};
    use std::collections::BTreeMap;

    /// On random generated topologies, the CSR session table must agree
    /// with ground truth rebuilt from the raw link list: per-node entries
    /// in customers/peers/providers order (each ascending), relations and
    /// link ids exact, session ids a dense permutation of `0..2·links`,
    /// and `(from, to)` resolution consistent with endpoints resolution.
    #[test]
    fn session_table_matches_link_list_ground_truth() {
        cases(24, 0x5E55, |rng| {
            let g = generate(&arb_gen_config(rng)).unwrap();
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
                    assert_eq!(g.sess_ends(rev).from, neighbor);
                    assert_eq!(g.sess_ends(rev).to, v);
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
        });
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
