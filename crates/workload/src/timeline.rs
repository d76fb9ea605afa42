//! The scenario timeline model: timestamped network events plus the
//! reusable generators campaigns are composed from.
//!
//! A [`Timeline`] is pure data — a named, time-ordered list of
//! [`NetEvent`]s at offsets from an *injection epoch* the harness picks
//! (typically "initial convergence plus a guard interval"). Events name
//! ASes by their dense ids, not engine [`LinkId`]s, so a timeline is
//! meaningful independent of any one `AsGraph` instance and can round-trip
//! through the `.scn` text format (see [`crate::dsl`]); [`Timeline::resolve`]
//! binds it to a topology when a run actually needs link ids.
//!
//! Generators ([`flap_train`], [`staggered_link_failures`],
//! [`correlated_node_outage`], [`maintenance_windows`],
//! [`background_churn`]) return event batches that compose via
//! [`Timeline::from_events`] (a stable sort, so equal-time events keep
//! generator order — the same tie-break the engine scheduler applies at
//! injection). Randomised generators draw from a caller-provided
//! [`Rng`], by convention `rng_stream(seed, tags::TIMELINE)`, so every
//! timeline is byte-reproducible from its seed.

use crate::params::PREFIX;
use stamp_bgp::engine::ScenarioEvent;
use stamp_bgp::types::RootCause;
use stamp_eventsim::rng::Rng;
use stamp_eventsim::{textfmt, SimDuration};
use stamp_topology::{AsGraph, AsId, LinkId, StaticRoutes};
use std::collections::VecDeque;
use std::fmt;

/// A network state change, graph-independent (ASes by dense id).
///
/// The first four variants are *physical* — they change which sessions
/// exist. The last three are *adversarial control-plane* events: the
/// topology stays intact while a router originates or propagates routes
/// it should not. They have no [`RootCause`] (nothing failed) and remove
/// no links (reachability ground truth is unchanged — that asymmetry
/// between "the packet could get there" and "the RIB sends it elsewhere"
/// is precisely what the hijack metrics measure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// The link between two ASes fails.
    LinkDown(AsId, AsId),
    /// The link between two ASes recovers.
    LinkUp(AsId, AsId),
    /// An AS fails entirely (all sessions drop; the router reboots cold).
    NodeDown(AsId),
    /// A failed AS comes back (live incident links re-establish sessions).
    NodeUp(AsId),
    /// `attacker` originates the measured prefix itself. With
    /// `forged_origin` set, it instead announces the forged path
    /// `[attacker, victim]` — a path-prepend (type-2) hijack that
    /// survives origin validation.
    PrefixHijack {
        attacker: AsId,
        forged_origin: Option<AsId>,
    },
    /// The AS re-exports its selected route to *every* neighbor,
    /// violating the valley-free export rule (a classic route leak).
    RouteLeak(AsId),
    /// Every router swaps to the policy regime at this index in
    /// [`stamp_policy::PolicyRegime::named`] — a global misconfiguration
    /// event (out-of-range indices are ignored by the engine).
    PolicyFlip(u16),
}

impl NetEvent {
    /// The root cause this event asserts or retracts (link events of either
    /// direction share one cause, as do node down/up pairs). Adversarial
    /// events return `None`: nothing physical failed, so the control-plane
    /// "affected" metric has no cause to key on.
    pub fn root_cause(self) -> Option<RootCause> {
        match self {
            NetEvent::LinkDown(a, b) | NetEvent::LinkUp(a, b) => Some(RootCause::link(a, b)),
            NetEvent::NodeDown(v) | NetEvent::NodeUp(v) => Some(RootCause::Node(v)),
            NetEvent::PrefixHijack { .. } | NetEvent::RouteLeak(_) | NetEvent::PolicyFlip(_) => {
                None
            }
        }
    }

    /// Whether this is a failure (down) event.
    pub fn is_failure(self) -> bool {
        matches!(self, NetEvent::LinkDown(..) | NetEvent::NodeDown(_))
    }
}

/// One timeline entry: an event at an offset from the injection epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Offset from the injection epoch.
    pub at: SimDuration,
    /// What happens.
    pub ev: NetEvent,
}

/// The latest offset [`Timeline::resolve`] lets an event carry: 2^32 s, over
/// a century of simulated time and some 4000 times short of where the `u64`
/// microsecond clock wraps — so `epoch + offset` and the phase deadline
/// behind it cannot overflow. (`.scn` itself admits any `u64` of µs.)
pub const MAX_OFFSET: SimDuration = SimDuration::from_secs(1 << 32);

/// Errors binding a timeline to a topology and a clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// An event names a link that does not exist in the graph.
    NoSuchLink(AsId, AsId),
    /// An event names an AS outside the graph.
    NoSuchNode(AsId),
    /// An event's offset is beyond [`MAX_OFFSET`]: added to an injection
    /// epoch it could wrap the simulation clock.
    OffsetTooLarge(SimDuration),
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::NoSuchLink(a, b) => write!(f, "no link between {a} and {b}"),
            TimelineError::NoSuchNode(v) => write!(f, "no AS {v} in the topology"),
            TimelineError::OffsetTooLarge(at) => {
                write!(f, "event offset {at} exceeds the limit of {MAX_OFFSET}")
            }
        }
    }
}

/// A named, time-ordered scenario timeline.
///
/// Invariant: event offsets are non-decreasing; equal-time events apply in
/// vector order (which the engine preserves — see `Engine::inject_at`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    name: String,
    events: Vec<TimelineEvent>,
}

/// Coerce a name into the `.scn`-printable charset (`textfmt::name_char`,
/// the one definition): every other character becomes `-`, an empty name becomes
/// `unnamed`. Applied by the constructors, so *every* `Timeline`
/// round-trips through the DSL.
fn sanitize_name(name: String) -> String {
    if name.is_empty() {
        return "unnamed".to_string();
    }
    if textfmt::valid_name(&name) {
        return name;
    }
    name.chars()
        .map(|c| if textfmt::name_char(c) { c } else { '-' })
        .collect()
}

impl Timeline {
    /// Empty timeline. The name is sanitized to the `.scn` charset
    /// (see [`crate::dsl`]).
    pub fn new(name: impl Into<String>) -> Timeline {
        Timeline {
            name: sanitize_name(name.into()),
            events: Vec::new(),
        }
    }

    /// Build from unordered events: stable-sorts by offset, so equal-time
    /// events keep their relative input order. The name is sanitized to
    /// the `.scn` charset.
    pub fn from_events(name: impl Into<String>, mut events: Vec<TimelineEvent>) -> Timeline {
        events.sort_by_key(|e| e.at);
        Timeline {
            name: sanitize_name(name.into()),
            events,
        }
    }

    /// The timeline's name (also the `.scn` header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The events, in application order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Append one event; `at` must not precede the last event's offset.
    pub fn push(&mut self, at: SimDuration, ev: NetEvent) {
        assert!(
            self.events.last().map(|e| e.at <= at).unwrap_or(true),
            "timeline events must be pushed in non-decreasing time order"
        );
        self.events.push(TimelineEvent { at, ev });
    }

    /// Whether offsets are non-decreasing (always true for values built
    /// through this API; checked explicitly by the property suite and the
    /// `.scn` parser).
    pub fn is_well_formed(&self) -> bool {
        self.events.windows(2).all(|w| w[0].at <= w[1].at)
    }

    /// Offset of the last event ([`SimDuration::ZERO`] when empty). The
    /// harness measures recovery relative to the epoch plus this "settle
    /// point": nothing injected after it, so late problems are transients.
    pub fn end(&self) -> SimDuration {
        self.events
            .last()
            .map(|e| e.at)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Bind every event to engine form against a concrete topology, and
    /// hold every offset to [`MAX_OFFSET`] — the schedule this returns is
    /// what [`Sim::play`](crate::sim::Sim::play) adds to its epoch.
    pub fn resolve(&self, g: &AsGraph) -> Result<Vec<(SimDuration, ScenarioEvent)>, TimelineError> {
        let link = |a: AsId, b: AsId| -> Result<LinkId, TimelineError> {
            g.link_between(a, b).ok_or(TimelineError::NoSuchLink(a, b))
        };
        let node = |v: AsId| -> Result<AsId, TimelineError> {
            if v.index() < g.n() {
                Ok(v)
            } else {
                Err(TimelineError::NoSuchNode(v))
            }
        };
        self.events
            .iter()
            .map(|e| {
                if e.at > MAX_OFFSET {
                    return Err(TimelineError::OffsetTooLarge(e.at));
                }
                let ev = match e.ev {
                    NetEvent::LinkDown(a, b) => ScenarioEvent::FailLink(link(a, b)?),
                    NetEvent::LinkUp(a, b) => ScenarioEvent::RecoverLink(link(a, b)?),
                    NetEvent::NodeDown(v) => ScenarioEvent::FailNode(node(v)?),
                    NetEvent::NodeUp(v) => ScenarioEvent::RecoverNode(node(v)?),
                    NetEvent::PrefixHijack {
                        attacker,
                        forged_origin,
                    } => ScenarioEvent::Hijack {
                        attacker: node(attacker)?,
                        prefix: PREFIX,
                        forged_origin: forged_origin.map(node).transpose()?,
                    },
                    NetEvent::RouteLeak(v) => ScenarioEvent::Leak {
                        leaker: node(v)?,
                        prefix: PREFIX,
                    },
                    NetEvent::PolicyFlip(idx) => ScenarioEvent::FlipPolicy(idx),
                };
                Ok((e.at, ev))
            })
            .collect()
    }

    /// The links missing from the topology once the whole timeline has
    /// played out — the input for post-timeline reachability. Replays the
    /// net liveness: a link is removed if it is down at the end, or if
    /// either endpoint node is down at the end. A flap train that ends
    /// recovered removes nothing.
    pub fn removed_links(&self, g: &AsGraph) -> Result<Vec<LinkId>, TimelineError> {
        let mut link_down = vec![false; g.n_links()];
        let mut node_down = vec![false; g.n()];
        for e in &self.events {
            match e.ev {
                NetEvent::LinkDown(a, b) | NetEvent::LinkUp(a, b) => {
                    let link = g
                        .link_between(a, b)
                        .ok_or(TimelineError::NoSuchLink(a, b))?;
                    link_down[link.index()] = e.ev.is_failure();
                }
                NetEvent::NodeDown(v) | NetEvent::NodeUp(v) => {
                    *node_down
                        .get_mut(v.index())
                        .ok_or(TimelineError::NoSuchNode(v))? = e.ev.is_failure();
                }
                // Adversarial events never touch the physical topology:
                // a hijacked prefix is still *reachable*, the RIB just
                // points the wrong way.
                NetEvent::PrefixHijack { .. }
                | NetEvent::RouteLeak(_)
                | NetEvent::PolicyFlip(_) => {}
            }
        }
        let removed: Vec<LinkId> = g
            .links()
            .iter()
            .enumerate()
            .filter(|(i, l)| link_down[*i] || node_down[l.a.index()] || node_down[l.b.index()])
            .map(|(i, _)| LinkId::from_usize(i))
            .collect();
        Ok(removed)
    }

    /// The topology once the whole timeline has played out: `g` minus
    /// [`Timeline::removed_links`] (dense ids unchanged). A timeline that
    /// ends with every link back up gets `g` itself — the same shared
    /// handle, O(1) — not a rebuilt copy of it
    /// ([`AsGraph::without_links`] of nothing).
    pub fn graph_after(&self, g: &AsGraph) -> Result<AsGraph, TimelineError> {
        Ok(g.without_links(&self.removed_links(g)?))
    }

    /// Post-timeline reachability of `dest`: [`reachability_mask`] over
    /// [`Timeline::graph_after`] — the ground truth a cell's
    /// transient-problem metrics are measured against (`reachable` of
    /// [`Sim::measure`](crate::sim::Sim::measure)). Callers with several
    /// destinations per timeline build the after-graph once themselves.
    pub fn reachable_after(&self, g: &AsGraph, dest: AsId) -> Result<Vec<bool>, TimelineError> {
        Ok(reachability_mask(&self.graph_after(g)?, dest))
    }

    /// Root causes touched by the timeline, deduplicated in first-seen
    /// order (the control-plane "affected in some ways" metric keys on
    /// these).
    pub fn root_causes(&self) -> Vec<RootCause> {
        let mut seen = Vec::new();
        for e in &self.events {
            if let Some(c) = e.ev.root_cause() {
                if !seen.contains(&c) {
                    seen.push(c);
                }
            }
        }
        seen
    }
}

/// `mask[v]`: does AS `v` have a policy-compliant route to `dest` in `g`?
/// The workspace's one reachability-mask implementation — cells, what-ifs
/// and tests all get theirs here (usually via
/// [`Timeline::reachable_after`]).
pub fn reachability_mask(g: &AsGraph, dest: AsId) -> Vec<bool> {
    let truth = StaticRoutes::compute(g, dest);
    g.ases().map(|v| truth.reachable(v)).collect()
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A link flap train: the `a`–`b` link fails at `start + k·period` for
/// `cycles` cycles and recovers `duty·period` later each time (duty is the
/// fraction of each period spent *down*, clamped to (0, 1)). A flap train
/// ends with the link up.
pub fn flap_train(
    a: AsId,
    b: AsId,
    start: SimDuration,
    period: SimDuration,
    duty: f64,
    cycles: u32,
) -> Vec<TimelineEvent> {
    let duty = duty.clamp(0.01, 0.99);
    let down_for = period.mul_f64(duty);
    let mut out = Vec::with_capacity(cycles as usize * 2);
    for k in 0..cycles as u64 {
        let down_at = start + period.mul_f64(k as f64);
        out.push(TimelineEvent {
            at: down_at,
            ev: NetEvent::LinkDown(a, b),
        });
        out.push(TimelineEvent {
            at: down_at + down_for,
            ev: NetEvent::LinkUp(a, b),
        });
    }
    out
}

/// Staggered multi-link failures: the `k`-th link fails at `start + k·gap`
/// and never recovers (the paper's Figure 3 shapes are the `gap = 0`
/// special case).
pub fn staggered_link_failures(
    links: &[(AsId, AsId)],
    start: SimDuration,
    gap: SimDuration,
) -> Vec<TimelineEvent> {
    links
        .iter()
        .enumerate()
        .map(|(k, &(a, b))| TimelineEvent {
            at: start + gap.mul_f64(k as f64),
            ev: NetEvent::LinkDown(a, b),
        })
        .collect()
}

/// A correlated node outage: every node in `nodes` fails at `at`
/// simultaneously (one regional event); with `restore_after` set, all
/// recover together that much later. Combine with [`provider_cone`] plus
/// [`choose_k`] to model "half the destination's provider cone" outages.
pub fn correlated_node_outage(
    nodes: &[AsId],
    at: SimDuration,
    restore_after: Option<SimDuration>,
) -> Vec<TimelineEvent> {
    let mut out: Vec<TimelineEvent> = nodes
        .iter()
        .map(|&v| TimelineEvent {
            at,
            ev: NetEvent::NodeDown(v),
        })
        .collect();
    if let Some(d) = restore_after {
        out.extend(nodes.iter().map(|&v| TimelineEvent {
            at: at + d,
            ev: NetEvent::NodeUp(v),
        }));
    }
    out
}

/// Staggered maintenance: node `k` drains (fails) at `start + k·gap` and
/// restores `drain` later — rolling maintenance windows, one node in the
/// set down at a time when `gap ≥ drain`.
pub fn maintenance_windows(
    nodes: &[AsId],
    start: SimDuration,
    drain: SimDuration,
    gap: SimDuration,
) -> Vec<TimelineEvent> {
    let mut out = Vec::with_capacity(nodes.len() * 2);
    for (k, &v) in nodes.iter().enumerate() {
        let down_at = start + gap.mul_f64(k as f64);
        out.push(TimelineEvent {
            at: down_at,
            ev: NetEvent::NodeDown(v),
        });
        out.push(TimelineEvent {
            at: down_at + drain,
            ev: NetEvent::NodeUp(v),
        });
    }
    out
}

/// The simplest what-if shape: the `a`–`b` link fails at the epoch and
/// never recovers (queryd's `WHATIF FAIL-LINK a b`). One event, so the
/// settle point is the injection instant — recovery metrics read as "time
/// to route around the loss".
pub fn single_link_failure(a: AsId, b: AsId) -> Vec<TimelineEvent> {
    vec![TimelineEvent {
        at: SimDuration::ZERO,
        ev: NetEvent::LinkDown(a, b),
    }]
}

/// A single maintenance drain: `v` fails at the epoch and restores `drain`
/// later (queryd's `WHATIF DRAIN-NODE x`; the one-node special case of
/// [`maintenance_windows`]).
pub fn node_drain(v: AsId, drain: SimDuration) -> Vec<TimelineEvent> {
    maintenance_windows(&[v], SimDuration::ZERO, drain, SimDuration::ZERO)
}

/// An origin hijack: `attacker` starts originating the measured prefix at
/// `at` (`.scn` verb `hijack <as>`). One event — the interesting dynamics
/// are in whose RIBs the forged route wins, not in the timeline.
pub fn prefix_hijack(attacker: AsId, at: SimDuration) -> Vec<TimelineEvent> {
    vec![TimelineEvent {
        at,
        ev: NetEvent::PrefixHijack {
            attacker,
            forged_origin: None,
        },
    }]
}

/// A path-prepend (type-2) hijack: `attacker` announces the forged path
/// `[attacker, victim]` at `at` (`.scn` verb `hijack-prepend`), claiming
/// adjacency to the true origin so origin-validation filters pass.
pub fn prepend_hijack(attacker: AsId, victim: AsId, at: SimDuration) -> Vec<TimelineEvent> {
    vec![TimelineEvent {
        at,
        ev: NetEvent::PrefixHijack {
            attacker,
            forged_origin: Some(victim),
        },
    }]
}

/// A route leak: `leaker` re-exports its selected route to every neighbor
/// at `at` (`.scn` verb `route-leak`), turning a customer or peer route
/// into transit it never sold.
pub fn route_leak(leaker: AsId, at: SimDuration) -> Vec<TimelineEvent> {
    vec![TimelineEvent {
        at,
        ev: NetEvent::RouteLeak(leaker),
    }]
}

/// A global policy misconfiguration: every router swaps to the regime at
/// `index` in [`stamp_policy::PolicyRegime::named`] at `at` (`.scn` verb
/// `flip-policy`).
pub fn policy_flip(index: u16, at: SimDuration) -> Vec<TimelineEvent> {
    vec![TimelineEvent {
        at,
        ev: NetEvent::PolicyFlip(index),
    }]
}

/// A uniformly chosen attacker AS distinct from `avoid` (the victim
/// origin) — the seeded half of the adversarial generators: which AS goes
/// rogue is the random variable, what it does is the family.
pub fn random_attacker(g: &AsGraph, rng: &mut Rng, avoid: AsId) -> AsId {
    assert!(g.n() > 1, "need a second AS to be the attacker");
    loop {
        // simlint::allow(lossy-cast, "AS counts are far below u32::MAX; gen_range needs a u32 bound")
        let v = AsId(rng.gen_range(0u32..g.n() as u32));
        if v != avoid {
            return v;
        }
    }
}

/// Random background churn: up to `flaps` link outages at uniform times in
/// `[start, start + horizon)`, each lasting `mean_downtime × U[0.5, 1.5)`.
/// Outages that would overlap an earlier outage of the same link are
/// skipped (a link is never failed twice concurrently), so fewer than
/// `flaps` events may result. Every outage recovers.
pub fn background_churn(
    g: &AsGraph,
    rng: &mut Rng,
    start: SimDuration,
    horizon: SimDuration,
    flaps: usize,
    mean_downtime: SimDuration,
) -> Vec<TimelineEvent> {
    if g.n_links() == 0 {
        return Vec::new();
    }
    // Draw candidates first, then resolve overlaps in time order so the
    // kept set is independent of draw order.
    let mut cands: Vec<(SimDuration, SimDuration, LinkId)> = (0..flaps)
        .map(|_| {
            // simlint::allow(lossy-cast, "link counts are far below u32::MAX; gen_range needs a u32 bound")
            let id = LinkId(rng.gen_range(0u32..g.n_links() as u32));
            let down_at = start + horizon.mul_f64(rng.gen_f64());
            let downtime = mean_downtime.mul_f64(0.5 + rng.gen_f64());
            (down_at, downtime, id)
        })
        .collect();
    cands.sort_by_key(|&(at, _, id)| (at, id.index()));
    let mut busy_until: Vec<Option<SimDuration>> = vec![None; g.n_links()];
    let mut out = Vec::new();
    for (down_at, downtime, id) in cands {
        if let Some(until) = busy_until[id.index()] {
            if down_at < until {
                continue; // still down from an earlier flap
            }
        }
        let up_at = down_at + downtime;
        busy_until[id.index()] = Some(up_at);
        let l = g.link(id);
        out.push(TimelineEvent {
            at: down_at,
            ev: NetEvent::LinkDown(l.a, l.b),
        });
        out.push(TimelineEvent {
            at: up_at,
            ev: NetEvent::LinkUp(l.a, l.b),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Node-set selectors for correlated scenarios
// ---------------------------------------------------------------------

/// The provider cone of `dest`: every direct or indirect provider, BFS
/// order (deterministic).
pub fn provider_cone(g: &AsGraph, dest: AsId) -> Vec<AsId> {
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::new();
    seen[dest.index()] = true;
    queue.push_back(dest);
    let mut cone = Vec::new();
    while let Some(v) = queue.pop_front() {
        for &p in g.providers(v) {
            if !seen[p.index()] {
                seen[p.index()] = true;
                cone.push(p);
                queue.push_back(p);
            }
        }
    }
    cone
}

/// A uniformly chosen `k`-subset, preserving the input order of the kept
/// elements (partial Fisher–Yates on indices).
pub fn choose_k(rng: &mut Rng, xs: &[AsId], k: usize) -> Vec<AsId> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    rng.shuffle(&mut idx);
    let mut kept: Vec<usize> = idx.into_iter().take(k.min(xs.len())).collect();
    kept.sort_unstable();
    kept.into_iter().map(|i| xs[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_topology::GraphBuilder;

    fn diamond() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(5);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn flap_train_alternates_and_ends_up() {
        let t = Timeline::from_events(
            "flap",
            flap_train(
                AsId(4),
                AsId(2),
                SimDuration::ZERO,
                SimDuration::from_secs(2),
                0.5,
                3,
            ),
        );
        assert!(t.is_well_formed());
        assert_eq!(t.events().len(), 6);
        let g = diamond();
        assert_eq!(t.removed_links(&g).unwrap(), Vec::<LinkId>::new());
        // Alternating down/up.
        for (i, e) in t.events().iter().enumerate() {
            let down = matches!(e.ev, NetEvent::LinkDown(..));
            assert_eq!(down, i % 2 == 0, "event {i}");
        }
        assert_eq!(t.end(), SimDuration::from_secs(5));
    }

    #[test]
    fn staggered_failures_accumulate_removals() {
        let g = diamond();
        let t = Timeline::from_events(
            "stagger",
            staggered_link_failures(
                &[(AsId(4), AsId(2)), (AsId(4), AsId(3))],
                SimDuration::from_secs(1),
                SimDuration::from_secs(30),
            ),
        );
        let removed = t.removed_links(&g).unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(t.root_causes().len(), 2);
    }

    #[test]
    fn node_outage_with_restore_removes_nothing() {
        let g = diamond();
        let t = Timeline::from_events(
            "outage",
            correlated_node_outage(
                &[AsId(2), AsId(3)],
                SimDuration::from_secs(1),
                Some(SimDuration::from_secs(60)),
            ),
        );
        assert!(t.is_well_formed());
        assert_eq!(t.removed_links(&g).unwrap(), Vec::<LinkId>::new());
        // Without restore, both nodes' incident links are gone.
        let t2 = Timeline::from_events(
            "outage2",
            correlated_node_outage(&[AsId(2)], SimDuration::from_secs(1), None),
        );
        assert_eq!(t2.removed_links(&g).unwrap().len(), 2);
    }

    #[test]
    fn reachable_after_equals_the_hand_rolled_mask_on_a_node_failure() {
        // A node failure names no link, so the mask is only right if
        // `removed_links` replays node liveness: one provider of a
        // multi-homed AS dies for good while another flaps and recovers.
        let g = generate(&GenConfig::small(17)).unwrap();
        let dest = crate::canned::destination_candidates(&g)[0];
        let providers = g.providers(dest);
        let mut events = correlated_node_outage(&[providers[0]], SimDuration::ZERO, None);
        events.extend(correlated_node_outage(
            &[providers[1]],
            SimDuration::from_secs(1),
            Some(SimDuration::from_secs(5)),
        ));
        let t = Timeline::from_events("node-failure", events);

        let removed = t.removed_links(&g).unwrap();
        let truth = StaticRoutes::compute(&g.without_links(&removed), dest);
        let by_hand: Vec<bool> = (0..g.n())
            .map(|v| truth.reachable(AsId::from_usize(v)))
            .collect();

        let mask = t.reachable_after(&g, dest).unwrap();
        assert_eq!(mask, by_hand);
        assert!(!mask[providers[0].index()], "the dead provider is cut off");
        assert!(mask[providers[1].index()], "the recovered one is not");
        // Errors are the timeline's own.
        let bogus = Timeline::from_events("bogus", node_drain(AsId(9999), SimDuration::ZERO));
        assert_eq!(
            bogus.reachable_after(&g, dest),
            Err(TimelineError::NoSuchNode(AsId(9999)))
        );
    }

    #[test]
    fn maintenance_windows_are_rolling() {
        let t = Timeline::from_events(
            "mw",
            maintenance_windows(
                &[AsId(2), AsId(3)],
                SimDuration::ZERO,
                SimDuration::from_secs(10),
                SimDuration::from_secs(60),
            ),
        );
        assert!(t.is_well_formed());
        // down(2)@0, up(2)@10, down(3)@60, up(3)@70.
        assert_eq!(t.events()[1].ev, NetEvent::NodeUp(AsId(2)));
        assert_eq!(t.events()[2].at, SimDuration::from_secs(60));
    }

    #[test]
    fn churn_never_double_fails_and_is_deterministic() {
        let g = generate(&GenConfig::small(11)).unwrap();
        let mk = || {
            let mut rng = stamp_eventsim::rng_stream(77, stamp_eventsim::rng::tags::TIMELINE);
            Timeline::from_events(
                "churn",
                background_churn(
                    &g,
                    &mut rng,
                    SimDuration::ZERO,
                    SimDuration::from_secs(600),
                    40,
                    SimDuration::from_secs(20),
                ),
            )
        };
        let t = mk();
        assert_eq!(t, mk(), "same seed, same timeline");
        assert!(t.is_well_formed());
        // Replay: a LinkDown is never applied to an already-down link.
        let mut down: std::collections::HashSet<(AsId, AsId)> = Default::default();
        for e in t.events() {
            match e.ev {
                NetEvent::LinkDown(a, b) => assert!(down.insert((a, b)), "double fail {a}-{b}"),
                NetEvent::LinkUp(a, b) => assert!(down.remove(&(a, b)), "up without down"),
                _ => unreachable!("churn emits only link events"),
            }
        }
        assert!(down.is_empty(), "all churn outages recover");
        assert_eq!(t.removed_links(&g).unwrap(), Vec::<LinkId>::new());
    }

    #[test]
    fn resolve_rejects_unknown_links() {
        let g = diamond();
        let mut t = Timeline::new("bad");
        t.push(SimDuration::ZERO, NetEvent::LinkDown(AsId(0), AsId(4)));
        assert_eq!(
            t.resolve(&g),
            Err(TimelineError::NoSuchLink(AsId(0), AsId(4)))
        );
        let mut t2 = Timeline::new("bad2");
        t2.push(SimDuration::ZERO, NetEvent::NodeDown(AsId(99)));
        assert!(t2.resolve(&g).is_err());
    }

    #[test]
    fn selectors_are_deterministic() {
        let g = generate(&GenConfig::small(13)).unwrap();
        let dest = g.ases().find(|&v| g.providers(v).len() >= 2).unwrap();
        let cone = provider_cone(&g, dest);
        assert!(!cone.is_empty());
        let mut rng = Rng::seed_from_u64(5);
        let half = choose_k(&mut rng, &cone, cone.len() / 2 + 1);
        assert_eq!(half.len(), cone.len() / 2 + 1);
        // Kept elements preserve cone order.
        let pos: Vec<usize> = half
            .iter()
            .map(|v| cone.iter().position(|c| c == v).unwrap())
            .collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn adversarial_events_leave_the_topology_alone() {
        let g = diamond();
        let t = Timeline::from_events(
            "adv",
            [
                prefix_hijack(AsId(2), SimDuration::ZERO),
                route_leak(AsId(3), SimDuration::from_secs(1)),
                policy_flip(1, SimDuration::from_secs(2)),
            ]
            .concat(),
        );
        assert!(t.is_well_formed());
        assert!(t.events().iter().all(|e| !e.ev.is_failure()));
        // No physical change: nothing removed, no root causes to key on.
        assert_eq!(t.removed_links(&g).unwrap(), Vec::<LinkId>::new());
        assert!(t.root_causes().is_empty());
        let resolved = t.resolve(&g).unwrap();
        assert!(matches!(
            resolved[0].1,
            ScenarioEvent::Hijack {
                attacker: AsId(2),
                forged_origin: None,
                ..
            }
        ));
        assert!(matches!(
            resolved[1].1,
            ScenarioEvent::Leak {
                leaker: AsId(3),
                ..
            }
        ));
        assert_eq!(resolved[2].1, ScenarioEvent::FlipPolicy(1));
    }

    #[test]
    fn adversarial_events_validate_their_ases() {
        let g = diamond();
        let mut t = Timeline::new("bad-leaker");
        t.push(SimDuration::ZERO, NetEvent::RouteLeak(AsId(99)));
        assert_eq!(t.resolve(&g), Err(TimelineError::NoSuchNode(AsId(99))));
        let t2 = Timeline::from_events(
            "bad-victim",
            prepend_hijack(AsId(2), AsId(99), SimDuration::ZERO),
        );
        assert_eq!(t2.resolve(&g), Err(TimelineError::NoSuchNode(AsId(99))));
    }

    #[test]
    fn random_attacker_avoids_the_victim_and_is_seeded() {
        let g = diamond();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..32 {
            assert_ne!(random_attacker(&g, &mut rng, AsId(4)), AsId(4));
        }
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        assert_eq!(
            random_attacker(&g, &mut a, AsId(0)),
            random_attacker(&g, &mut b, AsId(0))
        );
    }

    #[test]
    fn names_are_sanitized_to_the_scn_charset() {
        assert_eq!(Timeline::new("ok-name.v1").name(), "ok-name.v1");
        assert_eq!(Timeline::new("my scenario!").name(), "my-scenario-");
        assert_eq!(Timeline::new("").name(), "unnamed");
        // And therefore every constructible timeline round-trips.
        let t = Timeline::from_events("spaced out", Vec::new());
        assert_eq!(t.to_scn().parse::<Timeline>().unwrap(), t);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_time_travel() {
        let mut t = Timeline::new("x");
        t.push(SimDuration::from_secs(2), NetEvent::NodeDown(AsId(0)));
        t.push(SimDuration::from_secs(1), NetEvent::NodeUp(AsId(0)));
    }
}
