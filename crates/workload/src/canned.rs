//! The paper's §6.2 failure shapes as canned timelines.
//!
//! Each instance of a figure experiment draws a workload: the destination
//! AS and a one-shot timeline of what fails. The sampling rules follow the
//! paper's prose (the draw sequence is unchanged from the original
//! `experiments::scenario` sampler, so figure workloads are identical
//! seed-for-seed):
//!
//! * **Single link failure** (Figure 2): "a multi-homed AS fails one of its
//!   provider links"; the destination AS is the multi-homed AS itself,
//!   chosen at random.
//! * **Two links, different ASes** (Figure 3a): "an origin AS fails one of
//!   its provider links and another randomly selected indirect provider
//!   link (multi-hop away from the origin AS)" — the second link is a
//!   customer→provider link in the origin's uphill cone sharing no endpoint
//!   with the first.
//! * **Two links, same AS** (Figure 3b): "an origin AS fails a link to one
//!   of its providers and that provider also fails one of its own provider
//!   links."
//! * **Node failure** (§6.2.2): one of the origin's providers fails
//!   entirely, "withdrawing a route from all its neighbors".

use crate::timeline::{provider_cone, NetEvent, Timeline};
use stamp_eventsim::rng::Rng;
use stamp_eventsim::SimDuration;
use stamp_topology::{AsGraph, AsId, LinkId};

/// Which failure pattern an experiment injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureScenario {
    /// Figure 2.
    SingleLink,
    /// Figure 3(a).
    TwoLinksDifferentAs,
    /// Figure 3(b).
    TwoLinksSameAs,
    /// §6.2.2: a provider of the origin fails as a node.
    NodeFailure,
}

impl FailureScenario {
    /// Human-readable label (report headers).
    pub fn label(&self) -> &'static str {
        match self {
            FailureScenario::SingleLink => "single link failure (Figure 2)",
            FailureScenario::TwoLinksDifferentAs => "two link failures, different ASes (Figure 3a)",
            FailureScenario::TwoLinksSameAs => "two link failures, same AS (Figure 3b)",
            FailureScenario::NodeFailure => "single node failure (Sec. 6.2.2)",
        }
    }

    /// Canonical timeline name (also the `.scn` header of the canned form).
    pub fn slug(&self) -> &'static str {
        match self {
            FailureScenario::SingleLink => "fig2-single-link",
            FailureScenario::TwoLinksDifferentAs => "fig3a-two-links-different-as",
            FailureScenario::TwoLinksSameAs => "fig3b-two-links-same-as",
            FailureScenario::NodeFailure => "node-failure",
        }
    }
}

/// One sampled instance: the destination plus the event timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CannedWorkload {
    /// The destination (origin) AS whose prefix everyone routes towards.
    pub dest: AsId,
    /// What happens (all failures at offset zero — the paper's one-shot
    /// simultaneous events).
    pub timeline: Timeline,
}

/// Multi-homed ASes (two providers: so not tier-1) — the destination
/// population of §6.2.
pub fn destination_candidates(g: &AsGraph) -> Vec<AsId> {
    g.ases().filter(|&v| g.is_multi_homed(v)).collect()
}

/// Sample one canned workload; `None` if the topology cannot host the
/// scenario (e.g. no multi-homed AS at all).
pub fn sample_canned(
    g: &AsGraph,
    scenario: FailureScenario,
    rng: &mut Rng,
) -> Option<CannedWorkload> {
    let candidates = destination_candidates(g);
    if candidates.is_empty() {
        return None;
    }
    let canned = |dest: AsId, events: Vec<NetEvent>| {
        let mut t = Timeline::new(scenario.slug());
        for ev in events {
            t.push(SimDuration::ZERO, ev);
        }
        Some(CannedWorkload { dest, timeline: t })
    };
    // A few attempts: some destinations cannot host the multi-link shapes.
    for _ in 0..64 {
        let dest = *rng.choose(&candidates).expect("candidates non-empty"); // simlint::allow(panic, "guarded by the is_empty check above")
        let provs = g.providers(dest);
        let p = *rng.choose(provs).expect("multi-homed"); // simlint::allow(panic, "candidates are filtered to multi-homed ASes")
        let first = g.link_between(dest, p).expect("provider link exists"); // simlint::allow(panic, "p came from g.providers(dest)")
        match scenario {
            FailureScenario::SingleLink => {
                return canned(dest, vec![NetEvent::LinkDown(dest, p)]);
            }
            FailureScenario::NodeFailure => {
                return canned(dest, vec![NetEvent::NodeDown(p)]);
            }
            FailureScenario::TwoLinksSameAs => {
                let pp = g.providers(p);
                if pp.is_empty() {
                    continue; // p is tier-1; resample
                }
                let q = *rng.choose(pp).expect("checked non-empty"); // simlint::allow(panic, "pp.is_empty() handled above")
                return canned(
                    dest,
                    vec![NetEvent::LinkDown(dest, p), NetEvent::LinkDown(p, q)],
                );
            }
            FailureScenario::TwoLinksDifferentAs => {
                let cone = provider_cone(g, dest);
                let mut cands: Vec<LinkId> = Vec::new();
                for &c in &cone {
                    for &prov in g.providers(c) {
                        if c == dest || c == p || prov == p || prov == dest {
                            continue;
                        }
                        if let Some(id) = g.link_between(c, prov) {
                            if id != first {
                                cands.push(id);
                            }
                        }
                    }
                }
                if cands.is_empty() {
                    continue;
                }
                let second = *rng.choose(&cands).expect("checked non-empty"); // simlint::allow(panic, "cands.is_empty() handled above")
                let l = g.link(second);
                return canned(
                    dest,
                    vec![NetEvent::LinkDown(dest, p), NetEvent::LinkDown(l.a, l.b)],
                );
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_topology::LinkKind;

    fn g() -> AsGraph {
        generate(&GenConfig::small(41)).unwrap()
    }

    fn only_links(w: &CannedWorkload, g: &AsGraph) -> Vec<LinkId> {
        w.timeline
            .events()
            .iter()
            .map(|e| match e.ev {
                NetEvent::LinkDown(a, b) => g.link_between(a, b).expect("resolvable"),
                other => panic!("expected link failure, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn single_link_targets_a_provider_link_of_dest() {
        let g = g();
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            let w = sample_canned(&g, FailureScenario::SingleLink, &mut rng).unwrap();
            assert!(g.providers(w.dest).len() >= 2);
            let links = only_links(&w, &g);
            assert_eq!(links.len(), 1);
            let l = g.link(links[0]);
            assert_eq!(l.kind, LinkKind::CustomerProvider);
            assert_eq!(l.a, w.dest, "dest must be the customer side");
            assert_eq!(w.timeline.name(), "fig2-single-link");
        }
    }

    #[test]
    fn two_links_same_as_share_the_provider() {
        let g = g();
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..50 {
            let w = sample_canned(&g, FailureScenario::TwoLinksSameAs, &mut rng).unwrap();
            let links = only_links(&w, &g);
            assert_eq!(links.len(), 2);
            let l1 = g.link(links[0]);
            let l2 = g.link(links[1]);
            // l1 = dest->p; l2 = p->q: they share exactly p.
            assert_eq!(l1.a, w.dest);
            assert_eq!(l2.a, l1.b, "second link hangs off the failed provider");
        }
    }

    #[test]
    fn two_links_different_as_share_no_endpoint() {
        let g = g();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..50 {
            let w = sample_canned(&g, FailureScenario::TwoLinksDifferentAs, &mut rng).unwrap();
            let links = only_links(&w, &g);
            assert_eq!(links.len(), 2);
            let l1 = g.link(links[0]);
            let l2 = g.link(links[1]);
            for x in [l2.a, l2.b] {
                assert!(x != l1.a && x != l1.b, "links share endpoint {x}");
            }
        }
    }

    #[test]
    fn node_failure_removes_all_incident_links() {
        let g = g();
        let mut rng = Rng::seed_from_u64(4);
        let w = sample_canned(&g, FailureScenario::NodeFailure, &mut rng).unwrap();
        let node = match w.timeline.events()[0].ev {
            NetEvent::NodeDown(v) => v,
            other => panic!("expected node failure, got {other:?}"),
        };
        let removed = w.timeline.removed_links(&g).unwrap();
        let expect = g.links().iter().filter(|l| l.touches(node)).count();
        assert_eq!(removed.len(), expect);
    }

    #[test]
    fn deterministic_sampling_and_scn_round_trip() {
        let g = g();
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..10 {
            let wa = sample_canned(&g, FailureScenario::SingleLink, &mut a);
            let wb = sample_canned(&g, FailureScenario::SingleLink, &mut b);
            assert_eq!(wa, wb);
            let t = wa.unwrap().timeline;
            assert_eq!(t.to_scn().parse::<Timeline>().unwrap(), t);
        }
    }
}
