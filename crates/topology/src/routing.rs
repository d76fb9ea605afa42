//! Static solver for the unique Gao–Rexford stable routing state.
//!
//! Under the paper's standing assumptions (§2.1) — prefer-customer,
//! valley-free export, acyclic customer–provider hierarchy — BGP is safe and
//! converges to a unique stable state once tiebreaks are made deterministic.
//! This module computes that state directly, without simulation, using the
//! classic three-phase construction:
//!
//! 1. **Customer routes** — BFS from the destination along customer→provider
//!    edges: an AS has a customer route iff it can reach the destination by
//!    provider→customer steps only.
//! 2. **Peer routes** — one peer hop into an AS with a customer route (or
//!    into the destination itself).
//! 3. **Provider routes** — a multi-source shortest path descending
//!    provider→customer edges from every AS routed in phases 1–2, since an
//!    AS exports its best route (of any kind) to its customers. Every edge
//!    costs one hop, so the frontier is a list of buckets indexed by length
//!    rather than a heap: a candidate that lowers an AS's tentative length
//!    is queued again in its new bucket, and among candidates of one length
//!    the lowest next hop wins.
//!
//! Preference is by route kind first (customer > peer > provider — the
//! prefer-customer policy), then shortest AS path, then lowest neighbour id.
//! The simulator (`stamp-bgp`) must converge to exactly this state; the
//! equality is asserted in integration tests.

use crate::graph::{AsGraph, AsId};

/// Length of a route not (yet) found.
const NONE: u32 = u32::MAX;

/// Kind of the best route an AS holds in the stable state, classified by the
/// relation of its first hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteKind {
    /// The AS originates the destination prefix.
    Origin,
    /// First hop is a customer.
    Customer,
    /// First hop is a peer.
    Peer,
    /// First hop is a provider.
    Provider,
}

/// Best route of one AS in the stable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticRoute {
    pub kind: RouteKind,
    /// AS-path length in links (0 for the origin).
    pub len: u32,
    /// Next hop AS (`None` for the origin).
    pub next_hop: Option<AsId>,
}

/// The stable routing state of every AS towards one destination.
#[derive(Debug, Clone)]
pub struct StaticRoutes {
    dest: AsId,
    routes: Vec<Option<StaticRoute>>,
}

impl StaticRoutes {
    /// Compute the stable state for destination `dest` (for a `dest`
    /// outside the topology, no AS has a route).
    pub fn compute(g: &AsGraph, dest: AsId) -> StaticRoutes {
        let n = g.n();
        debug_assert!(dest.index() < n, "destination {dest} outside the topology");
        let mut routes: Vec<Option<StaticRoute>> = vec![None; n];
        let set = |routes: &mut Vec<Option<StaticRoute>>, v: AsId, kind, len, next_hop| {
            if let Some(r) = routes.get_mut(v.index()) {
                *r = Some(StaticRoute {
                    kind,
                    len,
                    next_hop,
                });
            }
        };
        set(&mut routes, dest, RouteKind::Origin, 0, None);

        // Phase 1: customer routes — BFS from dest up the provider edges.
        // cust_len[v] = length of v's best customer route (0 at dest).
        let mut cust_len = vec![NONE; n];
        let len_of = |cust_len: &[u32], v: AsId| cust_len.get(v.index()).copied().unwrap_or(NONE);
        let mut queue: Vec<AsId> = Vec::with_capacity(n);
        if let Some(l) = cust_len.get_mut(dest.index()) {
            *l = 0;
            queue.push(dest);
        }
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let l = len_of(&cust_len, v) + 1;
            for &p in g.providers(v) {
                match cust_len.get_mut(p.index()) {
                    Some(pl) if *pl == NONE => {
                        *pl = l;
                        queue.push(p);
                    }
                    _ => {}
                }
            }
        }
        // Every AS the BFS reached after dest has a customer one hop
        // shorter (the one that reached it); the lowest id among them is
        // the deterministic tiebreak.
        for &v in queue.iter().skip(1) {
            let len = len_of(&cust_len, v);
            let nh = g
                .customers(v)
                .iter()
                .copied()
                .filter(|&c| len_of(&cust_len, c) == len - 1)
                .min();
            debug_assert!(
                nh.is_some(),
                "BFS reached {v} from a customer at {}",
                len - 1
            );
            set(&mut routes, v, RouteKind::Customer, len, nh);
        }

        // Phase 2: peer routes for ASes without a customer route.
        for v in g.ases() {
            if len_of(&cust_len, v) != NONE {
                continue;
            }
            let best = g
                .peers(v)
                .iter()
                .copied()
                .filter(|&u| len_of(&cust_len, u) != NONE)
                .map(|u| (len_of(&cust_len, u) + 1, u))
                .min();
            if let Some((len, u)) = best {
                set(&mut routes, v, RouteKind::Peer, len, Some(u));
            }
        }

        // Phase 3: provider routes — unit-weight shortest paths descending
        // provider→customer edges, seeded by every AS routed so far. An
        // AS's candidate is `(length, next hop)`; buckets hold the ASes
        // whose tentative length is their index.
        let mut frontier = Frontier {
            tentative: vec![(NONE, AsId(NONE)); n],
            buckets: Vec::new(),
        };
        for v in g.ases() {
            if let Some(Some(r)) = routes.get(v.index()) {
                frontier.offer_customers(g, &routes, v, r.len + 1);
            }
        }
        let mut len = 0;
        while let Some(bucket) = frontier.buckets.get_mut(len) {
            let bucket = std::mem::take(bucket);
            for v in bucket {
                // A stale entry: `v` was queued again, shorter, and is
                // routed already.
                if !matches!(routes.get(v.index()), Some(None)) {
                    continue;
                }
                let Some(&(l, via)) = frontier.tentative.get(v.index()) else {
                    continue;
                };
                debug_assert_eq!(l as usize, len, "{v} popped from the wrong bucket");
                set(&mut routes, v, RouteKind::Provider, l, Some(via));
                frontier.offer_customers(g, &routes, v, l + 1);
            }
            len += 1;
        }

        StaticRoutes { dest, routes }
    }

    /// The destination these routes lead to.
    #[inline]
    pub fn dest(&self) -> AsId {
        self.dest
    }

    /// Best route of `v`, if the destination is reachable at all.
    #[inline]
    pub fn route(&self, v: AsId) -> Option<&StaticRoute> {
        self.routes.get(v.index()).and_then(Option::as_ref)
    }

    /// Whether `v` has any valley-free path to the destination.
    #[inline]
    pub fn reachable(&self, v: AsId) -> bool {
        self.route(v).is_some()
    }

    /// Number of ASes (including the origin) with a route.
    pub fn n_reachable(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// Full AS-level path from `v` to the destination (inclusive), following
    /// next hops through the stable state.
    pub fn path(&self, v: AsId) -> Option<Vec<AsId>> {
        let mut seq = vec![v];
        let mut cur = v;
        loop {
            let r = self.route(cur)?;
            match r.next_hop {
                None => return Some(seq),
                Some(nh) => {
                    seq.push(nh);
                    cur = nh;
                    // Lengths strictly decrease along next hops, so the walk
                    // terminates; guard anyway against internal inconsistency.
                    if seq.len() > self.routes.len() + 1 {
                        return None;
                    }
                }
            }
        }
    }
}

/// Phase 3's frontier: each unrouted AS's best provider-route candidate
/// so far, `(length, next hop)`, and the ASes queued per tentative length.
struct Frontier {
    tentative: Vec<(u32, AsId)>,
    buckets: Vec<Vec<AsId>>,
}

impl Frontier {
    /// `v` is routed at `len - 1` hops and exports that route to every
    /// customer still without one.
    fn offer_customers(&mut self, g: &AsGraph, routes: &[Option<StaticRoute>], v: AsId, len: u32) {
        for &c in g.customers(v) {
            if matches!(routes.get(c.index()), Some(None)) {
                self.offer(c, len, v);
            }
        }
    }

    /// A candidate route for `c`. A shorter one replaces the tentative
    /// route and queues `c` in its bucket; an equally long one wins on the
    /// lower next hop — the order `(length, AS, next hop)` a heap pops in.
    fn offer(&mut self, c: AsId, len: u32, via: AsId) {
        let Some(t) = self.tentative.get_mut(c.index()) else {
            return;
        };
        if len < t.0 {
            *t = (len, via);
            let b = len as usize;
            if self.buckets.len() <= b {
                self.buckets.resize_with(b + 1, Vec::new);
            }
            if let Some(bucket) = self.buckets.get_mut(b) {
                bucket.push(c);
            }
        } else if len == t.0 && via < t.1 {
            t.1 = via;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::path::is_valley_free;

    /// Topology with all three route kinds exercised:
    ///
    /// ```text
    ///   0 ===== 1        (tier-1 peers)
    ///   |       |
    ///   2       3        (2 cust of 0; 3 cust of 1)
    ///   | \     |
    ///   4  5    6        (4,5 cust of 2; 6 cust of 3)
    /// ```
    fn g() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(5, 2).unwrap();
        b.customer_of(6, 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn origin_route() {
        let g = g();
        let r = StaticRoutes::compute(&g, AsId(4));
        let o = r.route(AsId(4)).unwrap();
        assert_eq!(o.kind, RouteKind::Origin);
        assert_eq!(o.len, 0);
        assert_eq!(o.next_hop, None);
    }

    #[test]
    fn customer_routes_follow_provider_chain() {
        let g = g();
        let r = StaticRoutes::compute(&g, AsId(4));
        // 2 is a provider of 4: customer route of length 1.
        let r2 = r.route(AsId(2)).unwrap();
        assert_eq!(
            (r2.kind, r2.len, r2.next_hop),
            (RouteKind::Customer, 1, Some(AsId(4)))
        );
        // 0 is a provider of 2.
        let r0 = r.route(AsId(0)).unwrap();
        assert_eq!(
            (r0.kind, r0.len, r0.next_hop),
            (RouteKind::Customer, 2, Some(AsId(2)))
        );
    }

    #[test]
    fn peer_route_crosses_tier1() {
        let g = g();
        let r = StaticRoutes::compute(&g, AsId(4));
        // 1 has no customer route to 4; its peer 0 has one of length 2.
        let r1 = r.route(AsId(1)).unwrap();
        assert_eq!(
            (r1.kind, r1.len, r1.next_hop),
            (RouteKind::Peer, 3, Some(AsId(0)))
        );
    }

    #[test]
    fn provider_routes_descend() {
        let g = g();
        let r = StaticRoutes::compute(&g, AsId(4));
        // 3 only reaches 4 via its provider 1.
        let r3 = r.route(AsId(3)).unwrap();
        assert_eq!(
            (r3.kind, r3.len, r3.next_hop),
            (RouteKind::Provider, 4, Some(AsId(1)))
        );
        // 6 via its provider 3.
        let r6 = r.route(AsId(6)).unwrap();
        assert_eq!(
            (r6.kind, r6.len, r6.next_hop),
            (RouteKind::Provider, 5, Some(AsId(3)))
        );
        // Sibling stub 5 via provider 2.
        let r5 = r.route(AsId(5)).unwrap();
        assert_eq!(
            (r5.kind, r5.len, r5.next_hop),
            (RouteKind::Provider, 2, Some(AsId(2)))
        );
    }

    #[test]
    fn prefer_customer_beats_shorter_peer() {
        // 0 and 1 are tier-1 peers. 1 is also a *customer* of 0 — no:
        // build instead: dest 3 is customer of 0 and peer of... keep simple:
        //   0 has customer chain 0->2->3 (len 2) and peer 1 with customer 3
        //   (peer route would be len 2 as well: 1->3... make customer longer).
        //   0--1 peers, 3 cust of 1, 3 cust of 2, 2 cust of 0.
        // 0's customer route to 3: 0-2-3 len 2; peer route 0-1-3 len 2.
        // Prefer-customer must pick the customer route.
        let mut b = GraphBuilder::new();
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        let g = b.build().unwrap();
        let r = StaticRoutes::compute(&g, AsId(3));
        let r0 = r.route(AsId(0)).unwrap();
        assert_eq!(r0.kind, RouteKind::Customer);
        assert_eq!(r0.next_hop, Some(AsId(2)));
    }

    #[test]
    fn paths_are_valley_free_and_consistent() {
        let g = g();
        for dest in g.ases() {
            let r = StaticRoutes::compute(&g, dest);
            for v in g.ases() {
                let p = r.path(v).expect("connected graph: all reachable");
                assert_eq!(*p.first().unwrap(), v);
                assert_eq!(*p.last().unwrap(), dest);
                assert!(is_valley_free(&g, &p), "path {:?} to {} not VF", p, dest);
                assert_eq!(p.len() as u32 - 1, r.route(v).unwrap().len);
            }
        }
    }

    #[test]
    fn unreachable_when_partitioned() {
        let mut b = GraphBuilder::new();
        b.customer_of(1, 0).unwrap();
        b.customer_of(3, 2).unwrap(); // separate component
        let g = b.build().unwrap();
        let r = StaticRoutes::compute(&g, AsId(1));
        assert!(r.reachable(AsId(0)));
        assert!(!r.reachable(AsId(2)));
        assert!(!r.reachable(AsId(3)));
        assert_eq!(r.n_reachable(), 2);
    }

    #[test]
    fn tiebreak_lowest_neighbor_id() {
        // dest 9 homed to providers 5 and 4 (both tier-1-ish); 6 customer of
        // both 5 and 4 — customer routes of equal length via 4 or 5... build:
        // 6 is provider of both 4 and 5; 4,5 providers of 9.
        let mut b = GraphBuilder::new();
        b.customer_of(9, 4).unwrap();
        b.customer_of(9, 5).unwrap();
        b.customer_of(4, 6).unwrap();
        b.customer_of(5, 6).unwrap();
        let g = b.build().unwrap();
        // ids are dense: 9->0, 4->1, 5->2, 6->3. 6(dense 3) picks customer
        // with lowest dense id between 4(1) and 5(2).
        let r = StaticRoutes::compute(&g, AsId(0));
        let six = AsId(3);
        assert_eq!(r.route(six).unwrap().next_hop, Some(AsId(1)));
    }
}
