//! The relationship-annotated AS graph.
//!
//! ASes are identified by dense [`AsId`]s (`0..n`). Links carry one of the two
//! business relationships the paper considers (§2.1): customer–provider or
//! peer–peer. The customer→provider digraph is validated to be acyclic at
//! build time, which is the standing assumption under which BGP with the
//! prefer-customer / valley-free policies is safe (Gao–Rexford).
//!
//! Every adjacency is stored once, in the CSR session table: the customer,
//! peer and provider lists of an AS are slices of its neighbour column.

use crate::error::TopologyError;
use stamp_eventsim::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of an AS within one [`AsGraph`] (`0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AsId(pub u32);

impl AsId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked construction from a dense index: saturates (deterministically)
    /// instead of truncating if an index ever exceeded `u32::MAX`, with a
    /// debug assertion to surface the bug in test builds. Call sites outside
    /// this module must use this instead of a raw `as u32` cast.
    #[inline]
    pub fn from_usize(i: usize) -> AsId {
        debug_assert!(u32::try_from(i).is_ok(), "AsId index overflows u32");
        AsId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Identifier of an undirected link within one [`AsGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked construction from a dense index (see [`AsId::from_usize`]).
    #[inline]
    pub fn from_usize(i: usize) -> LinkId {
        debug_assert!(u32::try_from(i).is_ok(), "LinkId index overflows u32");
        LinkId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

/// Business relationship carried by a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// `a` is the customer, `b` is the provider.
    CustomerProvider,
    /// `a` and `b` are peers (stored with `a < b`).
    PeerPeer,
}

/// An undirected link between two ASes with its relationship annotation.
///
/// For [`LinkKind::CustomerProvider`], `a` is the customer and `b` the
/// provider. For [`LinkKind::PeerPeer`], `a < b` canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    pub a: AsId,
    pub b: AsId,
    pub kind: LinkKind,
}

impl Link {
    /// The other endpoint of this link.
    #[inline]
    pub fn other(&self, x: AsId) -> AsId {
        if x == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Whether `x` is an endpoint of this link.
    #[inline]
    pub fn touches(&self, x: AsId) -> bool {
        self.a == x || self.b == x
    }
}

/// Relationship of a neighbour *relative to a given AS*: the neighbour is my
/// customer, my provider, or my peer.
///
/// The derived order (`Customer < Peer < Provider`) is the *preference*
/// order of the prefer-customer policy: routes learned from a customer beat
/// routes learned from a peer beat routes learned from a provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relation {
    Customer,
    Peer,
    Provider,
}

impl Relation {
    /// The relation seen from the other side of the link.
    #[inline]
    pub fn reverse(self) -> Relation {
        match self {
            Relation::Customer => Relation::Provider,
            Relation::Provider => Relation::Customer,
            Relation::Peer => Relation::Peer,
        }
    }
}

/// Dense identifier of a *directed* session within one [`AsGraph`]: every
/// undirected link carries two (one per direction), so `0..2·n_links`.
///
/// Session ids are CSR positions: the sessions *from* one AS are
/// contiguous, in the same order [`AsGraph::neighbors`] iterates
/// (customers, peers, providers — each ascending by neighbour id). The id
/// space is fixed for the lifetime of a graph, which is what lets the
/// simulation engine re-key all per-session state onto flat `Vec`s instead
/// of hash maps keyed by `(AsId, AsId, …)` tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessId(pub u32);

impl SessId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Checked construction from a dense index (see [`AsId::from_usize`]).
    #[inline]
    pub fn from_usize(i: usize) -> SessId {
        debug_assert!(u32::try_from(i).is_ok(), "SessId index overflows u32");
        SessId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

/// One directed adjacency in the session table: the neighbour, its relation
/// to the owning AS, the directed session id, and the undirected link the
/// session runs over. Hot paths read these slices instead of re-deriving
/// relations or link ids through map lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessEntry {
    /// The neighbour on the far end.
    pub neighbor: AsId,
    /// The neighbour's relation to the owning AS (the neighbour is my …).
    pub rel: Relation,
    /// Directed session id (owner → neighbour).
    pub sess: SessId,
    /// The undirected link the session runs over.
    pub link: LinkId,
}

/// Endpoints of a directed session (`sess → (from, to, link)` resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessEnds {
    pub from: AsId,
    pub to: AsId,
    pub link: LinkId,
}

/// Immutable, validated AS-level topology. A handle: the tables sit behind
/// one reference count, so `clone` is O(1) and everything built on a graph
/// — every engine, every cached baseline — shares the one copy.
#[derive(Debug, Clone)]
pub struct AsGraph(Arc<Tables>);

#[derive(Debug)]
struct Tables {
    links: Vec<Link>,
    /// Original (possibly sparse) AS numbers, indexed by dense id.
    external: Vec<u32>,
    /// CSR offsets into `sess_adj`/`nbr`/`sess_by_id`: AS `v`'s directed
    /// sessions are `sess_adj[sess_offsets[v] .. sess_offsets[v + 1]]`.
    sess_offsets: Vec<u32>,
    /// Where, inside that range, AS `v`'s customers end and its peers end.
    class_ends: Vec<[u32; 2]>,
    /// Neighbour entries in [`AsGraph::neighbors`] order (customers, peers,
    /// providers — each ascending). `SessId` equals the CSR position.
    sess_adj: Vec<SessEntry>,
    /// The neighbour id of every `sess_adj` entry, same positions: what
    /// [`AsGraph::customers`], [`AsGraph::peers`] and
    /// [`AsGraph::providers`] hand out sub-slices of.
    nbr: Vec<AsId>,
    /// The same per-node entries re-sorted by neighbour id, for O(log deg)
    /// `(from, to)` resolution with zero hashing.
    sess_by_id: Vec<SessEntry>,
    /// `SessId → (from, to, link)`.
    sess_ends: Vec<SessEnds>,
    /// `SessId →` the session of the same link in the other direction.
    sess_rev: Vec<SessId>,
}

impl AsGraph {
    /// Number of ASes.
    #[inline]
    pub fn n(&self) -> usize {
        self.0.external.len()
    }

    /// All ASes.
    pub fn ases(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.n() as u32).map(AsId)
    }

    /// Number of links.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.0.links.len()
    }

    /// All links.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.0.links
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> Link {
        self.0.links[id.index()]
    }

    /// Look up the link between two ASes, if any. O(log deg(a)) binary
    /// search over `a`'s session slice — no hashing.
    #[inline]
    pub fn link_between(&self, a: AsId, b: AsId) -> Option<LinkId> {
        self.entry_between(a, b).map(|e| e.link)
    }

    // ------------------------------------------------------------------
    // The dense session table
    // ------------------------------------------------------------------

    /// Number of directed sessions (`2 · n_links`).
    #[inline]
    pub fn n_sessions(&self) -> usize {
        self.0.sess_adj.len()
    }

    /// AS `v`'s directed sessions, in [`AsGraph::neighbors`] order
    /// (customers, peers, providers — each ascending by neighbour id).
    #[inline]
    pub fn neighbor_entries(&self, v: AsId) -> &[SessEntry] {
        let lo = self.0.sess_offsets[v.index()] as usize;
        let hi = self.0.sess_offsets[v.index() + 1] as usize;
        &self.0.sess_adj[lo..hi]
    }

    /// AS `v`'s directed sessions ascending by neighbour id: the entries of
    /// [`AsGraph::neighbor_entries`] in another order (empty for an AS
    /// outside the graph). The lookup table behind every `(from, to)`
    /// resolution.
    #[inline]
    fn neighbor_entries_by_id(&self, v: AsId) -> &[SessEntry] {
        let offsets = &self.0.sess_offsets;
        let range = offsets.get(v.index()).zip(offsets.get(v.index() + 1));
        range
            .and_then(|(&lo, &hi)| self.0.sess_by_id.get(lo as usize..hi as usize))
            .unwrap_or(&[])
    }

    /// The session entry from `a` towards `b`, if adjacent. O(log deg(a))
    /// binary search over `a`'s id-sorted session slice.
    #[inline]
    fn entry_between(&self, a: AsId, b: AsId) -> Option<&SessEntry> {
        let slice = self.neighbor_entries_by_id(a);
        let i = slice.binary_search_by_key(&b, |e| e.neighbor).ok()?;
        slice.get(i)
    }

    /// The directed session id from `a` to `b`, if adjacent.
    #[inline]
    pub fn sess_between(&self, a: AsId, b: AsId) -> Option<SessId> {
        self.entry_between(a, b).map(|e| e.sess)
    }

    /// The slot `v` addresses the far end of its session `s` by: the
    /// position of `s` in [`AsGraph::neighbor_entries`]`(v)`, `0..deg(v)`.
    /// Fixed for the graph's lifetime, so per-neighbour state can live in
    /// dense tables of `deg(v)` rows. One subtraction; a session that is
    /// not `v`'s maps past the end of its slice.
    #[inline]
    pub fn slot(&self, v: AsId, s: SessId) -> usize {
        debug_assert_eq!(self.sess_ends(s).from, v, "{s:?} is not a session of {v}");
        let base = self
            .0
            .sess_offsets
            .get(v.index())
            .map_or(0, |&o| o as usize);
        s.index().wrapping_sub(base)
    }

    /// The slot `a` addresses `b` by, if adjacent (one binary search).
    #[inline]
    pub fn slot_between(&self, a: AsId, b: AsId) -> Option<usize> {
        self.sess_between(a, b).map(|s| self.slot(a, s))
    }

    /// Endpoints and link of a directed session.
    #[inline]
    pub fn sess_ends(&self, s: SessId) -> SessEnds {
        self.0.sess_ends[s.index()]
    }

    /// The reverse direction of a directed session: one array read.
    #[inline]
    pub fn sess_reverse(&self, s: SessId) -> SessId {
        self.0.sess_rev[s.index()]
    }

    /// Providers of `v` (ASes `v` buys transit from), ascending.
    #[inline]
    pub fn providers(&self, v: AsId) -> &[AsId] {
        let lo = self.0.class_ends[v.index()][1] as usize;
        let hi = self.0.sess_offsets[v.index() + 1] as usize;
        &self.0.nbr[lo..hi]
    }

    /// Customers of `v`, ascending.
    #[inline]
    pub fn customers(&self, v: AsId) -> &[AsId] {
        let lo = self.0.sess_offsets[v.index()] as usize;
        let hi = self.0.class_ends[v.index()][0] as usize;
        &self.0.nbr[lo..hi]
    }

    /// Peers of `v`, ascending.
    #[inline]
    pub fn peers(&self, v: AsId) -> &[AsId] {
        let [lo, hi] = self.0.class_ends[v.index()];
        &self.0.nbr[lo as usize..hi as usize]
    }

    /// All neighbours of `v` with their relation to `v` (neighbour is
    /// `v`'s Customer / Peer / Provider) — a walk over the contiguous
    /// session slice (customers, peers, providers, each ascending).
    pub fn neighbors(&self, v: AsId) -> impl Iterator<Item = (AsId, Relation)> + '_ {
        self.neighbor_entries(v).iter().map(|e| (e.neighbor, e.rel))
    }

    /// Total degree of `v`.
    #[inline]
    pub fn degree(&self, v: AsId) -> usize {
        self.neighbor_entries(v).len()
    }

    /// Relation of `b` as seen from `a` (`b` is `a`'s …), if adjacent.
    #[inline]
    pub fn relation(&self, a: AsId, b: AsId) -> Option<Relation> {
        self.entry_between(a, b).map(|e| e.rel)
    }

    /// Whether `v` is a tier-1 AS (no providers). The tier-1 ASes of the
    /// paper's RouteViews topology are exactly the provider-free ASes after
    /// Gao inference.
    #[inline]
    pub fn is_tier1(&self, v: AsId) -> bool {
        self.providers(v).is_empty()
    }

    /// Whether `v` is a stub AS (no customers).
    #[inline]
    pub fn is_stub(&self, v: AsId) -> bool {
        self.customers(v).is_empty()
    }

    /// Whether `v` is multi-homed (two or more providers) — the ASes for
    /// which STAMP's origin colouring (§4.1) applies directly.
    #[inline]
    pub fn is_multi_homed(&self, v: AsId) -> bool {
        self.providers(v).len() >= 2
    }

    /// All tier-1 ASes.
    pub fn tier1s(&self) -> Vec<AsId> {
        self.ases().filter(|&v| self.is_tier1(v)).collect()
    }

    /// Original AS number for a dense id (identity for generated graphs).
    #[inline]
    pub fn external_asn(&self, v: AsId) -> u32 {
        self.0.external[v.index()]
    }

    /// Is `other` a handle on the very tables this graph reads (a `clone`
    /// of it), as opposed to an equal graph built separately?
    pub fn same_handle(&self, other: &AsGraph) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Remove a set of links, producing a new graph (used for failure
    /// scenarios in static analyses; the simulator instead fails links live).
    /// AS ids are unchanged and the kept links keep their order, so the new
    /// graph's `LinkId`s are the dense renumbering of the old ones; an id that
    /// names no link is ignored. Removing nothing hands back this graph's own
    /// handle. A sub-graph of a validated graph needs no second validation.
    pub fn without_links(&self, removed: &[LinkId]) -> AsGraph {
        if removed.is_empty() {
            return self.clone();
        }
        let mut gone = vec![false; self.n_links()];
        for id in removed {
            if let Some(slot) = gone.get_mut(id.index()) {
                *slot = true;
            }
        }
        let kept = self.links().iter().zip(&gone).filter(|(_, &gone)| !gone);
        let kept = kept.map(|(&l, _)| l).collect();
        AsGraph(Arc::new(Tables::from_links(self.0.external.clone(), kept)))
    }

    /// Summary statistics used to sanity-check generated topologies.
    pub fn stats(&self) -> GraphStats {
        let n = self.n();
        let mut cp = 0usize;
        let mut pp = 0usize;
        for l in &self.0.links {
            match l.kind {
                LinkKind::CustomerProvider => cp += 1,
                LinkKind::PeerPeer => pp += 1,
            }
        }
        let tier1 = self.ases().filter(|&v| self.is_tier1(v)).count();
        let stubs = self.ases().filter(|&v| self.is_stub(v)).count();
        let multi = self.ases().filter(|&v| self.is_multi_homed(v)).count();
        let non_tier1 = n - tier1;
        GraphStats {
            n_ases: n,
            n_links: self.0.links.len(),
            n_cp_links: cp,
            n_pp_links: pp,
            n_tier1: tier1,
            n_stubs: stubs,
            multi_homed_frac: if non_tier1 == 0 {
                0.0
            } else {
                multi as f64 / non_tier1 as f64
            },
        }
    }
}

/// Aggregate topology statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    pub n_ases: usize,
    pub n_links: usize,
    pub n_cp_links: usize,
    pub n_pp_links: usize,
    pub n_tier1: usize,
    pub n_stubs: usize,
    /// Fraction of non-tier-1 ASes with ≥2 providers.
    pub multi_homed_frac: f64,
}

impl Tables {
    /// The one place tables are made: the dense CSR session table of a link
    /// list over ASes `0..external.len()` — per-node directed-session slices
    /// in `neighbors` order (customers, peers, providers — each ascending),
    /// their neighbour ids alone, an id-sorted copy for `(from, to)` lookup,
    /// the `SessId → endpoints` array and each session's reverse. Checks
    /// nothing: that is [`GraphBuilder::build`]'s job.
    fn from_links(external: Vec<u32>, links: Vec<Link>) -> Tables {
        let n = external.len();
        // Both directed entries of a link: (owner, neighbour, the neighbour
        // is the owner's …). `l.a` is the customer of a customer–provider link.
        let both_ways = |l: &Link| {
            let (b_is, a_is) = match l.kind {
                LinkKind::CustomerProvider => (Relation::Provider, Relation::Customer),
                LinkKind::PeerPeer => (Relation::Peer, Relation::Peer),
            };
            [(l.a, l.b, b_is), (l.b, l.a, a_is)]
        };
        // Counting sort by (owner, relation): class `c` of AS `v` fills
        // `starts[3 * v + c] .. starts[3 * v + c + 1]`.
        let mut starts = vec![0u32; 3 * n + 1];
        for l in &links {
            for (v, _, rel) in both_ways(l) {
                starts[3 * v.index() + rel as usize + 1] += 1;
            }
        }
        let mut total = 0;
        for s in &mut starts {
            total += *s;
            *s = total;
        }
        let mut next = starts.clone();
        let blank = SessEntry {
            neighbor: AsId(0),
            rel: Relation::Peer,
            sess: SessId(0),
            link: LinkId(0),
        };
        let mut sess_adj = vec![blank; 2 * links.len()];
        for (i, l) in links.iter().enumerate() {
            for (v, neighbor, rel) in both_ways(l) {
                let at = &mut next[3 * v.index() + rel as usize];
                sess_adj[*at as usize] = SessEntry {
                    neighbor,
                    rel,
                    sess: SessId(0),
                    link: LinkId::from_usize(i),
                };
                *at += 1;
            }
        }
        // Deterministic neighbour order regardless of insertion order.
        for (&lo, &hi) in starts.iter().zip(starts.iter().skip(1)) {
            sess_adj[lo as usize..hi as usize].sort_unstable_by_key(|e| e.neighbor);
        }
        // Session ids are the final positions. The reverse of a session is
        // the other direction of its link: the first direction met waits on
        // its link, the second pairs with it — no pass and no search of its
        // own.
        let mut sess_rev = vec![SessId(0); sess_adj.len()];
        let mut waiting: Vec<Option<SessId>> = vec![None; links.len()];
        for (i, e) in sess_adj.iter_mut().enumerate() {
            e.sess = SessId::from_usize(i);
            let Some(other) = waiting
                .get_mut(e.link.index())
                .and_then(|w| w.replace(e.sess))
            else {
                continue;
            };
            let pair = [(e.sess, other), (other, e.sess)];
            for (s, rev) in pair {
                if let Some(r) = sess_rev.get_mut(s.index()) {
                    *r = rev;
                }
            }
        }
        let mut sess_by_id = sess_adj.clone();
        let mut sess_ends = Vec::with_capacity(sess_adj.len());
        for v in 0..n {
            let (lo, hi) = (starts[3 * v] as usize, starts[3 * v + 3] as usize);
            sess_by_id[lo..hi].sort_unstable_by_key(|e| e.neighbor);
            sess_ends.extend(sess_adj[lo..hi].iter().map(|e| SessEnds {
                from: AsId::from_usize(v),
                to: e.neighbor,
                link: e.link,
            }));
        }
        Tables {
            sess_offsets: starts.iter().step_by(3).copied().collect(),
            class_ends: (0..n)
                .map(|v| [starts[3 * v + 1], starts[3 * v + 2]])
                .collect(),
            nbr: sess_adj.iter().map(|e| e.neighbor).collect(),
            links,
            external,
            sess_adj,
            sess_by_id,
            sess_ends,
            sess_rev,
        }
    }
}

/// Incremental builder for [`AsGraph`], accepting sparse external AS numbers.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    ids: FxHashMap<u32, AsId>,
    external: Vec<u32>,
    links: Vec<Link>,
    /// Unordered pair → what was said about it: the kind, and for a
    /// customer–provider link which end buys.
    link_keys: FxHashMap<(u32, u32), (LinkKind, Option<u32>)>,
}

impl GraphBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS (idempotent) and return its dense id.
    pub fn ensure_as(&mut self, asn: u32) -> AsId {
        let next = AsId(self.external.len() as u32);
        let external = &mut self.external;
        *self.ids.entry(asn).or_insert_with(|| {
            external.push(asn);
            next
        })
    }

    /// Number of ASes registered so far.
    pub fn n_ases(&self) -> usize {
        self.external.len()
    }

    /// Pre-register ASes `0..n` so dense ids equal external numbers
    /// regardless of the order links are added in. Handy in tests and for
    /// generated topologies. Reserves room for `n` ASes and about two links
    /// per AS (a generated graph's density), so building one never rehashes.
    pub fn preregister(&mut self, n: u32) {
        let ases = n as usize;
        self.ids.reserve(ases);
        self.external.reserve(ases);
        self.links.reserve(2 * ases);
        self.link_keys.reserve(2 * ases);
        for asn in 0..n {
            self.ensure_as(asn);
        }
    }

    /// Add a link. For [`LinkKind::CustomerProvider`], `a` is the customer
    /// and `b` the provider. A pair may be stated once: the same statement
    /// again is a duplicate, anything else about it — another kind, the
    /// other end buying — a conflict.
    pub fn add_link(&mut self, a: u32, b: u32, kind: LinkKind) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop { asn: a });
        }
        let key = (a.min(b), a.max(b));
        let stated = (kind, (kind == LinkKind::CustomerProvider).then_some(a));
        if let Some(&prev) = self.link_keys.get(&key) {
            return Err(if prev == stated {
                TopologyError::DuplicateLink { a, b }
            } else {
                TopologyError::ConflictingLink { a, b }
            });
        }
        let ia = self.ensure_as(a);
        let ib = self.ensure_as(b);
        let link = match kind {
            LinkKind::CustomerProvider => Link { a: ia, b: ib, kind },
            LinkKind::PeerPeer => {
                // Canonical order for peer links.
                let (x, y) = if ia.0 <= ib.0 { (ia, ib) } else { (ib, ia) };
                Link { a: x, b: y, kind }
            }
        };
        self.link_keys.insert(key, stated);
        let id = LinkId(self.links.len() as u32);
        self.links.push(link);
        Ok(id)
    }

    /// Convenience: `customer` buys transit from `provider`.
    pub fn customer_of(&mut self, customer: u32, provider: u32) -> Result<LinkId, TopologyError> {
        self.add_link(customer, provider, LinkKind::CustomerProvider)
    }

    /// Convenience: symmetric peering.
    pub fn peering(&mut self, a: u32, b: u32) -> Result<LinkId, TopologyError> {
        self.add_link(a, b, LinkKind::PeerPeer)
    }

    /// Validate and freeze the graph.
    ///
    /// Checks the customer→provider digraph for cycles (Kahn's algorithm) and
    /// that at least one provider-free AS exists.
    pub fn build(self) -> Result<AsGraph, TopologyError> {
        let g = AsGraph(Arc::new(Tables::from_links(self.external, self.links)));
        // Kahn's peel: an AS leaves once all its customers have left.
        let mut waiting: Vec<usize> = g.ases().map(|v| g.customers(v).len()).collect();
        let mut queue: Vec<AsId> = g.ases().filter(|&v| g.is_stub(v)).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &p in g.providers(v) {
                waiting[p.index()] -= 1;
                if waiting[p.index()] == 0 {
                    queue.push(p);
                }
            }
        }
        if seen != g.n() {
            let member = g.ases().find(|&v| waiting[v.index()] > 0);
            return Err(TopologyError::ProviderCycle {
                member: member.map_or(0, |v| g.external_asn(v)),
            });
        }
        if g.n() > 0 && g.tier1s().is_empty() {
            return Err(TopologyError::NoTier1);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example topology: a small clique of two tier-1s with a
    /// provider hierarchy below.
    fn diamond() -> AsGraph {
        let mut b = GraphBuilder::new();
        // 0,1 tier-1 peers; 2,3 mid-tier; 4 multi-homed stub.
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_classifies() {
        let g = diamond();
        assert_eq!(g.n(), 5);
        assert_eq!(g.n_links(), 5);
        assert!(g.is_tier1(AsId(0)));
        assert!(g.is_tier1(AsId(1)));
        assert!(!g.is_tier1(AsId(2)));
        assert!(g.is_stub(AsId(4)));
        assert!(g.is_multi_homed(AsId(4)));
        assert!(!g.is_multi_homed(AsId(2)));
        assert_eq!(g.tier1s(), vec![AsId(0), AsId(1)]);
    }

    #[test]
    fn relations_are_symmetric_inverses() {
        let g = diamond();
        assert_eq!(g.relation(AsId(4), AsId(2)), Some(Relation::Provider));
        assert_eq!(g.relation(AsId(2), AsId(4)), Some(Relation::Customer));
        assert_eq!(g.relation(AsId(0), AsId(1)), Some(Relation::Peer));
        assert_eq!(g.relation(AsId(1), AsId(0)), Some(Relation::Peer));
        assert_eq!(g.relation(AsId(0), AsId(4)), None);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        assert_eq!(
            b.add_link(7, 7, LinkKind::PeerPeer),
            Err(TopologyError::SelfLoop { asn: 7 })
        );
    }

    #[test]
    fn rejects_duplicate_and_conflicting() {
        let mut b = GraphBuilder::new();
        b.customer_of(1, 2).unwrap();
        assert!(matches!(
            b.customer_of(1, 2),
            Err(TopologyError::DuplicateLink { .. })
        ));
        assert!(matches!(
            b.peering(2, 1),
            Err(TopologyError::ConflictingLink { .. })
        ));
        // The same pair with the other end buying is a contradiction, not
        // a repetition.
        assert_eq!(
            b.customer_of(2, 1),
            Err(TopologyError::ConflictingLink { a: 2, b: 1 })
        );
        b.peering(3, 4).unwrap();
        assert_eq!(
            b.peering(4, 3),
            Err(TopologyError::DuplicateLink { a: 4, b: 3 })
        );
    }

    #[test]
    fn rejects_provider_cycle() {
        let mut b = GraphBuilder::new();
        b.customer_of(1, 2).unwrap();
        b.customer_of(2, 3).unwrap();
        b.customer_of(3, 1).unwrap();
        // Break the "no tier-1" degenerate case by adding an unrelated AS.
        b.ensure_as(9);
        assert!(matches!(
            b.build(),
            Err(TopologyError::ProviderCycle { .. })
        ));
    }

    #[test]
    fn without_links_removes() {
        let g = diamond();
        let l = g.link_between(AsId(4), AsId(2)).unwrap();
        let g2 = g.without_links(&[l]);
        assert_eq!(g2.n_links(), 4);
        assert_eq!(g2.relation(AsId(4), AsId(2)), None);
        assert_eq!(g2.relation(AsId(4), AsId(3)), Some(Relation::Provider));
    }

    #[test]
    fn stats_reflect_structure() {
        let g = diamond();
        let s = g.stats();
        assert_eq!(s.n_ases, 5);
        assert_eq!(s.n_cp_links, 4);
        assert_eq!(s.n_pp_links, 1);
        assert_eq!(s.n_tier1, 2);
        assert_eq!(s.n_stubs, 1);
    }

    #[test]
    fn neighbors_iterates_all() {
        let g = diamond();
        let mut ns: Vec<_> = g.neighbors(AsId(2)).collect();
        ns.sort();
        assert_eq!(
            ns,
            vec![(AsId(0), Relation::Provider), (AsId(4), Relation::Customer)]
        );
    }

    #[test]
    fn session_ids_are_dense_csr_positions() {
        let g = diamond();
        assert_eq!(g.n_sessions(), 2 * g.n_links());
        let mut seen = vec![false; g.n_sessions()];
        let mut expected = 0u32;
        for v in g.ases() {
            for e in g.neighbor_entries(v) {
                // CSR order: ids are assigned consecutively per node.
                assert_eq!(e.sess.0, expected, "non-contiguous session id");
                expected += 1;
                assert!(!seen[e.sess.index()], "duplicate session id");
                seen[e.sess.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unassigned session id");
    }

    #[test]
    fn session_entries_agree_with_relations_and_links() {
        let g = diamond();
        for v in g.ases() {
            for (slot, e) in g.neighbor_entries(v).iter().enumerate() {
                assert_eq!(g.relation(v, e.neighbor), Some(e.rel));
                assert_eq!(g.link_between(v, e.neighbor), Some(e.link));
                assert_eq!(g.sess_between(v, e.neighbor), Some(e.sess));
                assert_eq!(g.slot(v, e.sess), slot);
                assert_eq!(g.slot_between(v, e.neighbor), Some(slot));
                let ends = g.sess_ends(e.sess);
                assert_eq!((ends.from, ends.to, ends.link), (v, e.neighbor, e.link));
            }
            let by_id = g.neighbor_entries_by_id(v);
            assert!(by_id.windows(2).all(|w| w[0].neighbor < w[1].neighbor));
            assert_eq!(by_id.len(), g.degree(v));
        }
        assert_eq!(g.sess_between(AsId(0), AsId(4)), None);
        assert_eq!(g.slot_between(AsId(0), AsId(4)), None);
        assert_eq!(g.entry_between(AsId(4), AsId(1)), None);
        assert!(g.neighbor_entries_by_id(AsId(9)).is_empty());
    }

    #[test]
    fn session_reverse_flips_endpoints_and_keeps_the_link() {
        let g = diamond();
        for v in g.ases() {
            for e in g.neighbor_entries(v) {
                let rev = g.sess_reverse(e.sess);
                assert_ne!(rev, e.sess);
                let ends = g.sess_ends(rev);
                assert_eq!((ends.from, ends.to), (e.neighbor, v));
                assert_eq!(ends.link, e.link);
                assert_eq!(g.sess_reverse(rev), e.sess);
            }
        }
    }

    #[test]
    fn neighbor_entries_keep_class_then_id_order() {
        // AS 4 has two providers (2 and 3); AS 0 has a customer (2) and a
        // peer (1): the slice must list customers, then peers, then
        // providers, ascending within each class — the order `neighbors`
        // always iterated in.
        let g = diamond();
        let order: Vec<(AsId, Relation)> = g.neighbors(AsId(0)).collect();
        assert_eq!(
            order,
            vec![(AsId(2), Relation::Customer), (AsId(1), Relation::Peer)]
        );
        let order4: Vec<(AsId, Relation)> = g.neighbors(AsId(4)).collect();
        assert_eq!(
            order4,
            vec![(AsId(2), Relation::Provider), (AsId(3), Relation::Provider)]
        );
    }
}
