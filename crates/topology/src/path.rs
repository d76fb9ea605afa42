//! AS paths, the valley-free state machine and the uphill/downhill
//! decomposition.
//!
//! The paper (§3.2) decomposes a valley-free AS path into an *uphill*
//! portion (customer→provider links), at most one peer link, and a
//! *downhill* portion (provider→customer links, "together with the ASes at
//! the two ends of each link"). Lemmas 3.1/3.2 reduce STAMP's disjointness
//! requirement to the downhill node set, which this module exposes.

use crate::graph::{AsGraph, AsId, Relation};

/// Result of checking a node sequence against the valley-free property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValleyCheck {
    /// The path is valley-free.
    Ok,
    /// Two consecutive nodes are not adjacent in the graph.
    NotAdjacent { index: usize },
    /// The path violates valley-freeness at this link index (0-based link
    /// between node `index` and `index + 1`).
    Valley { index: usize },
    /// A node repeats (AS-path loop).
    Loop { asn: AsId },
}

/// Walk direction state while scanning a path from source to destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Still allowed to go up (customer→provider), cross one peer link, or
    /// turn downhill.
    Up,
    /// Crossed the single allowed peer link; only downhill from here.
    AfterPeer,
    /// Turned downhill; only provider→customer from here.
    Down,
}

/// Check that `seq` (source first, destination last) is a simple valley-free
/// path in `g`.
///
/// Each consecutive hop `(u, v)` is classified by `v`'s relation to `u`:
/// `Provider` is an uphill step, `Peer` the single allowed peer step, and
/// `Customer` a downhill step.
pub fn check_valley_free(g: &AsGraph, seq: &[AsId]) -> ValleyCheck {
    {
        let mut seen = stamp_eventsim::fxhash::FxHashSet::with_capacity_and_hasher(
            seq.len(),
            Default::default(),
        );
        for &v in seq {
            if !seen.insert(v) {
                return ValleyCheck::Loop { asn: v };
            }
        }
    }
    let mut phase = Phase::Up;
    for i in 0..seq.len().saturating_sub(1) {
        let (u, v) = (seq[i], seq[i + 1]);
        let rel = match g.relation(u, v) {
            Some(r) => r,
            None => return ValleyCheck::NotAdjacent { index: i },
        };
        phase = match (phase, rel) {
            (Phase::Up, Relation::Provider) => Phase::Up,
            (Phase::Up, Relation::Peer) => Phase::AfterPeer,
            (Phase::Up, Relation::Customer) => Phase::Down,
            (Phase::AfterPeer, Relation::Customer) => Phase::Down,
            (Phase::Down, Relation::Customer) => Phase::Down,
            _ => return ValleyCheck::Valley { index: i },
        };
    }
    ValleyCheck::Ok
}

/// Convenience: `true` iff [`check_valley_free`] returns [`ValleyCheck::Ok`].
pub fn is_valley_free(g: &AsGraph, seq: &[AsId]) -> bool {
    check_valley_free(g, seq) == ValleyCheck::Ok
}

/// Decomposition of a valley-free path into its three segments.
///
/// Indexes are node positions into the original sequence:
/// * `uphill` — the maximal prefix connected by customer→provider links
///   (node positions `0..=uphill_end`),
/// * `peer_link` — position `i` such that the link `(i, i+1)` is the single
///   peer crossing, if present,
/// * `downhill` — node positions `downhill_start..len`, every consecutive
///   pair connected by a provider→customer link. Per the paper, the downhill
///   *node set* includes both endpoints of every downhill link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSplit {
    pub uphill_end: usize,
    pub peer_link: Option<usize>,
    pub downhill_start: usize,
    len: usize,
}

impl PathSplit {
    /// Node positions of the downhill portion (may be empty if the path
    /// never goes downhill, e.g. a pure uphill path to a provider).
    pub fn downhill_range(&self) -> std::ops::Range<usize> {
        if self.downhill_start >= self.len {
            self.len..self.len
        } else {
            self.downhill_start..self.len
        }
    }
}

/// Split a (valley-free) path into uphill / peer / downhill segments.
///
/// Returns `None` if the sequence is not a valley-free path of `g`.
///
/// The downhill portion starts at the first node from which the path only
/// descends provider→customer to the destination; if the path contains no
/// downhill link the downhill range is empty. Note a single-link
/// provider→customer path `[p, c]` is entirely downhill: both `p` and `c`
/// are downhill nodes, matching the paper's definition.
pub fn split_uphill_downhill(g: &AsGraph, seq: &[AsId]) -> Option<PathSplit> {
    if check_valley_free(g, seq) != ValleyCheck::Ok {
        return None;
    }
    let len = seq.len();
    if len <= 1 {
        return Some(PathSplit {
            uphill_end: 0,
            peer_link: None,
            downhill_start: len, // empty
            len,
        });
    }
    let mut uphill_end = 0usize;
    let mut peer_link = None;
    let mut downhill_start = len;
    for i in 0..len - 1 {
        // simlint::allow(panic, "adjacency was verified by check_valley_free just above")
        match g.relation(seq[i], seq[i + 1]).expect("checked adjacency") {
            Relation::Provider => uphill_end = i + 1,
            Relation::Peer => peer_link = Some(i),
            Relation::Customer => {
                downhill_start = downhill_start.min(i);
            }
        }
    }
    Some(PathSplit {
        uphill_end,
        peer_link,
        downhill_start,
        len,
    })
}

/// The downhill node set of a valley-free path (both endpoints of every
/// provider→customer link), or `None` if not valley-free.
pub fn downhill_nodes<'a>(g: &AsGraph, seq: &'a [AsId]) -> Option<&'a [AsId]> {
    let split = split_uphill_downhill(g, seq)?;
    Some(&seq[split.downhill_range()])
}

/// Whether two valley-free paths (same source and destination) are
/// *downhill node disjoint*: their downhill node sets share no AS other
/// than the common destination and (degenerately) the common source.
///
/// This is the complementarity criterion of §3.2/§4.2.
pub fn downhill_node_disjoint(g: &AsGraph, p1: &[AsId], p2: &[AsId]) -> Option<bool> {
    let (s, d) = match (p1.first(), p1.last()) {
        (Some(&s), Some(&d)) => (s, d),
        _ => return Some(true),
    };
    let d1 = downhill_nodes(g, p1)?;
    let d2 = downhill_nodes(g, p2)?;
    let set: stamp_eventsim::fxhash::FxHashSet<AsId> =
        d1.iter().copied().filter(|&v| v != d && v != s).collect();
    Some(!d2.iter().any(|&v| v != d && v != s && set.contains(&v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0 -- 1 tier-1 peers; 2 customer of 0; 3 customer of 1;
    /// 4 customer of both 2 and 3; 5 customer of 2.
    fn g() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        b.customer_of(5, 2).unwrap();
        b.build().unwrap()
    }

    fn ids(v: &[u32]) -> Vec<AsId> {
        v.iter().map(|&x| AsId(x)).collect()
    }

    #[test]
    fn accepts_up_peer_down() {
        let g = g();
        // 4 up to 2 up to 0, peer to 1, down to 3.
        assert!(is_valley_free(&g, &ids(&[4, 2, 0, 1, 3])));
    }

    #[test]
    fn accepts_pure_downhill_and_uphill() {
        let g = g();
        assert!(is_valley_free(&g, &ids(&[0, 2, 4])));
        assert!(is_valley_free(&g, &ids(&[4, 2, 0])));
    }

    #[test]
    fn rejects_valley() {
        let g = g();
        // 5 up to 2, down to 4, up to 3 — a valley.
        assert_eq!(
            check_valley_free(&g, &ids(&[5, 2, 4, 3])),
            ValleyCheck::Valley { index: 2 }
        );
    }

    #[test]
    fn rejects_two_peer_links() {
        let mut b = GraphBuilder::new();
        b.peering(0, 1).unwrap();
        b.peering(1, 2).unwrap();
        b.customer_of(3, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            check_valley_free(&g, &ids(&[0, 1, 2])),
            ValleyCheck::Valley { index: 1 }
        );
        let _ = g;
    }

    #[test]
    fn rejects_loop_and_nonadjacent() {
        let g = g();
        assert_eq!(
            check_valley_free(&g, &ids(&[4, 2, 4])),
            ValleyCheck::Loop { asn: AsId(4) }
        );
        assert_eq!(
            check_valley_free(&g, &ids(&[4, 0])),
            ValleyCheck::NotAdjacent { index: 0 }
        );
    }

    #[test]
    fn split_up_peer_down() {
        let g = g();
        let seq = ids(&[4, 2, 0, 1, 3]);
        let s = split_uphill_downhill(&g, &seq).unwrap();
        assert_eq!(s.uphill_end, 2); // 4,2,0
        assert_eq!(s.peer_link, Some(2)); // link 0-1
        assert_eq!(s.downhill_range(), 3..5); // 1,3
        assert_eq!(downhill_nodes(&g, &seq).unwrap(), &ids(&[1, 3])[..]);
    }

    #[test]
    fn split_pure_downhill_includes_both_ends() {
        let g = g();
        let seq = ids(&[0, 2, 4]);
        let s = split_uphill_downhill(&g, &seq).unwrap();
        assert_eq!(s.downhill_range(), 0..3);
    }

    #[test]
    fn split_pure_uphill_has_empty_downhill() {
        let g = g();
        let seq = ids(&[4, 2, 0]);
        let s = split_uphill_downhill(&g, &seq).unwrap();
        assert_eq!(s.uphill_end, 2);
        assert!(s.downhill_range().is_empty());
    }

    #[test]
    fn disjointness_on_diamond() {
        let g = g();
        // Two paths from 0 and 1 down to 4: downhill {0,2,4} vs {1,3,4}.
        let p1 = ids(&[0, 2, 4]);
        let p2 = ids(&[1, 3, 4]);
        // Different sources, so compare manually via downhill sets from a
        // common vantage: use paths from 0: 0-2-4 and 0-1-3-4 (peer then down).
        assert!(downhill_node_disjoint(&g, &p1, &p2).unwrap());
        let q1 = ids(&[0, 2, 4]);
        let q2 = ids(&[0, 1, 3, 4]);
        assert!(downhill_node_disjoint(&g, &q1, &q2).unwrap());
        // Sharing AS 2 downhill: 0-2-4 vs 0-2-5 share node 2.
        let r1 = ids(&[0, 2, 4]);
        let r2 = ids(&[0, 2, 5]);
        assert!(!downhill_node_disjoint(&g, &r1, &r2).unwrap());
    }
}
