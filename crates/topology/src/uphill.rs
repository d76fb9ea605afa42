//! The customer→provider ("uphill") DAG: path counting and sampling.
//!
//! The Φ analysis of §6.1 is stated over the set of *uphill paths* from a
//! destination AS `m` to the tier-1 ASes: λ is the number of such paths and
//! λ′ the number of "good" locked blue paths. This module provides
//!
//! * exact path counts per AS (`f64` accumulators: counts grow exponentially
//!   with hierarchy depth, and only *ratios* and *sampling weights* are ever
//!   needed, so floating point is the right representation);
//! * exhaustive enumeration under a configurable cap;
//! * uniform sampling over the path set via count-weighted random walks —
//!   each AS on the walk picks the next provider with probability
//!   proportional to the number of tier-1 paths through it, which makes the
//!   walk exactly uniform over complete paths.

use crate::graph::{AsGraph, AsId};
use stamp_eventsim::rng::Rng;

/// Precomputed uphill path counts for one topology.
#[derive(Debug, Clone)]
pub struct UphillDag {
    /// `counts[v]` = number of uphill paths from `v` to any tier-1
    /// (1 for tier-1 ASes themselves: the empty path).
    counts: Vec<f64>,
}

impl UphillDag {
    /// Build the DAG counts for a topology (O(V + E)).
    pub fn new(g: &AsGraph) -> UphillDag {
        let n = g.n();
        let mut counts = vec![-1.0f64; n];
        // Iterative post-order DFS over provider edges.
        for start in g.ases() {
            if counts[start.index()] >= 0.0 {
                continue;
            }
            let mut stack: Vec<(AsId, bool)> = vec![(start, false)];
            while let Some((v, expanded)) = stack.pop() {
                if counts[v.index()] >= 0.0 {
                    continue;
                }
                if g.is_tier1(v) {
                    counts[v.index()] = 1.0;
                    continue;
                }
                if expanded {
                    let c: f64 = g
                        .providers(v)
                        .iter()
                        .map(|p| counts[p.index()].max(0.0))
                        .sum();
                    counts[v.index()] = c;
                } else {
                    stack.push((v, true));
                    for &p in g.providers(v) {
                        if counts[p.index()] < 0.0 {
                            stack.push((p, false));
                        }
                    }
                }
            }
        }
        UphillDag { counts }
    }

    /// λ: the number of uphill paths from `v` to any tier-1 AS.
    #[inline]
    pub fn path_count(&self, v: AsId) -> f64 {
        self.counts[v.index()]
    }

    /// Sample an uphill path `[v, …, tier-1]` uniformly at random among all
    /// such paths. Returns `None` if `v` has no uphill path (impossible in a
    /// validated graph: every AS either is tier-1 or has a provider chain).
    pub fn sample_path(&self, g: &AsGraph, v: AsId, rng: &mut Rng) -> Option<Vec<AsId>> {
        let mut path = vec![v];
        let mut cur = v;
        while !g.is_tier1(cur) {
            let provs = g.providers(cur);
            let total: f64 = provs.iter().map(|p| self.counts[p.index()]).sum();
            if total <= 0.0 {
                return None;
            }
            let mut x = rng.gen_f64() * total;
            let mut chosen = *provs.last()?;
            for &p in provs {
                x -= self.counts[p.index()];
                if x <= 0.0 {
                    chosen = p;
                    break;
                }
            }
            path.push(chosen);
            cur = chosen;
        }
        Some(path)
    }

    /// Enumerate every uphill path `[v, …, tier-1]`, or `None` if there are
    /// more than `cap` of them.
    pub fn enumerate_paths(&self, g: &AsGraph, v: AsId, cap: usize) -> Option<Vec<Vec<AsId>>> {
        if self.counts[v.index()] > cap as f64 {
            return None;
        }
        let mut out = Vec::new();
        let mut prefix = vec![v];
        self.enumerate_rec(g, v, &mut prefix, &mut out, cap)?;
        Some(out)
    }

    fn enumerate_rec(
        &self,
        g: &AsGraph,
        cur: AsId,
        prefix: &mut Vec<AsId>,
        out: &mut Vec<Vec<AsId>>,
        cap: usize,
    ) -> Option<()> {
        if g.is_tier1(cur) {
            if out.len() >= cap {
                return None;
            }
            out.push(prefix.clone());
            return Some(());
        }
        for &p in g.providers(cur) {
            prefix.push(p);
            self.enumerate_rec(g, p, prefix, out, cap)?;
            prefix.pop();
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Two tier-1s (0, 1); 2 below both; 3 below 2 and 1.
    ///
    /// Uphill paths from 3: 3-2-0, 3-2-1, 3-1 → λ = 3.
    fn g() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.customer_of(3, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_match_hand_computation() {
        let g = g();
        let dag = UphillDag::new(&g);
        assert_eq!(dag.path_count(AsId(0)), 1.0);
        assert_eq!(dag.path_count(AsId(1)), 1.0);
        assert_eq!(dag.path_count(AsId(2)), 2.0);
        assert_eq!(dag.path_count(AsId(3)), 3.0);
    }

    #[test]
    fn enumeration_lists_all_paths() {
        let g = g();
        let dag = UphillDag::new(&g);
        let mut paths = dag.enumerate_paths(&g, AsId(3), 100).unwrap();
        paths.sort();
        assert_eq!(
            paths,
            vec![
                vec![AsId(3), AsId(1)],
                vec![AsId(3), AsId(2), AsId(0)],
                vec![AsId(3), AsId(2), AsId(1)],
            ]
        );
    }

    #[test]
    fn enumeration_respects_cap() {
        let g = g();
        let dag = UphillDag::new(&g);
        assert!(dag.enumerate_paths(&g, AsId(3), 2).is_none());
    }

    #[test]
    fn sampling_is_uniform_over_paths() {
        let g = g();
        let dag = UphillDag::new(&g);
        let mut rng = Rng::seed_from_u64(9);
        let mut hits = std::collections::HashMap::new();
        let trials = 30_000;
        for _ in 0..trials {
            let p = dag.sample_path(&g, AsId(3), &mut rng).unwrap();
            *hits.entry(p).or_insert(0usize) += 1;
        }
        assert_eq!(hits.len(), 3);
        for (_, h) in hits {
            let f = h as f64 / trials as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.02, "non-uniform: {f}");
        }
    }

    #[test]
    fn tier1_path_is_the_empty_walk() {
        let g = g();
        let dag = UphillDag::new(&g);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(
            dag.sample_path(&g, AsId(0), &mut rng).unwrap(),
            vec![AsId(0)]
        );
        assert_eq!(
            dag.enumerate_paths(&g, AsId(0), 10).unwrap(),
            vec![vec![AsId(0)]]
        );
    }
}
