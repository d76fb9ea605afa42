//! The static Φ analysis of §6.1 (Figure 1).
//!
//! For a multi-homed destination AS `m`, let λ be the number of uphill paths
//! from `m` to any tier-1 AS. A path `l_i` is a *good* locked blue path if,
//! with `l_i` locked, a node-disjoint uphill path from `m` to a *different*
//! tier-1 exists (STAMP is then guaranteed to find a red path). With λ′ good
//! paths, `Φ_m = λ′ / λ` — the probability that all ASes obtain both red
//! and blue routes to `m` when the locked blue provider is chosen uniformly
//! at random. For a single-homed destination, Φ equals that of its first
//! multi-homed (direct or indirect) provider.
//!
//! Exact enumeration is used while λ stays below `EXACT_CAP` (2000 paths);
//! above it, paths are sampled *uniformly* (count-weighted walks, see
//! [`stamp_topology::uphill`]) and Φ is estimated, matching the paper's
//! uniform-over-paths definition.
//!
//! The §6.1 *smart selection* variant lets the origin pick its locked blue
//! provider knowingly: `Φ_smart(m) = max_q Pr[good | first hop = q]`,
//! reported alongside the provider choice so deployments can use it
//! ([`smart_lock_choices`]).

use stamp_bgp::PrefixId;
use stamp_eventsim::fxhash::FxHashMap;
use stamp_eventsim::rng::{tags, Rng};
use stamp_eventsim::rng_stream;
use stamp_topology::disjoint::good_locked_path;
use stamp_topology::graph::{AsGraph, AsId};
use stamp_topology::uphill::UphillDag;

/// Φ is computed exactly, by enumerating every uphill path, when λ is at
/// most this many paths, and sampled above it.
const EXACT_CAP: usize = 2_000;

/// Configuration of the Φ computation.
#[derive(Debug, Clone)]
pub struct PhiConfig {
    /// Monte-Carlo samples when λ exceeds `EXACT_CAP`.
    pub samples: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Smart origin selection (§6.1) instead of uniform random.
    pub smart: bool,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            samples: 300,
            seed: 0xF1,
            smart: false,
        }
    }
}

/// Φ for every destination plus aggregates — the data behind Figure 1.
#[derive(Debug, Clone)]
pub struct PhiReport {
    /// Per destination AS, in AS order.
    pub per_destination: Vec<(AsId, f64)>,
    /// Mean Φ over all destinations (the paper's headline 0.92).
    pub mean: f64,
}

impl PhiReport {
    /// Φ values sorted ascending (CDF support).
    pub fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.per_destination.iter().map(|(_, p)| *p).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Fraction of destinations with Φ ≤ `x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.per_destination.is_empty() {
            return 0.0;
        }
        let c = self.per_destination.iter().filter(|(_, p)| *p <= x).count();
        c as f64 / self.per_destination.len() as f64
    }
}

/// Resolve a destination to the AS where the red/blue split happens: walk up
/// single-provider chains; `None` means the chain reached a tier-1 (Φ = 1 —
/// both colours flow freely down from the top, see module docs).
fn split_point(g: &AsGraph, mut m: AsId) -> Option<AsId> {
    loop {
        if g.is_tier1(m) {
            return None;
        }
        let provs = g.providers(m);
        match provs.len() {
            1 => m = provs[0],
            _ => return Some(m),
        }
    }
}

/// Φ for one destination.
pub fn phi_for_destination(
    g: &AsGraph,
    dag: &UphillDag,
    dest: AsId,
    cfg: &PhiConfig,
    rng: &mut Rng,
) -> f64 {
    let m = match split_point(g, dest) {
        None => return 1.0,
        Some(m) => m,
    };
    let lambda = dag.path_count(m);
    if lambda <= 0.0 {
        return 0.0;
    }
    if lambda <= EXACT_CAP as f64 {
        if let Some(paths) = dag.enumerate_paths(g, m, EXACT_CAP) {
            return phi_from_paths(g, &paths, cfg.smart);
        }
    }
    // Sampled estimate.
    let mut paths = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        if let Some(p) = dag.sample_path(g, m, rng) {
            paths.push(p);
        }
    }
    phi_from_paths(g, &paths, cfg.smart)
}

/// Fraction of good paths (uniform model), or the best per-first-hop
/// fraction (smart model).
fn phi_from_paths(g: &AsGraph, paths: &[Vec<AsId>], smart: bool) -> f64 {
    if paths.is_empty() {
        return 0.0;
    }
    if !smart {
        let good = paths.iter().filter(|p| good_locked_path(g, p)).count();
        return good as f64 / paths.len() as f64;
    }
    first_hop_tally(g, paths)
        .values()
        .map(|(good, total)| *good as f64 / *total as f64)
        .fold(0.0, f64::max)
}

/// Per first hop `q`: how many of `paths` leave through `q` and how many of
/// those are good locked paths, as `q → (good, total)` — what the smart
/// variant (§6.1) conditions on.
fn first_hop_tally(g: &AsGraph, paths: &[Vec<AsId>]) -> FxHashMap<AsId, (usize, usize)> {
    let mut by_hop: FxHashMap<AsId, (usize, usize)> = FxHashMap::default();
    for p in paths {
        if p.len() < 2 {
            continue;
        }
        let e = by_hop.entry(p[1]).or_insert((0, 0));
        e.1 += 1;
        if good_locked_path(g, p) {
            e.0 += 1;
        }
    }
    by_hop
}

/// Φ for every AS in the graph (Figure 1's population).
pub fn phi_all_destinations(g: &AsGraph, cfg: &PhiConfig) -> PhiReport {
    let dag = UphillDag::new(g);
    let mut rng = rng_stream(cfg.seed, tags::PHI_SAMPLING);
    let mut per = Vec::with_capacity(g.n());
    for dest in g.ases() {
        per.push((dest, phi_for_destination(g, &dag, dest, cfg, &mut rng)));
    }
    let mean = if per.is_empty() {
        0.0
    } else {
        per.iter().map(|(_, p)| *p).sum::<f64>() / per.len() as f64
    };
    PhiReport {
        per_destination: per,
        mean,
    }
}

/// Smart lock choices for every multi-homed AS: the provider maximising the
/// conditional probability that the locked path is good. Used as the
/// [`crate::lock::LockStrategy::Fixed`] table in §6.1's smart variant.
pub fn smart_lock_choices(
    g: &AsGraph,
    prefix: PrefixId,
    cfg: &PhiConfig,
) -> FxHashMap<(AsId, PrefixId), AsId> {
    let dag = UphillDag::new(g);
    let mut rng = rng_stream(cfg.seed, tags::PHI_SAMPLING);
    let mut out = FxHashMap::default();
    for m in g.ases() {
        if g.is_tier1(m) || g.providers(m).len() < 2 {
            continue;
        }
        let lambda = dag.path_count(m);
        let paths: Vec<Vec<AsId>> = if lambda <= EXACT_CAP as f64 {
            dag.enumerate_paths(g, m, EXACT_CAP).unwrap_or_default()
        } else {
            (0..cfg.samples)
                .filter_map(|_| dag.sample_path(g, m, &mut rng))
                .collect()
        };
        // Ties on the fraction are broken by the AS id, so the winner does
        // not depend on hash-iteration order.
        let best = first_hop_tally(g, &paths)
            .iter()
            .map(|(q, (good, total))| (*good as f64 / *total as f64, *q))
            .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some((_, q)) = best {
            out.insert((m, prefix), q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_topology::gen::{generate, GenConfig};
    use stamp_topology::graph::GraphBuilder;

    /// Diamond: Φ = 1 for destination 4 (both locked paths good).
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

    /// Funnel: both uphill paths of 3 share AS 2 ⇒ Φ = 0.
    fn funnel() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.build().unwrap()
    }

    fn phi_of(g: &AsGraph, dest: u32, cfg: &PhiConfig) -> f64 {
        let dag = UphillDag::new(g);
        let mut rng = rng_stream(cfg.seed, tags::PHI_SAMPLING);
        phi_for_destination(g, &dag, AsId(dest), cfg, &mut rng)
    }

    #[test]
    fn diamond_has_phi_one() {
        let g = diamond();
        assert_eq!(phi_of(&g, 4, &PhiConfig::default()), 1.0);
    }

    #[test]
    fn funnel_has_phi_zero_via_split_point() {
        let g = funnel();
        // 3 is single-homed: Φ_3 = Φ of its first multi-homed provider, 2.
        // Both of 2's locked paths are bad (each blocks the other tier-1
        // through... no: 2's paths are [2,0] and [2,1]; locking [2,0] bans
        // node 0 but [2,1] survives to the other tier-1 ⇒ good!
        // So Φ_2 = 1 and Φ_3 = 1. The Φ = 0 case needs the funnel *below*
        // the split: destination 3 itself multi-homed through one mid AS.
        assert_eq!(phi_of(&g, 3, &PhiConfig::default()), 1.0);
    }

    #[test]
    fn shared_mid_makes_paths_bad() {
        // dest 4 multi-homed to 2 and 3, both of which are customers of the
        // single mid AS 5, which alone reaches tier-1s 0 and 1:
        // every uphill path of 4 passes 5 ⇒ no locked path is good ⇒ Φ = 0.
        let mut b = GraphBuilder::new();
        b.preregister(6);
        b.peering(0, 1).unwrap();
        b.customer_of(5, 0).unwrap();
        b.customer_of(5, 1).unwrap();
        b.customer_of(2, 5).unwrap();
        b.customer_of(3, 5).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        let g = b.build().unwrap();
        assert_eq!(phi_of(&g, 4, &PhiConfig::default()), 0.0);
    }

    #[test]
    fn mixed_topology_phi_between_zero_and_one() {
        // dest 3 with paths [3,2,0], [3,2,1], [3,1]: two of three good
        // (see disjoint.rs::mixed_good_and_bad_locked_paths) ⇒ Φ = 2/3.
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.customer_of(3, 1).unwrap();
        let g = b.build().unwrap();
        let phi = phi_of(&g, 3, &PhiConfig::default());
        assert!((phi - 2.0 / 3.0).abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn smart_selection_improves_mixed_case() {
        // Same topology: locking via first hop 1 is always good (path
        // [3,1]); via 2, half the paths are good. Smart Φ = 1.
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.customer_of(3, 1).unwrap();
        let g = b.build().unwrap();
        let cfg = PhiConfig {
            smart: true,
            ..Default::default()
        };
        assert_eq!(phi_of(&g, 3, &cfg), 1.0);
    }

    #[test]
    fn tier1_destination_is_trivially_covered() {
        let g = diamond();
        assert_eq!(phi_of(&g, 0, &PhiConfig::default()), 1.0);
    }

    #[test]
    fn report_aggregates_and_cdf() {
        let g = diamond();
        let rep = phi_all_destinations(&g, &PhiConfig::default());
        assert_eq!(rep.per_destination.len(), 5);
        assert!(rep.mean > 0.9, "diamond mean {}", rep.mean);
        assert_eq!(rep.cdf_at(1.0), 1.0);
    }

    #[test]
    fn smart_never_worse_than_random_on_generated() {
        let g = generate(&GenConfig::small(31)).unwrap();
        let base = phi_all_destinations(&g, &PhiConfig::default());
        let smart = phi_all_destinations(
            &g,
            &PhiConfig {
                smart: true,
                ..Default::default()
            },
        );
        assert!(
            smart.mean >= base.mean - 1e-9,
            "smart {} < random {}",
            smart.mean,
            base.mean
        );
    }

    #[test]
    fn generated_topology_mean_phi_is_high() {
        // The paper's headline: mean Φ ≈ 0.92 on the 2008 RouteViews graph.
        // Our generator aims for comparable multi-homing, so the mean
        // should be well above one half.
        let g = generate(&GenConfig::small(17)).unwrap();
        let rep = phi_all_destinations(&g, &PhiConfig::default());
        assert!(rep.mean > 0.6, "mean Φ {} unexpectedly low", rep.mean);
    }

    #[test]
    fn smart_lock_choices_point_at_good_providers() {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(2, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.customer_of(3, 1).unwrap();
        let g = b.build().unwrap();
        let table = smart_lock_choices(&g, PrefixId(0), &PhiConfig::default());
        // For AS 3 the always-good first hop is provider 1.
        assert_eq!(table.get(&(AsId(3), PrefixId(0))), Some(&AsId(1)));
    }
}
