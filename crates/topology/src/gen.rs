//! Seeded synthetic Internet-like AS topology generator.
//!
//! Substitute for the paper's RouteViews-derived snapshot (DESIGN.md §2).
//! The generator reproduces the structural properties the paper's results
//! depend on:
//!
//! * a **tier-1 clique** of provider-free ASes fully meshed with peer links
//!   (every customer route can climb to a tier-1, and tier-1s exchange
//!   customer routes over peering, exactly as assumed by the Φ analysis);
//! * a **transit middle layer** attached by preferential attachment, giving
//!   the heavy-tailed customer-degree distribution of the measured AS graph;
//! * a majority of **stub ASes**, most of them multi-homed (the paper's
//!   §4.1 colouring applies to multi-homed origins; 2008-era measurements
//!   put multi-homing well above 50%, which drives the mean Φ ≈ 0.92);
//! * an **acyclic customer→provider hierarchy by construction** (providers
//!   are always earlier in the generation order).
//!
//! Determinism: identical [`GenConfig`] (including `seed`) ⇒ identical graph.

use crate::error::TopologyError;
use crate::graph::{AsGraph, GraphBuilder, LinkKind};
use stamp_eventsim::rng::Rng;

/// Configuration of the synthetic topology generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Total number of ASes.
    pub n_ases: usize,
    /// Number of tier-1 ASes (fully meshed peer clique).
    pub n_tier1: usize,
    /// Fraction of the non-tier-1 ASes that provide transit.
    pub transit_frac: f64,
    /// Weights over provider counts 1, 2, 3, … for stub ASes.
    pub stub_provider_weights: Vec<f64>,
    /// Weights over provider counts 1, 2, 3, … for transit ASes.
    pub transit_provider_weights: Vec<f64>,
    /// Expected number of peering attempts per transit AS.
    pub peer_links_per_transit: f64,
    /// Maximum rank distance between transit peers (peering tends to happen
    /// between ASes of comparable size).
    pub peer_rank_window: usize,
    /// Additive smoothing for preferential attachment: provider selection
    /// weight is `customer_degree + pref_attach`.
    pub pref_attach: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        // Calibrated against the paper's joint targets (see the
        // `calibrate` binary in `stamp-bench`): mean Φ ≈ 0.92 (§6.1) while
        // plain BGP leaves ≈25% of ASes with transient problems under a
        // single link failure (Figure 2). A sparser transit mesh than the
        // modern Internet — matching the 2008 RouteViews snapshot's
        // concentration — is what produces the paper's large BGP cones.
        GenConfig {
            n_ases: 4000,
            n_tier1: 10,
            transit_frac: 0.15,
            stub_provider_weights: vec![0.45, 0.35, 0.15, 0.05],
            transit_provider_weights: vec![0.35, 0.40, 0.18, 0.07],
            peer_links_per_transit: 0.8,
            peer_rank_window: 200,
            pref_attach: 1.0,
            seed: 0xC0FFEE,
        }
    }
}

impl GenConfig {
    /// A small topology for unit tests and examples (fast to simulate).
    pub fn small(seed: u64) -> Self {
        GenConfig {
            n_ases: 200,
            n_tier1: 5,
            peer_rank_window: 40,
            seed,
            ..Default::default()
        }
    }

    /// The default simulation scale used by the figure experiments.
    pub fn sim_scale(seed: u64) -> Self {
        GenConfig {
            seed,
            ..Default::default()
        }
    }

    /// A larger topology for static analyses (Φ CDF), closer to the paper's
    /// RouteViews snapshot in spirit if not in absolute size.
    pub fn analysis_scale(seed: u64) -> Self {
        GenConfig {
            n_ases: 12000,
            n_tier1: 12,
            peer_rank_window: 400,
            seed,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), TopologyError> {
        let bad = |reason: &str| TopologyError::Parse {
            line: 0,
            reason: reason.to_string(),
        };
        if self.n_tier1 == 0 {
            return Err(bad("n_tier1 must be >= 1"));
        }
        if self.n_ases < self.n_tier1 {
            return Err(bad("n_ases must be >= n_tier1"));
        }
        if !(0.0..=1.0).contains(&self.transit_frac) {
            return Err(bad("transit_frac must be within [0, 1]"));
        }
        if self.stub_provider_weights.is_empty()
            || self.transit_provider_weights.is_empty()
            || self.stub_provider_weights.iter().any(|w| *w < 0.0)
            || self.transit_provider_weights.iter().any(|w| *w < 0.0)
            || self.stub_provider_weights.iter().sum::<f64>() <= 0.0
            || self.transit_provider_weights.iter().sum::<f64>() <= 0.0
        {
            return Err(bad("provider weights must be non-empty and non-negative"));
        }
        if self.peer_links_per_transit < 0.0 {
            return Err(bad("peer_links_per_transit must be >= 0"));
        }
        Ok(())
    }
}

/// Draw an index from non-negative `weights` (at least one positive).
fn weighted_index(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_f64() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Generate a topology. AS numbers are dense `0..n`: ranks `0..n_tier1` are
/// the tier-1 clique, then transit ASes, then stubs.
pub fn generate(cfg: &GenConfig) -> Result<AsGraph, TopologyError> {
    cfg.validate()?;
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::new();
    // Dense rank -> external ASN. Generated graphs use identity numbering;
    // validate() bounds n_ases far below u32::MAX, so the saturation is
    // unreachable and only exists to keep the conversion total.
    let asn = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
    b.preregister(asn(cfg.n_ases));

    let n = cfg.n_ases;
    let t1 = cfg.n_tier1.min(n);
    let non_t1 = n - t1;
    let n_transit = ((non_t1 as f64) * cfg.transit_frac).round() as usize;
    let transit_end = t1 + n_transit; // ranks [t1, transit_end) are transit

    // Tier-1 clique.
    for i in 0..t1 {
        for j in (i + 1)..t1 {
            b.add_link(asn(i), asn(j), LinkKind::PeerPeer)?;
        }
    }

    // Attachment pool: each eligible provider appears once per customer link
    // plus a constant smoothing term (implemented by sampling the pool with
    // probability proportional to its multiplicity, mixing in a uniform
    // choice with weight `pref_attach` per eligible AS).
    let mut pool: Vec<u32> = Vec::with_capacity(n * 2);
    let mut customer_degree: Vec<u32> = vec![0; n];

    // Every tier-1 starts in the pool so early transit ASes can attach.
    let mut eligible: Vec<u32> = (0..t1).map(asn).collect();

    let pick_providers =
        |rng: &mut Rng, pool: &Vec<u32>, eligible: &Vec<u32>, k: usize| -> Vec<u32> {
            let k = k.min(eligible.len());
            let mut chosen: Vec<u32> = Vec::with_capacity(k);
            let mut attempts = 0;
            while chosen.len() < k && attempts < 50 * k + 50 {
                attempts += 1;
                // Mix preferential attachment (pool) with uniform smoothing.
                let total_weight = pool.len() as f64 + cfg.pref_attach * eligible.len() as f64;
                let uniform_part = cfg.pref_attach * eligible.len() as f64 / total_weight.max(1.0);
                let cand = if pool.is_empty() || rng.gen_f64() < uniform_part {
                    eligible[rng.gen_range(0..eligible.len())]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if !chosen.contains(&cand) {
                    chosen.push(cand);
                }
            }
            // Fall back to deterministic fill if rejection sampling starved.
            if chosen.len() < k {
                for &e in eligible.iter() {
                    if chosen.len() >= k {
                        break;
                    }
                    if !chosen.contains(&e) {
                        chosen.push(e);
                    }
                }
            }
            chosen
        };

    // Transit ASes attach in rank order (providers always earlier ⇒ acyclic).
    for rank in t1..transit_end {
        let k = 1 + weighted_index(&mut rng, &cfg.transit_provider_weights);
        let provs = pick_providers(&mut rng, &pool, &eligible, k);
        for p in provs {
            b.add_link(asn(rank), p, LinkKind::CustomerProvider)?;
            customer_degree[p as usize] += 1;
            pool.push(p);
        }
        eligible.push(asn(rank));
    }

    // Stubs attach to any tier-1 or transit AS.
    for rank in transit_end..n {
        let k = 1 + weighted_index(&mut rng, &cfg.stub_provider_weights);
        let provs = pick_providers(&mut rng, &pool, &eligible, k);
        for p in provs {
            b.add_link(asn(rank), p, LinkKind::CustomerProvider)?;
            customer_degree[p as usize] += 1;
            pool.push(p);
        }
    }

    // Peer links among transit ASes of comparable rank.
    let transit_ranks: Vec<usize> = (t1..transit_end).collect();
    for &r in &transit_ranks {
        let mut attempts = cfg.peer_links_per_transit.floor() as usize;
        if rng.gen_f64() < cfg.peer_links_per_transit.fract() {
            attempts += 1;
        }
        for _ in 0..attempts {
            let lo = r.saturating_sub(cfg.peer_rank_window).max(t1);
            let hi = (r + cfg.peer_rank_window + 1).min(transit_end);
            if hi - lo <= 1 {
                continue;
            }
            // A few tries to find a fresh partner.
            for _ in 0..8 {
                let partner = rng.gen_range(lo..hi);
                if partner == r {
                    continue;
                }
                if b.add_link(asn(r), asn(partner), LinkKind::PeerPeer).is_ok() {
                    break;
                }
            }
        }
    }

    let _ = customer_degree;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AsId;
    use crate::routing::StaticRoutes;

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&GenConfig::small(42)).unwrap();
        let b = generate(&GenConfig::small(42)).unwrap();
        assert_eq!(a.n(), b.n());
        assert_eq!(a.links(), b.links());
        let c = generate(&GenConfig::small(43)).unwrap();
        assert!(a.links() != c.links(), "different seeds should differ");
    }

    #[test]
    fn structure_matches_config() {
        let cfg = GenConfig::small(7);
        let g = generate(&cfg).unwrap();
        assert_eq!(g.n(), cfg.n_ases);
        let s = g.stats();
        assert_eq!(s.n_tier1, cfg.n_tier1);
        // Tier-1 clique size.
        assert!(s.n_pp_links >= cfg.n_tier1 * (cfg.n_tier1 - 1) / 2);
        // Multi-homing should be in the ballpark of the configured weights
        // (1 - 0.35 = 65% multi-homed, allow generous slack for small n).
        assert!(
            s.multi_homed_frac > 0.45 && s.multi_homed_frac < 0.85,
            "multi-homed fraction {} out of range",
            s.multi_homed_frac
        );
    }

    #[test]
    fn fully_reachable_from_any_destination() {
        let g = generate(&GenConfig::small(11)).unwrap();
        for dest in [0u32, 3, 57, 123, 199] {
            let r = StaticRoutes::compute(&g, AsId(dest));
            assert_eq!(r.n_reachable(), g.n(), "dest {dest} unreachable by some AS");
        }
    }

    #[test]
    fn tier1s_are_exactly_the_first_ranks() {
        let cfg = GenConfig::small(3);
        let g = generate(&cfg).unwrap();
        for v in g.ases() {
            assert_eq!(g.is_tier1(v), v.index() < cfg.n_tier1);
        }
    }

    #[test]
    fn heavier_tail_at_low_ranks() {
        // Preferential attachment should give early transit ASes more
        // customers on average than late stubs (which have none).
        let cfg = GenConfig {
            n_ases: 1000,
            ..GenConfig::small(5)
        };
        let g = generate(&cfg).unwrap();
        let t1_degree: usize = (0..cfg.n_tier1)
            .map(|i| g.customers(AsId(i as u32)).len())
            .sum();
        assert!(
            t1_degree as f64 / cfg.n_tier1 as f64 > 10.0,
            "tier-1s should accumulate many customers"
        );
    }

    #[test]
    fn rejects_bad_config() {
        let cfg = GenConfig {
            n_tier1: 0,
            ..GenConfig::small(1)
        };
        assert!(generate(&cfg).is_err());
        let cfg = GenConfig {
            transit_frac: 1.5,
            ..GenConfig::small(1)
        };
        assert!(generate(&cfg).is_err());
    }
}
