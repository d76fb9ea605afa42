//! Topology calibration probe (not a paper figure).
//!
//! Sweeps generator parameters and prints, for each candidate, the two
//! quantities the reproduction must balance: the static mean Φ (paper:
//! ≈0.92) and the dynamic BGP transient-problem count under single link
//! failure (paper: ≈24% of ASes). Used to pick the `GenConfig::sim_scale`
//! defaults; kept in-tree so the calibration is reproducible.
//!
//! Instances run through `run_failure_experiment`, whose cells are
//! `sim`-facade sessions — same builder, registry and probe path as every
//! other consumer, so calibration numbers are comparable with campaign
//! output by construction.

#![forbid(unsafe_code)]

use stamp_bench::read_args;
use stamp_core::phi::{phi_all_destinations, PhiConfig};
use stamp_experiments::{run_failure_experiment, FailureConfig, FailureScenario, Protocol};
use stamp_topology::gen::{generate, GenConfig};

fn main() {
    let (ases, instances): (usize, usize) = read_args(
        "calibrate [--ases N] [--instances N]\n\
         Sweeps five generator presets at N ASes [1000] and prints each one's\n\
         mean Phi and its single-link-failure transient counts per protocol\n\
         over N instances [8].",
        |a| {
            Ok((
                a.value("--ases")?.unwrap_or(1000),
                a.value("--instances")?.unwrap_or(8),
            ))
        },
    );

    let candidates: Vec<(&str, GenConfig)> = vec![
        (
            "default",
            GenConfig {
                n_ases: ases,
                ..GenConfig::sim_scale(7)
            },
        ),
        (
            "sparse-peering",
            GenConfig {
                n_ases: ases,
                peer_links_per_transit: 0.4,
                ..GenConfig::sim_scale(7)
            },
        ),
        (
            "thin-transit",
            GenConfig {
                n_ases: ases,
                peer_links_per_transit: 0.4,
                transit_provider_weights: vec![0.55, 0.30, 0.10, 0.05],
                ..GenConfig::sim_scale(7)
            },
        ),
        (
            "thin-all",
            GenConfig {
                n_ases: ases,
                peer_links_per_transit: 0.3,
                transit_provider_weights: vec![0.6, 0.3, 0.1],
                stub_provider_weights: vec![0.45, 0.35, 0.15, 0.05],
                ..GenConfig::sim_scale(7)
            },
        ),
        (
            "few-tier1",
            GenConfig {
                n_ases: ases,
                n_tier1: 5,
                peer_links_per_transit: 0.4,
                transit_provider_weights: vec![0.55, 0.30, 0.10, 0.05],
                ..GenConfig::sim_scale(7)
            },
        ),
    ];

    println!(
        "{:<16} {:>7} {:>7} {:>13} {:>13} {:>13} {:>13}",
        "preset", "meanPhi", "BGP", "BGP(l/b/c)", "noRCI(l/b/c)", "RBGP(l/b/c)", "STAMP(l/b/c)"
    );
    for (name, gen) in candidates {
        let g = generate(&gen).expect("valid config");
        let phi = phi_all_destinations(
            &g,
            &PhiConfig {
                samples: 150,
                ..Default::default()
            },
        );
        let cfg = FailureConfig {
            gen: gen.clone(),
            instances,
            seed: 0xCA11,
            ..FailureConfig::default()
        };
        let rep = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
        let lb = |p: Protocol| {
            format!(
                "{:.0}/{:.0}/{:.0}",
                rep.of(p).loops_mean(),
                rep.of(p).blackholes_mean(),
                rep.of(p).control_affected_mean(),
            )
        };
        println!(
            "{:<16} {:>7.3} {:>7.1} {:>13} {:>13} {:>13} {:>13}",
            name,
            phi.mean,
            rep.of(Protocol::Bgp).affected_mean(),
            lb(Protocol::Bgp),
            lb(Protocol::RbgpNoRci),
            lb(Protocol::Rbgp),
            lb(Protocol::Stamp),
        );
    }
}
