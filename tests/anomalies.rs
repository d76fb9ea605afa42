//! Regression pins for the two standout rows of `BENCH_campaign.json`.
//!
//! Two campaign aggregates look anomalous at first glance and are easy to
//! "fix" by accident:
//!
//! * **STAMP's 373 mean transient loops** on the 2000-AS flap-train (plain
//!   BGP: 0). STAMP's two processes re-converge independently, and during
//!   a sub-MRAI flap train the lagging colour keeps forwarding over
//!   withdrawn state — a real property of the protocol at scale, not a
//!   measurement bug.
//! * **Plain BGP's ~92 mean looping ASes** on the 500-AS maintenance
//!   drain. Rolling provider drains force path exploration through
//!   customer valleys mid-window; R-BGP and STAMP shortcut it, BGP loops.
//!
//! These tests rebuild exactly the grid cells behind those two JSON rows
//! (same topology, same timeline family, same per-cell seeds) and pin the
//! aggregates bit-exactly. A scheduler, RIB or measurement change that
//! silently shifts either number fails here, loudly, with the old and new
//! values side by side. `BENCH_campaign.json` is itself a CI-checked
//! golden (`campaign --check` compares every families row byte for byte),
//! so an intentional change re-baselines this file and regenerates that
//! one in the same commit — CI refuses anything else.

use stamp_repro::eventsim::rng::{derive_seed, tags};
use stamp_repro::eventsim::rng_stream;
use stamp_repro::topology::{generate, AsId, GenConfig};
use stamp_repro::workload::{
    choose_k, destination_candidates, run_campaign, run_cells, standard_families, CampaignConfig,
    Cell, InstanceMetrics, Protocol, RunParams, Timeline,
};

/// The campaign binary's default master seed.
const SEED: u64 = 0xCA4A16;

/// Rebuild the default campaign grid at `n_ases`: topology, destinations
/// and the five standard timeline families, exactly as
/// `bench/src/bin/campaign.rs` constructs them.
fn default_grid(
    n_ases: usize,
    n_dests: usize,
) -> (stamp_repro::topology::AsGraph, Vec<Timeline>, Vec<AsId>) {
    let gen = GenConfig {
        n_ases,
        ..GenConfig::small(SEED)
    };
    let g = generate(&gen).expect("valid generator config");
    let mut rng = rng_stream(SEED, tags::TIMELINE);
    let dests = choose_k(&mut rng, &destination_candidates(&g), n_dests);
    let timelines = standard_families(&g, &mut rng, &dests, false);
    (g, timelines, dests)
}

/// STAMP on the 2000-AS flap train: 373 mean looping ASes across the two
/// grid cells (the `campaign_2000` scale row, seed axis `[SEED]`).
///
/// The flap train is family index 0, so running the grid with only that
/// timeline preserves every per-cell seed (`cell_seed` hashes the
/// timeline *index*).
#[test]
fn stamp_flap_train_loop_anomaly_at_2000_ases() {
    let (g, timelines, dests) = default_grid(2000, 2);
    assert_eq!(timelines[0].name(), "flap-train");
    let cfg = CampaignConfig {
        params: RunParams::paper(),
        protocols: vec![Protocol::Stamp],
        seeds: vec![SEED],
        threads: 1,
    };
    let rep = run_campaign(&g, &timelines[..1], &dests, &cfg).expect("timelines resolve");
    let a = rep.aggregate(0, Protocol::Stamp);
    assert_eq!(a.cells, 2);
    assert_eq!(
        a.loops_mean, 373.0,
        "STAMP flap-train loop anomaly moved (was 373.0 mean looping ASes; \
         re-baseline BENCH_campaign.json if intentional)"
    );
    assert_eq!(
        a.affected_mean, 373.0,
        "every affected AS was affected by a loop"
    );
}

/// Plain BGP on the 500-AS maintenance drain: 91.75 mean looping ASes
/// across the eight grid cells (4 destinations × 2 seed-axis values).
///
/// The drain family is index 3, so this test recomputes each cell's seed
/// from its grid coordinates instead of slicing the timeline list (which
/// would renumber the family and change every seed).
#[test]
fn bgp_maintenance_drain_loop_anomaly_at_500_ases() {
    let (g, timelines, dests) = default_grid(500, 4);
    let tl = &timelines[3];
    assert_eq!(tl.name(), "maintenance-drain");
    // `cell_seed` in workload::campaign: coordinates only, never worker
    // identity.
    let cell = |dest: AsId, axis: u64| Cell {
        timeline: tl,
        dest,
        seed: derive_seed(
            derive_seed(axis, tags::CAMPAIGN),
            (3u64 << 32) | u64::from(dest.0),
        ),
    };
    let cells: Vec<Cell<'_>> = dests
        .iter()
        .flat_map(|&dest| [cell(dest, SEED), cell(dest, SEED ^ (1 << 17))])
        .collect();
    let rows = run_cells(&g, &RunParams::paper(), &[Protocol::Bgp], 0, &cells, None)
        .expect("timeline resolves");
    assert_eq!(rows.len(), 8);
    let loops_mean =
        InstanceMetrics::mean_of(rows.iter().map(|r| &r[0].1), |m| m.affected_loops as f64);
    assert_eq!(
        loops_mean, 91.75,
        "BGP maintenance-drain loop anomaly moved (was 91.75 mean looping ASes; \
         re-baseline BENCH_campaign.json if intentional)"
    );
}
