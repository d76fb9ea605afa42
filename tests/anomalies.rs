//! Regression pins for the four standout STAMP/BGP rows the campaign
//! recorded, each looking anomalous at first glance, unexplained so far,
//! and easy to "fix" by accident:
//!
//! * **STAMP's 611 mean transient loops** on the 2000-AS flap train (plain
//!   BGP: 0). STAMP's two processes re-converge independently, and during
//!   a sub-MRAI flap train the lagging colour keeps forwarding over
//!   withdrawn state.
//! * **Plain BGP's 96.875 mean looping ASes** on the 500-AS maintenance
//!   drain. Rolling provider drains force path exploration through
//!   customer valleys mid-window; R-BGP and STAMP shortcut it, BGP loops.
//! * **STAMP's 51.5 mean blackholed ASes** on the 500-AS staggered two-link
//!   failure, where BGP and R-BGP blackhole none.
//! * **STAMP's 39 mean looping ASes** under origin hijack on the
//!   adversarial grid, while it blackholes none.
//!
//! Each test rebuilds its subject's grid (`grid_axes` and the standard
//! families, or `adversarial_grid`) and runs exactly the cells behind the
//! number through `run_cells`, with every cell's engine seed written out
//! as a literal. The literals are the per-cell seeds the campaign runner
//! derived when these numbers were first recorded — it folded the timeline
//! index into them then, and derives a cell's seed from its destination
//! and seed-axis value alone now — so the subjects outlive that re-pin and
//! any later one until they are explained. A scheduler, RIB or measurement
//! change that shifts one of them fails here with the old value in the
//! message; an intended one re-pins it here. The first three were re-pinned
//! when a measured phase began to observe every batch that changed a FIB:
//! a 100 ms sampling throttle read 373, 91.75 and 15 (EXPERIMENTS.md,
//! "Golden re-pins").

use stamp_repro::topology::{AsGraph, AsId};
use stamp_repro::workload::{
    adversarial_grid, grid_axes, run_cells, standard_families, Cell, InstanceMetrics, Protocol,
    RunParams, Timeline,
};

/// The campaign binary's default master seed.
const SEED: u64 = 0xCA4A16;

/// The default campaign grid at `n_ases`: the `campaign` binary's axes and
/// its five standard timeline families.
fn standard_grid(n_ases: usize, n_dests: usize) -> (AsGraph, Vec<Timeline>, Vec<AsId>) {
    let (g, dests, mut rng) = grid_axes(SEED, n_ases, n_dests).expect("the default grid exists");
    let timelines = standard_families(&g, &mut rng, &dests, false);
    (g, timelines, dests)
}

/// Run `protocols` on `timeline` at each pinned `(destination, engine
/// seed)` cell, after checking that the grid still draws exactly those
/// destinations; returns one metrics row per protocol, in `protocols`
/// order, each over the cells in pinned order.
fn run_pinned(
    g: &AsGraph,
    params: &RunParams,
    timeline: &Timeline,
    dests: &[AsId],
    protocols: &[Protocol],
    pinned: &[(u32, u64)],
) -> Vec<Vec<InstanceMetrics>> {
    let mut pinned_dests: Vec<AsId> = pinned.iter().map(|&(d, _)| AsId(d)).collect();
    pinned_dests.dedup();
    assert_eq!(pinned_dests, dests, "the grid draws other destinations");
    let cells: Vec<Cell<'_>> = pinned
        .iter()
        .map(|&(dest, seed)| Cell {
            timeline,
            dest: AsId(dest),
            seed,
        })
        .collect();
    let rows = run_cells(g, params, protocols, 0, &cells, None).expect("timeline resolves");
    (0..protocols.len())
        .map(|i| rows.iter().map(|row| row[i].1).collect())
        .collect()
}

fn mean(ms: &[InstanceMetrics], field: fn(&InstanceMetrics) -> f64) -> f64 {
    InstanceMetrics::mean_of(ms.iter(), field)
}

fn loops(m: &InstanceMetrics) -> f64 {
    m.affected_loops as f64
}

fn blackholes(m: &InstanceMetrics) -> f64 {
    m.affected_blackholes as f64
}

fn affected(m: &InstanceMetrics) -> f64 {
    m.affected as f64
}

/// STAMP on the 2000-AS flap train: 611 mean looping ASes across the two
/// cells of the `campaign_2000` grid (seed axis `[SEED]`), and 733.5
/// affected, 536.5 of them by a blackhole (the 100 ms throttle saw only
/// the loops: 373 affected, all looping).
#[test]
fn stamp_flap_train_loop_anomaly_at_2000_ases() {
    let (g, timelines, dests) = standard_grid(2000, 2);
    let tl = &timelines[0];
    assert_eq!(tl.name(), "flap-train");
    let pinned = [(759, 0xf14d70f36b7aa369), (1288, 0xd156d1974c65ab96)];
    let rows = run_pinned(
        &g,
        &RunParams::paper(),
        tl,
        &dests,
        &[Protocol::Stamp],
        &pinned,
    );
    assert_eq!(
        mean(&rows[0], loops),
        611.0,
        "STAMP flap-train loop anomaly moved (was 611.0 mean looping ASes)"
    );
    assert_eq!(
        (mean(&rows[0], affected), mean(&rows[0], blackholes)),
        (733.5, 536.5),
        "STAMP flap-train affected and blackholed ASes moved (were 733.5 and 536.5)"
    );
}

/// The eight cells of the 500-AS grid on one timeline (4 destinations × the
/// seed axis `[SEED, SEED ^ 1 << 17]`), by timeline index: 1 is the
/// staggered two-link failure, 3 the maintenance drain.
fn cells_500(timeline: usize) -> [(u32, u64); 8] {
    match timeline {
        1 => [
            (37, 0x6d8461f085d4361e),
            (37, 0x1a75998c3861f5ae),
            (204, 0x3ab80b34c1afadf5),
            (204, 0x5905a745b18df603),
            (301, 0x87916554670f14ec),
            (301, 0x19b45041e7b44e33),
            (453, 0xac75806ec386585a),
            (453, 0xc885493046d41918),
        ],
        3 => [
            (37, 0xbabe0ed10538081b),
            (37, 0xef06c855127c3203),
            (204, 0x85655a7302db80b5),
            (204, 0x08d1f95b05619e6b),
            (301, 0x74a3411c2ce4a294),
            (301, 0xd133f97896d0445a),
            (453, 0xc9d2076e35093aa1),
            (453, 0xb2c406f0142a37ca),
        ],
        other => panic!("no cells pinned for timeline {other}"),
    }
}

/// Plain BGP on the 500-AS maintenance drain: 96.875 mean looping ASes
/// across the eight cells.
#[test]
fn bgp_maintenance_drain_loop_anomaly_at_500_ases() {
    let (g, timelines, dests) = standard_grid(500, 4);
    let tl = &timelines[3];
    assert_eq!(tl.name(), "maintenance-drain");
    let rows = run_pinned(
        &g,
        &RunParams::paper(),
        tl,
        &dests,
        &[Protocol::Bgp],
        &cells_500(3),
    );
    assert_eq!(
        mean(&rows[0], loops),
        96.875,
        "BGP maintenance-drain loop anomaly moved (was 96.875 mean looping ASes)"
    );
}

/// STAMP on the 500-AS staggered two-link failure: 51.5 mean blackholed
/// ASes across the eight cells, where BGP and R-BGP blackhole none.
#[test]
fn stamp_staggered_two_link_blackhole_anomaly_at_500_ases() {
    let (g, timelines, dests) = standard_grid(500, 4);
    let tl = &timelines[1];
    assert_eq!(tl.name(), "staggered-two-link");
    let protocols = [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];
    let rows = run_pinned(
        &g,
        &RunParams::paper(),
        tl,
        &dests,
        &protocols,
        &cells_500(1),
    );
    for (p, ms) in protocols.iter().zip(&rows) {
        let want = if *p == Protocol::Stamp { 51.5 } else { 0.0 };
        assert_eq!(
            (mean(ms, blackholes), mean(ms, affected)),
            (want, want),
            "{p} staggered-two-link blackholes moved (was {want} mean blackholed ASes)"
        );
    }
}

/// STAMP under origin hijack on the adversarial grid: 39 mean looping ASes
/// across its two cells, and no blackhole.
#[test]
fn stamp_origin_hijack_loop_anomaly_on_the_adversarial_grid() {
    let (g, timelines, dests, cfg) = adversarial_grid(SEED);
    let tl = &timelines[0];
    assert_eq!(tl.name(), "origin-hijack");
    let pinned = [(171, 0xdb98bb5329048e53), (196, 0x9b9a440f5ce98d46)];
    let rows = run_pinned(&g, &cfg.params, tl, &dests, &[Protocol::Stamp], &pinned);
    assert_eq!(
        (mean(&rows[0], loops), mean(&rows[0], blackholes)),
        (39.0, 0.0),
        "STAMP origin-hijack loop anomaly moved (was 39.0 mean looping ASes, 0 blackholed)"
    );
}
