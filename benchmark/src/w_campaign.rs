//! `campaign_cold` and `campaign_warm`: the `campaign_2000` grid of the
//! campaign binary widened to 8 destinations — the 5 standard timeline
//! families × 8 destinations × 1 seed = 40 cells × 3 protocols.
//!
//! Cold runs it with no cache at `nproc` workers: every cell converges,
//! replays and observes, on the sharded runner under real parallelism.
//! Warm populates every baseline during set-up and times
//! `run_campaign_with_cache` at one worker: every cell is a fork, so
//! nothing converges in the timed passes.
//!
//! Both are batch jobs: a closed loop of one caller waiting for each
//! campaign to finish. The grid is run as one campaign per destination
//! (all 5 timelines × that destination = 5 cells × 3 protocols), so that a
//! timed unit is about a tenth of a second — see the README's "Why
//! minima". A cell's seed depends on its timeline index, its destination
//! and the seed axis only, so every cell is the cell the whole-grid
//! campaign would run, and the reference pass outside the timed part *is*
//! the whole grid in one campaign.

use crate::cell::{digest_metrics, reachable_after, traced_cell};
use crate::common::{
    repeat_setup, repeat_setup_again, small_graph, timed, timed_passes, RunCfg, Traced, Untraced,
    PROTOCOLS,
};
use crate::stats::Digest;
use crate::trace::Tracer;
use stamp_eventsim::{derive_seed, rng_stream};
use stamp_topology::{AsGraph, AsId};
use stamp_workload::{
    choose_k, destination_candidates, populate_baselines, run_campaign, run_campaign_with_cache,
    run_protocol_cell, run_protocol_cell_warm, standard_families, BaselineCache, CampaignConfig,
    CampaignReport, Protocol, RunParams, Timeline,
};
use std::time::Instant;

pub struct Grid {
    pub g: AsGraph,
    pub timelines: Vec<Timeline>,
    pub dests: Vec<AsId>,
    pub cfg: CampaignConfig,
}

/// The grid both workloads run; a function of the seed alone.
pub fn grid(cfg: &RunCfg) -> Grid {
    let world = cfg.world_seed(20);
    let seed = cfg.sub_seed(20);
    let g = small_graph(cfg.size(2000, 200), world);
    let mut rng = rng_stream(world, 1);
    let dests = choose_k(&mut rng, &destination_candidates(&g), cfg.size(8, 2));
    assert!(dests.len() >= 2, "the grid needs multi-homed destinations");
    let timelines = standard_families(&g, &mut rng, &dests, cfg.smoke);
    Grid {
        g,
        timelines,
        dests,
        cfg: CampaignConfig {
            params: RunParams::paper(),
            protocols: PROTOCOLS.to_vec(),
            seeds: vec![seed],
            threads: cfg.nproc,
        },
    }
}

fn digest_report(rep: &CampaignReport) -> Digest {
    let mut d = Digest::default();
    d.u64(rep.hash);
    for c in &rep.cells {
        for (_, m) in &c.metrics {
            digest_metrics(&mut d, m);
        }
    }
    d
}

/// One pass over the grid: a campaign per destination, each a timed unit.
fn pass(grid: &Grid, cache: Option<&BaselineCache>, units: &mut Vec<f64>) -> Vec<CampaignReport> {
    grid.dests
        .iter()
        .map(|&dest| {
            timed(units, || {
                run_campaign_with_cache(&grid.g, &grid.timelines, &[dest], &grid.cfg, cache)
                    .expect("the families were built against this graph")
            })
        })
        .collect()
}

/// Account one report: a protocol-cell whose outcome is not `Converged`
/// is a failed operation.
fn account(rep: &CampaignReport, out: &mut crate::common::Checks) {
    for c in &rep.cells {
        for (p, m) in &c.metrics {
            out.check(m.outcome.is_converged(), || {
                format!(
                    "cell timeline={} dest={} {}: {:?}",
                    rep.timeline_names[c.cell.timeline], c.cell.dest.0, p, m.outcome
                )
            });
        }
    }
}

/// Do the per-destination campaigns of one pass hold exactly the cells of
/// the whole-grid campaign `whole`?
fn same_cells(pass: &[CampaignReport], whole: &CampaignReport) -> bool {
    let cells = pass.iter().map(|r| r.cells.len()).sum::<usize>();
    cells == whole.cells.len()
        && pass.iter().flat_map(|r| &r.cells).all(|c| {
            whole
                .cells
                .iter()
                .any(|w| w.cell == c.cell && w.metrics == c.metrics)
        })
}

fn finish(
    out: &mut Untraced,
    grid: &Grid,
    passes: Vec<Vec<CampaignReport>>,
    reference: &CampaignReport,
    reference_name: &str,
) {
    let first = &passes[0];
    for rep in passes.iter().flatten() {
        account(rep, &mut out.checks);
    }
    let hashes = |p: &[CampaignReport]| p.iter().map(|r| r.hash).collect::<Vec<_>>();
    let drifted = passes.iter().filter(|p| hashes(p) != hashes(first)).count();
    out.checks.check(drifted == 0, || {
        format!("{drifted} passes returned different campaign hashes than the first")
    });
    out.checks.check(same_cells(first, reference), || {
        format!(
            "the per-destination campaigns differ from the {reference_name} whole-grid campaign {:016x}",
            reference.hash
        )
    });
    out.ops_per_pass = reference.cells.len() as f64;
    out.latencies_ms = vec![out.batch_latency_ms()];
    out.digest = digest_report(reference);
    out.counters
        .insert("cells_per_pass".to_string(), reference.cells.len() as u64);
    out.counters.insert(
        "protocol_cells_per_pass".to_string(),
        (reference.cells.len() * grid.cfg.protocols.len()) as u64,
    );
    out.counters
        .insert("campaign_hash".to_string(), reference.hash);
}

pub fn untraced_cold(cfg: &RunCfg) -> Untraced {
    let (grid, setup_s) = repeat_setup(|| grid(cfg), drop);
    let mut out = Untraced {
        setup_s,
        ..Untraced::default()
    };
    let mut passes = Vec::new();
    out.unit_ms = timed_passes(cfg.seconds, 3, |_| {
        let mut units = Vec::new();
        passes.push(pass(&grid, None, &mut units));
        units
    });
    repeat_setup_again(&mut out.setup_s, || self::grid(cfg), drop);
    // Outside the timed passes: the whole grid in one campaign at one
    // worker must hold the same cells.
    let mut serial = grid.cfg.clone();
    serial.threads = 1;
    let reference = run_campaign(&grid.g, &grid.timelines, &grid.dests, &serial)
        .expect("the families were built against this graph");
    finish(&mut out, &grid, passes, &reference, "1-worker cold");
    out
}

/// The warm workload's set-up: the grid at one worker and every baseline
/// of it converged into a cache.
fn warm_setup(cfg: &RunCfg) -> (Grid, BaselineCache) {
    let mut grid = grid(cfg);
    grid.cfg.threads = 1;
    let cache = BaselineCache::new();
    populate_baselines(
        &grid.g,
        grid.timelines.len(),
        &grid.dests,
        &grid.cfg,
        &cache,
    );
    (grid, cache)
}

pub fn untraced_warm(cfg: &RunCfg) -> Untraced {
    let ((grid, cache), setup_s) = repeat_setup(|| warm_setup(cfg), drop);
    let mut out = Untraced {
        setup_s,
        ..Untraced::default()
    };
    let populated = cache.stats();
    let mut passes = Vec::new();
    out.unit_ms = timed_passes(cfg.seconds, 3, |_| {
        let mut units = Vec::new();
        passes.push(pass(&grid, Some(&cache), &mut units));
        units
    });
    // Every timed cell was a fork: no lookup missed, nothing was
    // deposited after set-up.
    let after = cache.stats();
    out.checks.check(
        after.misses == populated.misses && after.len == populated.len,
        || {
            format!(
                "timed warm passes converged: misses {} -> {}, baselines {} -> {}",
                populated.misses, after.misses, populated.len, after.len
            )
        },
    );
    // One set of baselines at a time, so `peak_rss_mb` stays one cache's.
    drop(cache);
    repeat_setup_again(&mut out.setup_s, || warm_setup(cfg), drop);
    // Outside the timed passes: the whole grid in one cold campaign must
    // hold the same cells.
    let mut cold = grid.cfg.clone();
    cold.threads = cfg.nproc;
    let reference = run_campaign(&grid.g, &grid.timelines, &grid.dests, &cold)
        .expect("the families were built against this graph");
    out.counters
        .insert("baselines".to_string(), populated.len as u64);
    finish(&mut out, &grid, passes, &reference, "cold");
    out
}

/// The traced pass of either workload: every protocol-cell of the grid
/// through [`traced_cell`], checked against the product's own cell
/// function. The cell seed is the benchmark's (the campaign's own
/// derivation is private), which changes no cost: every cell still has
/// its own baseline.
pub fn traced(cfg: &RunCfg, warm: bool, tr: &mut Tracer, out: &mut Traced) {
    let grid = grid(cfg);
    let params = &grid.cfg.params;
    let base_seed = grid.cfg.seeds[0];
    struct CellIn<'a> {
        timeline: &'a Timeline,
        dest: AsId,
        reachable: Vec<bool>,
        seed: u64,
    }
    let mut cells = Vec::new();
    for (ti, timeline) in grid.timelines.iter().enumerate() {
        for &dest in &grid.dests {
            cells.push(CellIn {
                timeline,
                dest,
                reachable: reachable_after(&grid.g, timeline, dest),
                seed: derive_seed(base_seed, ((ti as u64) << 32) | dest.0 as u64),
            });
        }
    }

    // The product path, untraced, for the comparison and the overhead.
    let product_cache = BaselineCache::new();
    let run_product = |c: &CellIn, p: Protocol| {
        if warm {
            run_protocol_cell_warm(
                &grid.g,
                params,
                c.timeline,
                c.dest,
                &c.reachable,
                p,
                c.seed,
                &product_cache,
            )
        } else {
            run_protocol_cell(&grid.g, params, c.timeline, c.dest, &c.reachable, p, c.seed)
        }
    };
    let traced_cache = BaselineCache::new();
    if warm {
        // Set-up, as `populate_baselines` does it: the first taker of each
        // key converges cold and deposits.
        for c in &cells {
            for p in PROTOCOLS {
                run_product(c, p);
                let mut scratch = Tracer::new();
                traced_cell(
                    &mut scratch,
                    &grid.g,
                    params,
                    c.timeline,
                    c.dest,
                    &c.reachable,
                    p,
                    c.seed,
                    &traced_cache,
                );
            }
        }
    }
    let t0 = Instant::now();
    let mut expected = Vec::new();
    for c in &cells {
        for p in PROTOCOLS {
            expected.push(run_product(c, p));
        }
    }
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut work = crate::cell::CellWork::default();
    let mut i = 0;
    for c in &cells {
        for p in PROTOCOLS {
            tr.set_id(i as u64 + 1);
            let (m, w) = traced_cell(
                tr,
                &grid.g,
                params,
                c.timeline,
                c.dest,
                &c.reachable,
                p,
                c.seed,
                &traced_cache,
            );
            out.checks.check(m == expected[i], || {
                format!(
                    "traced cell {} dest={} {p} differs from the product cell: {m:?} vs {:?}",
                    c.timeline.name(),
                    c.dest.0,
                    expected[i]
                )
            });
            out.checks.check(w.hit == warm, || {
                format!(
                    "cell {i}: cache hit={} on the {} grid",
                    w.hit,
                    if warm { "warm" } else { "cold" }
                )
            });
            digest_metrics(&mut out.digest, &m);
            work.add(&w);
            i += 1;
        }
    }
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;

    out.set("eventsim.events", work.events as f64);
    out.set("bgp.delivered", work.delivered as f64);
    out.set("bgp.coalesced", work.coalesced as f64);
    out.set("bgp.dropped", work.dropped as f64);
    out.set(
        "bgp.interned_paths",
        expected.iter().map(|m| m.interned_paths as f64).sum(),
    );
    out.counters
        .insert("trace.replay_events".to_string(), work.replay_events);
    out.counters.insert("trace.events".to_string(), work.events);
    let stats = traced_cache.stats();
    out.set(
        "workload.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    out.set("workload.cache_evictions", stats.evictions as f64);
    out.set("trace.pass_ms", traced_ms);
    out.set("trace.untraced_pass_ms", untraced_ms);

    // Parallel efficiency of the sharded runner: cells/s at nproc over
    // nproc × cells/s at one worker. Not measured on one core.
    if !warm {
        if cfg.nproc > 1 {
            let time = |threads: usize| {
                let mut c = grid.cfg.clone();
                c.threads = threads;
                let t0 = Instant::now();
                run_campaign(&grid.g, &grid.timelines, &grid.dests, &c)
                    .expect("the families were built against this graph");
                t0.elapsed().as_secs_f64()
            };
            let (t1, tn) = (time(1), time(cfg.nproc));
            out.set("workload.parallel_efficiency", t1 / (cfg.nproc as f64 * tn));
        } else {
            out.not_measured.push("workload.parallel_efficiency");
        }
    }
}
