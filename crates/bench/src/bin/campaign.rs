//! `campaign`: BGP vs R-BGP vs STAMP across the scenario-timeline
//! families, on a sharded `(timeline × destination × seed)` grid.
//!
//! The five families exercise dynamics the paper's one-shot figures never
//! see: a sub-MRAI link flap train, staggered two-link failures, a
//! correlated tier-2 regional outage, rolling maintenance windows over
//! providers, and random background churn. Every grid runs three ways —
//! one worker, four workers, warm-start — asserting the byte-identical
//! aggregate hash (the determinism contract of `stamp_workload::campaign`).
//!
//! The full default run (two grids, the policy sweep, the adversarial
//! sweep) renders the results document `BENCH_campaign.json`: hashes,
//! families tables and sweep rows — counts and simulated times only, so
//! the tracked copy is a golden. A plain run rewrites it; `--check`
//! regenerates it in memory and fails on the first line that differs from
//! the tracked copy (the CI gate); a run with any grid-override flag
//! prints its tables and leaves the file alone. How long any of this
//! takes is the reference benchmark's business (`benchmark/`), not this
//! binary's. The smoke and adversarial hashes are pinned by
//! `tests/determinism.rs`, not here.

#![forbid(unsafe_code)]

use stamp_bench::{first_difference, read_args, render_results, three_passes, SweepRow};
use stamp_eventsim::Rng;
use stamp_topology::{AsGraph, AsId};
use stamp_workload::{
    adversarial_grid, grid_axes, run_campaign, standard_families, CampaignConfig, CampaignReport,
    InstanceMetrics, PolicyRegime, Protocol, RunParams, Timeline, GRID_SEED,
};

/// Default protocol set (the R-BGP variant runs with RCI); override with
/// `--protocols bgp,rbgp-norci,rbgp,stamp` (labels or aliases, see
/// `Protocol::from_str`).
const PROTOCOLS: [Protocol; 3] = [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];

/// The tracked results document, relative to the repo root the gate runs
/// from.
const TRACKED: &str = "BENCH_campaign.json";

/// Workers of the parallel pass unless `--threads` says otherwise.
const THREADS_N: usize = 4;

/// Run the grid cold at one worker, cold at `threads_n`, then warm twice
/// over one cache (every cell a copy of a pre-converged session; in the
/// second pass a recycled session rewound onto it) — asserting the
/// byte-identical aggregate across all four. The warm-equals-cold check is
/// the campaign-scale proof that a copy of a session carries everything a
/// replay depends on, and that a rewound one carries nothing else.
fn run_three_ways(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
    threads_n: usize,
) -> CampaignReport {
    let [serial, parallel, warm, recycled] = three_passes(g, timelines, dests, cfg, threads_n);
    assert_eq!(
        serial.hash, parallel.hash,
        "campaign aggregate diverged between 1 and {threads_n} workers"
    );
    assert_eq!(
        serial.hash, warm.hash,
        "warm-start aggregate diverged from cold start"
    );
    assert_eq!(
        serial.hash, recycled.hash,
        "warm-start aggregate on recycled sessions diverged from cold start"
    );
    // The hash does not fold the observer's work ledger; the cells do.
    assert!(
        serial.cells == parallel.cells
            && serial.cells == warm.cells
            && serial.cells == recycled.cells,
        "observer work counts differ between 1 worker, {threads_n} workers and warm start"
    );
    parallel
}

/// The observer's exact work per protocol, summed over the grid: how many
/// rows it asked the views for again, how many states it re-walked, how
/// many ASes changed verdict — against `ticks × ASes`, the rows a scan of
/// the world at every observation would have asked for.
fn print_observer_work(rep: &CampaignReport, protocols: &[Protocol]) {
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>8} {:>10} {:>14}",
        "observer work", "ticks", "rows", "rewalked", "folded", "control", "ticks×ASes"
    );
    for &p in protocols {
        let w = rep.observer_work(p);
        println!(
            "{:<18} {:>8} {:>10} {:>10} {:>8} {:>10} {:>14}",
            p.label(),
            w.observations,
            w.rows_recompiled,
            w.states_rewalked,
            w.ases_folded,
            w.control_evals,
            w.observations * rep.n_ases as u64
        );
    }
}

fn print_report(rep: &CampaignReport, protocols: &[Protocol]) {
    let cells = rep.cells.len();
    println!(
        "campaign: {} ASes, {} timelines × {} cells, hash 0x{:016x}",
        rep.n_ases,
        rep.timeline_names.len(),
        cells,
        rep.hash
    );
    println!(
        "{:<20} {:<18} {:>9} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "timeline",
        "protocol",
        "affected",
        "loops",
        "recovery_s",
        "converge_s",
        "updates",
        "diverged"
    );
    for (t, name) in rep.timeline_names.iter().enumerate() {
        for &p in protocols {
            let a = rep.aggregate(t, p);
            println!(
                "{:<20} {:<18} {:>9.2} {:>9.2} {:>12.2} {:>12.2} {:>12.1} {:>9}",
                name,
                p.label(),
                a.affected_mean,
                a.loops_mean,
                a.data_recovery_mean_s,
                a.convergence_mean_s,
                a.updates_failure_mean,
                a.diverged
            );
        }
    }
    print_observer_work(rep, protocols);
}

/// Re-run one grid under each regime (one parallel pass per regime — the
/// determinism assertions already ran on the primary grid) and report the
/// per-regime aggregate hashes. Distinct hashes are the evidence that the
/// policy axis actually reaches every router's decision process.
fn run_policy_sweep(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    base_cfg: &CampaignConfig,
    threads_n: usize,
    regimes: &[PolicyRegime],
) -> (usize, Vec<SweepRow>) {
    let mut rows = Vec::with_capacity(regimes.len());
    let mut cells = 0;
    for regime in regimes {
        let mut cfg = base_cfg.clone();
        cfg.params.policy = regime.clone();
        cfg.threads = threads_n;
        let rep = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
        cells = rep.cells.len();
        let affected = cfg
            .protocols
            .iter()
            .map(|&p| {
                let of_p = rep
                    .cells
                    .iter()
                    .filter_map(|c| c.metrics.iter().find(|(q, _)| *q == p).map(|(_, m)| m));
                (p, InstanceMetrics::mean_of(of_p, |m| m.affected as f64))
            })
            .collect();
        rows.push(SweepRow {
            name: regime.name.clone(),
            fingerprint: regime.fingerprint(),
            hash: rep.hash,
            affected,
        });
    }
    (cells, rows)
}

/// The adversarial sweep: hijack / route-leak / policy-misconfig families
/// on the smoke topology (the grid is fixed by `adversarial_grid`, whose
/// protocol axis matches [`PROTOCOLS`]), with the same three-way
/// determinism assertion as every other grid. Returns the run plus the
/// number of `(cell, protocol)` measures that did not converge — the
/// watchdog turning a wedged control plane into a typed, countable
/// outcome is the point of the sweep.
fn run_adversarial(seed: u64, threads_n: usize) -> (CampaignReport, usize) {
    let (g, timelines, dests, cfg) = adversarial_grid(seed);
    let rep = run_three_ways(&g, &timelines, &dests, &cfg, threads_n);
    let diverged = rep
        .cells
        .iter()
        .flat_map(|c| c.metrics.iter())
        .filter(|(_, m)| !m.outcome.is_converged())
        .count();
    (rep, diverged)
}

/// [`grid_axes`], or the reason there are none on stderr and exit 2.
fn axes_or_exit(seed: u64, n_ases: usize, n_dests: usize) -> (AsGraph, Vec<AsId>, Rng) {
    grid_axes(seed, n_ases, n_dests).unwrap_or_else(|e| {
        eprintln!("campaign: {e} — nothing to run");
        std::process::exit(2);
    })
}

/// The flags `campaign` reads.
struct Flags {
    ases: Option<usize>,
    dests: Option<usize>,
    seeds: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    protocols: Option<Vec<Protocol>>,
    regimes: Vec<PolicyRegime>,
    scn: Vec<String>,
    check: bool,
}

const USAGE: &str = "campaign [--ases N] [--dests N] [--seeds N] [--seed N] [--threads N] \
    [--protocols LIST] [--policy LIST] [--scn FILE]... [--check]\n\
    Runs the scenario-timeline campaign (flap trains, staggered failures,\n\
    regional outages, maintenance drains, background churn) for BGP, R-BGP\n\
    and STAMP over a (timeline × destination × seed) grid, three ways\n\
    (1 worker, --threads workers [4], warm-start), and asserts the\n\
    byte-identical aggregate hash. With no grid-override flag it also runs\n\
    the 2000-AS grid, the policy sweep and the adversarial sweep (prefix\n\
    hijack, prepend hijack, route leak, policy misconfig) and rewrites the\n\
    results document BENCH_campaign.json; with one (--ases, --dests,\n\
    --seeds, --seed, --protocols, --policy other than gao-rexford, --scn)\n\
    it prints its tables and leaves that file alone.\n\
    --protocols LIST: comma-separated protocols to compare (labels or\n\
    aliases: bgp, rbgp-norci, rbgp, stamp; default bgp,rbgp,stamp).\n\
    --policy LIST: comma-separated policy regimes (built-ins:\n\
    gao-rexford, shortest-path, prefer-peer, long-path-tax; default\n\
    gao-rexford). The first entry is the regime the grid runs under;\n\
    several entries are also swept over a reduced grid.\n\
    --scn FILE (repeatable): run timelines parsed from .scn files instead\n\
    of the built-in families (see scenarios/ for samples).\n\
    --check: regenerate the results document in memory and exit non-zero,\n\
    naming the first differing line, unless it equals the tracked\n\
    BENCH_campaign.json byte for byte (the CI golden gate).";

fn main() {
    let args = read_args(USAGE, |a| {
        let mut scn = Vec::new();
        while let Some(path) = a.value("--scn")? {
            scn.push(path);
        }
        let regimes = match a.list::<String>("--policy")? {
            None => vec![PolicyRegime::gao_rexford()],
            Some(names) => {
                let found: Option<Vec<_>> =
                    names.iter().map(|n| PolicyRegime::by_name(n)).collect();
                let known: Vec<String> = PolicyRegime::builtins()
                    .into_iter()
                    .map(|r| r.name)
                    .collect();
                found.ok_or_else(|| {
                    format!("unknown policy regime among {names:?} (built-ins: {known:?})")
                })?
            }
        };
        Ok(Flags {
            ases: a.value("--ases")?,
            dests: a.value("--dests")?,
            seeds: a.value("--seeds")?,
            seed: a.value("--seed")?,
            threads: a.value("--threads")?,
            protocols: a.list("--protocols")?,
            regimes,
            scn,
            check: a.flag("--check"),
        })
    });
    let seed = args.seed.unwrap_or(GRID_SEED);
    let regimes = &args.regimes;
    // `--policy gao-rexford` is the default spelled out: it must not
    // change grid selection (the CI golden gate runs `--check` that way).
    let policy_default = regimes.len() == 1 && regimes[0].is_default();
    let protocols = args.protocols.clone().unwrap_or(PROTOCOLS.to_vec());

    // The tracked document describes one grid: default shape, default seed.
    let default_grid = args.scn.is_empty()
        && args.ases.is_none()
        && args.dests.is_none()
        && args.seeds.is_none()
        && args.protocols.is_none()
        && policy_default
        && args.seed.is_none();
    if args.check && !default_grid {
        eprintln!("campaign: --check compares the full default run with {TRACKED}; drop the grid-override flags");
        std::process::exit(2);
    }
    let (g, dests, mut rng) = axes_or_exit(seed, args.ases.unwrap_or(500), args.dests.unwrap_or(4));
    // Campaigns are data: `--scn` files replace the built-in families.
    let timelines: Vec<Timeline> = if args.scn.is_empty() {
        standard_families(&g, &mut rng, &dests, false)
    } else {
        args.scn
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
                text.parse::<Timeline>()
                    .unwrap_or_else(|e| panic!("parse {path}: {e}"))
            })
            .collect()
    };
    let n_seeds = args.seeds.unwrap_or(2);
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| seed ^ (i << 17)).collect();
    let mut params = RunParams::paper();
    params.policy = regimes[0].clone();
    let cfg = CampaignConfig {
        params,
        protocols: protocols.clone(),
        seeds,
        threads: 0,
    };
    let threads_n = args.threads.filter(|n| *n > 0).unwrap_or(THREADS_N);

    let rep = run_three_ways(&g, &timelines, &dests, &cfg, threads_n);
    print_report(&rep, &protocols);

    // The policy axis: re-run a reduced grid (2 destinations, 1 seed —
    // the regime axis replaces the seed axis as the thing being varied)
    // under every built-in regime on a full default run, or under the
    // `--policy` list when the caller named several.
    let sweep = |sweep_regimes: &[PolicyRegime]| {
        let sweep_dests = &dests[..dests.len().min(2)];
        let mut base = cfg.clone();
        base.seeds.truncate(1);
        let (cells, rows) =
            run_policy_sweep(&g, &timelines, sweep_dests, &base, threads_n, sweep_regimes);
        println!("policy sweep: {cells} cells per regime");
        for r in &rows {
            let affected = r
                .affected
                .iter()
                .map(|(p, a)| format!("{} {a:.2}", p.label()))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "{:<16} fingerprint 0x{:016x} hash 0x{:016x}  affected mean: {affected}",
                r.name, r.fingerprint, r.hash
            );
        }
        (cells, rows)
    };

    // A grid the caller shaped is the caller's: tables on stdout, and the
    // tracked document — which describes the default grid only — stays as
    // it is.
    if !default_grid {
        if regimes.len() > 1 {
            sweep(regimes);
        }
        return;
    }

    // The scale row: the same families at 2000 ASes (fewer destinations ×
    // seeds, so the row costs about as much as the main grid).
    let rep_2000 = {
        let (g, dests, mut rng) = axes_or_exit(seed, 2000, 2);
        let timelines = standard_families(&g, &mut rng, &dests, false);
        let cfg = CampaignConfig {
            params: RunParams::paper(),
            protocols: protocols.clone(),
            seeds: vec![seed],
            threads: 0,
        };
        run_three_ways(&g, &timelines, &dests, &cfg, threads_n)
    };
    print_report(&rep_2000, &protocols);

    let (sweep_cells, sweep_rows) = sweep(&PolicyRegime::builtins());

    // The adversarial axis: hijacks, route leaks and a policy misconfig
    // as first-class timeline events, recorded per protocol (STAMP's
    // blue process never sees the forged announcement, so its blackhole
    // column is the paper's robustness claim in one number). The grid's
    // `diverged` counts prove the watchdog folds non-convergence into
    // the aggregate instead of wedging the sweep.
    let (adv, diverged) = run_adversarial(seed, threads_n);
    println!(
        "adversarial sweep: {} cells, {diverged} diverged (hijack / route-leak / policy-misconfig)",
        adv.cells.len()
    );
    // The adversarial grid's protocol axis is fixed by its constructor
    // and matches the default set — which `default_grid` guarantees
    // `protocols` is.
    print_report(&adv, &protocols);

    let doc = render_results(
        &[
            ("campaign", &rep),
            ("campaign_2000", &rep_2000),
            ("adversarial", &adv),
        ],
        &protocols,
        Some((sweep_cells, &sweep_rows)),
    );
    if !args.check {
        std::fs::write(TRACKED, doc).unwrap_or_else(|e| panic!("write {TRACKED}: {e}"));
        println!("wrote {TRACKED}");
        return;
    }
    let tracked =
        std::fs::read_to_string(TRACKED).unwrap_or_else(|e| panic!("read {TRACKED}: {e}"));
    match first_difference(&tracked, &doc) {
        None => println!("check OK: {TRACKED} is byte-identical to this run"),
        Some((line, was, now)) => {
            eprintln!(
                "RESULTS VIOLATION: {TRACKED} line {line} differs from this run\n\
                 tracked: {was}\n\
                 fresh:   {now}\n\
                 (an intended change of results: re-run without --check and commit the file)"
            );
            std::process::exit(1);
        }
    }
}
