//! `campaign`: BGP vs R-BGP vs STAMP across the scenario-timeline
//! families, on a sharded `(timeline × destination × seed)` grid.
//!
//! The five families exercise dynamics the paper's one-shot figures never
//! see: a sub-MRAI link flap train, staggered two-link failures, a
//! correlated tier-2 regional outage, rolling maintenance windows over
//! providers, and random background churn. The grid runs twice — one
//! worker, then all cores — asserting the byte-identical aggregate hash
//! (the determinism contract of `stamp_workload::campaign`) and reporting
//! the wall-clock speedup. Results (disruption/recovery aggregates plus
//! throughput) go to `BENCH_campaign.json`.
//!
//! `--smoke` is the CI gate: a tiny fast-parameter grid, determinism
//! assertion only, no JSON written.

#![forbid(unsafe_code)]

use stamp_bench::parse_args;
use stamp_eventsim::rng::tags;
use stamp_eventsim::rng_stream;
use stamp_queryd::{proto_token, serve, QueryEngine, QuerydConfig};
use stamp_topology::gen::generate;
use stamp_topology::{AsGraph, AsId, GenConfig};
use stamp_workload::{
    adversarial_grid, choose_k, destination_candidates, populate_baselines, run_campaign,
    run_campaign_with_cache, smoke_grid, standard_families, BaselineCache, CacheStats,
    CampaignConfig, CampaignReport, PolicyRegime, Protocol, RunParams, Timeline,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Default protocol set (the R-BGP variant runs with RCI); override with
/// `--protocols bgp,rbgp-norci,rbgp,stamp` (labels or aliases, see
/// `Protocol::from_str`).
const PROTOCOLS: [Protocol; 3] = [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];

struct GridRun {
    report: CampaignReport,
    wall_1: f64,
    wall_n: f64,
    /// Serial wall clock with every baseline pre-converged (cells fork
    /// from checkpoints instead of converging cold).
    wall_warm_1: f64,
    /// Wall clock of the baseline-population pass itself.
    wall_populate: f64,
    threads_n: usize,
}

/// Run the grid cold at one worker, cold at `threads_n`, then warm (every
/// cell forked from a pre-converged checkpoint) — asserting the
/// byte-identical aggregate across all three. The warm-equals-cold check
/// is the campaign-scale proof that a copy of a session carries everything
/// a replay depends on.
fn run_twice(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &mut CampaignConfig,
    threads_n: usize,
) -> GridRun {
    cfg.threads = 1;
    let t0 = Instant::now();
    let serial = run_campaign(g, timelines, dests, cfg).expect("timelines resolve");
    let wall_1 = t0.elapsed().as_secs_f64();

    cfg.threads = threads_n;
    let t0 = Instant::now();
    let parallel = run_campaign(g, timelines, dests, cfg).expect("timelines resolve");
    let wall_n = t0.elapsed().as_secs_f64();

    assert_eq!(
        serial.hash, parallel.hash,
        "campaign aggregate diverged between 1 and {threads_n} workers"
    );

    let cache = BaselineCache::new();
    let t0 = Instant::now();
    populate_baselines(g, timelines.len(), dests, cfg, &cache);
    let wall_populate = t0.elapsed().as_secs_f64();

    cfg.threads = 1;
    let t0 = Instant::now();
    let warm =
        run_campaign_with_cache(g, timelines, dests, cfg, Some(&cache)).expect("timelines resolve");
    let wall_warm_1 = t0.elapsed().as_secs_f64();
    assert_eq!(
        serial.hash, warm.hash,
        "warm-start aggregate diverged from cold start"
    );
    // The hash does not fold the observer's work ledger; the cells do.
    assert!(
        serial.cells == parallel.cells && serial.cells == warm.cells,
        "observer work counts differ between 1 worker, {threads_n} workers and warm start"
    );

    GridRun {
        report: parallel,
        wall_1,
        wall_n,
        wall_warm_1,
        wall_populate,
        threads_n,
    }
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

fn print_report(run: &GridRun, protocols: &[Protocol]) {
    let rep = &run.report;
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
    let tp1 = cells as f64 / run.wall_1;
    let tpn = cells as f64 / run.wall_n;
    let tpw = cells as f64 / run.wall_warm_1;
    println!(
        "wall clock: {:.2} s at 1 worker ({tp1:.2} cells/s), {:.2} s at {} workers \
         ({tpn:.2} cells/s) — speedup {}",
        run.wall_1,
        run.wall_n,
        run.threads_n,
        match parallel_speedup(run) {
            Some(x) => format!("{x:.2}×"),
            None => "n/a (1 core)".to_string(),
        }
    );
    println!(
        "warm start: {:.2} s populate + {:.2} s at 1 worker ({tpw:.2} cells/s forked \
         from checkpoints) — {:.2}× cold serial, hash identical",
        run.wall_populate,
        run.wall_warm_1,
        run.wall_1 / run.wall_warm_1
    );
}

/// One `query_throughput` measurement: a resident queryd engine on the
/// default grid's topology, fed a batch of single-cell `WHATIF` lines
/// through the in-memory serving loop (the same `serve` the daemon binary
/// wires to stdin — batch mode *is* the line protocol).
struct QueryRun {
    n_ases: usize,
    baselines: usize,
    queries: usize,
    /// Wall clock of the batch (banner to BYE).
    wall_s: f64,
    /// Wall clock of engine startup (topology + every baseline converged).
    wall_s_startup: f64,
    cache: CacheStats,
}

/// Converge a resident engine on the campaign's own grid axes, then time
/// a batch of `n_queries` what-ifs (alternating FAIL-LINK / DRAIN-NODE,
/// cycling destinations, providers and protocols, every one an explicit
/// single cell with `PROTO`/`DEST`). Every query forks from a resident
/// checkpoint — the run asserts the cache never missed.
fn run_query_throughput(
    g: &AsGraph,
    dests: &[AsId],
    protocols: &[Protocol],
    seed: u64,
    n_queries: usize,
) -> QueryRun {
    let t0 = Instant::now();
    let mut cfg = QuerydConfig::new(protocols.to_vec(), dests.to_vec());
    cfg.seed = seed;
    let engine = QueryEngine::new(g.clone(), cfg).expect("baselines converge");
    let wall_s_startup = t0.elapsed().as_secs_f64();

    let mut input = String::new();
    for i in 0..n_queries {
        let d = dests[i % dests.len()];
        let p = protocols[(i / dests.len()) % protocols.len()];
        let provs = g.providers(d);
        let pr = provs[i % provs.len()];
        if i % 2 == 0 {
            let _ = writeln!(
                input,
                "WHATIF FAIL-LINK {} {} PROTO {} DEST {}",
                d.0,
                pr.0,
                proto_token(p),
                d.0
            );
        } else {
            let _ = writeln!(
                input,
                "WHATIF DRAIN-NODE {} PROTO {} DEST {}",
                pr.0,
                proto_token(p),
                d.0
            );
        }
    }

    let t0 = Instant::now();
    let mut out = Vec::new();
    serve(&engine, input.as_bytes(), &mut out).expect("in-memory serving cannot fail");
    let wall_s = t0.elapsed().as_secs_f64();

    let text = String::from_utf8(out).expect("responses are UTF-8");
    let frames = text.lines().filter(|l| *l == "END").count();
    assert_eq!(frames, n_queries + 1, "one frame per query plus BYE");
    assert!(
        !text.contains("\nERR "),
        "a benchmark query was refused:\n{text}"
    );
    let cache = engine.cache_stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (n_queries as u64, 0),
        "every query must fork from a resident baseline"
    );
    QueryRun {
        n_ases: g.n(),
        baselines: dests.len() * protocols.len(),
        queries: n_queries,
        wall_s,
        wall_s_startup,
        cache,
    }
}

fn query_json(s: &mut String, key: &str, q: &QueryRun) {
    let _ = writeln!(s, "  \"{key}\": {{");
    let _ = writeln!(s, "    \"n_ases\": {},", q.n_ases);
    let _ = writeln!(s, "    \"cores\": {},", cores());
    let _ = writeln!(s, "    \"baselines\": {},", q.baselines);
    let _ = writeln!(s, "    \"queries\": {},", q.queries);
    let _ = writeln!(s, "    \"wall_s\": {:.3},", q.wall_s);
    let _ = writeln!(s, "    \"wall_s_startup\": {:.3},", q.wall_s_startup);
    let _ = writeln!(
        s,
        "    \"queries_per_s\": {:.3},",
        q.queries as f64 / q.wall_s
    );
    let _ = writeln!(s, "    \"cache_hits\": {},", q.cache.hits);
    let _ = writeln!(s, "    \"cache_misses\": {},", q.cache.misses);
    let _ = writeln!(s, "    \"cache_evictions\": {}", q.cache.evictions);
    s.push_str("  }");
}

/// One regime's slice of the policy sweep: the same grid, re-converged
/// under a different `PolicyRegime`, keyed by the regime's canonical-DSL
/// fingerprint (the value that also keys the baseline cache).
struct PolicySweepRow {
    name: String,
    fingerprint: u64,
    hash: u64,
    wall_s: f64,
    /// Grid-wide mean of affected ASes per protocol, config order.
    affected: Vec<(Protocol, f64)>,
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
) -> (usize, Vec<PolicySweepRow>) {
    let mut rows = Vec::with_capacity(regimes.len());
    let mut cells = 0;
    for regime in regimes {
        let mut cfg = base_cfg.clone();
        cfg.params.policy = regime.clone();
        cfg.threads = threads_n;
        let t0 = Instant::now();
        let rep = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
        let wall_s = t0.elapsed().as_secs_f64();
        cells = rep.cells.len();
        let affected = cfg
            .protocols
            .iter()
            .map(|&p| {
                let (mut sum, mut n) = (0.0, 0usize);
                for c in &rep.cells {
                    if let Some((_, m)) = c.metrics.iter().find(|(q, _)| *q == p) {
                        sum += m.affected as f64;
                        n += 1;
                    }
                }
                (p, if n == 0 { 0.0 } else { sum / n as f64 })
            })
            .collect();
        rows.push(PolicySweepRow {
            name: regime.name.clone(),
            fingerprint: regime.fingerprint(),
            hash: rep.hash,
            wall_s,
            affected,
        });
    }
    (cells, rows)
}

fn policy_sweep_json(s: &mut String, cells: usize, rows: &[PolicySweepRow]) {
    let _ = writeln!(s, "  \"policy_sweep\": {{");
    let _ = writeln!(s, "    \"cells\": {cells},");
    let _ = writeln!(s, "    \"cores\": {},", cores());
    s.push_str("    \"regimes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let affected = r
            .affected
            .iter()
            .map(|(p, a)| format!("\"{}\": {a:.3}", p.label()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "      {{ \"policy\": \"{}\", \"fingerprint\": \"0x{:016x}\", \
             \"hash\": \"0x{:016x}\", \"wall_s\": {:.3}, \"affected_mean\": {{ {affected} }} }}",
            r.name, r.fingerprint, r.hash, r.wall_s
        );
    }
    s.push_str("\n    ]\n  }");
}

/// The adversarial sweep: hijack / route-leak / policy-misconfig families
/// on the smoke topology (the grid is fixed by `adversarial_grid`, whose
/// protocol axis matches [`PROTOCOLS`]), with the same three-way
/// determinism assertion as every other grid. Returns the run plus the
/// number of `(cell, protocol)` measures that did not converge — the
/// watchdog turning a wedged control plane into a typed, countable
/// outcome is the point of the sweep.
fn run_adversarial(seed: u64, threads_n: usize) -> (GridRun, usize) {
    let (g, timelines, dests, mut cfg) = adversarial_grid(seed);
    let run = run_twice(&g, &timelines, &dests, &mut cfg, threads_n);
    let diverged = run
        .report
        .cells
        .iter()
        .flat_map(|c| c.metrics.iter())
        .filter(|(_, m)| !m.outcome.is_converged())
        .count();
    (run, diverged)
}

/// Logical CPUs of the host running the benchmark — recorded so a
/// speedup ≈ 1 row on a one-core container is legible as a machine
/// property, not a scaling regression.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Serial over parallel wall clock — `None` on a one-core host, where the
/// "parallel" pass time-slices one CPU and the ratio is scheduler noise,
/// not a result.
fn parallel_speedup(run: &GridRun) -> Option<f64> {
    (cores() > 1).then(|| run.wall_1 / run.wall_n)
}

fn json_object(s: &mut String, key: &str, run: &GridRun, protocols: &[Protocol]) {
    let rep = &run.report;
    let cells = rep.cells.len();
    let _ = writeln!(s, "  \"{key}\": {{");
    let _ = writeln!(s, "    \"n_ases\": {},", rep.n_ases);
    let _ = writeln!(s, "    \"cells\": {cells},");
    let _ = writeln!(s, "    \"hash\": \"0x{:016x}\",", rep.hash);
    let _ = writeln!(s, "    \"cores\": {},", cores());
    let _ = writeln!(s, "    \"wall_s_threads_1\": {:.3},", run.wall_1);
    let _ = writeln!(s, "    \"wall_s_threads_n\": {:.3},", run.wall_n);
    let _ = writeln!(s, "    \"wall_s_warm_1\": {:.3},", run.wall_warm_1);
    let _ = writeln!(s, "    \"wall_s_populate\": {:.3},", run.wall_populate);
    let _ = writeln!(s, "    \"threads_n\": {},", run.threads_n);
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_1\": {:.3},",
        cells as f64 / run.wall_1
    );
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_n\": {:.3},",
        cells as f64 / run.wall_n
    );
    let _ = writeln!(
        s,
        "    \"throughput_cells_per_s_warm_1\": {:.3},",
        cells as f64 / run.wall_warm_1
    );
    match parallel_speedup(run) {
        Some(x) => {
            let _ = writeln!(s, "    \"speedup\": {x:.3},");
        }
        None => s.push_str("    \"speedup\": null,\n"),
    }
    let _ = writeln!(
        s,
        "    \"warm_speedup_vs_cold_1\": {:.3},",
        run.wall_1 / run.wall_warm_1
    );
    s.push_str("    \"families\": [\n");
    let mut first = true;
    for (t, name) in rep.timeline_names.iter().enumerate() {
        for &p in protocols {
            let a = rep.aggregate(t, p);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "      {{ \"timeline\": \"{name}\", \"protocol\": \"{}\", \
                 \"cells\": {}, \"affected_mean\": {:.3}, \"loops_mean\": {:.3}, \
                 \"blackholes_mean\": {:.3}, \"data_recovery_mean_s\": {:.3}, \
                 \"convergence_mean_s\": {:.3}, \"updates_failure_mean\": {:.3}, \
                 \"diverged\": {} }}",
                p.label(),
                a.cells,
                a.affected_mean,
                a.loops_mean,
                a.blackholes_mean,
                a.data_recovery_mean_s,
                a.convergence_mean_s,
                a.updates_failure_mean,
                a.diverged
            );
        }
    }
    s.push_str("\n    ]\n  }");
}

/// Write one JSON object per recorded grid (`campaign` = the primary grid;
/// `campaign_2000` = the scale row and `query_throughput` the resident-
/// daemon row, when run).
fn write_json(
    runs: &[(&str, &GridRun)],
    query: Option<&QueryRun>,
    sweep: Option<&(usize, Vec<PolicySweepRow>)>,
    protocols: &[Protocol],
    path: &str,
) {
    let mut s = String::from("{\n");
    for (i, (key, run)) in runs.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        json_object(&mut s, key, run, protocols);
    }
    if let Some(q) = query {
        s.push_str(",\n");
        query_json(&mut s, "query_throughput", q);
    }
    if let Some((cells, rows)) = sweep {
        s.push_str(",\n");
        policy_sweep_json(&mut s, *cells, rows);
    }
    s.push_str("\n}\n");
    std::fs::write(path, s).expect("write BENCH_campaign.json");
    println!("wrote {path}");
}

fn main() {
    let args = parse_args(
        "campaign [--ases N] [--dests N] [--seeds N] [--seed N] [--threads N] \
         [--protocols LIST] [--scn FILE]... [--smoke]\n\
         Runs the scenario-timeline campaign (flap trains, staggered failures,\n\
         regional outages, maintenance drains, background churn) for BGP, R-BGP\n\
         and STAMP over a (timeline × destination × seed) grid, twice (1 worker,\n\
         then --threads/all), asserts the byte-identical aggregate hash, and\n\
         writes BENCH_campaign.json.\n\
         --protocols LIST: comma-separated protocols to compare (labels or\n\
         aliases: bgp, rbgp-norci, rbgp, stamp; default bgp,rbgp,stamp).\n\
         --policy LIST: comma-separated policy regimes (built-ins:\n\
         gao-rexford, shortest-path, prefer-peer, long-path-tax; default\n\
         gao-rexford). The first entry is the regime the grids run under;\n\
         the full default run also sweeps every built-in into a\n\
         policy_sweep row of BENCH_campaign.json.\n\
         --scn FILE (repeatable): run timelines parsed from .scn files instead\n\
         of the built-in families (see scenarios/ for samples).\n\
         --adversarial: also run the adversarial sweep (prefix hijack,\n\
         prepend hijack, route leak, policy misconfig) and record its\n\
         per-protocol blackholed/affected/diverged counts — an extra\n\
         \"adversarial\" object in BENCH_campaign.json, or an extra pinned\n\
         hash line under --smoke.\n\
         --smoke: tiny fast grid, determinism assertion only (the CI gate).\n\
         --check: run the full grids and assertions but leave\n\
         BENCH_campaign.json untouched (the CI golden-hash gate).",
    );
    let seed = args.seed.unwrap_or(0xCA4A16);
    let smoke = args.smoke;
    let regimes: Vec<PolicyRegime> = match &args.policy {
        None => vec![PolicyRegime::gao_rexford()],
        Some(list) => list
            .split(',')
            .map(|name| {
                PolicyRegime::by_name(name.trim()).unwrap_or_else(|| {
                    let known = PolicyRegime::builtins()
                        .iter()
                        .map(|r| r.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ");
                    eprintln!("unknown policy regime {name:?} (built-ins: {known})");
                    std::process::exit(2);
                })
            })
            .collect(),
    };
    // `--policy gao-rexford` is the default spelled out: it must not
    // change grid selection (the CI golden gate runs `--check` both ways).
    let policy_default = regimes.len() == 1 && regimes[0].is_default();
    let protocols: Vec<Protocol> = match &args.protocols {
        None => PROTOCOLS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .collect(),
    };

    // The default-flag smoke invocation (the CI gate) takes its grid from
    // `smoke_grid` — the same constructor the golden determinism test
    // pins, so the two cannot drift apart. Any override flag switches to
    // the generic construction below.
    let smoke_default = smoke
        && args.scn.is_empty()
        && args.ases.is_none()
        && args.dests.is_none()
        && args.seeds.is_none()
        && args.protocols.is_none()
        && policy_default;
    let (g, timelines, dests, mut cfg) = if smoke_default {
        smoke_grid(seed)
    } else {
        let gen = if smoke {
            GenConfig::small(seed)
        } else {
            GenConfig {
                n_ases: args.ases.unwrap_or(500),
                ..GenConfig::small(seed)
            }
        };
        let g = generate(&gen).expect("valid generator config");

        let mut rng = rng_stream(seed, tags::TIMELINE);
        let n_dests = args.dests.unwrap_or(if smoke { 2 } else { 4 });
        let dests = choose_k(&mut rng, &destination_candidates(&g), n_dests);
        if dests.is_empty() {
            eprintln!(
                "campaign: no destinations (--dests {n_dests}, {} multi-homed candidates \
                 in the topology) — nothing to run",
                destination_candidates(&g).len()
            );
            std::process::exit(2);
        }
        // Campaigns are data: `--scn` files replace the built-in families.
        let timelines: Vec<Timeline> = if args.scn.is_empty() {
            standard_families(&g, &mut rng, &dests, smoke)
        } else {
            args.scn
                .iter()
                .map(|path| {
                    let text = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| panic!("read {path}: {e}"));
                    text.parse::<Timeline>()
                        .unwrap_or_else(|e| panic!("parse {path}: {e}"))
                })
                .collect()
        };
        let n_seeds = args.seeds.unwrap_or(if smoke { 1 } else { 2 });
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| seed ^ (i << 17)).collect();

        let mut params = if smoke {
            RunParams::fast()
        } else {
            RunParams::paper()
        };
        params.policy = regimes[0].clone();
        let cfg = CampaignConfig {
            params,
            protocols: protocols.clone(),
            seeds,
            threads: 0,
        };
        (g, timelines, dests, cfg)
    };
    let threads_n = if args.threads > 0 {
        args.threads
    } else {
        cores().max(4)
    };

    let run = run_twice(&g, &timelines, &dests, &mut cfg, threads_n);
    if smoke {
        println!(
            "smoke campaign OK: {} cells, hash 0x{:016x} identical at 1 worker, {} workers \
             and warm-start",
            run.report.cells.len(),
            run.report.hash,
            run.threads_n
        );
        print_observer_work(&run.report, &cfg.protocols);
        if args.adversarial {
            let (adv, diverged) = run_adversarial(seed, threads_n);
            println!(
                "adversarial smoke OK: {} cells, {} diverged, hash 0x{:016x} identical at \
                 1 worker, {} workers and warm-start",
                adv.report.cells.len(),
                diverged,
                adv.report.hash,
                adv.threads_n
            );
        }
        return;
    }
    print_report(&run, &protocols);

    // The scale row: the same families at 2000 ASes (fewer destinations ×
    // seeds, so the row costs about as much wall clock as the main grid)
    // recording whether per-cell throughput holds up at 4× topology size.
    // Skipped when the caller overrides the grid shape — the row is only
    // comparable on the default configuration.
    let default_grid = args.scn.is_empty()
        && args.ases.is_none()
        && args.dests.is_none()
        && args.seeds.is_none()
        && args.protocols.is_none()
        && policy_default;
    let run_2000 = if default_grid {
        let gen = GenConfig {
            n_ases: 2000,
            ..GenConfig::small(seed)
        };
        let g = generate(&gen).expect("valid generator config");
        let mut rng = rng_stream(seed, tags::TIMELINE);
        let dests = choose_k(&mut rng, &destination_candidates(&g), 2);
        let timelines = standard_families(&g, &mut rng, &dests, false);
        let mut cfg = CampaignConfig {
            params: RunParams::paper(),
            protocols: protocols.clone(),
            seeds: vec![seed],
            threads: 0,
        };
        let run = run_twice(&g, &timelines, &dests, &mut cfg, threads_n);
        print_report(&run, &protocols);
        Some(run)
    } else {
        None
    };

    // The resident-daemon row: converge the default grid's cells once in a
    // queryd engine, then stream a batch of single-cell what-ifs through
    // the serving loop. The bar: answering a warm query must beat the warm
    // campaign path per cell (a query is one protocol measure; a campaign
    // cell runs all of them — a resident daemon that lost to the batch
    // runner would have no reason to exist).
    let query_run = if default_grid {
        let q = run_query_throughput(&g, &dests, &protocols, seed, 120);
        let rate = q.queries as f64 / q.wall_s;
        let warm_rate = run.report.cells.len() as f64 / run.wall_warm_1;
        println!(
            "query throughput: {} baselines converged in {:.2} s, then {} queries in {:.2} s \
             ({rate:.2} queries/s vs {warm_rate:.2} warm cells/s)",
            q.baselines, q.wall_s_startup, q.queries, q.wall_s
        );
        assert!(
            rate >= warm_rate,
            "resident queries ({rate:.2}/s) slower than the warm campaign path ({warm_rate:.2} cells/s)"
        );
        Some(q)
    } else {
        None
    };

    // The policy axis: re-run a reduced grid (2 destinations, 1 seed —
    // the regime axis replaces the seed axis as the thing being varied)
    // under every built-in regime on a full default run, or under the
    // `--policy` list when the caller named several.
    let sweep_regimes: Vec<PolicyRegime> = if default_grid {
        PolicyRegime::builtins()
    } else if regimes.len() > 1 {
        regimes.clone()
    } else {
        Vec::new()
    };
    let policy_sweep = if sweep_regimes.is_empty() {
        None
    } else {
        let sweep_dests = &dests[..dests.len().min(2)];
        let mut base = cfg.clone();
        base.seeds.truncate(1);
        let (cells, rows) = run_policy_sweep(
            &g,
            &timelines,
            sweep_dests,
            &base,
            threads_n,
            &sweep_regimes,
        );
        println!("policy sweep: {cells} cells per regime");
        for r in &rows {
            let affected = r
                .affected
                .iter()
                .map(|(p, a)| format!("{} {a:.2}", p.label()))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "{:<16} fingerprint 0x{:016x} hash 0x{:016x} {:>7.2} s  affected mean: {affected}",
                r.name, r.fingerprint, r.hash, r.wall_s
            );
        }
        Some((cells, rows))
    };

    // The adversarial axis: hijacks, route leaks and a policy misconfig
    // as first-class timeline events, recorded per protocol (STAMP's
    // blue process never sees the forged announcement, so its blackhole
    // column is the paper's robustness claim in one number). The grid's
    // `diverged` counts prove the watchdog folds non-convergence into
    // the aggregate instead of wedging the sweep.
    let adversarial_run = if args.adversarial {
        let (adv, diverged) = run_adversarial(seed, threads_n);
        println!(
            "adversarial sweep: {} cells, {} diverged (hijack / route-leak / policy-misconfig)",
            adv.report.cells.len(),
            diverged
        );
        // The adversarial grid's protocol axis is fixed by its
        // constructor and matches the default set.
        print_report(&adv, &PROTOCOLS);
        Some(adv)
    } else {
        None
    };

    if args.check {
        println!("check mode: BENCH_campaign.json left untouched");
        return;
    }
    let mut rows: Vec<(&str, &GridRun)> = vec![("campaign", &run)];
    if let Some(r) = &run_2000 {
        rows.push(("campaign_2000", r));
    }
    if let Some(r) = &adversarial_run {
        rows.push(("adversarial", r));
    }
    write_json(
        &rows,
        query_run.as_ref(),
        policy_sweep.as_ref(),
        &protocols,
        "BENCH_campaign.json",
    );
}
