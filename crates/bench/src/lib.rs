//! Shared plumbing for the figure-regeneration binaries: the CLI flags,
//! and the one emitter and comparer of the tracked results document
//! (`BENCH_campaign.json`).
//!
//! Nothing in this crate reads a clock. Every number it prints is a count
//! or a simulated time — a pure function of seed and code — which is what
//! lets `campaign --check` hold the tracked document to byte equality.
//! Wall time has one owner, the reference benchmark (`benchmark/`).
//!
//! Every binary accepts:
//!
//! * `--ases N` — topology size (default: per-experiment),
//! * `--instances N` — scenario instances (default: per-experiment),
//! * `--seed N` — master seed,
//! * `--threads N` — worker threads (0 = all cores).
//!
//! Unknown flags abort with a usage message; the binaries print the figure
//! to stdout.

#![forbid(unsafe_code)]

use stamp_experiments::render::render_failure_report;
use stamp_experiments::{run_failure_experiment, FailureConfig, FailureScenario, Protocol};
use stamp_topology::{AsGraph, AsId, GenConfig};
use stamp_workload::{
    populate_baselines, run_campaign, run_campaign_with_cache, BaselineCache, CampaignConfig,
    CampaignReport, Timeline,
};
use std::fmt::Write as _;

/// Parsed common options.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    pub ases: Option<usize>,
    pub instances: Option<usize>,
    pub seed: Option<u64>,
    pub threads: usize,
    /// Extra boolean flag some binaries use (e.g. `--smart` on fig1).
    pub smart: bool,
    /// CI smoke mode (`campaign --smoke`): tiny grid, determinism check
    /// only.
    pub smoke: bool,
    /// Destination-axis size of a campaign grid (`--dests N`).
    pub dests: Option<usize>,
    /// Seed-axis size of a campaign grid (`--seeds N`).
    pub seeds: Option<usize>,
    /// `.scn` scenario files (`--scn FILE`, repeatable): campaign timelines
    /// loaded as data instead of the built-in families.
    pub scn: Vec<String>,
    /// Comma-separated protocol list (`--protocols bgp,stamp`); binaries
    /// parse each entry via `Protocol::from_str` (labels or aliases).
    pub protocols: Option<String>,
    /// Comma-separated policy-regime list (`--policy gao-rexford,...`);
    /// binaries resolve each entry via `PolicyRegime::by_name`. Mirrors
    /// `--protocols`: the first entry is the regime the grids run under,
    /// the full list is the sweep axis.
    pub policy: Option<String>,
    /// Verification mode (`--check`): regenerate the results document in
    /// memory and compare it with the tracked copy instead of rewriting it
    /// (the CI golden gate).
    pub check: bool,
}

/// Parse `std::env::args`, exiting with usage on errors.
pub fn parse_args(usage: &str) -> CommonArgs {
    let mut out = CommonArgs::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}\n{usage}", args[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--ases" => out.ases = Some(value(&mut i).parse().expect("--ases N")),
            "--instances" => out.instances = Some(value(&mut i).parse().expect("--instances N")),
            "--seed" => out.seed = Some(value(&mut i).parse().expect("--seed N")),
            "--threads" => out.threads = value(&mut i).parse().expect("--threads N"),
            "--smart" => out.smart = true,
            "--smoke" => out.smoke = true,
            "--dests" => out.dests = Some(value(&mut i).parse().expect("--dests N")),
            "--seeds" => out.seeds = Some(value(&mut i).parse().expect("--seeds N")),
            "--scn" => out.scn.push(value(&mut i)),
            "--protocols" => out.protocols = Some(value(&mut i)),
            "--policy" => out.policy = Some(value(&mut i)),
            "--check" => out.check = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    out
}

/// The failure-experiment configuration the figure binaries share: paper
/// parameters on a `sim_scale` topology (2000 ASes unless `--ases`), with
/// the binary's own default seed and instance count under `--seed` /
/// `--instances`.
pub fn failure_config(
    args: &CommonArgs,
    default_seed: u64,
    default_instances: usize,
) -> FailureConfig {
    let seed = args.seed.unwrap_or(default_seed);
    FailureConfig {
        seed,
        gen: GenConfig {
            n_ases: args.ases.unwrap_or(2000),
            ..GenConfig::sim_scale(seed)
        },
        instances: args.instances.unwrap_or(default_instances),
        threads: args.threads,
        ..FailureConfig::default()
    }
}

/// `main` of `fig2` / `fig3a` / `fig3b` / `node_failure`: parse the common
/// flags, run `scenario` for all four protocols, print the figure.
pub fn failure_figure_main(usage: &str, default_seed: u64, scenario: FailureScenario) {
    let cfg = failure_config(&parse_args(usage), default_seed, 30);
    let report = run_failure_experiment(&cfg, scenario, &Protocol::ALL);
    println!("{}", render_failure_report(&report));
}

/// The grid run three ways — cold at one worker, cold at `threads_n`
/// workers, warm at one worker with every baseline pre-converged — in that
/// order, the warm pass twice over the same cache: the first forks fresh
/// clones and parks them, the second runs entirely on those recycled
/// sessions, so state leaking from one cell into the next through a
/// rewound session shows as a difference between the two. The four
/// reports must be indistinguishable; the callers assert it.
pub fn three_passes(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
    threads_n: usize,
) -> [CampaignReport; 4] {
    let mut cfg = cfg.clone();
    cfg.threads = 1;
    let serial = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    cfg.threads = threads_n;
    let parallel = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    cfg.threads = 1;
    let cache = BaselineCache::new();
    populate_baselines(g, timelines.len(), dests, &cfg, &cache);
    let warm = || {
        run_campaign_with_cache(g, timelines, dests, &cfg, Some(&cache)).expect("timelines resolve")
    };
    [serial, parallel, warm(), warm()]
}

/// One regime's slice of the policy sweep: the same grid, re-converged
/// under a different `PolicyRegime`, keyed by the regime's canonical-DSL
/// fingerprint (the value that also keys the baseline cache).
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub name: String,
    pub fingerprint: u64,
    pub hash: u64,
    /// Grid-wide mean of affected ASes per protocol, config order.
    pub affected: Vec<(Protocol, f64)>,
}

/// The results document: one object per `(key, report)` grid — size, cell
/// count, aggregate hash and the per-`(timeline, protocol)` families table
/// — then the policy sweep (`cells` per regime, one row per regime) when
/// there is one. The only emitter of `BENCH_campaign.json`; its output is
/// byte-reproducible, so a tracked copy is a golden.
pub fn render_results(
    grids: &[(&str, &CampaignReport)],
    protocols: &[Protocol],
    sweep: Option<(usize, &[SweepRow])>,
) -> String {
    let mut s = String::from("{\n");
    for (i, (key, rep)) in grids.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = writeln!(s, "  \"{key}\": {{");
        let _ = writeln!(s, "    \"n_ases\": {},", rep.n_ases);
        let _ = writeln!(s, "    \"cells\": {},", rep.cells.len());
        let _ = writeln!(s, "    \"hash\": \"0x{:016x}\",", rep.hash);
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
    if let Some((cells, rows)) = sweep {
        s.push_str(",\n  \"policy_sweep\": {\n");
        let _ = writeln!(s, "    \"cells\": {cells},");
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
                 \"hash\": \"0x{:016x}\", \"affected_mean\": {{ {affected} }} }}",
                r.name, r.fingerprint, r.hash
            );
        }
        s.push_str("\n    ]\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// The first line on which two results documents differ, as `(1-based
/// line number, tracked line, fresh line)`; `None` iff they are
/// byte-identical. A document that ended early reads [`END_OF_DOCUMENT`].
pub fn first_difference<'a>(tracked: &'a str, fresh: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut a, mut b) = (tracked.split('\n'), fresh.split('\n'));
    for n in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (x, y) if x != y => {
                return Some((
                    n,
                    x.unwrap_or(END_OF_DOCUMENT),
                    y.unwrap_or(END_OF_DOCUMENT),
                ))
            }
            _ => {}
        }
    }
    None
}

/// What [`first_difference`] reports for the side that ran out of lines.
pub const END_OF_DOCUMENT: &str = "<end of document>";

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_workload::{adversarial_grid, smoke_grid};

    const SEED: u64 = 0xCA4A16;

    /// The smoke and adversarial grids, each run the three ways, rendered
    /// as four documents: `[1 worker, 4 workers, warm, warm on recycled
    /// sessions]`.
    fn smoke_documents() -> [String; 4] {
        let (g, timelines, dests, cfg) = smoke_grid(SEED);
        let smoke = three_passes(&g, &timelines, &dests, &cfg, 4);
        let (g, timelines, dests, adv_cfg) = adversarial_grid(SEED);
        let adv = three_passes(&g, &timelines, &dests, &adv_cfg, 4);
        assert_eq!(cfg.protocols, adv_cfg.protocols);
        [0, 1, 2, 3].map(|i| {
            render_results(
                &[("smoke", &smoke[i]), ("adversarial", &adv[i])],
                &cfg.protocols,
                None,
            )
        })
    }

    /// The document is a function of the grid alone: worker count and
    /// warm-start leave every byte where it was, and no key is a timing or
    /// a host property — which is what entitles CI to compare the tracked
    /// copy for equality.
    #[test]
    fn results_document_is_byte_identical_across_workers_and_warm_start() {
        let [serial, parallel, warm, recycled] = smoke_documents();
        assert_eq!(serial, parallel, "document differs between 1 and 4 workers");
        assert_eq!(serial, warm, "document differs between cold and warm start");
        assert_eq!(serial, recycled, "document differs on recycled sessions");
        assert!(serial.contains("\"hash\": \"0x288f67a39b590c8d\""));
        assert!(serial.contains("\"hash\": \"0xfd8467442b256d70\""));
        // No key names a timing or a host property (no value does either,
        // so the whole text is searched).
        for banned in ["wall", "throughput", "speedup", "cores", "threads", "per_s"] {
            assert!(!serial.contains(banned), "document mentions `{banned}`");
        }
    }

    /// `--check` guards results, not only hashes: a perturbed mean and a
    /// perturbed hash each come back as the differing line.
    #[test]
    fn comparer_names_the_line_of_a_perturbed_result_or_hash() {
        let [doc, ..] = smoke_documents();
        assert_eq!(first_difference(&doc, &doc), None);

        for (needle, edited) in [
            ("\"affected_mean\": 0.000", "\"affected_mean\": 0.001"),
            ("\"hash\": \"0xfd84", "\"hash\": \"0xfd85"),
        ] {
            let bad = doc.replacen(needle, edited, 1);
            let want = doc.lines().position(|l| l.contains(needle)).unwrap();
            let (line, tracked, fresh) = first_difference(&bad, &doc).expect("documents differ");
            assert_eq!(line, want + 1);
            assert!(tracked.contains(edited) && fresh.contains(needle));
        }

        // A truncated document differs where it stops.
        let cut = doc
            .strip_suffix("\n}\n")
            .expect("document closes its object");
        let (_, tracked, fresh) = first_difference(cut, &doc).expect("documents differ");
        assert_eq!((tracked, fresh), (END_OF_DOCUMENT, "}"));
    }
}
