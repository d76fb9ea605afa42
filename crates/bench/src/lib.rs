//! Shared CLI plumbing for the figure-regeneration binaries.
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
//!
//! The [`harness`] module is the in-repo micro-benchmark harness backing
//! `benches/{figures,micro}.rs`.

#![forbid(unsafe_code)]

pub mod harness;

use stamp_experiments::render::render_failure_report;
use stamp_experiments::{run_failure_experiment, FailureConfig, FailureScenario, Protocol};
use stamp_topology::GenConfig;

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
    /// Verification mode (`--check`): run and assert, but do not rewrite
    /// report files (the CI hash gate runs the full grid this way).
    pub check: bool,
    /// Adversarial sweep (`campaign --adversarial`): run the hijack /
    /// leak / policy-misconfig families instead of (or in addition to)
    /// the physical-failure families.
    pub adversarial: bool,
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
            "--adversarial" => out.adversarial = true,
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
