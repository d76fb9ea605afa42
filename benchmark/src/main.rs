//! The reference benchmark of the STAMP reproduction: six workloads,
//! end-to-end metrics from an untraced run, per-layer metrics from a
//! traced run, all from outside the product (public functions only).
//! See `README.md` beside this package for the tables and the rules.
//!
//! ```text
//! stamp_benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! stamp_benchmark run all|W [--seed N] [--seconds S] [--repeat R] [--sets K] [--smoke]
//! stamp_benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```

#![forbid(unsafe_code)]

mod cell;
mod common;
mod compare;
mod json;
mod orchestrate;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod w_campaign;
mod w_converge;
mod w_figures;
mod w_query;

use common::RunCfg;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  stamp_benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
      one run of one workload; prints a detail line, then the result line
  stamp_benchmark run all|W [--seed N] [--seconds S] [--repeat R] [--sets K] [--smoke]
      every workload in a fresh child process, one at a time: R untraced runs
      (seeds N, N+1, ...) and one traced run each; prints every metric by
      name with its unit; with --sets 2 runs everything twice, compares the
      sets and writes NOISE.md
  stamp_benchmark compare A.json B.json [--bounds BENCHMARK.json]
      judge set B against set A; exits 1 on any `worse`
workloads: converge_scale paper_figures campaign_cold campaign_warm query_hit query_churn";

/// `--key value` pairs after the positional arguments; `--smoke` is the
/// one flag without a value.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        options: Vec::new(),
        smoke: false,
    };
    let mut raw = raw.peekable();
    while let Some(a) = raw.next() {
        if a == "--smoke" {
            args.smoke = true;
        } else if let Some(key) = a.strip_prefix("--") {
            let value = raw.next().ok_or(format!("--{key} needs a value"))?;
            args.options.push((key.to_string(), value));
        } else {
            args.positional.push(a);
        }
    }
    Ok(args)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn known_workload(name: &str) -> Result<(), String> {
    spec::workload(name)
        .map(|_| ())
        .ok_or(format!("unknown workload {name:?}"))
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    match args.positional.first().map(String::as_str) {
        None => {
            args.only(&["workload", "seed", "seconds", "trace"])?;
            let workload: String = args.get("workload")?.ok_or("missing --workload")?;
            known_workload(&workload)?;
            let seconds: f64 = args.get("seconds")?.ok_or("missing --seconds")?;
            if !(0.0..=3600.0).contains(&seconds) {
                return Err(format!("--seconds {seconds} out of range"));
            }
            let trace = match args.get::<u8>("trace")?.ok_or("missing --trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: want 0 or 1")),
            };
            let cfg = RunCfg {
                seed: args.get("seed")?.ok_or("missing --seed")?,
                seconds,
                smoke: args.smoke,
                nproc: common::nproc(),
            };
            let (detail, result) = report::run(&workload, &cfg, trace);
            println!("{detail}");
            println!("{result}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            args.only(&["seed", "seconds", "repeat", "sets"])?;
            let what = args
                .positional
                .get(1)
                .ok_or("run: which workload, or all?")?;
            let workloads: Vec<&str> = if what == "all" {
                spec::WORKLOADS.iter().map(|w| w.name).collect()
            } else {
                known_workload(what)?;
                vec![what.as_str()]
            };
            let plan = orchestrate::Plan {
                workloads,
                seed: args.get("seed")?.unwrap_or(1),
                seconds: args
                    .get("seconds")?
                    .unwrap_or(if args.smoke { 0.05 } else { 15.0 }),
                repeat: args.get("repeat")?.unwrap_or(1),
                sets: args.get("sets")?.unwrap_or(1),
                smoke: args.smoke,
            };
            if plan.repeat == 0 || plan.sets == 0 || plan.sets > 2 {
                return Err("--repeat must be at least 1 and --sets 1 or 2".to_string());
            }
            orchestrate::run(&plan)
        }
        Some("compare") => {
            args.only(&["bounds"])?;
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare: want exactly A.json B.json".to_string());
            };
            let bounds_path = args
                .get::<String>("bounds")?
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| report::bench_dir().join("../BENCHMARK.json"));
            let read = |p: &std::path::Path| -> Result<json::Json, String> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                json::Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
            };
            let bounds = compare::bounds(&read(&bounds_path)?)?;
            let cmp = compare::compare(&read(a.as_ref())?, &read(b.as_ref())?, &bounds);
            print!("{}", cmp.text);
            Ok(if cmp.worse > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("stamp_benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
