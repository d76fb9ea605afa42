//! `run`: the whole benchmark by one command. Every run of every workload
//! is a fresh child process of this same binary, one at a time — never
//! two load generators at once, so `peak_rss_mb` and `setup_s` are each
//! run's own and the parallel workloads have the machine to themselves.
//!
//! A *set* is `repeat` untraced runs of each workload (seeds `seed`,
//! `seed+1`, …) plus one traced run. With `--sets 2` the whole thing runs
//! twice back to back, the sets are compared with [`crate::compare`], and
//! the spread seen per end-to-end metric is written to `NOISE.md`.

use crate::compare;
use crate::json::Json;
use crate::report::{bench_dir, out_dir};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

pub struct Plan<'a> {
    pub workloads: Vec<&'a str>,
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub sets: usize,
    pub smoke: bool,
}

/// One child run: the detail object and the result object it printed.
fn child(plan: &Plan, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: one load generator at a time.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: child exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines.next().ok_or("child printed no detail line")?;
    Ok(Json::obj()
        .with("detail", Json::parse(detail)?)
        .with("result", Json::parse(result)?))
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 {
        format!("{v:.4e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Every metric of one workload, by name, with its unit.
fn print_workload(name: &str, runs: &[Json], traced: &Json) {
    let w = spec::workload(name).expect("planned workloads are known");
    println!("\n== {name} ==");
    println!("   operation: {}; latency sample: {}", w.op, w.latency_of);
    println!(
        "   end-to-end (untraced, {} run(s), each with another seed):",
        runs.len()
    );
    for m in &END_TO_END {
        let vs = compare::values(runs, m.name);
        let med = compare::summary(&vs).map_or(f64::NAN, |s| s.1);
        let spread = quartiles(&vs)
            .map(|(q1, mid, q3)| {
                format!(
                    "  q1 {} q3 {}  spread {:.1}% of median",
                    fmt_value(q1),
                    fmt_value(q3),
                    (q3 - q1) / mid * 100.0
                )
            })
            .unwrap_or_default();
        println!(
            "   {:<18} {:>12} {:<9} n={}{spread}",
            m.name,
            fmt_value(med),
            m.unit,
            vs.len()
        );
    }
    for r in runs {
        let failed = r.num_at(&["result", "failed"]);
        let attempted = r.num_at(&["result", "attempted"]);
        let sample = |k: &str| r.num_at(&["detail", "samples", k]);
        println!(
            "   seed {}: passes {} | latency samples {} (p95 has {} beyond: {}) | setups {} | failed {}/{} (failed_share {}) | sim_digest {}",
            r.str_at(&["detail", "seed"]),
            sample("passes"),
            sample("latency_samples"),
            sample("latency_p95_beyond"),
            if r.at(&["detail", "samples", "latency_p95_supported"]) == Some(&Json::Bool(true)) {
                "supported"
            } else {
                "NOT supported, reads as the slowest samples"
            },
            sample("setups"),
            failed,
            attempted,
            failed / attempted,
            r.str_at(&["detail", "sim_digest"]),
        );
        if let Some(raw) = r
            .at(&["detail", "samples", "raw_latency"])
            .filter(|raw| **raw != Json::Null)
        {
            println!(
                "     as the client saw it, host noise included: p50 {} p99 {} ms_host over {} samples ({} beyond p99), quiet pass {} median pass {} ms_host",
                fmt_value(raw.num_at(&["p50_ms"])),
                fmt_value(raw.num_at(&["p99_ms"])),
                raw.num_at(&["samples"]),
                raw.num_at(&["p99_beyond"]),
                sample("quiet_pass_ms"),
                sample("median_pass_ms"),
            );
        }
        for f in r.arr_at(&["detail", "failures"]) {
            println!("     FAILED: {}", f.as_str().unwrap_or("?"));
        }
        if let Some(c) = r.at(&["detail", "counters"]) {
            let cs: Vec<String> = c
                .fields()
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                .collect();
            println!("     exact: {}", cs.join(" "));
        }
    }
    let not_measured: Vec<&str> = traced
        .arr_at(&["detail", "not_measured"])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    println!(
        "   per-layer (traced run, seed {}, nproc {}):",
        traced.str_at(&["detail", "seed"]),
        traced.num_at(&["detail", "nproc"]),
    );
    let traced_runs = std::slice::from_ref(traced);
    for m in &PER_LAYER {
        let v = compare::values(traced_runs, m.name);
        let shown = if not_measured.contains(&m.name) {
            "null".to_string()
        } else {
            v.first().map_or("missing".to_string(), |v| fmt_value(*v))
        };
        let base = spec::ratio_base(m.name).map_or(String::new(), |b| format!("  = {b}"));
        println!("   {:<34} {:>12} {}{base}", m.name, shown, m.unit);
    }
    for f in traced.arr_at(&["detail", "failures"]) {
        println!("     FAILED (traced): {}", f.as_str().unwrap_or("?"));
    }
    if let Some(p) = traced.at(&["detail", "trace_file"]).and_then(Json::as_str) {
        println!("   trace: {p}");
    }
}

fn digest_of(run: &Json) -> Option<&str> {
    run.at(&["detail", "sim_digest"])?.as_str()
}

/// Failed operations of one run; a run without a count counts as one.
fn failed_of(run: &Json) -> f64 {
    run.at(&["result", "failed"])
        .and_then(Json::as_f64)
        .unwrap_or(1.0)
}

/// Run one set; returns the set document and the number of failed
/// operations or checks in it.
fn run_set(plan: &Plan, index: usize) -> Result<(Json, u64), String> {
    let mut workloads = Vec::new();
    let mut failed = 0.0;
    for &name in &plan.workloads {
        let mut runs = Vec::new();
        for r in 0..plan.repeat {
            let seed = plan.seed + r as u64;
            eprintln!("[set {index}] {name} seed {seed} untraced ...");
            runs.push(child(plan, name, seed, false)?);
        }
        eprintln!("[set {index}] {name} seed {} traced ...", plan.seed);
        let traced = child(plan, name, plan.seed, true)?;
        print_workload(name, &runs, &traced);
        failed += runs.iter().map(failed_of).sum::<f64>() + failed_of(&traced);
        workloads.push((
            name.to_string(),
            Json::obj().with("runs", runs).with("traced", traced),
        ));
    }
    // Cross-workload consistency: the cold and the warm campaign run the
    // same grid for a seed, so their digests must agree.
    let find = |name: &str| {
        workloads
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, w)| w.get("runs"))
            .and_then(Json::as_arr)
    };
    if let (Some(cold), Some(warm)) = (find("campaign_cold"), find("campaign_warm")) {
        for (c, w) in cold.iter().zip(warm) {
            let same = digest_of(c).is_some() && digest_of(c) == digest_of(w);
            println!(
                "\ncampaign_cold sim_digest {} campaign_warm sim_digest {}: {}",
                digest_of(c).unwrap_or("?"),
                digest_of(w).unwrap_or("?"),
                if same { "identical" } else { "DIFFERENT" }
            );
            if !same {
                failed += 1.0;
            }
        }
    }
    let set = Json::obj()
        .with("kind", "stamp_benchmark.set")
        .with("seed", plan.seed.to_string())
        .with("seconds", plan.seconds)
        .with("repeat", plan.repeat)
        .with("smoke", plan.smoke)
        .with("nproc", crate::common::nproc())
        .with("workloads", Json::Obj(workloads));
    Ok((set, failed as u64))
}

fn noise_md(plan: &Plan, cmp: &compare::Comparison) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# Noise floor of the benchmark\n");
    let _ = writeln!(
        s,
        "Written by `stamp_benchmark run all --sets 2 --repeat {} --seconds {} --seed {}{}` on a host \
         with {} logical CPUs: two full sets of the same binary, back to back. Each set is {} \
         untraced run(s) per workload, each with another seed.\n",
        plan.repeat,
        plan.seconds,
        plan.seed,
        if plan.smoke { " --smoke" } else { "" },
        crate::common::nproc(),
        plan.repeat,
    );
    let _ = writeln!(
        s,
        "Spread is the distance between the first and third quartile of a set's runs as a share \
         of their median (Python's `statistics.quantiles(values, n=4)`); change is the second \
         set's median against the first's. A metric is steady when both spreads stay under a \
         third of its bound and the change stays inside the bound.\n"
    );
    let _ = writeln!(
        s,
        "| workload | metric | spread set 1 | spread set 2 | median change | bound | verdict |"
    );
    let _ = writeln!(s, "|---|---|---:|---:|---:|---:|---|");
    for r in &cmp.rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.1}% | {:.1}% | {:+.1}% | {:.0}% | {} |",
            r.workload,
            r.metric,
            r.a_spread * 100.0,
            r.b_spread * 100.0,
            r.median_change * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let over: Vec<String> = cmp
        .rows
        .iter()
        .filter(|r| {
            r.metric != "setup_s" && (r.a_spread > r.bound / 3.0 || r.b_spread > r.bound / 3.0)
        })
        .map(|r| format!("{}/{}", r.workload, r.metric))
        .collect();
    let _ = writeln!(
        s,
        "\nSpreads above a third of their bound: {}.",
        if over.is_empty() {
            "none".to_string()
        } else {
            over.join(", ")
        }
    );
    let _ = writeln!(
        s,
        "Exact counts and `sim_digest`: {} seeds differed between the sets (must be 0).",
        cmp.different
    );
    s
}

pub fn run(plan: &Plan) -> Result<ExitCode, String> {
    let dir = out_dir().map_err(|e| format!("create the out directory: {e}"))?;
    let mut sets = Vec::new();
    let mut failed = 0;
    for index in 0..plan.sets {
        let (set, f) = run_set(plan, index + 1)?;
        failed += f;
        let path = dir.join(format!("set-{}.json", index + 1));
        std::fs::write(&path, format!("{set}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nset {} written to {}", index + 1, path.display());
        sets.push(set);
    }
    let mut worse = 0;
    if let [a, b] = sets.as_slice() {
        let bounds_path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&bounds_path)
            .map_err(|e| format!("{}: {e}", bounds_path.display()))?;
        let bounds = compare::bounds(&Json::parse(&text)?)?;
        let cmp = compare::compare(a, b, &bounds);
        println!("\n== set 2 against set 1 ==\n{}", cmp.text);
        worse = cmp.worse;
        failed += cmp.different as u64;
        let path = bench_dir().join("NOISE.md");
        std::fs::write(&path, noise_md(plan, &cmp))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("noise floor written to {}", path.display());
    }
    println!(
        "\n{} failed operations or checks{}",
        failed,
        if plan.sets == 2 {
            format!(", {worse} metrics worse in set 2")
        } else {
            String::new()
        }
    );
    Ok(if failed > 0 || worse > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
