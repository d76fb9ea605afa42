//! One run of one workload, end to end: dispatch, the traced run's
//! bookkeeping, and the two lines a run prints — a detail object (digest,
//! exact counters, sample counts, named failures) and, last, the result
//! object the acceptance check reads.

use crate::common::{peak_rss_mb, Checks, RunCfg, Traced, Untraced};
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quiet};
use crate::trace::Tracer;
use crate::{probes, w_campaign, w_converge, w_figures, w_query};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's own directory: where it was built, or `./benchmark`
/// when the binary was moved.
pub fn bench_dir() -> PathBuf {
    let built = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if built.is_dir() {
        built
    } else {
        PathBuf::from("benchmark")
    }
}

pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_untraced(workload: &str, cfg: &RunCfg) -> Untraced {
    match workload {
        "converge_scale" => w_converge::untraced(cfg),
        "paper_figures" => w_figures::untraced(cfg),
        "campaign_cold" => w_campaign::untraced_cold(cfg),
        "campaign_warm" => w_campaign::untraced_warm(cfg),
        "query_hit" => w_query::untraced(cfg, false),
        "query_churn" => w_query::untraced(cfg, true),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

fn run_traced(workload: &str, cfg: &RunCfg, tr: &mut Tracer, out: &mut Traced) {
    match workload {
        "converge_scale" => w_converge::traced(cfg, tr, out),
        "paper_figures" => w_figures::traced(cfg, tr, out),
        "campaign_cold" => w_campaign::traced(cfg, false, tr, out),
        "campaign_warm" => w_campaign::traced(cfg, true, tr, out),
        "query_hit" => w_query::traced(cfg, false, tr, out),
        "query_churn" => w_query::traced(cfg, true, tr, out),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// What the tracer itself knows, under the `trace.*` names: self time per
/// layer and the cell steps, in host milliseconds of this traced pass.
fn trace_metrics(tr: &Tracer, out: &mut Traced) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let layers = tr.layer_self_ns();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0);
    out.set("trace.topology_ms", ms(layer("topology")));
    out.set("trace.workload_ms", ms(layer("workload")));
    out.set("trace.experiments_ms", ms(layer("experiments")));
    out.set("trace.queryd_ms", ms(layer("queryd")));
    out.set("trace.bgp_converge_ms", ms(total("bgp.converge")));
    out.set("trace.sim_build_ms", ms(total("workload.sim_build")));
    out.set("trace.sim_restore_ms", ms(total("workload.sim_restore")));
    out.set("trace.checkpoint_ms", ms(total("workload.checkpoint")));
    out.set(
        "trace.cache_ms",
        ms(total("workload.cache_get") + total("workload.cache_put")),
    );
    let replay = total("decompose.play_null");
    out.set("trace.replay_ms", ms(replay));
    // What observing and classifying added to the replays: measure minus
    // the same timeline played under `NullProbe`.
    out.set(
        "trace.forwarding_ms",
        ms(total("workload.measure").saturating_sub(replay)),
    );
    out.set("trace.spans", tr.spans().len() as f64);
    for (name, metric) in [
        ("experiments.fig1", "experiments.fig1_ms"),
        ("experiments.fig2", "experiments.fig2_ms"),
        ("experiments.fig3a", "experiments.fig3a_ms"),
        ("experiments.fig3b", "experiments.fig3b_ms"),
        ("experiments.node_failure", "experiments.node_failure_ms"),
        ("experiments.partial", "experiments.partial_ms"),
    ] {
        out.set(metric, ms(total(name)));
    }
    let (traced, plain) = (
        out.values.get("trace.pass_ms").copied().unwrap_or(0.0),
        out.values
            .get("trace.untraced_pass_ms")
            .copied()
            .unwrap_or(0.0),
    );
    // Base: the untraced pass. Includes the decomposition's extra replay
    // and rewind where cells are traced, not just the clock reads.
    out.set(
        "trace_overhead_share",
        if plain > 0.0 {
            (traced - plain) / plain
        } else {
            0.0
        },
    );
}

/// Percentiles of the pooled, noise-included samples with their support;
/// `null` for the batch workloads, which have none.
fn raw_latency(samples_ms: &[f64]) -> Json {
    let (Some(p50), Some(p99)) = (percentile(samples_ms, 50.0), percentile(samples_ms, 99.0))
    else {
        return Json::Null;
    };
    Json::obj()
        .with("p50_ms", p50.value)
        .with("p99_ms", p99.value)
        .with("samples", p99.samples)
        .with("p99_beyond", p99.beyond)
        .with("p99_supported", p99.supported())
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn counters_json(counters: &BTreeMap<String, u64>) -> Json {
    // As strings: hashes and event totals can exceed 2^53.
    Json::Obj(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.to_string())))
            .collect(),
    )
}

fn detail_base(workload: &str, cfg: &RunCfg, trace: bool, checks: &Checks) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("seed", cfg.seed.to_string())
        .with("trace", trace)
        .with("seconds", cfg.seconds)
        .with("smoke", cfg.smoke)
        .with("nproc", cfg.nproc)
        .with(
            "failures",
            checks
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
}

fn result_line(checks: &Checks, metrics: Vec<(String, Json)>) -> Json {
    Json::obj()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted.max(1))
        .with("failed", checks.failed)
        .with("metrics", Json::Obj(metrics))
}

/// Run `workload` once; returns the detail object and the result object.
pub fn run(workload: &str, cfg: &RunCfg, trace: bool) -> (Json, Json) {
    let w = spec::workload(workload).expect("workload validated by the caller");
    if !trace {
        let u = run_untraced(workload, cfg);
        // Throughput and set-up are timings of identical repeated work:
        // each is taken as on a quiet host (see `stats::quiet`), the pass
        // as the sum of its units' quiet times.
        let quiet_pass_ms: f64 = u.quiet_units_ms().iter().sum();
        let pass_ms = u.pass_ms();
        let p50 = percentile(&u.latencies_ms, 50.0).expect("at least one latency sample");
        let p95 = percentile(&u.latencies_ms, 95.0).expect("at least one latency sample");
        let values = [
            u.ops_per_s(),
            p50.value,
            p95.value,
            peak_rss_mb().expect("VmHWM in /proc/self/status"),
            quiet(&u.setup_s).expect("at least one set-up"),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), metric_obj(v, m.unit)))
            .collect();
        let round = |ms: f64| Json::from((ms * 10.0).round() / 10.0);
        let detail = detail_base(workload, cfg, trace, &u.checks)
            .with("op", w.op)
            .with("latency_of", w.latency_of)
            .with("sim_digest", format!("{:016x}", u.digest.0))
            .with("counters", counters_json(&u.counters))
            .with(
                "samples",
                Json::obj()
                    .with("passes", pass_ms.len())
                    .with("units_per_pass", u.unit_ms[0].len())
                    .with("ops_per_pass", u.ops_per_pass)
                    .with("quiet_pass_ms", round(quiet_pass_ms))
                    .with(
                        "median_pass_ms",
                        round(median(&pass_ms).expect("at least one timed pass")),
                    )
                    .with("latency_samples", p95.samples)
                    .with("latency_p95_beyond", p95.beyond)
                    .with("latency_p95_supported", p95.supported())
                    .with("raw_latency", raw_latency(&u.raw_latencies_ms))
                    .with("setups", u.setup_s.len())
                    .with(
                        "pass_ms",
                        pass_ms.iter().map(|&ms| round(ms)).collect::<Vec<_>>(),
                    ),
            );
        (detail, result_line(&u.checks, metrics))
    } else {
        let mut out = Traced::default();
        probes::run(cfg, &mut out);
        let mut tr = Tracer::new();
        run_traced(workload, cfg, &mut tr, &mut out);
        trace_metrics(&tr, &mut out);
        let file = out_dir().and_then(|dir| {
            let path = dir.join(format!("trace-{workload}.json"));
            std::fs::write(&path, format!("{}\n", tr.to_json(workload)))?;
            Ok(path)
        });
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                // A layer this workload does not enter reads 0; so does a
                // value that was not measured (named in the detail line).
                let v = out.values.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    metric_obj(if v.is_finite() { v } else { 0.0 }, m.unit),
                )
            })
            .collect();
        for name in out.values.keys() {
            debug_assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a declared per-layer metric"
            );
        }
        let detail = detail_base(workload, cfg, trace, &out.checks)
            .with("sim_digest", format!("{:016x}", out.digest.0))
            .with("counters", counters_json(&out.counters))
            .with(
                "not_measured",
                out.not_measured
                    .iter()
                    .map(|n| Json::from(*n))
                    .collect::<Vec<_>>(),
            )
            .with(
                "trace_file",
                match file {
                    Ok(p) => Json::from(p.display().to_string()),
                    Err(e) => Json::from(format!("not written: {e}")),
                },
            );
        (detail, result_line(&out.checks, metrics))
    }
}
