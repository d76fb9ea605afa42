//! `compare A.json B.json`: judge set B against set A, per workload and
//! per end-to-end metric, with the bounds `BENCHMARK.json` fixes.
//!
//! A set holds several runs of each workload (each with another seed).
//! For each metric the rows show both medians and quartiles, the bound,
//! and one verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound (a
//!   difference inside the bound is not a regression by the benchmark's
//!   own rule, however consistent: the host drifts by more between two
//!   sets of one binary);
//! * `better` — every run of B is better than every run of A (five or
//!   more runs a side), or B's median is better by more than A's own
//!   interquartile range and by more than the bound;
//! * `unresolved` — the spread of either side is wider than the bound,
//!   so a median inside the bound is not evidence of "same";
//! * `same` — otherwise.
//!
//! Exact counts and `sim_digest`s are compared per seed: a faster B with
//! a different digest is a *different* simulation, not a faster one.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First quartile, median and third quartile of a side; a single run
/// stands for all three.
pub fn summary(xs: &[f64]) -> Option<(f64, f64, f64)> {
    match xs {
        [] => None,
        [x] => Some((*x, *x, *x)),
        _ => quartiles(xs),
    }
}

/// Judge `b` against `a`. `higher_is_better` gives the direction, `bound`
/// the share of A's median B may worsen by.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Verdict> {
    let (a_q1, a_med, a_q3) = summary(a)?;
    let (b_q1, b_med, b_q3) = summary(b)?;
    // Orient so that larger is better on both sides.
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let gain = sign * (b_med - a_med);
    let scale = a_med.abs();
    if gain < -bound * scale {
        return Some(Verdict::Worse);
    }
    // Every run of B beats every run of A: with five runs a side that
    // happens by chance once in 252 times.
    let worst_b = b.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let best_a = a.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    if a.len() >= 5 && b.len() >= 5 && worst_b > best_a {
        return Some(Verdict::Better);
    }
    let a_iqr = a_q3 - a_q1;
    let b_iqr = b_q3 - b_q1;
    if a_iqr > bound * scale || b_iqr > bound * b_med.abs() {
        return Some(Verdict::Unresolved);
    }
    if gain > a_iqr && gain > bound * scale {
        return Some(Verdict::Better);
    }
    Some(Verdict::Same)
}

/// `name → (higher_is_better, bound)` from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = e
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            let bound = e
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), (better == "higher", bound)))
        })
        .collect()
}

struct Run<'a> {
    seed: &'a str,
    digest: &'a str,
    counters: &'a [(String, Json)],
    failed: f64,
    attempted: f64,
}

fn runs_of<'a>(set: &'a Json, workload: &str) -> Vec<&'a Json> {
    set.arr_at(&["workloads", workload, "runs"])
        .iter()
        .collect()
}

/// The values of `metric` over `runs` (documents written by `run`).
pub fn values<'a>(runs: impl IntoIterator<Item = &'a Json>, metric: &str) -> Vec<f64> {
    runs.into_iter()
        .filter_map(|r| r.at(&["result", "metrics", metric, "value"])?.as_f64())
        .collect()
}

fn run_facts(run: &Json) -> Option<Run<'_>> {
    let detail = run.get("detail")?;
    let result = run.get("result")?;
    Some(Run {
        seed: detail.get("seed")?.as_str()?,
        digest: detail.get("sim_digest")?.as_str()?,
        counters: detail.get("counters")?.fields(),
        failed: result.get("failed")?.as_f64()?,
        attempted: result.get("attempted")?.as_f64()?,
    })
}

/// One end-to-end metric of one workload, B against A. Spreads are
/// interquartile ranges as shares of the side's median.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a_spread: f64,
    pub b_spread: f64,
    pub median_change: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub struct Comparison {
    pub text: String,
    pub worse: usize,
    pub unresolved: usize,
    pub different: usize,
    pub rows: Vec<Row>,
}

/// Compare two sets (documents written by `run`).
pub fn compare(a: &Json, b: &Json, bounds: &BTreeMap<String, (bool, f64)>) -> Comparison {
    let mut out = Comparison {
        text: String::new(),
        worse: 0,
        unresolved: 0,
        different: 0,
        rows: Vec::new(),
    };
    let t = &mut out.text;
    let names: Vec<&str> = a
        .get("workloads")
        .map(|w| w.fields().iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    for workload in names {
        let (ra, rb) = (runs_of(a, workload), runs_of(b, workload));
        if rb.is_empty() {
            let _ = writeln!(t, "{workload}: absent from B");
            continue;
        }
        let _ = writeln!(t, "{workload}: {} runs in A, {} in B", ra.len(), rb.len());
        let _ = writeln!(
            t,
            "  {:<16} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
            "metric", "A median", "A [q1 .. q3]", "B median", "B [q1 .. q3]", "change", "bound"
        );
        for (metric, &(higher, bound)) in bounds {
            let (va, vb) = (
                values(ra.iter().copied(), metric),
                values(rb.iter().copied(), metric),
            );
            let (Some(sa), Some(sb)) = (summary(&va), summary(&vb)) else {
                let _ = writeln!(t, "  {metric:<16} missing on one side");
                continue;
            };
            let v = verdict(&va, &vb, higher, bound).expect("both sides are non-empty");
            match v {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let change = (sb.1 - sa.1) / sa.1.abs();
            let _ = writeln!(
                t,
                "  {metric:<16} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                sa.1,
                format!("[{:.4} .. {:.4}]", sa.0, sa.2),
                sb.1,
                format!("[{:.4} .. {:.4}]", sb.0, sb.2),
                change * 100.0,
                bound * 100.0,
                v.label()
            );
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: metric.clone(),
                a_spread: (sa.2 - sa.0) / sa.1.abs(),
                b_spread: (sb.2 - sb.0) / sb.1.abs(),
                median_change: change,
                bound,
                verdict: v,
            });
        }
        // Exact evidence, seed by seed.
        let by_seed: BTreeMap<&str, Run> = ra
            .iter()
            .filter_map(|r| run_facts(r))
            .map(|r| (r.seed, r))
            .collect();
        let (mut same, mut differ) = (0, 0);
        for rb in rb.iter().filter_map(|r| run_facts(r)) {
            let Some(ra) = by_seed.get(rb.seed) else {
                continue;
            };
            let mut diffs = Vec::new();
            if ra.digest != rb.digest {
                diffs.push(format!("sim_digest {} -> {}", ra.digest, rb.digest));
            }
            for (k, va) in ra.counters {
                let vb = rb.counters.iter().find(|(kb, _)| kb == k).map(|(_, v)| v);
                if vb != Some(va) {
                    diffs.push(format!(
                        "{k} {va} -> {}",
                        vb.map_or("absent".into(), Json::to_string)
                    ));
                }
            }
            // `attempted` counts every pass's operations, and how many
            // passes fit in a run is the host's business: only failures
            // tell two simulations apart.
            if ra.failed != rb.failed {
                diffs.push(format!(
                    "failed {} of {} -> {} of {}",
                    ra.failed, ra.attempted, rb.failed, rb.attempted
                ));
            }
            if diffs.is_empty() {
                same += 1;
            } else {
                differ += 1;
                let _ = writeln!(
                    t,
                    "  seed {}: DIFFERENT simulation: {}",
                    rb.seed,
                    diffs.join("; ")
                );
            }
        }
        out.different += differ;
        let _ = writeln!(
            t,
            "  exact counts and sim_digest: {same} seeds identical, {differ} different"
        );
    }
    let _ = writeln!(
        t,
        "verdicts: {} worse, {} unresolved, {} seeds with a different simulation",
        out.worse, out.unresolved, out.different
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_separation() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Inside the bound, tight spread: same.
        let b = [101.0, 102.0, 100.0, 101.5, 100.5];
        assert_eq!(verdict(&a, &b, true, 0.10), Some(Verdict::Same));
        // Median worse by more than the bound.
        let b = [85.0, 86.0, 84.0, 85.5, 84.5];
        assert_eq!(verdict(&a, &b, true, 0.10), Some(Verdict::Worse));
        // Lower-is-better flips the direction: the same numbers improve.
        assert_eq!(verdict(&a, &b, false, 0.10), Some(Verdict::Better));
        // Every run of B beats every run of A, though inside the bound;
        // the reverse is inside the bound too, and so not a regression.
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(verdict(&a, &b, true, 0.10), Some(Verdict::Better));
        assert_eq!(verdict(&b, &a, true, 0.10), Some(Verdict::Same));
        // Three runs a side separate by chance one time in ten.
        assert_eq!(verdict(&a[..3], &b[..3], true, 0.10), Some(Verdict::Same));
        // A spread wider than the bound resolves nothing.
        let noisy = [80.0, 120.0, 95.0, 110.0, 100.0];
        assert_eq!(verdict(&a, &noisy, true, 0.10), Some(Verdict::Unresolved));
        assert_eq!(verdict(&noisy, &a, true, 0.10), Some(Verdict::Unresolved));
        // ... unless B's median is worse by more than the bound anyway.
        let bad = [60.0, 90.0, 70.0, 80.0, 75.0];
        assert_eq!(verdict(&a, &bad, true, 0.10), Some(Verdict::Worse));
        // Single runs: the bound alone decides.
        assert_eq!(verdict(&[100.0], &[95.0], true, 0.10), Some(Verdict::Same));
        assert_eq!(verdict(&[100.0], &[80.0], true, 0.10), Some(Verdict::Worse));
        assert_eq!(
            verdict(&[100.0], &[120.0], true, 0.10),
            Some(Verdict::Better)
        );
        assert_eq!(verdict(&[], &[1.0], true, 0.10), None);
    }

    fn set(values: &[f64], digest: &str) -> Json {
        let runs: Vec<Json> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Json::obj()
                    .with(
                        "detail",
                        Json::obj()
                            .with("seed", i.to_string())
                            .with("sim_digest", digest)
                            .with("counters", Json::obj().with("events", "42")),
                    )
                    .with(
                        "result",
                        Json::obj()
                            .with("attempted", 10u64)
                            .with("failed", 0u64)
                            .with(
                                "metrics",
                                Json::obj().with(
                                    "ops_per_s",
                                    Json::obj().with("value", *v).with("unit", "1/s_host"),
                                ),
                            ),
                    )
            })
            .collect();
        Json::obj().with(
            "workloads",
            Json::obj().with("w", Json::obj().with("runs", runs)),
        )
    }

    #[test]
    fn compare_reports_rows_digests_and_counts_worse() {
        let mut b = BTreeMap::new();
        b.insert("ops_per_s".to_string(), (true, 0.10));
        let a = set(&[100.0, 101.0, 99.0], "aa");
        let same = compare(&a, &set(&[100.5, 100.0, 99.5], "aa"), &b);
        assert_eq!((same.worse, same.different), (0, 0));
        assert!(
            same.text.contains("3 seeds identical, 0 different"),
            "{}",
            same.text
        );
        let slower = compare(&a, &set(&[80.0, 81.0, 79.0], "bb"), &b);
        assert_eq!(slower.worse, 1);
        assert_eq!(slower.different, 3, "a different digest per seed");
        assert!(slower.text.contains("worse"), "{}", slower.text);
        assert!(
            slower.text.contains("sim_digest aa -> bb"),
            "{}",
            slower.text
        );
        assert_eq!(slower.rows[0].verdict, Verdict::Worse);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b["ops_per_s"], (true, 0.1));
        assert_eq!(b["setup_s"], (false, 0.25));
        assert!(bounds(&Json::obj()).is_err());
    }
}
