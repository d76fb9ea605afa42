//! In-repo micro-benchmark harness: warmup, timed iterations, robust stats.
//!
//! A hermetic replacement for the slice of `criterion` this workspace used:
//! `bench_function` with a closure, a configurable sample count and a
//! text report. Each benchmark runs a warmup phase, then `sample_size`
//! timed samples (each sample runs enough iterations to exceed a minimum
//! measurable duration), and reports min / mean / median / p95 per
//! iteration.
//!
//! Environment knobs (useful in CI):
//! * `STAMP_BENCH_SAMPLES` — override every benchmark's sample count;
//! * `STAMP_BENCH_WARMUP_MS` — override the warmup duration.

use std::time::{Duration, Instant};

/// Re-export of the optimizer barrier, named as benchmark code expects.
pub use std::hint::black_box;

/// Per-benchmark timing statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    pub samples: usize,
    pub iters_per_sample: u64,
    pub min_ns: f64,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub p95_ns: f64,
}

impl BenchStats {
    fn from_samples(per_iter_ns: &mut [f64], iters: u64) -> BenchStats {
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / n as f64;
        BenchStats {
            samples: n,
            iters_per_sample: iters,
            min_ns: per_iter_ns[0],
            mean_ns: mean,
            median_ns: percentile(per_iter_ns, 50.0),
            p95_ns: percentile(per_iter_ns, 95.0),
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Render nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The harness: holds configuration, runs benchmarks, prints a report line
/// per benchmark.
pub struct Harness {
    sample_size: usize,
    warmup: Duration,
    min_sample_time: Duration,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// Default configuration: 20 samples, 200 ms warmup.
    pub fn new() -> Harness {
        Harness {
            sample_size: env_usize("STAMP_BENCH_SAMPLES").unwrap_or(20),
            warmup: Duration::from_millis(env_usize("STAMP_BENCH_WARMUP_MS").unwrap_or(200) as u64),
            min_sample_time: Duration::from_millis(5),
        }
    }

    /// Set the number of timed samples (ignored when the
    /// `STAMP_BENCH_SAMPLES` override is present).
    pub fn sample_size(mut self, n: usize) -> Harness {
        if env_usize("STAMP_BENCH_SAMPLES").is_none() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Run one benchmark and print its report line.
    pub fn bench_function<F: FnMut()>(&self, name: &str, mut f: F) -> BenchStats {
        // Warmup, and calibrate how many iterations one sample needs for
        // the sample to be long enough to measure reliably.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < self.warmup || warmup_iters == 0 {
            f();
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let iters = ((self.min_sample_time.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        Self::report_line(name, BenchStats::from_samples(&mut per_iter_ns, iters))
    }

    /// Benchmark a step that needs untimed work around every repetition
    /// (rewinding a session, running the events that lead up to it): `f`
    /// does all of it, times its own step and returns that. One warmup
    /// call, then one repetition per sample.
    pub fn bench_self_timed<F: FnMut() -> Duration>(&self, name: &str, mut f: F) -> BenchStats {
        f();
        let mut ns: Vec<f64> = (0..self.sample_size)
            .map(|_| f().as_nanos() as f64)
            .collect();
        Self::report_line(name, BenchStats::from_samples(&mut ns, 1))
    }

    fn report_line(name: &str, stats: BenchStats) -> BenchStats {
        println!(
            "{name:<40} median {:>12}   p95 {:>12}   min {:>12}   ({} samples × {} iters)",
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.min_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        stats
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.parse().ok()
}

/// Machine-readable benchmark report: accumulates every benchmark's stats
/// and writes them as a single JSON document (no external serializer — the
/// schema is flat enough to emit by hand).
///
/// Schema: `{ "benchmarks": [ { "name": str, "median_ns": f, "p95_ns": f,
/// "mean_ns": f, "min_ns": f, "samples": n, "iters_per_sample": n } ] }`.
#[derive(Debug, Default)]
pub struct JsonReport {
    entries: Vec<(String, BenchStats)>,
}

impl JsonReport {
    /// Empty report.
    pub fn new() -> JsonReport {
        JsonReport::default()
    }

    /// Run a benchmark through `h` and record its stats under `name`.
    pub fn bench<F: FnMut()>(&mut self, h: &Harness, name: &str, f: F) -> BenchStats {
        let stats = h.bench_function(name, f);
        self.entries.push((name.to_string(), stats));
        stats
    }

    /// Record externally measured stats.
    pub fn push(&mut self, name: &str, stats: BenchStats) {
        self.entries.push((name.to_string(), stats));
    }

    /// Serialise the report. Records the host's logical CPU count so
    /// absolute timings are legible as a machine property (the CI
    /// container is often single-core).
    pub fn to_json(&self) -> String {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut s = format!("{{\n  \"cores\": {cores},\n  \"benchmarks\": [\n");
        for (i, (name, b)) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"name\": \"{}\", \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \
                 \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \
                 \"iters_per_sample\": {} }}{}\n",
                name.replace('"', "\\\""),
                b.median_ns,
                b.p95_ns,
                b.mean_ns,
                b.min_ns,
                b.samples,
                b.iters_per_sample,
                if i + 1 == self.entries.len() { "" } else { "," },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the JSON document to `path` (parent directories must exist).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_sane() {
        let h = Harness::new().sample_size(5);
        let mut acc = 0u64;
        let stats = h.bench_function("spin_small", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
        });
        assert!(stats.min_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
        assert_eq!(stats.samples, 5);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 95.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn formatting_picks_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
