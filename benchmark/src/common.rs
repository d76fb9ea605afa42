//! What every workload shares: the run configuration, failure accounting,
//! the shapes of an untraced and a traced result, and the timing loops.

use crate::stats::{quiet, Digest};
use stamp_eventsim::derive_seed;
use stamp_topology::{generate, AsGraph, AsId, GenConfig};
use stamp_workload::{Protocol, RunParams, Sim, PREFIX};
use std::collections::BTreeMap;
use std::time::Instant;

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed passes run (host seconds).
    pub seconds: f64,
    /// Tiny sizes, same code paths and checks.
    pub smoke: bool,
    /// Logical CPUs; the parallel workloads use exactly this many workers.
    pub nproc: usize,
}

impl RunCfg {
    /// A sub-seed for one purpose: adding a consumer never perturbs the
    /// others. Tags are the benchmark's own (the product's live below
    /// 0x100).
    pub fn sub_seed(&self, tag: u64) -> u64 {
        derive_seed(self.seed, 0xBE00 + tag)
    }

    /// The seed of the *world* a workload runs in — topologies, served
    /// destinations, the campaign grid's timelines. It does not depend on
    /// `--seed`: see the README's "What the seed changes".
    pub fn world_seed(&self, tag: u64) -> u64 {
        derive_seed(0x57A3_9C0D_E5EE_D000, tag)
    }

    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The topology every 2000-AS workload runs on: the campaign binary's
/// `campaign_2000` generator row (`GenConfig::small` resized).
pub fn small_graph(n_ases: usize, seed: u64) -> AsGraph {
    generate(&GenConfig {
        n_ases,
        ..GenConfig::small(seed)
    })
    .expect("GenConfig::small resized is a valid generator config")
}

/// The three protocols every simulated workload runs (the figures add
/// R-BGP without RCI through `Protocol::ALL`).
pub const PROTOCOLS: [Protocol; 3] = [Protocol::Bgp, Protocol::Rbgp, Protocol::Stamp];

/// A session of `protocol` on `g` with `dest` originating the prefix.
pub fn session(g: &AsGraph, protocol: Protocol, dest: AsId, seed: u64, params: &RunParams) -> Sim {
    Sim::on(g)
        .protocol(protocol)
        .originate(dest, PREFIX)
        .seed(seed)
        .params(params.clone())
        .build()
        .expect("benchmark destinations are chosen from the graph they run on")
}

/// Attempted and failed operations, with every failure named — a failure
/// is listed, never averaged away.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation or consistency check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Bounded: a systematically failing run must not grow without
            // limit; the count above stays exact.
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `attempted` like operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.ok(attempted - failed);
        for _ in 0..failed {
            self.check(false, || what.to_string());
        }
    }
}

/// Result of the untraced run: the raw samples the end-to-end metrics are
/// computed from, plus the evidence of correctness.
#[derive(Debug, Default, Clone)]
pub struct Untraced {
    /// Operations completed by one pass (all passes are identical).
    pub ops_per_pass: f64,
    /// Where a pass is several jobs whose rates are worth equal weight
    /// (`converge_scale`'s three topology sizes): the units and the
    /// operations of each job, in unit order. `ops_per_s` is then the mean
    /// of the jobs' rates; empty means the pass is one job.
    pub jobs: Vec<Job>,
    /// Host milliseconds of every timed unit of every pass,
    /// `unit_ms[pass][unit]`. A unit is the finest call the workload can
    /// time from outside — one convergence, one figure, one campaign, one
    /// request — and every pass times the same units in the same order.
    pub unit_ms: Vec<Vec<f64>>,
    /// Latency samples in host milliseconds (see `Workload::latency_of`),
    /// each a quiet time.
    pub latencies_ms: Vec<f64>,
    /// Query workloads: every request of every pass as the client timed
    /// it, host noise included. Reported, not gated.
    pub raw_latencies_ms: Vec<f64>,
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    pub checks: Checks,
    /// FNV-1a over every simulated statistic of one pass.
    pub digest: Digest,
    /// Exact counts of one pass; identical across passes, runs and hosts.
    pub counters: BTreeMap<String, u64>,
}

/// A run of consecutive units of a pass and the operations they complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub units: usize,
    pub ops: f64,
}

impl Untraced {
    /// Operations per host second on a quiet host: the operations of a
    /// pass over the sum of its units' quiet times — or, where the pass
    /// is several [`Job`]s, the mean of that ratio over the jobs.
    pub fn ops_per_s(&self) -> f64 {
        let quiet = self.quiet_units_ms();
        let whole = [Job {
            units: quiet.len(),
            ops: self.ops_per_pass,
        }];
        let jobs = if self.jobs.is_empty() {
            &whole[..]
        } else {
            &self.jobs[..]
        };
        let mut at = 0;
        let mut rates = 0.0;
        for job in jobs {
            let ms: f64 = quiet[at..at + job.units].iter().sum();
            rates += job.ops / (ms / 1e3);
            at += job.units;
        }
        assert_eq!(at, quiet.len(), "the jobs cover every unit of a pass");
        rates / jobs.len() as f64
    }

    /// A batch job has one latency, its completion: a pass at the reported
    /// rate, in host milliseconds. With one job that is the sum of the
    /// units' quiet times; with several it weighs them as the rate does.
    pub fn batch_latency_ms(&self) -> f64 {
        self.ops_per_pass / self.ops_per_s() * 1e3
    }

    /// What each unit costs on a quiet host: [`quiet`] over the passes.
    /// The host's noise rises and falls within a pass, so it hits
    /// different units in different passes: the sum of the units' quiet
    /// times is steadier than the quietest whole pass, the more so the
    /// finer the units.
    pub fn quiet_units_ms(&self) -> Vec<f64> {
        let units = self.unit_ms.first().map_or(0, Vec::len);
        (0..units)
            .map(|u| {
                let across: Vec<f64> = self.unit_ms.iter().map(|pass| pass[u]).collect();
                quiet(&across).expect("at least one pass ran")
            })
            .collect()
    }

    /// Wall milliseconds of each pass as it ran (its units summed).
    pub fn pass_ms(&self) -> Vec<f64> {
        self.unit_ms.iter().map(|pass| pass.iter().sum()).collect()
    }
}

/// Result of the traced run: per-layer values by name (names absent here
/// read 0 in the result line), and values that are honestly "not
/// measured" (`null` in reports: a parallel efficiency on one core).
#[derive(Debug, Default, Clone)]
pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub not_measured: Vec<&'static str>,
    pub checks: Checks,
    pub digest: Digest,
    pub counters: BTreeMap<String, u64>,
}

impl Traced {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Run `setup` several times and keep the last state: at least three
/// times, and on until the set-ups so far took a second (up to fifty), so
/// a millisecond-scale set-up has many timings for [`quiet`] to pick from.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let begin = Instant::now();
    loop {
        let t0 = Instant::now();
        let state = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough =
            times.len() >= 3 && (begin.elapsed().as_secs_f64() >= 1.0 || times.len() >= 50);
        if enough {
            return (state, times);
        }
        teardown(state);
    }
}

/// A second burst of set-ups, run after the timed passes: the host's
/// noise comes in stretches longer than a burst, so two bursts ten
/// seconds apart give [`quiet`] two chances of a quiet one.
pub fn repeat_setup_again<S>(
    times: &mut Vec<f64>,
    setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) {
    let (last, more) = repeat_setup(setup, &mut teardown);
    teardown(last);
    times.extend(more);
}

/// `f` on the clock: its host milliseconds are appended to `units`.
pub fn timed<T>(units: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    units.push(t0.elapsed().as_secs_f64() * 1e3);
    out
}

/// Run identical passes for `seconds` (at least `min_passes`). `pass`
/// receives the pass index and returns the milliseconds of its timed
/// units; the result is `unit_ms[pass][unit]`.
pub fn timed_passes(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Vec<f64>,
) -> Vec<Vec<f64>> {
    let mut unit_ms = Vec::new();
    let begin = Instant::now();
    while unit_ms.len() < min_passes || begin.elapsed().as_secs_f64() < seconds {
        unit_ms.push(pass(unit_ms.len()));
    }
    unit_ms
}

/// Median wall time of `f` in nanoseconds over `samples` samples of
/// `iters` calls each — the unit-cost probes' timer.
pub fn probe_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    crate::stats::median(&per_call).expect("at least one sample")
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_name_failures() {
        let mut c = Checks::default();
        c.ok(3);
        c.check(true, || unreachable!());
        c.check(false, || "cell 7 diverged".to_string());
        c.tally(4, 1, "a bad frame");
        assert_eq!((c.attempted, c.failed), (9, 2));
        assert_eq!(c.failures, ["cell 7 diverged", "a bad frame"]);
    }

    #[test]
    fn setup_repeats_at_least_three_times_and_tears_down_all_but_the_last() {
        let mut made = 0;
        let mut torn = 0;
        let (last, times) = repeat_setup(
            || {
                made += 1;
                made
            },
            |_| torn += 1,
        );
        assert!(times.len() >= 3);
        assert_eq!(last, times.len());
        assert_eq!(torn, times.len() - 1);
    }

    #[test]
    fn a_second_burst_adds_its_timings_and_keeps_no_state() {
        let mut times = vec![0.001; 3];
        let (mut made, mut torn) = (0, 0);
        repeat_setup_again(&mut times, || made += 1, |()| torn += 1);
        assert!(times.len() >= 6 && made == torn && made == times.len() - 3);
    }

    #[test]
    fn timed_passes_honour_the_minimum_and_keep_unit_times() {
        let mut seen = Vec::new();
        let unit_ms = timed_passes(0.0, 4, |i| {
            seen.push(i);
            let mut units = Vec::new();
            timed(&mut units, || ());
            units.push(i as f64);
            units
        });
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(unit_ms.len(), 4);
        assert!(unit_ms.iter().all(|u| u.len() == 2 && u[0] >= 0.0));
    }

    #[test]
    fn quiet_units_take_each_unit_over_the_passes() {
        let u = Untraced {
            // Noise hit unit 0 in passes 0-1 and unit 1 in passes 2-3: no
            // pass was quiet, every unit was.
            unit_ms: vec![
                vec![13.0, 20.0],
                vec![13.5, 20.5],
                vec![10.5, 27.0],
                vec![10.0, 26.0],
            ],
            ..Untraced::default()
        };
        assert_eq!(u.quiet_units_ms(), [10.0, 20.0]);
        assert_eq!(u.pass_ms(), [33.0, 34.0, 37.5, 36.0]);
        // One job: 60 operations in 30 quiet ms. Two jobs: the mean of
        // 20 in 10 ms and 40 in 20 ms.
        let one = Untraced {
            ops_per_pass: 60.0,
            ..u.clone()
        };
        assert_eq!(one.ops_per_s(), 2000.0);
        assert!((one.batch_latency_ms() - 30.0).abs() < 1e-9);
        let two = Untraced {
            jobs: vec![
                Job {
                    units: 1,
                    ops: 30.0,
                },
                Job {
                    units: 1,
                    ops: 20.0,
                },
            ],
            ..one
        };
        assert_eq!(two.ops_per_s(), (3000.0 + 1000.0) / 2.0);
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_by_seed() {
        let a = RunCfg {
            seed: 1,
            seconds: 0.0,
            smoke: true,
            nproc: 1,
        };
        let b = RunCfg { seed: 2, ..a };
        assert_ne!(a.sub_seed(1), a.sub_seed(2));
        assert_ne!(a.sub_seed(1), b.sub_seed(1));
        assert_eq!(a.size(10, 3), 3);
    }
}
