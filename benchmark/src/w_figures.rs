//! `paper_figures`: what a reader of the paper runs — the four failure
//! figures (`run_failure_experiment` for single link, two links on
//! different ASes, two links on the same AS, node failure) over all four
//! protocols at `nproc` workers, plus the Φ analysis and the partial
//! deployment analysis, at 2000 ASes.
//!
//! The only workload through the experiments crate's own thread pool,
//! the fourth protocol (R-BGP without RCI) and the pure-topology Φ path.

use crate::cell::digest_metrics;
use crate::common::{
    repeat_setup, repeat_setup_again, timed, timed_passes, Checks, RunCfg, Traced, Untraced,
};
use crate::stats::Digest;
use crate::trace::{spanned, Tracer};
use stamp_eventsim::derive_seed;
use stamp_experiments::{
    run_failure_experiment, run_partial_deployment, run_phi_experiment, FailureConfig,
    FailureReport, PartialConfig, PhiExperimentConfig, Protocol,
};
use stamp_topology::{generate, GenConfig};
use stamp_workload::{FailureScenario, RunParams};
use std::time::Instant;

const FIGURES: [(FailureScenario, &str); 4] = [
    (FailureScenario::SingleLink, "experiments.fig2"),
    (FailureScenario::TwoLinksDifferentAs, "experiments.fig3a"),
    (FailureScenario::TwoLinksSameAs, "experiments.fig3b"),
    (FailureScenario::NodeFailure, "experiments.node_failure"),
];

struct Inputs {
    /// One config per call of a failure figure: a figure is regenerated
    /// in a few calls of two instances each (another seed per call), so
    /// that a timed unit is tens of milliseconds — see the README's "Why
    /// minima" — and the runner's pool still has two instances to share.
    failure: Vec<FailureConfig>,
    phi: PhiExperimentConfig,
    partial: PartialConfig,
    /// Size of the topology every figure call regenerates from `gen`.
    ases: usize,
    links: usize,
}

// Field by field from `default()`: a field added to these configs later
// must not break this package, which the PR adding it may not edit.
#[allow(clippy::field_reassign_with_default)]
fn setup(cfg: &RunCfg) -> Inputs {
    // The failure instances are the world's: a figure seed picks each
    // instance's destination and failure as well as its delays, and the
    // cost of an instance varies several-fold with what fails, so 24
    // freshly drawn instances differ by ~20 % in total cost. The reader
    // this workload stands for regenerates the same figures every time.
    // `--seed` draws the samples of the two analyses.
    let seed = cfg.sub_seed(30);
    let figure_seed = cfg.world_seed(31);
    let gen = GenConfig {
        n_ases: cfg.size(2000, 200),
        ..if cfg.smoke {
            GenConfig::small(cfg.world_seed(30))
        } else {
            GenConfig::sim_scale(cfg.world_seed(30))
        }
    };
    // The runners generate the topology themselves, once per call, and
    // panic on a config that does not generate; set-up generates it once
    // to check the config and to record what the figures run on.
    let g = generate(&gen).expect("the figure generator config is valid");
    let failure = (0..cfg.size(3, 1) as u64)
        .map(|call| FailureConfig {
            gen: gen.clone(),
            instances: 2,
            seed: derive_seed(figure_seed, call),
            params: RunParams::paper(),
            threads: cfg.nproc,
        })
        .collect();
    let mut phi = PhiExperimentConfig::default();
    phi.gen = gen.clone();
    phi.phi.seed = seed;
    phi.phi.samples = cfg.size(60, 20);
    let mut partial = PartialConfig::default();
    partial.gen = gen;
    partial.seed = seed;
    partial.max_destinations = cfg.size(100, 20);
    partial.phi = phi.phi.clone();
    Inputs {
        failure,
        phi,
        partial,
        ases: g.n(),
        links: g.n_links(),
    }
}

struct PassOut {
    reports: Vec<FailureReport>,
    digest: Digest,
}

/// One regeneration of every figure; the milliseconds of each call are
/// appended to `units`. With a tracer each call carries a span (the
/// runner is opaque from outside: one span per call, named after its
/// figure).
fn pass(inputs: &Inputs, mut tr: Option<&mut Tracer>, units: &mut Vec<f64>) -> PassOut {
    let mut digest = Digest::default();
    let mut reports = Vec::new();
    for (scenario, span) in FIGURES {
        for failure in &inputs.failure {
            let rep = timed(units, || {
                spanned(&mut tr, span, || {
                    run_failure_experiment(failure, scenario, &Protocol::ALL)
                })
            });
            for (_, r) in &rep.results {
                for m in &r.per_instance {
                    digest_metrics(&mut digest, m);
                }
            }
            reports.push(rep);
        }
    }
    let phi = timed(units, || {
        spanned(&mut tr, "experiments.fig1", || {
            run_phi_experiment(&inputs.phi)
        })
    });
    digest.f64(phi.random.mean);
    digest.f64(phi.smart.as_ref().map_or(0.0, |s| s.mean));
    let partial = timed(units, || {
        spanned(&mut tr, "experiments.partial", || {
            run_partial_deployment(&inputs.partial)
        })
    });
    digest.f64(partial.partial_fraction);
    digest.f64(partial.full_mean_phi);
    digest.u64(partial.destinations_evaluated as u64);
    PassOut { reports, digest }
}

/// A figure instance of one protocol that did not converge is a failed
/// operation.
fn account(p: &PassOut, checks: &mut Checks) {
    for rep in &p.reports {
        for (proto, r) in &rep.results {
            for (i, m) in r.per_instance.iter().enumerate() {
                checks.check(m.outcome.is_converged(), || {
                    format!(
                        "{} instance {i} {proto}: {:?}",
                        rep.scenario.slug(),
                        m.outcome
                    )
                });
            }
        }
    }
}

pub fn untraced(cfg: &RunCfg) -> Untraced {
    let (inputs, setup_s) = repeat_setup(|| setup(cfg), drop);
    let mut out = Untraced {
        setup_s,
        ..Untraced::default()
    };
    let mut passes = Vec::new();
    out.unit_ms = timed_passes(cfg.seconds, 3, |_| {
        let mut units = Vec::new();
        passes.push(pass(&inputs, None, &mut units));
        units
    });
    repeat_setup_again(&mut out.setup_s, || setup(cfg), drop);
    for p in &passes {
        account(p, &mut out.checks);
    }
    let first = passes[0].digest;
    let drifted = passes.iter().filter(|p| p.digest != first).count();
    out.checks.check(drifted == 0, || {
        format!("{drifted} passes produced different figures than the first")
    });
    let instances = FIGURES.len() * inputs.failure.iter().map(|f| f.instances).sum::<usize>();
    out.ops_per_pass = instances as f64;
    out.latencies_ms = vec![out.batch_latency_ms()];
    out.digest = first;
    out.counters
        .insert("topology_ases".to_string(), inputs.ases as u64);
    out.counters
        .insert("topology_links".to_string(), inputs.links as u64);
    out.counters
        .insert("instances_per_pass".to_string(), instances as u64);
    out.counters.insert(
        "protocol_instances_per_pass".to_string(),
        (instances * Protocol::ALL.len()) as u64,
    );
    out
}

pub fn traced(cfg: &RunCfg, tr: &mut Tracer, out: &mut Traced) {
    let inputs = setup(cfg);
    let t0 = Instant::now();
    let mut units = Vec::new();
    let plain = pass(&inputs, None, &mut units);
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let spanned = pass(&inputs, Some(tr), &mut units);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    account(&spanned, &mut out.checks);
    out.checks.check(plain.digest == spanned.digest, || {
        "traced pass produced different figures than the untraced pass".to_string()
    });
    out.digest = spanned.digest;
    out.set("trace.pass_ms", traced_ms);
    out.set("trace.untraced_pass_ms", untraced_ms);

    // The runner's own pool: Figure 2 (its calls are the first reports of
    // a pass) at one worker over nproc × Figure 2 at nproc workers. One
    // worker must also produce the same figure.
    let mut t1 = 0.0;
    let mut same = true;
    for (failure, at_nproc) in inputs.failure.iter().zip(&spanned.reports) {
        let mut serial = failure.clone();
        serial.threads = 1;
        let t0 = Instant::now();
        let one = run_failure_experiment(&serial, FailureScenario::SingleLink, &Protocol::ALL);
        t1 += t0.elapsed().as_secs_f64();
        same &= one
            .results
            .iter()
            .zip(&at_nproc.results)
            .all(|(a, b)| a.0 == b.0 && a.1.per_instance == b.1.per_instance);
    }
    out.checks.check(same, || {
        "Figure 2 at one worker differs from Figure 2 at nproc workers".to_string()
    });
    if cfg.nproc > 1 {
        let tn = tr.durations("experiments.fig2").iter().sum::<f64>() / 1e9;
        out.set(
            "experiments.parallel_efficiency",
            t1 / (cfg.nproc as f64 * tn),
        );
    } else {
        out.not_measured.push("experiments.parallel_efficiency");
    }
}
