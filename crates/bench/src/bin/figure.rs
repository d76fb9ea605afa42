//! `figure <name>`: regenerate one of the paper's figures or §6.3 tables
//! as text on stdout. [`USAGE`] lists the eight names.

#![forbid(unsafe_code)]

use stamp_bench::read_args;
use stamp_experiments::render::{
    render_failure_report, render_partial_report, render_phi_report, table,
};
use stamp_experiments::FailureScenario::{
    NodeFailure, SingleLink, TwoLinksDifferentAs, TwoLinksSameAs,
};
use stamp_experiments::{
    run_failure_experiment, run_partial_deployment, run_phi_experiment, FailureConfig,
    FailureReport, FailureScenario, PartialConfig, PhiExperimentConfig, Protocol, ProtocolResult,
};
use stamp_topology::GenConfig;

/// What a figure runs and how it prints.
enum Kind {
    /// Static Φ analysis over all destinations (8000 ASes).
    Phi,
    /// A failure scenario under all four protocols, 30 instances.
    Failure(FailureScenario),
    /// Single link failure, 20 instances: the convergence-delay table.
    Convergence,
    /// Single link failure, 20 instances, BGP vs STAMP: the update counts.
    Overhead,
    /// STAMP at tier-1 only (4000 ASes, at most 400 destinations).
    Partial,
}

const USAGE: &str = "figure <name> [--ases N] [--instances N] [--seed N] [--threads N]\n\
    Prints the named figure; each has its own default seed and size.\n\
    fig1 is a static analysis: --instances and --threads do nothing there;\n\
    partial_deployment's --instances bounds the evaluated destinations.\n  \
    fig1                Figure 1: CDF of Phi over all destinations, with smart selection\n  \
    fig2                Figure 2: ASes with transient problems, single link failure\n  \
    fig3a               Figure 3(a): two failed links, different ASes\n  \
    fig3b               Figure 3(b): two failed links, same AS\n  \
    node_failure        Sec. 6.2.2: single node (AS) failure\n  \
    convergence         Sec. 6.3: convergence delay after a single link failure\n  \
    overhead            Sec. 6.3: protocol message overhead, STAMP vs BGP\n  \
    partial_deployment  Sec. 6.3: partial deployment (STAMP at tier-1 only)";

fn print_convergence(rep: &FailureReport) {
    println!(
        "== Convergence delay after a single link failure (Sec. 6.3) — {} ASes, {} instances ==\n",
        rep.n_ases, rep.instances
    );
    let rows: Vec<Vec<String>> = rep
        .results
        .iter()
        .map(|(p, r)| {
            vec![
                p.label().to_string(),
                format!("{:.1}", r.convergence_mean_s()),
                format!("{:.1}", r.data_recovery_mean_s()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            "Convergence (control plane) and data-plane recovery, seconds \
             after the event (paper: STAMP responds faster than BGP):",
            &["protocol", "convergence s", "data-plane recovery s"],
            &rows,
        )
    );
}

fn print_overhead(rep: &FailureReport) {
    let bgp = rep.of(Protocol::Bgp);
    let stamp = rep.of(Protocol::Stamp);
    println!(
        "== Protocol message overhead (Sec. 6.3) — {} ASes, {} instances ==\n",
        rep.n_ases, rep.instances
    );
    // Both phases against BGP's: the paper's < 2x claim names no phase,
    // and the failure phase is the transient it is about.
    let ratio = |r: &ProtocolResult| {
        let initial = r.updates_initial_mean() / bgp.updates_initial_mean().max(1.0);
        let failure = r.updates_failure_mean() / bgp.updates_failure_mean().max(1.0);
        [format!("{initial:.2}x"), format!("{failure:.2}x")]
    };
    let row = |name: &str, r: &ProtocolResult| {
        let (initial, failure) = (r.updates_initial_mean(), r.updates_failure_mean());
        let mut row = vec![
            name.to_string(),
            format!("{initial:.0}"),
            format!("{failure:.0}"),
        ];
        row.extend(ratio(r));
        row
    };
    let rows = vec![row("BGP", bgp), row("STAMP (two processes)", stamp)];
    println!(
        "{}",
        table(
            "Updates sent (paper: STAMP < 2x BGP with two parallel processes):",
            &[
                "protocol",
                "initial convergence",
                "failure phase",
                "initial ratio",
                "failure ratio"
            ],
            &rows,
        )
    );
}

fn main() {
    let (default_seed, kind, ases, instances, seed, threads) = read_args(USAGE, |a| {
        let (default_seed, kind) = match a.positional() {
            Some("fig1") => (0xF161, Kind::Phi),
            Some("fig2") => (0xF162, Kind::Failure(SingleLink)),
            Some("fig3a") => (0xF3A, Kind::Failure(TwoLinksDifferentAs)),
            Some("fig3b") => (0xF3B, Kind::Failure(TwoLinksSameAs)),
            Some("node_failure") => (0x6F, Kind::Failure(NodeFailure)),
            Some("convergence") => (0xC0, Kind::Convergence),
            Some("overhead") => (0x07EA, Kind::Overhead),
            Some("partial_deployment") => (0x6E3, Kind::Partial),
            Some(name) => return Err(format!("no figure named {name:?}")),
            None => return Err("which figure?".to_string()),
        };
        let (ases, instances) = (a.value("--ases")?, a.value("--instances")?);
        let (seed, threads) = (a.value("--seed")?, a.value("--threads")?);
        Ok((
            default_seed,
            kind,
            ases,
            instances,
            seed,
            threads.unwrap_or(0),
        ))
    });
    let seed = seed.unwrap_or(default_seed);
    // Paper parameters on a `sim_scale` topology, 2000 ASes unless `--ases`.
    let failure = |scenario, default_instances, protocols: &[Protocol]| {
        let cfg = FailureConfig {
            seed,
            gen: GenConfig {
                n_ases: ases.unwrap_or(2000),
                ..GenConfig::sim_scale(seed)
            },
            instances: instances.unwrap_or(default_instances),
            threads,
            ..FailureConfig::default()
        };
        run_failure_experiment(&cfg, scenario, protocols)
    };
    match kind {
        Kind::Phi => {
            let cfg = PhiExperimentConfig {
                gen: GenConfig {
                    n_ases: ases.unwrap_or(8000),
                    ..GenConfig::analysis_scale(seed)
                },
                with_smart: true,
                ..Default::default()
            };
            println!("{}", render_phi_report(&run_phi_experiment(&cfg)));
        }
        Kind::Failure(scenario) => {
            let report = failure(scenario, 30, &Protocol::ALL);
            println!("{}", render_failure_report(&report));
        }
        Kind::Convergence => print_convergence(&failure(SingleLink, 20, &Protocol::ALL)),
        Kind::Overhead => {
            print_overhead(&failure(SingleLink, 20, &[Protocol::Bgp, Protocol::Stamp]))
        }
        Kind::Partial => {
            let cfg = PartialConfig {
                seed,
                gen: GenConfig {
                    n_ases: ases.unwrap_or(4000),
                    ..GenConfig::sim_scale(seed)
                },
                max_destinations: instances.unwrap_or(400),
                ..Default::default()
            };
            println!("{}", render_partial_report(&run_partial_deployment(&cfg)));
        }
    }
}
