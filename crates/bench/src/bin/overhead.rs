//! Regenerate the §6.3 message-overhead comparison: STAMP's two processes
//! against one BGP process, on the Figure 2 scenario.

#![forbid(unsafe_code)]

use stamp_bench::{failure_config, parse_args};
use stamp_experiments::render::table;
use stamp_experiments::{run_failure_experiment, FailureScenario, Protocol};

fn main() {
    let args = parse_args(
        "overhead [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates the Sec. 6.3 protocol message overhead table.",
    );
    let cfg = failure_config(&args, 0x07EA, 20);
    let rep = run_failure_experiment(
        &cfg,
        FailureScenario::SingleLink,
        &[Protocol::Bgp, Protocol::Stamp],
    );
    let bgp = rep.of(Protocol::Bgp);
    let stamp = rep.of(Protocol::Stamp);
    println!(
        "== Protocol message overhead (Sec. 6.3) — {} ASes, {} instances ==\n",
        rep.n_ases, rep.instances
    );
    let rows = vec![
        vec![
            "BGP".into(),
            format!("{:.0}", bgp.updates_initial_mean()),
            format!("{:.0}", bgp.updates_failure_mean()),
            "1.00x".into(),
        ],
        vec![
            "STAMP (two processes)".into(),
            format!("{:.0}", stamp.updates_initial_mean()),
            format!("{:.0}", stamp.updates_failure_mean()),
            format!(
                "{:.2}x",
                stamp.updates_initial_mean() / bgp.updates_initial_mean().max(1.0)
            ),
        ],
    ];
    println!(
        "{}",
        table(
            "Updates sent (paper: STAMP < 2x BGP with two parallel processes):",
            &[
                "protocol",
                "initial convergence",
                "failure phase",
                "initial ratio"
            ],
            &rows,
        )
    );
}
