//! Regenerate the §6.3 convergence-delay comparison: STAMP converges
//! faster than BGP in response to the same routing event.

#![forbid(unsafe_code)]

use stamp_bench::{failure_config, parse_args};
use stamp_experiments::render::table;
use stamp_experiments::{run_failure_experiment, FailureScenario, Protocol};

fn main() {
    let args = parse_args(
        "convergence [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates the Sec. 6.3 convergence delay comparison.",
    );
    let cfg = failure_config(&args, 0xC0, 20);
    let rep = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
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
