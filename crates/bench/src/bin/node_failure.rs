//! Regenerate the §6.2.2 single node (AS) failure comparison.

#![forbid(unsafe_code)]

use stamp_bench::failure_figure_main;
use stamp_experiments::FailureScenario;

fn main() {
    failure_figure_main(
        "node_failure [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates the Sec. 6.2.2 node-failure comparison.",
        0x6F,
        FailureScenario::NodeFailure,
    );
}
