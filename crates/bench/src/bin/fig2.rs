//! Regenerate Figure 2: number of ASes with transient problems under a
//! single link failure, for BGP / R-BGP without RCI / R-BGP / STAMP.

#![forbid(unsafe_code)]

use stamp_bench::failure_figure_main;
use stamp_experiments::FailureScenario;

fn main() {
    failure_figure_main(
        "fig2 [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates Figure 2 (single link failure).",
        0xF162,
        FailureScenario::SingleLink,
    );
}
