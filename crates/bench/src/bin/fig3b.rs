//! Regenerate Figure 3(b): two link failures connected to the same AS —
//! a single routing event for STAMP's node-disjoint protection.

#![forbid(unsafe_code)]

use stamp_bench::failure_figure_main;
use stamp_experiments::FailureScenario;

fn main() {
    failure_figure_main(
        "fig3b [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates Figure 3(b) (two failed links, same AS).",
        0xF3B,
        FailureScenario::TwoLinksSameAs,
    );
}
