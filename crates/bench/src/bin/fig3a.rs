//! Regenerate Figure 3(a): two link failures NOT connected to the same AS.

#![forbid(unsafe_code)]

use stamp_bench::failure_figure_main;
use stamp_experiments::FailureScenario;

fn main() {
    failure_figure_main(
        "fig3a [--ases N] [--instances N] [--seed N] [--threads N]\n\
         Regenerates Figure 3(a) (two failed links, different ASes).",
        0xF3A,
        FailureScenario::TwoLinksDifferentAs,
    );
}
