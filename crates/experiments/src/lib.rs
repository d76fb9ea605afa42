//! Experiment harness: regenerates every figure and table of the paper.
//!
//! Each experiment in DESIGN.md §4 maps to a module here; `stamp_bench`
//! wraps them in standalone binaries. All experiments are deterministic
//! given their seed. The failure figures are cell lists
//! handed to the workspace's one cell runner, `stamp_workload::run_cells`
//! (worker threads and the in-order merge live there, not here).
//!
//! | Experiment | Module | Paper artefact |
//! |---|---|---|
//! | E1/E1b Φ CDF (random/smart lock) | [`phi_exp`] | Figure 1, §6.1 |
//! | E2 single link failure | [`failure`] | Figure 2 |
//! | E3/E4 two link failures | [`failure`] | Figure 3(a)/(b) |
//! | E5 node failure | [`failure`] | §6.2.2 text |
//! | E6 partial deployment | [`partial_exp`] | §6.3 text |
//! | E7 message overhead | [`failure`] (metrics) + [`render`] | §6.3 text |
//! | E8 convergence delay | [`failure`] (metrics) + [`render`] | §6.3 text |

#![forbid(unsafe_code)]

pub mod failure;
pub mod partial_exp;
pub mod phi_exp;
pub mod render;

pub use failure::{run_failure_experiment, FailureConfig, FailureReport, Protocol, ProtocolResult};
pub use partial_exp::{run_partial_deployment, PartialConfig, PartialReport};
pub use phi_exp::{run_phi_experiment, PhiExperimentConfig, PhiExperimentReport};
// Workload sampling moved to `stamp_workload`; re-exported for the bench
// binaries and integration tests that keep importing it from here.
pub use stamp_workload::canned::{destination_candidates, sample_canned, FailureScenario};
