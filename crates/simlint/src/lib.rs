#![forbid(unsafe_code)]
//! `simlint` — the workspace's determinism and hot-path lint engine.
//!
//! The campaign goldens (the smoke and adversarial hashes and the canned
//! `InstanceMetrics` bit patterns in `tests/determinism.rs`, every hash in
//! `BENCH_campaign.json`) prove at *runtime* that every run is
//! byte-reproducible. This crate enforces the same invariants *statically*,
//! before code runs: no randomly keyed hashers or wall-clock reads in sim
//! crates, no allocation or copying inside `// simlint::hot` functions, no
//! unjustified panics in library code, no silent narrowing of id values.
//! See DESIGN.md §11 for the rule catalog, the suppression syntax and how
//! to add a rule. Its fences (`config::FENCES`) hold the architecture's
//! one-place invariants: a pattern may occur only at the places a row
//! names.
//!
//! Built in the same hermetic spirit as the in-repo RNG, bench and
//! property harnesses: a hand-rolled lexer and zero dependencies.

pub mod analysis;
pub mod config;
pub mod fence;
pub mod lexer;

pub use analysis::{analyze_source, Finding};
pub use config::{Severity, RULES};

/// Whether a run with these findings passes: no deny finding, and no more
/// warn-level findings than [`config::WARN_CEILING`].
pub fn passes(findings: &[Finding]) -> bool {
    let warns = findings.iter().filter(|f| f.severity == Severity::Warn);
    let warns = warns.count();
    warns == findings.len() && warns <= config::WARN_CEILING
}
