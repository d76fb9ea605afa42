#![forbid(unsafe_code)]
// Findings on stdout and usage errors on stderr are this binary's entire
// output format.
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! The `simlint` binary: scan the workspace, print
//! `file:line:rule: message` findings, exit nonzero on a deny finding or
//! on more warn-level findings than `config::WARN_CEILING`.
//!
//! Usage: `cargo run -p simlint --offline [-- --root DIR] [--warn] [--list]`
//!
//! Reads every file under `crates/`, `src/`, `tests/` and `examples/`. The
//! rules lint `crates/*/src/**/*.rs` and the facade's `src/` (tests/ and
//! examples/ are outside their perimeter); the fences read every file
//! (DESIGN.md §11). `--warn` lists warn-severity findings individually
//! instead of as summary counts; `--list` prints the rules and the fences.

use simlint::config::{self, FENCES, ROOTS, WARN_CEILING};
use simlint::{analyze_source, fence, Finding, Severity, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut show_warns = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--warn" => show_warns = true,
            "--list" => {
                for r in RULES {
                    let sev = match r.severity {
                        Severity::Deny => "deny",
                        Severity::Warn => "warn",
                    };
                    println!("{:<22} {:<5} {}", r.name, sev, r.desc);
                    if !r.deny_in.is_empty() {
                        println!("{:<28} deny in: {}", "", r.deny_in.join(", "));
                    }
                }
                for f in FENCES {
                    println!("{:<22} fence {}", f.name, f.why);
                    let (pats, only) = (fence::list(f.patterns), fence::list(f.only));
                    let within = fence::list(f.within);
                    println!("{:<28} {pats} in {within}, only in {only}", "");
                }
                return Ok(true);
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see --list, --warn, --root)"
                ))
            }
        }
    }

    let mut files = Vec::new();
    for dir in ROOTS
        .iter()
        .map(|p| root.join(p.path))
        .filter(|d| d.is_dir())
    {
        collect(&root, &dir, &mut files)?;
    }
    let linted: Vec<_> = files
        .iter()
        .filter(|(rel, _)| config::linted(rel))
        .collect();
    if linted.is_empty() {
        return Err(format!(
            "no Rust sources under {} — run from the repo root or pass --root",
            root.display()
        ));
    }

    let mut findings: Vec<Finding> = linted
        .iter()
        .flat_map(|(rel, src)| analyze_source(rel, src))
        .collect();
    findings.extend(fence::check(FENCES, &files));
    findings.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));

    let warns = findings.iter().filter(|f| f.severity == Severity::Warn);
    let warns = warns.count();
    let denies = findings.len() - warns;

    for f in &findings {
        if f.severity == Severity::Deny || show_warns {
            println!("{}", f.render());
        }
    }
    if !show_warns && warns > 0 {
        // Summarize warn-severity rules as counts: index-panic alone would
        // otherwise drown the gate's signal (see DESIGN.md §11).
        for r in RULES.iter().filter(|r| r.severity == Severity::Warn) {
            let n = findings
                .iter()
                .filter(|f| f.rule == r.name && f.severity == Severity::Warn)
                .count();
            if n > 0 {
                println!(
                    "simlint: {n} {} warning(s) — rerun with --warn to list",
                    r.name
                );
            }
        }
    }

    println!(
        "simlint: {} files linted, {} fenced, {denies} deny finding(s), {warns} warning(s)",
        linted.len(),
        files.len()
    );
    if warns > WARN_CEILING {
        println!("simlint: {warns} warnings exceed the ceiling of {WARN_CEILING}");
    }
    Ok(simlint::passes(&findings))
}

/// Every file under `dir` as (repo-relative path, text), invalid UTF-8
/// replaced: a fence reads data and binaries as well as sources.
fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(root, &path, out)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            // Normalize to forward slashes so the id-module list matches
            // on every platform.
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let bytes = std::fs::read(&path).map_err(|e| format!("read {rel}: {e}"))?;
            out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    Ok(())
}
