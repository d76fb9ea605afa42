#![forbid(unsafe_code)]
// Findings on stdout and usage errors on stderr are this binary's entire
// output format.
#![allow(clippy::print_stdout, clippy::print_stderr)]
//! The `simlint` binary: scan the workspace, print
//! `file:line:rule: message` findings, exit nonzero on deny findings.
//!
//! Usage: `cargo run -p simlint --offline [-- --root DIR] [--warn] [--list]`
//!
//! Scans `crates/*/src/**/*.rs` and the facade's `src/` (tests/ and
//! examples/ are outside the lint perimeter — see DESIGN.md §11).
//! `--warn` lists warn-severity findings individually instead of as
//! summary counts; `--list` prints the rule catalog.

use simlint::{analyze_source, Finding, Severity, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
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
                return Ok(true);
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see --list, --warn, --root)"
                ))
            }
        }
    }

    let files = workspace_files(&root)?;
    if files.is_empty() {
        return Err(format!(
            "no Rust sources under {} — run from the repo root or pass --root",
            root.display()
        ));
    }

    let mut findings: Vec<Finding> = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("read {rel}: {e}"))?;
        findings.extend(analyze_source(rel, &src));
    }
    findings.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));

    let denies = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warns = findings.len() - denies;

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
        "simlint: {} files scanned, {denies} deny finding(s), {warns} warning(s)",
        files.len()
    );
    Ok(denies == 0)
}

/// Repo-relative paths of every lintable source file, sorted for
/// deterministic output: `crates/*/src/**/*.rs` plus the facade's `src/`.
fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(root, &src, &mut out)?;
            }
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(root, &facade, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
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
            out.push(rel);
        }
    }
    Ok(())
}
