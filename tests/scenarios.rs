//! The `scenarios/` directory is part of the repo's contract: every file
//! must parse, print back to a canonical fixed point, and resolve against
//! a generated topology (the files restrict themselves to node events on
//! low AS ids for exactly this reason).

use stamp_repro::eventsim::textfmt::assert_fixed_point;
use stamp_repro::topology::{generate, GenConfig};
use stamp_repro::workload::{parse_scn, Timeline};
use std::path::PathBuf;

fn scenario_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_scenario_file_parses_and_round_trips_exactly() {
    let files = scenario_files();
    assert!(
        files.len() >= 3,
        "expected the shipped scenario set, found {files:?}"
    );
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable scenario file");
        let t = assert_fixed_point(&text, parse_scn, Timeline::to_scn);
        assert!(!t.events().is_empty(), "{}: no events", path.display());
        let printed = t.to_scn();
        // The file's own event lines are already canonical (comments and
        // blank lines aside) — what you read is what the printer writes.
        let canonical_lines: Vec<&str> = printed.lines().collect();
        let file_lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(
            file_lines,
            canonical_lines,
            "{}: file drifted from canonical form",
            path.display()
        );
    }
}

#[test]
fn every_scenario_file_resolves_on_a_generated_topology() {
    let g = generate(&GenConfig::small(17)).expect("valid generator config");
    for path in scenario_files() {
        let text = std::fs::read_to_string(&path).expect("readable scenario file");
        let t: Timeline = parse_scn(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        t.resolve(&g).unwrap_or_else(|e| {
            panic!(
                "{}: does not resolve on the 200-AS smoke topology: {e}",
                path.display()
            )
        });
    }
}
