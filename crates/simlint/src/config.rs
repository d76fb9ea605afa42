//! The rule catalog: names, severities, per-crate scoping, messages.
//!
//! Everything here is data. Adding a rule means adding a row to [`RULES`],
//! implementing its matcher in `analysis.rs`, and seeding a fixture that
//! proves it fires (the fixture self-test enumerates [`RULES`] and fails
//! on an unproven rule). DESIGN.md §11 is the prose version of this file.

/// How a finding gates CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported in the summary (and under `--warn`); never fails the run.
    Warn,
    /// Printed and fails the run — the ci.sh gate is "zero deny findings".
    Deny,
}

/// One rule's metadata. The matcher lives in `analysis.rs` keyed by `name`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub name: &'static str,
    pub severity: Severity,
    /// Crate names the rule applies to (a file's crate is derived from its
    /// path: `crates/<name>/…`, or the facade for root `src/`).
    pub crates: &'static [&'static str],
    /// Crates where a Warn rule fails the run anyway: one that reached zero
    /// findings of it, so its count cannot creep back.
    pub deny_in: &'static [&'static str],
    pub desc: &'static str,
}

/// Crates whose behavior feeds campaign hashes and `InstanceMetrics` — the
/// determinism perimeter. `bench` sits outside it: its binaries drive the
/// perimeter from `argv` and print what comes back, so the rules about how
/// simulation code is written do not apply — except `wall-clock`, which
/// covers every scanned crate.
pub const SIM_CRATES: &[&str] = &[
    "eventsim",
    "topology",
    "policy",
    "bgp",
    "core",
    "rbgp",
    "forwarding",
    "workload",
    "experiments",
    "queryd",
    "stamp_repro",
];

/// Library crates under panic discipline: the sim perimeter plus simlint
/// itself (the lint pass must not panic on the code it audits).
pub const LIB_CRATES: &[&str] = &[
    "eventsim",
    "topology",
    "policy",
    "bgp",
    "core",
    "rbgp",
    "forwarding",
    "workload",
    "experiments",
    "queryd",
    "stamp_repro",
    "simlint",
];

const ALL_CRATES: &[&str] = &[
    "eventsim",
    "topology",
    "policy",
    "bgp",
    "core",
    "rbgp",
    "forwarding",
    "workload",
    "experiments",
    "queryd",
    "stamp_repro",
    "simlint",
    "bench",
];

/// Files allowed to construct ids from raw integers: the modules that
/// *define* the id newtypes. Everyone else goes through the checked
/// constructors (`AsId::from_usize`, …) or carries a justified allow.
pub const ID_MODULES: &[&str] = &[
    "crates/topology/src/graph.rs",
    "crates/bgp/src/types.rs",
    "crates/bgp/src/patharena.rs",
];

/// The rule catalog. Order is the order of the `--list` output.
pub const RULES: &[Rule] = &[
    Rule {
        name: "default-hasher",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "std HashMap/HashSet use SipHash with per-process random keys; \
               use eventsim::fxhash::{FxHashMap, FxHashSet} or BTreeMap",
    },
    Rule {
        name: "wall-clock",
        severity: Severity::Deny,
        // Every scanned crate: what `bench` prints is pinned as goldens
        // (`BENCH_campaign.json`, the smoke hashes), and a timing beside a
        // golden is a diff on every run. Wall time has one owner,
        // `benchmark/`, which this pass does not scan.
        crates: ALL_CRATES,
        deny_in: &[],
        desc: "std::time::{Instant, SystemTime} read wall-clock state; \
               sim crates use SimTime only, and bench prints goldens — \
               timing belongs to benchmark/",
    },
    Rule {
        name: "ambient-env",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "environment/thread-identity reads (std::env, thread::current, \
               available_parallelism) make results machine-dependent",
    },
    Rule {
        name: "float-hash-aggregate",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "float values in a hashed container invite iteration-order-\
               dependent accumulation; aggregate in grid order or use BTreeMap",
    },
    Rule {
        name: "hot-collect",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: ".collect() allocates inside a `// simlint::hot` function; \
               reuse a scratch buffer or iterate in place",
    },
    Rule {
        name: "hot-clone",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "clone/to_vec/to_owned/to_string inside a `// simlint::hot` \
               function; arena-backed state is Copy — pass handles",
    },
    Rule {
        name: "hot-alloc",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "per-message allocation (Vec::new, vec!, Box::new, String \
               construction, format!) inside a `// simlint::hot` function",
    },
    Rule {
        name: "panic",
        severity: Severity::Deny,
        crates: LIB_CRATES,
        deny_in: &[],
        desc: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in \
               library code outside tests; return a typed error or justify \
               with simlint::allow",
    },
    Rule {
        name: "index-panic",
        severity: Severity::Warn,
        crates: LIB_CRATES,
        deny_in: &["eventsim", "rbgp"],
        desc: "slice/map indexing can panic; dense CSR-indexed state is this \
               engine's core idiom, so this rule only warns (see DESIGN.md \
               §11), except in crates that reached zero — prefer .get() on \
               non-hot paths",
    },
    Rule {
        name: "lossy-cast",
        severity: Severity::Deny,
        crates: SIM_CRATES,
        deny_in: &[],
        desc: "narrowing `as` cast (u8/u16/u32/i8/i16/i32) outside the id \
               modules; use the checked id constructors or justify",
    },
    Rule {
        name: "bad-allow",
        severity: Severity::Deny,
        crates: ALL_CRATES,
        deny_in: &[],
        desc: "malformed simlint directive: unknown rule, missing or empty \
               justification, or a simlint::hot with no following fn",
    },
    Rule {
        name: "unused-allow",
        severity: Severity::Warn,
        crates: ALL_CRATES,
        deny_in: &[],
        desc: "a simlint::allow that suppressed nothing — stale after a fix; \
               delete it",
    },
];

/// Look up a rule row by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// How a finding of `rule` in `crate_name` gates CI.
pub fn severity_in(rule: &Rule, crate_name: &str) -> Severity {
    if rule.deny_in.contains(&crate_name) {
        Severity::Deny
    } else {
        rule.severity
    }
}

/// Does `rule` apply to files of `crate_name`?
pub fn in_scope(rule: &Rule, crate_name: &str) -> bool {
    rule.crates.contains(&crate_name)
}

/// Derive the crate name from a repo-relative path: `crates/<name>/…`
/// maps to `<name>`, the facade's root `src/…` to `stamp_repro`.
pub fn crate_of(rel_path: &str) -> &str {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("stamp_repro")
    } else {
        "stamp_repro"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_derivation() {
        assert_eq!(crate_of("crates/bgp/src/engine.rs"), "bgp");
        assert_eq!(crate_of("src/lib.rs"), "stamp_repro");
        assert_eq!(crate_of("crates/simlint/src/main.rs"), "simlint");
    }

    #[test]
    fn catalog_is_well_formed() {
        for r in RULES {
            assert!(!r.crates.is_empty(), "{} has no scope", r.name);
            // A promotion is for a Warn rule, inside its own scope.
            assert!(r.deny_in.is_empty() || r.severity == Severity::Warn);
            assert!(r.deny_in.iter().all(|c| r.crates.contains(c)));
            assert!(rule(r.name).is_some());
        }
        // Names are unique.
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        // bench is outside the determinism perimeter, except that it may
        // not read a clock: `wall-clock` covers it, `ambient-env` (its
        // binaries read argv) does not.
        assert!(!SIM_CRATES.contains(&"bench"));
        assert!(!LIB_CRATES.contains(&"bench"));
        let on_bench: Vec<_> = RULES.iter().filter(|r| in_scope(r, "bench")).collect();
        assert!(on_bench.iter().any(|r| r.name == "wall-clock"));
        assert!(on_bench.iter().all(|r| r.crates == ALL_CRATES));
    }
}
