//! The rule catalog and the fence table: names, severities, scopes, messages.
//!
//! Everything here is data. Adding a rule means adding a row to [`RULES`],
//! implementing its matcher in `analysis.rs`, and seeding a fixture that
//! proves it fires (the fixture self-test enumerates [`RULES`] and fails
//! on an unproven rule). The rules read `crates/*/src` and the facade's
//! `src/`; tests/ and examples/ are outside their perimeter. Adding a fence
//! means adding a row to [`FENCES`]: the table-driven test plants each of
//! its patterns and proves the row fires. This file spells every fenced
//! pattern, so no fence reads it. DESIGN.md §11 is the prose version.

use Pat::{Hex, Text, Word};

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
#[rustfmt::skip]
pub const SIM_CRATES: &[&str] = &[
    "eventsim", "topology", "policy", "bgp", "core", "rbgp", "forwarding", "workload",
    "experiments", "queryd", "stamp_repro",
];

/// Library crates under panic discipline: the sim perimeter plus simlint
/// itself (the lint pass must not panic on the code it audits).
#[rustfmt::skip]
pub const LIB_CRATES: &[&str] = &[
    "eventsim", "topology", "policy", "bgp", "core", "rbgp", "forwarding", "workload",
    "experiments", "queryd", "stamp_repro", "simlint",
];

#[rustfmt::skip]
const ALL_CRATES: &[&str] = &[
    "eventsim", "topology", "policy", "bgp", "core", "rbgp", "forwarding", "workload",
    "experiments", "queryd", "stamp_repro", "simlint", "bench",
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
#[rustfmt::skip]
pub const RULES: &[Rule] = &[
    Rule { name: "default-hasher", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "std HashMap/HashSet use SipHash with per-process random keys; \
              use eventsim::fxhash::{FxHashMap, FxHashSet} or BTreeMap" },
    // Every scanned crate: what `bench` prints is pinned as goldens
    // (`BENCH_campaign.json`, the smoke hashes), and a timing beside a
    // golden is a diff on every run. Wall time has one owner,
    // `benchmark/`, which this pass does not scan.
    Rule { name: "wall-clock", severity: Severity::Deny, crates: ALL_CRATES, deny_in: &[],
        desc: "std::time::{Instant, SystemTime} read wall-clock state; \
              sim crates use SimTime only, and bench prints goldens — \
              timing belongs to benchmark/" },
    Rule { name: "ambient-env", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "environment/thread-identity reads (std::env, thread::current, \
              available_parallelism) make results machine-dependent" },
    Rule { name: "float-hash-aggregate", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "float values in a hashed container invite iteration-order-\
              dependent accumulation; aggregate in grid order or use BTreeMap" },
    Rule { name: "hot-collect", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: ".collect() allocates inside a `// simlint::hot` function; \
              reuse a scratch buffer or iterate in place" },
    Rule { name: "hot-clone", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "clone/to_vec/to_owned/to_string inside a `// simlint::hot` \
              function; arena-backed state is Copy — pass handles" },
    Rule { name: "hot-alloc", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "per-message allocation (Vec::new, vec!, Box::new, String \
              construction, format!) inside a `// simlint::hot` function" },
    Rule { name: "panic", severity: Severity::Deny, crates: LIB_CRATES, deny_in: &[],
        desc: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in \
              library code outside tests; return a typed error or justify \
              with simlint::allow" },
    Rule { name: "index-panic", severity: Severity::Warn, crates: LIB_CRATES,
        deny_in: &["eventsim", "rbgp", "queryd"],
        desc: "slice/map indexing can panic; dense CSR-indexed state is this \
              engine's core idiom, so this rule only warns (see DESIGN.md \
              §11), except in crates that reached zero — prefer .get() on \
              non-hot paths" },
    Rule { name: "lossy-cast", severity: Severity::Deny, crates: SIM_CRATES, deny_in: &[],
        desc: "narrowing `as` cast (u8/u16/u32/i8/i16/i32) outside the id \
              modules; use the checked id constructors or justify" },
    Rule { name: "bad-allow", severity: Severity::Deny, crates: ALL_CRATES, deny_in: &[],
        desc: "malformed simlint directive: unknown rule, missing or empty \
              justification, or a simlint::hot with no following fn" },
    Rule { name: "unused-allow", severity: Severity::Warn, crates: ALL_CRATES, deny_in: &[],
        desc: "a simlint::allow that suppressed nothing — stale after a fix; \
              delete it" },
];

/// Warn-level findings the tree may hold, summed over every rule: a
/// ratchet that may fall, never rise. Lower it when the count drops; a
/// crate that reaches zero of a Warn rule goes into its `deny_in`.
pub const WARN_CEILING: usize = 185;

/// A pattern a fence looks for in raw text, line by line: comments and
/// strings count.
#[derive(Debug, Clone, Copy)]
pub enum Pat {
    /// This text, as `grep -F` finds it.
    Text(&'static str),
    /// A hex literal in any case with `_` anywhere; written folded (lower
    /// case, no `_`).
    Hex(&'static str),
    /// A word with no identifier character before it, then, past any
    /// whitespace on its line, one of these.
    Word(&'static str, &'static [&'static str]),
}

/// A file, or every file under a directory, and the part of each it means.
#[derive(Debug, Clone, Copy)]
pub struct Place {
    pub path: &'static str,
    pub part: Part,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Whole,
    /// The whole file, which holds each pattern exactly this many times,
    /// on as many lines.
    Times(usize),
    /// From the line declaring `pub fn NAME` up to the next `pub fn` line.
    Fn(&'static str),
    /// The lines above the first that starts with `#[cfg(test)]`.
    AboveTests,
}

/// Where patterns may occur: under `within`, only at the `only` places,
/// each of which must hold each pattern. Deny, and never suppressible.
#[derive(Debug, Clone, Copy)]
pub struct Fence {
    pub name: &'static str,
    pub patterns: &'static [Pat],
    pub within: &'static [Place],
    pub only: &'static [Place],
    pub why: &'static str,
}

const fn part(path: &'static str, part: Part) -> Place {
    Place { path, part }
}

const fn at(path: &'static str) -> Place {
    part(path, Part::Whole)
}

/// A fence's default `within`: every file under the tree's code roots.
pub const ROOTS: &[Place] = &[at("crates"), at("src"), at("tests"), at("examples")];
/// The one file no fence reads: this table.
pub const FENCE_TABLE: &str = "crates/simlint/src/config.rs";

#[rustfmt::skip]
const SPEAKER_CRATES: &[Place] =
    &[at("crates/bgp/src"), at("crates/rbgp/src"), at("crates/core/src")];
#[rustfmt::skip]
const TEXT_CRATES: &[Place] = &[at("crates/eventsim/src"), at("crates/workload/src"),
    at("crates/policy/src"), at("crates/queryd/src"), at("crates/bench/src")];
const ENGINE: &str = "crates/bgp/src/engine.rs";
const VIEW: &str = "crates/forwarding/src/view.rs";
const GRAPH: &str = "crates/topology/src/graph.rs";

/// The fence table. Order is the order of the `--list` output.
#[rustfmt::skip]
pub const FENCES: &[Fence] = &[
    Fence { name: "one-pool",
        patterns: &[Text("thread::scope("), Text("available_parallelism(")],
        within: &[at("crates/workload/src"), at("crates/experiments/src"), at("crates/queryd/src")],
        only: &[at("crates/workload/src/campaign.rs")],
        why: "cells run in one place, `run_cells`: figures, campaigns and what-ifs hand it a \
              cell list instead of growing a pool or resolving `0 = all cores`" },
    Fence { name: "one-cell-runner", patterns: &[Text("run_protocol_cell")],
        within: &[at("crates/queryd/src")], only: &[],
        why: "a what-if is a one-worker cell list through `run_cells`" },
    Fence { name: "one-tokenizer",
        patterns: &[Text("split_ascii_whitespace("), Text("is_ascii_alphanumeric() ||")],
        within: TEXT_CRATES, only: &[at("crates/eventsim/src/textfmt.rs")],
        why: "every line-oriented text surface is tokenized by textfmt (DESIGN.md §8.4)" },
    Fence { name: "no-unicode-split", patterns: &[Text("split_whitespace(")],
        within: TEXT_CRATES, only: &[],
        why: "the text surfaces split on ASCII whitespace, in textfmt" },
    Fence { name: "one-decision-walk", patterns: &[Text("decide_slots"), Text("explain_slots")],
        within: SPEAKER_CRATES, only: &[at("crates/bgp/src/rib.rs"), at("crates/bgp/src/speaker.rs")],
        why: "a router holds a speaker and adds only its delta (DESIGN.md §5.4): only the \
              speaker runs the decision walk" },
    Fence { name: "keyed-decision", patterns: &[Text("rib.decide")],
        within: SPEAKER_CRATES, only: &[at("crates/bgp/src/rib.rs")],
        why: "`RibIn`'s keyed walk serves rib.rs's tests and outside callers; a router \
              decides through its speaker" },
    Fence { name: "engine-owns-sessions", patterns: &[Text("fn clone_from"), Text("fn session_up(")],
        within: SPEAKER_CRATES, only: &[at(ENGINE)],
        why: "the engine's `clone_from` is the one written by hand (every other copy is \
              `clone_in_place!`), and its `session_up` the one liveness predicate" },
    Fence { name: "slot-keyed",
        patterns: &[Text("FxHashMap<(AsId, PrefixId,"), Text("FxHashMap<(AsId, PrefixId), Route>"),
            Text("FxHashMap<(PrefixId, AsId"), Text("ctx.slot_of("), Text("ctx.relation("),
            Text("ctx.topo")],
        within: SPEAKER_CRATES, only: &[],
        why: "a router names a neighbour by its session slot and sees its session slice, not \
              the graph (DESIGN.md §10.3)" },
    Fence { name: "dense-rows", patterns: &[Text("FxHashMap")],
        within: &[at("crates/bgp/src/router.rs"), at("crates/bgp/src/speaker.rs"),
            at("crates/bgp/src/rib.rs"), at("crates/core/src/router.rs"),
            at("crates/rbgp/src/router.rs")],
        only: &[],
        why: "the speaker's tables and the protocols' own books are per-slot rows" },
    Fence { name: "dispatch-reads-session", patterns: &[Text("entry_between(")],
        within: &[at(ENGINE)], only: &[],
        why: "dispatch reads the session an update names instead of searching for it" },
    Fence { name: "one-rank", patterns: &[Text("min_by_key"), Text("max_by_key")],
        within: &[at("crates/bgp/src/router.rs"), at("crates/rbgp/src/router.rs"),
            at("crates/core/src/router.rs")],
        only: &[],
        why: "the decision order is one value, `Criterion`, and `Rank` its one comparison" },
    Fence { name: "router-states-itself",
        patterns: &[Text("fn speaker("), Text("const PROCS"), Text("fn reset_measurement"),
            Text("const WIDE_LIVENESS")],
        within: &[at(VIEW)], only: &[],
        why: "a router's speaker, process count, reset and wide liveness are on \
              `RouterLogic`, where the engine reads them; the data plane declares none of them" },
    Fence { name: "one-engine-view", patterns: &[Text("ForwardingView for")],
        within: &[at(VIEW), at("crates/workload/src")], only: &[part(VIEW, Part::Times(2))],
        why: "a protocol says only its `DataPlane` step; a view is written once for \
              `EngineView`, beside `StaticView`" },
    Fence { name: "procs-bound", patterns: &[Text("N_PROCS")],
        within: &[at(ENGINE)], only: &[part(ENGINE, Part::Times(2))],
        why: "the engine sizes its tables by `R::PROCS`: `N_PROCS` is defined, and bounds \
              `R::PROCS` in `Engine::new`" },
    Fence { name: "procs-bound-sites",
        patterns: &[Text("pub const N_PROCS: usize = "), Text("assert!(R::PROCS <= N_PROCS)")],
        within: &[at(ENGINE)], only: &[part(ENGINE, Part::Times(1))],
        why: "the two places `procs-bound` lets `N_PROCS` stand" },
    Fence { name: "one-session-model", patterns: &[Text("mrai_base: SimDuration::from_secs(30)")],
        within: &[at("crates")], only: &[at(ENGINE)],
        why: "the paper's §6.2 delay/MRAI/loss table is written once, `SessionModel::paper`" },
    Fence { name: "bucketed-oracle", patterns: &[Text("BinaryHeap")],
        within: &[at("crates/topology/src/routing.rs")], only: &[],
        why: "`StaticRoutes`' phase 3 is length buckets; the heap solver is the test reference \
              in tests/properties.rs" },
    Fence { name: "seeded-trackers", patterns: &[Text("TransientTracker::new(")],
        within: &[at("crates/workload/src")], only: &[],
        why: "the facade seeds every tracker from its baseline (`TransientTracker::seeded`)" },
    Fence { name: "one-adjacency-table", patterns: &[Text("Vec<Vec<AsId>>")],
        within: &[at(GRAPH)], only: &[],
        why: "`AsGraph` holds each neighbour list once, a slice of the session table" },
    Fence { name: "unvalidated-subgraph", patterns: &[Text("GraphBuilder"), Text("expect(")],
        within: &[part(GRAPH, Part::Fn("without_links"))], only: &[],
        why: "`without_links` filters and calls `Tables::from_links`: a sub-graph of a \
              validated graph needs no second validation" },
    Fence { name: "keyed-scheduler", patterns: &[Text("BinaryHeap<Entry")],
        within: &[part("crates/eventsim/src/queue.rs", Part::AboveTests)], only: &[],
        why: "the heap holds 16-byte (time, seq) keys beside a slab; the event-carrying \
              `Entry` heap is the tests' reference" },
    Fence { name: "removed-names",
        patterns: &[Text("ProtocolSpec"), Text("REGISTRY"), Text("ProtocolEngine"),
            Text("rebuild_index"), Text("tier_depth"), Text("tier_members"),
            Text("sample_random_walk_path"), Text("escape_via"), Text("own_failover_next"),
            Text("has_active_cause"), Text("uphill_range"), Text("is_adversarial"),
            Text("extend_with"), Text("GridHash"), Text("SimEvent"), Text("PhaseSettled"),
            Text("FibChanged"), Text("fn selected_route(&self, prefix: PrefixId)"),
            Text("fn router_mut"), Text("fn reset_instability"), Text("fn converge_with"),
            Text("root_cause: Option<CauseInfo>"), Text("slot.armed"),
            Text("mrai_enabled"), Text("mrai_withdrawals"), Text("relaxed_failover_export"),
            Text("liveness_flipped"), Text("wide_liveness")],
        within: ROOTS, only: &[],
        why: "deleted, and may not come back: `Protocol` is a closed enum, a leak reads \
              `Speaker::selected_route`, a reset is `RouterLogic::reset_measurement`, a route \
              cites a `CauseId`, an MRAI slot holds a reserved scheduler place, three options \
              had one value at every site, and a wide router's flip starts a feed epoch that \
              no observer can opt out of" },
    Fence { name: "one-hash", patterns: &[Hex("0xcbf29ce484222325")],
        within: &[at("crates")], only: &[at("crates/eventsim/src/fxhash.rs")],
        why: "results are fingerprinted by one FNV-1a; its offset basis sits beside `Fnv1a`" },
    Fence { name: "one-mixer", patterns: &[Hex("0xbf58476d1ce4e5b9")],
        within: &[at("crates")], only: &[at("crates/eventsim/src/rng.rs")],
        why: "seeds are mixed by one SplitMix64, `rng::splitmix64`" },
    Fence { name: "one-unsafe", patterns: &[Word("unsafe", &["{", "impl", "fn"])],
        within: ROOTS, only: &[at("crates/bench/tests/allocations.rs")],
        why: "the allocation test's counting allocator, which is why crates/bench denies \
              `unsafe_code` instead of forbidding it" },
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

/// Is a repo-relative path inside the rules' perimeter: a Rust file of
/// `crates/*/src` or of the facade's `src/`?
pub fn linted(rel_path: &str) -> bool {
    let src = match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').nth(1) == Some("src"),
        None => rel_path.starts_with("src/"),
    };
    src && rel_path.ends_with(".rs")
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
    fn fence_table_is_well_formed() {
        for f in FENCES {
            assert!(rule(f.name).is_none(), "{} is a rule's name too", f.name);
            assert_eq!(FENCES.iter().filter(|g| g.name == f.name).count(), 1);
            assert!(!f.patterns.is_empty() && !f.within.is_empty(), "{}", f.name);
            // An allowed place lies inside what the fence reads.
            for o in f.only {
                let under = |w: &Place| {
                    o.path
                        .strip_prefix(w.path)
                        .is_some_and(|r| r.is_empty() || r.starts_with('/'))
                };
                assert!(f.within.iter().any(under), "{}: {}", f.name, o.path);
            }
            for p in f.patterns {
                if let Pat::Hex(h) = p {
                    assert!(h.starts_with("0x") && *h == h.to_lowercase() && !h.contains('_'));
                }
            }
        }
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
