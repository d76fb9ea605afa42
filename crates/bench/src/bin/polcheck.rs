//! `polcheck`: the `.pol` round-trip CI gate.
//!
//! For every built-in policy regime: print the canonical `.pol` document,
//! parse it back, require *value* equality, re-print and require *byte*
//! equality (the same format-is-a-fixed-point contract the `.scn` DSL
//! pins), compile it to dense tables, and require pairwise-distinct
//! fingerprints. Then feed a battery of malformed documents to the parser
//! and require a typed `PolError` for each — never a panic, never a
//! silent acceptance. Any violation exits non-zero, stopping CI.

#![forbid(unsafe_code)]

use stamp_eventsim::textfmt::assert_fixed_point;
use stamp_policy::{parse_pol, PolicyRegime};

fn main() {
    let mut failures = 0usize;
    let builtins = PolicyRegime::builtins();

    for regime in &builtins {
        // Panics — a non-zero exit like any other — unless the canonical
        // document is a parse/print fixed point.
        let doc = regime.to_pol();
        if &assert_fixed_point(&doc, parse_pol, PolicyRegime::to_pol) != regime {
            eprintln!("polcheck: {} parse drifted from its value", regime.name);
            failures += 1;
        }
        if let Err(e) = regime.compile() {
            eprintln!("polcheck: {} failed to compile: {e}", regime.name);
            failures += 1;
        }
    }

    for (i, a) in builtins.iter().enumerate() {
        for b in &builtins[i + 1..] {
            if a.fingerprint() == b.fingerprint() {
                eprintln!(
                    "polcheck: fingerprint collision between {} and {}",
                    a.name, b.name
                );
                failures += 1;
            }
        }
    }

    // Junk must come back as a typed error, not a panic or an accept.
    let junk = [
        "",
        "regime\n",
        "regime \"x\"\n",
        "regime x!\norigin-pref 1000\n",
        "regime x\norigin-pref many\n",
        "regime x\npref customer -3\n",
        "regime x\npref sibling 100\n",
        "regime x\nexport own to everyone\n",
        "regime x\nimport match path-longer-than\n",
        "regime x\nimport match community banana then reject\n",
        "regime x\norigin-pref 1000\nwhat even is this line\n",
    ];
    for doc in junk {
        if parse_pol(doc).is_ok() {
            eprintln!("polcheck: junk document accepted: {doc:?}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("polcheck: {failures} violation(s)");
        std::process::exit(1);
    }
    println!(
        "polcheck OK: {} built-in regimes round-trip byte-identically, fingerprints distinct, {} junk documents rejected",
        builtins.len(),
        junk.len()
    );
}
