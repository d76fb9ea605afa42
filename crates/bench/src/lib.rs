//! Shared plumbing for the bench binaries (`figure`, `campaign`,
//! `calibrate`): the argv reader, and the one emitter and comparer of the
//! tracked results document (`BENCH_campaign.json`).
//!
//! No binary here re-checks what `cargo test` pins: the smoke and
//! adversarial hashes live in `tests/determinism.rs` (run under debug and,
//! by ci.sh, under release), the `.pol` round trip in `tests/policy.rs`,
//! BAD GADGET's `Diverged` in the engine's own tests. The one golden a
//! binary gates is this crate's document, through `campaign --check`.
//!
//! Nothing in this crate reads a clock. Every number it prints is a count
//! or a simulated time — a pure function of seed and code — which is what
//! lets `campaign --check` hold the tracked document to byte equality.
//! Wall time has one owner, the reference benchmark (`benchmark/`).
//!
//! A binary reads exactly the flags it uses ([`read_args`]); any other
//! flag, a missing value or an unparsable one prints the error and the
//! binary's usage and exits 2. The binaries print their result to stdout.

#![forbid(unsafe_code)]

use stamp_eventsim::textfmt::Args;
use stamp_topology::{AsGraph, AsId};
use stamp_workload::{
    populate_baselines, run_campaign, run_campaign_with_cache, BaselineCache, CampaignConfig,
    CampaignReport, Protocol, Timeline,
};
use std::fmt::Write as _;

/// Hand `read` the process's argv as an [`Args`] to pull its flags from.
/// `--help`/`-h` prints `usage` and exits 0; an error from `read`, or any
/// token `read` left behind (a flag this binary does not know), prints the
/// error and `usage` to stderr and exits 2.
pub fn read_args<T>(usage: &str, read: impl FnOnce(&mut Args<'_>) -> Result<T, String>) -> T {
    let line = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    let mut args = Args::new(&line);
    if args.flag("--help") || args.flag("-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    match read(&mut args).and_then(|parsed| args.done().map(|()| parsed)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// The grid run three ways — cold at one worker, cold at `threads_n`
/// workers, warm at one worker with every baseline pre-converged — in that
/// order, the warm pass twice over the same cache: the first forks fresh
/// clones and parks them, the second runs entirely on those recycled
/// sessions, so state leaking from one cell into the next through a
/// rewound session shows as a difference between the two. The four
/// reports must be indistinguishable; the callers assert it.
pub fn three_passes(
    g: &AsGraph,
    timelines: &[Timeline],
    dests: &[AsId],
    cfg: &CampaignConfig,
    threads_n: usize,
) -> [CampaignReport; 4] {
    let mut cfg = cfg.clone();
    cfg.threads = 1;
    let serial = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    cfg.threads = threads_n;
    let parallel = run_campaign(g, timelines, dests, &cfg).expect("timelines resolve");
    cfg.threads = 1;
    let cache = BaselineCache::new();
    populate_baselines(g, timelines.len(), dests, &cfg, &cache);
    let warm = || {
        run_campaign_with_cache(g, timelines, dests, &cfg, Some(&cache)).expect("timelines resolve")
    };
    [serial, parallel, warm(), warm()]
}

/// One regime's slice of the policy sweep: the same grid, re-converged
/// under a different `PolicyRegime`, keyed by the regime's canonical-DSL
/// fingerprint (the value that also keys the baseline cache).
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub name: String,
    pub fingerprint: u64,
    pub hash: u64,
    /// Grid-wide mean of affected ASes per protocol, config order.
    pub affected: Vec<(Protocol, f64)>,
}

/// The results document: one object per `(key, report)` grid — size, cell
/// count, aggregate hash and the per-`(timeline, protocol)` families table
/// — then the policy sweep (`cells` per regime, one row per regime) when
/// there is one. The only emitter of `BENCH_campaign.json`; its output is
/// byte-reproducible, so a tracked copy is a golden.
pub fn render_results(
    grids: &[(&str, &CampaignReport)],
    protocols: &[Protocol],
    sweep: Option<(usize, &[SweepRow])>,
) -> String {
    let mut s = String::from("{\n");
    for (i, (key, rep)) in grids.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = writeln!(s, "  \"{key}\": {{");
        let _ = writeln!(s, "    \"n_ases\": {},", rep.n_ases);
        let _ = writeln!(s, "    \"cells\": {},", rep.cells.len());
        let _ = writeln!(s, "    \"hash\": \"0x{:016x}\",", rep.hash);
        s.push_str("    \"families\": [\n");
        let mut first = true;
        for (t, name) in rep.timeline_names.iter().enumerate() {
            for &p in protocols {
                let a = rep.aggregate(t, p);
                if !first {
                    s.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    s,
                    "      {{ \"timeline\": \"{name}\", \"protocol\": \"{}\", \
                     \"cells\": {}, \"affected_mean\": {:.3}, \"loops_mean\": {:.3}, \
                     \"blackholes_mean\": {:.3}, \"data_recovery_mean_s\": {:.3}, \
                     \"convergence_mean_s\": {:.3}, \"updates_failure_mean\": {:.3}, \
                     \"diverged\": {} }}",
                    p.label(),
                    a.cells,
                    a.affected_mean,
                    a.loops_mean,
                    a.blackholes_mean,
                    a.data_recovery_mean_s,
                    a.convergence_mean_s,
                    a.updates_failure_mean,
                    a.diverged
                );
            }
        }
        s.push_str("\n    ]\n  }");
    }
    if let Some((cells, rows)) = sweep {
        s.push_str(",\n  \"policy_sweep\": {\n");
        let _ = writeln!(s, "    \"cells\": {cells},");
        s.push_str("    \"regimes\": [\n");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let affected = r
                .affected
                .iter()
                .map(|(p, a)| format!("\"{}\": {a:.3}", p.label()))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                s,
                "      {{ \"policy\": \"{}\", \"fingerprint\": \"0x{:016x}\", \
                 \"hash\": \"0x{:016x}\", \"affected_mean\": {{ {affected} }} }}",
                r.name, r.fingerprint, r.hash
            );
        }
        s.push_str("\n    ]\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// The first line on which two results documents differ, as `(1-based
/// line number, tracked line, fresh line)`; `None` iff they are
/// byte-identical. A document that ended early reads [`END_OF_DOCUMENT`].
pub fn first_difference<'a>(tracked: &'a str, fresh: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut a, mut b) = (tracked.split('\n'), fresh.split('\n'));
    for n in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (x, y) if x != y => {
                return Some((
                    n,
                    x.unwrap_or(END_OF_DOCUMENT),
                    y.unwrap_or(END_OF_DOCUMENT),
                ))
            }
            _ => {}
        }
    }
    None
}

/// What [`first_difference`] reports for the side that ran out of lines.
pub const END_OF_DOCUMENT: &str = "<end of document>";

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_workload::{adversarial_grid, smoke_grid};

    const SEED: u64 = 0xCA4A16;

    /// The smoke and adversarial grids, each run the three ways, rendered
    /// as four documents: `[1 worker, 4 workers, warm, warm on recycled
    /// sessions]`.
    fn smoke_documents() -> [String; 4] {
        let (g, timelines, dests, cfg) = smoke_grid(SEED);
        let smoke = three_passes(&g, &timelines, &dests, &cfg, 4);
        let (g, timelines, dests, adv_cfg) = adversarial_grid(SEED);
        let adv = three_passes(&g, &timelines, &dests, &adv_cfg, 4);
        assert_eq!(cfg.protocols, adv_cfg.protocols);
        [0, 1, 2, 3].map(|i| {
            render_results(
                &[("smoke", &smoke[i]), ("adversarial", &adv[i])],
                &cfg.protocols,
                None,
            )
        })
    }

    /// The document is a function of the grid alone: worker count and
    /// warm-start leave every byte where it was, and no key is a timing or
    /// a host property — which is what entitles CI to compare the tracked
    /// copy for equality.
    #[test]
    fn results_document_is_byte_identical_across_workers_and_warm_start() {
        let [serial, parallel, warm, recycled] = smoke_documents();
        assert_eq!(serial, parallel, "document differs between 1 and 4 workers");
        assert_eq!(serial, warm, "document differs between cold and warm start");
        assert_eq!(serial, recycled, "document differs on recycled sessions");
        assert!(serial.contains("\"hash\": \"0xc7794f6a74296cf1\""));
        assert!(serial.contains("\"hash\": \"0xf419a8d31f6b0e0a\""));
        // No key names a timing or a host property (no value does either,
        // so the whole text is searched).
        for banned in ["wall", "throughput", "speedup", "cores", "threads", "per_s"] {
            assert!(!serial.contains(banned), "document mentions `{banned}`");
        }
    }

    /// `--check` guards results, not only hashes: a perturbed mean and a
    /// perturbed hash each come back as the differing line.
    #[test]
    fn comparer_names_the_line_of_a_perturbed_result_or_hash() {
        let [doc, ..] = smoke_documents();
        assert_eq!(first_difference(&doc, &doc), None);

        for (needle, edited) in [
            ("\"affected_mean\": 0.000", "\"affected_mean\": 0.001"),
            ("\"hash\": \"0xf419", "\"hash\": \"0xf41a"),
        ] {
            let bad = doc.replacen(needle, edited, 1);
            let want = doc.lines().position(|l| l.contains(needle)).unwrap();
            let (line, tracked, fresh) = first_difference(&bad, &doc).expect("documents differ");
            assert_eq!(line, want + 1);
            assert!(tracked.contains(edited) && fresh.contains(needle));
        }

        // A truncated document differs where it stops.
        let cut = doc
            .strip_suffix("\n}\n")
            .expect("document closes its object");
        let (_, tracked, fresh) = first_difference(cut, &doc).expect("documents differ");
        assert_eq!((tracked, fresh), (END_OF_DOCUMENT, "}"));
    }
}
