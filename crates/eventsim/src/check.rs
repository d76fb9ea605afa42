//! Mini property-testing harness: seeded generators, shrink-free case loop.
//!
//! A hermetic replacement for the slice of `proptest` this workspace used.
//! A property is an ordinary `#[test]` that calls [`cases`] with a case
//! count, a seed and a closure; the closure receives a per-case [`Rng`]
//! and asserts its property with plain `assert!` macros. There is no
//! shrinking — on failure the harness prints the case index and the exact
//! replay seed, and every stream is deterministic, so a failing case can be
//! re-run in isolation with [`replay`].

use crate::rng::Rng;

/// Derive the deterministic RNG for one case of a property run.
pub fn case_rng(seed: u64, case: u64) -> Rng {
    // Distinct cases must get decorrelated streams even for adjacent
    // indices; reuse the stream-derivation mixer.
    crate::rng::rng_stream(seed, 0x70726F70 ^ case)
}

/// Run `n` seeded cases of a property. On a failing case, prints the case
/// index and replay seed before propagating the panic.
// The replay line must reach the test harness's captured stderr — that
// diagnostic is this harness's whole substitute for shrinking.
#[allow(clippy::print_stderr)]
pub fn cases<F: FnMut(&mut Rng)>(n: usize, seed: u64, mut f: F) {
    for case in 0..n as u64 {
        let mut rng = case_rng(seed, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property failed at case {case}/{n} (seed {seed}); \
                 replay with check::replay({seed}, {case}, ..)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Re-run exactly one case of a property (debugging aid).
pub fn replay<F: FnOnce(&mut Rng)>(seed: u64, case: u64, f: F) {
    let mut rng = case_rng(seed, case);
    f(&mut rng);
}

/// Generator helpers shared by property suites.
pub mod gen {
    use crate::rng::Rng;

    /// `Some(value)` with probability 1/2.
    pub fn option<T>(rng: &mut Rng, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        if rng.gen_bool(0.5) {
            Some(f(rng))
        } else {
            None
        }
    }

    /// A vector with uniformly drawn length in `len` (half-open).
    pub fn vec<T>(
        rng: &mut Rng,
        len: core::ops::Range<usize>,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = rng.gen_range(len);
        (0..n).map(|_| f(rng)).collect()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        lo + rng.gen_f64() * (hi - lo)
    }

    /// A fair coin.
    pub fn bool(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }

    /// One to three byte-level mutations of a valid document — the input
    /// of the text-format fuzz properties. Each mutation flips a bit,
    /// deletes a byte, duplicates a byte, splices in a token from elsewhere
    /// in the document, or inserts a `#`, a `;`, a NUL, a multi-byte
    /// character (U+00A0: whitespace to Unicode, not to the tokenizer) or a
    /// number one past `u64::MAX`. The bytes are then decoded lossily, as
    /// the daemon decodes what comes off the wire.
    pub fn mutated(rng: &mut Rng, doc: &str) -> String {
        let tokens: Vec<&str> = crate::textfmt::Cursor::new(doc).collect();
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0..=bytes.len());
            let here = bytes.get(at).copied();
            let insert: &[u8] = match (rng.gen_range(0u32..9), here) {
                (0, Some(b)) => {
                    bytes.splice(at..=at, [b ^ (1 << rng.gen_range(0u32..8))]);
                    continue;
                }
                (1, Some(_)) => {
                    bytes.remove(at);
                    continue;
                }
                (2, Some(b)) => &[b],
                (0..=3, _) => rng.choose(&tokens).map_or(b" ", |t| t.as_bytes()),
                (4, _) => b"#",
                (5, _) => b";",
                (6, _) => b"\0",
                (7, _) => "\u{a0}".as_bytes(),
                _ => b"18446744073709551616",
            };
            bytes.splice(at..at, insert.iter().copied());
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_case_deterministically() {
        let mut draws_a = Vec::new();
        cases(16, 99, |rng| draws_a.push(rng.next_u64()));
        let mut draws_b = Vec::new();
        cases(16, 99, |rng| draws_b.push(rng.next_u64()));
        assert_eq!(draws_a.len(), 16);
        assert_eq!(draws_a, draws_b);
        // Distinct cases see distinct streams.
        let mut sorted = draws_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn replay_matches_the_case_stream() {
        let mut seen = Vec::new();
        cases(4, 7, |rng| seen.push(rng.next_u64()));
        replay(7, 2, |rng| assert_eq!(rng.next_u64(), seen[2]));
    }

    #[test]
    fn failing_case_propagates_panic() {
        let r = std::panic::catch_unwind(|| {
            let mut count = 0;
            cases(8, 1, |_| {
                count += 1;
                assert!(count < 3, "boom at case {count}");
            });
        });
        assert!(r.is_err(), "panic must propagate out of cases()");
    }

    #[test]
    fn gen_helpers_are_in_domain() {
        cases(64, 5, |rng| {
            let v = gen::vec(rng, 1..12, |r| r.gen_range(0u32..100));
            assert!((1..12).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
            let f = gen::f64_in(rng, 0.5, 1.5);
            assert!((0.5..1.5).contains(&f));
            let _ = gen::option(rng, gen::bool);
        });
    }

    #[test]
    fn mutated_documents_differ_and_stay_near_the_original() {
        let doc = "scenario drill\nat 0s fail-node 9\nat 60s recover-node 9\n";
        let mut changed = 0;
        cases(200, 6, |rng| {
            let m = gen::mutated(rng, doc);
            changed += usize::from(m != doc);
            assert!(m.len().abs_diff(doc.len()) <= 3 * 20, "{m:?}");
        });
        // A flip can undo a flip and a splice can rebuild the text: rare.
        assert!(
            changed > 190,
            "only {changed} of 200 cases changed the text"
        );
    }
}
