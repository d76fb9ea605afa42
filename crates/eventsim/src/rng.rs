//! Deterministic, self-contained RNG and stream derivation.
//!
//! Every consumer of randomness in a simulation instance derives its own
//! stream from `(master_seed, tag)`. Streams are independent in the sense
//! that adding or reordering draws in one stream never perturbs another —
//! essential for comparing protocols on *identical* failure scenarios, as
//! the paper does (BGP, R-BGP and STAMP see the same topology, the same
//! failed links and the same delay samples).
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through a
//! SplitMix64 stream. It is implemented here — not pulled from a crate — so
//! the workspace builds hermetically and a given seed produces the same
//! stream on every toolchain, forever.

/// SplitMix64 finalizer — a well-tested 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// The portable API surface is deliberately small — exactly what the
/// workspace uses: [`Rng::next_u64`], [`Rng::gen_f64`], [`Rng::gen_range`],
/// [`Rng::gen_bool`], [`Rng::shuffle`] and [`Rng::choose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the full 256-bit state from one `u64` via a SplitMix64 stream
    /// (the seeding procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            // splitmix64 adds the golden-ratio increment itself, so feeding
            // it successive pre-increment states yields the canonical
            // SplitMix64 output stream for `seed`.
            *slot = splitmix64(z);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        // The all-zero state is the one forbidden state; the SplitMix64
        // stream cannot produce four zeros in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        p > 0.0 && self.gen_f64() < p
    }

    /// Uniform integer in `[0, bound)` without modulo bias (rejection on
    /// the widened product, Lemire's method). `bound` must be non-zero.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw from an integer range (`lo..hi` or `lo..=hi`).
    ///
    /// Panics on an empty range, mirroring the usual contract.
    #[inline]
    pub fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output {
        range.sample(self)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_below(xs.len() as u64) as usize])
        }
    }
}

/// Ranges [`Rng::gen_range`] accepts. Implemented for the integer range
/// shapes the workspace actually draws from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.next_below(span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.next_below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u32, u64, usize);

/// Derive an independent sub-seed from a master seed and a purpose tag —
/// the mixing step behind [`rng_stream`], exposed so harnesses that need a
/// *seed* per grid cell (not a stream) share the same decorrelation.
pub fn derive_seed(master_seed: u64, tag: u64) -> u64 {
    splitmix64(master_seed ^ splitmix64(tag))
}

/// Derive an independent RNG stream from a master seed and a purpose tag.
pub fn rng_stream(master_seed: u64, tag: u64) -> Rng {
    Rng::seed_from_u64(derive_seed(master_seed, tag))
}

/// Conventional stream tags used across the workspace (one place, so no two
/// consumers collide by accident). The values are part of every golden;
/// a retired tag's number is not reused.
pub mod tags {
    /// Message delay sampling.
    pub const DELAYS: u64 = 2;
    /// MRAI jitter factors.
    pub const MRAI: u64 = 3;
    /// Workload choices (destination, failed links).
    pub const WORKLOAD: u64 = 4;
    /// Message-loss fault injection.
    pub const LOSS: u64 = 6;
    /// Φ-analysis path sampling.
    pub const PHI_SAMPLING: u64 = 7;
    /// Scenario-timeline generation (flap trains, churn, outages).
    pub const TIMELINE: u64 = 8;
    /// Campaign grid cell seed derivation.
    pub const CAMPAIGN: u64 = 9;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = rng_stream(42, tags::DELAYS);
        let mut b = rng_stream(42, tags::DELAYS);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_tags_differ() {
        let mut a = rng_stream(42, tags::DELAYS);
        let mut b = rng_stream(42, tags::MRAI);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_stream(1, tags::WORKLOAD);
        let mut b = rng_stream(2, tags::WORKLOAD);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn mixer_avalanches() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = splitmix64(0x1234_5678);
        let flipped = splitmix64(0x1234_5679);
        let hamming = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&hamming), "weak avalanche: {hamming}");
    }

    #[test]
    fn matches_xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from the state {1, 2, 3, 4}
        // (reference C implementation by Blackman & Vigna).
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }
}

/// Determinism and distribution checks for the in-repo generator — the
/// contract every simulation result in this repository rests on.
#[cfg(test)]
mod distribution_tests {
    use super::*;

    #[test]
    fn seeded_stream_is_reproducible() {
        let mut a = Rng::seed_from_u64(0xDEAD_BEEF);
        let mut b = Rng::seed_from_u64(0xDEAD_BEEF);
        let xs: Vec<u64> = (0..256).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..256).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed must give an identical stream");
    }

    #[test]
    fn stream_independence_is_preserved() {
        // Drawing extra values from one derived stream must not perturb a
        // sibling stream — the documented contract of `rng_stream`.
        let mut delays_a = rng_stream(7, tags::DELAYS);
        let mut mrai_a = rng_stream(7, tags::MRAI);
        let _burn: Vec<u64> = (0..1000).map(|_| delays_a.next_u64()).collect();
        let mrai_draws_a: Vec<u64> = (0..16).map(|_| mrai_a.next_u64()).collect();

        let mut mrai_b = rng_stream(7, tags::MRAI);
        let mrai_draws_b: Vec<u64> = (0..16).map(|_| mrai_b.next_u64()).collect();
        assert_eq!(mrai_draws_a, mrai_draws_b);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(10usize..20);
            assert!((10..20).contains(&x), "half-open bound violated: {x}");
            let y = rng.gen_range(100u64..=200);
            assert!((100..=200).contains(&y), "inclusive bound violated: {y}");
            let z = rng.gen_range(0u32..1);
            assert_eq!(z, 0);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = Rng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some value never drawn: {seen:?}");
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let mut hits = [0usize; 8];
        let trials = 80_000;
        for _ in 0..trials {
            hits[rng.gen_range(0usize..8)] += 1;
        }
        for (i, h) in hits.iter().enumerate() {
            let f = *h as f64 / trials as f64;
            assert!((f - 0.125).abs() < 0.01, "bucket {i} frequency {f}");
        }
    }

    #[test]
    fn gen_f64_is_in_unit_interval_and_spreads() {
        let mut rng = Rng::seed_from_u64(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let f = hits as f64 / 10_000.0;
        assert!((f - 0.3).abs() < 0.02, "rate {f}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(6);
        for n in [0usize, 1, 2, 7, 100] {
            let mut xs: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut xs);
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
        }
    }

    #[test]
    fn shuffle_moves_things() {
        // With 52 elements the identity permutation is essentially
        // impossible; a stuck shuffle would return it every time.
        let mut rng = Rng::seed_from_u64(7);
        let id: Vec<usize> = (0..52).collect();
        let mut xs = id.clone();
        rng.shuffle(&mut xs);
        assert_ne!(xs, id, "shuffle left the identity permutation");
    }

    #[test]
    fn shuffle_is_roughly_uniform_on_three_elements() {
        // 3! = 6 permutations; each should appear ~1/6 of the time.
        let mut rng = Rng::seed_from_u64(8);
        let mut counts = std::collections::HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let mut xs = [0u8, 1, 2];
            rng.shuffle(&mut xs);
            *counts.entry(xs).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (perm, c) in counts {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01, "{perm:?} frequency {f}");
        }
    }

    #[test]
    fn choose_is_uniform_and_total() {
        let mut rng = Rng::seed_from_u64(9);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let xs = [10u32, 20, 30, 40];
        let mut hits = [0usize; 4];
        let trials = 40_000;
        for _ in 0..trials {
            let &x = rng.choose(&xs).unwrap();
            hits[(x / 10 - 1) as usize] += 1;
        }
        for h in hits {
            let f = h as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.01, "choose frequency {f}");
        }
    }
}
