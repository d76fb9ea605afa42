//! A deterministic, zero-dependency fast hasher (FxHash-style).
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with per-process random
//! keys: robust against adversarial keys, but ~an order of magnitude more
//! expensive than needed for the small integer keys this workspace hashes
//! (interned path cons cells, builder-time link keys, per-router RIB-out
//! keys). [`FxHasher`] is the multiply-fold hasher used by rustc
//! (`FxHashMap`), reimplemented here so the workspace stays hermetic.
//!
//! Two properties matter for this codebase:
//!
//! * **Speed** — one wrapping multiply per 8 ingested bytes; hashing a
//!   `(u32, u32)` key is a handful of ALU ops, no table walks, no rounds.
//! * **Determinism** — no random state, so the same keys hash identically
//!   in every process. (Nothing may *iterate* one of these maps in an
//!   order-sensitive way regardless — the determinism suite pins that —
//!   but a fixed hash function removes the per-process wobble entirely.)
//!
//! The trade-off is the usual one: FxHash is not DoS-resistant. Every map
//! keyed by simulation ids is fed by the simulator itself, never by
//! untrusted input, so the trade is free.
//!
//! [`Fnv1a`] lives here too: where Fx hashes *keys* (any fast function
//! will do), FNV-1a hashes *results* into fingerprints that are pinned in
//! tests and CI, so it must be — and is tested to be — the standard
//! function.

// simlint::allow(default-hasher, "defines the FxHashMap/FxHashSet aliases over std's HashMap/HashSet with the deterministic hasher plugged in")
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the [`FxHasher`] (drop-in for `std::collections::HashMap`).
// simlint::allow(default-hasher, "defines the FxHashMap/FxHashSet aliases over std's HashMap/HashSet with the deterministic hasher plugged in")
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the [`FxHasher`].
// simlint::allow(default-hasher, "defines the FxHashMap/FxHashSet aliases over std's HashMap/HashSet with the deterministic hasher plugged in")
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Zero-sized builder producing [`FxHasher`]s (fixed, stateless seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 64-bit spreading constant: `2^64 / φ`, the usual Fibonacci multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc-lineage Fx hasher: fold every 8-byte word into the state with
/// a rotate–xor–multiply round.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Ingest full words, then the (rare) sub-word remainder. Derived
        // `Hash` impls for the integer-tuple keys this workspace uses hit
        // the fixed-width methods below instead, so this loop is the slow
        // path for strings only.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // simlint::allow(panic, "chunks_exact(8) yields exactly 8-byte slices")
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.fold(i as u64);
        self.fold((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// FNV-1a 64-bit: the workspace's one *fingerprint* hash and its only FNV
/// code (campaign aggregate hashes, policy-regime fingerprints, the
/// convergence watchdog's state digests). Unlike [`FxHasher`] its output
/// is a pinned value — the campaign and figure-runner goldens in
/// `tests/determinism.rs` and every hash in `BENCH_campaign.json` are
/// FNV-1a words — so it is the standard function, byte for byte, checked
/// against the reference vectors below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold a byte string in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold one word in, little-endian.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        for key in [(0u32, 0u32), (1, 2), (u32::MAX, 7)] {
            assert_eq!(hash_of(key), hash_of(key));
        }
        assert_eq!(hash_of("session"), hash_of("session"));
    }

    #[test]
    fn distinguishes_small_keys() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. ignoring the rotate) collapsing the dense
        // id tuples this workspace actually uses.
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                seen.insert(hash_of((a, b)));
            }
        }
        assert_eq!(seen.len(), 64 * 64, "collisions on dense id pairs");
    }

    #[test]
    fn tuple_and_field_order_matter() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(31)), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(31))), Some(&i));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
        assert!(!s.contains(&43));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let of = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        // `write_u64` is `write` of the little-endian bytes.
        let mut words = Fnv1a::new();
        words.write_u64(0x0807_0605_0403_0201);
        assert_eq!(words.finish(), of(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
