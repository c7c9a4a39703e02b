//! Fast non-cryptographic hashing for hot-path collections.
//!
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant but
//! costs tens of nanoseconds per small key — far too much for the exact
//! VMC search, which probes its visited-state set once per explored state.
//! [`FxHasher`] is the classic multiply-xor hasher (the rustc `FxHash`
//! recipe): one rotate, one xor and one multiply per 8-byte word, and one
//! final rotate (the rustc-hash 2 finish).
//!
//! The finishing rotate matters for std's SwissTable maps, which pick a
//! bucket from the hash's low bits. The low bits of a raw product depend
//! only on the low bits of the input, so keys that differ only in high bits
//! (packed search-frontier words, shifted counters) would share buckets.
//! Rotating by 26 brings the well-mixed high bits of the product down.
//!
//! ## Stream-stability policy
//!
//! Like the PRNG in [`crate::rng`], the hash stream is **frozen**: the
//! known-answer tests in this module pin `hash(bytes)` for fixed inputs.
//! Nothing downstream may depend on iteration order of an
//! [`FxHashMap`]/[`FxHashSet`] (it is unspecified as for any `HashMap`),
//! but the per-key hash values themselves are part of the reproducibility
//! contract and must not change silently.
//!
//! The hasher is unkeyed, so keys chosen to collide can degrade a table
//! to long probe chains. The workspace nevertheless uses [`FxHashMap`] /
//! [`FxHashSet`] for every table, including ones keyed on input-supplied
//! numbers: the trace index, the read map and the closure key on a
//! trace's addresses and values, and `vermem serve` keys its intern and
//! value tables on the addresses and values of the event stream. No
//! table falls back to SipHash; whether a crafted colliding input bites
//! is unmeasured (ROADMAP item 11, "Crafted hash collisions").

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplicative constant of the FxHash recipe (a 64-bit fractional
/// expansion of π, the same constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor hasher. Not cryptographic, not keyed:
/// use only for internal, trusted keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Fold one 64-bit word into the state.
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Tag the tail with its length so "ab" and "ab\0" differ.
            buf[7] ^= rem.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by [`FxHasher`]. Drop-in for `std::collections::HashMap`
/// on trusted keys.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by [`FxHasher`]. Drop-in for `std::collections::HashSet`
/// on trusted keys.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash one value to a `u64` with the frozen Fx stream.
#[inline]
pub fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer tests: the Fx stream is frozen (see module docs).
    /// Regenerate only on a deliberate, documented break:
    /// `fx_hash_one(&x)` for each input below.
    #[test]
    fn kat_stream_is_frozen_for_words() {
        assert_eq!(fx_hash_one(&0u64), 0);
        assert_eq!(fx_hash_one(&1u64), 0xdc9c882a5545f306);
        assert_eq!(fx_hash_one(&0xdead_beefu64), 0xdca54ddc6d9fcf00);
        assert_eq!(fx_hash_one(&u64::MAX), 0x236377d5aeba0cf9);
        assert_eq!(fx_hash_one(&(1u64, 2u64)), 0xffe63eaf21a92f99);
    }

    #[test]
    fn kat_stream_is_frozen_for_bytes() {
        assert_eq!(fx_hash_one::<[u8]>(b""), 0);
        assert_eq!(fx_hash_one::<[u8]>(b"a"), 0x294cdc789fe5698a);
        assert_eq!(fx_hash_one::<[u8]>(b"vermem"), 0x0788298e1d55470b);
        assert_eq!(fx_hash_one::<[u8]>(b"12345678"), 0x8d09561680600ca1);
        assert_eq!(fx_hash_one::<[u8]>(b"123456789"), 0x5b0832f611bbf04d);
    }

    #[test]
    fn tail_length_disambiguates() {
        // Same padded word, different lengths must differ.
        assert_ne!(fx_hash_one::<[u8]>(b"ab"), fx_hash_one::<[u8]>(b"ab\0"));
    }

    #[test]
    fn u32_slices_hash_like_sequences() {
        // Box<[u32]> and Vec<u32> with equal content agree (both go through
        // the slice Hash impl) — the memoizer relies on this.
        let v: Vec<u32> = vec![1, 2, 3];
        let b: Box<[u32]> = v.clone().into_boxed_slice();
        assert_eq!(fx_hash_one(&v), fx_hash_one(&b));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<(u64, u32), usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i, i as u32), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(37, 37)], 37);

        let mut s: FxHashSet<Vec<u32>> = FxHashSet::default();
        assert!(s.insert(vec![1, 2]));
        assert!(!s.insert(vec![1, 2]));
    }

    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        // SwissTable buckets come from the low bits: keys that differ only
        // in high bits must still spread there (the raw product gives 1 and
        // 64 distinct values for these two families).
        for shift in [32u32, 6] {
            let low: std::collections::HashSet<u64> = (0..4096u64)
                .map(|k| fx_hash_one(&(k << shift)) & 0xFFF)
                .collect();
            assert!(low.len() >= 1024, "shift {shift}: {} buckets", low.len());
        }
    }

    #[test]
    fn distribution_smoke_no_catastrophic_collisions() {
        // 10k sequential keys must not collapse onto few hashes.
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fx_hash_one(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }
}
