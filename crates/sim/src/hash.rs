//! The one hasher behind every simulator map.
//!
//! std's `HashMap::new` draws a random key per process, so a map iterated
//! while drawing from an RNG would make same-seed runs differ; every map
//! in the simulator and the protocol crates is built on [`FixedHasher`]
//! instead (`clippy.toml` bans std's `HashMap` and `HashSet` types outside
//! this module, which defines the two aliases on them). Its keys
//! are the simulator's own: node ids, link indices, packet uids drawn
//! from seeded RNGs, SHA-256 pseudonyms and trapdoor ciphertexts. None is
//! chosen to collide, so a multiplicative hash loses nothing against
//! SipHash and costs a fraction of it. No forwarding decision depends on
//! the order a map yields its entries (`agr_geom::planar::greedy_next`
//! breaks ties on the key), but the order must still be the same in every
//! process, which a fixed hasher guarantees; the known-answer test below
//! pins it.

#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher over the key's 64-bit words (the FxHash
/// family): each word is xored into the state, which is multiplied by an
/// odd constant and rotated. The product's high bits mix every input bit
/// below them; the rotation moves them down to where the table takes its
/// bucket index from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

/// A `HashMap` on [`FixedHasher`]: same inserts, same iteration order, in
/// every run and every process.
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// The set counterpart of [`FixedMap`].
pub type FixedSet<T> = HashSet<T, BuildHasherDefault<FixedHasher>>;

const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(MULTIPLIER).rotate_left(26);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Whole 8-byte words, then the tail zero-padded into one more; the
    /// integer writers below are the same thing without the copy.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FixedHasher>::default().hash_one(key)
    }

    /// Known answers: a change to the hasher (or to how std feeds it a
    /// key) changes every map's iteration order, so it must change these
    /// values on purpose. `[u8; 6]` is the layout of `agr-core`'s
    /// `Pseudonym`, which hashes exactly like it.
    #[test]
    fn known_answers() {
        assert_eq!(hash(1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash(0xdead_beef_u64), 0xd060_f6d3_ac1a_89db);
        assert_eq!(hash(u64::MAX), 0x5746_7558_ec3b_2a14);
        assert_eq!(hash(NodeId(7)), 0x9d12_ca91_8e61_d971);
        assert_eq!(hash(NodeId(149)), 0x33fd_b33e_a590_8229);
        assert_eq!(
            hash([0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc]),
            0x62df_89d8_ce86_29cb
        );
        assert_eq!(hash([0xffu8; 6]), 0x9242_334f_8b9c_8b29);
    }

    #[test]
    fn keys_feed_whole_words() {
        // Every integer is one word, whether its width has a writer of
        // its own (u32, u64) or goes through the byte path (u8, u16).
        assert_eq!(hash(NodeId(5)), hash(5u64));
        assert_eq!(hash(5u8), hash(5u64));
        assert_eq!(hash(0xbeef_u16), hash(0xbeef_u64));
        // A 6-byte key is one zero-padded word after its length prefix.
        let mut h = FixedHasher::default();
        h.write_usize(6);
        h.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 0, 0]));
        assert_eq!(hash([1u8, 2, 3, 4, 5, 6]), h.finish());
    }
}
