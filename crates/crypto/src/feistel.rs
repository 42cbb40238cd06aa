//! A SHA-256-based Feistel block cipher over configurable block sizes.
//!
//! The Rivest–Shamir–Tauman ring signature needs a keyed symmetric
//! *permutation* `E_k` over `b`-bit blocks, where `b` is slightly larger
//! than the RSA modulus (§3.1.2 of the paper adopts the RST scheme
//! wholesale). Off-the-shelf block ciphers have fixed 128-bit blocks, so —
//! as the RST paper itself suggests — we build a wide-block cipher as a
//! balanced Feistel network whose round function is a hash. With 8+ rounds
//! and a PRF round function this is a strong pseudorandom permutation by
//! the Luby–Rackoff theorem.

use crate::sha256::Sha256;

/// Minimum number of Feistel rounds accepted (Luby–Rackoff needs 4 for a
/// strong PRP; we default to more for margin).
pub(crate) const MIN_ROUNDS: u32 = 4;

/// Default number of rounds.
pub(crate) const DEFAULT_ROUNDS: u32 = 8;

/// A keyed permutation over fixed-size blocks of `block_len` bytes.
///
/// # Examples
///
/// ```
/// use agr_crypto::feistel::Feistel;
///
/// let cipher = Feistel::new([7u8; 32], 72);
/// let mut block = vec![0u8; 72];
/// block[0] = 0xab;
/// let original = block.clone();
/// cipher.encrypt_block(&mut block);
/// assert_ne!(block, original);
/// cipher.decrypt_block(&mut block);
/// assert_eq!(block, original);
/// ```
#[derive(Debug, Clone)]
pub struct Feistel {
    block_len: usize,
    rounds: u32,
    /// Per-round PRF subkeys, derived once at construction. The ring
    /// signature evaluates `E_k` `k+1` times per sign/verify under one
    /// key, so hoisting the `(key, round)` absorption out of
    /// `round_output` saves a hash invocation per counter block.
    round_keys: Vec<[u8; 32]>,
}

impl Feistel {
    /// Creates a cipher over blocks of `block_len` bytes with
    /// `DEFAULT_ROUNDS` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero or odd (the balanced network splits
    /// blocks into equal halves).
    #[must_use]
    pub fn new(key: [u8; 32], block_len: usize) -> Self {
        Feistel::with_rounds(key, block_len, DEFAULT_ROUNDS)
    }

    /// Creates a cipher with an explicit round count.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero or odd, or `rounds < MIN_ROUNDS`.
    #[must_use]
    pub(crate) fn with_rounds(key: [u8; 32], block_len: usize, rounds: u32) -> Self {
        assert!(
            block_len > 0 && block_len.is_multiple_of(2),
            "block length must be positive and even"
        );
        assert!(
            rounds >= MIN_ROUNDS,
            "at least {MIN_ROUNDS} rounds required"
        );
        let round_keys = (0..rounds)
            .map(|round| Sha256::digest_parts(&[b"FEISTEL-RK", &key, &round.to_le_bytes()]))
            .collect();
        Feistel {
            block_len,
            rounds,
            round_keys,
        }
    }

    /// Encrypts `block` in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != self.block_len()`.
    pub fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), self.block_len, "wrong block size");
        let half = self.block_len / 2;
        for round in 0..self.rounds {
            let (left, right) = block.split_at_mut(half);
            // (L, R) <- (R, L xor F(round, R))
            let f = self.round_output(round, right);
            for (l, fb) in left.iter_mut().zip(&f) {
                *l ^= fb;
            }
            left.swap_with_slice(right);
        }
    }

    /// Decrypts `block` in place.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != self.block_len()`.
    pub fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), self.block_len, "wrong block size");
        let half = self.block_len / 2;
        for round in (0..self.rounds).rev() {
            let (left, right) = block.split_at_mut(half);
            left.swap_with_slice(right);
            let f = self.round_output(round, right);
            for (l, fb) in left.iter_mut().zip(&f) {
                *l ^= fb;
            }
        }
    }

    /// Round function: a SHA-256-in-counter-mode PRF expanded to half a
    /// block, keyed by the precomputed per-round subkey.
    fn round_output(&self, round: u32, input: &[u8]) -> Vec<u8> {
        let round_key = &self.round_keys[round as usize];
        let half = self.block_len / 2;
        let mut out = Vec::with_capacity(half);
        let mut counter: u32 = 0;
        while out.len() < half {
            let digest = Sha256::digest_parts(&[round_key, &counter.to_le_bytes(), input]);
            let need = half - out.len();
            out.extend_from_slice(&digest[..need.min(32)]);
            counter += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher(len: usize) -> Feistel {
        Feistel::new([0x42; 32], len)
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [2usize, 8, 16, 64, 72, 130] {
            let c = cipher(len);
            let mut block: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let original = block.clone();
            c.encrypt_block(&mut block);
            assert_ne!(block, original, "len {len}: ciphertext equals plaintext");
            c.decrypt_block(&mut block);
            assert_eq!(block, original, "len {len}: roundtrip failed");
        }
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let c1 = Feistel::new([1; 32], 16);
        let c2 = Feistel::new([2; 32], 16);
        let mut b1 = vec![0u8; 16];
        let mut b2 = vec![0u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn is_deterministic() {
        let c = cipher(32);
        let mut b1 = vec![9u8; 32];
        let mut b2 = vec![9u8; 32];
        c.encrypt_block(&mut b1);
        c.encrypt_block(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn single_bit_avalanche() {
        let c = cipher(32);
        let mut b1 = vec![0u8; 32];
        let mut b2 = vec![0u8; 32];
        b2[31] ^= 1;
        c.encrypt_block(&mut b1);
        c.encrypt_block(&mut b2);
        let differing_bits: u32 = b1.iter().zip(&b2).map(|(a, b)| (a ^ b).count_ones()).sum();
        // A random permutation flips ~128 of 256 bits; demand at least 64.
        assert!(
            differing_bits >= 64,
            "only {differing_bits} bits differ — weak diffusion"
        );
    }

    #[test]
    fn decrypt_without_encrypt_is_inverse() {
        // decrypt(encrypt(x)) == x is tested above; also check
        // encrypt(decrypt(x)) == x (true inverses both ways).
        let c = cipher(16);
        let mut block: Vec<u8> = (0..16u8).collect();
        let original = block.clone();
        c.decrypt_block(&mut block);
        c.encrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_block_len_rejected() {
        let _ = Feistel::new([0; 32], 7);
    }

    #[test]
    #[should_panic(expected = "wrong block size")]
    fn wrong_block_size_rejected() {
        cipher(16).encrypt_block(&mut [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn too_few_rounds_rejected() {
        let _ = Feistel::with_rounds([0; 32], 16, 2);
    }
}
