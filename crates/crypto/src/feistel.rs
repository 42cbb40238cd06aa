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
    /// `xor_round_output` saves a hash invocation per counter block.
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
            self.xor_round_output(round, right, left);
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
            self.xor_round_output(round, right, left);
        }
    }

    /// XORs the round function into `out`: a SHA-256-in-counter-mode PRF
    /// of `input`, keyed by the precomputed per-round subkey, whose 32-byte
    /// digests land straight on successive 32-byte pieces of `out` (the
    /// last digest truncated to fit).
    fn xor_round_output(&self, round: u32, input: &[u8], out: &mut [u8]) {
        let round_key = &self.round_keys[round as usize];
        for (counter, piece) in (0u32..).zip(out.chunks_mut(32)) {
            let digest = Sha256::digest_parts(&[round_key, &counter.to_le_bytes(), input]);
            for (o, d) in piece.iter_mut().zip(&digest) {
                *o ^= d;
            }
        }
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

    /// Ciphertexts computed by the round function this file used before it
    /// XORed digests in place (one `Vec` per round): a 72-byte block (the
    /// ring-signature domain of RSA-512) and a 264-byte block (2048-bit).
    #[test]
    fn known_answers() {
        let cases: [(usize, &str); 2] = [
            (
                72,
                concat!(
                    "761f07159aacf581fe54e5a9eb81931cfaf793fb68a2347bc5914df6395e1a76",
                    "e781cdb7696915a6eab0480c26af1fed2b567fc4bf2d3efc4771d3370b85dcbe",
                    "0299275e0f224a17",
                ),
            ),
            (
                264,
                concat!(
                    "a72a84bb704589df037dcd1b4996daba9a05eb40537f333fde1c035d2e874759",
                    "5bde7f374a4db1cacd0c1841f945a840f671720eea91f94cf666f24d58d3a58c",
                    "029409e07389cd1ba6518861eb71f7cedf4bcddb66678d95fa853b8c43ccddc0",
                    "66a33d72b61a70dc5a86ab250b65757234d44e2385dd5e669e9540daff31dba6",
                    "f24ba65c18576ad2b9c0f82aaf957a5130a73d3ccc169aa8fd89214c78e53ffa",
                    "82edc18582182198b4fa7ebe29616ff4088aa077ecb342ecb6cedae902d7c8a6",
                    "769a7f78a8efe83b0f1bbf0b512a5ba91457754374fef7d3a6b7e9a6a895a171",
                    "982a03f92021e13637832d339e4ad17964d101f61d70b45ac06e3aaeaa464c0e",
                    "a5a200518e36b25c",
                ),
            ),
        ];
        for (len, hex) in cases {
            let mut block: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            cipher(len).encrypt_block(&mut block);
            let got: String = block.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{len}-byte block");
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
