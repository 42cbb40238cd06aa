//! Rivest–Shamir–Tauman ring signatures ("How to leak a secret",
//! ASIACRYPT 2001) over RSA trapdoor permutations.
//!
//! This is the signature scheme behind the paper's *authenticated
//! anonymous neighbor table* (§3.1.2): a node ring-signs its hello beacon
//! with its own private key and `k` borrowed public keys, so a verifier
//! learns "one of these k+1 certified nodes sent this" — authentication
//! with `(k+1)`-anonymity and **signer-ambiguity**.
//!
//! # Construction
//!
//! Each ring member `i` contributes the RSA permutation
//! `f_i(x) = x^{e_i} mod n_i`, extended to a common domain `[0, 2^b)` as
//!
//! ```text
//! g_i(x) = q_i * n_i + f_i(r_i)   if (q_i + 1) * n_i <= 2^b
//!          x                      otherwise
//! ```
//!
//! where `x = q_i * n_i + r_i`. The signature equation is
//!
//! ```text
//! E_k(y_r xor E_k(y_{r-1} xor ... E_k(y_1 xor v))) = v
//! ```
//!
//! with `k = SHA-256(ring || message)` keying a wide-block Feistel cipher
//! ([`crate::feistel::Feistel`]) and `y_i = g_i(x_i)`. The signer solves
//! the equation for its own `y_s` and inverts `g_s` with its private key;
//! everyone else's `x_i` is random, which is precisely why the verifier
//! cannot tell who closed the ring.

use crate::bigint::{BigUint, MontScratch};
use crate::error::CryptoError;
use crate::feistel::Feistel;
use crate::prime::random_below;
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::Sha256;
use rand::Rng;
use std::borrow::Borrow;
use std::sync::Mutex;

/// Extra domain bits above the largest ring modulus.
///
/// RST proposes `b = max_bits + 160`; 64 bits already makes the probability
/// that `g_i` hits its identity branch negligible for our key sizes while
/// keeping hello beacons small — the trade-off the paper's §4 discusses in
/// terms of byte overhead.
const DOMAIN_SLACK_BITS: u32 = 64;

/// A ring signature: the glue value `v` and one `x_i` per ring member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSignature {
    v: Vec<u8>,
    xs: Vec<BigUint>,
}

impl RingSignature {
    /// Serialized size in bytes: the wire cost a hello beacon pays for
    /// `(k+1)`-anonymity, before certificates.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        // v is one block; each x_i is stored as a fixed-size block.
        self.v.len() * (1 + self.xs.len())
    }
}

/// Signs `message` so that any member of `ring` could have produced the
/// signature.
///
/// `signer_index` selects which ring slot corresponds to `signer`'s public
/// key.
///
/// The ring may be owned keys (`&[RsaPublicKey]`) or borrowed ones
/// (`&[&RsaPublicKey]`): hot callers assemble rings of references instead
/// of cloning key material per beacon.
///
/// # Errors
///
/// Returns [`CryptoError::BadRing`] when the ring is empty, the index is
/// out of range, or the indexed public key does not match `signer`.
pub fn ring_sign<K: Borrow<RsaPublicKey>, R: Rng + ?Sized>(
    message: &[u8],
    ring: &[K],
    signer_index: usize,
    signer: &RsaKeyPair,
    rng: &mut R,
) -> Result<RingSignature, CryptoError> {
    if ring.is_empty() {
        return Err(CryptoError::BadRing("empty ring"));
    }
    if signer_index >= ring.len() {
        return Err(CryptoError::BadRing("signer index out of range"));
    }
    if ring[signer_index].borrow() != signer.public() {
        return Err(CryptoError::BadRing("signer key not at signer index"));
    }
    let domain = Domain::for_ring(ring);
    let cipher = domain.cipher(ring, message);
    let two_b = domain.two_b();
    let bl = domain.block_len;
    let mut scratch = MontScratch::new();

    // Random x_i (and thus y_i) for everyone but the signer, written into
    // one flat block buffer instead of one vector per position.
    let mut ys = vec![0u8; ring.len() * bl];
    let mut xs: Vec<BigUint> = vec![BigUint::ZERO; ring.len()];
    for (i, key) in ring.iter().enumerate() {
        if i == signer_index {
            continue;
        }
        let x = random_below(&two_b, rng);
        let g = extended_permutation(&x, key.borrow(), &two_b, &mut scratch);
        domain.write_block(&g, &mut ys[i * bl..(i + 1) * bl]);
        xs[i] = x;
    }

    // Random glue value v.
    let mut v = vec![0u8; domain.block_len];
    rng.fill(&mut v[..]);

    // Forward pass: a = E_k(y_{s-1} xor ... E_k(y_1 xor v)).
    let mut a = v.clone();
    for y in ys.chunks_exact(bl).take(signer_index) {
        xor_into(&mut a, y);
        cipher.encrypt_block(&mut a);
    }
    // Backward pass from the closing condition: peel E_k and y_i from the
    // end until only position s remains: E_k(y_s xor a) = c.
    let mut c = v.clone();
    for y in ys.chunks_exact(bl).skip(signer_index + 1).rev() {
        cipher.decrypt_block(&mut c);
        xor_into(&mut c, y);
    }
    cipher.decrypt_block(&mut c);
    // y_s = c xor a.
    xor_into(&mut c, &a);
    let y_s = BigUint::from_bytes_be(&c);
    let x_s = invert_extended_permutation(&y_s, signer, &two_b, &mut scratch);
    xs[signer_index] = x_s;

    Ok(RingSignature { v, xs })
}

/// Verifies a ring signature over `message` and `ring`.
///
/// A valid signature proves the message was signed by *some* member of
/// `ring`, without revealing which — the signer-ambiguity that gives the
/// authenticated ANT its `(k+1)`-anonymity.
///
/// The ring may be owned keys (`&[RsaPublicKey]`) or borrowed ones
/// (`&[&RsaPublicKey]`).
///
/// # Errors
///
/// Returns [`CryptoError::BadRing`] for an empty ring or a signature whose
/// shape does not match the ring, and [`CryptoError::BadSignature`] when
/// the ring equation does not close.
pub fn ring_verify<K: Borrow<RsaPublicKey>>(
    message: &[u8],
    ring: &[K],
    signature: &RingSignature,
) -> Result<(), CryptoError> {
    if ring.is_empty() {
        return Err(CryptoError::BadRing("empty ring"));
    }
    if signature.xs.len() != ring.len() {
        return Err(CryptoError::BadRing("signature size does not match ring"));
    }
    let domain = Domain::for_ring(ring);
    if signature.v.len() != domain.block_len {
        return Err(CryptoError::BadRing("glue value has wrong size"));
    }
    let two_b = domain.two_b();
    for x in &signature.xs {
        if x >= &two_b {
            return Err(CryptoError::BadSignature);
        }
    }
    let cipher = domain.cipher(ring, message);
    // One accumulator, one block buffer, and one Montgomery arena serve
    // every ring position — the per-position temporaries of the chain
    // (`g_i(x_i)` and its block form) never touch the heap.
    let mut scratch = MontScratch::new();
    let mut acc = signature.v.clone();
    let mut y = vec![0u8; domain.block_len];
    for (x, key) in signature.xs.iter().zip(ring) {
        let g = extended_permutation(x, key.borrow(), &two_b, &mut scratch);
        domain.write_block(&g, &mut y);
        xor_into(&mut acc, &y);
        cipher.encrypt_block(&mut acc);
    }
    if acc == signature.v {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

/// Memo of the last [`ring_verify`] verdict.
///
/// Ring verification is a pure function of `(message, ring, signature)`,
/// so a verdict can be reused for an identical triple. The payoff is the
/// broadcast fan-out of an authenticated hello: every neighbor in radio
/// range verifies the *same* triple, and a simulator decodes one
/// broadcast at all of its receivers back to back, before the next frame
/// ends. With one memo shared by every node, only the first receiver pays
/// the `ring_size` modular exponentiations; the rest pay a comparison.
///
/// The memo holds one triple and compares it byte for byte (message, each
/// ring key's modulus and exponent, glue value and every `x_i`), so a hit
/// rests on equality, not on a hash. A triple that differs in anything is
/// verified and replaces the memo; a replay of an older hello is therefore
/// verified again, with the same verdict.
///
/// `BadSignature` verdicts are memoized too (a forged hello costs one
/// verification per broadcast, not one per receiver), but *structural*
/// failures — empty ring, shape mismatch — are rejected before the memo is
/// consulted, exactly as [`ring_verify`] rejects them.
///
/// Interior mutability (one [`Mutex`]) keeps the sharing API simple
/// (`Arc<VerifyCache>`); the lock is not held while verifying.
#[derive(Debug, Default)]
pub struct VerifyCache {
    last: Mutex<Option<Verified>>,
}

/// The triple [`VerifyCache`] last verified, and its verdict.
#[derive(Debug)]
struct Verified {
    message: Vec<u8>,
    /// `(modulus, exponent)` of each ring member, in ring order.
    ring: Vec<(BigUint, BigUint)>,
    signature: RingSignature,
    valid: bool,
}

impl Verified {
    fn matches<K: Borrow<RsaPublicKey>>(
        &self,
        message: &[u8],
        ring: &[K],
        signature: &RingSignature,
    ) -> bool {
        self.message == message
            && self.signature == *signature
            && self.ring.len() == ring.len()
            && self.ring.iter().zip(ring).all(|((n, e), key)| {
                let key = key.borrow();
                n == key.modulus() && e == key.exponent()
            })
    }
}

impl VerifyCache {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`ring_verify`] through the memo.
    ///
    /// Returns `(verdict, hit)`: the verdict [`ring_verify`] would return,
    /// and whether it came from the memo instead of being recomputed.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ring_verify`]; a memoized rejection
    /// surfaces as [`CryptoError::BadSignature`].
    pub fn verify<K: Borrow<RsaPublicKey>>(
        &self,
        message: &[u8],
        ring: &[K],
        signature: &RingSignature,
    ) -> (Result<(), CryptoError>, bool) {
        // Structural checks are cheap and keep malformed input out of the
        // memo.
        if ring.is_empty() {
            return (Err(CryptoError::BadRing("empty ring")), false);
        }
        if signature.xs.len() != ring.len() {
            return (
                Err(CryptoError::BadRing("signature size does not match ring")),
                false,
            );
        }
        if let Some(last) = self.last.lock().expect("memo lock poisoned").as_ref() {
            if last.matches(message, ring, signature) {
                let verdict = if last.valid {
                    Ok(())
                } else {
                    Err(CryptoError::BadSignature)
                };
                return (verdict, true);
            }
        }
        let verdict = ring_verify(message, ring, signature);
        let entry = Verified {
            message: message.to_vec(),
            ring: ring
                .iter()
                .map(|key| {
                    let key = key.borrow();
                    (key.modulus().clone(), key.exponent().clone())
                })
                .collect(),
            signature: signature.clone(),
            valid: verdict.is_ok(),
        };
        *self.last.lock().expect("memo lock poisoned") = Some(entry);
        (verdict, false)
    }
}

/// The common `b`-bit domain shared by all ring members.
struct Domain {
    bits: u32,
    block_len: usize,
}

impl Domain {
    fn for_ring<K: Borrow<RsaPublicKey>>(ring: &[K]) -> Domain {
        let max_bits = ring
            .iter()
            .map(|k| k.borrow().modulus().bits())
            .max()
            .unwrap_or(0);
        let bits = max_bits + DOMAIN_SLACK_BITS;
        // Round up to an even number of bytes for the balanced Feistel.
        let mut block_len = (bits as usize).div_ceil(8);
        if block_len % 2 == 1 {
            block_len += 1;
        }
        Domain {
            bits: (block_len * 8) as u32,
            block_len,
        }
    }

    fn two_b(&self) -> BigUint {
        BigUint::one().shl_bits(self.bits)
    }

    /// Key the combining cipher with `SHA-256(ring || message)` so a
    /// signature is bound to both.
    fn cipher<K: Borrow<RsaPublicKey>>(&self, ring: &[K], message: &[u8]) -> Feistel {
        let mut h = Sha256::new();
        let mut buf = Vec::new();
        for key in ring {
            let key = key.borrow();
            buf.clear();
            key.modulus().append_bytes_be(&mut buf);
            h.update(&buf);
            buf.clear();
            key.exponent().append_bytes_be(&mut buf);
            h.update(&buf);
        }
        h.update(message);
        Feistel::new(h.finalize(), self.block_len)
    }

    /// Writes `value` as a fixed-size block into `out` (no allocation).
    fn write_block(&self, value: &BigUint, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.block_len);
        value
            .write_bytes_be_padded(out)
            .expect("value < 2^b fits in block");
    }
}

fn xor_into(acc: &mut [u8], other: &[u8]) {
    debug_assert_eq!(acc.len(), other.len());
    for (a, b) in acc.iter_mut().zip(other) {
        *a ^= b;
    }
}

/// The RST extended trapdoor permutation `g_i` over `[0, 2^b)`.
fn extended_permutation(
    x: &BigUint,
    key: &RsaPublicKey,
    two_b: &BigUint,
    scratch: &mut MontScratch,
) -> BigUint {
    let n = key.modulus();
    let (q, r) = x.div_rem(n);
    let next_multiple = q.add_ref(&BigUint::one()).mul_ref(n);
    if next_multiple <= *two_b {
        q.mul_ref(n)
            .add_ref(&key.raw_encrypt_with_scratch(&r, scratch))
    } else {
        x.clone()
    }
}

/// Inverts `g_s` with the signer's private key.
fn invert_extended_permutation(
    y: &BigUint,
    signer: &RsaKeyPair,
    two_b: &BigUint,
    scratch: &mut MontScratch,
) -> BigUint {
    let n = signer.public().modulus();
    let (q, r) = y.div_rem(n);
    let next_multiple = q.add_ref(&BigUint::one()).mul_ref(n);
    if next_multiple <= *two_b {
        q.mul_ref(n)
            .add_ref(&signer.raw_decrypt_with_scratch(&r, scratch))
    } else {
        y.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn make_ring(size: usize, bits: u32, seed: u64) -> (Vec<RsaKeyPair>, Vec<RsaPublicKey>) {
        let mut r = rng(seed);
        let keys: Vec<RsaKeyPair> = (0..size)
            .map(|_| RsaKeyPair::generate(bits, &mut r).unwrap())
            .collect();
        let pubs = keys.iter().map(|k| k.public().clone()).collect();
        (keys, pubs)
    }

    #[test]
    fn sign_verify_roundtrip_every_position() {
        let (keys, pubs) = make_ring(4, 128, 1);
        let mut r = rng(2);
        #[allow(clippy::needless_range_loop)]
        for s in 0..keys.len() {
            let sig = ring_sign(b"hello beacon", &pubs, s, &keys[s], &mut r).unwrap();
            ring_verify(b"hello beacon", &pubs, &sig)
                .unwrap_or_else(|e| panic!("position {s}: {e}"));
        }
    }

    #[test]
    fn ring_of_one_works() {
        let (keys, pubs) = make_ring(1, 128, 3);
        let sig = ring_sign(b"solo", &pubs, 0, &keys[0], &mut rng(4)).unwrap();
        ring_verify(b"solo", &pubs, &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let (keys, pubs) = make_ring(3, 128, 5);
        let sig = ring_sign(b"original", &pubs, 1, &keys[1], &mut rng(6)).unwrap();
        assert_eq!(
            ring_verify(b"tampered", &pubs, &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_ring_rejected() {
        let (keys, pubs) = make_ring(3, 128, 7);
        let (_, other_pubs) = make_ring(3, 128, 8);
        let sig = ring_sign(b"msg", &pubs, 0, &keys[0], &mut rng(9)).unwrap();
        assert_eq!(
            ring_verify(b"msg", &other_pubs, &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_glue_rejected() {
        let (keys, pubs) = make_ring(2, 128, 10);
        let mut sig = ring_sign(b"msg", &pubs, 0, &keys[0], &mut rng(11)).unwrap();
        sig.v[0] ^= 0xff;
        assert_eq!(
            ring_verify(b"msg", &pubs, &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_x_rejected() {
        let (keys, pubs) = make_ring(2, 128, 12);
        let mut sig = ring_sign(b"msg", &pubs, 0, &keys[0], &mut rng(13)).unwrap();
        sig.xs[1] = sig.xs[1].add_ref(&BigUint::one());
        assert_eq!(
            ring_verify(b"msg", &pubs, &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn malformed_rings_rejected() {
        let (keys, pubs) = make_ring(2, 128, 14);
        assert!(matches!(
            ring_sign(b"m", &[] as &[RsaPublicKey], 0, &keys[0], &mut rng(15)),
            Err(CryptoError::BadRing(_))
        ));
        assert!(matches!(
            ring_sign(b"m", &pubs, 5, &keys[0], &mut rng(15)),
            Err(CryptoError::BadRing(_))
        ));
        // Signer key not at claimed index.
        assert!(matches!(
            ring_sign(b"m", &pubs, 0, &keys[1], &mut rng(15)),
            Err(CryptoError::BadRing(_))
        ));
        // Verify with a mismatched signature shape.
        let sig = ring_sign(b"m", &pubs, 0, &keys[0], &mut rng(16)).unwrap();
        assert!(matches!(
            ring_verify(b"m", &pubs[..1], &sig),
            Err(CryptoError::BadRing(_))
        ));
    }

    #[test]
    fn mixed_key_sizes_in_ring() {
        // RST explicitly supports rings whose members have different
        // modulus sizes; the domain extends to the largest.
        let mut r = rng(17);
        let k1 = RsaKeyPair::generate(128, &mut r).unwrap();
        let k2 = RsaKeyPair::generate(192, &mut r).unwrap();
        let pubs = vec![k1.public().clone(), k2.public().clone()];
        for (i, k) in [&k1, &k2].into_iter().enumerate() {
            let sig = ring_sign(b"mixed", &pubs, i, k, &mut r).unwrap();
            ring_verify(b"mixed", &pubs, &sig).unwrap();
        }
    }

    #[test]
    fn signature_size_grows_linearly() {
        let (keys, pubs) = make_ring(4, 128, 18);
        let mut r = rng(19);
        let sig2 = ring_sign(b"m", &pubs[..2], 0, &keys[0], &mut r).unwrap();
        let sig4 = ring_sign(b"m", &pubs[..4], 0, &keys[0], &mut r).unwrap();
        // encoded_len = block * (1 + ring): linear in ring size.
        let block = sig2.encoded_len() / 3;
        assert_eq!(sig4.encoded_len(), block * 5);
    }

    #[test]
    fn signatures_are_randomised() {
        let (keys, pubs) = make_ring(2, 128, 20);
        let mut r = rng(21);
        let s1 = ring_sign(b"m", &pubs, 0, &keys[0], &mut r).unwrap();
        let s2 = ring_sign(b"m", &pubs, 0, &keys[0], &mut r).unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn verify_cache_memoizes_valid_and_invalid() {
        let (keys, pubs) = make_ring(3, 128, 24);
        let sig = ring_sign(b"hello", &pubs, 1, &keys[1], &mut rng(25)).unwrap();
        let cache = VerifyCache::new();

        let (v1, hit1) = cache.verify(b"hello", &pubs, &sig);
        assert_eq!(v1, Ok(()));
        assert!(!hit1, "first verification must be computed");
        let (v2, hit2) = cache.verify(b"hello", &pubs, &sig);
        assert_eq!(v2, Ok(()));
        assert!(hit2, "second verification must come from the cache");

        // A rejection is cached too — and stays a rejection.
        let (b1, bh1) = cache.verify(b"tampered", &pubs, &sig);
        assert_eq!(b1, Err(CryptoError::BadSignature));
        assert!(!bh1);
        let (b2, bh2) = cache.verify(b"tampered", &pubs, &sig);
        assert_eq!(b2, Err(CryptoError::BadSignature));
        assert!(bh2);

        // The memo holds the last triple only: the first one is verified
        // again, to the same verdict.
        assert_eq!(cache.verify(b"hello", &pubs, &sig), (Ok(()), false));
    }

    #[test]
    fn verify_cache_serves_a_cached_forgery_as_bad_signature() {
        // A forged hello replayed to every receiver of one broadcast: the
        // first pays the verification, the rest get the rejection.
        let (keys, pubs) = make_ring(3, 128, 35);
        let mut forged = ring_sign(b"hello", &pubs, 0, &keys[0], &mut rng(36)).unwrap();
        forged.v[0] ^= 1;
        let cache = VerifyCache::new();
        assert_eq!(
            cache.verify(b"hello", &pubs, &forged),
            (Err(CryptoError::BadSignature), false)
        );
        for _ in 0..3 {
            assert_eq!(
                cache.verify(b"hello", &pubs, &forged),
                (Err(CryptoError::BadSignature), true)
            );
        }
    }

    #[test]
    fn verify_cache_recomputes_a_triple_differing_in_one_part() {
        let (keys, pubs) = make_ring(3, 128, 37);
        let (_, other_pubs) = make_ring(1, 128, 38);
        let mut r = rng(39);
        let sig = ring_sign(b"hello", &pubs, 1, &keys[1], &mut r).unwrap();
        let mut one_x = sig.clone();
        one_x.xs[2] = one_x.xs[2].add_ref(&BigUint::one());
        let mut one_key = pubs.clone();
        one_key[0] = other_pubs[0].clone();
        // Same message and ring, another valid signature.
        let resigned = ring_sign(b"hello", &pubs, 2, &keys[2], &mut r).unwrap();

        let cache = VerifyCache::new();
        // Memoize the original triple, then verify the variant.
        let variant = |message: &[u8], ring: &[RsaPublicKey], signature: &RingSignature| {
            assert_eq!(cache.verify(b"hello", &pubs, &sig).0, Ok(()));
            assert_eq!(cache.verify(b"hello", &pubs, &sig), (Ok(()), true));
            let (verdict, hit) = cache.verify(message, ring, signature);
            assert!(!hit, "a differing triple must be recomputed");
            verdict
        };
        let bad = Err(CryptoError::BadSignature);
        assert_eq!(variant(b"hello", &pubs, &one_x), bad);
        assert_eq!(variant(b"hello", &one_key, &sig), bad);
        assert_eq!(variant(b"hellp", &pubs, &sig), bad);
        assert_eq!(variant(b"hello", &pubs, &resigned), Ok(()));
    }

    /// The bytes (`v`, then each `x_i` as a block) of a signature over a
    /// fixed ring of four RSA-512 keys, as computed before SHA-256, the
    /// Feistel round function and the Montgomery product were rewritten.
    #[test]
    fn ring_sign_known_answer() {
        let mut r = rng(0x4b41_5400);
        let keys: Vec<RsaKeyPair> = (0..4)
            .map(|_| RsaKeyPair::generate(512, &mut r).unwrap())
            .collect();
        let pubs: Vec<RsaPublicKey> = keys.iter().map(|k| k.public().clone()).collect();
        let sig = ring_sign(
            b"known-answer hello",
            &pubs,
            2,
            &keys[2],
            &mut rng(0x4b41_5401),
        )
        .unwrap();
        let block = sig.v.len();
        let mut bytes = sig.v.clone();
        for x in &sig.xs {
            bytes.extend_from_slice(&x.to_bytes_be_padded(block).unwrap());
        }
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "3251dcd88ad93c3ecc95e3b80a561516498c2047d98fa31049b0d2a34910ddbe",
                "70d1bac5e01798a90a9bc5de2d0796acc2d7c59d8d94f54d92fb16ffcf15cd0e",
                "71d71d2cc61f4fa9d21279bed4cc3090f6d3f1fc540aa083e4ce5a6a4d3fb371",
                "872fb1304403ff4d5e6a883ac98ff05dc04fa495371b9bd5c2a2dc43be9316fc",
                "d5a8c93068ec15924182c32b0977f1413b83e00880bca19193a666206eea113c",
                "a40163deb0450a9ecc4903d5e4f7de9d039b3ed547fac9f240f22c50ca986694",
                "579bf78c0b11c4edbc9adde2329053de8a2075db38f0246da811fbae2eab701f",
                "71430b2f0eed07df9c5bea47d3b3be189dacbdabc609053ad9b498fac2a29939",
                "74543e0b22ff8369b3ee52ce4398e51d9798e110c7c974a8c5efee92318b0768",
                "0c7c9035852d0a1ee1d3a382deea5104e7c093ce0298bf65a24127080cc5247e",
                "22bc84691a09fb27a39624f8c38bc7bfe887ee35394c8ab628c94cdaca0b75a8",
                "dbe1d832a757c8a2",
            )
        );
        ring_verify(b"known-answer hello", &pubs, &sig).unwrap();
    }

    #[test]
    fn verify_cache_distinguishes_rings() {
        let (keys, pubs) = make_ring(2, 128, 26);
        let (_, other_pubs) = make_ring(2, 128, 27);
        let sig = ring_sign(b"m", &pubs, 0, &keys[0], &mut rng(28)).unwrap();
        let cache = VerifyCache::new();
        assert_eq!(cache.verify(b"m", &pubs, &sig).0, Ok(()));
        // Same message and signature, different ring: distinct cache key,
        // and the verdict flips.
        let (verdict, hit) = cache.verify(b"m", &other_pubs, &sig);
        assert_eq!(verdict, Err(CryptoError::BadSignature));
        assert!(!hit);
    }

    #[test]
    fn verify_cache_rejects_malformed_without_caching() {
        let (keys, pubs) = make_ring(2, 128, 29);
        let sig = ring_sign(b"m", &pubs, 0, &keys[0], &mut rng(30)).unwrap();
        let cache = VerifyCache::new();
        assert_eq!(cache.verify(b"m", &pubs, &sig), (Ok(()), false));
        assert!(matches!(
            cache.verify(b"m", &[] as &[RsaPublicKey], &sig),
            (Err(CryptoError::BadRing(_)), false)
        ));
        assert!(matches!(
            cache.verify(b"m", &pubs[..1], &sig),
            (Err(CryptoError::BadRing(_)), false)
        ));
        // The malformed calls left the memo alone.
        assert_eq!(cache.verify(b"m", &pubs, &sig), (Ok(()), true));
    }

    #[test]
    fn cached_verdicts_match_uncached() {
        let (keys, pubs) = make_ring(3, 128, 31);
        let cache = VerifyCache::new();
        let mut r = rng(32);
        for (s, key) in keys.iter().enumerate() {
            let sig = ring_sign(b"beacon", &pubs, s, key, &mut r).unwrap();
            let direct = ring_verify(b"beacon", &pubs, &sig);
            // Run twice: computed then cached, both equal to the direct
            // verdict.
            assert_eq!(cache.verify(b"beacon", &pubs, &sig).0, direct);
            assert_eq!(cache.verify(b"beacon", &pubs, &sig).0, direct);
        }
    }

    #[test]
    fn borrowed_ring_matches_owned_ring() {
        // A ring of references must behave exactly like a ring of owned
        // keys: signatures interchange and the memo matches either.
        let (keys, pubs) = make_ring(3, 128, 33);
        let refs: Vec<&RsaPublicKey> = pubs.iter().collect();
        let mut r = rng(34);
        let sig = ring_sign(b"borrowed", &refs, 2, &keys[2], &mut r).unwrap();
        ring_verify(b"borrowed", &pubs, &sig).unwrap();
        ring_verify(b"borrowed", &refs, &sig).unwrap();
        let cache = VerifyCache::new();
        assert_eq!(cache.verify(b"borrowed", &pubs, &sig), (Ok(()), false));
        // Same triple through the borrowed ring hits the cached verdict.
        assert_eq!(cache.verify(b"borrowed", &refs, &sig), (Ok(()), true));
    }

    #[test]
    fn signer_ambiguity_smoke() {
        // Two different signers produce signatures that both verify and
        // are structurally identical (same sizes) — nothing in the public
        // signature identifies the slot that was solved.
        let (keys, pubs) = make_ring(2, 128, 22);
        let mut r = rng(23);
        let s0 = ring_sign(b"m", &pubs, 0, &keys[0], &mut r).unwrap();
        let s1 = ring_sign(b"m", &pubs, 1, &keys[1], &mut r).unwrap();
        ring_verify(b"m", &pubs, &s0).unwrap();
        ring_verify(b"m", &pubs, &s1).unwrap();
        assert_eq!(s0.encoded_len(), s1.encoded_len());
    }
}
