//! RSA key generation, encryption, and signatures.
//!
//! The paper's simulations use RSA with a 512-bit public key, giving the
//! 64-byte trapdoor bound of §5.1.
//! Encryption uses PKCS#1-v1.5-style type-2 random padding and signatures
//! use type-1 padding over a SHA-256 digest (a simplified DigestInfo — this
//! is a protocol reproduction, not an interoperable PKCS#1 stack).
//!
//! The *raw* `x^e mod n` / `y^d mod n` permutations are also exposed
//! (`RsaPublicKey::raw_encrypt`, `RsaKeyPair::raw_decrypt`) because the
//! Rivest–Shamir–Tauman ring signature is built directly on the trapdoor
//! permutation, not on padded encryption.

use crate::bigint::{BigUint, MontCache};
use crate::error::CryptoError;
use crate::prime;
use crate::sha256::Sha256;
use rand::Rng;

/// PKCS#1 v1.5 overhead: `00 || BT || PS(>=8) || 00` costs 11 bytes.
const PKCS1_OVERHEAD: usize = 11;

/// Domain-separation prefix hashed into signatures.
const SIG_PREFIX: &[u8] = b"AGR-SHA256:";

/// An RSA public key `(n, e)`.
///
/// # Examples
///
/// ```
/// use agr_crypto::rsa::RsaKeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let keys = RsaKeyPair::generate(256, &mut rng)?;
/// let pk = keys.public();
/// assert_eq!(pk.bits(), 256);
/// # Ok::<(), agr_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    bits: u32,
    /// Lazily-built Montgomery context for `n`, shared by every
    /// `raw_encrypt` under this key (trapdoor seals, signature checks, and
    /// the ring signature's `k+1` permutations per beacon). Invisible to
    /// the derived `PartialEq`/`Hash`.
    mont: MontCache,
}

impl RsaPublicKey {
    /// The modulus `n`.
    #[must_use]
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    #[must_use]
    pub(crate) fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Key size in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Modulus (and therefore ciphertext/signature block) size in bytes.
    #[must_use]
    pub(crate) fn modulus_len(&self) -> usize {
        (self.bits as usize).div_ceil(8)
    }

    /// Longest plaintext `encrypt` accepts, in bytes.
    #[must_use]
    pub(crate) fn max_plaintext_len(&self) -> usize {
        self.modulus_len().saturating_sub(PKCS1_OVERHEAD)
    }

    /// The raw trapdoor permutation `x ↦ x^e mod n`.
    ///
    /// No padding; used by the ring signature. The caller must ensure
    /// `x < n` for the map to be a permutation.
    #[must_use]
    pub(crate) fn raw_encrypt(&self, x: &BigUint) -> BigUint {
        self.mont.get(&self.n).pow(x, &self.e)
    }

    /// Encrypts `msg` with PKCS#1-v1.5 type-2 random padding.
    ///
    /// The returned ciphertext is exactly `RsaPublicKey::modulus_len`
    /// bytes — for the paper's RSA-512, the 64-byte trapdoor of §5.1.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if `msg` exceeds
    /// `RsaPublicKey::max_plaintext_len`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() > self.max_plaintext_len() {
            return Err(CryptoError::MessageTooLong {
                got: msg.len(),
                max: self.max_plaintext_len(),
            });
        }
        // 00 02 PS 00 M, PS random non-zero.
        let mut block = Vec::with_capacity(k);
        block.push(0x00);
        block.push(0x02);
        for _ in 0..(k - msg.len() - 3) {
            block.push(rng.random_range(1..=255u8));
        }
        block.push(0x00);
        block.extend_from_slice(msg);
        let m = BigUint::from_bytes_be(&block);
        let c = self.raw_encrypt(&m);
        Ok(c.to_bytes_be_padded(k).expect("c < n fits in k bytes"))
    }

    /// Encrypts `msg` with *deterministic* padding: the padding string is
    /// derived from the message, so equal plaintexts yield equal
    /// ciphertexts under the same key.
    ///
    /// This exists for the anonymous location service's index component
    /// `E_KB(A, B)` (paper §3.3): the updater and the requester must
    /// independently compute the *same* ciphertext for the server to match
    /// records. Determinism is also exactly why §3.3 warns that "a
    /// sophisticated attacker may find a matching identity ... by
    /// collecting enough certificates or computing it exhaustively" —
    /// deterministic encryption permits dictionary attacks. Use
    /// [`RsaPublicKey::encrypt`] for everything else.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if `msg` exceeds
    /// `RsaPublicKey::max_plaintext_len`.
    pub fn encrypt_deterministic(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() > self.max_plaintext_len() {
            return Err(CryptoError::MessageTooLong {
                got: msg.len(),
                max: self.max_plaintext_len(),
            });
        }
        let mut block = Vec::with_capacity(k);
        block.push(0x00);
        block.push(0x02);
        // Message-derived non-zero padding bytes.
        let ps_len = k - msg.len() - 3;
        let mut counter: u32 = 0;
        while block.len() < 2 + ps_len {
            let digest = Sha256::digest_parts(&[b"AGR-DETPAD", &counter.to_le_bytes(), msg]);
            for &b in &digest {
                if block.len() == 2 + ps_len {
                    break;
                }
                block.push(if b == 0 { 1 } else { b });
            }
            counter += 1;
        }
        block.push(0x00);
        block.extend_from_slice(msg);
        let m = BigUint::from_bytes_be(&block);
        let c = self.raw_encrypt(&m);
        Ok(c.to_bytes_be_padded(k).expect("c < n fits in k bytes"))
    }

    /// Verifies `signature` over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BlockSizeMismatch`] if the signature has the
    /// wrong length, or [`CryptoError::BadSignature`] if it does not verify.
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::BlockSizeMismatch {
                got: signature.len(),
                expected: k,
            });
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let recovered = self.raw_encrypt(&s);
        // recovered < n < 2^(8k), so comparing the integers is exactly
        // comparing the k-byte padded blocks.
        if recovered == BigUint::from_bytes_be(&signature_block(msg, k)) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Verifies a burst of `(key, message, signature)` triples, one by one.
    ///
    /// # Errors
    ///
    /// Returns the first failing item's error in iteration order, exactly
    /// as a sequential [`RsaPublicKey::verify`] loop would. An empty batch
    /// is vacuously `Ok`.
    pub(crate) fn verify_batch<'a, I>(items: I) -> Result<(), CryptoError>
    where
        I: IntoIterator<Item = (&'a RsaPublicKey, &'a [u8], &'a [u8])>,
    {
        items
            .into_iter()
            .try_for_each(|(key, msg, sig)| key.verify(msg, sig))
    }
}

/// An RSA key pair, holding the CRT private material.
///
/// The `Debug` representation intentionally omits the private values.
#[derive(Clone, PartialEq, Eq)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for the CRT prime moduli, reused across every
    /// `raw_decrypt` (trapdoor opens dominate AGFW's per-packet cost: each
    /// forwarder tries to open every data packet it carries).
    mont_p: MontCache,
    mont_q: MontCache,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of exactly `bits` bits and
    /// public exponent 65537.
    ///
    /// The paper's configuration (§5.1) is `generate(512, ...)`; tests use
    /// smaller keys for speed.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyGeneration`] if `bits` is below 64 or odd.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, CryptoError> {
        if bits < 64 {
            return Err(CryptoError::KeyGeneration("key size below 64 bits"));
        }
        if !bits.is_multiple_of(2) {
            return Err(CryptoError::KeyGeneration("key size must be even"));
        }
        let e = BigUint::from_u64(65_537);
        let one = BigUint::one();
        loop {
            let p = prime::gen_prime(bits / 2, rng);
            let q = prime::gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            if n.bits() != bits {
                continue;
            }
            let p1 = p.checked_sub(&one).expect("p > 1");
            let q1 = q.checked_sub(&one).expect("q > 1");
            let phi = p1.mul_ref(&q1);
            let Some(d) = e.mod_inverse(&phi) else {
                continue; // gcd(e, phi) != 1; re-draw primes
            };
            let dp = d.rem_ref(&p1);
            let dq = d.rem_ref(&q1);
            let qinv = q.mod_inverse(&p).expect("p, q distinct primes");
            return Ok(RsaKeyPair {
                public: RsaPublicKey {
                    n,
                    e,
                    bits,
                    mont: MontCache::new(),
                },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                mont_p: MontCache::new(),
                mont_q: MontCache::new(),
            });
        }
    }

    /// The public half of the key pair.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The raw trapdoor inversion `y ↦ y^d mod n`, via CRT.
    ///
    /// No padding; used by the ring signature.
    #[must_use]
    pub(crate) fn raw_decrypt(&self, y: &BigUint) -> BigUint {
        // CRT: m1 = y^dp mod p, m2 = y^dq mod q,
        //      h = qinv (m1 - m2) mod p, m = m2 + q h.
        let m1 = self.mont_p.get(&self.p).pow(y, &self.dp);
        let m2 = self.mont_q.get(&self.q).pow(y, &self.dq);
        let m2_mod_p = m2.rem_ref(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.checked_sub(&m2_mod_p).expect("m1 >= m2 mod p")
        } else {
            self.p
                .checked_sub(&m2_mod_p)
                .expect("m2_mod_p < p")
                .add_ref(&m1)
        };
        let h = self.qinv.mul_ref(&diff).rem_ref(&self.p);
        m2.add_ref(&self.q.mul_ref(&h))
    }

    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BlockSizeMismatch`] for a wrong-size
    /// ciphertext and [`CryptoError::BadPadding`] when the padding does not
    /// check out — which is exactly the "trapdoor did not open" signal in
    /// AGFW.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::BlockSizeMismatch {
                got: ciphertext.len(),
                expected: k,
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::BadPadding);
        }
        let m = self.raw_decrypt(&c);
        let block = m.to_bytes_be_padded(k).expect("m < n fits in k bytes");
        // Expect 00 02 PS 00 M with PS at least 8 bytes.
        if block[0] != 0x00 || block[1] != 0x02 {
            return Err(CryptoError::BadPadding);
        }
        let sep = block[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadPadding)?;
        if sep < 8 {
            return Err(CryptoError::BadPadding);
        }
        Ok(block[2 + sep + 1..].to_vec())
    }

    /// Signs `msg` (deterministically) with type-1 padding over SHA-256.
    ///
    /// The signature is `RsaPublicKey::modulus_len` bytes.
    #[must_use]
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let block = signature_block(msg, k);
        let m = BigUint::from_bytes_be(&block);
        let s = self.raw_decrypt(&m);
        s.to_bytes_be_padded(k).expect("s < n fits in k bytes")
    }
}

/// The deterministic type-1 padded block both signer and verifier compute:
/// `00 01 FF..FF 00 || SHA-256(prefix || msg)`.
///
/// The digest is truncated when the modulus is too small to carry all 32
/// bytes (only relevant to the sub-256-bit keys used in fast tests; the
/// paper's 512-bit keys always carry the full digest).
///
/// # Panics
///
/// Panics if the modulus is smaller than 20 bytes (160 bits), which cannot
/// carry a meaningful digest.
fn signature_block(msg: &[u8], k: usize) -> Vec<u8> {
    assert!(k >= 20, "signing requires at least 160-bit keys");
    let digest = Sha256::digest_parts(&[SIG_PREFIX, msg]);
    let payload_len = digest.len().min(k - 11);
    let mut block = Vec::with_capacity(k);
    block.push(0x00);
    block.push(0x01);
    block.resize(k - payload_len - 1, 0xff);
    block.push(0x00);
    block.extend_from_slice(&digest[..payload_len]);
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn test_keys() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut rng(99)).unwrap()
    }

    /// Pins key generation bit for bit: SHA-256 over the CA modulus and
    /// every node key's `n`, `d`, `p` and `q`, drawn in the order
    /// `KeyDirectory::generate(4, 512, …)` draws them (a CA key, then four
    /// node keys) from the benchmark's key seed `1 ^ 0xa5a5_5a5a`, plus one
    /// 1024-bit key drawn next. Prime search, Miller–Rabin and the bignum
    /// layer under them must leave every key, and every RNG draw, alone.
    #[test]
    fn keygen_known_answer() {
        let mut r = rng(1 ^ 0xa5a5_5a5a);
        let mut h = Sha256::new();
        let mut absorb = |v: &BigUint| {
            let bytes = v.to_bytes_be();
            h.update(&(bytes.len() as u32).to_be_bytes());
            h.update(&bytes);
        };
        let ca = RsaKeyPair::generate(512, &mut r).unwrap();
        absorb(&ca.public.n);
        for bits in [512, 512, 512, 512, 1024] {
            let k = RsaKeyPair::generate(bits, &mut r).unwrap();
            for v in [&k.public.n, &k.d, &k.p, &k.q] {
                absorb(v);
            }
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "48b31b9c69d450f1dc96e3adc478846aa784e5abac7e057ef45b1340821cdba4"
        );
    }

    #[test]
    fn generate_rejects_bad_sizes() {
        assert!(matches!(
            RsaKeyPair::generate(32, &mut rng(0)),
            Err(CryptoError::KeyGeneration(_))
        ));
        assert!(matches!(
            RsaKeyPair::generate(129, &mut rng(0)),
            Err(CryptoError::KeyGeneration(_))
        ));
    }

    #[test]
    fn modulus_has_requested_bits() {
        for bits in [64u32, 128, 256] {
            let keys = RsaKeyPair::generate(bits, &mut rng(u64::from(bits))).unwrap();
            assert_eq!(keys.public().bits(), bits);
            assert_eq!(keys.public().modulus().bits(), bits);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let keys = RsaKeyPair::generate(128, &mut rng(5)).unwrap();
        let x = BigUint::from_u64(0xdead_beef_1234_5678);
        let y = keys.public().raw_encrypt(&x);
        assert_ne!(y, x);
        assert_eq!(keys.raw_decrypt(&y), x);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let keys = test_keys();
        let mut r = rng(7);
        for msg in [&b""[..], b"x", b"hello world", &[0u8; 53]] {
            let ct = keys.public().encrypt(msg, &mut r).unwrap();
            assert_eq!(ct.len(), 64, "RSA-512 ciphertext is 64 bytes (paper S5.1)");
            assert_eq!(keys.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_is_randomised() {
        let keys = test_keys();
        let mut r = rng(8);
        let c1 = keys.public().encrypt(b"same", &mut r).unwrap();
        let c2 = keys.public().encrypt(b"same", &mut r).unwrap();
        assert_ne!(c1, c2, "type-2 padding must randomise ciphertexts");
    }

    #[test]
    fn oversize_message_rejected() {
        let keys = test_keys();
        let msg = [0u8; 54]; // max is 64 - 11 = 53
        assert_eq!(
            keys.public().encrypt(&msg, &mut rng(1)),
            Err(CryptoError::MessageTooLong { got: 54, max: 53 })
        );
    }

    #[test]
    fn wrong_key_fails_padding() {
        // This property is what makes the AGFW trapdoor work: a node that
        // is not the destination sees BadPadding, i.e. "trapdoor did not
        // open".
        let keys_a = RsaKeyPair::generate(256, &mut rng(10)).unwrap();
        let keys_b = RsaKeyPair::generate(256, &mut rng(11)).unwrap();
        let ct = keys_a
            .public()
            .encrypt(b"for A only", &mut rng(12))
            .unwrap();
        assert_eq!(keys_b.decrypt(&ct), Err(CryptoError::BadPadding));
        assert_eq!(keys_a.decrypt(&ct).unwrap(), b"for A only");
    }

    #[test]
    fn ciphertext_size_checked() {
        let keys = test_keys();
        assert!(matches!(
            keys.decrypt(&[0u8; 10]),
            Err(CryptoError::BlockSizeMismatch {
                got: 10,
                expected: 64
            })
        ));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = test_keys();
        let sig = keys.sign(b"hello message");
        assert_eq!(sig.len(), 64);
        keys.public().verify(b"hello message", &sig).unwrap();
    }

    #[test]
    fn tampered_message_fails_verification() {
        let keys = test_keys();
        let sig = keys.sign(b"hello message");
        assert_eq!(
            keys.public().verify(b"hello messagf", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let keys = test_keys();
        let mut sig = keys.sign(b"msg");
        sig[10] ^= 0x01;
        assert_eq!(
            keys.public().verify(b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn signature_from_other_key_rejected() {
        let keys_a = RsaKeyPair::generate(256, &mut rng(20)).unwrap();
        let keys_b = RsaKeyPair::generate(256, &mut rng(21)).unwrap();
        let sig = keys_a.sign(b"msg");
        assert_eq!(
            keys_b.public().verify(b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn signing_is_deterministic() {
        let keys = test_keys();
        assert_eq!(keys.sign(b"abc"), keys.sign(b"abc"));
    }

    #[test]
    fn debug_redacts_private_key() {
        let keys = RsaKeyPair::generate(64, &mut rng(3)).unwrap();
        let dbg = format!("{keys:?}");
        assert!(dbg.contains("<redacted>"));
        assert!(!dbg.contains(&format!("{}", keys.d)));
    }

    #[test]
    fn deterministic_encryption_is_deterministic() {
        let keys = test_keys();
        let c1 = keys.public().encrypt_deterministic(b"A||B").unwrap();
        let c2 = keys.public().encrypt_deterministic(b"A||B").unwrap();
        assert_eq!(c1, c2, "equal plaintexts must produce equal ciphertexts");
        let c3 = keys.public().encrypt_deterministic(b"A||C").unwrap();
        assert_ne!(c1, c3);
        // And it still decrypts like normal PKCS#1 type 2.
        assert_eq!(keys.decrypt(&c1).unwrap(), b"A||B");
    }

    #[test]
    fn deterministic_encryption_size_limit() {
        let keys = test_keys();
        assert!(matches!(
            keys.public().encrypt_deterministic(&[0u8; 54]),
            Err(CryptoError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn verify_batch_accepts_valid_mixed_key_batch() {
        let keys_a = RsaKeyPair::generate(256, &mut rng(40)).unwrap();
        let keys_b = RsaKeyPair::generate(256, &mut rng(41)).unwrap();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 10]).collect();
        let sigs: Vec<Vec<u8>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if i % 2 == 0 {
                    keys_a.sign(m)
                } else {
                    keys_b.sign(m)
                }
            })
            .collect();
        let items: Vec<(&RsaPublicKey, &[u8], &[u8])> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = if i % 2 == 0 {
                    keys_a.public()
                } else {
                    keys_b.public()
                };
                (key, m.as_slice(), sigs[i].as_slice())
            })
            .collect();
        assert!(RsaPublicKey::verify_batch(items).is_ok());
        assert!(RsaPublicKey::verify_batch(std::iter::empty()).is_ok());
    }

    #[test]
    fn verify_batch_reports_first_failure() {
        let keys = test_keys();
        let msgs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 5]).collect();
        let mut sigs: Vec<Vec<u8>> = msgs.iter().map(|m| keys.sign(m)).collect();
        sigs[1][7] ^= 1;
        let items: Vec<(&RsaPublicKey, &[u8], &[u8])> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (keys.public(), m.as_slice(), s.as_slice()))
            .collect();
        assert_eq!(
            RsaPublicKey::verify_batch(items),
            Err(CryptoError::BadSignature)
        );
        // Wrong-length signature surfaces as a size mismatch, like verify.
        assert_eq!(
            RsaPublicKey::verify_batch([(keys.public(), &b"m"[..], &b"short"[..])]),
            Err(CryptoError::BlockSizeMismatch {
                got: 5,
                expected: 64
            })
        );
    }

    #[test]
    fn crt_decrypt_matches_plain_exponentiation() {
        let keys = RsaKeyPair::generate(128, &mut rng(33)).unwrap();
        let msg = BigUint::from_u64(123_456_789);
        let c = keys.public().raw_encrypt(&msg);
        let plain = c.modpow(&keys.d, keys.public().modulus());
        assert_eq!(keys.raw_decrypt(&c), plain);
    }
}
