//! From-scratch cryptographic substrate for anonymous geographic routing.
//!
//! The paper assumes a working public-key infrastructure: RSA-512 trapdoors
//! (§5.1), a "collision-resistant hash" for pseudonyms (§3.1.1),
//! Rivest–Shamir–Tauman ring signatures for the authenticated anonymous
//! neighbor table (§3.1.2), and CA-issued certificates (§3.2). None of that
//! may be assumed away in a reproduction, so this crate implements the full
//! stack with no external crypto dependencies:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers with Montgomery
//!   modular exponentiation ([`bigint`]).
//! * `prime` — Miller–Rabin probabilistic prime generation.
//! * [`rsa`] — RSA key generation, PKCS#1-v1.5-style encryption and
//!   signatures (512-bit keys by default, per the paper).
//! * [`sha256`] — FIPS 180-4 SHA-256.
//! * [`feistel`] — a SHA-256-based Feistel block cipher, the symmetric
//!   permutation `E_k` required by the ring-signature combining function.
//! * [`ring_sig`] — the Rivest–Shamir–Tauman "How to leak a secret" ring
//!   signature over RSA trapdoor permutations.
//! * [`cert`] — a minimal certification authority issuing node
//!   certificates.
//! * [`trapdoor`] — the AGFW destination-detection trapdoor
//!   `KU_d(src, loc_s, tag_d)`, in both the paper's RSA form and the
//!   suggested lower-cost symmetric form.
//!
//! # Security disclaimer
//!
//! This code reproduces a 2005 research design (raw-ish RSA-512, ad-hoc
//! paddings). It is faithful to the paper and correct as mathematics, but
//! **not** hardened against side channels and **not** intended to protect
//! real data.
//!
//! # Examples
//!
//! ```
//! use agr_crypto::rsa::RsaKeyPair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = RsaKeyPair::generate(256, &mut rng)?;
//! let ct = keys.public().encrypt(b"hello", &mut rng)?;
//! assert_eq!(keys.decrypt(&ct)?, b"hello");
//! # Ok::<(), agr_crypto::CryptoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod cert;
mod error;
pub mod feistel;
mod limbs;
mod prime;
pub mod ring_sig;
pub mod rsa;
pub mod sha256;
pub mod trapdoor;

pub(crate) use bigint::BigUint;
pub use error::CryptoError;
pub use sha256::Sha256;
