//! A minimal certification authority and node certificates.
//!
//! The paper's trust assumption (§3.2, §4): "each node has a valid
//! certificate signed by a trusted third party like a certification
//! authority (CA)", obtained before entering the network. Ring signatures
//! additionally require each node to hold *other* nodes' certificates to
//! borrow their public keys. This module provides exactly that machinery.

use crate::error::CryptoError;
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use rand::Rng;

/// A node certificate: a CA-signed binding of a subject identity to an RSA
/// public key.
///
/// # Examples
///
/// ```
/// use agr_crypto::cert::{Certificate, CertificateAuthority};
/// use agr_crypto::rsa::RsaKeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let ca = CertificateAuthority::new(256, &mut rng)?;
/// let node_keys = RsaKeyPair::generate(256, &mut rng)?;
/// let cert = ca.issue(42, node_keys.public().clone());
/// Certificate::verify_batch([&cert], ca.public_key())?;
/// assert_eq!(cert.subject(), 42);
/// # Ok::<(), agr_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    subject: u64,
    serial: u64,
    public_key: RsaPublicKey,
    signature: Vec<u8>,
}

impl Certificate {
    /// The certified node identity.
    #[must_use]
    pub fn subject(&self) -> u64 {
        self.subject
    }

    /// The certified public key.
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Size of the certificate on the wire, in bytes: subject + serial +
    /// modulus + exponent + signature.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + 8 + self.public_key.modulus_len() + 4 + self.signature.len()
    }

    /// Verifies the CA signature on many certificates under one CA key —
    /// the bulk path for verifying a whole key directory at once; the
    /// CA key's cached Montgomery context serves every certificate.
    ///
    /// # Errors
    ///
    /// Returns the first failing certificate's error in iteration order:
    /// [`CryptoError::BadSignature`] if it was not issued by the CA owning
    /// `ca_key` or has been altered.
    pub fn verify_batch<'a, I>(certs: I, ca_key: &RsaPublicKey) -> Result<(), CryptoError>
    where
        I: IntoIterator<Item = &'a Certificate>,
    {
        let certs: Vec<&Certificate> = certs.into_iter().collect();
        let tbs: Vec<Vec<u8>> = certs.iter().map(|c| c.tbs_bytes()).collect();
        RsaPublicKey::verify_batch(
            certs
                .iter()
                .zip(&tbs)
                .map(|(c, t)| (ca_key, t.as_slice(), c.signature.as_slice())),
        )
    }

    /// The to-be-signed byte encoding.
    fn tbs_bytes(&self) -> Vec<u8> {
        tbs_bytes(self.subject, self.serial, &self.public_key)
    }
}

fn tbs_bytes(subject: u64, serial: u64, key: &RsaPublicKey) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"AGR-CERT");
    out.extend_from_slice(&subject.to_be_bytes());
    out.extend_from_slice(&serial.to_be_bytes());
    out.extend_from_slice(&key.modulus().to_bytes_be());
    out.extend_from_slice(&key.exponent().to_bytes_be());
    out
}

/// The trusted third party issuing node certificates.
#[derive(Debug)]
pub struct CertificateAuthority {
    keys: RsaKeyPair,
    next_serial: std::cell::Cell<u64>,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh `bits`-bit RSA key.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::KeyGeneration`] for invalid key sizes.
    pub fn new<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, CryptoError> {
        Ok(CertificateAuthority {
            keys: RsaKeyPair::generate(bits, rng)?,
            next_serial: std::cell::Cell::new(1),
        })
    }

    /// The CA's verification key, to be pre-distributed to every node.
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Issues a certificate binding `subject` to `public_key`.
    #[must_use]
    pub fn issue(&self, subject: u64, public_key: RsaPublicKey) -> Certificate {
        let serial = self.next_serial.get();
        self.next_serial.set(serial + 1);
        let signature = self.keys.sign(&tbs_bytes(subject, serial, &public_key));
        Certificate {
            subject,
            serial,
            public_key,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CertificateAuthority, RsaKeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let ca = CertificateAuthority::new(256, &mut rng).unwrap();
        let node = RsaKeyPair::generate(128, &mut rng).unwrap();
        (ca, node, rng)
    }

    #[test]
    fn issued_certificate_verifies() {
        let (ca, node, _) = setup();
        let cert = ca.issue(7, node.public().clone());
        Certificate::verify_batch([&cert], ca.public_key()).unwrap();
        assert_eq!(cert.subject(), 7);
        assert_eq!(cert.public_key(), node.public());
    }

    #[test]
    fn serials_increment() {
        let (ca, node, _) = setup();
        let c1 = ca.issue(1, node.public().clone());
        let c2 = ca.issue(2, node.public().clone());
        assert_eq!(c2.serial, c1.serial + 1);
    }

    #[test]
    fn forged_subject_rejected() {
        let (ca, node, _) = setup();
        let mut cert = ca.issue(7, node.public().clone());
        cert.subject = 8;
        assert_eq!(
            Certificate::verify_batch([&cert], ca.public_key()),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_ca_rejected() {
        let (ca, node, mut rng) = setup();
        let other_ca = CertificateAuthority::new(256, &mut rng).unwrap();
        let cert = ca.issue(7, node.public().clone());
        assert_eq!(
            Certificate::verify_batch([&cert], other_ca.public_key()),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn swapped_key_rejected() {
        let (ca, node, mut rng) = setup();
        let other = RsaKeyPair::generate(128, &mut rng).unwrap();
        let mut cert = ca.issue(7, node.public().clone());
        cert.public_key = other.public().clone();
        assert_eq!(
            Certificate::verify_batch([&cert], ca.public_key()),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_batch_matches_sequential() {
        let (ca, node, mut rng) = setup();
        let other = RsaKeyPair::generate(128, &mut rng).unwrap();
        let certs: Vec<Certificate> = vec![
            ca.issue(1, node.public().clone()),
            ca.issue(2, other.public().clone()),
            ca.issue(3, node.public().clone()),
        ];
        Certificate::verify_batch(&certs, ca.public_key()).unwrap();
        Certificate::verify_batch([], ca.public_key()).unwrap();
        // One forged subject fails the whole batch, like the loop would.
        let mut forged = certs.clone();
        forged[1].subject = 99;
        assert_eq!(
            Certificate::verify_batch(&forged, ca.public_key()),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn encoded_len_counts_components() {
        let (ca, node, _) = setup();
        let cert = ca.issue(7, node.public().clone());
        // 8 + 8 + 16 (128-bit modulus) + 4 + 32 (256-bit CA signature)
        assert_eq!(cert.encoded_len(), 8 + 8 + 16 + 4 + 32);
    }
}
