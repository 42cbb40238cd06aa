//! The pre-distributed key material the paper assumes.
//!
//! "Our basic assumption in this work is that a legitimate node has its
//! valid certificate obtained from an external certification authority.
//! In addition, the node might need to retrieve enough of them for ring
//! signature scheme before entering the network" (§4). [`KeyDirectory`]
//! is that retrieved set: every node's CA-issued certificate, plus the CA
//! verification key.

use agr_crypto::cert::{Certificate, CertificateAuthority};
use agr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use agr_crypto::CryptoError;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// All certificates in the network, indexed by node identity.
#[derive(Debug)]
pub struct KeyDirectory {
    ca_key: RsaPublicKey,
    certs: BTreeMap<u64, Certificate>,
}

impl KeyDirectory {
    /// Generates a CA, one key pair per node, and the shared directory.
    ///
    /// Returns `(key_pairs, directory)`; `key_pairs[i]` belongs to node
    /// `i`. `bits` sizes the node keys (the paper's configuration is 512).
    ///
    /// # Errors
    ///
    /// Propagates key-generation failures for invalid `bits`.
    pub fn generate<R: Rng + ?Sized>(
        nodes: usize,
        bits: u32,
        rng: &mut R,
    ) -> Result<(Vec<Arc<RsaKeyPair>>, Arc<KeyDirectory>), CryptoError> {
        let ca = CertificateAuthority::new(bits.max(512), rng)?;
        let mut key_pairs = Vec::with_capacity(nodes);
        let mut certs = BTreeMap::new();
        for id in 0..nodes as u64 {
            let keys = RsaKeyPair::generate(bits, rng)?;
            certs.insert(id, ca.issue(id, keys.public().clone()));
            key_pairs.push(Arc::new(keys));
        }
        let dir = KeyDirectory {
            ca_key: ca.public_key().clone(),
            certs,
        };
        Ok((key_pairs, Arc::new(dir)))
    }

    /// The CA's verification key.
    #[must_use]
    pub fn ca_key(&self) -> &RsaPublicKey {
        &self.ca_key
    }

    /// A node's certificate.
    #[must_use]
    pub fn cert(&self, id: u64) -> Option<&Certificate> {
        self.certs.get(&id)
    }

    /// A node's public key (from its certificate).
    #[must_use]
    pub fn public_key(&self, id: u64) -> Option<&RsaPublicKey> {
        self.certs.get(&id).map(Certificate::public_key)
    }

    /// Number of certified nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// True if the directory is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// All certified identities (unordered).
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.certs.keys().copied()
    }

    /// Verifies every certificate against the CA key, as one batch.
    ///
    /// # Errors
    ///
    /// Returns the first certificate failure encountered (identical
    /// semantics to a sequential verification loop).
    pub fn verify_all(&self) -> Result<(), CryptoError> {
        Certificate::verify_batch(self.certs.values(), &self.ca_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_one_cert_per_node() {
        let mut rng = StdRng::seed_from_u64(1);
        let (keys, dir) = KeyDirectory::generate(4, 128, &mut rng).unwrap();
        assert_eq!(keys.len(), 4);
        assert_eq!(dir.len(), 4);
        assert!(!dir.is_empty());
        for id in 0..4u64 {
            let cert = dir.cert(id).unwrap();
            assert_eq!(cert.subject(), id);
            assert_eq!(dir.public_key(id).unwrap(), keys[id as usize].public());
        }
        assert!(dir.cert(99).is_none());
    }

    /// `generate` draws a CA key and then one key per node, in node order,
    /// each by `RsaKeyPair::generate`; with the 512-bit draws pinned by
    /// `agr-crypto`'s `rsa::tests::keygen_known_answer` at this seed, that
    /// pins every key the benchmark's crypto workload generates.
    #[test]
    fn generate_draws_ca_then_nodes_in_order() {
        let seed = 1 ^ 0xa5a5_5a5a;
        let (keys, dir) = KeyDirectory::generate(4, 512, &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert_eq!(dir.ca_key(), ca.public());
        for k in &keys {
            assert_eq!(**k, RsaKeyPair::generate(512, &mut rng).unwrap());
        }
    }

    #[test]
    fn all_certificates_verify() {
        let mut rng = StdRng::seed_from_u64(2);
        let (_, dir) = KeyDirectory::generate(3, 128, &mut rng).unwrap();
        dir.verify_all().unwrap();
    }

    #[test]
    fn ids_cover_all_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let (_, dir) = KeyDirectory::generate(5, 128, &mut rng).unwrap();
        let mut ids: Vec<u64> = dir.ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
