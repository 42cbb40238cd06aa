//! AANT — the authenticated anonymous neighbor table (§3.1.2).
//!
//! The first-version ANT accepts any hello, so "the attacker could forge
//! a lot of hello messages with arbitrary pseudonyms to severely degrade
//! the performance and to mislead the forwarding direction". AANT fixes
//! this with Rivest–Shamir–Tauman ring signatures: every hello is signed
//! so that the verifier learns *an authorised node sent this* without
//! learning *which* — a `(k+1)`-anonymous neighbor table.
//!
//! Per §4's overhead optimisation, hellos carry ring member *identities*
//! (resolving to certificates every node already holds in its
//! [`KeyDirectory`]) rather than whole certificates.

use crate::keys::KeyDirectory;
use crate::packet::HelloAuth;
use crate::pseudonym::Pseudonym;
use agr_crypto::ring_sig::{ring_sign, ring_verify, VerifyCache};
use agr_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use agr_geom::Point;
use agr_sim::SimTime;
use rand::Rng;
use std::sync::Arc;

/// AANT parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AantConfig {
    /// Total ring size (the signer plus `k` decoys): the table becomes
    /// `ring_size`-anonymous. Larger rings mean stronger anonymity and
    /// linearly more hello bytes (§4).
    pub ring_size: usize,
}

impl Default for AantConfig {
    fn default() -> Self {
        AantConfig { ring_size: 4 }
    }
}

/// Per-node AANT signer/verifier state.
#[derive(Debug)]
pub struct Aant {
    my_id: u64,
    keypair: Arc<RsaKeyPair>,
    directory: Arc<KeyDirectory>,
    config: AantConfig,
    /// Optional shared memoization of ring-verify verdicts (see
    /// [`with_verify_cache`](Aant::with_verify_cache)).
    verify_cache: Option<Arc<VerifyCache>>,
}

impl Aant {
    /// Creates the AANT state for node `my_id`.
    ///
    /// # Panics
    ///
    /// Panics if the ring size is below 1 or exceeds the directory size,
    /// or if the directory lacks `my_id`'s certificate.
    #[must_use]
    pub fn new(
        my_id: u64,
        keypair: Arc<RsaKeyPair>,
        directory: Arc<KeyDirectory>,
        config: AantConfig,
    ) -> Self {
        assert!(config.ring_size >= 1, "ring must contain the signer");
        assert!(
            config.ring_size <= directory.len(),
            "ring larger than the certified population"
        );
        assert!(
            directory.public_key(my_id) == Some(keypair.public()),
            "directory certificate does not match this node's key pair"
        );
        Aant {
            my_id,
            keypair,
            directory,
            config,
            verify_cache: None,
        }
    }

    /// Attaches a shared memo of the last ring-verify verdict.
    ///
    /// A hello broadcast reaches every neighbor in radio range, and each
    /// one verifies the *same* `(message, ring, signature)` triple, one
    /// receiver after another; with one memo shared across a simulation's
    /// nodes only the first receiver pays the RSA operations, and the rest
    /// compare the triple with the memoized one. Sharing verdicts is sound
    /// because verification is a pure function of public bytes — no
    /// per-verifier secret enters the computation.
    #[must_use]
    pub(crate) fn with_verify_cache(mut self, cache: Arc<VerifyCache>) -> Self {
        self.verify_cache = Some(cache);
        self
    }

    /// The canonical byte encoding of a hello, signed and verified by both
    /// ends.
    #[must_use]
    pub(crate) fn hello_message(n: Pseudonym, loc: Point, ts: SimTime) -> [u8; 30] {
        let mut m = [0u8; 30];
        m[..6].copy_from_slice(&n.0);
        m[6..14].copy_from_slice(&loc.x.to_be_bytes());
        m[14..22].copy_from_slice(&loc.y.to_be_bytes());
        m[22..].copy_from_slice(&ts.as_nanos().to_be_bytes());
        m
    }

    /// Ring-signs a hello: draws `ring_size - 1` random decoy members and
    /// hides the signer at a random ring position ("to avoid correlation
    /// of two transmissions with the same set of signers, the sender
    /// should randomly select k public keys among all valid users",
    /// §3.1.2).
    pub fn sign_hello<R: Rng + ?Sized>(
        &self,
        n: Pseudonym,
        loc: Point,
        ts: SimTime,
        rng: &mut R,
    ) -> HelloAuth {
        let mut others: Vec<u64> = self.directory.ids().filter(|&i| i != self.my_id).collect();
        others.sort_unstable(); // deterministic base order
                                // Partial Fisher-Yates for the decoys.
        let decoys = self.config.ring_size - 1;
        for i in 0..decoys.min(others.len()) {
            let j = rng.random_range(i..others.len());
            others.swap(i, j);
        }
        let mut ring_ids: Vec<u64> = others[..decoys].to_vec();
        let my_slot = rng.random_range(0..=ring_ids.len());
        ring_ids.insert(my_slot, self.my_id);
        // Ring of borrowed keys: no key material (or warmed Montgomery
        // context) is cloned per beacon.
        let ring: Vec<&RsaPublicKey> = ring_ids
            .iter()
            .map(|&id| {
                self.directory
                    .public_key(id)
                    .expect("directory covers all nodes")
            })
            .collect();
        let message = Self::hello_message(n, loc, ts);
        let signature = ring_sign(&message, &ring, my_slot, &self.keypair, rng)
            .expect("ring assembled consistently");
        HelloAuth {
            ring_ids,
            signature,
        }
    }

    /// Verifies a received hello's ring signature.
    ///
    /// Returns `false` for unknown ring members, wrong ring sizes, or an
    /// invalid signature — the hello must then be ignored, which is what
    /// blocks the forged-hello attack.
    #[must_use]
    pub fn verify_hello(&self, n: Pseudonym, loc: Point, ts: SimTime, auth: &HelloAuth) -> bool {
        self.verify_hello_cached(n, loc, ts, auth).0
    }

    /// [`verify_hello`](Aant::verify_hello), reporting cache usage.
    ///
    /// Returns `(valid, hit)` where `hit` is true when the verdict came
    /// from the attached [`VerifyCache`] instead of being recomputed
    /// (always false without a cache).
    #[must_use]
    pub(crate) fn verify_hello_cached(
        &self,
        n: Pseudonym,
        loc: Point,
        ts: SimTime,
        auth: &HelloAuth,
    ) -> (bool, bool) {
        if auth.ring_ids.is_empty() {
            return (false, false);
        }
        // Borrowed ring: the common memo-hit path compares ring keys
        // without cloning them (modulus, exponent, warmed Montgomery
        // context).
        let mut ring: Vec<&RsaPublicKey> = Vec::with_capacity(auth.ring_ids.len());
        for &id in &auth.ring_ids {
            match self.directory.public_key(id) {
                Some(k) => ring.push(k),
                None => return (false, false),
            }
        }
        let message = Self::hello_message(n, loc, ts);
        match &self.verify_cache {
            Some(cache) => {
                let (verdict, hit) = cache.verify(&message, &ring, &auth.signature);
                (verdict.is_ok(), hit)
            }
            None => (ring_verify(&message, &ring, &auth.signature).is_ok(), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(nodes: usize, ring: usize) -> (Vec<Aant>, StdRng) {
        let mut rng = StdRng::seed_from_u64(1234);
        let (keys, dir) = KeyDirectory::generate(nodes, 128, &mut rng).unwrap();
        let aants = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                Aant::new(
                    i as u64,
                    Arc::clone(k),
                    Arc::clone(&dir),
                    AantConfig { ring_size: ring },
                )
            })
            .collect();
        (aants, rng)
    }

    #[test]
    fn signed_hello_verifies_at_any_node() {
        let (aants, mut rng) = setup(5, 3);
        let n = Pseudonym::derive(1, 0);
        let loc = Point::new(10.0, 20.0);
        let ts = SimTime::from_secs(3);
        let auth = aants[0].sign_hello(n, loc, ts, &mut rng);
        assert_eq!(auth.ring_ids.len(), 3);
        assert!(auth.ring_ids.contains(&0));
        for verifier in &aants {
            assert!(verifier.verify_hello(n, loc, ts, &auth));
        }
    }

    #[test]
    fn tampered_hello_rejected() {
        let (aants, mut rng) = setup(4, 2);
        let n = Pseudonym::derive(1, 0);
        let loc = Point::new(10.0, 20.0);
        let ts = SimTime::from_secs(3);
        let auth = aants[0].sign_hello(n, loc, ts, &mut rng);
        // A spoofer moves the advertised location: signature breaks.
        assert!(!aants[1].verify_hello(n, Point::new(999.0, 0.0), ts, &auth));
        // Or replays under a different pseudonym.
        assert!(!aants[1].verify_hello(Pseudonym::derive(2, 0), loc, ts, &auth));
    }

    #[test]
    fn unknown_ring_member_rejected() {
        let (aants, mut rng) = setup(3, 2);
        let n = Pseudonym::derive(1, 0);
        let mut auth = aants[0].sign_hello(n, Point::ORIGIN, SimTime::ZERO, &mut rng);
        auth.ring_ids[0] = 999; // not in the directory
        assert!(!aants[1].verify_hello(n, Point::ORIGIN, SimTime::ZERO, &auth));
    }

    #[test]
    fn forged_hello_without_private_key_rejected() {
        // An outsider with no certified key cannot produce a valid auth:
        // simulate by verifying a signature against a different message
        // (the closest an outsider gets is replay, covered above) and by
        // a wrong-size ring.
        let (aants, mut rng) = setup(3, 2);
        let n = Pseudonym::derive(1, 0);
        let mut auth = aants[0].sign_hello(n, Point::ORIGIN, SimTime::ZERO, &mut rng);
        auth.ring_ids.pop();
        assert!(!aants[1].verify_hello(n, Point::ORIGIN, SimTime::ZERO, &auth));
    }

    #[test]
    fn ring_of_one_is_degenerate_but_valid() {
        // ring_size 1 = no anonymity (plain signature); still verifies.
        let (aants, mut rng) = setup(2, 1);
        let n = Pseudonym::derive(1, 0);
        let auth = aants[0].sign_hello(n, Point::ORIGIN, SimTime::ZERO, &mut rng);
        assert_eq!(auth.ring_ids, vec![0]);
        assert!(aants[1].verify_hello(n, Point::ORIGIN, SimTime::ZERO, &auth));
    }

    #[test]
    fn hello_bytes_grow_linearly_with_ring() {
        let (aants2, mut rng) = setup(8, 2);
        let n = Pseudonym::derive(1, 0);
        let a2 = aants2[0].sign_hello(n, Point::ORIGIN, SimTime::ZERO, &mut rng);
        let (aants6, mut rng) = setup(8, 6);
        let a6 = aants6[0].sign_hello(n, Point::ORIGIN, SimTime::ZERO, &mut rng);
        assert!(a6.wire_bytes() > a2.wire_bytes());
        // Each extra member adds one signature block (x_i) plus 8 id bytes.
        let per_member = (a6.wire_bytes() - a2.wire_bytes()) / 4;
        assert!(
            per_member >= 8 + 16,
            "per-member cost {per_member} implausibly small"
        );
    }

    #[test]
    #[should_panic(expected = "ring larger")]
    fn oversized_ring_rejected() {
        let (_aants, mut rng) = setup(2, 2);
        let (keys, dir) = KeyDirectory::generate(2, 128, &mut rng).unwrap();
        let _ = Aant::new(0, Arc::clone(&keys[0]), dir, AantConfig { ring_size: 10 });
    }
}
