//! Equivalence proofs for the fixed-limb Montgomery fast paths.
//!
//! The windowed scratch-arena exponentiation ([`Montgomery::pow_with_scratch`])
//! must be *bit-identical* to the frozen `Vec<u64>` reference path
//! ([`Montgomery::pow_reference`]) — that identity is what keeps every
//! golden event stream byte-stable across the perf rewrite. These tests
//! pin it across random 192/256/512/1024/2048-bit operands, including
//! operands shorter than the modulus (top limbs zero) and
//! `base >= modulus`. 256 and 512 bits are the two widths the Montgomery
//! product specialises (an RSA-512 CRT half and the modulus); 192 bits
//! (3 limbs) runs the run-time-width body.

use agr_crypto::bigint::{BigUint, MontScratch, Montgomery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed odd modulus with exactly `bits` significant bits, derived from
/// a seeded RNG (Montgomery needs odd, not prime, so no keygen cost).
fn modulus(bits: u32) -> BigUint {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 ^ u64::from(bits));
    let mut buf = vec![0u8; bits as usize / 8];
    rng.fill(&mut buf[..]);
    buf[0] |= 0x80; // exact bit length
    let last = buf.len() - 1;
    buf[last] |= 1; // odd
    BigUint::from_bytes_be(&buf)
}

/// Operand bytes up to `max` long; short vectors (including empty) give
/// values whose top limbs are zero relative to the modulus width, long
/// ones give `base >= modulus`.
fn operand(max: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..=max).prop_map(|b| BigUint::from_bytes_be(&b))
}

/// One equivalence check: scratch-windowed vs frozen reference.
fn assert_pow_matches(m: &BigUint, base: &BigUint, exp: &BigUint) {
    let mont = Montgomery::new(m);
    let mut scratch = MontScratch::new();
    let fast = mont.pow_with_scratch(base, exp, &mut scratch);
    let reference = mont.pow_reference(base, exp);
    assert_eq!(
        fast,
        reference,
        "windowed scratch pow diverged from reference for {}-bit modulus",
        m.bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pow_matches_reference_512(base in operand(128), exp in operand(72)) {
        assert_pow_matches(&modulus(512), &base, &exp);
    }

    #[test]
    fn pow_matches_reference_1024(base in operand(256), exp in operand(72)) {
        assert_pow_matches(&modulus(1024), &base, &exp);
    }

    #[test]
    fn pow_matches_reference_2048(base in operand(512), exp in operand(72)) {
        // 2048 bits = the full 32-limb scratch capacity.
        assert_pow_matches(&modulus(2048), &base, &exp);
    }
}

#[test]
fn edge_operands_match_reference_at_all_widths() {
    for bits in [192u32, 256, 512, 1024, 2048] {
        let m = modulus(bits);
        let m_minus_1 = m.checked_sub(&BigUint::one()).unwrap();
        let bases = [
            BigUint::from_u64(0),
            BigUint::from_u64(1),
            m_minus_1.clone(),
            m.clone(),                  // base == modulus
            m.add_ref(&BigUint::one()), // base > modulus
            m.mul_ref(&m),              // base far beyond modulus
        ];
        let exps = [
            BigUint::from_u64(0),
            BigUint::from_u64(1),
            BigUint::from_u64(2),
            BigUint::from_u64(65_537),
            m_minus_1,
        ];
        for base in &bases {
            for exp in &exps {
                assert_pow_matches(&m, base, exp);
            }
        }
    }
}

#[test]
fn scratch_survives_modulus_width_changes() {
    // One arena reused across wide, specialised and run-time-width moduli
    // must not leak state between widths.
    let mut scratch = MontScratch::new();
    for bits in [512u32, 2048, 256, 192, 512, 1024] {
        let m = modulus(bits);
        let mont = Montgomery::new(&m);
        let base = m.checked_sub(&BigUint::from_u64(7)).unwrap();
        let exp = BigUint::from_u64(65_537);
        let got = mont.pow_with_scratch(&base, &exp, &mut scratch);
        assert_eq!(got, mont.pow_reference(&base, &exp));
    }
}
