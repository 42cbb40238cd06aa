//! Probabilistic prime generation (Miller–Rabin) for RSA key generation.

use crate::bigint::Montgomery;
use crate::BigUint;
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds; 40 random bases give a failure
/// probability below 4^-40 for random candidates.
const MILLER_RABIN_ROUNDS: u32 = 40;

/// Draws a uniformly random integer with exactly `bits` significant bits
/// (the top bit is forced to 1).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub(crate) fn random_bits<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> BigUint {
    assert!(bits > 0, "cannot draw a 0-bit integer");
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes as usize];
    rng.fill(&mut buf[..]);
    // Mask excess high bits, then force the top bit.
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    let mut n = BigUint::from_bytes_be(&buf);
    n.set_bit(bits - 1);
    n
}

/// Draws a uniformly random integer in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub(crate) fn random_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
    assert!(!bound.is_zero(), "bound must be positive");
    let bits = bound.bits();
    let bytes = bits.div_ceil(8);
    let excess = bytes * 8 - bits;
    loop {
        let mut buf = vec![0u8; bytes as usize];
        rng.fill(&mut buf[..]);
        buf[0] &= 0xffu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Miller–Rabin probabilistic primality test with random bases.
///
/// Returns `true` if `n` is (almost certainly) prime. Deterministically
/// correct for `n < 212`; for larger `n` the error probability is below
/// `4^-rounds`.
pub(crate) fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin with an explicit round count.
pub(crate) fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    let two = BigUint::from_u64(2);
    if n < &two {
        return false;
    }
    if n == &two {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from_u64(p);
        if n == &p_big {
            return true;
        }
        if n.div_rem_u64(p).1 == 0 {
            return false;
        }
    }
    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n.checked_sub(&BigUint::one()).expect("n >= 2");
    let mut d = n_minus_1.clone();
    let mut s = 0u32;
    while d.is_even() {
        d = d.shr_bits(1);
        s += 1;
    }
    // One Montgomery context serves every round and every squaring: n is
    // odd and > 211 here, and rebuilding the context per modpow would
    // dominate the witness loop.
    let mont = Montgomery::new(n);
    // Base span [2, n-2]: n - 2 choices starting at 2.
    let span = n
        .checked_sub(&BigUint::from_u64(3))
        .expect("n > 211 here")
        .add_ref(&BigUint::one());
    'witness: for _ in 0..rounds {
        let a = random_below(&span, rng).add_ref(&two);
        let mut x = mont.pow(&a, &d);
        if x == BigUint::one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = mont.pow(&x, &two);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` significant bits.
///
/// The candidate stream fixes the top bit (so products of two `b`-bit
/// primes have `2b` or `2b-1` bits) and the bottom bit (odd).
///
/// # Panics
///
/// Panics if `bits < 8`; RSA needs at least two distinct multi-byte primes.
pub(crate) fn gen_prime<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = random_bits(bits, rng);
        candidate.set_bit(0); // force odd
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn small_primes_recognised() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 101, 211, 223, 65_537] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 221, 65_535, 1_000_000] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes that fool the plain Fermat test.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825_265] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut r),
                "Carmichael number {c} should be rejected"
            );
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^89 - 1 is a Mersenne prime.
        let p = BigUint::one()
            .shl_bits(89)
            .checked_sub(&BigUint::one())
            .unwrap();
        assert!(is_probable_prime(&p, &mut rng()));
        // 2^83 - 1 is composite (167 divides it).
        let c = BigUint::one()
            .shl_bits(83)
            .checked_sub(&BigUint::one())
            .unwrap();
        assert!(!is_probable_prime(&c, &mut rng()));
    }

    #[test]
    fn gen_prime_has_exact_bits() {
        let mut r = rng();
        for bits in [16u32, 32, 64, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
        }
    }

    #[test]
    fn random_bits_sets_top_bit() {
        let mut r = rng();
        for _ in 0..50 {
            let n = random_bits(61, &mut r);
            assert_eq!(n.bits(), 61);
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    fn random_below_hits_small_values() {
        // Rejection sampling must not be biased away from low values.
        let mut r = rng();
        let bound = BigUint::from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = random_below(&bound, &mut r);
            let i = (0..4).position(|i| v == BigUint::from_u64(i)).unwrap();
            seen[i] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "0-bit")]
    fn random_bits_zero_panics() {
        random_bits(0, &mut rng());
    }
}
