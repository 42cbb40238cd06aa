//! Arbitrary-precision unsigned integers sized for RSA-512 work.
//!
//! [`BigUint`] stores little-endian `u64` limbs in a `crate::limbs`
//! small-vector: values up to 2048 bits (every steady-state protocol
//! operand) live inline on the stack, wider values spill to the heap. The
//! two hot paths for this reproduction are modular exponentiation (RSA,
//! Miller–Rabin) — handled by a Montgomery CIOS multiplier compiled at a
//! few fixed widths, whose temporaries are stack arrays of the modulus's
//! own width, so a full exponentiation performs **zero heap
//! allocations** — and key generation
//! (division, gcd, modular inverse), handled by straightforward
//! shift-subtract algorithms that are easy to audit and fast enough at
//! 512 bits.
//!
//! Exponentiation uses a sliding window over precomputed odd powers
//! (width adapted to the exponent size). Both paths reduce to canonical
//! residues (`< n`) after every multiplication, so the windowed and the
//! frozen [`Montgomery::pow_reference`] paths return bit-identical
//! results.

// Limb arithmetic with explicit carries reads more clearly with indexed
// loops than with iterator chains.
#![allow(clippy::needless_range_loop)]

use crate::limbs::LimbVec;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Rem, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use agr_crypto::bigint::BigUint;
///
/// let a = BigUint::from_u64(1u64 << 63);
/// let b = &a + &a;
/// assert_eq!(b.bits(), 65);
/// assert_eq!(&b % &BigUint::from_u64(1000), BigUint::from_u64(616));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs with no trailing zero limbs (zero = empty).
    limbs: LimbVec,
}

impl BigUint {
    /// The value `0`.
    pub(crate) const ZERO: BigUint = BigUint {
        limbs: LimbVec::new(),
    };

    /// Creates the value `1`.
    #[must_use]
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// Creates a `BigUint` from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::ZERO
        } else {
            BigUint {
                limbs: LimbVec::from_slice(&[v]),
            }
        }
    }

    /// Creates a `BigUint` from little-endian limbs, dropping trailing
    /// zeros.
    fn from_limb_slice(limbs: &[u64]) -> Self {
        let mut n = BigUint {
            limbs: LimbVec::from_slice(limbs),
        };
        n.normalize();
        n
    }

    /// Creates a `BigUint` from big-endian bytes. Leading zero bytes are
    /// permitted and ignored.
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = LimbVec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            cur |= u64::from(b) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if cur != 0 {
            limbs.push(cur);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Minimal big-endian byte representation; the value `0` yields an
    /// empty vector.
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        self.append_bytes_be(&mut out);
        out
    }

    /// Appends the minimal big-endian byte representation to `out`
    /// without allocating an intermediate vector (the value `0` appends
    /// nothing). Hot digest paths use this to reuse one buffer across
    /// many values.
    pub(crate) fn append_bytes_be(&self, out: &mut Vec<u8>) {
        if self.is_zero() {
            return;
        }
        let limbs = self.limbs.as_slice();
        for (i, &limb) in limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = bytes.iter().take_while(|&&b| b == 0).count();
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
    }

    /// Big-endian bytes left-padded with zeros to exactly `len` bytes.
    ///
    /// Returns `None` if the value does not fit.
    #[must_use]
    pub(crate) fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.write_bytes_be_padded(&mut out).map(|()| out)
    }

    /// Writes the value big-endian, left-padded with zeros, into exactly
    /// `out.len()` bytes — the allocation-free core of
    /// [`BigUint::to_bytes_be_padded`].
    ///
    /// Returns `None` (leaving `out` unspecified) if the value does not
    /// fit.
    #[must_use]
    pub(crate) fn write_bytes_be_padded(&self, out: &mut [u8]) -> Option<()> {
        let limbs = self.limbs.as_slice();
        let byte_len = match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() - 1) * 8 + (8 - top.leading_zeros() as usize / 8),
        };
        if byte_len > out.len() {
            return None;
        }
        let split = out.len() - byte_len;
        out[..split].fill(0);
        let mut pos = out.len();
        for &limb in limbs {
            let bytes = limb.to_be_bytes();
            let take = (pos - split).min(8);
            out[pos - take..pos].copy_from_slice(&bytes[8 - take..]);
            pos -= take;
        }
        Some(())
    }

    /// True if the value is `0`.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    #[must_use]
    pub(crate) fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// True if the value is even (zero counts as even).
    #[must_use]
    pub(crate) fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits; `0` has zero bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// The bit at position `i` (bit 0 is the least significant).
    #[must_use]
    pub(crate) fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        self.limbs
            .get(limb)
            .is_some_and(|&l| l >> (i % 64) & 1 == 1)
    }

    /// Sets the bit at position `i` to 1.
    pub(crate) fn set_bit(&mut self, i: u32) {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self.limbs.as_slice(), other.limbs.as_slice())
        } else {
            (other.limbs.as_slice(), self.limbs.as_slice())
        };
        let mut out = LimbVec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`, or `None` on underflow.
    #[must_use]
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let a = self.limbs.as_slice();
        let b_limbs = other.limbs.as_slice();
        let mut out = LimbVec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let b = b_limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * other` (schoolbook).
    #[must_use]
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::ZERO;
        }
        let a = self.limbs.as_slice();
        let b = other.limbs.as_slice();
        let mut out = LimbVec::zeroed(a.len() + b.len());
        for (i, &av) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bv) in b.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(av) * u128::from(bv) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    #[must_use]
    pub fn shl_bits(&self, bits: u32) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = LimbVec::zeroed(limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    #[must_use]
    pub fn shr_bits(&self, bits: u32) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::ZERO;
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = LimbVec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    ///
    /// Shift-subtract binary long division — O(bits · limbs), plenty for
    /// the ≤1024-bit operands used in key generation.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::ZERO, self.clone());
        }
        let n = divisor.limbs.len();
        if n == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        // Knuth Algorithm D: limb-sized quotient digits instead of the
        // bit-by-bit shift-subtract loop — one 128-bit estimate plus one
        // fused multiply-subtract pass per 64 quotient bits. This is on
        // the CRT-decrypt and ring-permutation hot paths, where the
        // dividend is roughly twice the divisor's width.
        //
        // D1: normalise so the divisor's top limb has its high bit set;
        // the quotient is unchanged and the remainder scales by 2^shift.
        let shift = divisor.limbs[n - 1].leading_zeros();
        let v = divisor.shl_bits(shift);
        let mut u = self.shl_bits(shift);
        let m = u.limbs.len() - n;
        u.limbs.push(0); // explicit extra dividend limb u[m + n]
        let v_limbs = &v.limbs;
        let vn1 = v_limbs[n - 1];
        let vn2 = v_limbs[n - 2];
        let mut q = LimbVec::zeroed(m + 1);
        for j in (0..=m).rev() {
            // D3: estimate the quotient digit from the top two dividend
            // limbs against the top divisor limb, then correct against
            // the next limb down; qhat ends at most one too large.
            let num = (u128::from(u.limbs[j + n]) << 64) | u128::from(u.limbs[j + n - 1]);
            let mut qhat = num / u128::from(vn1);
            let mut rhat = num % u128::from(vn1);
            let max_digit = u128::from(u64::MAX);
            while qhat > max_digit
                || qhat * u128::from(vn2) > ((rhat << 64) | u128::from(u.limbs[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(vn1);
                if rhat > max_digit {
                    break;
                }
            }
            let mut qhat = qhat as u64;
            // D4: u[j..=j+n] -= qhat * v, one fused pass.
            let mut mul_carry: u128 = 0;
            let mut sub_borrow: u64 = 0;
            for i in 0..n {
                let p = u128::from(qhat) * u128::from(v_limbs[i]) + mul_carry;
                mul_carry = p >> 64;
                let (d1, b1) = u.limbs[j + i].overflowing_sub(p as u64);
                let (d2, b2) = d1.overflowing_sub(sub_borrow);
                u.limbs[j + i] = d2;
                sub_borrow = u64::from(b1) + u64::from(b2);
            }
            let (d1, b1) = u.limbs[j + n].overflowing_sub(mul_carry as u64);
            let (d2, b2) = d1.overflowing_sub(sub_borrow);
            u.limbs[j + n] = d2;
            // D6: the rare over-estimate — add one divisor back.
            if b1 || b2 {
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let (s1, c1) = u.limbs[j + i].overflowing_add(v_limbs[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    u.limbs[j + i] = s2;
                    carry = u64::from(c1) + u64::from(c2);
                }
                u.limbs[j + n] = u.limbs[j + n].wrapping_add(carry);
            }
            q[j] = qhat;
        }
        // D8: denormalise the remainder.
        let mut r = BigUint {
            limbs: LimbVec::from_slice(&u.limbs[..n]),
        };
        r.normalize();
        let r = r.shr_bits(shift);
        let mut q = BigUint { limbs: q };
        q.normalize();
        (q, r)
    }

    /// Fast division by a single-limb divisor: `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub(crate) fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let a = self.limbs.as_slice();
        let mut out = LimbVec::zeroed(a.len());
        let mut rem: u128 = 0;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | u128::from(a[i]);
            out[i] = (cur / u128::from(divisor)) as u64;
            rem = cur % u128::from(divisor);
        }
        let mut q = BigUint { limbs: out };
        q.normalize();
        (q, rem as u64)
    }

    /// Greatest common divisor (binary GCD).
    #[must_use]
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0u32;
        while a.is_even() && b.is_even() {
            a = a.shr_bits(1);
            b = b.shr_bits(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr_bits(1);
        }
        loop {
            while b.is_even() {
                b = b.shr_bits(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).expect("b >= a after swap");
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }

    /// Modular inverse: the `x` with `self * x ≡ 1 (mod m)`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm with values reduced mod `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m == &BigUint::one() {
            return Some(BigUint::ZERO);
        }
        // Extended Euclid tracking only the coefficient of `self`,
        // represented mod m to stay unsigned: invariant r_i ≡ t_i * self (mod m).
        let mut r0 = m.clone();
        let mut r1 = self.div_rem(m).1;
        let mut t0 = BigUint::ZERO;
        let mut t1 = BigUint::one();
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            let qt = q.mul_ref(&t1).div_rem(m).1;
            // t2 = t0 - q*t1 (mod m)
            let t2 = if t0 >= qt {
                t0.checked_sub(&qt).expect("t0 >= qt")
            } else {
                m.checked_sub(&qt).expect("qt < m").add_ref(&t0)
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 == BigUint::one() {
            Some(t0.div_rem(m).1)
        } else {
            None
        }
    }

    /// Modular exponentiation: `self^exp mod modulus`.
    ///
    /// Odd moduli (the only kind that occur in RSA and primality testing)
    /// go through a Montgomery CIOS multiplier; even moduli fall back to
    /// square-and-multiply with division-based reduction.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[must_use]
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        if modulus == &BigUint::one() {
            return BigUint::ZERO;
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if modulus.is_odd() {
            Montgomery::new(modulus).pow(self, exp)
        } else {
            // Slow path, kept for generality; not used by RSA.
            let mut base = self.div_rem(modulus).1;
            let mut result = BigUint::one();
            for i in 0..exp.bits() {
                if exp.bit(i) {
                    result = result.mul_ref(&base).div_rem(modulus).1;
                }
                base = base.mul_ref(&base).div_rem(modulus).1;
            }
            result
        }
    }

    /// `self mod modulus` — convenience for `div_rem(...).1`.
    #[must_use]
    pub fn rem_ref(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl Add for &BigUint {
    type Output = BigUint;

    fn add(self, other: &BigUint) -> BigUint {
        self.add_ref(other)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;

    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] when the ordering
    /// is not statically known.
    fn sub(self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }
}

impl Mul for &BigUint {
    type Output = BigUint;

    fn mul(self, other: &BigUint) -> BigUint {
        self.mul_ref(other)
    }
}

impl Rem for &BigUint {
    type Output = BigUint;

    fn rem(self, other: &BigUint) -> BigUint {
        self.rem_ref(other)
    }
}

impl Shl<u32> for &BigUint {
    type Output = BigUint;

    fn shl(self, bits: u32) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<u32> for &BigUint {
    type Output = BigUint;

    fn shr(self, bits: u32) -> BigUint {
        self.shr_bits(bits)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel off 19 decimal digits at a time.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:019}"));
            }
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut s = String::new();
        let limbs = self.limbs.as_slice();
        for (i, &limb) in limbs.iter().enumerate().rev() {
            if i == limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        f.pad_integral(true, "0x", &s)
    }
}

/// Limb widths the exponentiation kernel is compiled at: the tree's RSA
/// moduli (256, 384, 512, 768, 1024 and 2048 bits) and their CRT halves.
/// A modulus of any other width up to 32 limbs runs at the next width up
/// with zero top limbs; a wider one runs [`Montgomery::pow_reference`].
const KERNEL_WIDTHS: [usize; 6] = [4, 6, 8, 12, 16, 32];

/// Widest exponentiation window (bits); sets the odd-power table size.
const MAX_WINDOW: usize = 4;

/// Number of precomputed odd powers: `g^1, g^3, …, g^(2^MAX_WINDOW - 1)`.
const TABLE_SIZE: usize = 1 << (MAX_WINDOW - 1);

/// Montgomery multiplication context for a fixed odd modulus.
///
/// The context holds the modulus zero-padded to its kernel width `w` (the
/// smallest of `KERNEL_WIDTHS` that fits it, or its own width beyond
/// 32 limbs) and `R² mod n` for `R = 2^(64·w)`, computed by one division.
/// Callers that exponentiate repeatedly under one modulus — RSA keys,
/// trapdoor seal/open, the ring signature's `k+1` permutations — should
/// build one context (or use a `MontCache`) and call [`Montgomery::pow`]
/// on it instead of [`BigUint::modpow`], which rebuilds the context every
/// call.
///
/// An exponentiation keeps its temporaries in `[u64; w]` stack arrays
/// and performs no heap allocation.
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// The modulus, zero-padded to the kernel width.
    n: LimbVec,
    n0inv: u64,
    /// `R² mod n`, at the kernel width.
    r2: LimbVec,
}

impl Montgomery {
    /// Builds a reusable context for an odd `modulus > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even, zero, or one (Montgomery reduction
    /// requires an odd modulus; RSA and Miller–Rabin only produce those).
    #[must_use]
    pub fn new(modulus: &BigUint) -> Self {
        assert!(
            modulus.is_odd() && modulus > &BigUint::one(),
            "Montgomery context requires an odd modulus > 1"
        );
        let len = modulus.limbs.len();
        let width = KERNEL_WIDTHS.into_iter().find(|&w| w >= len).unwrap_or(len);
        let mut n = modulus.limbs.clone();
        n.resize(width, 0);
        // n0inv = -n[0]^{-1} mod 2^64 via Newton iteration.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0inv = inv.wrapping_neg();
        // R² mod n = 2^(128·width) mod n, by one division.
        let mut r2 = BigUint::one()
            .shl_bits(128 * width as u32)
            .rem_ref(modulus)
            .limbs;
        r2.resize(width, 0);
        Montgomery { n, n0inv, r2 }
    }

    /// The modulus as a (normalised) integer.
    fn modulus(&self) -> BigUint {
        BigUint::from_limb_slice(&self.n)
    }

    /// CIOS Montgomery product `a * b * R^{-1} mod n`, allocating its
    /// accumulator — the frozen reference multiplier, also used for
    /// moduli wider than 32 limbs.
    fn mont_mul_vec(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = self.n.as_slice();
        let len = n.len();
        let mut t = vec![0u64; len + 2];
        for &ai in a.iter().take(len) {
            // t += ai * b
            let mut carry: u64 = 0;
            for j in 0..len {
                let cur = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + u128::from(carry);
                t[j] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[len]) + u128::from(carry);
            t[len] = cur as u64;
            t[len + 1] += (cur >> 64) as u64;
            // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0inv);
            let cur = u128::from(t[0]) + u128::from(m) * u128::from(n[0]);
            let mut carry = (cur >> 64) as u64;
            for j in 1..len {
                let cur = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
                t[j - 1] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[len]) + u128::from(carry);
            t[len - 1] = cur as u64;
            let cur2 = u128::from(t[len + 1]) + (cur >> 64);
            t[len] = cur2 as u64;
            t[len + 1] = (cur2 >> 64) as u64;
        }
        // Conditional final subtraction: result in t[0..=len], < 2n.
        let mut result: Vec<u64> = t[..len].to_vec();
        let overflow = t[len] != 0;
        if overflow || ge(&result, n) {
            sub_in_place(&mut result, n, overflow);
        }
        result
    }

    /// `base^exp mod n` in the cached context — identical results to
    /// [`BigUint::modpow`] for this modulus, without the per-call setup.
    ///
    /// Dispatches once on the kernel width to a sliding-window
    /// exponentiation over `[u64; w]` stack arrays. Every product is
    /// reduced to the canonical residue, so results are bit-identical to
    /// [`Montgomery::pow_reference`].
    #[must_use]
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        match self.n.len() {
            4 => self.pow_fixed::<4>(base, exp),
            6 => self.pow_fixed::<6>(base, exp),
            8 => self.pow_fixed::<8>(base, exp),
            12 => self.pow_fixed::<12>(base, exp),
            16 => self.pow_fixed::<16>(base, exp),
            32 => self.pow_fixed::<32>(base, exp),
            _ => self.pow_reference(base, exp),
        }
    }

    /// [`Montgomery::pow`] at kernel width `L` (`exp > 0`).
    ///
    /// Left-to-right sliding window over precomputed odd powers, window
    /// width adapted to the exponent size. Kept out of line so each width
    /// is one contiguous body: a run touches only the code of the widths
    /// it uses.
    #[inline(never)]
    fn pow_fixed<const L: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n: &[u64; L] = self.n.as_slice().try_into().expect("kernel width");
        let r2: &[u64; L] = self.r2.as_slice().try_into().expect("kernel width");
        let mul = |a: &[u64; L], b: &[u64; L]| mont_mul(a, b, n, self.n0inv);
        // Any L-limb base converts correctly (the product bound needs only
        // b < n), so only a wider one needs reducing first; protocol
        // callers pass residues.
        let reduced;
        let bl = if base.limbs.len() > L {
            reduced = base.rem_ref(&self.modulus());
            reduced.limbs.as_slice()
        } else {
            base.limbs.as_slice()
        };
        let mut g = [0u64; L];
        g[..bl.len()].copy_from_slice(bl);

        let e = exp.limbs.as_slice();
        let bit = |i: usize| e[i / 64] >> (i % 64) & 1 == 1;
        let bits = exp.bits() as usize;
        let window = match bits {
            0..=23 => 1,
            24..=79 => 2,
            80..=239 => 3,
            _ => MAX_WINDOW,
        };
        // odd[i] = g^(2i+1) in the Montgomery domain.
        let mut odd = [[0u64; L]; TABLE_SIZE];
        odd[0] = mul(&g, r2);
        if window > 1 {
            let sq = mul(&odd[0], &odd[0]);
            for i in 1..1 << (window - 1) {
                odd[i] = mul(&odd[i - 1], &sq);
            }
        }

        // Bits [s, i] from the top down: a zero bit costs one squaring; a
        // set bit opens a window of up to `window` bits ending on a set
        // bit, so its value u is odd and `odd[u / 2]` holds g^u, and costs
        // i - s + 1 squarings and one multiply. The top bit is set, so the
        // first window just loads `acc`.
        let mut acc = [0u64; L];
        let mut top = bits;
        while top > 0 {
            let i = top - 1;
            let (mut s, mut u) = (i, 0);
            if bit(i) {
                s = (i + 1).saturating_sub(window);
                while !bit(s) {
                    s += 1;
                }
                u = (s..=i).rev().fold(0, |u, j| u << 1 | usize::from(bit(j)));
            }
            if top == bits {
                acc = odd[u / 2];
            } else {
                for _ in s..=i {
                    acc = mul(&acc, &acc);
                }
                if u != 0 {
                    acc = mul(&acc, &odd[u / 2]);
                }
            }
            top = s;
        }

        // Convert out of the Montgomery domain (multiply by 1).
        let mut one = [0u64; L];
        one[0] = 1;
        BigUint::from_limb_slice(&mul(&acc, &one))
    }

    /// The frozen `Vec<u64>` reference path: plain MSB-first
    /// square-and-multiply with a per-product allocating multiplier.
    ///
    /// Kept as the equivalence oracle for [`Montgomery::pow`] (property
    /// tests assert bit-identical results) and as the working fallback
    /// for moduli wider than 32 limbs.
    #[must_use]
    pub fn pow_reference(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let len = self.n.len();
        let mut base_limbs = base.rem_ref(&self.modulus()).limbs;
        base_limbs.resize(len, 0);
        // Convert to Montgomery domain.
        let base_m = self.mont_mul_vec(&base_limbs, &self.r2);
        // one_m = R mod n = mont_mul(1, R^2)
        let mut one = vec![0u64; len];
        one[0] = 1;
        let mut acc = self.mont_mul_vec(&one, &self.r2);
        for i in (0..exp.bits()).rev() {
            acc = self.mont_mul_vec(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul_vec(&acc, &base_m);
            }
        }
        // Convert out of Montgomery domain.
        let out = self.mont_mul_vec(&acc, &one);
        BigUint::from_limb_slice(&out)
    }
}

/// CIOS Montgomery product `a * b * R^{-1} mod n` at a fixed width `L`,
/// reduced to the canonical residue. Needs `b < n`; `a` may be any
/// `L`-limb value: from `t < 2n`, each step's `t + a_i·b + m·n` is below
/// `2n + 2·(2^64 − 1)·n < 2^65·n`, so `t` stays below `2n` after the shift.
#[inline(always)]
fn mont_mul<const L: usize>(a: &[u64; L], b: &[u64; L], n: &[u64; L], n0inv: u64) -> [u64; L] {
    // t[..L] plus the limb above it; t < 2n < 2R between steps.
    let mut t = [0u64; L];
    let mut t_hi: u64 = 0;
    for &ai in a {
        // t += ai * b
        let mut carry: u64 = 0;
        for j in 0..L {
            let cur = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + u128::from(carry);
            t[j] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = u128::from(t_hi) + u128::from(carry);
        t_hi = cur as u64;
        let t_top = (cur >> 64) as u64;
        // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
        let m = t[0].wrapping_mul(n0inv);
        let cur = u128::from(t[0]) + u128::from(m) * u128::from(n[0]);
        let mut carry = (cur >> 64) as u64;
        for j in 1..L {
            let cur = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = u128::from(t_hi) + u128::from(carry);
        t[L - 1] = cur as u64;
        t_hi = t_top + (cur >> 64) as u64;
    }
    // Conditional final subtraction: keep t - n unless it borrowed out of
    // the high limb, i.e. unless t < n.
    let mut d = [0u64; L];
    let mut borrow = false;
    for j in 0..L {
        let (x, b1) = t[j].overflowing_sub(n[j]);
        let (y, b2) = x.overflowing_sub(u64::from(borrow));
        d[j] = y;
        borrow = b1 | b2;
    }
    if t_hi != 0 || !borrow {
        d
    } else {
        t
    }
}

/// A lazily-built, shareable [`Montgomery`] context for one fixed modulus.
///
/// Designed to be embedded in key material (`RsaPublicKey`, `RsaKeyPair`):
/// the first exponentiation builds the context, every later one reuses it,
/// and the cache is invisible to the containing type's derived
/// `Clone`/`PartialEq`/`Eq`/`Hash` semantics — two keys compare equal
/// regardless of which has warmed its cache. Thread-safe, so keys shared
/// across sweep worker threads (`Arc<RsaKeyPair>`) warm it once.
#[derive(Default)]
pub(crate) struct MontCache {
    cell: std::sync::OnceLock<Montgomery>,
}

impl MontCache {
    /// An empty cache.
    #[must_use]
    pub(crate) const fn new() -> Self {
        MontCache {
            cell: std::sync::OnceLock::new(),
        }
    }

    /// The context for `modulus`, built on first use.
    ///
    /// The caller must pass the same modulus on every call; the cache
    /// belongs to whatever owns the modulus and cannot detect a switch.
    ///
    /// # Panics
    ///
    /// Panics (on first use) if `modulus` is even, zero, or one.
    pub(crate) fn get(&self, modulus: &BigUint) -> &Montgomery {
        let mont = self.cell.get_or_init(|| Montgomery::new(modulus));
        debug_assert_eq!(
            mont.modulus(),
            *modulus,
            "MontCache reused with a different modulus"
        );
        mont
    }
}

impl Clone for MontCache {
    /// Clones carry the warmed context along (inline limb copies for
    /// protocol-sized moduli) so a cloned key does not pay the setup
    /// again.
    fn clone(&self) -> Self {
        let cell = std::sync::OnceLock::new();
        if let Some(mont) = self.cell.get() {
            let _ = cell.set(mont.clone());
        }
        MontCache { cell }
    }
}

impl PartialEq for MontCache {
    /// Caches are derived state: all caches compare equal so containing
    /// types' derived `PartialEq` ignores them.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for MontCache {}

impl std::hash::Hash for MontCache {
    /// Hashes nothing, matching the `PartialEq` impl.
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

impl fmt::Debug for MontCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MontCache")
            .field("warm", &self.cell.get().is_some())
            .finish()
    }
}

/// `a >= b` for equal-length little-endian limb slices (b may be shorter).
fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert!(a.len() >= b.len());
    for i in (0..a.len()).rev() {
        let bv = b.get(i).copied().unwrap_or(0);
        match a[i].cmp(&bv) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// `a -= b` in place; `extra` adds 2^(64*len) to `a` first (for the
/// Montgomery overflow limb).
fn sub_in_place(a: &mut [u64], b: &[u64], extra: bool) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bv = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = a[i].overflowing_sub(bv);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, u64::from(extra), "montgomery subtraction borrow");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_properties() {
        assert!(BigUint::ZERO.is_zero());
        assert!(BigUint::ZERO.is_even());
        assert_eq!(BigUint::ZERO.bits(), 0);
        assert_eq!(BigUint::ZERO.to_bytes_be(), Vec::<u8>::new());
        assert_eq!(BigUint::default(), BigUint::ZERO);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = big(u64::MAX);
        let b = big(1);
        let c = &a + &b;
        assert_eq!(c.bits(), 65);
        assert_eq!(c.to_bytes_be(), vec![1, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sub_borrows() {
        let a = BigUint::one().shl_bits(64); // 2^64
        let b = big(1);
        let c = &a - &b;
        assert_eq!(c, big(u64::MAX));
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &big(1) - &big(2);
    }

    #[test]
    fn mul_small_and_cross_limb() {
        assert_eq!(&big(7) * &big(6), big(42));
        let a = big(u64::MAX);
        let sq = &a * &a;
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expected = BigUint::one()
            .shl_bits(128)
            .checked_sub(&BigUint::one().shl_bits(65))
            .unwrap()
            .add_ref(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn mul_zero() {
        assert_eq!(&big(5) * &BigUint::ZERO, BigUint::ZERO);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x23]);
        assert_eq!(a.shl_bits(67).shr_bits(67), a);
        assert_eq!(a.shl_bits(0), a);
        assert_eq!(a.shr_bits(1000), BigUint::ZERO);
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!((q, r), (big(14), big(2)));
        let (q, r) = big(5).div_rem(&big(7));
        assert_eq!((q, r), (BigUint::ZERO, big(5)));
    }

    #[test]
    fn div_rem_multi_limb() {
        // (2^200 + 12345) / 2^100
        let a = BigUint::one().shl_bits(200).add_ref(&big(12345));
        let b = BigUint::one().shl_bits(100);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, BigUint::one().shl_bits(100));
        assert_eq!(r, big(12345));
        // Reconstruct: q*b + r == a
        assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::ZERO);
    }

    #[test]
    fn div_rem_u64_matches_div_rem() {
        let a = BigUint::from_bytes_be(&[7; 23]);
        let (q1, r1) = a.div_rem(&big(10_007));
        let (q2, r2) = a.div_rem_u64(10_007);
        assert_eq!(q1, q2);
        assert_eq!(r1, big(r2));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(big(48).gcd(&big(36)), big(12));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(BigUint::ZERO.gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&BigUint::ZERO), big(5));
        assert_eq!(big(24).gcd(&big(24)), big(24));
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 7 = 21 ≡ 1 (mod 10)
        assert_eq!(big(3).mod_inverse(&big(10)), Some(big(7)));
        // gcd(4, 10) = 2: no inverse.
        assert_eq!(big(4).mod_inverse(&big(10)), None);
        // Inverse of value larger than modulus.
        assert_eq!(big(13).mod_inverse(&big(10)), Some(big(7)));
    }

    #[test]
    fn mod_inverse_verifies() {
        let m = big(1_000_000_007);
        for v in [2u64, 3, 65_537, 999_999_999] {
            let inv = big(v).mod_inverse(&m).unwrap();
            assert_eq!(big(v).mul_ref(&inv).rem_ref(&m), BigUint::one());
        }
    }

    #[test]
    fn modpow_small_known() {
        // 4^13 mod 497 = 445 (classic example)
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        // Fermat: 2^(p-1) ≡ 1 mod p
        let p = big(1_000_000_007);
        assert_eq!(big(2).modpow(&big(1_000_000_006), &p), BigUint::one());
    }

    #[test]
    fn modpow_even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        assert_eq!(big(3).modpow(&big(5), &big(16)), big(3));
    }

    #[test]
    fn modpow_edge_cases() {
        assert_eq!(big(5).modpow(&BigUint::ZERO, &big(7)), BigUint::one());
        assert_eq!(big(5).modpow(&big(3), &BigUint::one()), BigUint::ZERO);
        // Base larger than modulus.
        assert_eq!(big(10).modpow(&big(2), &big(7)), big(2));
    }

    #[test]
    fn montgomery_matches_naive_multi_limb() {
        // 128-bit odd modulus.
        let m = BigUint::from_bytes_be(&[
            0xf3, 0x52, 0x11, 0x98, 0x44, 0x01, 0xcd, 0xab, 0x33, 0x77, 0x19, 0x28, 0x3b, 0x4c,
            0x5d, 0x6f,
        ]);
        assert!(m.is_odd());
        let base = BigUint::from_bytes_be(&[0xab; 16]);
        let exp = BigUint::from_bytes_be(&[0x17, 0x29, 0x33, 0x47]);
        // Naive square-and-multiply with division reduction.
        let mut naive = BigUint::one();
        let mut b = base.rem_ref(&m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                naive = naive.mul_ref(&b).rem_ref(&m);
            }
            b = b.mul_ref(&b).rem_ref(&m);
        }
        assert_eq!(base.modpow(&exp, &m), naive);
    }

    #[test]
    fn windowed_pow_matches_reference_across_exponent_sizes() {
        // Hits every window width: 1 (≤23 bits), 2, 3, and 4.
        let m = BigUint::from_bytes_be(&[0x9d; 32]); // odd 256-bit modulus
        assert!(m.is_odd());
        let mont = Montgomery::new(&m);
        let base = BigUint::from_bytes_be(&[0x42; 31]);
        for exp_bytes in [1usize, 2, 3, 8, 16, 29, 32, 64] {
            let exp = BigUint::from_bytes_be(&vec![0xb7u8; exp_bytes]);
            let fast = mont.pow(&base, &exp);
            let slow = mont.pow_reference(&base, &exp);
            assert_eq!(fast, slow, "mismatch at {exp_bytes}-byte exponent");
        }
    }

    /// Edge operands on the kernel's per-call stack scratch: zero, one,
    /// a base equal to or beyond the modulus, and a zero exponent.
    #[test]
    fn scratch_pow_handles_edge_operands() {
        let m = BigUint::from_bytes_be(&[0xf1; 16]);
        let mont = Montgomery::new(&m);
        for base in [
            BigUint::ZERO,
            BigUint::one(),
            m.clone(),
            m.add_ref(&big(12345)),
            m.mul_ref(&m),
        ] {
            let exp = big(65_537);
            assert_eq!(mont.pow(&base, &exp), mont.pow_reference(&base, &exp));
        }
        assert_eq!(mont.pow(&big(5), &BigUint::ZERO), BigUint::one());
    }

    /// A 1-limb and a 3-limb modulus both run on the 4-limb kernel with
    /// zero top limbs; interleaved calls share no state.
    #[test]
    fn scratch_is_reusable_across_moduli() {
        let m1 = BigUint::from_bytes_be(&[0xd3; 8]);
        let m2 = BigUint::from_bytes_be(&[0xc5; 24]);
        let mont1 = Montgomery::new(&m1);
        let mont2 = Montgomery::new(&m2);
        assert_eq!((mont1.n.len(), mont2.n.len()), (4, 4));
        let base = big(0x1234_5678_9abc_def1);
        let exp = big(0xfeed_beef);
        let r1 = mont1.pow(&base, &exp);
        let r2 = mont2.pow(&base, &exp);
        let r1_again = mont1.pow(&base, &exp);
        assert_eq!(r1, mont1.pow_reference(&base, &exp));
        assert_eq!(r2, mont2.pow_reference(&base, &exp));
        assert_eq!(r1, r1_again);
        // Against plain square-and-multiply with division reduction.
        let mut naive = BigUint::one();
        for i in (0..exp.bits()).rev() {
            naive = naive.mul_ref(&naive).rem_ref(&m1);
            if exp.bit(i) {
                naive = naive.mul_ref(&base).rem_ref(&m1);
            }
        }
        assert_eq!(r1, naive);
    }

    /// `R² mod n` the way the context once built it: `R mod n` by one
    /// division, then `64·w` modular doublings, for `R = 2^(64·w)`.
    fn r2_by_doubling(modulus: &BigUint, width: usize) -> BigUint {
        let mut r2 = BigUint::one().shl_bits(64 * width as u32).rem_ref(modulus);
        for _ in 0..(64 * width) {
            r2 = r2.shl_bits(1);
            if &r2 >= modulus {
                r2 = r2.checked_sub(modulus).expect("r2 >= modulus");
            }
        }
        r2
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The one-division `R²` equals the doubling construction for odd
        /// moduli of 1 to 32 limbs, at every kernel width.
        #[test]
        fn r2_matches_doubling_construction(
            mut limbs in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=32),
        ) {
            // Odd, above one, and exactly the drawn number of limbs.
            limbs[0] |= 1;
            *limbs.last_mut().expect("at least one limb") |= 2;
            let m = BigUint::from_limb_slice(&limbs);
            let mont = Montgomery::new(&m);
            let width = mont.n.len();
            proptest::prop_assert!(KERNEL_WIDTHS.contains(&width) && width >= limbs.len());
            proptest::prop_assert_eq!(
                BigUint::from_limb_slice(&mont.r2),
                r2_by_doubling(&m, width)
            );
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![1],
            vec![0xff; 8],
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![
                0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33,
            ],
        ];
        for bytes in cases {
            let n = BigUint::from_bytes_be(&bytes);
            assert_eq!(n.to_bytes_be(), bytes, "roundtrip failed for {bytes:?}");
        }
        // Leading zeros are dropped.
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]).to_bytes_be(), vec![5u8]);
    }

    #[test]
    fn padded_bytes() {
        let n = big(0x1234);
        assert_eq!(n.to_bytes_be_padded(4), Some(vec![0, 0, 0x12, 0x34]));
        assert_eq!(n.to_bytes_be_padded(1), None);
        assert_eq!(BigUint::ZERO.to_bytes_be_padded(2), Some(vec![0, 0]));
    }

    #[test]
    fn write_padded_matches_to_padded() {
        for value in [
            BigUint::ZERO,
            big(1),
            big(0x1234),
            BigUint::from_bytes_be(&[0xff; 17]),
            BigUint::one().shl_bits(64),
        ] {
            for len in [0usize, 1, 2, 8, 9, 17, 32] {
                let mut buf = vec![0xaau8; len];
                let wrote = value.write_bytes_be_padded(&mut buf);
                match value.to_bytes_be_padded(len) {
                    Some(expected) => {
                        assert_eq!(wrote, Some(()));
                        assert_eq!(buf, expected, "value {value} len {len}");
                    }
                    None => assert_eq!(wrote, None),
                }
            }
        }
    }

    #[test]
    fn append_bytes_matches_to_bytes() {
        for value in [
            BigUint::ZERO,
            big(5),
            BigUint::from_bytes_be(&[0x01, 0x00, 0xff, 0x3c]),
            BigUint::one().shl_bits(200),
        ] {
            let mut buf = vec![0xeeu8; 3];
            value.append_bytes_be(&mut buf);
            assert_eq!(buf[..3], [0xee; 3], "append must not clobber prefix");
            assert_eq!(buf[3..], value.to_bytes_be());
        }
    }

    #[test]
    fn ordering() {
        assert!(big(2) < big(3));
        assert!(BigUint::one().shl_bits(64) > big(u64::MAX));
        assert_eq!(big(7).cmp(&big(7)), Ordering::Equal);
    }

    #[test]
    fn bit_accessors() {
        let mut n = BigUint::ZERO;
        n.set_bit(0);
        n.set_bit(100);
        assert!(n.bit(0));
        assert!(n.bit(100));
        assert!(!n.bit(50));
        assert_eq!(n.bits(), 101);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::ZERO.to_string(), "0");
        assert_eq!(big(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(
            BigUint::one().shl_bits(64).to_string(),
            "18446744073709551616"
        );
        // 2^128
        assert_eq!(
            BigUint::one().shl_bits(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn lower_hex() {
        assert_eq!(format!("{:x}", BigUint::ZERO), "0");
        assert_eq!(format!("{:x}", big(0xdeadbeef)), "deadbeef");
        let n = BigUint::one().shl_bits(64).add_ref(&big(0xf));
        assert_eq!(format!("{n:x}"), "1000000000000000f");
    }

    #[test]
    fn wide_modulus_falls_back_to_reference() {
        // 2560-bit modulus (40 limbs) exceeds MAX_LIMBS; pow must still
        // agree with the reference path (it *is* the reference path).
        let m = BigUint::from_bytes_be(&[0xf5; 320]);
        assert!(m.is_odd());
        let mont = Montgomery::new(&m);
        let base = BigUint::from_bytes_be(&[0x33; 100]);
        let exp = big(65_537);
        assert_eq!(mont.pow(&base, &exp), mont.pow_reference(&base, &exp));
    }
}
