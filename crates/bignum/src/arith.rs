//! Core integer arithmetic on [`Ubig`]: addition, subtraction,
//! schoolbook multiplication, bit shifts, Knuth Algorithm D division,
//! and the modular helpers built on top of them.

use std::borrow::Cow;
use std::ops::{Add, Mul, Shl, Shr, Sub};

use crate::ubig::Ubig;

// ---------------------------------------------------------------------------
// Limb-level helpers
// ---------------------------------------------------------------------------

/// Low limb of a 128-bit intermediate: the deliberate truncation the
/// limb kernels are built on, written as a mask so the discarded high
/// half is explicit at every call site.
#[inline]
pub(crate) const fn lo64(x: u128) -> u64 {
    (x & 0xffff_ffff_ffff_ffff) as u64
}

#[inline]
fn adc(a: u64, b: u64, carry: &mut u64) -> u64 {
    let s = a as u128 + b as u128 + *carry as u128;
    *carry = (s >> 64) as u64;
    s as u64
}

#[inline]
fn sbb(a: u64, b: u64, borrow: &mut u64) -> u64 {
    let s = (a as u128).wrapping_sub(b as u128 + *borrow as u128);
    *borrow = ((s >> 64) as u64) & 1;
    s as u64
}

/// `a >= b` on equal-length little-endian limb slices.
pub(crate) fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` modulo `2^(64·len)` on equal-length limb slices; returns
/// the borrow out of the top limb.
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b) {
        *ai = sbb(*ai, bi, &mut borrow);
    }
    borrow
}

/// `a += b` modulo `2^(64·len)` on equal-length limb slices; returns
/// the carry out of the top limb.
fn add_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    let mut carry = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b) {
        *ai = adc(*ai, bi, &mut carry);
    }
    carry
}

/// `a >>= 1`, shifting the low bit of `top` into the vacated high bit.
fn shr1(a: &mut [u64], top: u64) {
    let mut high = top & 1;
    for limb in a.iter_mut().rev() {
        let low = *limb & 1;
        *limb = (*limb >> 1) | (high << 63);
        high = low;
    }
}

/// `x = x / 2 mod m` for odd `m` and `x < m`: an odd `x` is made even
/// by adding `m` first (the sum can carry one bit past the top limb).
fn halve_mod(x: &mut [u64], m: &[u64]) {
    let carry = if x[0] & 1 == 1 { add_in_place(x, m) } else { 0 };
    shr1(x, carry);
}

/// `x = x - y mod m` for `x, y < m`.
fn sub_mod(x: &mut [u64], y: &[u64], m: &[u64]) {
    if sub_in_place(x, y) != 0 {
        add_in_place(x, m);
    }
}

/// `acc[i..] += a * b` (schoolbook inner product row).
fn mul_add_row(acc: &mut [u64], a: &[u64], b: u64) {
    if b == 0 {
        return;
    }
    let mut carry: u64 = 0;
    for (i, &ai) in a.iter().enumerate() {
        let t = acc[i] as u128 + ai as u128 * b as u128 + carry as u128;
        acc[i] = t as u64;
        carry = (t >> 64) as u64;
    }
    let mut i = a.len();
    while carry != 0 {
        let t = acc[i] as u128 + carry as u128;
        acc[i] = t as u64;
        carry = (t >> 64) as u64;
        i += 1;
    }
}

fn schoolbook_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut acc = vec![0u64; a.len() + b.len()];
    for (i, &bi) in b.iter().enumerate() {
        mul_add_row(&mut acc[i..], a, bi);
    }
    acc
}

// ---------------------------------------------------------------------------
// Inherent arithmetic methods
// ---------------------------------------------------------------------------

impl Ubig {
    /// Checked subtraction: `self - other`, or `None` if it would
    /// underflow.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// assert!(Ubig::from(3u64).checked_sub(&Ubig::from(5u64)).is_none());
    /// ```
    pub fn checked_sub(&self, other: &Ubig) -> Option<Ubig> {
        if self < other {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let o = other.limbs.get(i).copied().unwrap_or(0);
            limbs.push(sbb(self.limbs[i], o, &mut borrow));
        }
        debug_assert_eq!(borrow, 0);
        Some(Ubig::from_limbs(limbs))
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Uses Knuth's Algorithm D for multi-limb divisors.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// let (q, r) = Ubig::from(1000u64).div_rem(&Ubig::from(7u64));
    /// assert_eq!(q, Ubig::from(142u64));
    /// assert_eq!(r, Ubig::from(6u64));
    /// ```
    pub fn div_rem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero Ubig");
        if self < divisor {
            return (Ubig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem: u64 = 0;
            for &limb in self.limbs.iter().rev() {
                let cur = ((rem as u128) << 64) | limb as u128;
                q.push((cur / d as u128) as u64);
                rem = (cur % d as u128) as u64;
            }
            q.reverse();
            return (Ubig::from_limbs(q), Ubig::from(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth TAOCP vol. 2, Algorithm 4.3.1-D.
    fn div_rem_knuth(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so the top divisor limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor << shift;
        let mut u = (self << shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // extra high limb u[m+n]

        let v = &v.limbs;
        let v_top = v[n - 1];
        let v_next = v[n - 2];
        let mut q = vec![0u64; m + 1];

        // D2..D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate q_hat from the top two dividend limbs.
            let numer = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut q_hat = numer / v_top as u128;
            let mut r_hat = numer % v_top as u128;
            while q_hat >> 64 != 0
                || q_hat * v_next as u128 > ((r_hat << 64) | u[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            let mut q_hat = q_hat as u64;

            // D4: u[j..j+n+1] -= q_hat * v
            let mut borrow: u64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = q_hat as u128 * v[i] as u128 + carry as u128;
                carry = (p >> 64) as u64;
                u[j + i] = sbb(u[j + i], lo64(p), &mut borrow);
            }
            u[j + n] = sbb(u[j + n], carry, &mut borrow);

            // D5/D6: if we overshot, add one divisor back.
            if borrow != 0 {
                q_hat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    u[j + i] = adc(u[j + i], v[i], &mut carry);
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = q_hat;
        }

        // D8: denormalize the remainder.
        let rem = Ubig::from_limbs(u[..n].to_vec()) >> shift;
        (Ubig::from_limbs(q), rem)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Ubig) -> Ubig {
        self.div_rem(m).1
    }

    /// `self mod m` without dividing when `self` is already reduced.
    pub(crate) fn reduced(&self, m: &Ubig) -> Cow<'_, Ubig> {
        if self < m {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.rem(m))
        }
    }

    /// Modular addition: `(self + other) mod m`. Operands must already be
    /// reduced modulo `m` (enforced with a debug assertion).
    pub fn modadd(&self, other: &Ubig, m: &Ubig) -> Ubig {
        debug_assert!(self < m && other < m);
        let s = self + other;
        if &s >= m {
            s.checked_sub(m).expect("s >= m")
        } else {
            s
        }
    }

    /// Modular subtraction: `(self - other) mod m`. Operands must already
    /// be reduced modulo `m`.
    pub fn modsub(&self, other: &Ubig, m: &Ubig) -> Ubig {
        debug_assert!(self < m && other < m);
        match self.checked_sub(other) {
            Some(d) => d,
            None => &(self + m) - other,
        }
    }

    /// Modular multiplication `(self * other) mod m` via full product and
    /// division. For repeated multiplication use [`crate::Montgomery`].
    pub fn modmul(&self, other: &Ubig, m: &Ubig) -> Ubig {
        (self * other).rem(m)
    }

    /// Greatest common divisor (binary GCD).
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// assert_eq!(Ubig::from(48u64).gcd(&Ubig::from(36u64)), Ubig::from(12u64));
    /// ```
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = &a >> a_tz;
        b = &b >> b_tz;
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).expect("b >= a");
            if b.is_zero() {
                return &a << common;
            }
            b = &b >> b.trailing_zeros();
        }
    }

    /// Number of trailing zero bits (`0` for zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular inverse: finds `x` with `self * x ≡ 1 (mod m)`, or `None`
    /// if `gcd(self, m) != 1`.
    ///
    /// An odd modulus (every prime `p` and subgroup order `q` the
    /// protocols invert by) runs an in-place binary extended GCD:
    /// shifts and subtractions on four fixed-length limb buffers, no
    /// division and no allocation per step. An even modulus (RSA key
    /// generation's `e⁻¹ mod φ`) runs the extended Euclid over
    /// [`Ubig::div_rem`]. Both are variable-time.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// let m = Ubig::from(97u64);
    /// let inv = Ubig::from(31u64).mod_inverse(&m).unwrap();
    /// assert_eq!(Ubig::from(31u64).modmul(&inv, &m), Ubig::one());
    /// ```
    pub fn mod_inverse(&self, m: &Ubig) -> Option<Ubig> {
        if m.is_even() {
            return self.mod_inverse_euclid(m);
        }
        if m.is_one() {
            return None;
        }
        let a = self.reduced(m);
        if a.is_zero() {
            return None;
        }
        let inv = binary_inverse(&a.limbs, &m.limbs)?;
        debug_assert_eq!(self.modmul(&inv, m), Ubig::one());
        Some(inv)
    }

    /// [`Ubig::mod_inverse`] by the extended Euclidean algorithm, for
    /// any modulus: the path even moduli take, and the reference the
    /// binary path is tested against.
    pub(crate) fn mod_inverse_euclid(&self, m: &Ubig) -> Option<Ubig> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Extended Euclid with sign-tracked Bezout coefficient for `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        if r1.is_zero() {
            return None;
        }
        // t0/t1 track coefficients of `self`; signs kept separately.
        let (mut t0, mut t0_neg) = (Ubig::zero(), false);
        let (mut t1, mut t1_neg) = (Ubig::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1  (signed)
            let qt1 = &q * &t1;
            let (t2, t2_neg) = signed_sub(&t0, t0_neg, &qt1, t1_neg);
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t0_neg = t1_neg;
            t1 = t2;
            t1_neg = t2_neg;
        }
        if !r0.is_one() {
            return None;
        }
        let inv = if t0_neg {
            m.checked_sub(&t0.rem(m))
                .map(|v| if &v == m { Ubig::zero() } else { v })
                .expect("reduced")
        } else {
            t0.rem(m)
        };
        debug_assert_eq!(self.modmul(&inv, m), Ubig::one());
        Some(inv)
    }
}

/// Binary extended GCD (HAC 14.61 for an odd modulus): the inverse of
/// `a` modulo odd `m`, `0 < a < m`, or `None` when they share a factor.
///
/// Keeps `a·x1 ≡ u` and `a·x2 ≡ v (mod m)` while `u` and `v` shrink by
/// halvings and subtractions; `u` reaches zero with `v = gcd(a, m)`.
fn binary_inverse(a: &[u64], m: &[u64]) -> Option<Ubig> {
    let n = m.len();
    let mut u = a.to_vec();
    u.resize(n, 0);
    let mut v = m.to_vec();
    let mut x1 = vec![0u64; n];
    x1[0] = 1;
    let mut x2 = vec![0u64; n];
    loop {
        while u[0] & 1 == 0 {
            shr1(&mut u, 0);
            halve_mod(&mut x1, m);
        }
        while v[0] & 1 == 0 {
            shr1(&mut v, 0);
            halve_mod(&mut x2, m);
        }
        if ge(&u, &v) {
            sub_in_place(&mut u, &v);
            sub_mod(&mut x1, &x2, m);
            if u.iter().all(|&limb| limb == 0) {
                break;
            }
        } else {
            sub_in_place(&mut v, &u);
            sub_mod(&mut x2, &x1, m);
        }
    }
    Ubig::from_limbs(v).is_one().then(|| Ubig::from_limbs(x2))
}

/// Computes `a*sa - b*sb` as a signed big integer `(magnitude, negative)`
/// where `sa`/`sb` are sign flags (`true` = negative).
fn signed_sub(a: &Ubig, a_neg: bool, b: &Ubig, b_neg: bool) -> (Ubig, bool) {
    match (a_neg, b_neg) {
        // a - b
        (false, false) => match a.checked_sub(b) {
            Some(d) => (d, false),
            None => (b.checked_sub(a).expect("b > a"), true),
        },
        // a + b
        (false, true) => (a + b, false),
        // -(a + b)
        (true, false) => (a + b, true),
        // b - a
        (true, true) => match b.checked_sub(a) {
            Some(d) => (d, false),
            None => (a.checked_sub(b).expect("a > b"), true),
        },
    }
}

// ---------------------------------------------------------------------------
// Operator impls (on references, as Ubig is not Copy)
// ---------------------------------------------------------------------------

impl Add for &Ubig {
    type Output = Ubig;

    fn add(self, rhs: &Ubig) -> Ubig {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.limbs.len() {
            let s = short.limbs.get(i).copied().unwrap_or(0);
            limbs.push(adc(long.limbs[i], s, &mut carry));
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Ubig::from_limbs(limbs)
    }
}

impl Sub for &Ubig {
    type Output = Ubig;

    /// # Panics
    ///
    /// Panics on underflow; use [`Ubig::checked_sub`] when the ordering
    /// of the operands is not statically known.
    fn sub(self, rhs: &Ubig) -> Ubig {
        self.checked_sub(rhs)
            .expect("Ubig subtraction underflow; use checked_sub")
    }
}

impl Mul for &Ubig {
    type Output = Ubig;

    fn mul(self, rhs: &Ubig) -> Ubig {
        if self.is_zero() || rhs.is_zero() {
            return Ubig::zero();
        }
        Ubig::from_limbs(schoolbook_mul(&self.limbs, &rhs.limbs))
    }
}

impl Shl<usize> for &Ubig {
    type Output = Ubig;

    fn shl(self, bits: usize) -> Ubig {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Ubig::from_limbs(limbs)
    }
}

impl Shl<usize> for Ubig {
    type Output = Ubig;

    fn shl(self, bits: usize) -> Ubig {
        &self << bits
    }
}

impl Shr<usize> for &Ubig {
    type Output = Ubig;

    fn shr(self, bits: usize) -> Ubig {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return Ubig::from_limbs(src.to_vec());
        }
        let mut limbs = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            limbs.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
        }
        Ubig::from_limbs(limbs)
    }
}

impl Shr<usize> for Ubig {
    type Output = Ubig;

    fn shr(self, bits: usize) -> Ubig {
        &self >> bits
    }
}

#[cfg(test)]
mod tests {
    use crate::Ubig;

    fn u(v: u64) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn add_with_carry_chain() {
        let a = Ubig::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let sum = &a + &Ubig::one();
        assert_eq!(sum.to_hex(), "100000000000000000000000000000000");
        assert_eq!(&Ubig::zero() + &a, a);
    }

    #[test]
    fn sub_borrow_chain() {
        let a = Ubig::from_hex("100000000000000000000000000000000").unwrap();
        let d = &a - &Ubig::one();
        assert_eq!(d.to_hex(), "ffffffffffffffffffffffffffffffff");
        assert_eq!(a.checked_sub(&a), Some(Ubig::zero()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &u(1) - &u(2);
    }

    #[test]
    fn mul_small_and_identities() {
        assert_eq!(&u(6) * &u(7), u(42));
        assert_eq!(&u(0) * &u(7), Ubig::zero());
        assert_eq!(&u(1) * &u(7), u(7));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let m = Ubig::from_hex("ffffffffffffffff").unwrap();
        assert_eq!((&m * &m).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn shifts_roundtrip() {
        let a = Ubig::from_hex("123456789abcdef0f0debc9a78563412").unwrap();
        for s in [0, 1, 63, 64, 65, 127, 130] {
            assert_eq!((&a << s) >> s, a, "shift {s}");
        }
        assert_eq!(&Ubig::zero() << 100, Ubig::zero());
        assert_eq!(&u(1) >> 1, Ubig::zero());
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = u(1000).div_rem(&u(7));
        assert_eq!((q, r), (u(142), u(6)));
        let (q, r) = u(5).div_rem(&u(10));
        assert_eq!((q, r), (Ubig::zero(), u(5)));
    }

    #[test]
    fn div_rem_knuth_reconstruction() {
        let a = Ubig::from_hex(
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\
             aaf4c8996fb92427ae41e4649b934ca495991b7852b855deadbeef",
        )
        .unwrap();
        let b = Ubig::from_hex("fedcba9876543210fedcba9876543210ff").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_knuth_add_back_case() {
        // Construct the classic add-back trigger: dividend just below
        // divisor * 2^64k with a tricky top configuration.
        let b = Ubig::from_hex("80000000000000000000000000000001").unwrap();
        let a = &(&b << 128) - &Ubig::one();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = u(1).div_rem(&Ubig::zero());
    }

    #[test]
    fn modadd_modsub_wraparound() {
        let m = u(97);
        assert_eq!(u(96).modadd(&u(5), &m), u(4));
        assert_eq!(u(3).modsub(&u(5), &m), u(95));
        assert_eq!(u(5).modsub(&u(5), &m), Ubig::zero());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(u(48).gcd(&u(36)), u(12));
        assert_eq!(u(17).gcd(&u(31)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
        assert_eq!(u(12).gcd(&u(12)), u(12));
    }

    #[test]
    fn mod_inverse_exists_and_verifies() {
        let m = Ubig::from_hex("fffffffffffffffffffffffffffffff1").unwrap();
        let a = Ubig::from_hex("123456789abcdef").unwrap();
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(a.modmul(&inv, &m), Ubig::one());
    }

    #[test]
    fn mod_inverse_nonexistent() {
        assert!(u(6).mod_inverse(&u(9)).is_none(), "gcd 3");
        assert!(u(5).mod_inverse(&Ubig::one()).is_none());
        assert!(u(0).mod_inverse(&u(7)).is_none());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(u(0).trailing_zeros(), 0);
        assert_eq!(u(8).trailing_zeros(), 3);
        assert_eq!((&u(1) << 200).trailing_zeros(), 200);
    }
}
