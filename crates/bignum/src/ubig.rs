//! The [`Ubig`] unsigned big-integer type: representation, construction,
//! conversions, comparison and bit-level accessors.
//!
//! Arithmetic lives in [`crate::arith`]; modular exponentiation in
//! [`crate::montgomery`].

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with the invariant that the
/// most-significant limb is non-zero (zero is the empty limb vector).
/// All arithmetic is `forbid(unsafe_code)`-pure Rust.
///
/// # Example
///
/// ```
/// use gkap_bignum::Ubig;
/// let a = Ubig::from(10u64);
/// let b = Ubig::from(4u64);
/// assert_eq!((&a * &b).to_string(), "40");
/// assert_eq!((&a - &b).to_string(), "6");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ubig {
    pub(crate) limbs: Vec<u64>,
}

/// Error returned when parsing a [`Ubig`] from a string fails.
///
/// ```
/// use gkap_bignum::Ubig;
/// assert!(Ubig::from_hex("xyz").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUbigError {
    pub(crate) offending: char,
}

impl fmt::Display for ParseUbigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid digit {:?} in big-integer literal",
            self.offending
        )
    }
}

impl Error for ParseUbigError {}

impl Ubig {
    /// The value `0`.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// assert!(Ubig::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Constructs a `Ubig` from little-endian limbs, normalizing away
    /// high zero limbs.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Ubig { limbs }
    }

    /// Borrows the little-endian limb slice (no trailing zero limbs).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Best-effort secret erasure: overwrites every limb with zero,
    /// pins the stores behind [`std::hint::black_box`] so the
    /// optimizer cannot elide them as dead writes, then truncates to
    /// the canonical zero representation.
    ///
    /// "Best effort" because the crate forbids `unsafe`, so there is
    /// no volatile-write guarantee, and intermediate reallocations
    /// during earlier arithmetic may have left copies elsewhere on the
    /// heap. The wrapper type `gkap-crypto::Secret` calls this on drop.
    pub fn zeroize(&mut self) {
        for limb in self.limbs.iter_mut() {
            *limb = 0;
        }
        std::hint::black_box(self.limbs.as_slice());
        self.limbs.clear();
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is exactly one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// assert_eq!(Ubig::from(0b1011u64).bit_len(), 4);
    /// assert_eq!(Ubig::zero().bit_len(), 0);
    /// ```
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let (limb, off) = (i / 64, i % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            while self.limbs.last() == Some(&0) {
                self.limbs.pop();
            }
        }
    }

    /// Interprets a big-endian byte string as an integer.
    ///
    /// This is the canonical wire decoding used by the protocol layer.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// assert_eq!(Ubig::from_be_bytes(&[0x01, 0x00]), Ubig::from(256u64));
    /// ```
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        Ubig::from_limbs(limbs)
    }

    /// Encodes the integer as a minimal big-endian byte string
    /// (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Encodes the integer as a fixed-width big-endian byte string,
    /// left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bytes.
    pub fn to_be_bytes_padded(&self, width: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(
            raw.len() <= width,
            "value of {} bytes does not fit in {} bytes",
            raw.len(),
            width
        );
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix; case-insensitive;
    /// embedded ASCII whitespace is ignored to allow RFC-style
    /// formatted constants).
    ///
    /// # Errors
    ///
    /// Returns [`ParseUbigError`] on any non-hex, non-whitespace
    /// character.
    pub fn from_hex(s: &str) -> Result<Self, ParseUbigError> {
        let mut nibbles = Vec::with_capacity(s.len());
        for c in s.chars() {
            if c.is_ascii_whitespace() {
                continue;
            }
            let v = c.to_digit(16).ok_or(ParseUbigError { offending: c })?;
            nibbles.push(v as u64);
        }
        let mut limbs = Vec::with_capacity(nibbles.len() / 16 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0;
        for &n in nibbles.iter().rev() {
            cur |= n << shift;
            shift += 4;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        Ok(Ubig::from_limbs(limbs))
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUbigError`] on any non-digit character.
    pub fn from_dec(s: &str) -> Result<Self, ParseUbigError> {
        let mut acc = Ubig::zero();
        let ten = Ubig::from(10u64);
        for c in s.chars() {
            let v = c.to_digit(10).ok_or(ParseUbigError { offending: c })? as u64;
            acc = &(&acc * &ten) + &Ubig::from(v);
        }
        Ok(acc)
    }

    /// Lowercase hexadecimal rendering without a prefix (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Returns the low 64 bits of the value (zero-extended).
    fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_limbs(vec![crate::arith::lo64(v), (v >> 64) as u64])
    }
}

impl From<u32> for Ubig {
    fn from(v: u32) -> Self {
        Ubig::from(v as u64)
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig(0x{})", self.to_hex())
    }
}

impl fmt::Display for Ubig {
    /// Decimal rendering (repeated division by 10^19 chunks).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Peel off 19-decimal-digit chunks (largest power of ten < 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let chunk = Ubig::from(CHUNK);
        let mut rest = self.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !rest.is_zero() {
            let (q, r) = rest.div_rem(&chunk);
            chunks.push(r.low_u64());
            rest = q;
        }
        let mut s = format!("{}", chunks.pop().unwrap());
        for c in chunks.iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::LowerHex for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::UpperHex for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex().to_uppercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_basics() {
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
        assert!(Ubig::zero().is_even());
        assert!(!Ubig::one().is_even());
        assert_eq!(Ubig::zero(), Ubig::from(0u64));
        assert_eq!(Ubig::default(), Ubig::zero());
    }

    #[test]
    fn bit_len_and_bit_access() {
        let v = Ubig::from_hex("8000000000000000").unwrap();
        assert_eq!(v.bit_len(), 64);
        assert!(v.bit(63));
        assert!(!v.bit(62));
        assert!(!v.bit(64 + 1));
        let w = Ubig::from_hex("10000000000000000").unwrap();
        assert_eq!(w.bit_len(), 65);
        assert!(w.bit(64));
    }

    #[test]
    fn set_bit_roundtrip_and_normalization() {
        let mut v = Ubig::zero();
        v.set_bit(200, true);
        assert_eq!(v.bit_len(), 201);
        v.set_bit(200, false);
        assert!(v.is_zero());
        assert_eq!(v.limbs.len(), 0, "normalization must strip zero limbs");
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["0", "1", "f", "deadbeef", "123456789abcdef0123456789abcdef"] {
            let v = Ubig::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s, "case {s}");
            assert_eq!(Ubig::from_hex(&v.to_hex()).unwrap(), v);
        }
        // Leading zeros parse but do not render.
        assert_eq!(Ubig::from_hex("000ff").unwrap().to_hex(), "ff");
    }

    #[test]
    fn hex_ignores_whitespace() {
        let a = Ubig::from_hex("dead beef\n  cafe").unwrap();
        let b = Ubig::from_hex("deadbeefcafe").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hex_rejects_garbage() {
        let err = Ubig::from_hex("12g4").unwrap_err();
        assert_eq!(err.offending, 'g');
        assert!(err.to_string().contains('g'));
    }

    #[test]
    fn decimal_parse_and_display() {
        let v = Ubig::from_dec("340282366920938463463374607431768211456").unwrap(); // 2^128
        assert_eq!(v.bit_len(), 129);
        assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
        assert_eq!(Ubig::from_dec("0").unwrap(), Ubig::zero());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = Ubig::from_hex("0102030405060708090a").unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(Ubig::from_be_bytes(&bytes), v);
        assert_eq!(Ubig::from_be_bytes(&[]), Ubig::zero());
        assert!(Ubig::zero().to_be_bytes().is_empty());
    }

    #[test]
    fn be_bytes_padded() {
        let v = Ubig::from(0x0102u64);
        assert_eq!(v.to_be_bytes_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn be_bytes_padded_overflow_panics() {
        Ubig::from(0x010203u64).to_be_bytes_padded(2);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Ubig::from_hex("ffffffffffffffff").unwrap();
        let b = Ubig::from_hex("10000000000000000").unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        let c = Ubig::from_hex("20000000000000000").unwrap();
        assert!(b < c, "same limb count compares by magnitude");
    }

    #[test]
    fn u64_conversions() {
        assert_eq!(Ubig::from(42u64).to_u64(), Some(42));
        let big = Ubig::from_hex("10000000000000000").unwrap();
        assert_eq!(big.to_u64(), None);
        assert_eq!(big.low_u64(), 0);
        assert_eq!(Ubig::from(7u32), Ubig::from(7u64));
        assert_eq!(Ubig::from(u128::MAX).bit_len(), 128);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Ubig::zero()), "Ubig(0x0)");
        assert_eq!(format!("{:x}", Ubig::from(255u64)), "ff");
        assert_eq!(format!("{:X}", Ubig::from(255u64)), "FF");
    }
}
