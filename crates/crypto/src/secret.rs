//! `Secret<T>`: a zeroize-on-drop wrapper for key material.
//!
//! Every long-lived secret in the workspace — DH private exponents,
//! RSA CRT private components, derived session keys and protocol
//! group secrets — lives inside this wrapper. It buys
//! three properties:
//!
//! * **erasure on drop** — the inner value is overwritten with zeros
//!   before its memory is released ([`Zeroize`]),
//! * **no accidental formatting** — `Debug` always prints a redaction
//!   marker, and there is deliberately no `Display`, `Serialize` or
//!   derived `PartialEq`, and
//! * **checkability** — the wrapper is what the L2 source pin in
//!   `crates/core/tests/one_harness.rs` looks for: a secret-named
//!   struct field stored outside `Secret<T>` fails it (`L2-RAW`), and
//!   so does a secret-bearing struct deriving `Debug` or `Serialize`
//!   (`L2-DERIVE`). Read access goes through the single choke point
//!   [`Secret::expose`].
//!
//! The workspace forbids `unsafe`, so erasure is best-effort: plain
//! stores pinned behind [`std::hint::black_box`] rather than volatile
//! writes, and values moved or reallocated before wrapping may have
//! left copies behind. That is the strongest guarantee available under
//! `#![forbid(unsafe_code)]`, and it still removes the common failure
//! mode (keys lingering in freed allocations for the process lifetime).

use std::fmt;

use gkap_bignum::Ubig;

/// Types that can overwrite their contents with zeros in place.
pub trait Zeroize {
    /// Overwrites the value with zeros. Must not allocate.
    fn zeroize(&mut self);
}

impl Zeroize for Ubig {
    fn zeroize(&mut self) {
        Ubig::zeroize(self);
    }
}

impl<const N: usize> Zeroize for [u8; N] {
    fn zeroize(&mut self) {
        for b in self.iter_mut() {
            *b = 0;
        }
        std::hint::black_box(&self[..]);
    }
}

impl Zeroize for Vec<u8> {
    fn zeroize(&mut self) {
        for b in self.iter_mut() {
            *b = 0;
        }
        std::hint::black_box(self.as_slice());
        self.clear();
    }
}

impl<T: Zeroize> Zeroize for Option<T> {
    fn zeroize(&mut self) {
        if let Some(v) = self.as_mut() {
            v.zeroize();
        }
    }
}

/// Zeroize-on-drop container. See the module docs for the contract.
pub struct Secret<T: Zeroize>(T);

impl<T: Zeroize> Secret<T> {
    /// Wraps `value`. From here on the only read access is
    /// [`Secret::expose`].
    pub fn new(value: T) -> Self {
        Secret(value)
    }

    /// Borrows the inner value: the one read path, so every use of the
    /// secret is a greppable call site.
    pub fn expose(&self) -> &T {
        &self.0
    }

    /// Erases the inner value now rather than at drop time.
    pub fn zeroize_now(&mut self) {
        self.0.zeroize();
    }
}

impl<T: Zeroize> Drop for Secret<T> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

impl<T: Zeroize + Clone> Clone for Secret<T> {
    fn clone(&self) -> Self {
        Secret(self.0.clone())
    }
}

impl<T: Zeroize> fmt::Debug for Secret<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Secret(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A canary whose storage is shared, so the test can observe the
    /// zeroize that `Drop` performs after the `Secret` is gone.
    struct Canary(Rc<RefCell<Vec<u8>>>);

    impl Zeroize for Canary {
        fn zeroize(&mut self) {
            for b in self.0.borrow_mut().iter_mut() {
                *b = 0;
            }
        }
    }

    #[test]
    fn drop_zeroizes() {
        let shared = Rc::new(RefCell::new(vec![0xAB; 32]));
        let secret = Secret::new(Canary(Rc::clone(&shared)));
        assert!(shared.borrow().iter().all(|&b| b == 0xAB));
        drop(secret);
        assert!(
            shared.borrow().iter().all(|&b| b == 0),
            "buffer must be cleared when the Secret is dropped"
        );
    }

    #[test]
    fn zeroize_now_clears_in_place() {
        let mut s = Secret::new([0x5Au8; 16]);
        s.zeroize_now();
        assert_eq!(s.expose(), &[0u8; 16]);
    }

    #[test]
    fn ubig_zeroize_clears_limbs() {
        let mut v = Ubig::from_be_bytes(&[0xFF; 24]);
        assert!(!v.is_zero());
        v.zeroize();
        assert!(v.is_zero());
        assert!(v.limbs().is_empty());
    }

    #[test]
    fn debug_is_redacted() {
        let s = Secret::new([7u8; 4]);
        let shown = format!("{s:?}");
        assert_eq!(shown, "Secret(<redacted>)");
        assert!(!shown.contains('7'));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Secret::new(vec![1u8, 2, 3]);
        let b = a.clone();
        a.zeroize_now();
        assert_eq!(b.expose(), &[1, 2, 3]);
        assert!(a.expose().is_empty());
    }
}
