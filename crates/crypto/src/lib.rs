//! Cryptographic primitives for the Secure Spread reproduction.
//!
//! Stands in for the OpenSSL layer beneath the original Cliques toolkit.
//! Everything is implemented from scratch on top of [`gkap_bignum`]:
//!
//! * [`sha`] — SHA-256 (FIPS 180).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), keyed once per key.
//! * [`aes`] — AES-128 (FIPS 197) with CTR mode for the data
//!   confidentiality layer of the secure group session.
//! * [`dh`] — Diffie–Hellman over published MODP groups (768/1024/2048
//!   bits, RFC 2409/3526) plus fixed 512-bit and 256-bit safe-prime
//!   groups, matching the paper's use of 512- and 1024-bit parameters.
//! * [`rsa`] — RSA PKCS#1 v1.5 signatures with CRT speedup. The paper
//!   signs every protocol message with 1024-bit RSA and public exponent
//!   **3** to make verification cheap; both `e = 3` and `e = 65537` are
//!   supported. (The DSA alternative the paper contrasts it with in
//!   §6.1.1 is simulated by its costs alone, in `gkap-core`.)
//! * [`kdf`] — a SHA-256 based key derivation function turning DH group
//!   secrets into fixed-length symmetric keys.
//!
//! # Security caveat
//!
//! This crate exists to reproduce the *performance study* of a 2002
//! paper. It uses deterministic entropy ([`gkap_bignum::SplitMix64`])
//! in simulations, 2002-era parameter sizes, and has had no side-channel
//! hardening: modular exponentiation is not constant-time, and AES runs
//! on 32-bit T-tables ([`aes`]), whose lookups are data-dependent loads
//! (the same class as the byte S-box they replaced, and open to cache
//! timing). Do not use it to protect real data.
//!
//! # Example
//!
//! ```
//! use gkap_crypto::dh::DhGroup;
//! use gkap_bignum::SplitMix64;
//!
//! let group = DhGroup::test_256();
//! let mut rng = SplitMix64::new(1);
//! let alice = group.generate_keypair(&mut rng);
//! let bob = group.generate_keypair(&mut rng);
//! let k1 = group.shared_secret(&alice, bob.public());
//! let k2 = group.shared_secret(&bob, alice.public());
//! assert_eq!(k1, k2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod dh;
pub mod hmac;
pub mod kdf;
pub mod rsa;
pub mod secret;
pub mod sha;

pub use secret::{Secret, Zeroize};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed verification.
    BadSignature,
    /// Ciphertext or MAC was malformed or failed authentication.
    BadCiphertext,
    /// A supplied public value was outside the valid range of the group.
    InvalidPublicValue,
    /// Key generation could not satisfy the requested parameters.
    KeyGeneration(&'static str),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadCiphertext => {
                write!(f, "ciphertext malformed or failed authentication")
            }
            CryptoError::InvalidPublicValue => {
                write!(f, "public value outside the valid group range")
            }
            CryptoError::KeyGeneration(what) => write!(f, "key generation failed: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}
