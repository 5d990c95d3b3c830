//! Arbitrary-precision unsigned integer arithmetic for the Secure Spread
//! reproduction.
//!
//! This crate is the bottom-most substrate of the workspace: it stands in
//! for the OpenSSL bignum library that the original Cliques toolkit was
//! built on. It provides everything the group key agreement protocols
//! need — and nothing more:
//!
//! * [`Ubig`] — an unsigned big integer stored as little-endian `u64`
//!   limbs, with schoolbook multiplication and Knuth Algorithm D
//!   division.
//! * [`Montgomery`] — a reduction context for fast repeated modular
//!   multiplication, used by [`Ubig::modexp`] with a sliding window
//!   (the same algorithm family OpenSSL used at the time of the paper).
//!   At 4, 8 and 16 limbs the kernels run on stack arrays and an
//!   exponentiation allocates only its result; other widths thread a
//!   [`MontScratch`]. Squaring has a dedicated half-product kernel, and
//!   [`FixedBase`] serves fixed-base exponentiations (`g^x`) from a
//!   precomputed Lim–Lee comb: about `bits/8` multiplications and
//!   `bits/32` squarings each.
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   (safe-)prime generation for RSA key and Diffie–Hellman parameter
//!   generation.
//! * [`RandomSource`] / [`SplitMix64`] — a minimal deterministic entropy
//!   abstraction so that higher layers can run reproducible simulations.
//!
//! # Example
//!
//! ```
//! use gkap_bignum::Ubig;
//!
//! let p = Ubig::from_hex("ffffffffffffffc5").unwrap(); // a 64-bit prime
//! let g = Ubig::from(5u64);
//! let a = Ubig::from(123_456_789u64);
//! let b = Ubig::from(987_654_321u64);
//! // Diffie-Hellman toy exchange: (g^a)^b == (g^b)^a (mod p)
//! let ga = g.modexp(&a, &p);
//! let gb = g.modexp(&b, &p);
//! assert_eq!(ga.modexp(&b, &p), gb.modexp(&a, &p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod montgomery;
pub mod prime;
mod rng;
pub mod stats;
mod ubig;

pub use montgomery::{FixedBase, MontElem, MontScratch, Montgomery};
pub use rng::{RandomSource, SplitMix64};
pub use ubig::{ParseUbigError, Ubig};
