//! Diffie–Hellman groups.
//!
//! The paper evaluates every protocol with 512-bit and 1024-bit DH
//! moduli, and its protocols use a group only to exponentiate
//! ([`DhGroup::exp`], [`DhGroup::exp_g`]). We provide:
//!
//! * [`DhGroup::modp_512`] — a fixed 512-bit safe prime generated with
//!   this workspace's own [`gkap_bignum::prime`] module (there is no
//!   IETF-published 512-bit group).
//! * [`DhGroup::modp_1024`] — the Oakley Group 2 prime from RFC 2409.
//! * [`DhGroup::test_256`] — a small fixed group so correctness tests of
//!   the protocol layer run fast.
//!
//! All fixed groups use safe primes `p = 2q + 1`; exponents are drawn
//! from `[1, q)` and public values are validated to lie in `(1, p-1)`.

use gkap_bignum::{prime, FixedBase, Montgomery, RandomSource, Ubig};

use crate::CryptoError;

/// A Diffie–Hellman group `(p, g)` with subgroup order `q`.
///
/// Holds a pre-built Montgomery context so repeated exponentiations (the
/// dominant cost in every protocol in the paper) avoid re-deriving the
/// reduction constants, plus a precomputed fixed-base comb for the
/// generator: `g^x` — the single hottest operation in every protocol —
/// runs as about `bits/8` table multiplications and `bits/32`
/// squarings instead of a full ladder.
#[derive(Clone, Debug)]
pub struct DhGroup {
    name: &'static str,
    p: Ubig,
    /// `p − 1`, the largest value [`DhGroup::validate_public`] refuses.
    p_minus_1: Ubig,
    g: Ubig,
    q: Ubig,
    mont: Montgomery,
    fixed_g: FixedBase,
    /// Whether `g ≠ 1` and `g^q = 1`, so `g` has prime order `q`.
    prime_order_g: bool,
}

impl DhGroup {
    fn from_hex(name: &'static str, p_hex: &str, g: u64) -> Self {
        let p = Ubig::from_hex(p_hex).expect("valid embedded constant");
        let q = &(&p - &Ubig::one()) >> 1;
        DhGroup::from_parts(name, p, Ubig::from(g), q)
    }

    /// The group `(p, g)` with subgroup order `q`: the fixed groups
    /// below, or a caller's own parameters. `g`'s order is checked
    /// here, once: see [`DhGroup::generator_has_order_q`]. A formed
    /// component's keys (`g^(x mod q)` products) are only right when
    /// the check passes, as every generated and fixed group's does.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even.
    pub fn from_parts(name: &'static str, p: Ubig, g: Ubig, q: Ubig) -> Self {
        let mont = Montgomery::new(&p).expect("odd prime modulus");
        // Exponents live in [1, q) ⊂ [0, p), so a comb covering
        // p.bit_len() (rounded up to a multiple of 32 bits) serves every
        // exp_g the protocols issue without the ladder fallback.
        let fixed_g = mont.fixed_base(&g, p.bit_len());
        let prime_order_g = !g.is_one() && mont.modexp_fixed(&fixed_g, &q).is_one();
        DhGroup {
            name,
            p_minus_1: &p - &Ubig::one(),
            p,
            g,
            q,
            mont,
            fixed_g,
            prime_order_g,
        }
    }

    /// Fixed 256-bit safe-prime group for fast tests.
    pub fn test_256() -> Self {
        Self::from_hex(
            "test-256",
            "8b1edde45c03fe6de5c04d2cdab6d50033eac312a6a7cdcc5637db4cfec84683",
            4,
        )
    }

    /// Fixed 512-bit safe-prime group (the paper's "DH 512 bits"
    /// configuration). Generated by `gkap-bignum`'s safe-prime generator
    /// with a fixed seed; `g = 2` generates the order-`q` subgroup.
    pub fn modp_512() -> Self {
        Self::from_hex(
            "modp-512",
            "fdc6a56f2be70d0c4fb7a5a459638ed901e1ca836fa65a77a29e6eefda3cd70b\
             f6d5247dab45e1d3339255459b68a24acc2a0664a8a62f59369441d9400b40c7",
            2,
        )
    }

    /// RFC 2409 Oakley Group 2 (1024-bit MODP) — the paper's
    /// "DH 1024 bits" configuration.
    pub fn modp_1024() -> Self {
        Self::from_hex(
            "modp-1024",
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
            2,
        )
    }

    /// Generates a fresh (non-fixed) safe-prime group of `bits` bits —
    /// useful for property tests over many groups.
    pub fn generate<R: RandomSource + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let (p, q) = prime::random_safe_prime(bits, rng);
        let two = Ubig::from(2u64);
        let g = if two.modexp(&q, &p).is_one() {
            two
        } else {
            Ubig::from(4u64)
        };
        DhGroup::from_parts("generated", p, g, q)
    }

    /// The group's human-readable name (e.g. `"modp-512"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// The generator `g`.
    pub fn generator(&self) -> &Ubig {
        &self.g
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn order(&self) -> &Ubig {
        &self.q
    }

    /// Whether the generator has prime order `q` (`g ≠ 1` and
    /// `g^q = 1`, checked at construction). Then every element `g^d`
    /// raised to `e` is `g^(d·e mod q)`, which [`DhGroup::exp_g`]
    /// computes from the generator's comb; a group whose generator
    /// fails the check never takes that shortcut.
    pub fn generator_has_order_q(&self) -> bool {
        self.prime_order_g
    }

    /// Modulus size in bits (512 / 1024 / … — the paper's headline
    /// parameter).
    pub fn bits(&self) -> usize {
        self.p.bit_len()
    }

    /// Draws a secret exponent in `[1, q)`.
    pub fn random_exponent<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Ubig {
        rng.next_ubig_in_range(&self.q)
    }

    /// Raw group exponentiation `base^exp mod p` — the unit the paper's
    /// Table 1 counts as one "exponentiation".
    pub fn exp(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.mont.modexp(base, exp)
    }

    /// `g^exp mod p`, served from the generator's Lim–Lee comb
    /// ([`gkap_bignum::FixedBase`]): one Montgomery multiplication per
    /// non-zero 8-bit comb pattern of `exp` (at most `bits/8`) and a
    /// squaring between columns (`bits/32 − 1`), instead of a full
    /// square-and-multiply ladder.
    pub fn exp_g(&self, exp: &Ubig) -> Ubig {
        self.mont.modexp_fixed(&self.fixed_g, exp)
    }

    /// Validates that a received group element lies in `(1, p-1)`.
    /// Allocates nothing: it runs on every element a peer sends.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicValue`] for 0, 1, `p-1` or
    /// anything ≥ `p` (small-subgroup / identity injection guards).
    pub fn validate_public(&self, v: &Ubig) -> Result<(), CryptoError> {
        if v.is_zero() || v.is_one() || *v >= self.p_minus_1 {
            return Err(CryptoError::InvalidPublicValue);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bignum::SplitMix64;

    #[test]
    fn fixed_groups_are_well_formed() {
        let mut rng = SplitMix64::new(0);
        for group in [
            DhGroup::test_256(),
            DhGroup::modp_512(),
            DhGroup::modp_1024(),
        ] {
            assert!(
                prime::is_prime(group.modulus(), &mut rng),
                "{}",
                group.name()
            );
            // p = 2q + 1
            let reconstructed = &(group.order() << 1) + &Ubig::one();
            assert_eq!(&reconstructed, group.modulus(), "{}", group.name());
            // g generates the order-q subgroup: g^q == 1.
            assert!(
                group.exp_g(group.order()).is_one(),
                "{} generator order",
                group.name()
            );
            assert!(group.generator_has_order_q(), "{}", group.name());
        }
    }

    #[test]
    fn a_generator_outside_the_order_q_subgroup_fails_the_check() {
        let group = DhGroup::test_256();
        let (p, q) = (group.modulus(), group.order());
        // p ≡ 3 (mod 4), so −1 is a non-residue and −4 has order 2q;
        // p − 1 has order 2, and 1 order 1.
        for (g, order) in [
            (p - &Ubig::from(4u64), "2q"),
            (p - &Ubig::one(), "2"),
            (Ubig::one(), "1"),
        ] {
            let toy = DhGroup::from_parts("toy", p.clone(), g, q.clone());
            assert!(!toy.generator_has_order_q(), "order {order}");
        }
        let same = DhGroup::from_parts("same", p.clone(), Ubig::from(4u64), q.clone());
        assert!(same.generator_has_order_q());
    }

    #[test]
    fn group_bit_sizes() {
        assert_eq!(DhGroup::test_256().bits(), 256);
        assert_eq!(DhGroup::modp_512().bits(), 512);
        assert_eq!(DhGroup::modp_1024().bits(), 1024);
    }

    #[test]
    fn two_party_exchange_agrees() {
        let group = DhGroup::test_256();
        let mut rng = SplitMix64::new(42);
        let a = group.random_exponent(&mut rng);
        let b = group.random_exponent(&mut rng);
        let (alice, bob) = (group.exp_g(&a), group.exp_g(&b));
        assert_ne!(alice, bob);
        assert_eq!(group.exp(&bob, &a), group.exp(&alice, &b));
    }

    #[test]
    fn validate_public_rejects_degenerate_values() {
        let group = DhGroup::test_256();
        let p_minus_1 = group.modulus() - &Ubig::one();
        for bad in [
            Ubig::zero(),
            Ubig::one(),
            p_minus_1,
            group.modulus().clone(),
            group.modulus() + &Ubig::one(),
        ] {
            assert_eq!(
                group.validate_public(&bad),
                Err(CryptoError::InvalidPublicValue)
            );
        }
        let mut rng = SplitMix64::new(7);
        let public = group.exp_g(&group.random_exponent(&mut rng));
        assert!(group.validate_public(&public).is_ok());
        assert!(group
            .validate_public(&(group.modulus() - &Ubig::from(2u64)))
            .is_ok());
    }

    #[test]
    fn fixed_base_exp_g_matches_variable_base() {
        // The exp_g fast path (fixed-base table) must agree with the
        // generic ladder on every group size the paper uses.
        let mut rng = SplitMix64::new(0xf1bed);
        for group in [
            DhGroup::test_256(),
            DhGroup::modp_512(),
            DhGroup::modp_1024(),
        ] {
            for _ in 0..5 {
                let e = group.random_exponent(&mut rng);
                assert_eq!(
                    group.exp_g(&e),
                    group.exp(group.generator(), &e),
                    "{} exponent {}",
                    group.name(),
                    e
                );
            }
            assert_eq!(group.exp_g(&Ubig::zero()), Ubig::one(), "{}", group.name());
            assert_eq!(
                group.exp_g(&Ubig::one()),
                group.generator().clone(),
                "{}",
                group.name()
            );
        }
    }

    #[test]
    fn exponent_in_range() {
        let group = DhGroup::test_256();
        let mut rng = SplitMix64::new(3);
        for _ in 0..50 {
            let e = group.random_exponent(&mut rng);
            assert!(!e.is_zero() && &e < group.order());
        }
    }

    #[test]
    fn generated_group_round_trips() {
        let mut rng = SplitMix64::new(11);
        let group = DhGroup::generate(40, &mut rng);
        let a = group.random_exponent(&mut rng);
        let b = group.random_exponent(&mut rng);
        assert_eq!(
            group.exp(&group.exp_g(&b), &a),
            group.exp(&group.exp_g(&a), &b)
        );
        assert!(group.exp_g(group.order()).is_one());
    }
}
